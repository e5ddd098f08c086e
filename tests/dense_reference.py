"""An exact reference for two-channel propagation on small grids.

The Hamiltonian is built as a dense 2N x 2N matrix on the grid nodes and
integrated by a general-purpose ODE solver; nothing here shares stepping
code with wpsim.

* The kinetic block is the Fourier-grid -d2/dx2: the discrete transform of
  the identity, scaled by k^2 and transformed back.
* The surfaces sit on the diagonal blocks; the pulse's chirp adds
  chirp_rate (t - t_center) to channel 2.
* The coupling V(t) fills the off-diagonal blocks.

There is no absorber: the mask is not a Hamiltonian term.
"""

from __future__ import annotations

import numpy as np


def kinetic_matrix(x_min: float, x_max: float, n_points: int) -> np.ndarray:
    """-d2/dx2 on the periodic grid, as the N x N matrix F^-1 diag(k^2) F."""
    dx = (x_max - x_min) / n_points
    k = 2.0 * np.pi * np.fft.fftfreq(n_points, d=dx)
    return np.fft.ifft(k[:, None] ** 2 * np.fft.fft(np.eye(n_points), axis=0), axis=0)


def envelope(pulse, t: float) -> float:
    """V(t) of a wpsim PulseSpec, from its documented formula."""
    if pulse.envelope == "constant":
        return pulse.v0
    return pulse.v0 * np.exp(-((t - pulse.t_center) ** 2) / (2.0 * pulse.t_width**2))


def evolve(x, u1, u2, pulse, psi0, t_final: float) -> np.ndarray:
    """The (2, N) state at t_final, from psi0 at t = 0, under i dpsi/dt = H(t) psi.

    ``x`` holds the grid nodes (a periodic grid whose last node is one dx
    short of x_max) and ``u1``, ``u2`` the surfaces sampled on them.
    """
    from scipy.integrate import solve_ivp

    n = len(x)
    dx = x[1] - x[0]
    kin = kinetic_matrix(x[0], x[0] + n * dx, n)
    static = np.zeros((2 * n, 2 * n), dtype=complex)
    static[:n, :n] = kin + np.diag(u1)
    static[n:, n:] = kin + np.diag(u2)

    def rhs(t, psi):
        out = static @ psi
        out[:n] += envelope(pulse, t) * psi[n:]
        out[n:] += envelope(pulse, t) * psi[:n]
        out[n:] += pulse.chirp_rate * (t - pulse.t_center) * psi[n:]
        return -1j * out

    sol = solve_ivp(rhs, (0.0, t_final), np.ravel(psi0).astype(complex), method="DOP853",
                    rtol=1e-12, atol=1e-13)
    assert sol.success, sol.message
    return sol.y[:, -1].reshape(2, n)
