"""Spatial grid, two-channel wavefunctions, inner products, ground-state prep.

Scaled units throughout: hbar = 1 and the kinetic operator is exactly
-d2/dx2 (i.e. effective mass 1/2).  The harmonic reference potential is
U(x) = x^2/2, whose ground state is the Gaussian

    phi0(x) = (2 pi^2)^(-1/8) exp(-x^2 / (2 sqrt(2)))

with energy 1/sqrt(2) and position variance sqrt(2)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral
from typing import NamedTuple

import numpy as np

from ._fft import fft, ifft

__all__ = ["GROUND_STATE_ENERGY", "GROUND_STATE_PEAK_DENSITY", "GROUND_STATE_VARIANCE", "Grid",
           "GridError", "GridMismatchError", "Populations", "RelaxationError", "TwoChannelState",
           "energy_expectation", "gaussian_packet", "harmonic_ground_state", "imaginary_time_relax",
           "make_grid", "momentum_norm", "norm", "overlap"]

GROUND_STATE_ENERGY = 1.0 / np.sqrt(2.0)
# peak probability density of the harmonic ground state, |phi0(0)|^2
GROUND_STATE_PEAK_DENSITY = (2.0 * np.pi**2) ** (-0.25)
GROUND_STATE_VARIANCE = np.sqrt(2.0) / 2.0

_TAIL_LIMIT = 1e-12


class GridError(ValueError):
    """Invalid grid construction or a state that does not fit the grid."""


class GridMismatchError(ValueError):
    """Operands live on different grids."""


class RelaxationError(RuntimeError):
    """Imaginary-time relaxation failed to converge."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice with its paired momentum lattice.

    ``x`` holds the nodes x_min + i*dx for i in [0, n_points); x_max is the
    periodic image of x_min and is not a node.  ``k`` holds the discrete
    transform frequencies in FFT order, spanning [-pi/dx, pi/dx) with
    spacing 2*pi/(x_max - x_min).  Equality and hashing follow
    (x_min, x_max, n_points), which fix the derived fields.
    """

    x_min: float
    x_max: float
    n_points: int
    dx: float = field(init=False, compare=False)
    x: np.ndarray = field(init=False, repr=False, compare=False)
    k: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dx = (self.x_max - self.x_min) / self.n_points
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "x", self.x_min + dx * np.arange(self.n_points))
        object.__setattr__(self, "k", 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=dx))

    @property
    def length(self) -> float:
        return self.x_max - self.x_min


@dataclass
class TwoChannelState:
    """Complex amplitudes as one (2, n_points) array: row 0 is channel 1
    (bound), row 1 channel 2; ``psi1`` and ``psi2`` are views of the rows."""

    grid: Grid
    psi: np.ndarray

    def __post_init__(self):
        expected = (2, self.grid.n_points)
        if np.shape(self.psi) != expected:
            raise GridError(f"psi must have shape {expected}, got {np.shape(self.psi)}")

    @property
    def psi1(self) -> np.ndarray:
        return self.psi[0]

    @property
    def psi2(self) -> np.ndarray:
        return self.psi[1]

    def copy(self) -> "TwoChannelState":
        return TwoChannelState(self.grid, self.psi.copy())


class Populations(NamedTuple):
    total: float
    p1: float
    p2: float


def make_grid(x_min: float, x_max: float, n_points: int) -> Grid:
    """Build a uniform grid; n_points must be an integer power of two >= 64.

    Raises GridError unless x_min < x_max are finite and so are the length
    x_max - x_min and the largest momentum pi N / length.
    """
    # NaN fails every comparison, so the chain also rejects it with +-inf
    if not -np.inf < x_min < x_max < np.inf:
        raise GridError(f"need finite x_min < x_max, got x_min={x_min!r}, x_max={x_max!r}")
    # numpy integers are Integral; a float count would fail the bit test below
    if not isinstance(n_points, Integral) or n_points < 64 or (n_points & (n_points - 1)) != 0:
        raise GridError(f"n_points must be an integer power of two >= 64, got {n_points!r}")
    # Python floats: the difference of two finite bounds can overflow to inf,
    # and pi N / length to inf for a subnormal length (a grid of NaN momenta)
    length = float(x_max) - float(x_min)
    if not (math.isfinite(length) and math.isfinite(math.pi * n_points / length)):
        raise GridError(f"need a finite length x_max - x_min with finite momenta pi N / length, "
                        f"got length {length!r}")
    return Grid(float(x_min), float(x_max), int(n_points))


def harmonic_ground_state(grid: Grid) -> TwoChannelState:
    """Ground state of -d2/dx2 + x^2/2 on channel 1, channel 2 empty.

    The analytic Gaussian is sampled on the grid and renormalized with the
    Riemann weight so the discrete norm is exactly 1.  Raises GridError when
    the Gaussian tail at the nearer boundary exceeds 1e-12 of the peak.
    """
    edge = min(abs(grid.x_min), abs(grid.x_max))
    tail = np.exp(-(edge**2) / (2.0 * np.sqrt(2.0)))
    if not (grid.x_min < 0.0 < grid.x_max) or tail >= _TAIL_LIMIT:
        raise GridError(
            f"grid too narrow for the harmonic ground state: boundary tail {tail:.3e}"
        )
    psi = np.zeros((2, grid.n_points), dtype=np.complex128)
    psi[0] = np.exp(-grid.x**2 / (2.0 * np.sqrt(2.0)))
    psi[0] /= np.sqrt(np.sum(np.abs(psi[0]) ** 2) * grid.dx)
    return TwoChannelState(grid, psi)


def gaussian_packet(
    grid: Grid, center: float, sigma: float, k0: float = 0.0, channel: int = 1
) -> TwoChannelState:
    """Normalized Gaussian packet exp(-(x-center)^2/(4 sigma^2) + i k0 x).

    sigma is the standard deviation of the probability density; the mean
    momentum is k0 (group velocity 2*k0 under the -d2/dx2 kinetic term).
    Raises GridError when 4 sigma^2, the exponent's denominator, is not a
    normal float (it overflows or underflows), and when the sampled packet's
    norm is zero or not finite, as for a packet far narrower than dx that
    falls between nodes.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    spread = 4.0 * sigma * sigma
    if not np.finfo(float).tiny <= spread < np.inf:
        raise GridError(f"sigma = {sigma!r} is out of range: 4 sigma^2 = {spread!r} "
                        "is not a normal float")
    if channel not in (1, 2):
        raise ValueError("channel must be 1 or 2")
    packet = np.exp(-((grid.x - center) ** 2) / (4.0 * sigma**2)) * np.exp(1j * k0 * grid.x)
    weight = np.sum(np.abs(packet) ** 2) * grid.dx
    if not 0.0 < weight < np.inf:
        raise GridError(
            f"gaussian packet (center {center:g}, sigma {sigma:g}) has norm {weight:g} "
            f"on the grid nodes (dx = {grid.dx:g})"
        )
    packet /= np.sqrt(weight)
    psi = np.zeros((2, grid.n_points), dtype=np.complex128)
    psi[channel - 1] = packet
    return TwoChannelState(grid, psi)


def norm(state: TwoChannelState) -> Populations:
    """Riemann-sum populations (total, p1, p2); p1 + p2 == total."""
    p1, p2 = (np.sum(np.abs(state.psi) ** 2, axis=-1) * state.grid.dx).tolist()
    return Populations(p1 + p2, p1, p2)


def overlap(a: TwoChannelState, b: TwoChannelState) -> complex:
    """Two-channel inner product <a|b> with the Riemann weight."""
    if a.grid != b.grid:
        raise GridMismatchError("overlap requires states on the same grid")
    acc = np.sum(np.conj(a.psi) * b.psi, axis=-1)
    return complex((acc[0] + acc[1]) * a.grid.dx)


def momentum_norm(state: TwoChannelState) -> float:
    """Total norm evaluated in momentum space (Parseval check)."""
    g = state.grid
    dk = 2.0 * np.pi / g.length
    scale = g.dx / np.sqrt(2.0 * np.pi)
    t = np.sum(np.abs(fft(state.psi) * scale) ** 2, axis=-1)
    return float((t[0] + t[1]) * dk)


def energy_expectation(grid: Grid, psi: np.ndarray, potential_values: np.ndarray) -> float:
    """Rayleigh quotient <psi| k^2 + U |psi> / <psi|psi> on one channel."""
    nrm = np.sum(np.abs(psi) ** 2)
    if nrm == 0.0:
        raise ValueError("empty wavefunction")
    kin = np.sum(grid.k**2 * np.abs(fft(psi)) ** 2) / grid.n_points
    pot = np.sum(potential_values * np.abs(psi) ** 2)
    return float((kin + pot) / nrm)


def imaginary_time_relax(
    grid: Grid,
    potential_values: np.ndarray,
    dt: float = 0.005,
    max_iters: int = 50000,
    tol: float = 1e-10,
) -> tuple[TwoChannelState, float]:
    """Lowest eigenstate of -d2/dx2 + U by diffusion with renormalization.

    Uses the symmetric split exp(-U dt/2) exp(-k^2 dt) exp(-U dt/2) from a
    uniform start, renormalizing each sweep.  The returned energy is the
    Rayleigh quotient of the true grid Hamiltonian, so its error is fourth
    order in dt once the iteration is stationary to ``tol``.  Raises
    ValueError before any sweep unless dt and tol are positive and finite
    and max_iters is an integer >= 1: a step of 0 returns the start, and a
    negative one relaxes toward the top of the spectrum.
    """
    if not (0.0 < dt < np.inf and 0.0 < tol < np.inf):
        raise ValueError(f"dt and tol must be positive and finite, got dt={dt!r}, tol={tol!r}")
    if not isinstance(max_iters, Integral) or max_iters < 1:
        raise ValueError(f"max_iters must be an integer >= 1, got {max_iters!r}")
    potential_values = np.asarray(potential_values, dtype=float)
    if potential_values.shape != (grid.n_points,):
        raise ValueError("potential_values must be sampled on the grid")
    if not np.all(np.isfinite(potential_values)):
        raise ValueError("potential must be finite on the grid")
    half_pot = np.exp(-0.5 * dt * (potential_values - potential_values.min()))
    kin = np.exp(-dt * grid.k**2)

    psi = np.full(grid.n_points, 1.0 / np.sqrt(grid.length), dtype=np.complex128)
    energy = energy_expectation(grid, psi, potential_values)
    for i in range(1, max_iters + 1):
        psi = half_pot * psi
        psi = ifft(kin * fft(psi))
        psi = half_pot * psi
        psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * grid.dx)
        if i % 10 == 0 or i == max_iters:
            new_energy = energy_expectation(grid, psi, potential_values)
            if abs(new_energy - energy) < tol:
                return TwoChannelState(grid, np.stack([psi, np.zeros_like(psi)])), new_energy
            energy = new_energy
    raise RelaxationError(
        f"imaginary-time relaxation not stationary to {tol:g} within {max_iters} sweeps"
    )
