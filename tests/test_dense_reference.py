"""propagate against an exact reference on a small grid (dense_reference.py).

Self-convergence (test_propagate.py::test_pulsed_steps_are_second_order)
shows the order of the steps, not that they converge to the right answer:
a chirp applied with the wrong sign still reads ratios of 4.00 there, yet
ends 0.90 away from the reference in L2.
"""

import numpy as np
import pytest
import scipy.linalg

import wpsim as w
from dense_reference import evolve, kinetic_matrix

T_FINAL = 2.0
DTS = (0.02, 0.01, 0.005, 0.0025)


@pytest.fixture(scope="module")
def grid():
    return w.make_grid(-10.0, 14.0, 64)


def l2(a, b, grid):
    return float(np.sqrt(np.sum(np.abs(a - b) ** 2) * grid.dx))


def test_reference_matches_the_exponential_of_a_static_hamiltonian(grid):
    # a constant pulse without chirp: the exact state is expm(-i H T) psi0
    u1 = w.potential_on_grid(w.harmonic_potential(), grid)
    u2 = w.potential_on_grid(w.linear_potential(0.5, 2.0), grid)
    kin = kinetic_matrix(grid.x_min, grid.x_max, grid.n_points)
    v = 0.8 * np.eye(grid.n_points)
    h = np.block([[kin + np.diag(u1), v], [v, kin + np.diag(u2)]])
    psi0 = w.harmonic_ground_state(grid).psi
    exact = (scipy.linalg.expm(-1j * T_FINAL * h) @ psi0.ravel()).reshape(psi0.shape)
    got = evolve(grid.x, u1, u2, w.constant_pulse(0.8), psi0, T_FINAL)
    assert l2(got, exact, grid) < 1e-9


# (u1, u2, chirp, bound at the finest dt); every case starts from the harmonic
# ground state under the Gaussian pulse v0 = 1, t_center = 1, t_width = 0.4.
# Measured L2 errors at dt = 0.02 .. 0.0025: sloped 2.39e-4 .. 3.73e-6,
# chirped 2.79e-4 .. 4.35e-6, detuned 1.71e-5 .. 2.68e-7, each ratio 4.00-4.005
CASES = {
    "sloped": (w.harmonic_potential(), w.linear_potential(0.5, 2.0), 0.0, 5e-6),
    "chirped": (w.harmonic_potential(), w.linear_potential(0.5, 2.0), -1.5, 6e-6),
    "detuned": (w.flat_potential(), w.flat_potential(0.7), 0.0, 4e-7),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_propagate_converges_to_the_dense_reference(grid, case):
    u1, u2, chirp, bound = CASES[case]
    pulse = w.gaussian_pulse(1.0, 1.0, 0.4, chirp)
    state = w.harmonic_ground_state(grid)
    exact = evolve(grid.x, w.potential_on_grid(u1, grid), w.potential_on_grid(u2, grid), pulse,
                   state.psi, T_FINAL)
    model = w.ModelSpec(u1, u2, pulse)
    errors = [
        l2(w.propagate(state, model, w.RunConfig(dt=dt, t_final=T_FINAL, record_every=10**9))
           .final_state.psi, exact, grid)
        for dt in DTS
    ]
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    # criterion 7's window for second-order steps
    assert all(3.2 <= r <= 4.8 for r in ratios), (errors, ratios)
    assert errors[-1] < bound, errors
