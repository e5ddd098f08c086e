import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import wpsim as w

ROOT2 = np.sqrt(2.0)


@pytest.fixture(scope="module")
def grid():
    return w.make_grid(-10.0, 10.0, 256)


@pytest.fixture(scope="module")
def ground(grid):
    return w.harmonic_ground_state(grid)


def test_make_grid_spacing():
    g = w.make_grid(-10, 10, 256)
    assert g.dx == pytest.approx(0.078125, abs=0)
    assert g.k[1] - g.k[0] == pytest.approx(np.pi / 10, rel=1e-14)


def test_make_grid_momentum_extent():
    g = w.make_grid(-16, 16, 1024)
    assert np.max(np.abs(g.k)) == pytest.approx(np.pi / g.dx, rel=1e-14)
    assert np.max(np.abs(g.k)) == pytest.approx(32 * np.pi, rel=1e-14)


@pytest.mark.parametrize("n", [255, 100, 63, 32])
def test_make_grid_rejects_bad_counts(n):
    with pytest.raises(w.GridError):
        w.make_grid(-10, 10, n)


def test_make_grid_rejects_degenerate_interval():
    with pytest.raises(w.GridError):
        w.make_grid(3.0, 3.0, 256)
    with pytest.raises(w.GridError):
        w.make_grid(5.0, -5.0, 256)
    for x_min, x_max in ((0.0, np.inf), (-np.inf, 0.0)):
        # not a grid of NaN nodes and a warning
        with pytest.raises(w.GridError, match="finite"):
            w.make_grid(x_min, x_max, 64)


@pytest.mark.parametrize("x_min, x_max", [(-1e308, 1e308), (np.float64(-1e308), np.float64(1e308)),
                                          (0.0, 1e-320)],
                         ids=["length_overflows", "numpy_length_overflows", "subnormal_length"])
def test_make_grid_rejects_length_without_finite_momenta(x_min, x_max):
    # finite bounds whose length overflows, or whose pi N / length does: a
    # GridError, not a grid of NaN nodes or momenta and a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(w.GridError, match="finite length"):
            w.make_grid(x_min, x_max, 64)


def test_make_grid_count_must_be_an_integer():
    for n in (64.0, np.float64(64.0), "64"):
        with pytest.raises(w.GridError, match="integer power of two"):
            w.make_grid(0, 1, n)
    for n in (np.int64(64), np.int32(64)):
        grid = w.make_grid(0, 1, n)
        assert grid == w.make_grid(0, 1, 64) and type(grid.n_points) is int


def test_ground_state_energy(grid, ground):
    u1 = w.potential_on_grid(w.harmonic_potential(), grid)
    energy = w.energy_expectation(grid, ground.psi1, u1)
    assert energy == pytest.approx(1 / ROOT2, abs=1e-6)


def test_ground_state_peak_density(grid, ground):
    i0 = np.argmin(np.abs(grid.x))
    assert grid.x[i0] == 0.0
    assert abs(ground.psi1[i0]) ** 2 == pytest.approx((2 * np.pi**2) ** -0.25, rel=1e-10)


def test_ground_state_norm(ground):
    total, p1, p2 = w.norm(ground)
    assert total == pytest.approx(1.0, abs=1e-12)
    assert p1 == pytest.approx(1.0, abs=1e-12)
    assert p2 == 0.0


def test_ground_state_needs_wide_grid():
    with pytest.raises(w.GridError):
        w.harmonic_ground_state(w.make_grid(-4, 4, 128))
    with pytest.raises(w.GridError):
        w.harmonic_ground_state(w.make_grid(2, 30, 256))  # zero outside grid


@pytest.mark.parametrize("shape", [(64,), (2, 128), (64, 2), (3, 64)])
def test_state_needs_two_rows_on_the_grid(shape):
    grid = w.make_grid(-8, 8, 64)
    with pytest.raises(w.GridError, match=r"shape \(2, 64\)"):
        w.TwoChannelState(grid, np.zeros(shape, dtype=complex))


def test_norm_scaling(ground):
    scaled = w.TwoChannelState(ground.grid, ground.psi / ROOT2)
    assert w.norm(scaled).total == pytest.approx(0.5, abs=1e-12)


def test_overlap_self_is_norm(grid, ground):
    ov = w.overlap(ground, ground)
    assert ov.real == pytest.approx(w.norm(ground).total, abs=1e-12)
    assert ov.imag == pytest.approx(0.0, abs=1e-14)


def test_overlap_orthogonal_channels(grid):
    a = w.gaussian_packet(grid, 0.0, 1.0, channel=1)
    b = w.gaussian_packet(grid, 0.0, 1.0, channel=2)
    assert abs(w.overlap(a, b)) <= 1e-12


def test_equal_grids_compare_and_hash_equal():
    a, b = w.make_grid(-8, 8, 64), w.make_grid(-8, 8, 64)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != w.make_grid(-8, 8, 128)
    assert a != w.make_grid(-8, 9, 64)


def test_overlap_grid_mismatch(ground):
    other = w.harmonic_ground_state(w.make_grid(-12, 12, 256))
    with pytest.raises(w.GridMismatchError):
        w.overlap(ground, other)


def test_overlap_shifted_gaussian(grid, ground):
    d = 1.0
    shifted = w.TwoChannelState(
        grid,
        np.stack([
            np.exp(-((grid.x - d) ** 2) / (2 * ROOT2)).astype(complex),
            np.zeros_like(ground.psi2),
        ]),
    )
    shifted.psi[0] /= np.sqrt(np.sum(np.abs(shifted.psi[0]) ** 2) * grid.dx)
    got = w.overlap(ground, shifted)

    # closed form for the displaced-Gaussian overlap, cross-checked by quadrature
    expected = np.exp(-(d**2) / (4 * ROOT2))
    amp = (2 * np.pi**2) ** -0.125
    oracle, _ = quad(
        lambda x: amp**2 * np.exp(-(x**2) / (2 * ROOT2)) * np.exp(-((x - d) ** 2) / (2 * ROOT2)),
        -np.inf,
        np.inf,
    )
    assert oracle == pytest.approx(expected, rel=1e-12)
    assert got.real == pytest.approx(expected, abs=1e-10)
    assert got.imag == pytest.approx(0.0, abs=1e-12)


@st.composite
def random_states(draw):
    grid = w.make_grid(-8, 8, 64)
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    psi1 = rng.normal(size=64) + 1j * rng.normal(size=64)
    psi2 = rng.normal(size=64) + 1j * rng.normal(size=64)
    return w.TwoChannelState(grid, np.stack([psi1, psi2]))


@given(random_states())
@settings(max_examples=25, deadline=None)
def test_parseval(state):
    assert w.momentum_norm(state) == pytest.approx(w.norm(state).total, abs=1e-10)


@given(random_states(), random_states())
@settings(max_examples=25, deadline=None)
def test_overlap_conjugate_symmetry(a, b):
    ov_ab = w.overlap(a, b)
    ov_ba = w.overlap(b, a)
    assert ov_ab == pytest.approx(np.conj(ov_ba), rel=1e-12, abs=1e-12)
    self_ov = w.overlap(a, a)
    assert self_ov.imag == pytest.approx(0.0, abs=1e-10)
    assert self_ov.real >= 0.0


def test_relaxation_matches_analytic_ground_state(grid, ground):
    u1 = w.potential_on_grid(w.harmonic_potential(), grid)
    relaxed, energy = w.imaginary_time_relax(grid, u1)
    assert energy == pytest.approx(1 / ROOT2, abs=1e-6)
    fidelity = abs(w.overlap(relaxed, ground)) ** 2
    assert fidelity >= 1 - 1e-8
    analytic_energy = w.energy_expectation(grid, ground.psi1, u1)
    assert energy == pytest.approx(analytic_energy, abs=1e-6)


def test_relaxation_flat_potential(grid):
    flat = np.zeros(grid.n_points)
    state, energy = w.imaginary_time_relax(grid, flat)
    assert energy == pytest.approx(0.0, abs=1e-9)
    dens = np.abs(state.psi1) ** 2
    assert np.max(dens) - np.min(dens) <= 1e-10


def test_relaxation_nonconvergence(grid):
    u1 = w.potential_on_grid(w.harmonic_potential(), grid)
    with pytest.raises(w.RelaxationError):
        w.imaginary_time_relax(grid, u1, dt=0.001, max_iters=20, tol=1e-14)


@pytest.mark.parametrize("kwargs, message", [
    ({"dt": 0.0}, "dt and tol must be positive and finite"),
    ({"dt": -0.005, "max_iters": 200}, "dt and tol must be positive and finite"),
    ({"dt": np.nan}, "dt and tol must be positive and finite"),
    ({"dt": np.inf}, "dt and tol must be positive and finite"),
    ({"tol": 0.0}, "dt and tol must be positive and finite"),
    ({"tol": np.nan}, "dt and tol must be positive and finite"),
    ({"max_iters": 0}, "max_iters must be an integer >= 1"),
    ({"max_iters": 10.0}, "max_iters must be an integer >= 1"),
], ids=["dt_zero", "dt_negative", "dt_nan", "dt_inf", "tol_zero", "tol_nan", "no_sweeps",
        "float_sweeps"])
def test_relaxation_rejects_bad_step_before_any_sweep(monkeypatch, kwargs, message):
    # unchecked, on this harmonic well (ground energy 0.707), dt = 0 returns
    # the uniform start (energy 16.67), dt < 0 relaxes toward the top of the
    # spectrum (energy 434.7 after 200 sweeps) and a NaN step runs every sweep
    grid = w.make_grid(-10.0, 10.0, 128)
    u1 = w.potential_on_grid(w.harmonic_potential(), grid)

    def no_sweep(*args):
        raise AssertionError("a sweep ran")

    # only a sweep transforms back
    monkeypatch.setattr(sys.modules["wpsim.grid"], "ifft", no_sweep)
    with pytest.raises(ValueError, match=message):
        w.imaginary_time_relax(grid, u1, **kwargs)


def test_gaussian_packet_moments():
    wide = w.make_grid(-20.0, 20.0, 512)
    packet = w.gaussian_packet(wide, -2.0, 1.5, k0=3.0, channel=2)
    assert w.norm(packet).p2 == pytest.approx(1.0, abs=1e-12)
    pos = w.position_moments(packet, 2)
    assert pos.mean == pytest.approx(-2.0, abs=1e-9)
    assert pos.variance == pytest.approx(1.5**2, rel=1e-8)
    mom = w.momentum_moments(packet, 2)
    assert mom.mean == pytest.approx(3.0, abs=1e-9)


@pytest.mark.parametrize(
    "center, sigma, k0",
    [(0.5 * 0.0625, 1e-6, 0.0), (1e4, 1.0, 0.0), (0.0, 1.0, np.inf)],
    ids=["between_nodes", "off_grid", "infinite_momentum"],
)
def test_gaussian_packet_without_norm_on_grid_raises(center, sigma, k0):
    grid = w.make_grid(-4.0, 4.0, 128)  # dx = 0.0625
    with pytest.raises(w.GridError, match="has norm"), np.errstate(invalid="ignore"):
        w.gaussian_packet(grid, center, sigma, k0=k0)


@pytest.mark.parametrize("sigma", [1e200, 1e154, 1e-200, 1e-155, np.inf, np.nan])
def test_gaussian_packet_rejects_width_whose_square_leaves_the_normal_floats(sigma):
    # the exponent divides by 4 sigma^2: OverflowError from sigma**2 at 1e200,
    # a division by zero at 1e-200, a flat packet at inf
    grid = w.make_grid(-4.0, 4.0, 128)
    with pytest.raises(w.GridError, match="4 sigma\\^2 = .* is not a normal float"):
        w.gaussian_packet(grid, 0.0, sigma)
