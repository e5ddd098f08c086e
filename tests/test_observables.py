import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import chisquare

import wpsim as w
from wpsim.observables import _moments

E0 = 1 / np.sqrt(2.0)


def decay_model(alpha=2.0):
    return w.ModelSpec(
        u1=w.harmonic_potential(),
        u2_minus_omega=w.linear_potential(E0, alpha),
        pulse=w.constant_pulse(0.4),
    )


def test_fit_exact_exponential():
    t = np.linspace(0, 12, 400)
    fit = w.fit_decay_rate(t, np.exp(-0.26 * t))
    assert fit.gamma_fit == pytest.approx(0.26, abs=1e-6)
    assert fit.r_squared >= 1 - 1e-9
    assert fit.window[0] > 0.0 and fit.window[1] < 12.0


@pytest.mark.parametrize("gamma", [0.05, 0.26, 1.0])
def test_fit_recovers_rate(gamma):
    t = np.linspace(0, 4 / gamma, 600)
    fit = w.fit_decay_rate(t, np.exp(-gamma * t))
    assert fit.gamma_fit == pytest.approx(gamma, abs=1e-6)


def test_fit_window_skips_turn_on_and_tail():
    # quadratic turn-on before the exponential sets in, plateau after it
    t = np.linspace(0, 20, 800)
    p = np.exp(-0.3 * t)
    p[t < 0.5] = 1 - 0.1 * t[t < 0.5] ** 2
    p = np.maximum(p, 0.05)
    fit = w.fit_decay_rate(t, p)
    assert fit.gamma_fit == pytest.approx(0.3, rel=1e-3)
    lo, hi = fit.window
    assert lo >= 0.5
    assert np.exp(-0.3 * hi) >= 0.099


def test_fit_explicit_time_window():
    t = np.linspace(0, 10, 300)
    p = np.exp(-0.5 * t)
    fit = w.fit_decay_rate(t, p, t_window=(2.0, 6.0))
    assert fit.gamma_fit == pytest.approx(0.5, abs=1e-9)
    assert fit.window == (pytest.approx(2.0, abs=0.05), pytest.approx(6.0, abs=0.05))


def test_fit_errors():
    t = np.linspace(0, 5, 100)
    with pytest.raises(w.FitError):
        w.fit_decay_rate(t[:5], np.exp(-t[:5]))  # too few points
    p = np.exp(-t)
    with pytest.raises(w.FitError):
        w.fit_decay_rate(t, p - 0.35, t_window=(0.0, 5.0))  # negatives in window


def test_oscillation_flags():
    t = np.linspace(0, 10, 200)
    assert w.detect_oscillation(np.exp(-0.4 * t)) == (False, 0)
    # two full flopping periods (amplitude period 2 pi / v)
    two_periods = np.sin(1.0 * np.linspace(0, 4 * np.pi, 600)) ** 2
    flag, n_min = w.detect_oscillation(two_periods)
    assert flag and n_min >= 2
    with pytest.raises(ValueError):
        w.detect_oscillation(np.ones(10))


def test_position_moments_ground_state():
    g = w.make_grid(-10, 10, 256)
    state = w.harmonic_ground_state(g)
    mom = w.position_moments(state, 1)
    assert mom.population == pytest.approx(1.0, abs=1e-12)
    assert mom.mean == pytest.approx(0.0, abs=1e-10)

    # quadrature oracle for the variance of the ground density
    amp_sq = (2 * np.pi**2) ** -0.25
    oracle, _ = quad(lambda x: x * x * amp_sq * np.exp(-(x**2) / np.sqrt(2)), -np.inf, np.inf)
    assert oracle == pytest.approx(np.sqrt(2) / 2, rel=1e-10)
    assert mom.variance == pytest.approx(oracle, rel=1e-10)


def test_empty_channel_error():
    g = w.make_grid(-10, 10, 256)
    state = w.harmonic_ground_state(g)
    with pytest.raises(w.EmptyChannelError):
        w.position_moments(state, 2)


@given(shift=st.floats(min_value=-3, max_value=3))
@settings(max_examples=30, deadline=None)
def test_moments_translation_covariant(shift):
    g = w.make_grid(-24, 24, 512)
    base = w.position_moments(w.gaussian_packet(g, 0.0, 1.2, channel=1), 1)
    moved = w.position_moments(w.gaussian_packet(g, shift, 1.2, channel=1), 1)
    assert moved.mean - base.mean == pytest.approx(shift, abs=1e-10)
    assert moved.variance == pytest.approx(base.variance, abs=1e-10)


def test_variance_keeps_digits_far_from_origin():
    # the same samples 10,000 units out: an uncentred E[x^2] - mean^2 would
    # cancel about eight of the sixteen digits
    far = w.position_moments(w.gaussian_packet(w.make_grid(9990, 10010, 256), 1e4, 0.7), 1)
    near = w.position_moments(w.gaussian_packet(w.make_grid(-10, 10, 256), 0.0, 0.7), 1)
    assert far.mean == pytest.approx(1e4, rel=1e-15)
    assert far.variance == pytest.approx(near.variance, rel=1e-12)


def row_moments(xs, dx, row):
    """One row's moments by the plain per-row formula, NaN for an empty or
    non-finite row."""
    dens = np.abs(row) ** 2
    p = float(dens.sum() * dx)
    if not 1e-12 < p < np.inf:
        return p, np.nan, np.nan
    mean = float((xs * dens).sum() * dx / p)
    offset = xs - mean
    return p, mean, float((offset * offset * dens).sum() * dx / p)


@pytest.mark.parametrize("n", [64, 1024, 8192])
def test_moments_of_rows_keep_the_bits_of_each_row(n):
    # a record passes both channels in one call: each row must give the bits
    # of the plain formula on that row alone, and vacant or non-finite rows
    # must give NaN moments without a floating-point warning
    g = w.make_grid(-20.0, 20.0, n)
    rng = np.random.default_rng(n)
    packet = w.gaussian_packet(g, 3.0, 1.1, k0=0.7).psi1
    rows = np.stack([
        packet,
        rng.normal(size=n) + 1j * rng.normal(size=n),
        np.zeros(n),
        1e-8 * packet,  # holds 1e-16: below the floor
        packet,
        packet,
    ]).astype(complex)
    rows[4, n // 2] = np.nan
    rows[5, n // 2] = np.inf
    xs = g.x - g.x[n // 2]  # 0 where the inf sits, so x |psi|^2 would be 0 * inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = np.stack(_moments(xs, g.dx, rows), axis=1)
        for row, values in zip(rows, got):
            expected = np.array(row_moments(xs, g.dx, row))
            assert values.tobytes() == expected.tobytes()
            alone = np.array(_moments(xs, g.dx, row), dtype=float)
            assert alone.tobytes() == expected.tobytes()
    assert np.isnan(got[2:, 1:]).all() and np.isfinite(got[:2]).all()


def test_spectrum_single_position():
    jumps = [w.JumpRecord(t_jump=1.0, x_jump=0.0, trajectory_id=i) for i in range(7)]
    spec = w.emission_spectrum(jumps, decay_model(), n_bins=5)
    assert spec.total == 7
    assert spec.counts.sum() == 7
    occupied = np.nonzero(spec.counts)[0]
    assert occupied.size == 1
    lo, hi = spec.bin_edges[occupied[0]], spec.bin_edges[occupied[0] + 1]
    assert lo <= E0 <= hi


def test_spectrum_uniform_jumps_linear_map():
    # uniform positions + linear difference potential -> uniform frequencies
    rng = np.random.default_rng(7)
    model = w.ModelSpec(
        u1=w.flat_potential(0.0),
        u2_minus_omega=w.linear_potential(1.0, 2.0),
        pulse=w.constant_pulse(0.1),
    )
    jumps = [w.JumpRecord(0.0, x, i) for i, x in enumerate(rng.uniform(0, 1, size=10000))]
    spec = w.emission_spectrum(jumps, model, n_bins=20)
    assert spec.total == 10000
    _, p_value = chisquare(spec.counts)
    assert p_value > 1e-3


def test_spectrum_edges_strictly_increasing():
    jumps = [w.JumpRecord(0.0, x, 0) for x in (0.0, 0.2, 0.4)]
    spec = w.emission_spectrum(jumps, decay_model(), n_bins=8)
    assert np.all(np.diff(spec.bin_edges) > 0)


def test_spectrum_requires_jumps():
    with pytest.raises(ValueError):
        w.emission_spectrum([], decay_model(), n_bins=5)
