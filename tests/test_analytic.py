import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp
from scipy.special import airy

import wpsim as w

QUARTIC = (2 * np.pi**2) ** 0.25


def test_reflection_rate_formula():
    params = w.DecayModelParams(v=0.3, alpha=2.0)
    assert w.ww_rate_reflection(params) == pytest.approx(
        2 * np.pi * 0.09 / (2.0 * QUARTIC), rel=1e-14
    )


def test_coupling_inversion_hits_target_rate():
    v = w.coupling_for_rate(0.26, 2.0)
    assert v == pytest.approx(0.4177, abs=5e-4)
    assert w.ww_rate_reflection(w.DecayModelParams(v, 2.0)) == pytest.approx(0.26, rel=1e-12)


def test_zero_coupling_zero_rate():
    assert w.ww_rate_reflection(w.DecayModelParams(0.0, 2.0)) == 0.0
    assert w.ww_rate_condon(0.0, w.condon_factor(2.0, "reflection")) == 0.0


def test_rate_scales_with_coupling_squared():
    r1 = w.ww_rate_reflection(w.DecayModelParams(0.2, 3.0))
    r2 = w.ww_rate_reflection(w.DecayModelParams(0.4, 3.0))
    assert r2 == pytest.approx(4 * r1, rel=1e-12)


@given(
    v=st.floats(min_value=0.01, max_value=5.0),
    alpha=st.floats(min_value=0.1, max_value=50.0),
)
@settings(max_examples=50, deadline=None)
def test_condon_reflection_identity(v, alpha):
    via_condon = w.ww_rate_condon(v, w.condon_factor(alpha, "reflection"))
    direct = w.ww_rate_reflection(w.DecayModelParams(v, alpha))
    assert via_condon == direct


def test_reflection_condon_value():
    s = w.condon_factor(2.0, "reflection")
    assert s.magnitude_sq == pytest.approx((2 * np.pi**2) ** -0.25 / 2.0, rel=1e-14)
    assert s.magnitude_sq == pytest.approx(0.2372, abs=1e-4)


def test_quadrature_condon_against_independent_quadrature():
    # independent oracle: adaptive quadrature of the bound-Gaussian x Airy overlap
    alpha = 2.0
    amp = (2 * np.pi**2) ** -0.125
    cbrt = alpha ** (1 / 3)

    def integrand(x):
        return amp * np.exp(-(x**2) / (2 * np.sqrt(2))) * alpha ** (-1 / 6) * airy(-cbrt * x)[0]

    s_lo, _ = quad(integrand, -12, 0, limit=400)
    s_hi, _ = quad(integrand, 0, 12, limit=2000)
    oracle = (s_lo + s_hi) ** 2
    got = w.condon_factor(alpha, "quadrature").magnitude_sq
    assert got == pytest.approx(oracle, rel=1e-5)
    assert got == pytest.approx(0.213494, abs=1e-5)


def airy_trapezoid_condon(alpha):
    """|S|^2 as the trapezoid rule over the bound-Gaussian x Airy overlap on
    [-12, 12], the mesh doubled until |S|^2 moves by less than 1e-6: an
    independent form, resolved for slopes of order 1."""
    amp = np.sqrt(w.GROUND_STATE_PEAK_DENSITY)
    cbrt = alpha ** (1.0 / 3.0)
    prev = None
    n = 1 << 11
    while n <= (1 << 21):
        x = np.linspace(-12.0, 12.0, n + 1)
        integrand = (amp * np.exp(-(x**2) / (2.0 * np.sqrt(2.0))) * alpha ** (-1.0 / 6.0)
                     * airy(-cbrt * x)[0])
        s = np.trapezoid(integrand, x=x)
        mag_sq = float(s * s)
        if prev is not None and abs(mag_sq - prev) < 1e-6:
            return mag_sq
        prev = mag_sq
        n <<= 1
    raise AssertionError("reference quadrature did not converge")


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0, 3.7, 8.0, 16.0])
def test_fourier_condon_matches_the_airy_trapezoid(alpha):
    got = w.condon_factor(alpha, "quadrature").magnitude_sq
    assert got == pytest.approx(airy_trapezoid_condon(alpha), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("alpha", [1e-6, 1e-4])
def test_fourier_condon_on_gentle_slopes_against_adaptive_quadrature(alpha):
    # on the real axis the Fourier form needs ~1/alpha nodes here; the shifted line does not
    amp = np.sqrt(w.GROUND_STATE_PEAK_DENSITY)
    cbrt = alpha ** (1 / 3)

    def integrand(x):
        return amp * np.exp(-(x**2) / (2 * np.sqrt(2))) * alpha ** (-1 / 6) * airy(-cbrt * x)[0]

    s, _ = quad(integrand, -12, 12, epsabs=0.0, epsrel=1e-13, limit=200)
    got = w.condon_factor(alpha, "quadrature").magnitude_sq
    assert got == pytest.approx(s * s, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("alpha", [1e6, 1e9])
def test_fourier_condon_reaches_the_reflection_limit(alpha):
    # the relative gap to the limit falls like alpha^-2; a stop on an absolute
    # change of |S|^2 would return an unconverged value here
    got = w.condon_factor(alpha, "quadrature").magnitude_sq
    assert got == pytest.approx(w.condon_factor(alpha, "reflection").magnitude_sq, rel=1e-10, abs=0.0)


def test_quadrature_approaches_reflection_for_steep_slopes():
    gaps = []
    for alpha in (2.0, 4.0, 8.0):
        quad_sq = w.condon_factor(alpha, "quadrature").magnitude_sq
        refl_sq = w.condon_factor(alpha, "reflection").magnitude_sq
        gaps.append(abs(quad_sq - refl_sq) / refl_sq)
    assert gaps[2] <= 0.05  # within 5% at alpha = 8
    assert gaps[0] > gaps[1] > gaps[2]  # gap grows as the slope flattens


# the criterion-6 quantum-jump model of test_acceptance.py as an explicit config
MCWF_CONFIG = """
[grid]
x_min = -8
x_max = 8
n_points = 64
[model]
u1 = flat
u2 = flat
pulse = constant
v0 = 0
[run]
dt = 0.01
t_final = 5
record_every = 25
[initial]
kind = gaussian
center = 0
sigma = 0.7
channel = 2
[mcwf]
gamma_sp = 1
n_trajectories = 8
"""
# the six deterministic presets and an explicit propagation (gamma_sp = 0)
DETERMINISTIC_SETUPS = [f"preset = {name}\n" for name in
                        ("decay_weak", "decay_strong", "pulsed_gaussian", "lz_sweep",
                         "chirp_compare", "freeze_demo")] + [
    MCWF_CONFIG.replace("gamma_sp = 1", "gamma_sp = 0")]

# the transforms load pocketfft's kernel from its file and the Condon factor
# is numpy alone, so import, CLI, every set-up and the quadrature load no
# scipy; numpy.random, which numpy loads on first use, only a quantum-jump
# set-up loads
IMPORT_PROBE = """
import sys
import wpsim, wpsim.cli
from wpsim.runner import derived_quantities, parse_config
for text in {setups!r}:
    derived_quantities(parse_config(text))
wpsim.condon_factor(2.0)
print(*sorted(name for name in sys.modules
              if name.split(".")[0] == "scipy" or name == "numpy.random"))
"""


def heavy_modules_loaded(setups):
    """The scipy modules and numpy.random that a fresh interpreter holds after
    `import wpsim, wpsim.cli`, the set-ups and the Condon quadrature."""
    src = Path(w.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE.format(setups=setups)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_loads_no_heavy_scipy():
    assert heavy_modules_loaded(DETERMINISTIC_SETUPS) == []


@pytest.mark.parametrize("setup", ["preset = mcwf_decay\n", MCWF_CONFIG],
                         ids=["mcwf_decay", "explicit"])
def test_quantum_jump_setup_loads_numpy_random(setup):
    # set-up pays for the import, not the run's first trajectory
    assert heavy_modules_loaded([setup]) == ["numpy.random"]


# wpsim.__all__, sorted: a name added or removed here is a change of the
# public API, which the README and CHANGES.md say
PUBLIC_API = """
AbsorberSpec ChannelMoments CondonFactor CrossingResult DecayFit DecayModelParams
DivergenceError EmptyChannelError EnsembleResult FitError GROUND_STATE_ENERGY
GROUND_STATE_PEAK_DENSITY GROUND_STATE_VARIANCE Grid GridError GridMismatchError JumpRecord
ModelSpec NoCrossingError OscillationResult Populations PotentialSpec PulseSpec QuadratureError
RelaxationError RunConfig Snapshot SpectrumHistogram Trajectory TwoChannelState absorber_mask
absorber_profile analytic apply_absorber bloch_excited_population condon_factor constant_pulse
coupling_for_rate coupling_step crossing_point detect_oscillation difference_potential
emission_spectrum energy_expectation fit_decay_rate flat_potential gaussian_packet
gaussian_pulse grid harmonic_ground_state harmonic_potential imaginary_time_relax
linear_potential lz_probability make_grid mcwf mcwf_ensemble mcwf_trajectory model
momentum_moments momentum_norm nojump_benchmark norm observables overlap position_moments
potential_on_grid potential_value propagate pulse_value rabi_population step
survival_probability tabulated_potential trajectory_rng ww_rate_condon ww_rate_reflection
""".split()


def test_public_api_is_pinned():
    assert len(PUBLIC_API) == 77
    assert sorted(w.__all__) == PUBLIC_API
    # the star import fails on a listed name that wpsim does not bind
    namespace = {}
    exec("from wpsim import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == PUBLIC_API


NON_FINITE = [np.nan, np.inf, -np.inf]


def test_condon_rejects_bad_input():
    with pytest.raises(ValueError):
        w.condon_factor(0.0, "reflection")
    with pytest.raises(ValueError):
        w.condon_factor(2.0, "nearest")


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("method", ["quadrature", "reflection"])
def test_condon_rejects_non_finite_slope(bad, method):
    with pytest.raises(ValueError, match="finite"):
        w.condon_factor(bad, method)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_decay_params_reject_non_finite_input(bad):
    with pytest.raises(ValueError, match="finite"):
        w.DecayModelParams(bad, 2.0)
    with pytest.raises(ValueError, match="finite"):
        w.DecayModelParams(0.1, bad)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_rate_and_coupling_reject_non_finite_input(bad):
    with pytest.raises(ValueError, match="finite"):
        w.ww_rate_condon(bad, w.condon_factor(2.0, "reflection"))
    with pytest.raises(ValueError, match="finite"):
        w.coupling_for_rate(bad, 2.0)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: w.survival_probability(np.nan, 1.0), id="survival-gamma"),
    pytest.param(lambda: w.survival_probability(1.0, np.inf), id="survival-t"),
    pytest.param(lambda: w.lz_probability(np.nan, 1.0, 1.0), id="lz-v"),
    pytest.param(lambda: w.lz_probability(0.2, np.nan, 1.0), id="lz-slope"),
    pytest.param(lambda: w.lz_probability(0.2, 1.0, np.inf), id="lz-velocity"),
    pytest.param(lambda: w.rabi_population(np.nan, 1.0), id="rabi-v"),
    pytest.param(lambda: w.rabi_population(0.5, np.inf), id="rabi-t"),
    pytest.param(lambda: w.bloch_excited_population(np.inf, 1.0, 1.0), id="bloch-v"),
    pytest.param(lambda: w.bloch_excited_population(1.0, 1.0, np.nan), id="bloch-t"),
    pytest.param(lambda: w.bloch_excited_population(1.0, 1.0, [0.0, np.inf]), id="bloch-t-array"),
])
def test_closed_forms_reject_non_finite_input(call):
    # not a NaN, a 0 or a 1 returned, nor a RuntimeWarning
    with pytest.raises(ValueError, match="finite"):
        call()


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: w.lz_probability(1e200, 2.0, 1.0), "coupling v", id="lz-v"),
    pytest.param(lambda: w.lz_probability(0.2, 1e-200, 1e-200), "sweep rate", id="lz-sweep-0"),
    pytest.param(lambda: w.lz_probability(0.2, 1e200, 1e200), "sweep rate", id="lz-sweep-inf"),
    pytest.param(lambda: w.ww_rate_condon(1e200, w.condon_factor(2.0, "reflection")),
                 "coupling v", id="rate-v"),
    pytest.param(lambda: w.ww_rate_condon(1e150, w.CondonFactor(1e300, "quadrature")),
                 "rate overflows", id="rate-product"),
    pytest.param(lambda: w.bloch_excited_population(1e200, 1.0, 1.0), "coupling v", id="bloch-v"),
    pytest.param(lambda: w.bloch_excited_population(np.float64(1e200), 1.0, 1.0),
                 "coupling v", id="bloch-numpy-v"),
])
def test_closed_forms_reject_input_whose_arithmetic_overflows(call, message):
    # finite input whose square or product leaves the floats: a ValueError
    # naming it, not an OverflowError, a ZeroDivisionError or a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            call()


def test_closed_forms_keep_large_representable_input():
    assert w.lz_probability(1e150, 2.0, 1.0) == 0.0
    assert w.ww_rate_condon(1e150, w.condon_factor(2.0, "reflection")) < np.inf
    assert 0.0 <= w.bloch_excited_population(1e150, 1.0, 1.0) <= 1.0


def test_survival_probability():
    assert w.survival_probability(0.26, 0.0) == 1.0
    assert w.survival_probability(0.26, 1 / 0.26) == pytest.approx(np.exp(-1), rel=1e-12)
    assert w.survival_probability(0.0, 123.0) == 1.0
    with pytest.raises(ValueError):
        w.survival_probability(-0.1, 1.0)


def test_lz_probability_examples():
    assert w.lz_probability(0.0, 1.0, 2.0) == 1.0
    assert w.lz_probability(0.2, 1.0, 2.0) == pytest.approx(np.exp(-2 * np.pi * 0.04 / 2), rel=1e-12)
    assert w.lz_probability(0.2, 1.0, 2.0) == pytest.approx(0.8819, abs=1e-4)
    assert 1 - w.lz_probability(50.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_lz_probability_errors():
    with pytest.raises(ValueError):
        w.lz_probability(0.2, 0.0, 1.0)
    with pytest.raises(ValueError):
        w.lz_probability(0.2, 1.0, 0.0)


@given(
    v=st.floats(min_value=0.01, max_value=2.0),
    dv=st.floats(min_value=0.01, max_value=1.0),
    vel=st.floats(min_value=0.1, max_value=10.0),
    dvel=st.floats(min_value=0.01, max_value=5.0),
)
@settings(max_examples=50, deadline=None)
def test_lz_monotonicity(v, dv, vel, dvel):
    base = w.lz_probability(v, 1.0, vel)
    assert w.lz_probability(v + dv, 1.0, vel) < base
    assert w.lz_probability(v, 1.0, vel + dvel) > base


def test_rabi_population():
    assert w.rabi_population(0.7, 0.0) == 0.0
    assert w.rabi_population(0.7, np.pi / (2 * 0.7)) == pytest.approx(1.0, rel=1e-12)
    assert w.rabi_population(0.7, np.pi / (4 * 0.7)) == pytest.approx(0.5, rel=1e-12)


def _lindblad_p2(v, gamma, times):
    # H = [[0, V], [V, 0]], collapse sqrt(gamma) |1><2|, from the lower level
    ham = np.array([[0.0, v], [v, 0.0]])

    def rhs(_, y):
        rho = y.reshape(2, 2)
        drho = -1j * (ham @ rho - rho @ ham)
        drho[0, 0] += gamma * rho[1, 1]
        drho[1, 1] -= gamma * rho[1, 1]
        drho[0, 1] -= 0.5 * gamma * rho[0, 1]
        drho[1, 0] -= 0.5 * gamma * rho[1, 0]
        return drho.ravel()

    y0 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    sol = solve_ivp(rhs, (0.0, times[-1]), y0, t_eval=times, rtol=1e-11, atol=1e-13)
    return sol.y[3].real


@pytest.mark.parametrize("v, gamma", [(1.0, 1.0), (0.3, 2.0), (0.2, 0.0), (2.0, 0.5)])
def test_bloch_population_solves_the_master_equation(v, gamma):
    times = np.linspace(0.0, 12.0, 61)
    p2 = w.bloch_excited_population(v, gamma, times)
    assert np.max(np.abs(p2 - _lindblad_p2(v, gamma, times))) < 1e-8
    assert w.bloch_excited_population(v, gamma, 0.0) == 0.0
    if gamma == 0.0:
        assert p2 == pytest.approx([w.rabi_population(v, t) for t in times], abs=1e-14)


def test_bloch_population_limits_and_bad_input():
    # steady state Omega^2 / (2 Omega^2 + gamma^2) with Omega = 2V
    assert w.bloch_excited_population(1.0, 1.0, 60.0) == pytest.approx(4.0 / 9.0, rel=1e-12)
    assert isinstance(w.bloch_excited_population(1.0, 1.0, 0.5), float)
    for v, gamma, t in [(0.1, 0.8, 1.0), (0.1, 1.0, 1.0), (-1.0, 1.0, 1.0),
                        (1.0, -1.0, 1.0), (1.0, np.nan, 1.0), (1.0, 1.0, -0.1)]:
        with pytest.raises(ValueError):
            w.bloch_excited_population(v, gamma, t)
