import numpy as np
import pytest

import wpsim as w

E0 = 1 / np.sqrt(2.0)


def decay_model(alpha=2.0, v=0.4):
    return w.ModelSpec(
        u1=w.harmonic_potential(),
        u2_minus_omega=w.linear_potential(E0, alpha),
        pulse=w.constant_pulse(v),
    )


def test_potential_values():
    assert w.potential_value(w.harmonic_potential(), 2.0) == pytest.approx(2.0, abs=0)
    lin = w.linear_potential(E0, 2.0)
    assert w.potential_value(lin, 0.0) == pytest.approx(E0, abs=0)
    root = E0 / 2.0
    assert w.potential_value(lin, root) == pytest.approx(0.0, abs=1e-9)


def test_tabulated_potential_round_trip():
    g = w.make_grid(-5, 5, 64)
    values = np.sin(g.x)
    tab = w.tabulated_potential(g, values)
    assert np.array_equal(w.potential_on_grid(tab, g), values)
    assert w.potential_value(tab, g.x[10]) == values[10]
    # interpolation midway between nodes
    mid = g.x[10] + 0.5 * g.dx
    assert w.potential_value(tab, mid) == pytest.approx(
        0.5 * (values[10] + values[11]), rel=1e-12
    )
    with pytest.raises(ValueError):
        w.potential_value(tab, 7.0)


def test_tabulated_rejects_nonfinite():
    g = w.make_grid(-5, 5, 64)
    bad = np.zeros(64)
    bad[3] = np.inf
    with pytest.raises(ValueError):
        w.tabulated_potential(g, bad)


def test_crossing_of_level_with_slope_is_origin():
    for alpha in (0.5, 1.0, 2.0, 8.0):
        res = w.crossing_point(decay_model(alpha), -12, 52, level=E0)
        assert res.position == pytest.approx(0.0, abs=1e-9)
        assert res.count == 1


def test_crossing_two_linear_surfaces():
    model = w.ModelSpec(
        u1=w.flat_potential(0.0),
        u2_minus_omega=w.linear_potential(1.0, 1.0),
        pulse=w.constant_pulse(0.1),
    )
    res = w.crossing_point(model, -5, 5)
    assert res.position == pytest.approx(1.0, abs=1e-9)
    assert res.count == 1


def test_crossing_harmonic_vs_constant():
    model = w.ModelSpec(
        u1=w.harmonic_potential(),
        u2_minus_omega=w.flat_potential(2.0),
        pulse=w.constant_pulse(0.1),
    )
    res = w.crossing_point(model, -10, 10)
    assert abs(res.position) == pytest.approx(2.0, abs=1e-9)
    assert res.count == 2


def test_crossing_residual_invariant():
    model = decay_model(2.0)
    res = w.crossing_point(model, -12, 52)
    residual = w.potential_value(model.u2_minus_omega, res.position) - w.potential_value(
        model.u1, res.position
    )
    assert abs(residual) <= 1e-9


def test_no_crossing():
    model = w.ModelSpec(
        u1=w.flat_potential(0.0),
        u2_minus_omega=w.flat_potential(3.0),
        pulse=w.constant_pulse(0.1),
    )
    with pytest.raises(w.NoCrossingError):
        w.crossing_point(model, -5, 5)


def test_constant_pulse():
    pulse = w.constant_pulse(0.5)
    for t in (-3.0, 0.0, 17.2):
        v, d_omega = w.pulse_value(pulse, t)
        assert v == 0.5
        assert d_omega == 0.0


def test_gaussian_pulse_peak_and_width():
    pulse = w.gaussian_pulse(1.0, t_center=5.0, t_width=2.0)
    assert w.pulse_value(pulse, 5.0).v == pytest.approx(1.0, abs=0)
    assert w.pulse_value(pulse, 7.0).v == pytest.approx(np.exp(-0.5), rel=1e-12)

    # pulse-area quadrature pins the width convention: integral = v0 tw sqrt(2 pi)
    ts = np.linspace(-25.0, 35.0, 200001)
    area = np.trapezoid([w.pulse_value(pulse, t).v for t in ts], ts)
    assert area == pytest.approx(1.0 * 2.0 * np.sqrt(2 * np.pi), rel=1e-8)


def test_gaussian_pulse_symmetry():
    pulse = w.gaussian_pulse(0.7, t_center=2.0, t_width=0.5)
    for s in (0.1, 0.9, 3.3):
        assert w.pulse_value(pulse, 2.0 + s).v == w.pulse_value(pulse, 2.0 - s).v


def test_chirp_offset_is_linear():
    pulse = w.gaussian_pulse(1.0, t_center=5.0, t_width=2.0, chirp_rate=0.25)
    assert w.pulse_value(pulse, 5.0).delta_omega == 0.0
    assert w.pulse_value(pulse, 9.0).delta_omega == pytest.approx(1.0, abs=0)
    assert w.pulse_value(pulse, 1.0).delta_omega == pytest.approx(-1.0, abs=0)


def test_pulse_validation():
    with pytest.raises(ValueError):
        w.constant_pulse(-0.1)
    with pytest.raises(ValueError):
        w.gaussian_pulse(1.0, 0.0, 0.0)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: w.constant_pulse(np.nan), id="constant-v0"),
    pytest.param(lambda: w.constant_pulse(1.0, chirp_rate=np.inf), id="constant-chirp"),
    pytest.param(lambda: w.gaussian_pulse(np.inf, 0.0, 1.0), id="gaussian-v0"),
    pytest.param(lambda: w.gaussian_pulse(1.0, np.nan, 1.0), id="gaussian-center"),
    pytest.param(lambda: w.gaussian_pulse(1.0, 0.0, np.inf), id="gaussian-width"),
    pytest.param(lambda: w.linear_potential(np.nan, 1.0), id="linear-offset"),
    pytest.param(lambda: w.linear_potential(0.0, -np.inf), id="linear-slope"),
    pytest.param(lambda: w.flat_potential(np.inf), id="flat-offset"),
])
def test_model_constructors_reject_non_finite_input(call):
    with pytest.raises(ValueError, match="finite"):
        call()


@pytest.mark.parametrize("t_width", [1e-200, 1e-155, 1e200, 1e155])
def test_gaussian_pulse_rejects_width_whose_square_leaves_the_normal_floats(t_width):
    # pulse_value divides by 2 t_width^2, which would be 0 (ZeroDivisionError),
    # subnormal or overflow (OverflowError from t_width**2)
    with pytest.raises(ValueError, match="t_width = .* is out of range: 2 t_width\\^2"):
        w.gaussian_pulse(1.0, 0.0, t_width)


def test_gaussian_pulse_keeps_widths_with_a_normal_square():
    for t_width in (1e-150, 1e150):
        pulse = w.gaussian_pulse(1.0, 0.0, t_width)
        assert w.pulse_value(pulse, 0.0).v == 1.0
        assert w.pulse_value(pulse, t_width).v == pytest.approx(np.exp(-0.5), rel=1e-15)


def test_difference_potential():
    model = decay_model(2.0)
    assert w.difference_potential(model, 0.0) == pytest.approx(E0, abs=1e-14)
    assert w.difference_potential(model, 1.0) == pytest.approx((E0 - 2.0) - 0.5, abs=1e-14)
    res = w.crossing_point(model, -12, 52)
    assert w.difference_potential(model, res.position) == pytest.approx(0.0, abs=1e-9)


def loop_crossing(model, x_min, x_max, level=None, n_scan=4096):
    """The interval scan as a plain loop over every interval, each bracket
    bisected 100 times: the reference for the vectorised scan of
    ``crossing_point`` and for its stop at adjacent doubles."""
    def f_at(x):
        u = w.potential_value(model.u2_minus_omega, x)
        return u - (level if level is not None else w.potential_value(model.u1, x))

    xs = np.linspace(x_min, x_max, n_scan + 1)
    f = f_at(xs)
    roots = []
    for i in range(n_scan):
        a, b, fa, fb = xs[i], xs[i + 1], f[i], f[i + 1]
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb < 0.0:
            for _ in range(100):
                m = 0.5 * (a + b)
                fm = f_at(m)
                if fm == 0.0:
                    a = b = m
                    break
                if fa * fm < 0.0:
                    b, fb = m, fm
                else:
                    a, fa = m, fm
            roots.append(0.5 * (a + b))
    if f[-1] == 0.0:
        roots.append(xs[-1])
    if not roots:
        return None
    roots = np.asarray(roots)
    best = int(np.argmin(np.abs(roots)))
    return w.CrossingResult(float(roots[best]), len(roots))


def two_surfaces(u1, u2):
    return w.ModelSpec(u1=u1, u2_minus_omega=u2, pulse=w.constant_pulse(0.1))


TAB_GRID = w.make_grid(-5, 5, 64)


@pytest.mark.parametrize("model, x_min, x_max, level, count", [
    (decay_model(2.0), -12, 52, E0, 1),
    (two_surfaces(w.flat_potential(0.0), w.linear_potential(1.0, 1.0)), -5, 5, None, 1),
    (two_surfaces(w.harmonic_potential(), w.flat_potential(2.0)), -10, 10, None, 2),
    # f is 0 at every node: each interval starts on a root, and the last node is one
    (two_surfaces(w.flat_potential(0.5), w.flat_potential(0.5)), -5, 5, None, 4097),
    # the root x = 1 is node 2560 of the scan (spacing 2^-9, exact), then its last node
    (two_surfaces(w.flat_potential(0.0), w.linear_potential(1.0, 1.0)), -4, 4, None, 1),
    (two_surfaces(w.flat_potential(0.0), w.linear_potential(1.0, 1.0)), -7, 1, None, 1),
    (two_surfaces(w.flat_potential(0.0), w.flat_potential(3.0)), -5, 5, None, 0),
    # the decay presets' curve crossing: brackets that reach adjacent doubles
    # after 44 and 48 halvings
    (decay_model(2.0), -12, 52, None, 2),
    # lz_sweep's surfaces, on an interval where the root x = 0 is no scan node
    (two_surfaces(w.flat_potential(), w.linear_potential(0.0, 2.0)), -8, 30, None, 1),
    (two_surfaces(w.tabulated_potential(TAB_GRID, np.sin(TAB_GRID.x)), w.flat_potential(0.3)),
     -5, TAB_GRID.x[-1], None, 3),
], ids=["one-root-level", "one-root", "two-roots", "identical", "root-on-node",
        "root-on-last-node", "no-root", "decay-curve", "lz", "tabulated"])
def test_crossing_scan_matches_plain_loop(model, x_min, x_max, level, count):
    expected = loop_crossing(model, x_min, x_max, level)
    if count == 0:
        assert expected is None
        with pytest.raises(w.NoCrossingError):
            w.crossing_point(model, x_min, x_max, level)
        return
    got = w.crossing_point(model, x_min, x_max, level)
    assert got.count == expected.count == count
    assert np.float64(got.position).tobytes() == np.float64(expected.position).tobytes()
