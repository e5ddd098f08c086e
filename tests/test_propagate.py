import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import wpsim as w

E0 = 1 / np.sqrt(2.0)


def flat_model(v=0.0, chirp=0.0):
    return w.ModelSpec(
        u1=w.flat_potential(), u2_minus_omega=w.flat_potential(),
        pulse=w.constant_pulse(v, chirp_rate=chirp),
    )


def decay_model(alpha=2.0, v=0.4177):
    return w.ModelSpec(
        u1=w.harmonic_potential(),
        u2_minus_omega=w.linear_potential(E0, alpha),
        pulse=w.constant_pulse(v),
    )


def test_coupling_step_decoupled():
    u = w.coupling_step(0.3, -1.2, 0.0, 0.05)
    assert u[0, 1] == 0 and u[1, 0] == 0
    assert u[0, 0] == pytest.approx(np.exp(-1j * 0.3 * 0.05), rel=1e-14)
    assert u[1, 1] == pytest.approx(np.exp(-1j * -1.2 * 0.05), rel=1e-14)


def test_coupling_step_half_rabi_swap():
    v, dt = 0.5, np.pi / (2 * 0.5)  # v*dt = pi/2
    u = w.coupling_step(0.0, 0.0, v, dt)
    assert u[0, 0] == pytest.approx(0.0, abs=1e-14)
    assert u[0, 1] == pytest.approx(-1j, rel=1e-14)
    assert u[1, 0] == pytest.approx(-1j, rel=1e-14)


def test_coupling_step_matches_matrix_exponential():
    u1, u2, v, dt = 0.0, 2.0, 1.0, 0.1
    expected = expm(-1j * dt * np.array([[u1, v], [v, u2]]))
    got = w.coupling_step(u1, u2, v, dt)
    assert np.max(np.abs(got - expected)) <= 1e-12


def closed_form(u1, u2, v, dt):
    """(a11, a12, a22) of exp(-i dt [[u1, v], [v, u2]]) on arrays of nodes, in
    numpy complex arithmetic: the reference for the bits of static rotations."""
    half = 0.5 * (u1 - u2)
    omega = np.sqrt(half * half + v * v)
    phase = np.exp(-1j * (0.5 * (u1 + u2)) * dt)
    c, s = np.cos(omega * dt), np.sinc(omega * dt / np.pi) * dt
    return phase * (c - 1j * s * half), phase * (-1j * s * v), phase * (c + 1j * s * half)


@pytest.mark.parametrize("u1, u2, v, dt", [
    (0.3, -1.2, 0.0, 0.05), (0.3, -1.2, 0.0, -0.05), (0.0, 0.0, 7.5, 1.3),
    (0.0, 0.0, -2.0, 1.3), (0.0, 2.0, 1.0, 0.1), (1.7, -1.7, 0.25, -0.3),
])
def test_coupling_step_bits_match_complex_closed_form(u1, u2, v, dt):
    # the same bits, signs of zeros included
    a11, a12, a22 = (a[0] for a in closed_form(np.array([u1]), np.array([u2]), v, dt))
    expected = np.array([[a11, a12], [a12, a22]])
    assert w.coupling_step(u1, u2, v, dt).tobytes() == expected.tobytes()


@pytest.mark.parametrize("v", [0.0, 0.8, 60.0])
def test_static_rotation_bits_match_complex_closed_form(v):
    # at v = 60 (v dt = 0.6) the off-diagonal term's last bits reach the sum
    prop = importlib.import_module("wpsim.propagate")
    g = w.make_grid(-8, 8, 64)
    model = w.ModelSpec(w.harmonic_potential(), w.linear_potential(E0, 2.0), w.constant_pulse(v))
    stepper = prop._Stepper(g, model, w.RunConfig(dt=0.01, t_final=0.01))
    rng = np.random.default_rng(3)
    psi = rng.normal(size=(2, 64)) + 1j * rng.normal(size=(2, 64))
    a11, a12, a22 = closed_form(w.potential_value(model.u1, g.x),
                                w.potential_value(model.u2_minus_omega, g.x), v, 0.01)
    expected = np.stack([psi[0] * a11 + a12 * psi[1], psi[1] * a22 + a12 * psi[0]])
    stepper.rotate(psi, 0.0)
    assert psi.tobytes() == expected.tobytes()


@given(
    u1=st.floats(min_value=-50, max_value=50),
    u2=st.floats(min_value=-50, max_value=50),
    v=st.floats(min_value=0, max_value=10),
    dt=st.floats(min_value=1e-4, max_value=0.5),
)
@settings(max_examples=100, deadline=None)
def test_coupling_step_unitary(u1, u2, v, dt):
    u = w.coupling_step(u1, u2, v, dt)
    assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-14


def test_free_packet_spreading():
    # under -d2/dx2, a free Gaussian obeys var(t) = var0 + (t/sigma0)^2
    g = w.make_grid(-40, 40, 1024)
    sigma0 = 1.0
    state = w.gaussian_packet(g, 0.0, sigma0, channel=1)
    cfg = w.RunConfig(dt=0.001, t_final=1.0, record_every=200)
    traj = w.propagate(state, flat_model(), cfg)
    expected = sigma0**2 + (traj.times / sigma0) ** 2
    assert np.max(np.abs(traj.var_x1 - expected)) <= 1e-6


def test_harmonic_eigenstate_density_stationary():
    g = w.make_grid(-10, 10, 256)
    state = w.harmonic_ground_state(g)
    period = 2 * np.pi / np.sqrt(2)
    model = w.ModelSpec(w.harmonic_potential(), w.flat_potential(5.0), w.constant_pulse(0.0))
    n_steps = int(round(10 * period / 0.002))
    cfg = w.RunConfig(dt=0.002, t_final=10 * period, record_every=10**9, snapshot_every=n_steps)
    traj = w.propagate(state, model, cfg)
    drift = np.max(np.abs(traj.snapshots[-1].density1 - traj.snapshots[0].density1))
    assert drift <= 1e-8


def test_resonant_rabi_flopping_exact():
    g = w.make_grid(-8, 8, 128)
    state = w.gaussian_packet(g, 0.0, 0.7, channel=1)
    v = 1.0
    cfg = w.RunConfig(dt=0.001, t_final=2 * np.pi / v, record_every=50)
    traj = w.propagate(state, flat_model(v), cfg)
    assert np.max(np.abs(traj.p2 - np.sin(v * traj.times) ** 2)) <= 1e-6


def test_norm_conserved_without_absorber():
    g = w.make_grid(-12, 52, 512)
    state = w.harmonic_ground_state(g)
    cfg = w.RunConfig(dt=0.001, t_final=2.0, record_every=100)
    traj = w.propagate(state, decay_model(), cfg)
    assert np.max(np.abs(traj.p1 + traj.p2 - 1.0)) <= 1e-8


def test_absorber_budget_closes():
    g = w.make_grid(-12, 52, 1024)
    state = w.harmonic_ground_state(g)
    cfg = w.RunConfig(
        dt=0.001, t_final=6.0, record_every=100,
        absorber=w.AbsorberSpec(width=6.0, strength=1000.0),
    )
    traj = w.propagate(state, decay_model(v=0.8), cfg)
    budget = traj.p1 + traj.p2 + traj.absorbed_norm
    assert traj.absorbed_norm[-1] > 0.01  # flux actually reached the edge
    assert np.max(np.abs(budget - 1.0)) <= 1e-8


def test_apply_absorber_away_from_edges():
    g = w.make_grid(-20, 20, 256)
    state = w.gaussian_packet(g, 0.0, 1.0, channel=1)
    mask = w.absorber_mask(g, w.AbsorberSpec(width=4.0, strength=1000.0), dt=0.001)
    _, removed = w.apply_absorber(state, mask)
    assert abs(removed) <= 1e-14


def test_apply_absorber_inside_zone():
    g = w.make_grid(-20, 20, 256)
    state = w.gaussian_packet(g, 18.0, 0.5, channel=2)
    mask = w.absorber_mask(g, w.AbsorberSpec(width=4.0, strength=1000.0), dt=0.01)
    out, removed = w.apply_absorber(state, mask)
    assert removed > 0.0
    # repeated application keeps shrinking the norm
    prev = w.norm(out).total
    for _ in range(5):
        out, r = w.apply_absorber(out, mask)
        cur = w.norm(out).total
        assert r >= 0.0
        assert cur <= prev
        prev = cur


def test_absorber_width_validation():
    g = w.make_grid(-10, 10, 128)
    with pytest.raises(ValueError):
        w.absorber_mask(g, w.AbsorberSpec(width=11.0, strength=10.0), dt=0.01)


def test_time_reversal_fidelity():
    g = w.make_grid(-16, 16, 256)
    state = w.gaussian_packet(g, -3.0, 1.0, k0=1.5, channel=1)
    model = w.ModelSpec(
        u1=w.harmonic_potential(), u2_minus_omega=w.linear_potential(E0, 1.0),
        pulse=w.constant_pulse(0.6),
    )
    forward = w.propagate(state, model, w.RunConfig(dt=0.002, t_final=2.0, record_every=10**9))
    back = w.propagate(
        forward.final_state, model, w.RunConfig(dt=-0.002, t_final=2.0, record_every=10**9)
    )
    fidelity = abs(w.overlap(state, back.final_state)) ** 2
    assert fidelity >= 1 - 1e-8


def test_step_matches_propagate_single_step():
    g = w.make_grid(-10, 10, 128)
    state = w.gaussian_packet(g, 0.0, 1.0, channel=1)
    model = decay_model(v=0.3)
    cfg = w.RunConfig(dt=0.005, t_final=0.005, record_every=1)
    via_step = w.step(state, model, 0.0, cfg)
    via_propagate = w.propagate(state, model, cfg).final_state
    assert via_step.psi.tobytes() == via_propagate.psi.tobytes()


def gauss_pulse_model(v=0.5):
    return w.ModelSpec(
        u1=w.harmonic_potential(), u2_minus_omega=w.linear_potential(E0, 2.0),
        pulse=w.gaussian_pulse(v, 0.05, 0.03),
    )


def test_one_transform_pair_per_step(monkeypatch):
    # the package rebinds the name ``propagate`` to the function
    prop = importlib.import_module("wpsim.propagate")
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(prop, "fft", counted(prop.fft))
    monkeypatch.setattr(prop, "ifft", counted(prop.ifft))
    g = w.make_grid(-10, 10, 128)
    state = w.gaussian_packet(g, 0.0, 1.0, channel=1)
    cfg = w.RunConfig(dt=0.001, t_final=0.1, record_every=10**9,
                      absorber=w.AbsorberSpec(width=2.0, strength=100.0))
    w.propagate(state, gauss_pulse_model(), cfg)
    assert cfg.n_steps == 100
    assert len(calls) <= 2 * 100 + 4


@pytest.mark.parametrize("absorber", [None, w.AbsorberSpec(width=2.0, strength=200.0)],
                         ids=["bare", "mask"])
def test_final_state_independent_of_record_every(absorber):
    g = w.make_grid(-10, 10, 128)
    state = w.gaussian_packet(g, 3.0, 0.8, k0=2.0, channel=1)
    finals = [
        w.propagate(state, decay_model(v=0.5),
                    w.RunConfig(dt=0.002, t_final=1.0, absorber=absorber,
                                record_every=every)).final_state.psi
        for every in (1, 10**9)
    ]
    assert finals[0].tobytes() == finals[1].tobytes()


def test_successive_steps_match_propagate():
    g = w.make_grid(-10, 10, 128)
    state = w.gaussian_packet(g, 3.0, 0.8, k0=2.0, channel=1)
    model = gauss_pulse_model()
    cfg = w.RunConfig(dt=0.002, t_final=0.1, record_every=10**9,
                      absorber=w.AbsorberSpec(width=2.0, strength=200.0))
    via_propagate = w.propagate(state, model, cfg)
    assert via_propagate.absorbed_norm[-1] > 0.0  # the mask took something
    stepped = state
    for i in range(cfg.n_steps):
        stepped = w.step(stepped, model, i * cfg.dt, cfg)
    assert cfg.n_steps == 50
    assert np.max(np.abs(stepped.psi - via_propagate.final_state.psi)) <= 1e-12


@pytest.mark.parametrize("pulse, t", [
    pytest.param(pulse, t, id=f"{name}-{t}" if name else str(t))
    for name, pulse in [
        ("", w.gaussian_pulse(3.0, 0.5, 0.2, chirp_rate=-4.0)),
        ("constant", w.constant_pulse(3.0)),
        ("chirped_constant", w.constant_pulse(3.0, chirp_rate=-4.0, t_center=0.5)),
    ]
    for t in (0.0, 0.37, 0.5, 0.81)
])
def test_pulsed_rotation_matches_expm(pulse, t):
    # one step of the 2x2 factor alone, node by node, against
    # expm(-i dt [[u1, v], [v, u2 + d_omega]]) with the pulse at the midpoint;
    # the constant pulse takes the static path, its rows built once
    prop = importlib.import_module("wpsim.propagate")
    g = w.make_grid(-8, 8, 64)
    model = w.ModelSpec(w.harmonic_potential(), w.linear_potential(E0, 2.0), pulse)
    dt = 0.01
    stepper = prop._Stepper(g, model, w.RunConfig(dt=dt, t_final=dt))
    rng = np.random.default_rng(5)
    psi = rng.normal(size=(2, 64)) + 1j * rng.normal(size=(2, 64))
    psi[:, ::7] *= 4.0 / np.abs(psi[:, ::7])  # nodes with |psi| = 4
    rotated = psi.copy()
    stepper.rotate(rotated, t)
    v, d_omega = w.pulse_value(pulse, t + 0.5 * dt)
    u1 = w.potential_value(model.u1, g.x)
    u2 = w.potential_value(model.u2_minus_omega, g.x) + d_omega
    expected = np.stack([
        expm(-1j * dt * np.array([[a, v], [v, b]])) @ col
        for a, b, col in zip(u1, u2, psi.T)
    ], axis=1)
    assert v > 0.1
    assert (d_omega != 0.0) == (pulse.chirp_rate != 0.0)
    assert np.max(np.abs(psi)) >= 4.0
    assert np.max(np.abs(rotated - expected)) <= 1e-13


def test_pulse_evaluated_once_per_pulsed_step(monkeypatch):
    # a constant pulse's rows are built in set-up; a Gaussian one's every step
    prop = importlib.import_module("wpsim.propagate")
    calls = []

    def counted(pulse, t):
        calls.append(t)
        return w.pulse_value(pulse, t)

    monkeypatch.setattr(prop, "pulse_value", counted)
    g = w.make_grid(-8, 8, 64)
    state = w.gaussian_packet(g, 0.0, 1.0, channel=1)
    cfg = w.RunConfig(dt=0.001, t_final=0.05, record_every=10)
    counts = []
    for pulse in (w.constant_pulse(0.8), w.gaussian_pulse(0.8, 0.02, 0.01)):
        calls.clear()
        w.propagate(state, w.ModelSpec(w.flat_potential(), w.flat_potential(), pulse), cfg)
        counts.append(len(calls))
    assert cfg.n_steps == 50
    assert counts == [0, 50]


def test_pulsed_step_at_zero_flopping_frequency():
    # v0 = 0 on equal flat surfaces: omega = 0 at every node of every pulsed step
    g = w.make_grid(-8, 8, 128)
    psi = w.gaussian_packet(g, 0.0, 1.0, k0=1.0, channel=1).psi1 / np.sqrt(2)
    state = w.TwoChannelState(g, np.stack([psi, 1j * psi]))
    cfg = w.RunConfig(dt=0.002, t_final=0.4, record_every=20)
    pulsed = w.ModelSpec(w.flat_potential(), w.flat_potential(), w.gaussian_pulse(0.0, 0.2, 0.1))
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        traj = w.propagate(state, pulsed, cfg)
    static = w.propagate(state, flat_model(0.0), cfg)
    assert np.all(np.isfinite(traj.final_state.psi))
    assert np.max(np.abs(traj.final_state.psi - static.final_state.psi)) <= 1e-14
    for column in ("p1", "p2", "survival"):
        assert np.max(np.abs(getattr(traj, column) - getattr(static, column))) <= 1e-14


def test_flat_gaussian_pulse_matches_constant_pulse():
    # t_width = 1e12 runs the per-step pulsed path with V = v0 to 1e-24
    g = w.make_grid(-10, 10, 128)
    state = w.gaussian_packet(g, 5.0, 0.8, k0=4.0, channel=1)
    cfg = w.RunConfig(dt=0.002, t_final=0.4, record_every=10,
                      absorber=w.AbsorberSpec(width=2.0, strength=200.0))
    v0 = 0.5
    runs = [
        w.propagate(state, w.ModelSpec(w.harmonic_potential(),
                                       w.linear_potential(E0, 2.0), pulse), cfg)
        for pulse in (w.gaussian_pulse(v0, 0.0, 1e12), w.constant_pulse(v0))
    ]
    assert cfg.n_steps == 200
    assert runs[1].absorbed_norm[-1] > 1e-3  # the mask took something
    assert np.max(np.abs(runs[0].final_state.psi - runs[1].final_state.psi)) <= 1e-13
    for column in ("p1", "p2", "survival", "absorbed_norm"):
        assert np.max(np.abs(getattr(runs[0], column) - getattr(runs[1], column))) <= 1e-13


def test_chirp_accumulates_channel_phase():
    # V = 0: the chirp offset only winds channel-2 phase by int r (t - tc) dt
    g = w.make_grid(-8, 8, 128)
    psi = w.gaussian_packet(g, 0.0, 1.0, channel=1).psi1 / np.sqrt(2)
    state = w.TwoChannelState(g, np.stack([psi, psi]))
    rate, horizon = 0.8, 1.5
    cfg = w.RunConfig(dt=0.001, t_final=horizon, record_every=10**9)
    traj = w.propagate(state, flat_model(0.0, chirp=rate), cfg)
    # phase difference between channels: channel 2 accumulates -rate*t^2/2
    ratio = traj.final_state.psi2[64] / traj.final_state.psi1[64]
    expected = np.exp(-1j * rate * horizon**2 / 2)
    assert ratio == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_divergence_detected(bad):
    g = w.make_grid(-8, 8, 64)
    state = w.gaussian_packet(g, 0.0, 1.0, channel=1)
    state.psi1[3] = bad
    cfg = w.RunConfig(dt=0.001, t_final=0.5, record_every=10**9)
    with pytest.raises(w.DivergenceError, match="step"):
        w.propagate(state, flat_model(), cfg)


def test_ehrenfest_on_slope():
    # decoupled packet on offset - alpha*x: acceleration d2<x>/dt2 = 2*alpha
    alpha = 2.0
    g = w.make_grid(-20, 60, 1024)
    state = w.gaussian_packet(g, 0.0, 1.0, channel=2)
    model = w.ModelSpec(
        u1=w.harmonic_potential(), u2_minus_omega=w.linear_potential(E0, alpha),
        pulse=w.constant_pulse(0.0),
    )
    cfg = w.RunConfig(dt=0.001, t_final=3.0, record_every=20)
    traj = w.propagate(state, model, cfg)
    coeffs = np.polyfit(traj.times, traj.mean_x2, 2)
    acceleration = 2 * coeffs[0]
    assert acceleration == pytest.approx(2 * alpha, rel=5e-3)


def test_run_config_validation():
    with pytest.raises(ValueError):
        w.RunConfig(dt=0.0, t_final=1.0)
    with pytest.raises(ValueError):
        w.RunConfig(dt=0.1, t_final=0.01)
    with pytest.raises(ValueError):
        w.RunConfig(dt=0.01, t_final=1.0, record_every=0)
