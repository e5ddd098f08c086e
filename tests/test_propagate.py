import importlib
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import wpsim as w
from wpsim.propagate import _absorber_zones

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
    assert np.max(np.abs(got - expected)) <= 1e-15


@pytest.mark.parametrize("u1, u2, v, dt", [
    (0.3, -1.2, 0.0, 0.05), (0.3, -1.2, 0.0, -0.05), (0.0, 0.0, 7.5, 1.3),
    (0.0, 0.0, -2.0, 1.3), (0.0, 2.0, 1.0, 0.1), (1.7, -1.7, 0.25, -0.3),
    (0.3, -1.2, 1e-200, 0.05),  # v^2 underflows to 0
])
def test_coupling_step_matches_expm_over_cases(u1, u2, v, dt):
    expected = expm(-1j * dt * np.array([[u1, v], [v, u2]]))
    got = w.coupling_step(u1, u2, v, dt)
    assert np.max(np.abs(got - expected)) <= 1e-15


@given(
    u1=st.floats(min_value=-50, max_value=50),
    u2=st.floats(min_value=-50, max_value=50),
    v=st.floats(min_value=0, max_value=10),
    dt=st.floats(min_value=1e-4, max_value=0.5),
)
@settings(max_examples=100, deadline=None)
@example(u1=0.0, u2=0.0, v=2.2384311859617283e-290, dt=0.5)  # v > 0, v * v == 0
def test_coupling_step_unitary(u1, u2, v, dt):
    u = w.coupling_step(u1, u2, v, dt)
    assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-14


@pytest.mark.parametrize("u1, u2, v, dt", [
    (0.0, 0.0, 1e155, 0.1),  # v^2 overflows
    (1e160, 0.0, 1.0, 0.1),  # h^2 overflows
    (1e308, 1e308, 0.0, 1.0),  # u1 + u2 overflows
    (np.nan, 0.0, 1.0, 0.1),
    (0.0, 0.0, np.nan, 0.1),
    (0.0, np.inf, 1.0, 0.1),
    (0.0, 0.0, 1.0, -np.inf),
])
def test_coupling_step_rejects_input_without_finite_unitary(u1, u2, v, dt):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="has no finite unitary") as err:
            w.coupling_step(u1, u2, v, dt)
    assert f"u1 = {u1!r}, u2 = {u2!r}, v = {v!r}, dt = {dt!r}" in str(err.value)


def test_underflowing_coupling_propagates_cleanly():
    # a Gaussian pulse centred at t = 0 decays through couplings with v > 0
    # but v * v == 0 before it underflows to 0; the rotation must stay exact
    # and finite there, with no invalid divide
    g = w.make_grid(-8, 8, 64)
    state = w.gaussian_packet(g, 0.0, 1.0, channel=1)
    pulse = w.gaussian_pulse(1.0, 0.0, 0.01)
    model = w.ModelSpec(w.flat_potential(), w.flat_potential(), pulse)
    cfg = w.RunConfig(dt=0.001, t_final=0.5, record_every=10)
    midpoints = (np.arange(cfg.n_steps) + 0.5) * cfg.dt
    vs = np.array([w.pulse_value(pulse, t).v for t in midpoints])
    assert np.count_nonzero((vs > 0.0) & (vs * vs == 0.0)) == 113
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = w.propagate(state, model, cfg)
    assert np.max(np.abs(traj.p1 + traj.p2 - 1.0)) <= 1e-12


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


@pytest.mark.parametrize("k0, passes", [(2.0, False), (4.0, True), (8.0, True), (16.0, True)])
def test_absorber_working_band(k0, passes):
    # a free packet runs from x = 20 into the preset mask at x = 46 and back:
    # the norm left between the zones after t = 26 / k0 is what the mask
    # reflected.  Slow flux is reflected (1.7e-2 at k0 = 2); from k0 = 4 on
    # less than 1e-4 is left (5.0e-6, 1.7e-8 and 1.1e-10 at k0 = 4, 8, 16).
    g = w.make_grid(-12, 52, 2048)
    state = w.gaussian_packet(g, 20.0, 4.0, k0=k0, channel=2)
    cfg = w.RunConfig(dt=0.001, t_final=26.0 / k0, record_every=100_000,
                      absorber=w.AbsorberSpec(width=6.0, strength=1000.0))
    final = w.propagate(state, flat_model(0.0), cfg).final_state
    between = (g.x >= -6.0) & (g.x < 46.0)
    left = float(np.sum(np.abs(final.psi[:, between]) ** 2) * g.dx)
    assert (left < 1e-4) if passes else (left > 1e-3), left


def test_apply_absorber_away_from_edges():
    g = w.make_grid(-20, 20, 256)
    state = w.gaussian_packet(g, 0.0, 1.0, channel=1)
    mask = w.absorber_mask(g, w.AbsorberSpec(width=4.0, strength=1000.0), dt=0.001)
    out, removed = w.apply_absorber(state, mask)
    # the loss is summed directly, so the packet's 1e-56 tail density in the
    # zones shows instead of cancelling in a difference of two unit norms
    assert 0.0 < removed < 1e-50
    assert removed == pytest.approx(np.sum(np.abs(state.psi) ** 2 * (1 - mask**2)) * g.dx,
                                    rel=1e-12)
    interior = mask == 1.0
    assert np.array_equal(out.psi[:, interior], state.psi[:, interior])
    # an amplitude that vanishes in the zones loses exactly nothing
    state.psi[:, ~interior] = 0.0
    assert w.apply_absorber(state, mask)[1] == 0.0


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


def test_absorber_loss_per_channel_on_both_edges():
    # uncoupled flat channels: channel 1 runs into the left zone, channel 2
    # into the right one, and the horizon ends before either packet's front
    # wraps round to the other edge
    g = w.make_grid(-20, 20, 512)
    absorber = w.AbsorberSpec(width=5.0, strength=200.0)
    cfg = w.RunConfig(dt=0.002, t_final=1.0, absorber=absorber, record_every=25)
    left, right = _absorber_zones(g, absorber)
    in_zone = np.zeros(g.n_points, dtype=bool)
    in_zone[left] = in_zone[right] = True
    assert np.array_equal(in_zone, w.absorber_mask(g, absorber, cfg.dt) < 1.0)

    psi = (w.gaussian_packet(g, -8.0, 1.0, k0=-4.0, channel=1).psi
           + w.gaussian_packet(g, 8.0, 1.0, k0=4.0, channel=2).psi) * np.sqrt(0.5)
    traj = w.propagate(w.TwoChannelState(g, psi), flat_model(), cfg)
    for p, absorbed in ((traj.p1, traj.absorbed_ch1), (traj.p2, traj.absorbed_ch2)):
        assert absorbed[-1] > 0.01
        assert np.max(np.abs(p + absorbed - p[0])) <= 1e-12


def test_absorber_width_validation():
    g = w.make_grid(-10, 10, 128)
    with pytest.raises(ValueError):
        w.absorber_mask(g, w.AbsorberSpec(width=11.0, strength=10.0), dt=0.01)


def test_absorber_profile_finite_when_width_rounds_up():
    # on [-20, 20], (-20 + 2.8) + 20 rounds to 2.8000000000000007, so the
    # first node sat an ulp past the zone's outer end and got a NaN profile
    g = w.make_grid(-20, 20, 1024)
    absorber = w.AbsorberSpec(width=2.8, strength=1000.0)
    profile = w.absorber_profile(g, absorber)
    assert np.all(np.isfinite(profile))
    assert profile[0] == np.cos(0.5 * np.pi) ** 0.125
    state = w.harmonic_ground_state(g)
    cfg = w.RunConfig(dt=0.001, t_final=0.01, absorber=absorber)
    assert np.isfinite(w.propagate(state, flat_model(), cfg).p1[-1])


@pytest.mark.parametrize("width, strength", [
    (0.0, 10.0), (-1.0, 10.0), (np.nan, 10.0), (np.inf, 10.0),
    (2.0, -50.0), (2.0, np.nan), (2.0, np.inf),
])
def test_absorber_spec_rejects_bad_numbers(width, strength):
    # a negative strength would amplify the edges until the run diverges
    with pytest.raises(ValueError, match="absorber"):
        w.AbsorberSpec(width, strength)


def test_absorber_spec_accepts_zero_strength():
    assert w.AbsorberSpec(2.0, 0.0).strength == 0.0


@pytest.mark.parametrize("n, width_frac", [
    (64, 0.1), (64, 0.49), (1024, 0.07), (2048, 0.3), (8192, 0.45),
    (16384, 0.3), (16384, 0.4999),
])
def test_absorber_one_pass_matches_per_zone_bits(n, width_frac):
    # the reference sums each zone's loss alone, left then right, then
    # multiplies the zones by the mask; the one-pass absorber must give the
    # same masked bits and the same loss to rounding, in the first and the
    # last row of the stack, also for zone rows of more than einsum's
    # 8192-element blocks (over 4096 nodes: the N = 16384 cases)
    prop = importlib.import_module("wpsim.propagate")
    g = w.make_grid(-20.0, 20.0, n)
    absorber = w.AbsorberSpec(width_frac * g.length, 1000.0)
    cfg = w.RunConfig(dt=0.001, t_final=0.001, absorber=absorber)
    stack = np.zeros((prop._stack_depth(n), 2, n), dtype=complex)
    absorb = prop._absorber(g, cfg, stack)
    rng = np.random.default_rng(n)
    psi = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))

    mask = w.absorber_mask(g, absorber, cfg.dt)
    left, right = _absorber_zones(g, absorber)
    expected = psi.copy()
    lost = 0.0
    for zone in (left, right):
        edge = expected[:, zone]
        lost = lost + prop._masked_loss(edge, prop._loss_weights(mask[zone], g.dx))
        np.multiply(edge, mask[zone], out=edge)

    interior = slice(left.stop, right.start)
    for r in (0, -1):
        stack[r] = psi
        np.testing.assert_allclose(absorb(r), lost, rtol=1e-15, atol=0.0)
        assert stack[r].tobytes() == expected.tobytes()
        # the interior, with the padding node before the right zone, keeps its bytes
        assert stack[r][:, interior].tobytes() == psi[:, interior].tobytes()
    # the right zone is one node shorter; the interior node before it pads it
    n_left, n_right = left.stop, right.stop - right.start
    assert n_left == n_right + 1


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
    # at least a pair per step: a loop that bypassed the module-level names
    # would count nothing here, and nothing in the benchmark tracer either
    assert 2 * 100 <= len(calls) <= 2 * 100 + 4


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


@pytest.mark.parametrize("model", [gauss_pulse_model(), decay_model(), flat_model(0.0)],
                         ids=["pulsed", "static", "diagonal"])
@pytest.mark.parametrize("record_every, snapshot_every", [(7, 5), (1, None), (10**9, 4)])
def test_records_and_snapshots_fall_on_their_steps(monkeypatch, model, record_every,
                                                   snapshot_every):
    # the loop runs from event to event; records land at every record_every
    # steps and the end, snapshots at every snapshot_every steps, the final
    # state does not depend on either, and the last record holds the bits
    # of the public moments and overlap of the final state.  Records stack
    # at N = 128 (snapshot-only boundaries fall between them at (7, 5));
    # every row must hold the bits of the same run taking each record alone
    g = w.make_grid(-10, 10, 128)
    state = w.TwoChannelState(g, w.gaussian_packet(g, 1.0, 0.8, k0=1.0, channel=1).psi
                              + 0.3j * w.gaussian_packet(g, -1.0, 0.8, channel=2).psi)
    absorber = w.AbsorberSpec(width=2.0, strength=200.0)
    cfg = w.RunConfig(dt=0.004, t_final=0.092, absorber=absorber, record_every=record_every,
                      snapshot_every=snapshot_every)
    n = cfg.n_steps
    assert n == 23
    traj = w.propagate(state, model, cfg)
    bare = w.propagate(state, model, replace(cfg, record_every=10**9, snapshot_every=None))
    records = sorted(set(range(0, n + 1, record_every)) | {n})
    snaps = range(0, n + 1, snapshot_every) if snapshot_every else []
    assert traj.times.tolist() == [i * cfg.dt for i in records]
    assert [snap.t for snap in traj.snapshots] == [i * cfg.dt for i in snaps]
    final = traj.final_state
    assert final.psi.tobytes() == bare.final_state.psi.tobytes()
    last = [getattr(traj, name)[-1] for name in ("p1", "mean_x1", "var_x1", "p2", "mean_x2",
                                                 "var_x2", "survival", "absorbed_norm")]
    assert last == [*w.position_moments(final, 1), *w.position_moments(final, 2),
                    abs(w.overlap(state, final)) ** 2, bare.absorbed_norm[-1]]
    prop = importlib.import_module("wpsim.propagate")
    assert prop._stack_depth(128) > 1
    monkeypatch.setattr(prop, "_STACK_NODES", 1)
    alone = w.propagate(state, model, cfg)
    for name in ("times", "p1", "p2", "mean_x1", "mean_x2", "var_x1", "var_x2", "survival",
                 "absorbed_norm", "absorbed_ch1", "absorbed_ch2"):
        assert getattr(traj, name).tobytes() == getattr(alone, name).tobytes(), name
    assert final.psi.tobytes() == alone.final_state.psi.tobytes()
    assert all(a.density1.tobytes() + a.density2.tobytes()
               == b.density1.tobytes() + b.density2.tobytes()
               for a, b in zip(traj.snapshots, alone.snapshots, strict=True))


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
        ("decoupled", w.constant_pulse(0.0)),
    ]
    for t in (0.0, 0.37, 0.5, 0.81)
])
def test_pulsed_rotation_matches_expm(pulse, t):
    # one step of the 2x2 factor alone, node by node, against
    # expm(-i dt [[u1, v], [v, u2 + d_omega]]) with the pulse at the midpoint;
    # the constant pulses take the static path, their rows built once, and
    # the decoupled one a static diagonal factor
    prop = importlib.import_module("wpsim.propagate")
    g = w.make_grid(-8, 8, 64)
    model = w.ModelSpec(w.harmonic_potential(), w.linear_potential(E0, 2.0), pulse)
    dt = 0.01
    rotate = prop._rotator(g, model, dt)
    rng = np.random.default_rng(5)
    psi = rng.normal(size=(2, 64)) + 1j * rng.normal(size=(2, 64))
    psi[:, ::7] *= 4.0 / np.abs(psi[:, ::7])  # nodes with |psi| = 4
    rotated = psi.copy()
    rotate(rotated, t)
    v, d_omega = w.pulse_value(pulse, t + 0.5 * dt)
    u1 = w.potential_value(model.u1, g.x)
    u2 = w.potential_value(model.u2_minus_omega, g.x) + d_omega
    expected = np.stack([
        expm(-1j * dt * np.array([[a, v], [v, b]])) @ col
        for a, b, col in zip(u1, u2, psi.T)
    ], axis=1)
    assert v > 0.1 or pulse.v0 == v == 0.0
    assert (d_omega != 0.0) == (pulse.chirp_rate != 0.0)
    assert np.max(np.abs(psi)) >= 4.0
    assert np.max(np.abs(rotated - expected)) <= 1e-13


@pytest.mark.parametrize("pulse", [
    w.constant_pulse(0.0),
    w.gaussian_pulse(1e-200, 0.5, 0.2, chirp_rate=-4.0),
], ids=["static", "pulsed-underflow"])
def test_decoupled_rotation_equals_diagonal_product(pulse):
    # with v^2 = 0 the factor is diagonal, off is exactly 0, and rotate's
    # full update diag psi + off psi[::-1] must give the bits of the product
    # psi diag alone (the cross term adds zeros), in rotate's operand order
    # (numpy's complex product need not be bitwise commutative); the rows
    # are rebuilt here as the rotator builds them
    prop = importlib.import_module("wpsim.propagate")
    g = w.make_grid(-8, 8, 64)
    model = w.ModelSpec(w.harmonic_potential(), w.linear_potential(E0, 2.0), pulse)
    dt, t = 0.01, 0.37
    rotate = prop._rotator(g, model, dt)
    rng = np.random.default_rng(9)
    psi = rng.normal(size=(2, 64)) + 1j * rng.normal(size=(2, 64))
    rotated = psi.copy()
    rotate(rotated, t)
    rot = prop._Rotation(prop.potential_on_grid(model.u1, g),
                         prop.potential_on_grid(model.u2_minus_omega, g), dt)
    v, d_omega = w.pulse_value(pulse, t + 0.5 * dt)
    rot.fill(v, d_omega)
    if pulse.envelope == "constant":
        rot.fold_phase()
    expected = psi * rot.diag
    if pulse.envelope != "constant":
        assert 0.0 < v and v * v == 0.0 and d_omega != 0.0
        expected *= rot.phase
        expected *= np.exp(-0.5j * d_omega * dt)
    assert rot.diagonal
    assert np.all(rot.off == 0.0)
    assert rotated.tobytes() == expected.tobytes()


def test_bound_einsum_matches_public_einsum_bytes():
    # the stepping code calls numpy's compiled einsum kernel directly; it
    # must give the bytes of public np.einsum for the signatures it uses:
    # the MCWF populations of a block of steps, the record's finiteness test
    # and the absorber's loss on its (channel, edge, L) view
    prop = importlib.import_module("wpsim.propagate")
    for n in (64, 1024, 2048):
        g = w.make_grid(-20.0, 20.0, n)
        absorber = w.AbsorberSpec(0.3 * g.length)
        rng = np.random.default_rng(n)
        row = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        flat = row.view(np.float64)
        assert flat.shape == (2, 2 * n)
        block = rng.normal(size=(5, 2, 2 * n))
        left, right = _absorber_zones(g, absorber)
        length = max(left.stop, right.stop - right.start)
        edges = prop._edge_windows(row, length, n - length).view(np.float64)
        mask = prop._edge_windows(w.absorber_mask(g, absorber, 0.001), length, n - length)
        weights = prop._loss_weights(mask, g.dx)
        assert edges.shape == (2, 2, 2 * length)
        for signature, operands in (("kcj,kcj->kc", (block, block)),
                                    ("cj,cj->", (flat, flat)),
                                    ("czj,czj,zj->cz", (edges, edges, weights))):
            assert (prop._c_einsum(signature, *operands).tobytes()
                    == np.einsum(signature, *operands).tobytes())


@pytest.mark.parametrize("n", [64, 128, 1024, 2048])
def test_block_populations_keep_per_step_bits(n):
    # a block's populations come from one reduction over its (K, 2, N)
    # stack; each step's row must hold the bits of that step's own (2, N)
    # reduction, whatever K and wherever the block sits in the stack
    prop = importlib.import_module("wpsim.propagate")
    rng = np.random.default_rng(n)
    stack = np.empty((64, 2, n), dtype=complex)
    stack[...] = rng.normal(size=(64, 2, n)) + 1j * rng.normal(size=(64, 2, n))
    stack *= rng.uniform(1e-3, 1e3, size=(64, 2, 1))
    for size in (1, 2, 7, 31, 64):
        flat = stack[:size].view(np.float64)
        pops = prop._c_einsum("kcj,kcj->kc", flat, flat)
        for k in range(size):
            assert pops[k].tobytes() == prop._c_einsum("cj,cj->c", flat[k], flat[k]).tobytes()


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


@pytest.mark.parametrize("u1, u2, chirp, absorber", [
    (w.flat_potential(), w.flat_potential(0.7), 0.0, None),
    (w.flat_potential(), w.flat_potential(0.7), -1.5, None),
    (w.harmonic_potential(), w.linear_potential(0.5, 2.0), -1.0, w.AbsorberSpec(3.0, 100.0)),
], ids=["pulsed", "chirped", "chirped_sloped_masked"])
def test_pulsed_steps_are_second_order(u1, u2, chirp, absorber):
    # criterion 7 checks the order of static steps only.  Halving dt must
    # shrink the L2 distance between the final states at successive dt about
    # fourfold; a pulse read at the step's start instead of its midpoint
    # makes the step first order, a ratio of about 2
    grid = w.make_grid(-12, 20, 256)
    state = w.harmonic_ground_state(grid)
    model = w.ModelSpec(u1, u2, w.gaussian_pulse(1.0, 1.0, 0.4, chirp))
    finals = [
        w.propagate(state, model, w.RunConfig(dt=dt, t_final=2.0, record_every=10**9,
                                              absorber=absorber)).final_state.psi
        for dt in (0.02, 0.01, 0.005, 0.0025)
    ]
    errors = [np.sqrt(np.sum(np.abs(a - b) ** 2) * grid.dx) for a, b in zip(finals, finals[1:])]
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    assert all(3.2 <= r <= 4.8 for r in ratios), ratios


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
    for dt, t_final in ((np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0),
                        (0.01, np.nan), (0.01, np.inf)):
        # caught at construction, not later in n_steps
        with pytest.raises(ValueError, match="finite"):
            w.RunConfig(dt=dt, t_final=t_final)
    with pytest.raises(ValueError):
        w.RunConfig(dt=0.1, t_final=0.01)
    for dt, t_final in ((1e-320, 1.0), (1e-300, 1e10), (-1e-320, 1.0)):
        # t_final / |dt| overflows: a ValueError here, not an OverflowError in n_steps
        with pytest.raises(ValueError, match="overflows"):
            w.RunConfig(dt=dt, t_final=t_final)
    with pytest.raises(ValueError):
        w.RunConfig(dt=0.01, t_final=1.0, record_every=0)
    # a cadence must be an integer, caught at construction, not in range()
    for every in (2.5, 3.0, np.float64(3.0), "3"):
        with pytest.raises(ValueError, match="record_every"):
            w.RunConfig(dt=0.01, t_final=1.0, record_every=every)
        with pytest.raises(ValueError, match="snapshot_every"):
            w.RunConfig(dt=0.01, t_final=1.0, snapshot_every=every)
    for every in (3, np.int64(3), np.int32(3)):
        cfg = w.RunConfig(dt=0.01, t_final=0.1, record_every=every, snapshot_every=every)
        traj = w.propagate(w.gaussian_packet(w.make_grid(-8, 8, 64), 0.0, 1.0), flat_model(0.3),
                           cfg)
        assert len(traj.times) == 5 and len(traj.snapshots) == 4


@pytest.mark.parametrize("entry", ["propagate", "mcwf"])
@pytest.mark.parametrize("call", [3, 8, 11, 44, 100], ids=lambda c: f"ifft{c}")
def test_divergence_detected_mid_run(monkeypatch, entry, call):
    # NaN or Inf amplitudes appear in the output of the call-th inverse
    # transform: a step's (whose state reaches the next boundary) or a
    # record's.  With record_every = 7 and no jump yet, steps and records
    # alternate as 7 step transforms then 1 record transform, so the first
    # record at or after the injection is at step 7 (q + 1),
    # q = (call - 1) // 8, and it raises before another step transforms
    # anything.  The steps in between warn of nothing: the pytest config
    # turns a numeric RuntimeWarning from wpsim into an error
    prop = importlib.import_module("wpsim.propagate")
    assert prop._stack_depth(64) > 7  # stacked records, blocks of several steps
    inverse = prop.ifft

    g = w.make_grid(-8, 8, 64)
    cfg = w.RunConfig(dt=0.01, t_final=1.0, record_every=7)
    q = (call - 1) // 8
    if entry == "propagate":
        state = w.gaussian_packet(g, 0.0, 1.0, channel=1)

        def run():
            return w.propagate(state, flat_model(0.5), cfg)
    else:
        state = w.gaussian_packet(g, 0.0, 0.7, channel=2)

        def run():
            return w.mcwf_trajectory(state, flat_model(0.5), 0.2, cfg, seed=1)

        # no jump before the poisoned record, so the transforms follow the pattern
        assert all(jump.t_jump > 7 * (q + 1) * cfg.dt for jump in run()[1])
    for bad in (np.nan, np.inf):
        calls = [0]

        def poisoned(*args, **kwargs):
            out = inverse(*args, **kwargs)
            calls[0] += 1
            if calls[0] == call:
                out[...] = bad
            return out

        with monkeypatch.context() as mp:
            mp.setattr(prop, "ifft", poisoned)
            with pytest.raises(w.DivergenceError, match=f"at step {7 * (q + 1)}$"):
                run()
        assert calls[0] == 8 * (q + 1)
