import importlib
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

import wpsim as w


def flat_model(v=0.0):
    return w.ModelSpec(
        u1=w.flat_potential(), u2_minus_omega=w.flat_potential(),
        pulse=w.constant_pulse(v),
    )


def excited_packet(n=64, half_width=8.0):
    g = w.make_grid(-half_width, half_width, n)
    return w.gaussian_packet(g, 0.0, 0.7, channel=2)


def test_zero_decay_matches_deterministic():
    state = excited_packet()
    cfg = w.RunConfig(dt=0.01, t_final=2.0, record_every=10)
    stoch, jumps = w.mcwf_trajectory(state, flat_model(0.6), 0.0, cfg, seed=5)
    det = w.propagate(state, flat_model(0.6), cfg)
    assert jumps == []
    total = det.p1 + det.p2
    assert np.array_equal(stoch.p2, det.p2 / total)
    assert np.array_equal(stoch.p1, det.p1 / total)


def test_propagation_leaves_input_state_alone():
    g = w.make_grid(-8, 8, 64)
    state = w.gaussian_packet(g, 2.0, 0.7, 1.0, channel=2)
    before = state.psi.copy()
    cfg = w.RunConfig(dt=0.01, t_final=3.0, record_every=10, snapshot_every=50,
                      absorber=w.AbsorberSpec(width=2.0, strength=50.0))
    traj = w.propagate(state, flat_model(0.3), cfg)
    assert traj.absorbed_norm[-1] > 0.01
    assert np.array_equal(state.psi, before)
    traj, jumps = w.mcwf_trajectory(state, flat_model(0.3), 2.0, cfg, seed=1)
    assert jumps and traj.absorbed_norm[-1] > 0.01
    assert np.array_equal(state.psi, before)


def test_nojump_matches_trajectory_before_first_jump():
    state = excited_packet()
    model = flat_model(0.6)
    cfg = w.RunConfig(dt=0.01, t_final=3.0, record_every=5,
                      absorber=w.AbsorberSpec(width=2.0, strength=50.0))
    bench, _ = w.nojump_benchmark(state, model, 1.0, cfg)
    traj, jumps = w.mcwf_trajectory(state, model, 1.0, cfg, seed=3)
    assert jumps  # the comparison stops at a jump that actually fired
    before = bench.times < jumps[0].t_jump
    assert 2 <= before.sum() < len(bench.times)
    assert np.array_equal(bench.p1[before], traj.p1[before])
    assert np.array_equal(bench.p2[before], traj.p2[before])


def test_nojump_records_channel_moments():
    state = excited_packet()
    cfg = w.RunConfig(dt=0.01, t_final=2.0, record_every=10, snapshot_every=100)
    bench, _ = w.nojump_benchmark(state, flat_model(0.6), 1.0, cfg)
    assert np.all(np.isfinite(bench.mean_x2)) and np.all(np.isfinite(bench.var_x2))
    assert np.all(np.isfinite(bench.survival)) and bench.survival[0] == pytest.approx(1.0)
    assert len(bench.snapshots) == 3 and bench.final_state is not None


def test_single_jump_when_uncoupled():
    state = excited_packet()
    cfg = w.RunConfig(dt=0.01, t_final=6.0, record_every=10)
    for seed in range(12):
        traj, jumps = w.mcwf_trajectory(state, flat_model(), 1.0, cfg, seed=seed)
        assert len(jumps) <= 1
        if jumps:
            jump = jumps[0]
            assert 0.0 < jump.t_jump <= 6.0
            assert -8.0 <= jump.x_jump < 8.0
            # after the jump everything sits on channel 1, fully renormalized
            assert traj.p1[-1] == pytest.approx(1.0, abs=1e-12)
            assert traj.p2[-1] == pytest.approx(0.0, abs=1e-12)


def test_first_jump_follows_first_passage_rule():
    # uncoupled flat surfaces, no absorber: after step k (counting from 0)
    # the no-jump survival is damp^(2(k+1)), and the first jump fires at the
    # first step where it drops below the trajectory's first uniform draw
    state = excited_packet()
    cfg = w.RunConfig(dt=0.01, t_final=6.0, record_every=100)
    damp = np.exp(-0.5 * 1.0 * cfg.dt)
    fired = 0
    for seed in range(20):
        u = w.trajectory_rng(seed, 0).random()
        k = 0
        while k < cfg.n_steps and damp ** (2 * (k + 1)) >= u:
            k += 1
        _, jumps = w.mcwf_trajectory(state, flat_model(), 1.0, cfg, seed=seed)
        if k == cfg.n_steps:
            assert jumps == []
        else:
            assert jumps[0].t_jump == (k + 1) * cfg.dt
            fired += 1
    assert fired >= 15


def test_trajectory_deterministic_given_seed():
    state = excited_packet()
    cfg = w.RunConfig(dt=0.01, t_final=3.0, record_every=10)
    t1, j1 = w.mcwf_trajectory(state, flat_model(), 0.8, cfg, seed=11)
    t2, j2 = w.mcwf_trajectory(state, flat_model(), 0.8, cfg, seed=11)
    assert np.array_equal(t1.p2, t2.p2)
    assert j1 == j2


def test_jump_position_follows_channel_density():
    # packet parked away from the origin: jumps come from its (spreading)
    # support, sigma(t)^2 = sigma0^2 + (t/sigma0)^2 for the free packet
    g = w.make_grid(-16, 16, 128)
    state = w.gaussian_packet(g, 5.0, 0.7, channel=2)
    horizon = 1.5
    cfg = w.RunConfig(dt=0.01, t_final=horizon, record_every=20)
    positions = []
    for seed in range(40):
        _, jumps = w.mcwf_trajectory(state, flat_model(), 1.0, cfg, seed=seed)
        positions += [j.x_jump for j in jumps]
    positions = np.asarray(positions)
    assert positions.size >= 25  # 1 - exp(-1.5) of 40 trajectories, roughly
    sigma_final = np.sqrt(0.7**2 + (horizon / 0.7) ** 2)
    assert abs(np.mean(positions) - 5.0) <= 0.6
    assert np.all(np.abs(positions - 5.0) <= 4 * sigma_final)


def test_ensemble_reproducible_and_order_independent():
    state = excited_packet()
    cfg = w.RunConfig(dt=0.02, t_final=2.0, record_every=10)
    e1 = w.mcwf_ensemble(123, 8, state, flat_model(), 1.0, cfg)
    e2 = w.mcwf_ensemble(123, 8, state, flat_model(), 1.0, cfg)
    assert np.array_equal(e1.mean_p2, e2.mean_p2)
    assert np.array_equal(e1.se_p2, e2.se_p2)
    assert e1.jumps == e2.jumps
    # trajectory 5 of the ensemble equals the standalone run with the same derivation
    solo, solo_jumps = w.mcwf_trajectory(state, flat_model(), 1.0, cfg, seed=123, trajectory_id=5)
    from_ensemble = [j for j in e1.jumps if j.trajectory_id == 5]
    assert from_ensemble == solo_jumps


def test_ensemble_needs_two_trajectories():
    state = excited_packet()
    cfg = w.RunConfig(dt=0.02, t_final=1.0)
    with pytest.raises(ValueError):
        w.mcwf_ensemble(1, 1, state, flat_model(), 1.0, cfg)


def test_ensemble_count_must_be_an_integer():
    # a float count is a ValueError before any step, not a TypeError in range()
    state = excited_packet()
    cfg = w.RunConfig(dt=0.02, t_final=0.1)
    for n in (2.5, 2.0, np.float64(2.0), "2"):
        with pytest.raises(ValueError, match="integer n >= 2"):
            w.mcwf_ensemble(1, n, state, flat_model(), 1.0, cfg)
    ens = w.mcwf_ensemble(1, np.int64(2), state, flat_model(), 1.0, cfg)
    assert ens.n_trajectories == 2


DECAY_RUNS = [
    pytest.param(lambda state, gamma, cfg: w.mcwf_trajectory(state, flat_model(), gamma, cfg,
                                                             seed=0), id="trajectory"),
    pytest.param(lambda state, gamma, cfg: w.nojump_benchmark(state, flat_model(), gamma, cfg),
                 id="nojump"),
]


@pytest.mark.parametrize("run", DECAY_RUNS)
def test_negative_decay_rate_rejected(run):
    # NaN and inf are rejected up front too, not by a DivergenceError, an
    # empty-channel jump or NaN output several steps later
    for gamma in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="gamma_sp must be >= 0"):
            run(excited_packet(), gamma, w.RunConfig(dt=0.01, t_final=1.0))


@pytest.mark.parametrize("run", DECAY_RUNS)
def test_damping_that_leaves_the_normal_floats_rejected(run, monkeypatch):
    # at gamma dt = 1000 the per-step damping underflowed channel 2, and a
    # jump fired with it empty (a DivergenceError at step 1)
    def no_steps(*args, **kwargs):
        raise AssertionError("stepped with an underflowing damping")

    with monkeypatch.context() as mp:
        mp.setattr("wpsim.mcwf._evolve", no_steps)
        for gamma in (1e5, 70_839.7, 1e300):
            with pytest.raises(ValueError, match=r"gamma_sp \* dt = .* must be at most 708.396"):
                run(excited_packet(), gamma, w.RunConfig(dt=0.01, t_final=0.1))
    # 708.39 is accepted, and one step's damping is a normal float
    assert math.exp(-70_839.0 * 0.01) >= np.finfo(float).tiny
    run(excited_packet(), 70_839.0, w.RunConfig(dt=0.01, t_final=0.01))


@pytest.mark.parametrize("run", DECAY_RUNS + [
    pytest.param(lambda state, gamma, cfg: w.mcwf_ensemble(0, 2, state, flat_model(), gamma,
                                                           cfg), id="ensemble"),
])
def test_backward_step_rejected(run, monkeypatch):
    # a negative dt would run the decay backwards in time, with negative jump
    # times; it is rejected before the first step
    def no_steps(*args, **kwargs):
        raise AssertionError("stepped with a negative dt")

    monkeypatch.setattr("wpsim.mcwf._evolve", no_steps)
    with pytest.raises(ValueError, match="dt must be positive"):
        run(excited_packet(), 1.0, w.RunConfig(dt=-0.01, t_final=3.0))


@pytest.mark.parametrize("run", [
    pytest.param(lambda state, seed, cfg: w.mcwf_trajectory(state, flat_model(), 1.0, cfg,
                                                            seed=seed), id="trajectory"),
    pytest.param(lambda state, seed, cfg: w.mcwf_ensemble(seed, 2, state, flat_model(), 1.0,
                                                          cfg), id="ensemble"),
])
def test_negative_seed_rejected(run, monkeypatch):
    def no_steps(*args, **kwargs):
        raise AssertionError("stepped with a negative seed")

    monkeypatch.setattr("wpsim.mcwf._evolve", no_steps)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        run(excited_packet(), -1, w.RunConfig(dt=0.01, t_final=1.0))
    with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
        w.trajectory_rng(-3, 0)


def test_absorber_columns_hold_raw_losses():
    # populations are those of the normalized state, the absorber columns the
    # mask losses of the unnormalized state summed across jumps: the budget
    # p1 + p2 + absorbed_norm closes for propagate only
    g = w.make_grid(-8, 8, 128)
    state = w.gaussian_packet(g, 0.0, 0.7, 3.0, channel=2)
    cfg = w.RunConfig(dt=0.01, t_final=3.0, record_every=10,
                      absorber=w.AbsorberSpec(width=3.0, strength=50.0))
    det = w.propagate(state, flat_model(), cfg)
    assert np.allclose(det.p1 + det.p2 + det.absorbed_norm, 1.0, rtol=0, atol=1e-12)

    undamped, jumps = w.mcwf_trajectory(state, flat_model(), 0.0, cfg, seed=3)
    assert jumps == []
    assert np.allclose(undamped.p1 + undamped.p2, 1.0, rtol=0, atol=1e-15)
    for name in ("absorbed_norm", "absorbed_ch1", "absorbed_ch2"):
        assert np.array_equal(getattr(undamped, name), getattr(det, name))
    assert undamped.absorbed_norm[-1] > 0.4

    bench, _ = w.nojump_benchmark(state, flat_model(), 0.7, cfg)
    assert np.allclose(bench.p1 + bench.p2, 1.0, rtol=0, atol=1e-15)
    assert bench.absorbed_norm[-1] > 0.2

    traj, jumps = w.mcwf_trajectory(state, flat_model(), 0.7, cfg, seed=3)
    assert len(jumps) == 1
    assert np.allclose(traj.p1 + traj.p2, 1.0, rtol=0, atol=1e-15)
    # more than the whole initial norm: the loss after the jump restarts from norm 1
    assert traj.absorbed_norm[-1] > 1.1
    assert np.allclose(traj.absorbed_ch1 + traj.absorbed_ch2, traj.absorbed_norm,
                       rtol=0, atol=1e-15)


def test_trajectory_steps_and_transforms_are_visible_by_name(monkeypatch):
    # the benchmark tracer counts trajectory-steps through calls to
    # wpsim.mcwf.mcwf_trajectory and transforms through the names
    # wpsim.propagate.fft / ifft: an ensemble must call the one once per
    # trajectory, and a trajectory must transform through the others
    mcwf = importlib.import_module("wpsim.mcwf")
    prop = importlib.import_module("wpsim.propagate")
    trajectories, transforms = [], []

    def counted(fn, calls):
        def wrapper(*args, **kwargs):
            calls.append(fn)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(mcwf, "mcwf_trajectory", counted(mcwf.mcwf_trajectory, trajectories))
    cfg = w.RunConfig(dt=0.01, t_final=1.0, record_every=25)
    w.mcwf_ensemble(5, 3, excited_packet(), flat_model(), 1.0, cfg)
    assert len(trajectories) == 3

    monkeypatch.setattr(prop, "fft", counted(prop.fft, transforms))
    monkeypatch.setattr(prop, "ifft", counted(prop.ifft, transforms))
    w.mcwf_trajectory(excited_packet(), flat_model(), 1.0, cfg, seed=5)
    assert cfg.n_steps == 100
    assert len(transforms) >= 2 * cfg.n_steps


def test_ensemble_survival_matches_exponential():
    gamma, horizon = 1.0, 4.0
    state = excited_packet()
    cfg = w.RunConfig(dt=0.01, t_final=horizon, record_every=25)
    ens = w.mcwf_ensemble(2024, 400, state, flat_model(), gamma, cfg)
    theory = np.exp(-gamma * ens.times)
    dev = np.abs(ens.mean_p2 - theory)
    slack = 3 * ens.se_p2 + 1e-12
    assert np.all(dev <= slack)


def test_ensemble_error_scales_as_root_n():
    # the ensemble's error scale is its standard error; quadrupling n must
    # halve it (the survival test above pins the mean to the benchmark
    # within 3 of these standard errors, so the SE is the actual error)
    gamma, horizon = 1.0, 2.0
    state = excited_packet()
    cfg = w.RunConfig(dt=0.02, t_final=horizon, record_every=20)
    ens_small = w.mcwf_ensemble(31, 500, state, flat_model(), gamma, cfg)
    ens_big = w.mcwf_ensemble(77, 2000, state, flat_model(), gamma, cfg)
    mid = len(ens_small.times) // 2
    for idx in (mid, -1):
        ratio = ens_small.se_p2[idx] / ens_big.se_p2[idx]
        assert 1.4 <= ratio <= 2.6
    theory = np.exp(-gamma * ens_big.times)
    rms_small = np.sqrt(np.mean((ens_small.mean_p2 - theory) ** 2))
    rms_big = np.sqrt(np.mean((ens_big.mean_p2 - theory) ** 2))
    assert rms_big < rms_small  # more trajectories, closer to the benchmark


def test_decay_suppresses_pulsed_excitation():
    # spontaneous decay comparable to the pulse rate drags the excited
    # population below the decay-free curve at every recorded time
    g = w.make_grid(-8, 8, 64)
    state = w.gaussian_packet(g, 0.0, 0.7, channel=1)
    model = w.ModelSpec(
        u1=w.flat_potential(), u2_minus_omega=w.flat_potential(),
        pulse=w.gaussian_pulse(1.0, t_center=2.0, t_width=0.7),
    )
    cfg = w.RunConfig(dt=0.01, t_final=4.0, record_every=20)
    nodecay = w.propagate(state, model, cfg)
    nodecay_p2 = nodecay.p2 / (nodecay.p1 + nodecay.p2)
    ens = w.mcwf_ensemble(9, 150, state, model, 1.2, cfg)
    slack = 3 * ens.se_p2 + 1e-12
    assert np.all(ens.mean_p2 <= nodecay_p2 + slack)
    peak = np.argmax(nodecay_p2)
    assert ens.mean_p2[peak] < nodecay_p2[peak] - 0.1


def test_spectrum_peak_matches_nojump_oracle():
    # uncoupled excited packet on a slope: decay positions track the sliding
    # packet; the histogram peak must match the time-integrated density map
    g = w.make_grid(-30, 30, 256)
    state = w.gaussian_packet(g, 0.0, 1.0, channel=2)
    model = w.ModelSpec(
        u1=w.flat_potential(),
        u2_minus_omega=w.linear_potential(0.0, 1.0),
        pulse=w.constant_pulse(0.0),
    )
    cfg = w.RunConfig(dt=0.01, t_final=2.5, record_every=25)
    ens = w.mcwf_ensemble(41, 300, state, model, 1.5, cfg)
    spec = w.emission_spectrum(ens.jumps, model, n_bins=15)
    _, intensity = w.nojump_benchmark(state, model, 1.5, cfg)
    x_expected = g.x[np.argmax(intensity)]
    f_expected = w.difference_potential(model, float(x_expected))
    expected_bin = int(np.argmin(np.abs(spec.bin_centers - f_expected)))
    assert abs(spec.peak_bin() - expected_bin) <= 1

    spread = np.sqrt(np.average((spec.bin_centers - f_expected) ** 2,
                                weights=spec.counts))
    assert spread <= 3.0  # concentrated near the mapped packet position


def test_norm_never_increases_between_jumps():
    state = excited_packet()
    cfg = w.RunConfig(dt=0.01, t_final=2.0, record_every=1)
    traj, jumps = w.mcwf_trajectory(state, flat_model(0.4), 0.7, cfg, seed=3)
    # recorded populations are normalized; raw norm monotonicity shows up as
    # the final unnormalized state never exceeding unit norm
    assert w.norm(traj.final_state).total <= 1.0 + 1e-12


def test_damping_falls_once_per_step_before_the_boundary():
    # an uncoupled channel-2 packet loses exactly damp^2 = exp(-gamma dt) of
    # its norm per step: the boundary state after n steps holds exp(-gamma T),
    # and step j sees the population exp(-gamma j dt) of the j dampings
    # before it.  A damping one step early or late misses by about gamma dt
    gamma, dt, t_final = 1.0, 0.01, 2.0
    cfg = w.RunConfig(dt=dt, t_final=t_final, record_every=10)
    bench, intensity = w.nojump_benchmark(excited_packet(), flat_model(), gamma, cfg)
    assert w.norm(bench.final_state).total == pytest.approx(math.exp(-gamma * t_final),
                                                            rel=1e-12, abs=0)
    expected = gamma * dt * sum(math.exp(-gamma * j * dt) for j in range(cfg.n_steps))
    assert intensity.sum() * bench.grid.dx == pytest.approx(expected, rel=1e-12, abs=0)


def test_nojump_norm_that_underflows_is_a_named_error():
    # each step's damping e^-7 is a normal float, but e^-7t leaves the floats
    # near t = 106: the record at t = 110 has no population to normalize, and
    # dividing by it gave NaN populations and an invalid-value warning
    cfg = w.RunConfig(dt=1.0, t_final=120.0)
    with pytest.raises(w.DivergenceError, match=r"underflowed to 0 at record 11 \(t = 110\)"):
        w.nojump_benchmark(excited_packet(), flat_model(), 7.0, cfg)


def test_driven_ensemble_matches_bloch_oracle():
    # coupling and decay together: re-excitation after every jump, the
    # half-kick restart and the first-passage rule under coupling, against
    # the resonant solution of the optical Bloch equations
    v, gamma = 1.0, 1.0
    state = w.gaussian_packet(w.make_grid(-8.0, 8.0, 64), 0.0, 0.7, channel=1)
    cfg = w.RunConfig(dt=0.01, t_final=5.0, record_every=10)
    ens = w.mcwf_ensemble(11, 400, state, flat_model(v), gamma, cfg)
    theory = w.bloch_excited_population(v, gamma, ens.times)
    dev = np.abs(ens.mean_p2 - theory)
    # until the first jump every trajectory is the same no-jump state, so the
    # SE is zero and the mean misses only the jump branch, whose weight is
    # below one trajectory's share 1/n while no trajectory has taken it
    sampled = ens.times >= min(j.t_jump for j in ens.jumps)
    assert np.all(dev[sampled] <= 3 * ens.se_p2[sampled])
    assert np.all(dev[~sampled] < 1.0 / ens.n_trajectories)
    assert np.count_nonzero(sampled) >= len(ens.times) - 2
    assert len(ens.jumps) > 400


def pulsed_model():
    return w.ModelSpec(
        u1=w.harmonic_potential(), u2_minus_omega=w.linear_potential(1 / np.sqrt(2.0), 2.0),
        pulse=w.gaussian_pulse(1.5, 0.6, 0.3, chirp_rate=2.0),
    )


def _output_bytes(traj, extra):
    arrays = [traj.times, traj.p1, traj.p2, traj.mean_x1, traj.mean_x2, traj.var_x1,
              traj.var_x2, traj.survival, traj.absorbed_norm, traj.absorbed_ch1,
              traj.absorbed_ch2, traj.final_state.psi]
    for snap in traj.snapshots:
        arrays += [np.float64(snap.t), snap.density1, snap.density2]
    return b"".join(np.asarray(a).tobytes() for a in arrays) + repr(extra).encode()


# (model, absorber, record_every, snapshot_every): static and pulsed
# couplings, a mask, snapshots on record steps, every step and no step
# between the ends recorded, and snapshots off the record cadence, so that
# jumps and snapshot-only boundaries fall between stacked records
BLOCK_CASES = [
    (flat_model(0.8), None, 7, 14),
    (flat_model(0.8), w.AbsorberSpec(width=2.0, strength=80.0), 1, None),
    (pulsed_model(), w.AbsorberSpec(width=2.0, strength=80.0), 10**9, None),
    (pulsed_model(), None, 5, 10),
    (pulsed_model(), w.AbsorberSpec(width=2.0, strength=80.0), 7, 5),
]


def test_block_protocol_matches_one_step_blocks(monkeypatch):
    # the loop stacks up to _stack_depth(N) steps and records; with the size
    # constant at 1 every block is one step, settled in work, and every
    # record is taken at once.  Blocks cut by the horizon
    # (the default) must give the bytes and the transform count of one-step
    # blocks
    mcwf = importlib.import_module("wpsim.mcwf")
    prop = importlib.import_module("wpsim.propagate")
    state = excited_packet()
    assert prop._stack_depth(64) > 7
    settle = mcwf._Jumps.settle
    fired_at = []  # the length of every block whose last step fired

    def spy(self, block):
        fired = settle(self, block)
        if fired:
            fired_at.append(len(block))
        return fired

    monkeypatch.setattr(mcwf._Jumps, "settle", spy)
    modes = {"one": lambda mp: mp.setattr(prop, "_STACK_NODES", 1),
             "default": lambda mp: None}
    transforms = [0]

    def counted(fn):
        def wrapper(*args, **kwargs):
            transforms[-1] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(prop, "fft", counted(prop.fft))
    monkeypatch.setattr(prop, "ifft", counted(prop.ifft))
    for model, absorber, record_every, snapshot_every in BLOCK_CASES:
        cfg = w.RunConfig(dt=0.01, t_final=3.0, absorber=absorber,
                          record_every=record_every, snapshot_every=snapshot_every)
        runs = [(cfg, seed) for seed in range(4)]
        # the last step of a run fires: end a run at a jump of a longer one
        _, jumps = w.mcwf_trajectory(state, model, 3.0, cfg, seed=9)
        runs.append((replace(cfg, t_final=jumps[-1].t_jump), 9))
        for run_cfg, seed in runs:
            results = {}
            for mode, patch in modes.items():
                with monkeypatch.context() as mp:
                    patch(mp)
                    transforms.append(0)
                    traj, jumps = w.mcwf_trajectory(state, model, 3.0, run_cfg, seed=seed)
                    results[mode] = _output_bytes(traj, jumps)
            assert results["default"] == results["one"]
            assert transforms[-1] == transforms[-2]
        # the shortened run's last jump fired at its last step
        assert jumps[-1].t_jump == run_cfg.n_steps * run_cfg.dt
        for mode, patch in modes.items():
            with monkeypatch.context() as mp:
                patch(mp)
                traj, intensity = w.nojump_benchmark(state, model, 3.0, cfg)
                results[mode] = _output_bytes(traj, intensity.tobytes())
        assert results["default"] == results["one"]
    assert max(fired_at) > 1  # a jump fired at the last step of a longer block


def test_identity_rotation_is_skipped_with_the_same_bytes(monkeypatch):
    # flat surfaces at 0, V = 0 and no chirp make the 2x2 factor exactly
    # 1 + 0j at every node, and the rotator is None, so the loop skips it:
    # propagations and trajectories must give the bytes and the transform
    # count of the run whose rotator multiplies by rows of ones
    prop = importlib.import_module("wpsim.propagate")
    g = w.make_grid(-8, 8, 64)
    state = w.gaussian_packet(g, 1.0, 0.7, 2.0, channel=2)
    cfg = w.RunConfig(dt=0.01, t_final=3.0, record_every=7, snapshot_every=20,
                      absorber=w.AbsorberSpec(width=2.0, strength=50.0))
    rotator = prop._rotator
    assert rotator(g, flat_model(), cfg.dt) is None
    for model in (flat_model(0.3), w.ModelSpec(w.flat_potential(), w.flat_potential(1e-9),
                                               w.constant_pulse(0.0))):
        assert rotator(g, model, cfg.dt) is not None

    def multiplying(*args):
        assert rotator(*args) is None
        ones = np.ones((2, g.n_points), dtype=complex)
        return lambda psi, t: np.multiply(psi, ones, out=psi)

    transforms = [0]

    def counted(fn):
        def wrapper(*args, **kwargs):
            transforms[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def outputs():
        transforms[0] = 0
        out = [_output_bytes(w.propagate(state, flat_model(), cfg), None)]
        for seed in range(4):
            out.append(_output_bytes(*w.mcwf_trajectory(state, flat_model(), 1.0, cfg, seed=seed)))
        return out, transforms[0]

    monkeypatch.setattr(prop, "fft", counted(prop.fft))
    monkeypatch.setattr(prop, "ifft", counted(prop.ifft))
    skipped = outputs()
    monkeypatch.setattr(prop, "_rotator", multiplying)
    assert outputs() == skipped
    assert any(b"JumpRecord" in run for run in skipped[0][1:])  # a jump fired


def _settle_in_blocks(jumps, steps, cap):
    # feed the (S, 2, 2N) real rows of S steps to settle in blocks sized by
    # the horizon, at most cap steps; returns (firing step or None, survival,
    # the length of the firing block)
    i = 0
    while i < len(steps):
        size = jumps.horizon(min(len(steps) - i, cap))
        assert 1 <= size <= min(len(steps) - i, cap)
        fired = jumps.settle(steps[i:i + size])
        i += size
        if fired:
            return i - 1, jumps._survival, size
    return None, jumps._survival, None


def _synthetic_steps(rng, n_steps, n1_scale, n2_scale, n=16):
    # (S, 2, 2N) real rows whose channel populations are about n1_scale^2 N
    # and n2_scale^2 N
    psi = rng.normal(size=(n_steps, 2, n)) + 1j * rng.normal(size=(n_steps, 2, n))
    psi[:, 0] *= n1_scale
    psi[:, 1] *= n2_scale
    return psi.view(np.float64)


@pytest.mark.parametrize("gamma_dt", [0.05, 0.0, 1e-13, 700.0],
                         ids=["damped", "undamped", "near-1", "below-1e-300"])
@pytest.mark.parametrize("kind", ["n1-zero", "both", "n2-subnormal", "nan-row", "inf-row"])
def test_horizon_bounds_every_step_but_the_last(gamma_dt, kind):
    # settle driven with synthetic populations: blocks sized by the horizon
    # fire at the same step, with the same survival bits, as one-step
    # blocks, for targets exactly at and one ulp above the survival of a
    # step, so that a step fires only as the last of its block
    mcwf = importlib.import_module("wpsim.mcwf")
    rng = np.random.default_rng(sum(map(ord, kind)))
    n_steps = 400
    n1_scale = {"n1-zero": 0.0, "n2-subnormal": 0.0}.get(kind, 1.0)
    n2_scale = 1e-160 if kind == "n2-subnormal" else 1.0
    steps = _synthetic_steps(rng, n_steps, n1_scale, n2_scale)
    bad_row = 250
    if kind == "nan-row":
        steps[bad_row, 1, 3] = np.nan
    elif kind == "inf-row":
        steps[bad_row, 0, 5] = np.inf

    def fresh(target):
        jumps = mcwf._Jumps(None, gamma_dt, 1.0, np.random.default_rng(0), 0)
        jumps._target = target
        return jumps

    # the survival after each step, from one-step blocks that never fire
    survivals = []
    never = fresh(0.0)
    for k in range(n_steps):
        assert not never.settle(steps[k:k + 1])
        survivals.append(never._survival)
    longer_blocks = 0
    targets = [0.0, 0.5, 1.0, float(rng.random())]
    for k in (0, 1, 30, 31, 77, 249, 250, 399):
        targets += [survivals[k], np.nextafter(survivals[k], 2.0)]
    for target in targets:
        one = _settle_in_blocks(fresh(target), steps, 1)
        block = _settle_in_blocks(fresh(target), steps, 31)
        assert block[0] == one[0]
        assert np.float64(block[1]).tobytes() == np.float64(one[1]).tobytes()
    # blocks against the survivals above: the first step below the
    # target fires, for a target one ulp above every step's survival
    for target in np.nextafter(survivals, 2.0):
        fired, survival, size = _settle_in_blocks(fresh(target), steps, 31)
        expected = next((k for k, s in enumerate(survivals) if s < target), None)
        assert fired == expected
        if fired is not None:
            assert survival == survivals[fired]
            longer_blocks += size > 1
    if gamma_dt in (0.05, 1e-13) and kind in ("n1-zero", "both", "nan-row"):
        assert longer_blocks  # the horizon let a block run up to a firing step
    if kind == "inf-row":
        # an Inf row leaves a NaN survival, which fires at no later step
        assert math.isnan(survivals[bad_row]) and math.isnan(survivals[-1])
    if kind == "nan-row":
        assert survivals[bad_row] == survivals[bad_row - 1]


@pytest.mark.parametrize("gamma_dt", [0.05, 1e-13, 1e-6, 3.0, 700.0])
def test_no_ratio_of_normal_floats_reaches_the_floor(gamma_dt):
    # the clamp of the norm ratio at damp^2 (1 - 2^-50) moves no bit where
    # n1, n2 and damp^2 n2 are normal floats (n1 may be 0), while a floor of
    # damp^2 itself would clamp ratios with n1 = 0
    mcwf = importlib.import_module("wpsim.mcwf")
    jumps = mcwf._Jumps(None, gamma_dt, 1.0, np.random.default_rng(0), 0)
    damp2, floor = jumps._damp2, jumps._floor
    rng = np.random.default_rng(5)
    n2 = np.exp(rng.uniform(-300.0, 300.0, 200_000))
    n1 = np.where(rng.random(n2.size) < 0.5, 0.0, n2 * np.exp(rng.uniform(-40.0, 40.0, n2.size)))
    scaled = damp2 * n2
    tiny = np.finfo(float).tiny
    normal = (scaled >= tiny) & ((n1 == 0.0) | (n1 >= tiny)) & np.isfinite(n1 + n2)
    ratio = (n1 + scaled) / (n1 + n2)
    assert np.count_nonzero(normal) > n2.size // 4
    assert not np.any(ratio[normal] < floor)
    assert np.any(ratio[normal & (n1 == 0.0)] < damp2)
