"""Quantum-jump (Monte Carlo wave function) trajectories for spontaneous
decay from channel 2 into channel 1.

Between jumps the state evolves with the deterministic split-operator step
plus an amplitude damping factor D = exp(-gamma_sp dt / 2) on channel 2, so
its norm is non-increasing.  Trajectories and the no-jump benchmark both run
on the stepping loop of ``wpsim.propagate`` and hand it one object of its
block protocol: the damping factor, a horizon, ``settle`` and (for
trajectories) the jump.  The protocol is described once, in
``wpsim.propagate._evolve``: the loop folds D into the kinetic kicks (the
kinetic phase does not change a channel's norm, so the survival product is
the same as for a damping in position space), runs the steps in blocks, and
hands ``settle`` a block's amplitudes after the 2x2 rotation and the
absorber, before their D.  For a trajectory (``_Jumps``), one einsum gives
every step's channel populations n1, n2, and the survival advances through
the steps in order by the norm ratio (n1 + damp^2 n2) / (n1 + n2).  The
horizon ends a block at the first step that could fire, by a bound proven
in ``_Jumps.horizon``, so only a block's last step fires and ``settle``
says whether it did.  The jump gets the damped boundary amplitudes and
changes them in place.  The no-jump benchmark (``_Intensity``) never fires;
it adds each step's intensity in step order.

Jump times use the first-passage rule: a uniform target u is drawn at the
start and after every jump, and the jump fires at the first step where the
accumulated no-jump survival (the product of the per-step damping norm
ratios) drops below u.  This reproduces the exact waiting-time distribution
independent of dt; the jump instant is the step boundary, an O(dt)
quantization.  Absorbing-mask losses are excluded from the survival
product - absorbed flux has left the grid, it has not decayed.

At a jump the position is sampled from the normalized channel-2 density,
the channel-2 amplitude replaces channel 1 with its spatial profile intact
(position-resolved projective jump), channel 2 is cleared, and the state is
renormalized.

Recorded populations, survival and snapshot densities are those of the
*normalized* state (conditional moments do not depend on the norm), so
ensemble means estimate the open-system dynamics directly.  The absorber
columns (absorbed_norm, absorbed_ch1, absorbed_ch2) are not normalized:
they hold the cumulative mask losses of the unnormalized state (damped by
every step before the masking one), summed across jumps, each of which
restarts from norm 1.  So the budget p1 + p2 + absorbed_norm does not
close here (it closes only for ``propagate`` and ``step``), and
absorbed_norm can exceed 1.

Randomness comes from counter-based Philox generators.  Trajectory i of a
run with base seed b draws from SeedSequence(b, spawn_key=(i,)), a pure
function of (b, i), so ensembles are reproducible and order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral
from typing import Optional

# numpy loads numpy.random on first use of np.random; the runner's quantum-jump
# set-ups load it, so those runs pay for it in set-up, not in a trajectory
import numpy as np

from .grid import TwoChannelState, norm
from .model import ModelSpec
from .propagate import DivergenceError, RunConfig, Snapshot, Trajectory, _c_einsum, _evolve

__all__ = ["EnsembleResult", "JumpRecord", "mcwf_ensemble", "mcwf_trajectory", "nojump_benchmark",
           "trajectory_rng"]


@dataclass(frozen=True)
class JumpRecord:
    t_jump: float
    x_jump: float
    trajectory_id: int


@dataclass
class EnsembleResult:
    """Aggregated trajectories: means, standard errors (sample std / sqrt(n)), all jumps."""

    n_trajectories: int
    base_seed: int
    times: np.ndarray
    mean_p1: np.ndarray
    mean_p2: np.ndarray
    se_p1: np.ndarray
    se_p2: np.ndarray
    jumps: list


def trajectory_rng(base_seed: int, index: int) -> np.random.Generator:
    """The documented seed derivation: Philox keyed by SeedSequence(base, spawn_key=(index,)).

    Raises ValueError for a negative base seed.
    """
    if base_seed < 0:
        raise ValueError(f"seed must be >= 0, got {base_seed}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(base_seed, spawn_key=(index,))))


# the largest gamma_sp dt, 708.39..., whose exp(-gamma_sp dt) is a normal float:
# past it the damping underflows and a jump can find channel 2 empty; within
# it the floor clamp of ``_Jumps`` moves no bit
_MAX_GAMMA_DT = -float(np.log(np.finfo(float).tiny))


def _gamma_dt_violation(gamma_sp: float, dt: float) -> Optional[str]:
    """Why exp(-gamma_sp dt) cannot damp a step, or None if it can; the
    config parser reports the same text that ``_check_decay`` raises."""
    if gamma_sp * dt <= _MAX_GAMMA_DT:
        return None
    return (f"gamma_sp * dt = {gamma_sp * dt:g} must be at most {_MAX_GAMMA_DT:g}, "
            "where exp(-gamma_sp dt) leaves the normal floats")


def _check_decay(gamma_sp: float, cfg: RunConfig) -> None:
    # NaN fails every comparison, so one chain rejects it with negatives and inf
    if not 0.0 <= gamma_sp < np.inf:
        raise ValueError(f"gamma_sp must be >= 0 and finite, got {gamma_sp}")
    # a backward step would run the decay in reverse time
    if cfg.dt < 0.0:
        raise ValueError(f"dt must be positive for decay, got {cfg.dt}")
    violation = _gamma_dt_violation(gamma_sp, cfg.dt)
    if violation is not None:
        raise ValueError(violation)


def _normalised(traj: Trajectory, state: TwoChannelState) -> Trajectory:
    """Populations, survival and snapshot densities of the normalized state.

    The absorber columns are left as the loop recorded them, the raw losses
    of the unnormalized state, so p1 + p2 + absorbed_norm does not close.
    A record whose population is 0 has nothing to normalize: DivergenceError.
    """
    dx = state.grid.dx
    ref_norm = norm(state).total
    total = traj.p1 + traj.p2
    empty = np.flatnonzero(total == 0.0)
    if empty.size:
        k = int(empty[0])
        raise DivergenceError(f"the damped norm underflowed to 0 at record {k} "
                              f"(t = {traj.times[k]:g}): no populations to normalize")
    snapshots = []
    for snap in traj.snapshots:
        snap_total = (snap.density1.sum() + snap.density2.sum()) * dx
        snapshots.append(Snapshot(snap.t, snap.density1 / snap_total, snap.density2 / snap_total))
    return replace(
        traj,
        p1=traj.p1 / total,
        p2=traj.p2 / total,
        survival=traj.survival / (ref_norm * total),
        snapshots=snapshots,
    )


class _Jumps:
    """One trajectory's side of the block protocol of ``_evolve``: the
    channel-2 damping factor, the survival product and its target, and the
    jump records.

    Each step multiplies the survival by its norm ratio
    (n1 + damp^2 n2) / (n1 + n2), clamped below at the floor
    damp^2 (1 - 2^-50).  The clamp lets NaN through (an Inf state then
    raises DivergenceError at the next record instead of firing), and it
    moves no bit of a ratio computed from normal floats: rounded, such a
    ratio is at least damp^2 (1 - 4u), u = 2^-53, which is above the floor.
    A floor of damp^2 itself would not do: with n1 = 0 the rounded ratio
    fl(damp^2 n2) / n2 can sit one ulp below damp^2.
    """

    def __init__(self, grid, gamma_sp: float, dt: float, rng, trajectory_id: int):
        self.damp = np.exp(-0.5 * gamma_sp * dt)
        # Python floats: settle and horizon run per step on Python floats,
        # where numpy scalars would cost about twice as much
        damp = float(self.damp)
        self._damp2 = damp * damp
        self._floor = self._damp2 * (1.0 - 2.0**-50)
        self._grid, self._dt, self._rng, self._id = grid, dt, rng, trajectory_id
        self._survival = 1.0
        self._target = rng.random()
        self.records: list[JumpRecord] = []

    def horizon(self, cap: int) -> int:
        """The most steps, up to cap, that the next block may run such that
        none but its last fires.

        The survival after each step is the rounded product of the one
        before and a ratio of at least the floor (a step with no population
        leaves it as it was, and the floor is at most 1).  Rounding is
        monotone, so the survival multiplied by the floor k times, rounding
        each product the same way, is a lower bound on the survival after k
        steps.  The block ends at the first of these bounds that is below
        the target; every earlier step's survival is at least its bound,
        which is not below the target, so that step does not fire.  NaN
        never fires, and neither does target 0.
        """
        survival, target, floor = self._survival, self._target, self._floor
        for size in range(1, cap):
            survival *= floor
            if survival < target:
                return size
        return cap

    def settle(self, block: np.ndarray) -> bool:
        """Advance the survival through the block's steps, in step order, and
        return whether it dropped below the target at the last.  ``block``
        is the (m, 2, 2N) real view of the steps' amplitudes after the
        rotation and the mask, which the step's damping has not reached."""
        survival, damp2, floor = self._survival, self._damp2, self._floor
        for n1, n2 in _c_einsum("kcj,kcj->kc", block, block).tolist():
            # decay damping, tracked separately from absorber losses: the norm
            # ratio follows from the channel populations before the damping
            before = n1 + n2
            if before > 0.0:
                ratio = (n1 + damp2 * n2) / before
                survival *= floor if ratio < floor else ratio
        self._survival = survival
        return survival < self._target

    def jump(self, i: int, psi: np.ndarray) -> None:
        """Jump after step i fired: psi, the boundary amplitudes, changes in place."""
        dens2 = np.abs(psi[1]) ** 2 * self._grid.dx
        p2r = dens2.sum()
        if p2r <= 0.0:
            raise DivergenceError(f"jump fired with empty channel 2 at step {i + 1}")
        x_jump = float(self._rng.choice(self._grid.x, p=dens2 / p2r))
        self.records.append(JumpRecord((i + 1) * self._dt, x_jump, self._id))
        self._survival = 1.0
        self._target = self._rng.random()
        psi[0] = psi[1] / np.sqrt(p2r)
        psi[1] = 0.0


class _Intensity:
    """``nojump_benchmark``'s side of the block protocol of ``_evolve``: no
    step fires, and each step's channel-2 amplitudes before its damping add
    gamma_sp |psi2|^2 dt to the intensity, in step order."""

    def __init__(self, gamma_sp: float, dt: float, n_points: int):
        self.damp = np.exp(-0.5 * gamma_sp * dt)
        self._gamma_sp, self._dt = gamma_sp, dt
        self.intensity = np.zeros(n_points)

    def horizon(self, cap: int) -> int:
        return cap

    def settle(self, block: np.ndarray) -> bool:
        for row in block.view(complex)[:, 1]:
            self.intensity += self._gamma_sp * np.abs(row) ** 2 * self._dt
        return False


def mcwf_trajectory(
    state: TwoChannelState,
    model: ModelSpec,
    gamma_sp: float,
    cfg: RunConfig,
    seed: int,
    trajectory_id: int = 0,
) -> tuple[Trajectory, list[JumpRecord]]:
    """One stochastic trajectory; deterministic given (seed, trajectory_id).

    With gamma_sp = 0 the recorded populations coincide with the
    deterministic propagation and no jumps occur.  p1, p2 and survival are
    those of the normalized state; absorbed_norm, absorbed_ch1 and
    absorbed_ch2 are the raw mask losses of the unnormalized state, summed
    across jumps, so p1 + p2 + absorbed_norm is not conserved (it is for
    ``propagate`` and ``step``).  A negative seed raises ValueError before
    any step.
    """
    _check_decay(gamma_sp, cfg)
    jumps = _Jumps(state.grid, gamma_sp, cfg.dt, trajectory_rng(seed, trajectory_id),
                   trajectory_id)
    traj = _evolve(state, model, cfg, decay=jumps)
    return _normalised(traj, state), jumps.records


def nojump_benchmark(
    state: TwoChannelState, model: ModelSpec, gamma_sp: float, cfg: RunConfig
) -> tuple[Trajectory, np.ndarray]:
    """Deterministic damped evolution with jumps disabled.

    Returns the trajectory (normalized like ``mcwf_trajectory``, comparable
    to ensemble means in the single-decay regime; its absorber columns are,
    as there, the raw mask losses of the damped state, so p1 + p2 +
    absorbed_norm is not conserved) and the accumulated
    unnormalized jump intensity gamma_sp * |psi2(x, t)|^2 dt summed over
    steps - the expected density of first-jump positions on the grid.

    Raises DivergenceError if the damped norm underflows to 0 (a long run
    that starts with everything in channel 2), naming the first record
    that has no population left to normalize.
    """
    _check_decay(gamma_sp, cfg)
    decay = _Intensity(gamma_sp, cfg.dt, state.grid.n_points)
    traj = _evolve(state, model, cfg, decay=decay)
    return _normalised(traj, state), decay.intensity


def mcwf_ensemble(
    base_seed: int,
    n: int,
    state: TwoChannelState,
    model: ModelSpec,
    gamma_sp: float,
    cfg: RunConfig,
) -> EnsembleResult:
    """n independent trajectories with seeds derived from (base_seed, index).

    Aggregation stacks the per-trajectory series in index order, so the
    result does not depend on execution order.  A negative base_seed raises
    ValueError before any step.
    """
    # a float count would fail later, in range(); numpy integers are Integral
    if not isinstance(n, Integral) or n < 2:
        raise ValueError(f"ensemble needs an integer n >= 2 trajectories, got {n!r}")
    all_p1 = []
    all_p2 = []
    jumps: list[JumpRecord] = []
    times = None
    for i in range(n):
        traj, traj_jumps = mcwf_trajectory(
            state, model, gamma_sp, cfg, seed=base_seed, trajectory_id=i
        )
        if times is None:
            times = traj.times
        all_p1.append(traj.p1)
        all_p2.append(traj.p2)
        jumps.extend(traj_jumps)
    p1 = np.vstack(all_p1)
    p2 = np.vstack(all_p2)
    root_n = np.sqrt(n)
    return EnsembleResult(
        n_trajectories=n,
        base_seed=base_seed,
        times=times,
        mean_p1=p1.mean(axis=0),
        mean_p2=p2.mean(axis=0),
        se_p1=p1.std(axis=0, ddof=1) / root_n,
        se_p2=p2.std(axis=0, ddof=1) / root_n,
        jumps=jumps,
    )
