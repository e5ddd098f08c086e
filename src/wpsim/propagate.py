"""Split-operator time evolution of a two-channel state.

Each step is a symmetric (Strang) splitting:

    half kinetic  ->  exact pointwise 2x2 potential+coupling  ->  absorber  ->  half kinetic

The kinetic factor exp(-i k^2 dt/2) uses the exact discrete-transform
dispersion; the 2x2 factor is the closed-form unitary exp(-i dt H(x)) with
H(x) = [[u1, V], [V, u2 + delta_omega]], evaluated with the coupling and
chirp at the half-step midpoint.  One closed form builds the factor's rows
in real arithmetic, into preallocated buffers: once for a static coupling,
and at every step for a pulsed one (its mean phase built once, its chirp
phase a scalar).  One in-place update applies them.  The scheme is
unconditionally stable and second-order accurate in dt for time-dependent
pulses.

Step-size guidance: keep dt * |U| <= 0.05 over the region where the state
has support and dt * k_occ^2 <= 0.5 for the largest momentum k_occ the
packet actually reaches (the absorber caps k_occ by removing accelerated
flux before it wraps).

An optional absorbing mask multiplies both channels in position space,
right after the 2x2 rotation.  Its edge profile is cos(pi/2 * s)^(1/8)
(s ramping 0 -> 1 across the zone), raised to the power strength*dt so that
the attenuation per unit time is independent of the step size; without that
scaling the absorber has no dt -> 0 limit and timestep-refinement studies
are meaningless.  The mask is exactly 1 outside the two edge zones, so only
the zone nodes are multiplied, and the norm it removes is summed directly as
sum |psi|^2 (1 - mask^2) dx per channel over the zones, not as a difference
of two full-grid norms.  The kinetic phases are unitary, so that loss still
closes the budget p1 + p2 + absorbed = 1.  Both zones of both channels go
in one pass, on one view of the step's row (see ``_absorber``).  The
per-node factors the state is multiplied by (the kinetic phases, the pulsed
rotation's mean phase) are stored as two full (2, N) rows: numpy's
same-shape product of contiguous arrays runs 1.5-2x faster than a broadcast
of one (N,) row at N = 64 to 2048.  Every 2x2 factor takes the full update
(see ``_rotator``); with V^2 = 0 its cross term adds zeros, and a static
factor that is exactly 1 (both surfaces 0, V = 0, no chirp) is skipped.
The absorber's loss and the MCWF damping's populations are reductions by
numpy's compiled einsum kernel, bound once as ``_c_einsum``: ``np.einsum``
without ``optimize`` ends in the same call (same bits), after a Python
wrapper and the array-function dispatch.

One loop, ``_evolve``, runs every multi-step evolution on the state's (2, N)
array.  Adjacent half-kinetic phases of successive steps fuse into one full
phase exp(-i k^2 dt) (Feit, Fleck & Steiger, J. Comput. Phys. 47, 412,
1982), so n steps run as K/2 (R M) K (R M) ... K (R M) K/2 with one
forward and one inverse transform per step.  The state at a step boundary
is built only where something reads it: a record, a snapshot, a jump or the
final step finishes the pending half kick into a row of the record stack
(one extra inverse transform), so the evolved state does not depend on
record_every.
``propagate`` calls the loop bare, ``step`` runs it as a one-step run from
time t, and the quantum-jump trajectories of ``wpsim.mcwf`` pass it their
side of the block protocol, which carries the channel-2 damping D in the
kicks: with decay the chain is K/2 (R M) DK (R M) ... DK (R M) DK/2.  The
loop runs from one event (a record, a snapshot, the end) to the next, with
every call a step makes decided and bound once per run.  The block
protocol, how steps run in blocks and records in stacks, and where a
non-finite population raises DivergenceError, are described once, in
``_evolve``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from numbers import Integral
from typing import NamedTuple, Optional

import numpy as np
from numpy._core.multiarray import c_einsum as _c_einsum
from numpy.lib.stride_tricks import sliding_window_view

from ._fft import fft, ifft
from .grid import Grid, TwoChannelState
from .model import ModelSpec, potential_on_grid, pulse_value
from .observables import _moments

__all__ = ["AbsorberSpec", "DivergenceError", "RunConfig", "Snapshot", "Trajectory",
           "absorber_mask", "absorber_profile", "apply_absorber", "coupling_step", "propagate",
           "step"]


# Steps and records stack while the state is small: up to _STACK_NODES // N of
# them (31 at N = 64), and from N = 1024 on one at a time (a stack of one
# row).  Stacking several records cost 4-6% of a run at N = 2048.  Against
# depth 1, in one process with paired runs (flat V = 0 trajectories at gamma
# dt = 0.01 with a record every 25 steps, and harmonic V = 0.5 propagations
# with one every 10, no absorber, dx = 0.25), depth 1 ran 1.34x / 1.12x as
# long at N = 64, 1.28x / 1.09x at N = 128 (depth 15), 1.17x / 1.05x at
# N = 256 (depth 7) and 1.10-1.15x / 0.99-1.02x at N = 512 (depth 3), where
# unchanged code read 0.99-1.00x at N = 1024.
_STACK_NODES = 2047
# a stacked record whose summed squares times dx are not below this is taken
# at once: NaN and Inf amplitudes reach it, and so do populations near overflow
_SUSPECT = 1e300


def _stack_depth(n_points: int) -> int:
    """How many steps a block, and how many records a stack, holds at most."""
    return max(1, _STACK_NODES // n_points)


class DivergenceError(RuntimeError):
    """Propagation broke down: a non-finite (NaN or Inf) population, or a
    damped quantum-jump norm that underflowed to 0."""


@dataclass(frozen=True)
class AbsorberSpec:
    """Edge mask: zone width (each side) and attenuation rate (per unit time).

    The width must be positive and the strength non-negative, both finite; a
    negative strength would amplify the edges instead of absorbing.

    Working band of the preset mask (width 6, strength 1000, dt = 0.001): a
    free packet (sigma = 4) with mean momentum k0 >= 4 is absorbed, leaving
    below 1e-4 of its norm outside the zones after its centre's round trip
    to the zone edge (5.0e-6 at k0 = 4, 1.7e-8 at 8, 1.1e-10 at 16); slower
    flux is partly reflected (1.7e-2 at k0 = 2).
    """

    width: float
    strength: float = 1000.0

    def __post_init__(self):
        # NaN fails every comparison, so each chain also rejects it
        if not 0.0 < self.width < np.inf:
            raise ValueError(f"absorber width must be positive and finite, got {self.width}")
        if not 0.0 <= self.strength < np.inf:
            raise ValueError(f"absorber strength must be >= 0 and finite, got {self.strength}")


@dataclass(frozen=True)
class RunConfig:
    """Numerical policy for one propagation.

    dt may be negative for backward evolution (not in the quantum-jump
    entry points of ``wpsim.mcwf``, which decay forward); t_final is the
    horizon magnitude, rounded to n_steps = round(t_final/|dt|) whole steps,
    so the run covers n_steps |dt| = |Trajectory.times[-1]|.  record_every /
    snapshot_every count steps; snapshot_every None disables snapshots.
    """

    dt: float
    t_final: float
    absorber: Optional[AbsorberSpec] = None
    record_every: int = 10
    snapshot_every: Optional[int] = None

    def __post_init__(self):
        if not np.isfinite(self.dt) or self.dt == 0.0:
            raise ValueError(f"dt must be nonzero and finite, got {self.dt}")
        if not np.isfinite(self.t_final):
            raise ValueError(f"t_final must be finite, got {self.t_final}")
        if self.t_final < abs(self.dt):
            raise ValueError("t_final must cover at least one step")
        if not math.isfinite(self.t_final / abs(self.dt)):
            raise ValueError(f"t_final / |dt| overflows: too many steps of dt = {self.dt!r}")
        # a float cadence would fail later, in range(); numpy integers are Integral
        if not isinstance(self.record_every, Integral) or self.record_every < 1:
            raise ValueError(f"record_every must be an integer >= 1, got {self.record_every!r}")
        if self.snapshot_every is not None and (
                not isinstance(self.snapshot_every, Integral) or self.snapshot_every < 1):
            raise ValueError(
                f"snapshot_every must be an integer >= 1 or None, got {self.snapshot_every!r}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / abs(self.dt)))


class Snapshot(NamedTuple):
    t: float
    density1: np.ndarray
    density2: np.ndarray


@dataclass
class Trajectory:
    """Recorded series from one propagation.

    Populations are plain Riemann sums; per-channel means/variances are
    conditioned on the channel population and NaN while the channel holds
    less than 1e-12 probability.  ``survival`` is |<state(0)|state(t)>|^2.
    ``absorbed_norm`` is the cumulative norm the absorbing mask removed,
    ``absorbed_ch1``/``absorbed_ch2`` its per-channel parts.  For ``propagate``
    and ``step`` the budget p1 + p2 + absorbed_norm is conserved; it does not
    close for the normalised results of ``wpsim.mcwf`` (see there).
    """

    grid: Grid
    times: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    mean_x1: np.ndarray
    mean_x2: np.ndarray
    var_x1: np.ndarray
    var_x2: np.ndarray
    survival: np.ndarray
    absorbed_norm: np.ndarray
    absorbed_ch1: np.ndarray
    absorbed_ch2: np.ndarray
    snapshots: list = field(default_factory=list)
    final_state: Optional[TwoChannelState] = None


def coupling_step(u1: float, u2: float, v: float, dt: float) -> np.ndarray:
    """Exact 2x2 unitary exp(-i dt [[u1, v], [v, u2]]).

    Closed form through the mean / half-difference / flopping-frequency
    parametrization; unitary to machine precision over its input range:
    finite u1, u2, v and dt for which (u1 + u2) dt / 2, h^2 + v^2 with
    h = (u1 - u2) / 2, and omega dt with omega = sqrt(h^2 + v^2) are finite
    floats, so |v| and |u1 - u2| / 2 up to about 1e154.  Outside it, and for
    a NaN or infinite input, it raises ValueError naming the inputs.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rot = _Rotation(np.array([float(u1)]), np.array([float(u2)]), float(dt))
        rot.fill(float(v))
        rot.fold_phase()
    u = np.array([[rot.diag[0, 0], rot.off[0]], [rot.off[0], rot.diag[1, 0]]])
    if not (np.isfinite((u1, u2, v, dt)).all() and np.isfinite(u).all()):
        raise ValueError(f"coupling_step has no finite unitary for u1 = {u1!r}, u2 = {u2!r}, "
                         f"v = {v!r}, dt = {dt!r}: the inputs, (u1 + u2) dt / 2, h^2 + v^2 "
                         "and omega dt must be finite")
    return u


def _full_rows(row: np.ndarray) -> np.ndarray:
    """A per-node factor as two equal rows, the (2, N) shape of the state (see
    the module docstring for why)."""
    return np.stack((row, row))


class _Rotation:
    """Rows of the exact 2x2 factor at every node, from one closed form.

    exp(-i dt [[u1, v], [v, u2 + d]]) = P0 exp(-i d dt/2) [[c - i s h, -i s v],
    [-i s v, c + i s h]] with P0 = exp(-i (u1 + u2)/2 dt), h = (u1 - u2 - d)/2,
    omega = sqrt(h^2 + v^2), c = cos(omega dt) and s = sin(omega dt)/omega.
    ``fill`` writes the rows diag and off through the real and imaginary views
    of preallocated complex arrays (numpy multiplies complex by complex arrays
    faster than by real ones); ``fold_phase`` multiplies P0 into them.  P0 is
    kept as two equal rows, the shape of diag and of the state.  ``diagonal``
    records that the last ``fill`` had v^2 = 0, so that off is exactly 0.
    """

    def __init__(self, u1: np.ndarray, u2: np.ndarray, dt: float):
        self.dt = dt
        self.phase = _full_rows(np.exp(-1j * (0.5 * (u1 + u2)) * dt))
        self._half = 0.5 * (u1 - u2)
        self._h, self._omega, self._c, self._s = np.empty((4, len(u1)))
        self.diag = np.empty((2, len(u1)), dtype=complex)
        self.off = np.zeros(len(u1), dtype=complex)

    def fill(self, v: float, d_omega: float = 0.0) -> None:
        h, omega, c, s = self._h, self._omega, self._c, self._s
        sh = self.diag[1].imag
        np.subtract(self._half, 0.5 * d_omega, out=h)
        self.diagonal = v * v == 0.0
        if self.diagonal:
            # diagonal: s h = sin(h dt).  Testing v * v, not v, keeps the
            # divide below off omega = 0, which a nonzero v whose square
            # underflows would give at h = 0
            np.multiply(h, self.dt, out=c)
            np.sin(c, out=sh)
            self.off.imag = 0.0
        else:
            np.multiply(h, h, out=omega)
            omega += v * v
            np.sqrt(omega, out=omega)
            np.multiply(omega, self.dt, out=c)
            np.sin(c, out=s)
            s /= omega
            np.multiply(s, h, out=sh)
            np.multiply(s, -v, out=self.off.imag)
        np.cos(c, out=c)
        self.diag.real = c
        np.negative(sh, out=self.diag[0].imag)

    def fold_phase(self) -> None:
        self.diag *= self.phase
        self.off *= self.phase[0]


def _absorber_zones(grid: Grid, absorber: AbsorberSpec) -> tuple[slice, slice]:
    """The edge zones x < x_min + width and x > x_max - width: a prefix and a
    suffix of the ascending nodes."""
    if not 0.0 < absorber.width < 0.5 * grid.length:
        raise ValueError("absorber width must be positive and below half the grid extent")
    n_left = int(np.count_nonzero(grid.x < grid.x_min + absorber.width))
    n_right = int(np.count_nonzero(grid.x > grid.x_max - absorber.width))
    return slice(0, n_left), slice(grid.n_points - n_right, grid.n_points)


def absorber_profile(grid: Grid, absorber: AbsorberSpec) -> np.ndarray:
    """cos^(1/8) edge profile: 1 in the interior, dipping to ~0 at both boundaries."""
    left, right = _absorber_zones(grid, absorber)
    prof = np.ones(grid.n_points)
    # x_min + width - x_min can round above width, so s can exceed 1 by an
    # ulp at the first node, where the cosine would turn negative (NaN profile)
    s_left = np.minimum((grid.x_min + absorber.width - grid.x[left]) / absorber.width, 1.0)
    s_right = (grid.x[right] - (grid.x_max - absorber.width)) / absorber.width
    prof[left] = np.cos(0.5 * np.pi * s_left) ** 0.125
    prof[right] = np.cos(0.5 * np.pi * s_right) ** 0.125
    return prof


def absorber_mask(grid: Grid, absorber: AbsorberSpec, dt: float) -> np.ndarray:
    """Per-step multiplier profile**(strength*|dt|)."""
    return absorber_profile(grid, absorber) ** (absorber.strength * abs(dt))


def _loss_weights(mask: np.ndarray, dx: float) -> np.ndarray:
    """(1 - mask^2) dx per node, repeated for the real and imaginary parts."""
    return np.repeat((1.0 - mask * mask) * dx, 2, axis=-1)


def _edge_windows(rows: np.ndarray, length: int, right_start: int, writeable: bool = False):
    """The windows [0, length) and [right_start, right_start + length) of each
    row, as one (..., edge, length) view of ``rows``."""
    windows = sliding_window_view(rows, length, axis=-1, writeable=writeable)
    return windows[..., ::right_start, :]


def _masked_loss(psi: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Norm per channel that the mask removes from psi, sum |psi|^2 (1 - mask^2) dx,
    summed directly over the real view of psi with ``_loss_weights``."""
    flat = psi.view(np.float64)
    return np.einsum("cj,cj,j->c", flat, flat, weights)


def apply_absorber(state: TwoChannelState, mask: np.ndarray) -> tuple[TwoChannelState, float]:
    """Multiply both channels by the mask; returns (state, removed norm >= 0)."""
    psi = np.ascontiguousarray(state.psi, dtype=np.complex128)
    removed = _masked_loss(psi, _loss_weights(mask, state.grid.dx)).sum()
    return TwoChannelState(state.grid, psi * mask), float(removed)


def _rotator(grid: Grid, model: ModelSpec, dt: float):
    """``rotate(psi, t)``, the 2x2 factor of the step from t applied in place
    to a (2, N) array, psi' = diag psi + off psi[::-1] with the rows of one
    ``_Rotation``; or None where that factor is exactly 1 + 0j at every node
    (both surfaces 0, V = 0, no chirp), as multiplying by it would change at
    most the sign of an exact zero.

    A static coupling (constant pulse, no chirp) fills the rows once, with
    P0 folded in, and ``rotate`` is the update alone.  A pulsed step refills
    them at its midpoint, then applies P0 and, for a chirp offset d != 0,
    the scalar exp(-i d dt/2).
    """
    rot = _Rotation(potential_on_grid(model.u1, grid),
                    potential_on_grid(model.u2_minus_omega, grid), dt)
    diag, off, phase = rot.diag, rot.off, rot.phase
    cross = np.empty_like(diag)
    multiply = np.multiply

    def update(psi: np.ndarray, t: float) -> None:
        multiply(off, psi[::-1], cross)
        psi *= diag
        psi += cross

    pulse = model.pulse
    if pulse.envelope == "constant" and pulse.chirp_rate == 0.0:
        rot.fill(pulse.v0)
        rot.fold_phase()
        return None if rot.diagonal and np.all(diag == 1.0) else update

    def rotate(psi: np.ndarray, t: float) -> None:
        v, d_omega = pulse_value(pulse, t + 0.5 * dt)
        rot.fill(v, d_omega)
        update(psi, t)
        psi *= phase
        if d_omega != 0.0:
            psi *= np.exp(-0.5j * d_omega * dt)
    return rotate


def _check_pulse(model: ModelSpec, cfg: RunConfig, t0: float = 0.0) -> None:
    """ValueError if ``pulse_value`` cannot evaluate the pulse at the midpoint
    t of a step from t0: a Gaussian envelope squares t - t_center, which
    overflows as a float past about 1.3e154.  |t - t_center| is largest at
    the first or the last midpoint, computed here as ``_evolve`` computes
    them, so those two decide for every step."""
    pulse = model.pulse
    if pulse.envelope != "gaussian":
        return
    dt = cfg.dt
    for t in (t0 + 0.5 * dt, (t0 + (cfg.n_steps - 1) * dt) + 0.5 * dt):
        try:
            (t - pulse.t_center) ** 2
        except OverflowError:
            raise ValueError(f"t_center = {pulse.t_center:g} is too far from the step "
                             f"midpoint t = {t:g}: the Gaussian pulse's (t - t_center)^2 "
                             "overflows") from None


def _absorber(grid: Grid, cfg: RunConfig, stack: np.ndarray):
    """``absorb(r)``, the mask applied in place to row r of ``stack``, a
    (depth, 2, N) array, returning the norm removed per channel, left zone
    plus right zone; or None without an absorber.

    Both edge zones of both channels go in one pass, through one
    (channel, edge, L) view of row r, built once for every row from one view
    of the whole stack, with L the longer zone's node count (the left
    zone's, by one node, as x_min is a node and x_max is not).  The view
    holds the windows [0, L) and [N - L, N) of each channel: the right zone
    with interior nodes before it, where the mask is exactly 1 and the loss
    weight exactly 0.
    """
    if cfg.absorber is None:
        return None
    n = grid.n_points
    left, right = _absorber_zones(grid, cfg.absorber)
    length = max(left.stop, right.stop - right.start)
    edges = list(_edge_windows(stack, length, n - length, writeable=True))
    flats = [edge.view(np.float64) for edge in edges]
    edge_mask = _edge_windows(absorber_mask(grid, cfg.absorber, cfg.dt), length, n - length)
    weights = _loss_weights(edge_mask, grid.dx)
    edge_mask = edge_mask.astype(complex)  # complex by complex is faster

    def absorb(r: int) -> tuple[float, float]:
        flat, edge = flats[r], edges[r]
        (left1, right1), (left2, right2) = _c_einsum("czj,czj,zj->cz", flat, flat, weights).tolist()
        edge *= edge_mask
        return left1 + right1, left2 + right2
    return absorb


def step(state: TwoChannelState, model: ModelSpec, t: float, cfg: RunConfig) -> TwoChannelState:
    """One full step from time t, including the absorber if configured.

    Each call builds the step's factors afresh (kinetic phases, 2x2 rows,
    absorber mask), so a loop of ``step`` calls costs 9-18x the same steps
    inside one ``propagate`` (N = 64 to 1024); loop with ``propagate``.
    """
    one = replace(cfg, t_final=abs(cfg.dt), snapshot_every=None)
    return _evolve(state, model, one, t0=t).final_state


def _evolve(
    state: TwoChannelState, model: ModelSpec, cfg: RunConfig, decay=None, t0: float = 0.0,
) -> Trajectory:
    """The stepping loop shared by ``propagate``, ``step`` and the quantum-jump
    trajectories.

    n steps run as K/2 (R M) K (R M) ... K (R M) K/2: a step is the full
    kinetic kick K (a half kick K/2 after the start or a jump), then in
    position space the rotation R and the absorber M on the edge zones with
    its per-channel loss bookkeeping, then the forward transform.  The chain
    keeps the spectral amplitudes in ``spec``, half a kick short of the step
    boundary; records, snapshots and jumps finish that half kick.  The
    transforms allocate no full-grid temporary: the kick multiplies into the
    step's row of ``stack``, a (depth, 2, N) array described below (a
    boundary's half kick into the row of ``held`` described after it), the
    inverse transform runs in place there (its buffer passed as ``out``),
    and the forward transform reads that row into ``spec``.  The losses add
    up as Python floats, per channel left zone plus right zone, then the
    channel sum, in step order.

    The loop runs from event to event.  An event is a step boundary where a
    record, a snapshot or the end falls; the steps between two events run
    in blocks, each an inner loop with no record or snapshot test.  What a step
    calls is bound once per run: ``fft`` and ``ifft`` (read from this
    module's globals at the call, so that a wrapper put there sees every
    transform), the kinetic rows, ``np.multiply``, and the ``rotate`` of
    ``_rotator`` and the ``absorb`` of ``_absorber``, each decided once at
    set-up: a step runs the kick, the inverse transform, ``rotate`` unless
    the factor is exactly 1, ``absorb`` if there is a mask, and the forward
    transform.

    ``decay``, if given, is the quantum-jump side of the block protocol,
    described here once (``wpsim.mcwf`` implements it for a trajectory and
    for the no-jump benchmark): ``damp``, the factor D on channel 2;
    ``horizon(cap)``, how many steps from 1 to cap the next block may run,
    such that no step but the block's last can fire; ``settle(block)``,
    which reads the amplitudes of a block's m steps after R and M, before
    their D, in step order, as the (m, 2, 2N) real view of an (m, 2, N)
    complex array, and returns whether a jump fires at the block's last
    step; and ``jump(i, psi)``, called after step i fired with the boundary
    amplitudes psi (a row of ``held``): it changes them in place, and the
    chain restarts from that state with a half kick.  D, a scalar on each
    channel, commutes with K and M, so it is folded into the kinetic rows,
    built once per run: every full kick after the first multiplies by
    [K, D K], and every boundary (record, snapshot, final state, jump) by
    [K/2, D K/2], so that the boundary state holds its last step's damping;
    the first kick after the start or a jump stays the plain K/2.  Each
    step's D thus acts on the spectral amplitudes of the next kick, after
    ``settle`` has read that step's rows.

    Blocks: with ``decay`` the steps between two events run in blocks of at
    most ``_stack_depth(N)`` steps and at most ``horizon`` of them, one step
    to a row in the last rows of ``stack``, the block's last step in its
    last row.  Each step runs its kick, inverse transform, rotation and
    absorber in its own row, the absorber through that row's edge view (see
    ``_absorber``), and the forward transform reads the row, which keeps the
    step's amplitudes after R and M.  The absorber losses add up in step
    order.  After the block's last step ``settle`` reads the block's rows;
    if that step fired, ``jump`` follows.  Where the depth is one
    (N >= 1024) every block is one step, in the one row.  Without ``decay``
    every step runs in the last row and a block runs to the next event.

    A record takes |psi|^2 of both channels through ``_moments`` and the
    survival overlap as one reduction against the conjugated initial
    state.  Up to depth records wait, their boundary states in the rows of
    ``held``, a (depth, 2, N) array, and their step and loss counters in
    ``marks``; they take those two calls together on the first len(marks)
    rows, each row keeping its bits.  Every boundary state is built in the
    next free row, held[len(marks)]: the initial state is written into
    held[0], so the state at a record already sits in the row it takes, and
    no record copies it.  A snapshot-only or jump boundary leaves its row
    free, for the next record to overwrite.  At depth one (N >= 1024) every
    record is taken at once.  Records hold raw populations.  A non-finite
    population at any record (the final step is always recorded) raises
    DivergenceError naming that record's step, before another step runs: a
    held record whose summed squares times dx are not below ``_SUSPECT``
    (NaN or Inf amplitudes, or populations near overflow) is taken at
    once.  The loop, and the set-up of its factors, run with numpy's invalid
    and overflow warnings off, so that this error is the one report of a
    non-finite state.  Step i rotates with the pulse of the step from
    t0 + i dt; recorded times count from the start.  A Gaussian pulse too
    far from those times for ``pulse_value`` raises ValueError before any
    step (see ``_check_pulse``).
    """
    _check_pulse(model, cfg, t0)
    grid = state.grid
    depth = _stack_depth(grid.n_points)
    # the rows the steps run in: with decay each step of a block in its own,
    # otherwise every step in the last
    stack = np.zeros((depth, 2, grid.n_points), dtype=complex)
    # the boundary states of the records not yet taken, one row each; the
    # next boundary state is built in the next free row
    held = np.empty((depth, 2, grid.n_points), dtype=complex)
    psi = held[0]
    psi[...] = state.psi
    ref_conj = np.conj(psi)

    n_steps = cfg.n_steps
    rows = []
    snapshots = []
    removed = lost1 = lost2 = 0.0  # absorber losses: both channels, channel 1, channel 2
    spec = np.empty_like(psi)
    pending = False  # True while spec holds the state half a kick short of the boundary
    fired = False  # whether the last block's last step fired, set by every block's settle

    forward, inverse = fft, ifft  # the module globals, once per call
    multiply = np.multiply
    slots = list(stack)
    record_every, snapshot_every, dt, dx = cfg.record_every, cfg.snapshot_every, cfg.dt, grid.dx
    x_rows = _full_rows(grid.x)
    decaying = decay is not None
    marks = []  # (step, removed, lost1, lost2) of the records not yet taken

    def boundary():
        return inverse(multiply(kin_out, spec, held[len(marks)]), held[len(marks)])

    def take():
        # the records in marks, whose boundary states are the first rows of held
        states = held[:len(marks)]
        pops, means, variances = _moments(x_rows, dx, states)
        overlaps = np.add.reduce(ref_conj * states, axis=-1).ravel().tolist()
        for r, (i, *lost) in enumerate(marks):
            pair = slice(2 * r, 2 * r + 2)
            # populations are non-negative, so the sum is finite iff both are
            if not math.isfinite(pops[2 * r] + pops[2 * r + 1]):
                raise DivergenceError(f"non-finite population at step {i}")
            survival = abs((overlaps[2 * r] + overlaps[2 * r + 1]) * dx) ** 2
            rows.append((i * dt, *pops[pair], *means[pair], *variances[pair], survival, *lost))
        marks.clear()

    i = 0
    with np.errstate(invalid="ignore", over="ignore"):
        # the factors are built under the loop's error state: non-finite rows
        # (a coupling whose square overflows) surface as DivergenceError
        kin_half = _full_rows(np.exp(-1j * grid.k**2 * (0.5 * dt)))
        kin_full = _full_rows(np.exp(-1j * grid.k**2 * dt))
        kin_out = kin_half  # the half kick that finishes a step at a boundary
        if decaying:
            # D commutes with K and M, so channel 2's rows carry it: every full
            # kick and every boundary, but not the first kick after the start
            # or a jump
            damp_col = np.array([[1.0], [decay.damp]])
            kin_full, kin_out = kin_full * damp_col, kin_half * damp_col
            horizon, settle = decay.horizon, decay.settle
            stack_real = stack.view(np.float64)
            blocks = [stack_real[depth - m:] for m in range(depth + 1)]  # the last m slots
        rotate = _rotator(grid, model, dt)
        absorb = _absorber(grid, cfg, stack)
        while True:
            record = i % record_every == 0 or i == n_steps
            snap = snapshot_every is not None and i % snapshot_every == 0
            if pending and (record or snap):
                psi = boundary()
            if record:
                # psi is held[len(marks)], the row this record takes
                marks.append((i, removed, lost1, lost2))
                flat = psi.view(np.float64)
                if (len(marks) == depth or i == n_steps
                        or not _c_einsum("cj,cj->", flat, flat) * dx < _SUSPECT):
                    take()
            if snap:
                snapshots.append(Snapshot(i * dt, *np.abs(psi) ** 2))
            if i == n_steps:
                break
            stop = min(n_steps, i - i % record_every + record_every)
            if snapshot_every is not None:
                stop = min(stop, i - i % snapshot_every + snapshot_every)
            if pending:
                kin = kin_full
            else:
                forward(psi, out=spec)
                kin, pending = kin_half, True
            while i < stop:
                end = i + horizon(min(stop - i, depth)) if decaying else stop
                for j in range(i, end):
                    # with decay a block's steps run in the stack's last rows,
                    # its last step in the last; otherwise every step runs there
                    r = j - end if decaying else -1
                    buf = slots[r]
                    # ufunc outputs are passed by position, which numpy parses faster
                    inverse(multiply(kin, spec, buf), buf)
                    if rotate is not None:
                        rotate(buf, t0 + j * dt)
                    kin = kin_full
                    if absorb is not None:
                        d1, d2 = absorb(r)
                        removed, lost1, lost2 = removed + (d1 + d2), lost1 + d1, lost2 + d2
                    forward(buf, out=spec)
                if decaying:
                    fired = settle(blocks[end - i])
                i = end
                if fired:
                    psi, pending = boundary(), False
                    decay.jump(i - 1, psi)
                    break

    # record columns are in Trajectory field order, times through absorbed_ch2;
    # the final state gets its own array, so that it does not keep held alive
    columns = [np.asarray(column) for column in zip(*rows)]
    return Trajectory(grid, *columns, snapshots=snapshots,
                      final_state=TwoChannelState(grid, psi.copy()))


def propagate(state: TwoChannelState, model: ModelSpec, cfg: RunConfig) -> Trajectory:
    """Evolve from t = 0 through n_steps = round(t_final/|dt|) steps.

    Populations and moments are recorded at step 0, every record_every
    steps, and at the final step; snapshots follow snapshot_every.  The run
    is deterministic: identical inputs give identical bits.
    """
    return _evolve(state, model, cfg)
