"""Split-operator time evolution of a two-channel state.

Each step is a symmetric (Strang) splitting:

    half kinetic  ->  exact pointwise 2x2 potential+coupling  ->  absorber  ->  half kinetic

The kinetic factor exp(-i k^2 dt/2) uses the exact discrete-transform
dispersion; the 2x2 factor is the closed-form unitary exp(-i dt H(x)) with
H(x) = [[u1, V], [V, u2 + delta_omega]], evaluated with the coupling and
chirp at the half-step midpoint.  A static coupling's complex factors are
built once.  A pulsed step applies the same exact closed form in place: its
per-node coefficients come from real arithmetic in preallocated buffers,
around a mean phase built once and a scalar chirp phase, with no complex
exponential per step.  The scheme is unconditionally stable and
second-order accurate in dt for time-dependent pulses.

Step-size guidance: keep dt * |U| <= 0.05 over the region where the state
has support and dt * k_occ^2 <= 0.5 for the largest momentum k_occ the
packet actually reaches (the absorber caps k_occ by removing accelerated
flux before it wraps).

An optional absorbing mask multiplies both channels in position space,
right after the 2x2 rotation.  Its edge profile is cos(pi/2 * s)^(1/8)
(s ramping 0 -> 1 across the zone), raised to the power strength*dt so that
the attenuation per unit time is independent of the step size; without that
scaling the absorber has no dt -> 0 limit and timestep-refinement studies
are meaningless.  The kinetic phases are unitary, so the norm the mask
removes, summed per channel, still closes the budget p1 + p2 + absorbed = 1.

One loop, ``_evolve``, runs every multi-step evolution on the state's (2, N)
array.  Adjacent half-kinetic phases of successive steps fuse into one full
phase exp(-i k^2 dt) (Feit, Fleck & Steiger, J. Comput. Phys. 47, 412,
1982), so n steps run as K/2 (R D M) K (R D M) ... K (R D M) K/2 with one
forward and one inverse transform per step.  The state at a step boundary
is built only where something reads it: a record, a snapshot or the final
step finishes the pending half kick on a copy (one extra inverse
transform), so the evolved state does not depend on record_every.
``propagate`` calls the loop bare, ``step`` runs it as a one-step run from
time t, and the quantum-jump trajectories of ``wpsim.mcwf`` call it with a
channel-2 damping hook D (in position space, between the rotation and the
absorber) and a jump hook, which sees the boundary state only when it
fires; the step after a jump restarts with a half kick.  Each record also
checks that both channel populations are finite, so NaN or Inf amplitudes
raise DivergenceError.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from ._fft import fft, ifft
from .grid import Grid, TwoChannelState, norm, overlap
from .model import ModelSpec, potential_on_grid, pulse_value
from .observables import _moments

_EPS = np.finfo(float).eps


class DivergenceError(RuntimeError):
    """Non-finite (NaN or Inf) population detected during propagation."""


@dataclass(frozen=True)
class AbsorberSpec:
    """Edge mask: zone width (each side) and attenuation rate (per unit time)."""

    width: float
    strength: float = 1000.0


@dataclass(frozen=True)
class RunConfig:
    """Numerical policy for one propagation.

    dt may be negative for backward evolution; t_final is the horizon
    magnitude.  record_every / snapshot_every count steps; snapshot_every
    None disables snapshots.
    """

    dt: float
    t_final: float
    absorber: Optional[AbsorberSpec] = None
    record_every: int = 10
    snapshot_every: Optional[int] = None

    def __post_init__(self):
        if self.dt == 0.0:
            raise ValueError("dt must be nonzero")
        if self.t_final < abs(self.dt):
            raise ValueError("t_final must cover at least one step")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1 or None")

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
    With an absorber, p1 + p2 + absorbed_norm is conserved.
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
    parametrization; unitary to machine precision for any finite inputs.
    """
    u1, u2 = np.array([float(u1)]), np.array([float(u2)])
    a11, a12, a22 = (complex(a[0]) for a in _coupling_factors(u1, u2, float(v), float(dt)))
    return np.array([[a11, a12], [a12, a22]])


def _cos_sinc(omega: np.ndarray, dt: float, c: np.ndarray, s: np.ndarray):
    """cos(omega dt) into c and sin(omega dt)/omega into s, exactly dt at omega = 0.

    The bits are those of np.cos(omega * dt) and np.sinc(omega * dt / pi) * dt,
    computed without temporaries; omega is overwritten.
    """
    np.multiply(omega, dt, out=c)
    y = np.divide(c, np.pi, out=omega)
    y *= np.pi  # np.sinc's argument, pi * (omega dt / pi)
    y[y == 0.0] = _EPS  # sin(eps)/eps is exactly 1
    np.sin(y, out=s)
    s /= y
    s *= dt
    np.cos(c, out=c)
    return c, s


def _coupling_factors(u1, u2, v, dt):
    """Entries (a11, a12, a22) of exp(-i dt [[u1, v], [v, u2]]), vectorized over x."""
    mean = 0.5 * (u1 + u2)
    half = 0.5 * (u1 - u2)
    omega = np.sqrt(half * half + v * v)
    phase = np.exp(-1j * mean * dt)
    cos, sinc = _cos_sinc(omega, dt, np.empty_like(omega), np.empty_like(omega))
    a11 = phase * (cos - 1j * sinc * half)
    a12 = phase * (-1j * sinc * v)
    a22 = phase * (cos + 1j * sinc * half)
    return a11, a12, a22


def absorber_profile(grid: Grid, absorber: AbsorberSpec) -> np.ndarray:
    """cos^(1/8) edge profile: 1 in the interior, dipping to ~0 at both boundaries."""
    if not 0.0 < absorber.width < 0.5 * grid.length:
        raise ValueError("absorber width must be positive and below half the grid extent")
    prof = np.ones(grid.n_points)
    left = grid.x < grid.x_min + absorber.width
    right = grid.x > grid.x_max - absorber.width
    s_left = (grid.x_min + absorber.width - grid.x[left]) / absorber.width
    s_right = (grid.x[right] - (grid.x_max - absorber.width)) / absorber.width
    prof[left] = np.cos(0.5 * np.pi * s_left) ** 0.125
    prof[right] = np.cos(0.5 * np.pi * s_right) ** 0.125
    return prof


def absorber_mask(grid: Grid, absorber: AbsorberSpec, dt: float) -> np.ndarray:
    """Per-step multiplier profile**(strength*|dt|)."""
    return absorber_profile(grid, absorber) ** (absorber.strength * abs(dt))


def apply_absorber(state: TwoChannelState, mask: np.ndarray) -> tuple[TwoChannelState, float]:
    """Multiply both channels by the mask; returns (state, removed norm >= 0)."""
    before = norm(state).total
    out = TwoChannelState(state.grid, state.psi * mask)
    return out, before - norm(out).total


class _Stepper:
    """Precomputed factors for repeated steps of one (grid, model, cfg) triple.

    ``rotate`` applies the exact 2x2 factor in place.  A static coupling
    (constant pulse, no chirp) keeps the three complex factors, built once.
    A pulsed coupling keeps the mean phase P0 = exp(-i (u1 + u2)/2 dt) and
    the half-difference (u1 - u2)/2; each step takes v and the chirp offset
    d at the midpoint and, in preallocated real buffers, h = half - d/2,
    omega = sqrt(h^2 + v^2), c = cos(omega dt) and s = sin(omega dt)/omega,
    then rotates psi1' = P (c psi1 - i s (h psi1 + v psi2)),
    psi2' = P (c psi2 + i s (h psi2 - v psi1)) with P = P0 exp(-i d dt/2),
    the chirp part a scalar.
    """

    def __init__(self, grid: Grid, model: ModelSpec, cfg: RunConfig):
        self.model = model
        self.dt = cfg.dt
        u1 = potential_on_grid(model.u1, grid)
        u2 = potential_on_grid(model.u2_minus_omega, grid)
        self.kin_half = np.exp(-1j * grid.k**2 * (0.5 * self.dt))
        self.kin = np.exp(-1j * grid.k**2 * self.dt)
        self.mask = absorber_mask(grid, cfg.absorber, cfg.dt) if cfg.absorber else None
        pulse = model.pulse
        if pulse.envelope == "constant" and pulse.chirp_rate == 0.0:
            self._factors = _coupling_factors(u1, u2, pulse.v0, self.dt)
            self.rotate = self._rotate_static
        else:
            self._phase = np.exp(-1j * (0.5 * (u1 + u2)) * self.dt)
            self._half = 0.5 * (u1 - u2)
            self._h, self._omega, self._c, self._s = np.empty((4, grid.n_points))
            self._diag = np.empty((2, grid.n_points), dtype=complex)
            self._off = np.zeros(grid.n_points, dtype=complex)
            self._cross = np.empty((2, grid.n_points), dtype=complex)
            self.rotate = self._rotate_pulsed

    def _rotate_static(self, psi: np.ndarray, t: float) -> None:
        a11, a12, a22 = self._factors
        psi1, psi2 = psi
        cross = a12 * psi1
        psi1 *= a11
        psi1 += a12 * psi2
        psi2 *= a22
        psi2 += cross

    def _rotate_pulsed(self, psi: np.ndarray, t: float) -> None:
        v, d_omega = pulse_value(self.model.pulse, t + 0.5 * self.dt)
        h, omega = self._h, self._omega
        np.subtract(self._half, 0.5 * d_omega, out=h)
        np.multiply(h, h, out=omega)
        omega += v * v
        np.sqrt(omega, out=omega)
        c, s = _cos_sinc(omega, self.dt, self._c, self._s)
        # the rows of diag are c - i s h and c + i s h, off is -i s v; complex
        # products are cheaper in numpy than mixed complex-by-real ones
        diag, off, cross = self._diag, self._off, self._cross
        diag.real = c
        np.multiply(s, h, out=diag[1].imag)
        np.negative(diag[1].imag, out=diag[0].imag)
        np.multiply(s, -v, out=off.imag)
        np.multiply(psi[::-1], off, out=cross)
        psi *= diag
        psi += cross
        psi *= self._phase
        if d_omega != 0.0:
            psi *= np.exp(-0.5j * d_omega * self.dt)


def step(state: TwoChannelState, model: ModelSpec, t: float, cfg: RunConfig) -> TwoChannelState:
    """One full step from time t, including the absorber if configured."""
    one = replace(cfg, t_final=abs(cfg.dt), snapshot_every=None)
    return _evolve(state, model, one, t0=t).final_state


def _evolve(
    state: TwoChannelState, model: ModelSpec, cfg: RunConfig, damp=None, jump=None,
    t0: float = 0.0,
) -> Trajectory:
    """The stepping loop shared by ``propagate``, ``step`` and the quantum-jump
    trajectories.

    n steps run as K/2 (R D M) K (R D M) ... K (R D M) K/2: a step is the
    full kinetic kick K (a half kick K/2 after the start or a jump), then
    in position space the rotation R, ``damp(psi)`` (D) and the absorber M
    with its per-channel loss bookkeeping, then the forward transform.  The
    chain keeps the spectral amplitudes ``f``, half a kick short of the step
    boundary; records and snapshots finish that half kick on a copy.  After
    each step ``jump(i, boundary)`` may call ``boundary()`` for the boundary
    amplitudes, change them in place and return them, and the chain restarts
    from that state; it returns None otherwise.  Records hold raw
    populations; a non-finite population at any record (the final step is
    always recorded) raises DivergenceError.  Step i rotates with the pulse
    of the step from t0 + i dt; recorded times count from the start.
    """
    grid = state.grid
    stepper = _Stepper(grid, model, cfg)
    psi = state.psi.astype(np.complex128, copy=True)
    ref = TwoChannelState(grid, psi.copy())

    n_steps = cfg.n_steps
    rows = []
    snapshots = []
    removed = 0.0
    lost = np.zeros(2)  # absorber losses per channel
    dx = grid.dx
    f = None  # None while psi is the boundary state the next step starts from

    def boundary():
        return ifft(stepper.kin_half * f, overwrite_x=True)

    for i in range(n_steps + 1):
        record = i % cfg.record_every == 0 or i == n_steps
        snap = cfg.snapshot_every is not None and i % cfg.snapshot_every == 0
        if f is not None and (record or snap):
            psi = boundary()
        if record:
            p1, mx1, vx1 = _moments(grid.x, dx, psi[0])
            p2, mx2, vx2 = _moments(grid.x, dx, psi[1])
            # populations are non-negative, so the sum is finite iff both are
            if not np.isfinite(p1 + p2):
                raise DivergenceError(f"non-finite population at step {i}")
            survival = abs(overlap(ref, TwoChannelState(grid, psi))) ** 2
            rows.append((i * cfg.dt, p1, p2, mx1, mx2, vx1, vx2, survival,
                         removed, lost[0], lost[1]))
        if snap:
            snapshots.append(Snapshot(i * cfg.dt, *np.abs(psi) ** 2))
        if i == n_steps:
            break
        kick = stepper.kin_half * fft(psi) if f is None else stepper.kin * f
        mid = ifft(kick, overwrite_x=True)
        stepper.rotate(mid, t0 + i * cfg.dt)
        if damp is not None:
            damp(mid)
        if stepper.mask is not None:
            before = np.sum(np.abs(mid) ** 2, axis=-1) * dx
            mid *= stepper.mask
            d = before - np.sum(np.abs(mid) ** 2, axis=-1) * dx
            lost += d
            removed += d[0] + d[1]
        f = fft(mid)
        if jump is not None:
            jumped = jump(i, boundary)
            if jumped is not None:
                psi, f = jumped, None

    # record columns are in Trajectory field order, times through absorbed_ch2
    columns = [np.asarray(column) for column in zip(*rows)]
    return Trajectory(grid, *columns, snapshots=snapshots,
                      final_state=TwoChannelState(grid, psi))


def propagate(state: TwoChannelState, model: ModelSpec, cfg: RunConfig) -> Trajectory:
    """Evolve from t = 0 through n_steps = round(t_final/|dt|) steps.

    Populations and moments are recorded at step 0, every record_every
    steps, and at the final step; snapshots follow snapshot_every.  The run
    is deterministic: identical inputs give identical bits.
    """
    return _evolve(state, model, cfg)
