"""Potential surfaces, laser pulse envelopes, chirp, and crossing geometry.

A ModelSpec fixes the Hamiltonian of the coupled two-channel problem in the
rotating frame: the laser frequency is already folded into the channel-2
surface, which is therefore specified as "u2 minus omega" everywhere.  A
linear chirp enters as a time-dependent additive energy offset on channel 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .grid import Grid

__all__ = ["CrossingResult", "ModelSpec", "NoCrossingError", "PotentialSpec", "PulseSpec",
           "constant_pulse", "crossing_point", "difference_potential", "flat_potential",
           "gaussian_pulse", "harmonic_potential", "linear_potential", "potential_on_grid",
           "potential_value", "pulse_value", "tabulated_potential"]


class NoCrossingError(ValueError):
    """The two surfaces do not cross inside the search domain."""


@dataclass(frozen=True)
class PotentialSpec:
    """One surface: harmonic (x^2/2), linear (offset - slope*x), or tabulated."""

    kind: str  # "harmonic" | "linear" | "tabulated"
    offset: float = 0.0
    slope: float = 0.0
    grid: Optional[Grid] = None
    values: Optional[np.ndarray] = None


def harmonic_potential() -> PotentialSpec:
    return PotentialSpec(kind="harmonic")


def _check_finite(**values) -> None:
    for name, value in values.items():
        # NaN fails every comparison, so this rejects it with +-inf
        if not abs(value) < np.inf:
            raise ValueError(f"{name} must be finite, got {value}")


def linear_potential(offset: float, slope_alpha: float) -> PotentialSpec:
    """U(x) = offset - slope_alpha * x; slope_alpha > 0 tilts down toward +x."""
    _check_finite(offset=offset, slope_alpha=slope_alpha)
    return PotentialSpec(kind="linear", offset=float(offset), slope=float(slope_alpha))


def flat_potential(offset: float = 0.0) -> PotentialSpec:
    return linear_potential(offset, 0.0)


def tabulated_potential(grid: Grid, values: np.ndarray) -> PotentialSpec:
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n_points,):
        raise ValueError("tabulated values must match the grid")
    if not np.all(np.isfinite(values)):
        raise ValueError("tabulated potential must be finite at every node")
    return PotentialSpec(kind="tabulated", grid=grid, values=values)


def potential_value(spec: PotentialSpec, x):
    """Evaluate the surface at x (scalar or array).

    Tabulated surfaces interpolate linearly between nodes and reject points
    outside [x_min, last node].
    """
    x = np.asarray(x, dtype=float)
    if spec.kind == "harmonic":
        out = 0.5 * x**2
    elif spec.kind == "linear":
        out = spec.offset - spec.slope * x
    elif spec.kind == "tabulated":
        lo, hi = spec.grid.x[0], spec.grid.x[-1]
        if np.any(x < lo) or np.any(x > hi):
            raise ValueError(f"x outside tabulated domain [{lo}, {hi}]")
        out = np.interp(x, spec.grid.x, spec.values)
    else:
        raise ValueError(f"unknown potential kind {spec.kind!r}")
    return float(out) if out.ndim == 0 else out


def potential_on_grid(spec: PotentialSpec, grid: Grid) -> np.ndarray:
    """Sample the surface on every grid node."""
    if spec.kind == "tabulated" and spec.grid == grid:
        return spec.values.copy()
    return np.asarray(potential_value(spec, grid.x), dtype=float)


@dataclass(frozen=True)
class PulseSpec:
    """Coupling envelope V(t) plus a linear chirp of the channel-2 offset.

    Envelope conventions:
      constant:  V(t) = v0
      gaussian:  V(t) = v0 * exp(-(t - t_center)^2 / (2 t_width^2))
    The chirp adds chirp_rate * (t - t_center) to the channel-2 energy at
    propagation time.
    """

    envelope: str  # "constant" | "gaussian"
    v0: float
    t_center: float = 0.0
    t_width: float = 1.0
    chirp_rate: float = 0.0


def constant_pulse(v0: float, chirp_rate: float = 0.0, t_center: float = 0.0) -> PulseSpec:
    if not 0.0 <= v0 < np.inf:
        raise ValueError(f"v0 must be >= 0 and finite, got {v0}")
    _check_finite(chirp_rate=chirp_rate, t_center=t_center)
    return PulseSpec("constant", float(v0), t_center=float(t_center), chirp_rate=float(chirp_rate))


def gaussian_pulse(
    v0: float, t_center: float, t_width: float, chirp_rate: float = 0.0
) -> PulseSpec:
    if not 0.0 <= v0 < np.inf:
        raise ValueError(f"v0 must be >= 0 and finite, got {v0}")
    if not 0.0 < t_width < np.inf:
        raise ValueError(f"t_width must be positive and finite, got {t_width}")
    # 2 t_width^2 divides in pulse_value: it must neither overflow nor underflow
    spread = 2.0 * t_width * t_width
    if not np.finfo(float).tiny <= spread < np.inf:
        raise ValueError(f"t_width = {t_width!r} is out of range: 2 t_width^2 = {spread!r} "
                         "is not a normal float")
    _check_finite(t_center=t_center, chirp_rate=chirp_rate)
    return PulseSpec("gaussian", float(v0), float(t_center), float(t_width), float(chirp_rate))


class PulseValue(NamedTuple):
    v: float
    delta_omega: float


def pulse_value(pulse: PulseSpec, t: float) -> PulseValue:
    """Coupling strength and chirp offset at time t."""
    if pulse.envelope == "constant":
        v = pulse.v0
    elif pulse.envelope == "gaussian":
        v = pulse.v0 * np.exp(-((t - pulse.t_center) ** 2) / (2.0 * pulse.t_width**2))
    else:
        raise ValueError(f"unknown envelope {pulse.envelope!r}")
    return PulseValue(float(v), float(pulse.chirp_rate * (t - pulse.t_center)))


@dataclass(frozen=True)
class ModelSpec:
    """The two surfaces (channel 2 already shifted by the laser frequency) and the pulse."""

    u1: PotentialSpec
    u2_minus_omega: PotentialSpec
    pulse: PulseSpec


class CrossingResult(NamedTuple):
    position: float
    count: int


def crossing_point(
    model: ModelSpec,
    x_min: float,
    x_max: float,
    level: Optional[float] = None,
    n_scan: int = 4096,
) -> CrossingResult:
    """Root of U2 - omega - U1 on [x_min, x_max] by bracketed bisection.

    With ``level`` given, the lower surface is replaced by that flat energy,
    so the root is where the shifted channel-2 surface crosses a bound-state
    level rather than the channel-1 curve.  If several roots exist the one
    nearest x = 0 is returned together with the total count; an exact tie is
    broken toward the leftmost root.
    """
    def f_at(x):
        u = potential_value(model.u2_minus_omega, x)
        r = level if level is not None else potential_value(model.u1, x)
        return u - r

    xs = np.linspace(x_min, x_max, n_scan + 1)
    f = f_at(xs)

    # only the intervals that start on a root or bracket one enter the loop
    left, right = f[:-1], f[1:]
    roots = []
    for i in np.flatnonzero((left == 0.0) | (left * right < 0.0)).tolist():
        a, b, fa = xs[i], xs[i + 1], f[i]
        if fa == 0.0:
            roots.append(a)
            continue
        for _ in range(100):
            m = 0.5 * (a + b)
            if m == a or m == b:  # adjacent doubles: no later midpoint moves a or b
                break
            fm = f_at(m)
            if fm == 0.0:
                a = b = m
                break
            if fa * fm < 0.0:
                b = m
            else:
                a, fa = m, fm
        roots.append(0.5 * (a + b))
    if f[-1] == 0.0:
        roots.append(xs[-1])
    if not roots:
        raise NoCrossingError("surfaces do not cross on the given domain")
    roots = np.asarray(roots)
    best = int(np.argmin(np.abs(roots)))
    return CrossingResult(float(roots[best]), len(roots))


def difference_potential(model: ModelSpec, x):
    """U2(x) - U1(x) up to the constant laser frequency.

    This maps a position to the central frequency (in the rotating frame) of
    a photon emitted there, so it converts jump positions into a spectrum.
    """
    u2 = potential_value(model.u2_minus_omega, x)
    u1 = potential_value(model.u1, x)
    return u2 - u1
