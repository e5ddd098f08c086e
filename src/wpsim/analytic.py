"""Closed-form reference models the grid propagation must reproduce.

Decay of the harmonic ground level into the linear-slope continuum follows
the Weisskopf-Wigner golden rule

    rate = 2 pi V^2 |S|^2,

with S the Franck-Condon overlap between the bound state and the
energy-normalized continuum eigenstate at the resonant energy 1/sqrt(2).
For the slope U(x) = 1/sqrt(2) - alpha*x those eigenstates are Airy
functions; delta-normalization in energy fixes them as

    chi_eps(x) = alpha^(-1/6) Ai(alpha^(1/3) (x_eps - x)),   x_eps = (1/sqrt(2) - eps)/alpha,

so |S|^2 carries 1/energy units and the rate is a pure number.  With
Ai(z) = (1/2 pi) int exp(i (t^3/3 + z t)) dt, the overlap with the bound
Gaussian is the Gaussian's transform, a Fourier integral in numpy alone
(Vallee & Soares, Airy Functions and Applications to Physics, 2004):

    S = sqrt(rho0) alpha^(-1/6) sqrt(2 sqrt(2) pi) / pi * int_0^inf cos(t^3/3) exp(-a t^2) dt,

with a = alpha^(2/3) / sqrt(2) and rho0 = |phi0(0)|^2.  ``condon_factor``
integrates it on a line shifted off the real axis, where the integrand is
a Gaussian at every slope.  The golden rule is written once, in
``ww_rate_condon``, which takes |S|^2 from either method of
``condon_factor``; the steep-slope (reflection) limit |S|^2 -> rho0 / alpha
is the one that ``coupling_for_rate`` inverts.

Landau-Zener transit through a linear crossing at speed v keeps the packet
on its initial diabatic channel with probability exp(-2 pi V^2 / (|dF| v));
the sweep rate of the energy gap is v * |dF| and the packet velocity is
twice its mean momentum (mass 1/2 units).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GROUND_STATE_PEAK_DENSITY

__all__ = ["CondonFactor", "QuadratureError", "bloch_excited_population", "condon_factor",
           "coupling_for_rate", "lz_probability", "rabi_population", "survival_probability",
           "ww_rate_condon"]


# the largest magnitude a closed form here squares: its square, 1e300, leaves
# room for the factors and sums it enters, so no step overflows
_MAX_SQUARED = 1e150


def _squarable(value: float, name: str) -> float:
    """value, or ValueError naming it when its magnitude is above ``_MAX_SQUARED``
    (a Python float's ``**`` raises OverflowError past about 1.3e154)."""
    if not abs(value) <= _MAX_SQUARED:
        raise ValueError(f"{name} must be at most {_MAX_SQUARED:g} in magnitude, got {value}")
    return value


class QuadratureError(RuntimeError):
    """Condon-factor quadrature failed to converge."""


@dataclass(frozen=True)
class CondonFactor:
    magnitude_sq: float  # 1/energy units (energy-normalized continuum)
    method: str  # "reflection" | "quadrature"


def condon_factor(alpha: float, method: str = "quadrature") -> CondonFactor:
    """|S|^2 between the bound Gaussian and the resonant continuum state.

    reflection: the steep-slope limit |phi0(0)|^2 / alpha, exact as
    alpha -> infinity.  quadrature: the Fourier form of the overlap (module
    docstring), int_0^inf cos(t^3/3) exp(-a t^2) dt = 1/2 int_R exp(f(t)) dt
    with f(t) = i t^3/3 - a t^2.  On the real axis cos(t^3/3) must be resolved
    out to t ~ sqrt(40/a), so the node count would grow like 1/alpha.  f is
    entire and exp(f) vanishes at both ends of the strip 0 <= Im t <= c, so
    moving the line to t = u + ic is exact (Cauchy).  There
    |exp(f)| = exp(c^3/3 + a c^2 - (a + c) u^2), a Gaussian in u whose
    prefactor stays below e^(1/3) for c = 1/(1 + a), so nothing cancels; and
    f(-u + ic) is the conjugate of f(u + ic), so the integral is
    int_0^inf Re exp(f(u + ic)) du over an even integrand.  The trapezoid
    rule on [0, sqrt(40/(a + c))] then converges exponentially with the
    node count (Trefethen & Weideman, SIAM Rev. 56, 385, 2014).  Starting at
    64 intervals it doubles them until successive |S|^2 differ by at most
    1e-14 relative, and raises QuadratureError past 2^20.
    """
    if not 0.0 < alpha < np.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if method == "reflection":
        return CondonFactor(GROUND_STATE_PEAK_DENSITY / alpha, "reflection")
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")

    a = np.sqrt(0.5) * alpha ** (2.0 / 3.0)
    c = 1.0 / (1.0 + a)
    span = np.sqrt(40.0 / (a + c))  # |exp(f)| < e^(1/3 - 40) beyond u = span
    scale = (np.sqrt(GROUND_STATE_PEAK_DENSITY) * alpha ** (-1.0 / 6.0)
             * np.sqrt(2.0 * np.sqrt(2.0) * np.pi) / np.pi)
    prev = None
    n = 64
    while n <= (1 << 20):
        t = np.linspace(0.0, span, n + 1) + 1j * c
        s = scale * np.trapezoid(np.exp(1j * t**3 / 3.0 - a * t**2).real, dx=span / n)
        mag_sq = float(s * s)
        if prev is not None and abs(mag_sq - prev) <= 1e-14 * mag_sq:
            return CondonFactor(mag_sq, "quadrature")
        prev = mag_sq
        n <<= 1
    raise QuadratureError("Condon-factor quadrature did not converge")


def ww_rate_condon(v: float, s: CondonFactor) -> float:
    """Golden-rule decay rate 2 pi V^2 |S|^2."""
    if not 0.0 <= v < np.inf:
        raise ValueError(f"coupling v must be >= 0 and finite, got {v}")
    rate = 2.0 * np.pi * _squarable(v, "coupling v")**2 * s.magnitude_sq
    if not rate < np.inf:
        raise ValueError(f"rate overflows for coupling v = {v} and |S|^2 = {s.magnitude_sq}")
    return rate


def coupling_for_rate(gamma: float, alpha: float) -> float:
    """Invert the reflection-limit rate: the V giving decay rate gamma at slope alpha."""
    if not 0.0 <= gamma < np.inf:
        raise ValueError(f"gamma must be >= 0 and finite, got {gamma}")
    s = condon_factor(alpha, "reflection")
    return float(np.sqrt(gamma / (2.0 * np.pi * s.magnitude_sq)))


def survival_probability(gamma: float, t: float) -> float:
    """Bound-level population exp(-gamma t) under exponential decay."""
    if not (0.0 <= gamma < np.inf and 0.0 <= t < np.inf):
        raise ValueError(f"gamma and t must be >= 0 and finite, got {gamma}, {t}")
    return float(np.exp(-gamma * t))


def lz_probability(v: float, slope_difference: float, velocity: float) -> float:
    """Diabatic survival exp(-2 pi V^2 / (|slope_difference| * velocity)).

    Transfer to the other channel is the complement.  slope_difference is
    the difference of the two surface slopes at the crossing and velocity
    the packet speed there (2x its mean momentum).
    """
    if not abs(v) < np.inf:
        raise ValueError(f"coupling v must be finite, got {v}")
    if not 0.0 < abs(slope_difference) < np.inf:
        raise ValueError(f"slope difference must be nonzero and finite (a crossing sweep), "
                         f"got {slope_difference}")
    if not 0.0 < velocity < np.inf:
        raise ValueError(f"velocity must be positive and finite, got {velocity}")
    sweep = abs(slope_difference) * velocity
    if not 0.0 < sweep < np.inf:
        raise ValueError(f"sweep rate |slope_difference| * velocity = {sweep} "
                         f"leaves the positive floats ({slope_difference} * {velocity})")
    return float(np.exp(-2.0 * np.pi * _squarable(v, "coupling v")**2 / sweep))


def rabi_population(v: float, t: float) -> float:
    """Excited population sin^2(V t) for resonant flat surfaces under constant V."""
    if not 0.0 <= v < np.inf:
        raise ValueError(f"coupling v must be >= 0 and finite, got {v}")
    if not abs(t) < np.inf:
        raise ValueError(f"t must be finite, got {t}")
    return float(np.sin(v * t) ** 2)


def bloch_excited_population(v: float, gamma: float, t):
    """Excited population of a resonantly driven two-level system that decays.

    With flat surfaces the internal state follows the optical Bloch
    equations with Rabi frequency Omega = 2V and decay rate gamma.  Started
    in the lower level, on resonance (Torrey, Phys. Rev. 76, 1059, 1949):

        p2(t) = Omega^2/(2 Omega^2 + gamma^2)
                * [1 - exp(-3 gamma t/4) (cos(lam t) + 3 gamma/(4 lam) sin(lam t))],

    lam = sqrt(Omega^2 - gamma^2/16).  Only the underdamped case
    Omega > gamma/4 is covered.  At gamma = 0 it is sin^2(V t).  t may be an
    array; a scalar t gives a float.
    """
    omega = 2.0 * v
    if not (0.0 <= v < np.inf and 0.0 <= gamma < np.inf and omega > 0.25 * gamma):
        raise ValueError("need v >= 0, gamma >= 0, both finite, and Omega = 2V > gamma/4")
    _squarable(v, "coupling v")  # gamma < 8 v, so gamma^2 stays finite too
    t = np.asarray(t, dtype=float)
    if not np.all((0.0 <= t) & (t < np.inf)):
        raise ValueError("t must be >= 0 and finite")
    lam = np.sqrt(omega**2 - gamma**2 / 16.0)
    ring = np.cos(lam * t) + 0.75 * gamma / lam * np.sin(lam * t)
    p2 = omega**2 / (2.0 * omega**2 + gamma**2) * (1.0 - np.exp(-0.75 * gamma * t) * ring)
    return float(p2) if p2.ndim == 0 else p2
