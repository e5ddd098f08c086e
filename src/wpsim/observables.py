"""Physics extraction from recorded series: decay fits, oscillation flags,
packet moments, and emission spectra from jump records."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ._fft import fft
from .grid import TwoChannelState
from .model import ModelSpec, difference_potential

__all__ = ["ChannelMoments", "DecayFit", "EmptyChannelError", "FitError", "OscillationResult",
           "SpectrumHistogram", "detect_oscillation", "emission_spectrum", "fit_decay_rate",
           "momentum_moments", "position_moments"]

_EMPTY_CHANNEL_FLOOR = 1e-12


class FitError(ValueError):
    """Decay fit not possible on the given series/window."""


class EmptyChannelError(ValueError):
    """Moments requested for a channel holding < 1e-12 probability."""


@dataclass(frozen=True)
class DecayFit:
    gamma_fit: float
    intercept: float
    r_squared: float
    window: tuple[float, float]
    n_points: int


def fit_decay_rate(
    times: Sequence[float],
    p1_series: Sequence[float],
    p_window: tuple[float, float] = (0.1, 0.8),
    t_window: Optional[tuple[float, float]] = None,
    min_points: int = 10,
) -> DecayFit:
    """Least-squares line through ln(p) vs t; gamma_fit is minus the slope.

    The default window keeps the points with population inside
    [0.1, 0.8], skipping both the early quadratic turn-on and the late
    non-exponential tail.  An explicit t_window overrides the population
    window.
    """
    t = np.asarray(times, dtype=float)
    p = np.asarray(p1_series, dtype=float)
    if t.shape != p.shape:
        raise FitError("times and series must have the same length")
    if t_window is not None:
        sel = (t >= t_window[0]) & (t <= t_window[1])
    else:
        lo, hi = p_window
        sel = (p >= lo) & (p <= hi)
    if sel.sum() < min_points:
        raise FitError(f"only {int(sel.sum())} points in the fit window (need {min_points})")
    if np.any(p[sel] <= 0.0):
        raise FitError("non-positive populations inside the fit window")
    tw = t[sel]
    y = np.log(p[sel])
    design = np.vstack([tw, np.ones_like(tw)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - (slope * tw + intercept)
    ss_tot = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 - float(np.sum(resid**2) / ss_tot) if ss_tot > 0.0 else 1.0
    return DecayFit(
        gamma_fit=float(-slope),
        intercept=float(intercept),
        r_squared=min(max(r2, 0.0), 1.0),
        window=(float(tw[0]), float(tw[-1])),
        n_points=int(sel.sum()),
    )


class OscillationResult(NamedTuple):
    is_oscillatory: bool
    n_local_minima: int


def detect_oscillation(series: Sequence[float], min_length: int = 16) -> OscillationResult:
    """Count strict local minima of the 5-point moving average of the series."""
    y = np.asarray(series, dtype=float)
    if y.size < min_length:
        raise ValueError(f"series too short: {y.size} < {min_length}")
    smooth = np.convolve(y, np.full(5, 0.2), mode="valid")
    inner = smooth[1:-1]
    n_min = int(np.sum((inner < smooth[:-2]) & (inner < smooth[2:])))
    return OscillationResult(n_min >= 1, n_min)


class ChannelMoments(NamedTuple):
    population: float
    mean: float
    variance: float


def _moments(xs, dx, psi):
    """Lists of the populations, conditional means and conditional variances
    of the rows of amplitudes ``psi`` (shape (..., N), rows in C order) on
    the nodes xs (broadcastable to psi).  A row's mean and variance are NaN
    while it holds no more than 1e-12 probability, and when its population
    is not finite.  The variance is centred on the mean, so a packet far
    from x = 0 keeps its digits.  Each row's sums are ``np.add.reduce``
    along the last axis, the pairwise sum of ``ndarray.sum`` on that row
    alone, and the scalar steps are the same float operations on Python
    floats, so a row's bits do not depend on how many rows share the call."""
    dens = np.abs(psi) ** 2
    column = dens.shape[:-1] + (1,)
    pops = [s * dx for s in np.add.reduce(dens, axis=-1).ravel().tolist()]
    # populations are non-negative: their sum is finite only if each one is
    if not math.isfinite(sum(pops)):
        # non-finite rows enter the sums below as zeros, so that they raise
        # no floating-point warning
        dens = np.where(np.isfinite(pops).reshape(column), dens, 0.0)
    firsts = np.add.reduce(xs * dens, axis=-1).ravel().tolist()
    means = [f * dx / p if _EMPTY_CHANNEL_FLOOR < p < math.inf else math.nan
             for f, p in zip(firsts, pops)]
    offset = xs - np.array(means).reshape(column)
    seconds = np.add.reduce(offset * offset * dens, axis=-1).ravel().tolist()
    variances = [s * dx / p if _EMPTY_CHANNEL_FLOOR < p < math.inf else math.nan
                 for s, p in zip(seconds, pops)]
    return pops, means, variances


def _occupied(moments, channel) -> ChannelMoments:
    (population,), (mean,), (variance,) = moments
    if population <= _EMPTY_CHANNEL_FLOOR:
        raise EmptyChannelError(f"channel {channel} holds {population:.3e} probability")
    return ChannelMoments(population, mean, variance)


def position_moments(state: TwoChannelState, channel: int) -> ChannelMoments:
    """Conditional mean and variance of x on one channel."""
    if channel not in (1, 2):
        raise ValueError("channel must be 1 or 2")
    return _occupied(_moments(state.grid.x, state.grid.dx, state.psi[channel - 1]), channel)


def momentum_moments(state: TwoChannelState, channel: int) -> ChannelMoments:
    """Conditional mean and variance of k on one channel (spectral)."""
    if channel not in (1, 2):
        raise ValueError("channel must be 1 or 2")
    g = state.grid
    # unitary convention: sum |amp|^2 dk = p
    amp = fft(state.psi[channel - 1]) * g.dx / np.sqrt(2.0 * np.pi)
    dk = 2.0 * np.pi / g.length
    return _occupied(_moments(g.k, dk, amp), channel)


@dataclass(frozen=True)
class SpectrumHistogram:
    bin_edges: np.ndarray
    counts: np.ndarray
    total: int

    @property
    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    def peak_bin(self) -> int:
        return int(np.argmax(self.counts))


def emission_spectrum(jumps, model: ModelSpec, n_bins: int) -> SpectrumHistogram:
    """Histogram of jump positions mapped to emitted-photon frequencies.

    Each jump position x is mapped through the difference potential
    U2(x) - U1(x); bins are uniform over the [min, max] of the mapped
    values (a half-unit pad when all values coincide).
    """
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    positions = np.asarray([j.x_jump for j in jumps], dtype=float)
    if positions.size == 0:
        raise ValueError("no jumps to histogram")
    freqs = np.asarray(difference_potential(model, positions), dtype=float)
    counts, edges = np.histogram(freqs, bins=n_bins)
    return SpectrumHistogram(bin_edges=edges, counts=counts, total=int(positions.size))
