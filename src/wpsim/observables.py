"""Physics extraction from recorded series: decay fits, oscillation flags,
packet moments, and emission spectra from jump records."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ._fft import fft
from .grid import TwoChannelState
from .model import ModelSpec, difference_potential

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
    """(population, conditional mean, conditional variance) of one channel's
    amplitudes on the nodes xs; mean and variance are NaN while the channel
    holds no more than 1e-12 probability, and when the population is not
    finite."""
    dens = np.abs(psi) ** 2
    p = float(dens.sum() * dx)
    if not _EMPTY_CHANNEL_FLOOR < p < np.inf:
        return p, np.nan, np.nan
    mean = float((xs * dens).sum() * dx / p)
    return p, mean, float((xs * xs * dens).sum() * dx / p - mean * mean)


def _occupied(moments, channel) -> ChannelMoments:
    if moments[0] <= _EMPTY_CHANNEL_FLOOR:
        raise EmptyChannelError(f"channel {channel} holds {moments[0]:.3e} probability")
    return ChannelMoments(*moments)


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
