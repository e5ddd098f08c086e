"""Per-step kernel table, timed through public wpsim calls.

Each entry is microseconds per unit of work at grid size N, the median of
REPEATS paired measurements: the time of one call minus the time of a call
that does the same minus some units of work, divided by those units, so
fixed per-call set-up cancels.  The model is the decay geometry (harmonic
and slope-2 surfaces) on x in [-16, 16], starting from the ground state.

* fft_pair: one forward plus one inverse transform of one channel.
* step_const / step_gauss: one ``propagate`` step with a constant / Gaussian
  pulse, no absorber, recording only at the ends.
* step_absorb: one constant-pulse step with the edge absorber.
* record: one record (channel moments plus survival overlap), from a run
  with record_every = 1 against the same run recording only at the ends.
* mcwf_step: one ``mcwf_trajectory`` step (gamma = 1, no absorber).
"""

from __future__ import annotations

import statistics
import time

import wpsim as w
from wpsim import _fft

SIZES = (64, 1024, 2048, 8192)
REPEATS = 5
DT = 0.001
# steps (or transform pairs) per longer timed call, about 20 ms at each size
_N_HI = {64: 400, 1024: 160, 2048: 80, 8192: 20}
_NEVER = 10**9


def _paired(more, less, units: int) -> float:
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        less()
        t1 = time.perf_counter()
        more()
        t2 = time.perf_counter()
        samples.append(((t2 - t1) - (t1 - t0)) / units)
    return 1e6 * statistics.median(samples)


def _ops(n_points: int) -> dict:
    grid = w.make_grid(-16.0, 16.0, n_points)
    ground = w.harmonic_ground_state(grid)
    excited = w.gaussian_packet(grid, 0.0, 0.7, channel=2)
    slope = w.linear_potential(w.GROUND_STATE_ENERGY, 2.0)
    const = w.ModelSpec(w.harmonic_potential(), slope, w.constant_pulse(0.5))
    gauss = w.ModelSpec(w.harmonic_potential(), slope, w.gaussian_pulse(1.0, 0.05, 0.02))
    absorber = w.AbsorberSpec(4.0, 1000.0)

    def cfg(n, record_every=_NEVER, absorber=None):
        return w.RunConfig(dt=DT, t_final=n * DT, absorber=absorber, record_every=record_every)

    def fft_pair(n):
        for _ in range(n):
            _fft.ifft(_fft.fft(ground.psi1))

    n_hi = _N_HI[n_points]
    n_lo = n_hi // 4

    def steps(run):
        return (lambda: run(n_hi), lambda: run(n_lo), n_hi - n_lo)

    return {
        "fft_pair": steps(fft_pair),
        "step_const": steps(lambda n: w.propagate(ground, const, cfg(n))),
        "step_gauss": steps(lambda n: w.propagate(ground, gauss, cfg(n))),
        "step_absorb": steps(lambda n: w.propagate(ground, const, cfg(n, absorber=absorber))),
        "record": (
            lambda: w.propagate(ground, const, cfg(n_hi, record_every=1)),
            lambda: w.propagate(ground, const, cfg(n_hi)),
            n_hi - 1,
        ),
        "mcwf_step": steps(lambda n: w.mcwf_trajectory(excited, const, 1.0, cfg(n), seed=1)),
    }


def table() -> dict:
    out = {}
    for n_points in SIZES:
        for op, (more, less, units) in _ops(n_points).items():
            less()  # warm caches and transform plans
            out[f"kernel.{op}.n{n_points}.us"] = _paired(more, less, units)
    return out
