"""The benchmark workloads: fixed sequences of configs for wpsim.runner.

This module imports nothing from numpy, scipy or wpsim, so a worker can load
it before it starts timing ``import wpsim``.

Every call keeps its preset's grid size, and all but chirp_compare its time
step (its chirped gain reads the same at dt = 0.004 as at 0.001).  The
presets are cut short (t_final, pulse timing, packet start, fewer LZ
couplings per call) so that one repeat takes about 1.5-2.5 s on a quiet core
and one call well under a second.  A run then holds about ten repeats, and
every call is bracketed closely by the reference probe (see run.py).  Each
shortened preset still passes its own manifest checks.

Step counts (Strang steps, or trajectory-steps for mcwf):

* single: decay_weak 1.5/0.001 + decay_strong 1.5/0.001 + pulsed_gaussian
  1.2/0.001 = 4,200 at N = 2048.
* sweep: lz_sweep 2 calls x 2 couplings x 9/0.005 = 7,200 at N = 1024,
  chirp_compare 2 x 2/0.004 = 1,000 at N = 2048, freeze_demo with
  v_strong = 4, 2 x round(pi/4/0.001) = 1,570 at N = 2048; 9,770 in total.
* mcwf: MCWF_CALLS x MCWF_TRAJECTORIES = 48 trajectories x 5/0.01 = 24,000
  at N = 64.
"""

from __future__ import annotations

# The criterion-6 model of tests/test_acceptance.py (flat surfaces, V = 0,
# gamma = 1, packet on channel 2), run as MCWF_CALLS ensembles of
# MCWF_TRAJECTORIES trajectories with seeds derived from the workload seed.
MCWF_GAMMA = 1.0
MCWF_T_FINAL = 5.0
MCWF_CALLS = 6
MCWF_TRAJECTORIES = 8
_MCWF_CONFIG = f"""\
seed = {{seed}}

[grid]
x_min = -8
x_max = 8
n_points = 64

[model]
u1 = flat
u2 = flat
pulse = constant
v0 = 0

[run]
dt = 0.01
t_final = {MCWF_T_FINAL}
record_every = 25

[initial]
kind = gaussian
center = 0
sigma = 0.7
channel = 2

[mcwf]
gamma_sp = {MCWF_GAMMA}
n_trajectories = {MCWF_TRAJECTORIES}
"""

WORKLOADS = {
    # Large-grid single propagations: transform-bound, nothing to batch.
    "single": {
        "calls": (
            ("decay_weak", "t_final = 1.5"),
            ("decay_strong", "t_final = 1.5"),
            ("pulsed_gaussian", "t_center = 0.6\nt_width = 0.2\nt_final = 1.2"),
        ),
        "steps": 4_200,
        "oracle": ("decay_weak", "gamma_vs_quadrature_reldev"),
    },
    # Independent propagations, two per call, that a batched kernel would
    # merge; static and pulsed couplings side by side.
    "sweep": {
        "calls": (
            ("lz_sweep", "v_values = 0.05 0.2\nx0 = -8\nt_final = 9"),
            ("lz_sweep", "v_values = 0.4 0.8\nx0 = -8\nt_final = 9"),
            ("chirp_compare", "t_center = 1\nt_width = 0.5\nt_final = 2\ndt = 0.004"),
            ("freeze_demo", "v_strong = 4"),
        ),
        "steps": 9_770,
        "oracle": ("lz_sweep", "max_abs_deviation"),
    },
    # Quantum-jump ensembles at N = 64: per-call overhead, jumps and RNG.
    "mcwf": {
        "calls": (),
        "steps": MCWF_CALLS * MCWF_TRAJECTORIES * 500,
        "oracle": None,  # the survival band, recomputed by checks.py
    },
}


def configs(workload: str, seed: int) -> list[tuple[str, str]]:
    """(label, config text) pairs run in this order by every repeat.

    A label is the preset name, with the call's position appended when the
    preset occurs more than once; mcwf labels are mcwf.<j>.
    """
    if workload == "mcwf":
        return [
            (f"mcwf.{j}", _MCWF_CONFIG.format(seed=1000 * seed + j)) for j in range(MCWF_CALLS)
        ]
    calls = WORKLOADS[workload]["calls"]
    presets = [name for name, _ in calls]
    out = []
    for i, (name, overrides) in enumerate(calls):
        label = name if presets.count(name) == 1 else f"{name}.{i}"
        out.append((label, f"preset = {name}\nseed = {seed}\n{overrides}\n"))
    return out
