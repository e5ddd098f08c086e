"""Correctness gate applied to the outputs of every benchmark repeat.

* Every preset's manifest reports ok.
* The norm budget max |p1 + p2 + absorbed - 1| stays within NORM_BUDGET_TOL
  on every timeseries*.tsv written (about 3e-12 with 12-digit tables).
* mcwf: the survival <p2>(t), pooled over the workload's ensembles from
  their ensemble_mean.tsv, lies within MCWF_Z_MAX standard errors of
  exp(-gamma t), and the pooled jump times from jumps.tsv pass a
  Kolmogorov-Smirnov test against the horizon-truncated exponential law at
  level MCWF_KS_P_MIN.

The mcwf thresholds are wider than the 3 SE / p >= 0.01 of acceptance
criterion 6 because the benchmark draws a new ensemble for every seed it is
given and pools only 48 trajectories.  The band uses the binomial SE under
the exponential law, sqrt(q (1 - q) / n) with q = exp(-gamma t), at the
recorded times where n q (1 - q) >= 5, so that the normal approximation
holds.  In 100,000 simulated ensembles of 48 exponential jump times the
worst z was 5.28 and no KS p-value fell below 1e-6: a correct program
fails neither check on any of them.  The checks catch a rate off
by a factor of three (89% of simulated ensembles) and gross faults such as
missing or instantaneous jumps; 48 trajectories cannot resolve a rate off
by less than about a factor of two.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy import stats

import workloads

NORM_BUDGET_TOL = 1e-9
MCWF_Z_MAX = 5.5
MCWF_KS_P_MIN = 1e-6
_NORMAL_MIN = 5.0  # least n q (1 - q) at which the band is checked


def _table(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter="\t", skiprows=1, ndmin=2)


def norm_budget(path: Path) -> float:
    """max |p1 + p2 + absorbed - 1| over the rows of a timeseries table."""
    data = _table(path)
    return float(np.max(np.abs(data[:, 1] + data[:, 2] + data[:, 7] - 1.0)))


def mcwf_statistics(dirs: list[Path]) -> tuple[float, float]:
    """(worst |<p2> - exp(-gamma t)| in binomial SE, KS p-value of the jump times).

    ``dirs`` are the output directories of the workload's ensembles, each of
    MCWF_TRAJECTORIES trajectories.
    """
    gamma, n = workloads.MCWF_GAMMA, workloads.MCWF_TRAJECTORIES * len(dirs)
    ens = [_table(d / "ensemble_mean.tsv") for d in dirs]
    t, mean_p2 = ens[0][:, 0], np.mean([e[:, 2] for e in ens], axis=0)
    q = np.exp(-gamma * t)
    var = q * (1.0 - q)
    normal = n * var >= _NORMAL_MIN
    worst_z = float(np.max(np.abs(mean_p2[normal] - q[normal]) / np.sqrt(var[normal] / n)))
    jump_times = np.concatenate([_table(d / "jumps.tsv")[:, 0] for d in dirs])
    if jump_times.size == 0:
        return worst_z, 0.0
    norm = 1.0 - np.exp(-gamma * workloads.MCWF_T_FINAL)
    ks = stats.kstest(jump_times, lambda s: (1.0 - np.exp(-gamma * np.asarray(s))) / norm)
    return worst_z, float(ks.pvalue)


def gate(out: Path, manifests: dict, oracle: tuple | None) -> tuple[list[tuple], float]:
    """Checks on one repeat's output directory, and the workload's oracle error.

    ``manifests`` maps each config label to its manifest's ok flag and
    checks.  ``oracle`` names the (preset, manifest check) whose value over
    its threshold, worst over the preset's calls, is the oracle error
    (1.0 = fail); None means the mcwf survival band, in units of
    MCWF_Z_MAX.  Returns (name, passed, value)
    per check.
    """
    results = []
    for label, manifest in manifests.items():
        results.append((f"{label}.manifest_ok", bool(manifest["ok"]), float(manifest["ok"])))
        for path in sorted((out / label).glob("timeseries*.tsv")):
            residual = norm_budget(path)
            results.append((f"{label}.{path.stem}.norm_budget", residual <= NORM_BUDGET_TOL, residual))
    if oracle is not None:
        preset, key = oracle
        oracle_checks = [
            m["checks"][key] for label, m in manifests.items() if label.split(".")[0] == preset
        ]
        return results, max(c["value"] / c["threshold"] for c in oracle_checks)
    worst_z, ks_p = mcwf_statistics([out / label for label in manifests])
    results.append(("mcwf.survival_band", worst_z <= MCWF_Z_MAX, worst_z))
    results.append(("mcwf.jump_times_ks", ks_p >= MCWF_KS_P_MIN, ks_p))
    return results, worst_z / MCWF_Z_MAX
