"""wpsim benchmark: end-to-end and per-layer metrics of three workloads.

Run from the root of a wpsim checkout:

    python3 bench/run.py --workload single|sweep|mcwf --seed N --seconds S --trace 0|1

The workloads (workloads.py) are fixed sequences of ``parse_config`` /
``run_experiment`` calls, the path ``wpsim run`` takes.  One client drives
them as a closed loop: each repeat starts after the previous one ended, in a
fresh interpreter (worker.py), with WPSIM_THREADS and the BLAS and OpenMP
pools pinned to one thread.  Repeats start while the next one is expected
to end within S seconds, and at least MIN_REPEATS run.  Every repeat's outputs pass the gate in checks.py, and all
repeats of a run must write byte-identical files (one sha256 inventory).

--trace 0 reports the end_to_end metrics of BENCHMARK.json: wall_s, the
workload's run_experiment calls, each at its median over the repeats;
steps_per_s, the workload's steps over wall_s; setup_s, the median of
EXTRA_SETUPS extra set-ups and every repeat's (import wpsim, parse_config and
derived_quantities in a fresh interpreter); and the median peak_rss_mb.

wall_s and setup_s are measured against a reference probe (worker.probe, a
fixed numpy computation that calls no wpsim code) run right after the
set-up and after every call.  Each call's time is divided by the mean of
the two probes around it, and the set-up time by the probe after it; the
ratios are scaled by PROBE_REF_S, the probe's time on a quiet core, so the
metrics read as seconds on that core.  The reason is the host: on a shared
2-core VM the same computation runs up to 2x slower while neighbours contend
for the core, in phases from a fraction of a second to minutes, with CPU
time rising with wall time and steal near 0.  A phase can cover a whole
run, so no statistic over raw times within a run removes it.  In 4 minutes
of a similar probe alternating with wpsim calls (a 200-step propagate at
N = 2048 and a 500-step mcwf trajectory at N = 64), the calls' fastest
times in 20-second windows moved by up to 59%, and the median ratio of each
call to its two probes by at most 4.3%.  The workloads are many short calls
(under a second each), so that probes bracket each closely and a run holds
about ten repeats.

--trace 1 reports the per_layer metrics: the kernel table (kernels.py), then
TRACE_PAIRS untraced and traced repeats, alternating (tracing.py).  The
layer times come from the first traced repeat, whose counts every traced
repeat must match exactly; trace.overhead_s is the median traced minus the
median untraced wall_s, both scaled by the probe as above.

Progress, per-repeat CPU steal and a host description go to stdout; the last
line is one JSON object {"correct", "attempted", "failed", "metrics"}, where
attempted and failed count correctness checks.  Outputs go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import checks
import workloads

THREADS = 1
MIN_REPEATS = 3
EXTRA_SETUPS = 1
TRACE_PAIRS = 3  # untraced and traced repeats, alternating, in a --trace 1 run
PROBE_REF_S = 0.048  # worker.probe on a quiet core of the 2-vCPU Xeon host the benchmark was tuned on
DEADLINE_S = 170  # the whole run, so that it exits within 180 s
_START = time.monotonic()
OUT_ROOT = Path(".bench_out")
_WORKER = Path(__file__).resolve().parent / "worker.py"


class BenchError(RuntimeError):
    pass


def _steal_s() -> float:
    """Cumulative CPU steal time of the host, from /proc/stat."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _cpu_model() -> str:
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def _worker(env: dict, *args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(_WORKER), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=max(1.0, DEADLINE_S - (time.monotonic() - _START)),
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _scale(rep: dict) -> None:
    """Adds the repeat's set-up and call times in probe units, scaled to seconds."""
    probes = rep["probe_s"]
    rep["ref_setup_s"] = PROBE_REF_S * rep["setup_s"] / probes[0]
    if "call_s" in rep:
        rep["ref_call_s"] = {
            label: PROBE_REF_S * t / (0.5 * (probes[i] + probes[i + 1]))
            for i, (label, t) in enumerate(rep["call_s"].items())
        }
        rep["ref_wall_s"] = sum(rep["ref_call_s"].values())


def _exact_counts(rep: dict) -> dict:
    """The counts of a traced repeat that must repeat exactly between repeats."""
    calls = {name: v["calls"] for name, v in rep["trace"]["stats"].items()}
    return {"calls": calls, "counts": rep["trace"]["counts"], "bytes_written": rep["bytes_written"]}


def _layer_metrics(rep: dict) -> dict:
    trace = rep["trace"]
    stats, counts = trace["stats"], trace["counts"]

    def fn(name: str, key: str) -> float:
        return stats.get(name, {}).get(key, 0)

    def layer(prefix: str) -> float:
        return sum(v["self_s"] for k, v in stats.items() if k.startswith(prefix + "."))

    def per_step(seconds: float, steps: int) -> float:
        return 1e6 * seconds / steps if steps else 0.0

    fft_calls = fn("fft.fft", "calls") + fn("fft.ifft", "calls")
    fft_s = fn("fft.fft", "total_s") + fn("fft.ifft", "total_s")
    prop_steps = counts.get("propagate.steps", 0)
    traj_steps = counts.get("mcwf.traj_steps", 0)
    return {
        "fft.calls": fft_calls,
        "fft.calls_per_step": fft_calls / (prop_steps + traj_steps),
        "fft.us_per_call": 1e6 * fft_s / fft_calls,
        "fft.share": fft_s / rep["wall_s"],
        "propagate.calls": fn("propagate.propagate", "calls"),
        "propagate.steps": prop_steps,
        "propagate.self_us_per_step": per_step(fn("propagate.propagate", "self_s"), prop_steps),
        "mcwf.trajectories": fn("mcwf.mcwf_trajectory", "calls"),
        "mcwf.traj_steps": traj_steps,
        "mcwf.jumps": counts.get("mcwf.jumps", 0),
        "mcwf.self_us_per_step": per_step(fn("mcwf.mcwf_trajectory", "self_s"), traj_steps),
        "mcwf.ensemble_self_s": fn("mcwf.mcwf_ensemble", "self_s"),
        "runner.self_s": layer("runner"),
        "runner.files_written": rep["files_written"],
        "runner.bytes_written": rep["bytes_written"],
        "analytic.s": layer("analytic"),
        "grid.s": layer("grid"),
        "model.s": layer("model"),
        "model.pulse_value.calls": fn("model.pulse_value", "calls"),
        "observables.s": layer("observables"),
    }


def _declared(trace: bool) -> dict:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = workloads.WORKLOADS[workload]
    nproc = len(os.sched_getaffinity(0))
    if THREADS > nproc:
        raise BenchError(f"WPSIM_THREADS={THREADS} exceeds nproc={nproc}")
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.update(WPSIM_THREADS=str(THREADS), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    out_root = OUT_ROOT / workload
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    common = ("--workload", workload, "--seed", str(seed))

    _worker(env, "setup", *common)  # warms the file cache and bytecode; not timed
    setups = [] if trace else [_worker(env, "setup", *common) for _ in range(EXTRA_SETUPS)]
    for rep in setups:
        _scale(rep)
    kernel_table = _worker(env, "kernels") if trace else {}

    results: list[tuple] = []

    def repeat(traced: bool) -> dict:
        out = out_root / "repeat"
        args = ["run", *common, "--out", str(out)]
        if traced:
            args += ["--trace", str(out_root / "spans.json")]
        steal0 = _steal_s()
        rep = _worker(env, *args)
        rep["steal_s"] = _steal_s() - steal0
        _scale(rep)
        gated, rep["oracle_err"] = checks.gate(out, rep["manifests"], spec["oracle"])
        results.extend(gated)
        shutil.rmtree(out)
        print(
            f"repeat{' (traced)' if traced else ''}: wall_s={rep['wall_s']:.3f} cpu_s={rep['cpu_s']:.3f} "
            f"setup_s={rep['setup_s']:.3f} probe_s={statistics.median(rep['probe_s']):.4f} "
            f"ref_wall_s={rep['ref_wall_s']:.3f} ref_setup_s={rep['ref_setup_s']:.3f} "
            f"ref_call_s={[round(t, 3) for t in rep['ref_call_s'].values()]} "
            f"peak_rss_mb={rep['peak_rss_mb']:.1f} steal_s={rep['steal_s']:.2f} "
            f"checks passed {sum(ok for _, ok, _ in gated)}/{len(gated)}",
            flush=True,
        )
        return rep

    if trace:
        pairs = [(repeat(False), repeat(True)) for _ in range(TRACE_PAIRS)]
        plain, traced = [p for p, _ in pairs], [t for _, t in pairs]
        repeats = plain + traced
    else:
        repeats = []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if len(repeats) >= MIN_REPEATS and elapsed * (1 + 1 / len(repeats)) > seconds:
                break
            repeats.append(repeat(False))

    inventories = {json.dumps([m["files"] for m in r["manifests"].values()]) for r in repeats}
    results.append(("rerun_identity", len(inventories) == 1, float(len(inventories))))
    if trace:
        values = _layer_metrics(traced[0])
        steps = values["propagate.steps"] + values["mcwf.traj_steps"]
        results.append(("trace.steps_match", steps == spec["steps"], float(steps)))
        counts = {json.dumps(_exact_counts(t)) for t in traced}
        results.append(("trace.counts_repeat", len(counts) == 1, float(len(counts))))
        plain_s = statistics.median(r["ref_wall_s"] for r in plain)
        traced_s = statistics.median(r["ref_wall_s"] for r in traced)
        values.update(kernel_table)
        values.update({
            "trace.wall_s": traced_s,
            "trace.overhead_s": traced_s - plain_s,
            "trace.overhead_frac": traced_s / plain_s - 1.0,
            "rerun.distinct_inventories": len(inventories),
            "oracle_err": plain[0]["oracle_err"],
            "host.nproc": nproc,
            "host.wpsim_threads": THREADS,
            "host.steal_s": sum(r["steal_s"] for r in repeats),
            "host.probe_s": statistics.median(p for r in repeats for p in r["probe_s"]),
        })
    else:
        wall = sum(
            statistics.median(r["ref_call_s"][label] for r in repeats) for label in repeats[0]["call_s"]
        )
        values = {
            "wall_s": wall,
            "steps_per_s": spec["steps"] / wall,
            "setup_s": statistics.median(r["ref_setup_s"] for r in setups + repeats),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in repeats),
        }
    failed = [name for name, ok, _ in results if not ok]
    if trace:
        values["fail_frac"] = len(failed) / len(results)
    for name, ok, value in results:
        if not ok:
            print(f"FAILED check {name}: {value!r}", flush=True)

    host = {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "wpsim_threads": THREADS,
        "steal_s_per_repeat": [r["steal_s"] for r in repeats],
        "probe_s_median": statistics.median(p for r in repeats for p in r["probe_s"]),
    }
    print("host " + json.dumps(host), flush=True)

    declared = _declared(trace)
    if set(values) != set(declared):
        raise BenchError(f"metrics out of sync with BENCHMARK.json: {sorted(set(values) ^ set(declared))}")
    return {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not Path("src/wpsim/__init__.py").is_file() or not Path("BENCHMARK.json").is_file():
        print("bench: run from the root of a wpsim checkout (src/wpsim and BENCHMARK.json)", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
