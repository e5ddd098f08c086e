"""One benchmark repeat in a fresh interpreter.

    python3 bench/worker.py setup   --workload W --seed N
    python3 bench/worker.py run     --workload W --seed N --out DIR [--trace PATH]
    python3 bench/worker.py kernels

``setup`` times ``import wpsim`` plus ``parse_config`` and
``derived_quantities`` for every config of the workload.  ``run`` does the
same and then times the workload's ``run_experiment`` calls; with
``--trace`` the calls run with every wpsim layer wrapped (see tracing.py) and
the spans go to PATH.  Both modes time the reference probe (``probe``) right
after the set-up and after every call, so each call is bracketed by two
probes.  ``kernels`` times the per-step table.  Each mode prints one JSON
object on stdout.  src/ must be on PYTHONPATH.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import workloads  # plain Python: keeps numpy out of the untimed part


def probe() -> float:
    """Seconds taken by a fixed reference computation that uses no wpsim code.

    Split-step-like transform pairs on one channel at N = 2048 and N = 64,
    with numpy's own FFT (not scipy.fft, which wpsim calls), so that no
    change to wpsim or to its transform backend alters the probe.  It takes
    about 48 ms on a quiet core of the host the benchmark was tuned on.
    """
    import numpy as np

    out = []
    for n, pairs in ((2048, 250), (64, 2000)):
        psi = np.exp(-0.5 * np.linspace(-8.0, 8.0, n) ** 2).astype(complex)
        kin = np.exp(-0.5j * np.linspace(-1.0, 1.0, n))
        out.append((psi, kin, pairs))
        np.fft.ifft(np.fft.fft(psi))  # warm the transform caches
    t0 = time.perf_counter()
    for psi, kin, pairs in out:
        for _ in range(pairs):
            psi = np.fft.ifft(kin * np.fft.fft(psi))
            psi *= 1.0 / np.sqrt(np.sum(np.abs(psi) ** 2))
    return time.perf_counter() - t0


def _inventory_size(out: Path, manifests) -> tuple[int, int]:
    files = [out / label / name for label, m in manifests for name in m.files]
    return len(files), sum(f.stat().st_size for f in files)


def _run(args) -> dict:
    texts = workloads.configs(args.workload, args.seed)
    t0 = time.perf_counter()
    from wpsim import runner

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install()
    cfgs = [(label, runner.parse_config(text)) for label, text in texts]
    for _, cfg in cfgs:
        runner.derived_quantities(cfg)
    setup_s = time.perf_counter() - t0
    probe_s = [probe()]
    if args.mode == "setup":
        return {"setup_s": setup_s, "probe_s": probe_s}

    out = Path(args.out)
    manifests, call_s = [], {}
    cpu_s = 0.0
    for label, cfg in cfgs:
        c1 = time.process_time()
        t1 = time.perf_counter()
        manifests.append((label, runner.run_experiment(cfg, out / label)))
        call_s[label] = time.perf_counter() - t1
        cpu_s += time.process_time() - c1
        probe_s.append(probe())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n_files, n_bytes = _inventory_size(out, manifests)
    result = {
        "setup_s": setup_s,
        "wall_s": sum(call_s.values()),
        "call_s": call_s,
        "probe_s": probe_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": rss_mb,
        "files_written": n_files,
        "bytes_written": n_bytes,
        "manifests": {
            label: {"ok": m.ok, "checks": m.checks, "files": m.files} for label, m in manifests
        },
    }
    if tracer is not None:
        tracer.dump_spans(args.trace)
        result["trace"] = tracer.summary()
    return result


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "kernels"))
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--trace")
    args = parser.parse_args()
    if args.mode == "kernels":
        import kernels

        result = kernels.table()
    else:
        result = _run(args)
    print(json.dumps(result, default=float))


if __name__ == "__main__":
    main()
