"""Per-layer tracing of wpsim from outside the package.

``install()`` wraps every public function of each wpsim module and rebinds
the wrapper wherever a wpsim module looks the function up, so nothing under
src/ changes.  The spectral transforms are wrapped only where the stepping
kernel looks them up (``wpsim.propagate.fft`` / ``.ifft``), which makes
``fft`` count exactly the transforms of the Strang steps.

Every wrapped call adds to per-function call counts, total time and self time
(its span minus the spans of wrapped calls made inside it).  Calls other than
the hot leaves (the transforms and ``pulse_value``) are also kept as spans
(id, parent, root, name, start_ns, end_ns); the root is the outermost wrapped
call, usually ``runner.run_experiment``, and identifies the request.  Wrapper
overhead lands in the caller's self time.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("grid", "model", "analytic", "observables", "propagate", "mcwf", "runner")
_HOT = {"fft.fft", "fft.ifft", "model.pulse_value"}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_propagate(counts, args, kwargs, result):
    counts["propagate.steps"] += _arg(args, kwargs, 2, "cfg").n_steps


def _count_trajectory(counts, args, kwargs, result):
    counts["mcwf.traj_steps"] += _arg(args, kwargs, 3, "cfg").n_steps
    counts["mcwf.jumps"] += len(result[1])


_HOOKS = {
    "propagate.propagate": _count_propagate,
    "mcwf.mcwf_trajectory": _count_trajectory,
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_ns, self_ns]
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [child_ns, span_id, root_id] per open call

    def wrap(self, name, fn):
        stack = self._stack
        stat = self.stats.setdefault(name, [0, 0, 0])
        clock = time.perf_counter_ns
        if name in _HOT:

            def leaf(*args, **kwargs):
                frame = [0, None, None]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    if stack:
                        stack[-1][0] += elapsed
                    stat[0] += 1
                    stat[1] += elapsed
                    stat[2] += elapsed - frame[0]

            return leaf

        spans = self.spans
        hook = _HOOKS.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = len(spans)
            root = parent[2] if parent else span_id
            spans.append(None)
            frame = [0, span_id, root]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                spans[span_id] = (span_id, parent[1] if parent else None, root, name, start, end)
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict:
        return {
            "stats": {
                name: {"calls": c, "total_s": t * 1e-9, "self_s": s * 1e-9}
                for name, (c, t, s) in self.stats.items()
            },
            "counts": dict(self.counts),
        }

    def dump_spans(self, path) -> None:
        keys = ("id", "parent", "root", "name", "start_ns", "end_ns")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)


def install() -> Tracer:
    """Wrap wpsim's public functions where they are looked up; returns the tracer."""
    tracer = Tracer()
    modules = [m for name, m in sys.modules.items() if name == "wpsim" or name.startswith("wpsim.")]
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"wpsim.{layer}"]
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and name[0] != "_":
                wrappers[id(obj)] = (obj, tracer.wrap(f"{layer}.{name}", obj))
    for module in modules:
        for name, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, name, hit[1])
    stepping = sys.modules["wpsim.propagate"]
    stepping.fft = tracer.wrap("fft.fft", stepping.fft)
    stepping.ifft = tracer.wrap("fft.ifft", stepping.ifft)
    return tracer
