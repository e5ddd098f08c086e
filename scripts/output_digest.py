"""Print one digest line per wpsim run, to check that two checkouts write the same bytes.

Usage:

    PYTHONPATH=<checkout>/src python scripts/output_digest.py [SEED ...]

The runs, at each seed (default 1):

* every call of the three benchmark workloads, from ``bench/workloads.py``;
* every preset, shortened to well under a second of propagation;
* an explicit single propagation (chirped Gaussian pulse, mask absorber,
  snapshots, a timeseries of 4,501 rows) and an explicit quantum-jump ensemble (pulsed, mask absorber,
  jumps and a spectrum);
* an explicit single propagation at N = 256, where records stack 7 deep
  (chirped Gaussian pulse, mask absorber, a record every 7 steps and a
  snapshot every 5, so that snapshots fall between stacked records);
* an explicit single propagation at N = 256 with zero coupling (harmonic
  u1, sloped u2, v0 = 0, so the 2x2 factor is diagonal but not 1), a mask
  absorber that the channel-2 packet runs into, a record every 7 steps and
  a snapshot every 45;
* an explicit single propagation at N = 256 that sets every model, run and
  initial key the others leave at its default: flat u1 and linear u2 with
  offsets, a constant pulse with a chirp and a centre (and a ``t_width``
  that a constant pulse ignores), no absorber with an ``absorber_width``
  beyond half the grid extent (only an unmasked explicit run accepts it),
  snapshots, and a Gaussian packet on channel 2.

Each run writes into a temporary directory.  Its line holds the label, the
sha256 over every file the run wrote (name and bytes, in name order; in
``manifest.json`` every key but ``duration_seconds``), the file count and
the number of forward plus inverse transforms the run made, counted
through ``wpsim.propagate.fft``/``ifft``, the names the stepping loop
looks its transforms up by.  Run the script once per checkout and ``diff``
the two outputs: one diff checks both the bytes and the transforms.  The
first line names what the bytes depend on: the numpy and scipy versions,
the machine, and the CPU dispatch targets that numpy enabled (its float64
``exp``, ``log`` and ``power`` give other bits under AVX2 than under
AVX-512).

``tests/output_digest_seed1.txt`` holds this script's output at seed 1, and
``tests/test_output_digest.py`` checks every run against it.  A change that
moves output bytes on purpose regenerates that file with

    PYTHONPATH=src python scripts/output_digest.py 1 > tests/output_digest_seed1.txt
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path

from numpy._core import _multiarray_umath as umath
from wpsim.runner import parse_config, run_experiment

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

SHORT_PRESETS = {
    "decay_weak": "t_final = 0.2",
    "decay_weak.snapshots": "t_final = 0.2\nsnapshot_every = 60",
    "decay_strong": "t_final = 0.2",
    "pulsed_gaussian": "t_final = 0.3\nsnapshot_every = 100",
    "lz_sweep": "v_values = 0.2 0.5\nt_final = 0.5",
    "chirp_compare": "t_final = 0.2",
    "mcwf_decay": "n_trajectories = 8\nt_final = 1.0\nt_center = 0.4\nt_width = 0.2\ngamma_sp = 4",
    "freeze_demo": "v_strong = 20",
}

EXPLICIT_SINGLE = """
[grid]
x_min = -16
x_max = 16
n_points = 256

[model]
u1 = harmonic
u2 = linear
u2_offset = 0.7
u2_slope = 1.5
pulse = gaussian
v0 = 1.2
t_center = 0.6
t_width = 0.3
chirp_rate = -0.8

[run]
dt = 0.001
t_final = 4.5
record_every = 1
snapshot_every = 500
absorber = mask
absorber_width = 3

[initial]
kind = ground
"""

EXPLICIT_MCWF = """
[grid]
x_min = -12
x_max = 20
n_points = 128

[model]
u1 = harmonic
u2 = linear
u2_offset = 0.7
u2_slope = 2
pulse = gaussian
v0 = 1
t_center = 0.5
t_width = 0.3

[run]
dt = 0.01
t_final = 3
record_every = 10
absorber = mask
absorber_width = 3

[mcwf]
gamma_sp = 2
n_trajectories = 6
n_bins = 12
"""

EXPLICIT_STACKED = """
[grid]
x_min = -12
x_max = 12
n_points = 256

[model]
u1 = harmonic
u2 = linear
u2_offset = 0.5
u2_slope = 1.2
pulse = gaussian
v0 = 1.5
t_center = 0.1
t_width = 0.06
chirp_rate = 3

[run]
dt = 0.002
t_final = 0.2
record_every = 7
snapshot_every = 5
absorber = mask
absorber_width = 2.5

[initial]
kind = ground
"""

EXPLICIT_UNCOUPLED = """
[grid]
x_min = -12
x_max = 12
n_points = 256

[model]
u1 = harmonic
u2 = linear
u2_offset = 0.5
u2_slope = 1.5
v0 = 0

[run]
dt = 0.002
t_final = 1
record_every = 7
snapshot_every = 45
absorber = mask
absorber_width = 3

[initial]
kind = gaussian
center = 4
sigma = 1
k0 = 3
channel = 2
"""

EXPLICIT_UNMASKED = """
[grid]
x_min = -16
x_max = 16
n_points = 256

[model]
u1 = flat
u1_offset = 0.3
u2 = linear
u2_offset = -0.4
u2_slope = 0.8
pulse = constant
v0 = 0.9
t_center = 0.5
t_width = 0.05
chirp_rate = 0.6

[run]
dt = 0.005
t_final = 1
record_every = 5
snapshot_every = 40
absorber = none
absorber_width = 20
absorber_strength = 50

[initial]
kind = gaussian
center = -2
sigma = 1.2
k0 = 1.5
channel = 2
"""


def header() -> str:
    """The digest's first line: numpy and scipy versions, machine, and
    numpy's enabled dispatch targets."""
    enabled = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return (f"# numpy {version('numpy')} scipy {version('scipy')} "
            f"machine {platform.machine()} dispatch {' '.join(enabled) or '-'}")


def runs(seed: int):
    """(label, config text) for every run at this seed."""
    for workload in sorted(workloads.WORKLOADS):
        for label, text in workloads.configs(workload, seed):
            yield f"{workload}/{label}", text
    for label, overrides in SHORT_PRESETS.items():
        yield f"preset/{label}", f"preset = {label.split('.')[0]}\nseed = {seed}\n{overrides}\n"
    yield "explicit/single", f"seed = {seed}\n{EXPLICIT_SINGLE}"
    yield "explicit/mcwf", f"seed = {seed}\n{EXPLICIT_MCWF}"
    yield "explicit/stacked", f"seed = {seed}\n{EXPLICIT_STACKED}"
    yield "explicit/uncoupled", f"seed = {seed}\n{EXPLICIT_UNCOUPLED}"
    yield "explicit/unmasked", f"seed = {seed}\n{EXPLICIT_UNMASKED}"


def digest(out: Path) -> tuple[str, int]:
    """sha256 over (name, bytes) of every file under out; manifest.json without its duration."""
    total = hashlib.sha256()
    files = sorted(path for path in out.rglob("*") if path.is_file())
    for path in files:
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            del manifest["duration_seconds"]
            data = json.dumps(manifest, sort_keys=True).encode()
        total.update(path.relative_to(out).as_posix().encode() + b"\0")
        total.update(hashlib.sha256(data).digest())
    return total.hexdigest(), len(files)


def count_transforms() -> list[int]:
    """Wrap ``wpsim.propagate.fft``/``ifft`` so that each call adds 1 to the
    returned one-element list."""
    stepping = sys.modules["wpsim.propagate"]  # the attribute wpsim.propagate is the function
    calls = [0]

    def counted(transform):
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return transform(*args, **kwargs)
        return wrapper

    stepping.fft, stepping.ifft = counted(stepping.fft), counted(stepping.ifft)
    return calls


def main(argv) -> int:
    seeds = [int(arg) for arg in argv] or [1]
    calls = count_transforms()
    print(header(), flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for label, text in runs(seed):
                out = Path(tmp) / f"{seed}" / label
                calls[0] = 0
                run_experiment(parse_config(text), out)
                sha, n_files = digest(out)
                print(f"seed {seed} {label}  {sha}  {n_files} files  {calls[0]} transforms",
                      flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
