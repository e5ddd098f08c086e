"""Output bytes pinned: every run of scripts/output_digest.py at seed 1 must
write the files, and make the transforms, recorded in output_digest_seed1.txt.

The bytes depend on the numpy and scipy builds and on the CPU kernels numpy
dispatches to, so the file's header records the versions, the machine and
numpy's enabled dispatch targets it was made with.  Where any of them
differs the test skips and names both headers: it makes no comparison, and
reports none as a pass.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wpsim as w

ROOT = Path(__file__).resolve().parents[1]
PINNED = Path(__file__).with_name("output_digest_seed1.txt")
spec = importlib.util.spec_from_file_location("output_digest", ROOT / "scripts" / "output_digest.py")
output_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_digest)


def by_label(lines):
    """{run label: digest line} for the run lines; the label is the third field."""
    return {line.split()[2]: line for line in lines if line.startswith("seed ")}


def src_env(**extra):
    src = Path(w.__file__).resolve().parents[1]
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]),
                **extra)


def test_output_bytes_match_the_pinned_digest():
    header, *lines = PINNED.read_text().splitlines()
    here = output_digest.header()
    if header != here:
        pytest.skip(f"digest pinned under {header[2:]}, this interpreter has {here[2:]}: "
                    "no comparison made")
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "output_digest.py"), "1"],
                          env=src_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    pinned, got = by_label(lines), by_label(proc.stdout.splitlines())
    assert len(pinned) == len(lines)
    moved = sorted(label for label in pinned.keys() | got.keys()
                   if pinned.get(label) != got.get(label))
    assert not moved, "runs whose digest line moved: " + ", ".join(moved)


def test_other_dispatch_targets_skip_the_comparison():
    # numpy's per-process switch: without its AVX-512 targets, 18 of the 25
    # runs write other bytes, so the comparison must not run
    pinned = PINNED.read_text().splitlines()[0]
    env = src_env(NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    here = subprocess.run([sys.executable, "-c", "import output_digest; print(output_digest.header())"],
                          cwd=ROOT / "scripts", env=env, capture_output=True, text=True,
                          timeout=120).stdout.strip()
    assert here.startswith("# numpy ") and "AVX512_SPR" not in here.split("dispatch")[1]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rs", "-p", "no:cacheprovider",
         f"{Path(__file__).name}::test_output_bytes_match_the_pinned_digest"],
        cwd=Path(__file__).parent, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1 skipped" in proc.stdout
    assert f"digest pinned under {pinned[2:]}, this interpreter has {here[2:]}" in proc.stdout
