"""Output bytes pinned: every run of scripts/output_digest.py at seed 1 must
write the files, and make the transforms, recorded in output_digest_seed1.txt.

The bytes depend on the numpy and scipy builds, so the file records the
versions it was made with, and under any other pair the test skips and says
so: it makes no comparison, and reports none as a pass.
"""

import os
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

import pytest

import wpsim as w

ROOT = Path(__file__).resolve().parents[1]
PINNED = Path(__file__).with_name("output_digest_seed1.txt")


def by_label(lines):
    """{run label: digest line} for the run lines; the label is the third field."""
    return {line.split()[2]: line for line in lines if line.startswith("seed ")}


def test_output_bytes_match_the_pinned_digest():
    header, *lines = PINNED.read_text().splitlines()
    here = f"# numpy {version('numpy')} scipy {version('scipy')}"
    if header != here:
        pytest.skip(f"digest pinned under {header[2:]}, this interpreter has {here[2:]}: "
                    "no comparison made")
    src = Path(w.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "output_digest.py"), "1"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    pinned, got = by_label(lines), by_label(proc.stdout.splitlines())
    assert len(pinned) == len(lines)
    moved = sorted(label for label in pinned.keys() | got.keys()
                   if pinned.get(label) != got.get(label))
    assert not moved, "runs whose digest line moved: " + ", ".join(moved)
