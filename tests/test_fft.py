"""wpsim's transforms call scipy's pocketfft kernel directly; they must give
the bytes of public scipy.fft, so a scipy that moves or changes the kernel
fails here."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

import wpsim._fft
from wpsim._fft import fft, ifft

SIZES = (64, 1000, 1024, 2048, 8192)


def _complex(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("rows", [None, 2], ids=["1d", "2xN"])
def test_transforms_match_scipy_fft_bytes(n, rows):
    a = _complex((n,) if rows is None else (rows, n), seed=n)
    before = a.copy()
    assert fft(a).tobytes() == scipy.fft.fft(a).tobytes()
    out = np.empty_like(a)
    assert fft(a, out=out) is out
    assert out.tobytes() == scipy.fft.fft(a).tobytes()
    inverse = ifft(a)
    assert inverse.tobytes() == scipy.fft.ifft(a).tobytes()
    assert ifft(a, out=out) is out
    assert out.tobytes() == inverse.tobytes()
    assert a.tobytes() == before.tobytes()
    work = a.copy()
    assert ifft(work, out=work) is work
    assert work.tobytes() == inverse.tobytes()


def test_real_input_matches_scipy_fft_bytes():
    x = np.random.default_rng(5).standard_normal(1024)
    before = x.copy()
    assert fft(x).tobytes() == scipy.fft.fft(x).tobytes()
    assert ifft(x).tobytes() == scipy.fft.ifft(x).tobytes()
    out = np.empty(x.shape, dtype=complex)
    assert ifft(x, out=out) is out
    assert out.tobytes() == scipy.fft.ifft(x).tobytes()
    # the kernel takes no real output array, so a real input is never written
    with pytest.raises(RuntimeError, match="output array"):
        ifft(x, out=x)
    assert x.tobytes() == before.tobytes()


def _run_fresh(code, *path):
    """Run code in a fresh interpreter with path, then wpsim's src, on sys.path."""
    src = Path(wpsim._fft.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([*map(str, path), str(src)]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


LOADED_FIRST_PROBE = f"""
import sys
import numpy as np
from wpsim._fft import _c2c, fft, ifft
assert [m for m in sys.modules if m.split(".")[0] == "scipy"] == []
import scipy.fft
assert scipy.fft._pocketfft.pypocketfft.c2c is _c2c
for n in {SIZES!r}:
    for shape in ((n,), (2, n)):
        rng = np.random.default_rng(n)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert fft(a).tobytes() == scipy.fft.fft(a).tobytes(), shape
        assert ifft(a).tobytes() == scipy.fft.ifft(a).tobytes(), shape
print("ok")
"""


def test_kernel_loaded_before_scipy_fft_matches_its_bytes():
    # this module imports scipy.fft first; here wpsim loads the kernel first
    proc = _run_fresh(LOADED_FIRST_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]


MISSING_KERNEL_PROBE = """
import sys
try:
    import wpsim._fft
except ImportError as exc:
    print(exc.path)
    print(exc)
assert "scipy" not in sys.modules
"""


def test_missing_kernel_raises_without_importing_scipy(tmp_path):
    # a scipy package without the kernel file, whose own code must not run:
    # importing it would raise RuntimeError, not ImportError
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text('raise RuntimeError("scipy ran")\n')
    proc = _run_fresh(MISSING_KERNEL_PROBE, tmp_path)
    assert proc.returncode == 0, proc.stderr
    searched = str(tmp_path / "scipy" / "fft" / "_pocketfft" / "pypocketfft")
    path, message = proc.stdout.splitlines()
    assert path == searched
    assert searched in message
