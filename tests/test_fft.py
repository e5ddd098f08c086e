"""wpsim's transforms call scipy's pocketfft kernel directly; they must give
the bytes of public scipy.fft, so a scipy that moves or changes the kernel
fails here."""

import numpy as np
import pytest
import scipy.fft

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
    assert ifft(a, overwrite_x=False).tobytes() == inverse.tobytes()
    assert a.tobytes() == before.tobytes()
    work = a.copy()
    assert ifft(work, overwrite_x=True) is work
    assert work.tobytes() == inverse.tobytes()


def test_real_input_matches_scipy_fft_bytes():
    x = np.random.default_rng(5).standard_normal(1024)
    before = x.copy()
    assert fft(x).tobytes() == scipy.fft.fft(x).tobytes()
    for overwrite in (False, True):
        assert ifft(x, overwrite_x=overwrite).tobytes() == scipy.fft.ifft(x).tobytes()
        assert x.tobytes() == before.tobytes()
