"""FFT entry points with a process-wide worker count.

The worker count is read once, at import, from the WPSIM_THREADS environment
variable (default 1).  Results are bitwise reproducible for a fixed worker
count; changing it may reorder floating-point reductions inside the
transform, so runs are only guaranteed identical under the same setting.

``ifft(a, overwrite_x=True)`` lets the inverse transform reuse the memory
of ``a``; pass it only for a temporary that nothing reads afterwards.
"""

import os

import scipy.fft as _sfft


def _worker_count(value: str) -> int:
    try:
        return max(1, int(value))
    except ValueError:
        raise ValueError(f"WPSIM_THREADS must be an integer, got {value!r}") from None


WORKERS = _worker_count(os.environ.get("WPSIM_THREADS", "1"))


def fft(a):
    return _sfft.fft(a, workers=WORKERS)


def ifft(a, overwrite_x=False):
    return _sfft.ifft(a, overwrite_x=overwrite_x, workers=WORKERS)
