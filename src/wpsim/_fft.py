"""The spectral transforms: scipy.fft's ``fft`` and ``ifft``, on one thread.

A transform's result depends only on its input, so outputs depend only on
the config and the seed.  scipy's backend threads only across independent
rows, and a (2, N) state has two, so a second worker would not speed up
the steps.  The worker count is bound here once: a call without
``workers`` looks up scipy's thread-local default on every call, which
costs a measurable share of a transform at N = 64.

``ifft(a, overwrite_x=True)`` lets the inverse transform reuse the memory
of ``a``; pass it only for a temporary that nothing reads afterwards.
"""

from functools import partial

import scipy.fft

fft = partial(scipy.fft.fft, workers=1)
ifft = partial(scipy.fft.ifft, workers=1)

__all__ = ["fft", "ifft"]
