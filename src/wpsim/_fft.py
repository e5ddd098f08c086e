"""The spectral transforms: scipy.fft's ``fft`` and ``ifft``, on one thread.

A transform's result depends only on its input, so outputs depend only on
the config and the seed.  scipy's backend threads only across independent
rows, and a (2, N) state has two, so a second worker would not speed up
the steps.

``ifft(a, overwrite_x=True)`` lets the inverse transform reuse the memory
of ``a``; pass it only for a temporary that nothing reads afterwards.
"""

from scipy.fft import fft, ifft

__all__ = ["fft", "ifft"]
