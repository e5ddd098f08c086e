"""The spectral transforms: scipy's pocketfft kernel, bound once, on one thread.

``scipy.fft.fft`` and ``scipy.fft.ifft`` end in one compiled call,
``pypocketfft.c2c(a, axes, forward, inorm, out, nthreads)``.  Before it,
every call passes scipy's dispatch layer: the uarray backend lookup, a dtype
and alignment check of the input, the normalisation map and the worker
count.  At N = 64 that layer costs about twice the transform itself.  The
functions here call the kernel directly, with the arguments scipy.fft would
pass for a complex128 or float64 array with no ``n``, ``norm`` or ``workers``
given: the last axis, no normalisation forward, 1/N inverse, one thread.
The kernel is the same, so the bits are the same (``tests/test_fft.py``
compares them with public ``scipy.fft`` output; tested with scipy 1.17.1).

One thread: a transform's result depends only on its input, so outputs
depend only on the config and the seed, and pocketfft threads only across
independent rows, of which a (2, N) state has two.

``fft(a, out=buf)`` writes into a preallocated complex array of a's shape
that does not overlap a.  ``ifft(a, overwrite_x=True)`` transforms a complex
``a`` in place and returns it (a real ``a`` is left alone, as scipy.fft
does); pass it only for a buffer that nothing reads afterwards.
"""

from scipy.fft._pocketfft.pypocketfft import c2c as _c2c


def fft(a, out=None):
    """Forward DFT along the last axis, unnormalised."""
    return _c2c(a, (a.ndim - 1,), True, 0, out, 1)


def ifft(a, overwrite_x=False):
    """Inverse DFT along the last axis, divided by its length."""
    out = a if overwrite_x and a.dtype.kind == "c" else None
    return _c2c(a, (a.ndim - 1,), False, 2, out, 1)


__all__ = ["fft", "ifft"]
