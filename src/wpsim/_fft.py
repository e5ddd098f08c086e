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

The kernel is loaded from its file, not imported as
``scipy.fft._pocketfft.pypocketfft``: that import runs ``scipy/__init__.py``
and ``scipy/fft/__init__.py``, which pull in ``scipy.special``, scipy's
array-API layer and ``numpy.f2py``, some 85 scipy modules for one compiled
function and about 60% of the time a run's set-up takes (``import wpsim``,
``parse_config`` and ``derived_quantities``).  ``importlib.util.find_spec``
locates the scipy package without running its code, and the extension
loader runs only the kernel's own initialisation, so no scipy code runs.
The module is not put in ``sys.modules``: its parent packages are not
there, and a module without them would confuse a later ``import scipy.fft``.
That import finds the kernel in CPython's cache of loaded extension modules
and binds the same ``c2c``.  If the file is missing, importing this module
raises ``ImportError`` naming where it looked; there is no fall-back.

One thread: a transform's result depends only on its input, so outputs
depend only on the config and the seed, and pocketfft threads only across
independent rows, of which a (2, N) state has two.

``fft(a, out=buf)`` and ``ifft(a, out=buf)`` write into a preallocated
complex array of a's shape and return it.  ``fft``'s buffer does not overlap
a; ``ifft(a, out=a)`` transforms a complex ``a`` in place, so pass it only
for a buffer that nothing reads afterwards.  A real ``a`` is never written:
the kernel takes no real output array.
"""

import importlib.util
import os
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader

_KERNEL = "scipy.fft._pocketfft.pypocketfft"


def _load_kernel():
    """The pocketfft extension module, loaded from its file under scipy."""
    spec = importlib.util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec is not None else None
    if not roots:
        raise ImportError("scipy is not installed; wpsim needs its pocketfft kernel", name=_KERNEL)
    base = os.path.join(roots[0], "fft", "_pocketfft", "pypocketfft")
    for suffix in EXTENSION_SUFFIXES:
        path = base + suffix
        if os.path.isfile(path):
            loader = ExtensionFileLoader(_KERNEL, path)
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(_KERNEL, loader))
            loader.exec_module(module)
            return module
    raise ImportError(
        f"scipy's pocketfft kernel not found: searched {base} with the suffixes {EXTENSION_SUFFIXES}",
        name=_KERNEL, path=base,
    )


_c2c = _load_kernel().c2c


def fft(a, out=None):
    """Forward DFT along the last axis, unnormalised."""
    return _c2c(a, (a.ndim - 1,), True, 0, out, 1)


def ifft(a, out=None):
    """Inverse DFT along the last axis, divided by its length."""
    return _c2c(a, (a.ndim - 1,), False, 2, out, 1)


__all__ = ["fft", "ifft"]
