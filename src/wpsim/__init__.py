"""Two-channel wave-packet dynamics on a 1-D spectral grid.

Each public name is declared once, in the ``__all__`` of the module that
defines it; this package star-imports the six public modules and lists
their names, plus five of the submodules, in its own ``__all__``.
"""

__version__ = "0.1.0"

from .analytic import *
from .grid import *
from .mcwf import *
from .model import *
from .observables import *
# the star import below rebinds wpsim.propagate to the function, so the
# module's list is read through this alias
from . import propagate as _propagate
from .propagate import *

__all__ = [
    *analytic.__all__, *grid.__all__, *mcwf.__all__, *model.__all__, *observables.__all__,
    *_propagate.__all__,
    # the submodules that the imports above bind (wpsim.propagate is the function)
    "analytic", "grid", "mcwf", "model", "observables",
]
