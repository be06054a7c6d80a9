"""Coordinate descent orderings on convex quadratics.

A small laboratory for cyclic, randomized, and random-permutation
coordinate descent with exact line search: quadratic models with O(1)
coordinate gradients, the single-epoch matrix and its closed form for
the permutation-invariant family, the 2x2 permutation-expectation
recurrence with brute-force oracles, every standard rate predictor and
bound, Polyak-Lojasiewicz certificates for composed objectives, and a
command-line experiment harness (`cdlab`).
"""

from . import engine, errors, pl, quadratic, rates, recurrence
from .engine import *
from .errors import *
from .pl import *
from .quadratic import *
from .rates import *
from .recurrence import *

__version__ = "0.1.0"

# The package exports exactly what its modules export.
__all__ = [name for module in (engine, errors, pl, quadratic, rates, recurrence)
           for name in module.__all__]
