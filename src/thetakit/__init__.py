"""thetakit: exact and high-precision tools for theta-series moments.

The package computes the cumulant and moment polynomials of the discrete
normal distribution in exact rational arithmetic, generates the associated
integer sequences, and verifies every closed form against independent
high-precision series oracles.
"""

from . import exactalg, numkernel, cumulants, moments, combinatorics, verify
from .exactalg import *
from .numkernel import *
from .cumulants import *
from .moments import *
from .combinatorics import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (exactalg, numkernel, cumulants, moments, combinatorics, verify)
    for name in module.__all__
]
