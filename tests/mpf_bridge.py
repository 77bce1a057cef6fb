"""The one bridge between thetakit's numbers and mpmath, the independent
oracle of the tests: an HPFloat is mantissa 2^exponent, and both
conversions are exact."""

from __future__ import annotations

from mpmath import mp
from mpmath.libmp import from_man_exp

from thetakit.numkernel import HPFloat


def to_mpf(x: HPFloat | tuple[int, int]):
    """An HPFloat, or a (mantissa, exponent) pair, as an exact mpf."""
    mantissa, exponent = x.value if isinstance(x, HPFloat) else x
    return mp.make_mpf(from_man_exp(mantissa, exponent))


def to_pair(value) -> tuple[int, int]:
    """An mpf as thetakit's exact (mantissa, exponent) pair."""
    sign, mantissa, exponent, _ = value._mpf_
    return (0, 0) if not mantissa else (-mantissa if sign else mantissa, exponent)


def from_mpf(value, digits: int) -> HPFloat:
    """An mpf as an HPFloat of the given precision, exactly."""
    return HPFloat(*to_pair(value), digits)
