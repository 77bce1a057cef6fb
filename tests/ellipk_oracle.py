"""The hypergeometric route to K(k), kept as an independent test oracle.

The library computes K from the AGM.  This module sums the defining series
K = (pi/2) * sum_n ((1/2)_n / n!)^2 m^n with m = k^2 instead; it shares
nothing with thetakit.numkernel beyond the HPFloat container and the guard
digits.
"""

from __future__ import annotations

from mpmath import mp

from thetakit.numkernel import _GUARD, DomainError, HPFloat

from mpf_bridge import from_mpf, to_mpf


def ellipK_series(k: HPFloat) -> HPFloat:
    """K(k) by the hypergeometric series, summed until a term falls below
    10^(-digits-5) * (1 - m), which bounds the geometric tail."""
    if not 0 < k < 1:
        raise DomainError("elliptic modulus must satisfy 0 < k < 1")
    digits = k.digits
    with mp.workdps(digits + _GUARD):
        m = to_mpf(k) * to_mpf(k)
        threshold = mp.mpf(10) ** (-digits - 5) * (1 - m)
        term = mp.mpf(1)
        total = mp.mpf(1)
        n = 0
        while term >= threshold:
            ratio = ((n + mp.mpf(1) / 2) / (n + 1)) ** 2 * m
            term = term * ratio
            total += term
            n += 1
        return from_mpf(mp.pi / 2 * total, digits)
