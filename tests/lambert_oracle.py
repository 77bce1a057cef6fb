"""The hyperbolic-sine route to the Lambert cumulants, kept as a test oracle.

The library sums kappa_{2n} = sum_r (-1)^(r-1) r^(2n-1) 2 q^r / (1 - q^(2r))
by running products in the nome q.  This module sums the same series in its
original form, one sinh(c r pi) per term from c = K'/K, so it shares nothing
with thetakit.cumulants beyond the HPFloat container and the guard digits.
"""

from __future__ import annotations

from mpmath import mp

from thetakit.numkernel import _GUARD, DomainError, HPFloat

from mpf_bridge import from_mpf, to_mpf


def lambert_sinh(nmax: int, c: HPFloat, digits: int) -> list[tuple[HPFloat, HPFloat]]:
    """(kappa_{2n}, its absolute series) for n = 1..nmax at ``digits`` (c may
    carry more), where kappa_{2n} = sum_{r>=1} (-1)^(r-1) r^(2n-1) / sinh(c r pi)
    and the absolute series drops the signs: the size the alternating sum
    cancels from.  Each order is truncated when its own term falls below
    10^(-digits-5); one sinh per r serves every order."""
    if nmax < 1:
        raise DomainError("cumulant order index must be >= 1")
    with mp.workdps(digits + _GUARD):
        cv = +to_mpf(c)
        threshold = mp.mpf(10) ** (-digits - 5)
        totals = [mp.mpf(0)] * nmax
        sizes = [mp.mpf(0)] * nmax
        first_live = 1  # terms grow with n, so the finished orders are 1..first_live-1
        r = 1
        while first_live <= nmax:
            s = mp.sinh(cv * r * mp.pi)
            for n in range(first_live, nmax + 1):
                term = mp.mpf(r) ** (2 * n - 1) / s
                totals[n - 1] += -term if r % 2 == 0 else term
                sizes[n - 1] += term
                if n == first_live and term < threshold:
                    first_live = n + 1
            r += 1
        return [(from_mpf(t, digits), from_mpf(a, digits)) for t, a in zip(totals, sizes)]
