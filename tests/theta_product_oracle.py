"""The Jacobi triple product route to theta3, kept as a test oracle.

The library sums theta3(q) = 1 + 2 sum_n q^(n^2) as a Gaussian lattice
series.  This module multiplies out the infinite product instead, so it
shares nothing with thetakit.numkernel beyond the HPFloat container and the
guard digits.
"""

from __future__ import annotations

from mpmath import mp

from thetakit.numkernel import _GUARD, HPFloat

from mpf_bridge import from_mpf, to_mpf


def theta3_product(q: HPFloat) -> HPFloat:
    """theta3 by its infinite product (q^2; q^2) (-q; q^2)^2, truncated when
    the running factor differs from 1 by less than the tail threshold.  The
    powers q^(2p-1) and q^(2p) are running products in q^2."""
    digits = q.digits
    with mp.workdps(digits + _GUARD):
        qv = +to_mpf(q)
        threshold = mp.mpf(10) ** (-digits - 5)
        q2 = qv * qv
        total = mp.mpf(1)
        odd, even = qv, q2
        while True:
            total *= (1 - even) * (1 + odd) ** 2
            if 2 * odd < threshold:
                break
            odd *= q2
            even *= q2
        return from_mpf(total, digits)
