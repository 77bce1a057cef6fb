"""Moments of the theta-weighted integer distribution.

Contains the even-order complete Bell recursion that turns exact cumulant
polynomials into exact moment polynomials R_{2n}(m), the integer sequence
d(n) = 2^n R_{4n}(1/2) and its rational generalization to moduli 1/sqrt(p),
the integrality-conjecture explorer, the Q sequence with two independent
recurrences, and three mutually independent moment-from-cumulant formulas
(plain recurrence, Hessenberg determinant, set-partition sum).

The exact moments come from one sn recurrence (exactalg) and one
even-order Bell recursion (_bell_even), run in two rings.  The polynomial
route (bell_moments, cumulants.p_poly) runs them in Z[m] and serves the
polynomial tables and the numeric checks.  The sequences d, d_p, the
integrality table and Q are values at one rational point m = a/b, so they
take the point route: the same code on the ints b^degree times each value,
with no polynomial built.  The independent oracles in the tests are the
trivariate Schett route, the determinant and partition routes, the goldens
and q_from_a.

Grading convention: the exact pipeline works in Z[m]; a value of grade 2n
carries an implicit transcendental factor (z/2)^(2n).  Because the order-2
cumulant is not polynomial in m, the exact grade excludes it; exact moments
are therefore moments of the variance-removed variable.  Numeric-grade
moments include the variance and match the direct series.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .exactalg import ConsistencyError, UniPoly, _sn_extend, binomial
from .cumulants import cumulant_poly, cumulant_value
from .numkernel import HPFloat, ModulusContext, hpf

__all__ = [
    "MomentPoly",
    "ConjectureRow",
    "bell_moments",
    "d_sequence",
    "dk_sequence",
    "conjecture_check",
    "q_sequence",
    "q_value",
    "a_sequence",
    "q_from_a",
    "kappa_recurrence_check",
    "moments_from_cumulants",
    "moments_determinant",
    "moments_partition",
]


class MomentPoly(NamedTuple):
    """Exact moment of order 2n in graded form: mu_{2n} = (z/2)^(2n) R(m)."""

    n: int
    R: UniPoly


def _bell_even(kappa: list, r: list, N: int) -> list:
    """Extend r to R_0..R_{2N} by the even-order complete Bell recursion
        R_{2n} = kappa_{2n} + sum_{i=1}^{n-1} C(2n-1, 2i-1) kappa_{2i} R_{2n-2i},
    where kappa[i] = kappa_{2i} and r[n] = R_{2n}, skipping the zero
    cumulants, and return r.  The odd orders vanish and are not stored.
    The ring is the caller's: Z[m], the ints b^n R_{2n}(a/b) of the point
    route (b^i kappa_{2i} times b^(n-i) R_{2n-2i} is b^n times the term), or
    HPFloat with the variance included."""
    while len(r) <= N:
        n = len(r)
        acc = kappa[n]
        for i in range(1, n):
            if not _is_zero(kappa[i]):
                acc = acc + kappa[i] * r[n - i] * math.comb(2 * n - 1, 2 * i - 1)
        r.append(acc)
    return r


# The exact grade of the Bell recursion over Z[m], grown on demand and
# shared by bell_moments and moments_from_cumulants: _ZM_KAPPA[i] is the
# graded cumulant of order 2i (zero for i <= 1: the variance is excluded
# from the exact grade) and _ZM_R[n] = R_{2n}.
_ZM_KAPPA: list[UniPoly] = [UniPoly.zero(), UniPoly.zero()]
_ZM_R: list[UniPoly] = [UniPoly.one()]


def _exact_moments(N: int) -> list[UniPoly]:
    """The shared table of graded moments R_{2n}, grown to cover n = 0..N
    (it may hold more)."""
    while len(_ZM_KAPPA) <= N:
        _ZM_KAPPA.append(cumulant_poly(len(_ZM_KAPPA)).coefficient)
    return _bell_even(_ZM_KAPPA, _ZM_R, N)


def bell_moments(N: int) -> list[MomentPoly]:
    """Moment polynomials R_{2n} for n = 0..N via the even-order complete
    Bell recursion, run on the graded cumulant coefficients."""
    if N < 0:
        raise ValueError("N must be >= 0")
    r = _exact_moments(N)
    return [MomentPoly(n=n, R=r[n]) for n in range(N + 1)]


# The point route: the sn recurrence and the Bell recursion at one rational
# m = a/b in lowest terms.  A polynomial of degree g in Z[m], taken at a/b,
# is an integer once multiplied by b^g, so every step keeps b^g times its
# value and stays in the integers.  Only the results are divided by b^g.


def _point_cumulants(m: Fraction, count: int) -> list[int]:
    """b^(p+1) P_{2p}(m) for p = 0..count-1 (count >= 1), where m = a/b:
    P_{2p} = -m(1-m) [Y^2]_{2p}, and -m(1-m) acts as -a(b - a)."""
    a, b = m.numerator, m.denominator
    s, w = [1], [0]
    _sn_extend(a, b, s, w, count)
    return [-a * (b - a) * x for x in w]


def _point_kappa(m: Fraction, top: int) -> list[int]:
    """b^n kappa_{2n}(m) = (-1)^(n-1) b^n P_{2n-2}(m) for n = 0..top, the
    graded cumulants; those of n = 0 and n = 1 read 0, as P_0 = 0 and the
    variance is outside the exact grade.  At m = 1/2 they are the Q_{2n}."""
    return [0] + [(-1) ** n * x for n, x in enumerate(_point_cumulants(m, max(top, 1)))]


def _point_moments(m: Fraction, N: int) -> list[Fraction]:
    """R_{2n}(m) for n = 0..N: the even-order Bell recursion on b^n times
    each graded cumulant and moment."""
    b = m.denominator
    return [Fraction(x, b ** n) for n, x in enumerate(_bell_even(_point_kappa(m, N), [1], N))]


def d_sequence(N: int) -> list[int]:
    """The integer sequence d(n) = 2^n R_{4n}(1/2) for n = 1..N, by the
    point route at m = 1/2 (bell_moments is its oracle in the tests)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    values = _point_moments(Fraction(1, 2), 2 * N)
    out: list[int] = []
    for n in range(1, N + 1):
        value = values[2 * n] * 2 ** n
        if value.denominator != 1:
            raise ConsistencyError(f"d({n}) = {value} is not an integer")
        out.append(value.numerator)
    return out


def dk_sequence(p: int, N: int) -> list[Fraction]:
    """Exact rational values R_{4n}(1/p) for n = 0..N (modulus 1/sqrt(p)), by
    the point route at m = 1/p (bell_moments is its oracle in the tests)."""
    if p < 2:
        raise ValueError("p must be >= 2")
    if N < 0:
        raise ValueError("N must be >= 0")
    return _point_moments(Fraction(1, p), 2 * N)[::2]


# Scaling prefactors alpha_m for the integrality table, keyed by p.  Each
# maps the term index m >= 1 to an exact rational.  The p = 2 entry makes
# the scaled sequence coincide with d(m).
_ALPHA: dict[int, object] = {
    2: lambda m: Fraction(2) ** m,
    3: lambda m: Fraction(9, 4) ** m,
    4: lambda m: Fraction(8 ** m, 3),
    5: lambda m: Fraction(25, 8) ** m,
    6: lambda m: Fraction(18 ** m, 5),
    7: lambda m: Fraction(49 ** m, 4 ** m * 3),
}


class ConjectureRow(NamedTuple):
    """One scaled term of the integrality table for modulus 1/sqrt(p).

    For p in 2..7 the known prefactor alpha is applied and integrality is
    reported; for other p no prefactor is known, so alpha, scaled and
    is_integer are None and the prime factorization of the denominator of
    the raw value is supplied instead.
    """

    p: int
    m: int
    value: Fraction
    alpha: Fraction | None
    scaled: Fraction | None
    is_integer: bool | None
    denominator_factors: dict[int, int] | None = None


# Miller-Rabin to the prime bases up to 41 decides primality exactly below
# 3.3e24 (Sorenson and Webster); above that it is a strong probable-prime
# test to the same bases.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for base in _PRIME_BASES:
        if n % base == 0:
            return n == base
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in _PRIME_BASES:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _split(n: int) -> int:
    """A proper factor of a composite n with no prime factor below 42, by
    Brent's variant of Pollard's rho on y -> y^2 + c, taking one gcd per
    batch of 128 steps and replaying the last batch step by step when it
    overshoots to n."""
    for c in itertools.count(1):
        y, r, g, prod = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                saved = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    prod = prod * (x - y) % n
                g = math.gcd(prod, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = math.gcd(x - saved, n)
        if g != n:
            return g


def _factorize(x: int) -> dict[int, int]:
    """Prime factorization of x >= 1: trial division by the primes below 42,
    then Miller-Rabin and Pollard-Brent on what is left."""
    out: dict[int, int] = {}
    for prime in _PRIME_BASES:
        while x % prime == 0:
            out[prime] = out.get(prime, 0) + 1
            x //= prime
    pending = [x] if x > 1 else []
    while pending:
        n = pending.pop()
        if _is_prime(n):
            out[n] = out.get(n, 0) + 1
        else:
            d = _split(n)
            pending += [d, n // d]
    return dict(sorted(out.items()))


def _denominator_factors(denominator: int, p: int) -> dict[int, int]:
    """Prime factorization of the denominator of R_{4m}(1/p).  R_{4m} lies
    in Z[m], so the denominator divides a power of p: p is factored, not the
    denominator, and each prime of p is divided out of it."""
    out: dict[int, int] = {}
    for prime in _factorize(p):
        while denominator % prime == 0:
            out[prime] = out.get(prime, 0) + 1
            denominator //= prime
    if denominator != 1:
        raise ConsistencyError(f"a denominator at m = 1/{p} has the factor {denominator}")
    return out


def conjecture_check(p: int, N: int) -> list[ConjectureRow]:
    """Scaled integrality rows for m = 1..N at modulus 1/sqrt(p)."""
    values = dk_sequence(p, N)
    alpha_fn = _ALPHA.get(p)
    rows: list[ConjectureRow] = []
    for m in range(1, N + 1):
        value = values[m]
        alpha = None if alpha_fn is None else alpha_fn(m)
        scaled = None if alpha is None else alpha * value
        factors = _denominator_factors(value.denominator, p) if scaled is None else None
        rows.append(
            ConjectureRow(
                p=p,
                m=m,
                value=value,
                alpha=alpha,
                scaled=scaled,
                is_integer=None if scaled is None else scaled.denominator == 1,
                denominator_factors=factors,
            )
        )
    return rows


def q_value(n: int) -> int:
    """Q_{2n}, the cumulant coefficient in the self-dual grading
    kappa_{2n} = (z/(2 sqrt 2))^(2n) Q_{2n}; equals (-1)^(n-1) 2^n P_{2n-2}(1/2),
    by the point route at m = 1/2 (p_poly is its oracle in the tests)."""
    if n < 2:
        raise ValueError("Q is defined for order >= 4")
    return _point_kappa(Fraction(1, 2), n)[n]


def q_sequence(N: int) -> list[int]:
    """Q_{2n} for 2n = 4, 6, ..., 4N; asserts the 4l+2 entries vanish."""
    if N < 1:
        raise ValueError("N must be >= 1")
    q = _point_kappa(Fraction(1, 2), 2 * N)
    for n in range(3, 2 * N + 1, 2):
        if q[n] != 0:
            raise ConsistencyError(f"Q_{2 * n} = {q[n]}, expected 0 at order 4l+2")
    return q[2:]


def a_sequence(N: int) -> list[int]:
    """The quadratic-recurrence integers A_0..A_N:
    A_{n+1} = sum_{j=0}^{n} C(4n+4, 4j+2) A_j A_{n-j}, A_0 = 1."""
    if N < 0:
        raise ValueError("N must be >= 0")
    a = [1]
    for n in range(N):
        nxt = sum(binomial(4 * n + 4, 4 * j + 2) * a[j] * a[n - j] for j in range(n + 1))
        a.append(nxt)
    return a


def q_from_a(N: int) -> list[int]:
    """Second route to the nonzero Q entries: Q_{4n} = 2 (-12)^(n-1) A_{n-1}."""
    if N < 1:
        raise ValueError("N must be >= 1")
    a = a_sequence(N - 1)
    return [2 * (-12) ** (n - 1) * a[n - 1] for n in range(1, N + 1)]


def kappa_recurrence_check(N: int) -> bool:
    """Exact check of the self-dual quadratic cumulant recurrence
    kappa_{4n} = -6 sum_{j=0}^{n-2} C(4n-4, 4j+2) kappa_{4j+4} kappa_{4n-4j-4}
    for n <= N: whether Q_4..Q_{4N} of the point route equal ``q_from_a(N)``.
    With kappa_{4n} ~ Q_{4n} = 2 (-12)^(n-1) A_{n-1}, the recurrence is that
    of ``a_sequence``."""
    if N < 2:
        raise ValueError("N must be >= 2")
    return _point_kappa(Fraction(1, 2), 2 * N)[2::2] == q_from_a(N)


def moments_from_cumulants(N: int, ctx: ModulusContext | None = None) -> list:
    """Moments of every order 0..2N by the even-order Bell recursion, with
    a zero at each odd order.

    Without a context the computation is exact (grade coefficients in Z[m],
    order-2 cumulant excluded) and served from the table behind
    bell_moments.  With a context the cumulants are numeric and include the
    variance, so the result matches the direct theta-weighted series.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if ctx is None:
        r, zero = _exact_moments(N), UniPoly.zero()
    else:
        zero = hpf(0, ctx.digits)
        kappa = [zero] + [cumulant_value(2 * i, ctx) for i in range(1, N + 1)]
        r = _bell_even(kappa, [hpf(1, ctx.digits)], N)
    return [zero if n % 2 else r[n // 2] for n in range(2 * N + 1)]


def moments_determinant(n: int, cumulants: list) -> object:
    """The order-n moment as a scaled Hessenberg determinant.

    cumulants supplies kappa_1..kappa_n in the active grade (exact
    polynomials, rationals, or HPFloat).  The matrix H is n x n with
    H[r][0] = kappa_{r+1}/r!, unit superdiagonal, and
    H[r][c] = -kappa_{r-c+1}/(c (r-c)!) for 1 <= c <= r; then
    mu_n = (-1)^(n-1) (n-1)! det(H).  The determinant is evaluated by the
    Hessenberg recursion on the transpose (unit subdiagonal), never by
    general elimination.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    if len(cumulants) < n:
        raise ValueError(f"need kappa_1..kappa_{n}, got {len(cumulants)} values")

    def entry(r: int, c: int):
        if c == 0:
            return cumulants[r] * Fraction(1, math.factorial(r))
        return cumulants[r - c] * Fraction(-1, c * math.factorial(r - c))

    # determinant of the transpose (upper Hessenberg, unit subdiagonal):
    # D_k = A[k-1][k-1] D_{k-1} + sum_{j<k} (-1)^(k-j) A[j-1][k-1] D_{j-1}
    # with A[r][c] = entry(c, r).
    dets: list = [1]
    for k in range(1, n + 1):
        acc = entry(k - 1, k - 1) * dets[k - 1]
        for j in range(1, k):
            sign = -1 if (k - j) % 2 else 1
            term = entry(k - 1, j - 1) * dets[j - 1] * sign
            acc = acc + term
        dets.append(acc)
    prefactor = math.factorial(n - 1) * (1 if (n - 1) % 2 == 0 else -1)
    return dets[n] * prefactor


def _is_zero(v) -> bool:
    if isinstance(v, UniPoly):
        return not v
    if isinstance(v, HPFloat):
        return v.mantissa == 0
    return v == 0


def moments_partition(n: int, cumulants: list, cap: int = 12) -> object:
    """The order-n moment as a sum over set partitions of {1..n} of the
    product of block-size cumulants.

    Partitions are enumerated explicitly (each exactly once) by assigning
    the smallest remaining element a block and recursing; branches whose
    block cumulant is zero are pruned, which drops exactly the terms with a
    zero factor.  This is a cross-check oracle, deterministic, with a desk
    budget: cap defaults to 12 and may be raised to at most 14.
    """
    if not 1 <= n <= min(cap, 14):
        raise ValueError(f"order must be between 1 and {min(cap, 14)}")
    if len(cumulants) < n:
        raise ValueError(f"need kappa_1..kappa_{n}, got {len(cumulants)} values")
    kappa = list(cumulants)
    zero_size = [_is_zero(kappa[t]) for t in range(n)]

    def over_partitions(elems: tuple[int, ...]):
        if not elems:
            return 1
        rest = elems[1:]
        total = 0
        for t in range(len(rest) + 1):  # block size t+1 around elems[0]
            if zero_size[t]:
                continue
            kv = kappa[t]
            for members in itertools.combinations(rest, t):
                chosen = set(members)
                remaining = tuple(e for e in rest if e not in chosen)
                total = total + kv * over_partitions(remaining)
        return total

    # seed with a typed zero so a fully pruned sum stays in the input ring
    return kappa[0] * 0 + over_partitions(tuple(range(n)))
