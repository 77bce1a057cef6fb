"""Moments of the theta-weighted integer distribution.

Contains the graded complete Bell recursion that turns exact cumulant
polynomials into exact moment polynomials R_{2n}(m), the integer sequence
d(n) = 2^n R_{4n}(1/2) and its rational generalization to moduli 1/sqrt(p),
the integrality-conjecture explorer, the Q sequence with two independent
recurrences, and three mutually independent moment-from-cumulant formulas
(plain recurrence, Hessenberg determinant, set-partition sum).

Two routes reach the exact moments.  The polynomial route (bell_moments,
cumulants.p_poly) builds R_{2n} and P_{2p} in Z[m] and serves the
polynomial tables and the numeric checks.  The sequences d, d_p, the
integrality table and Q are values at one rational point m = a/b, so they
take the point route: it specialises to m first and runs the sn ODE, the
cumulants and the Bell recursion on integers.  The two routes share no code
beyond math.comb, and the polynomial route is the point route's oracle in
the tests.

Grading convention: the exact pipeline works in Z[m]; a value of grade 2n
carries an implicit transcendental factor (z/2)^(2n).  Because the order-2
cumulant is not polynomial in m, the exact grade excludes it; exact moments
are therefore moments of the variance-removed variable.  Numeric-grade
moments include the variance and match the direct series.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exactalg import ConsistencyError, UniPoly, binomial
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


@dataclass(frozen=True)
class MomentPoly:
    """Exact moment of order 2n in graded form: mu_{2n} = (z/2)^(2n) R(m)."""

    n: int
    R: UniPoly


def _graded_cumulant(order: int) -> UniPoly:
    """Grade coefficient of the order-th cumulant: zero for odd orders and
    for order 2 (the variance is excluded from the exact grade)."""
    if order % 2 or order == 2:
        return UniPoly.zero()
    return cumulant_poly(order // 2).coefficient


def _next_moment(kappa: list, mu: list) -> None:
    """Append mu_n for n = len(mu) by the complete Bell recursion
    mu_n = kappa_n + sum_{m=1}^{n-1} C(n-1, m-1) kappa_m mu_{n-m},
    skipping the zero cumulants."""
    n = len(mu)
    acc = kappa[n]
    for m in range(1, n):
        if not _is_zero(kappa[m]):
            acc = acc + kappa[m] * mu[n - m] * binomial(n - 1, m - 1)
    mu.append(acc)


# The exact grade of the Bell recursion, grown on demand and shared by
# bell_moments and moments_from_cumulants: graded cumulants and moments of
# orders 0, 1, 2, ...
_KAPPA: list[UniPoly] = [UniPoly.zero()]
_MU: list[UniPoly] = [UniPoly.one()]


def _exact_moments(top: int) -> list[UniPoly]:
    """The shared table of graded moments, grown to cover orders 0..top
    (it may hold more); odd orders must vanish."""
    while len(_MU) <= top:
        _KAPPA.append(_graded_cumulant(len(_KAPPA)))
        _next_moment(_KAPPA, _MU)
        if len(_MU) % 2 == 0 and _MU[-1]:
            raise ConsistencyError(f"odd-order graded moment B_{len(_MU) - 1} is nonzero")
    return _MU


def bell_moments(N: int) -> list[MomentPoly]:
    """Moment polynomials R_{2n} for n = 0..N via the complete Bell
    recursion B_{j+1} = sum_i C(j, i) c_{i+1} B_{j-i}, B_0 = 1, run on the
    graded cumulant coefficients."""
    if N < 0:
        raise ValueError("N must be >= 0")
    mu = _exact_moments(2 * N)
    return [MomentPoly(n=n, R=mu[2 * n]) for n in range(N + 1)]


# The point route.  A polynomial of degree g in Z[m], taken at m = a/b in
# lowest terms, is an integer once multiplied by b^g, so every step keeps
# b^g times its value and stays in the integers: 2m - 1 acts as 2a - b,
# 2m(1 - m) as 2a(b - a) and -m(1 - m) as -a(b - a).  Only the results are
# divided by b^g.


def _point_cumulants(m: Fraction, count: int) -> list[int]:
    """b^(p+1) P_{2p}(m) for p = 0..count-1 (count >= 1), where m = a/b.

    The nonzero EGF coefficients of the sn solution
    Y'' = (2m-1) Y - 2m(1-m) Y^3, Y(0) = 0, Y'(0) = 1, scaled by b^degree:
    s[n] = Y^(2n+1)(0) of degree n, w[p] = [Y^2]_{2p} of degree p - 1 and
    v = [Y^3]_{2n+1} of degree n - 1, with
        w[p] = sum_i C(2p, 2i+1) s[i] s[p-1-i],
        v    = sum_j C(2n+1, 2j+1) s[j] w[n-j],
        s[n+1] = (2a - b) s[n] - 2a(b - a) v,
    and P_{2p} = -m(1-m) [Y^2]_{2p}.
    """
    a, b = m.numerator, m.denominator
    s, w = [1], [0]
    while len(w) < count:
        p = len(w)
        if p >= 2:  # s[p-1], the last one w[p] needs
            n = p - 2
            v = sum(math.comb(2 * n + 1, 2 * j + 1) * s[j] * w[n - j] for j in range(n))
            s.append((2 * a - b) * s[n] - 2 * a * (b - a) * v)
        w.append(sum(math.comb(2 * p, 2 * i + 1) * s[i] * s[p - 1 - i] for i in range(p)))
    return [-a * (b - a) * x for x in w]


def _point_moments(m: Fraction, N: int) -> list[Fraction]:
    """R_{2n}(m) for n = 0..N.

    The graded cumulants kappa_{2n} = (-1)^(n-1) P_{2n-2}(m), n >= 2 (the
    variance is outside the exact grade), go through the even-order Bell
    recursion R_{2n} = kappa_{2n} + sum_i C(2n-1, 2i-1) kappa_{2i} R_{2n-2i}
    on b^n times each value.
    """
    b = m.denominator
    scaled_p = _point_cumulants(m, max(N, 1))
    kappa = [0, 0] + [(-1) ** (n - 1) * scaled_p[n - 1] for n in range(2, N + 1)]
    r = [1]
    for n in range(1, N + 1):
        acc = sum(math.comb(2 * n - 1, 2 * i - 1) * kappa[i] * r[n - i] for i in range(2, n))
        r.append(kappa[n] + acc)
    return [Fraction(x, b ** n) for n, x in enumerate(r)]


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


@dataclass(frozen=True)
class ConjectureRow:
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
    if p < 2:
        raise ValueError("p must be >= 2")
    if N < 0:
        raise ValueError("N must be >= 0")
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


def _q_values(top: int) -> list[int]:
    """Q_{2n} for n = 0..top from one point table at m = 1/2, where the
    scaled value 2^n P_{2n-2}(1/2) is already the integer (-1)^(n-1) Q_{2n}
    (Q_0 and Q_2 read 0: neither is in the exact grade)."""
    scaled_p = _point_cumulants(Fraction(1, 2), top)
    return [0] + [(-1) ** (n - 1) * scaled_p[n - 1] for n in range(1, top + 1)]


def q_value(n: int) -> int:
    """Q_{2n}, the cumulant coefficient in the self-dual grading
    kappa_{2n} = (z/(2 sqrt 2))^(2n) Q_{2n}; equals (-1)^(n-1) 2^n P_{2n-2}(1/2),
    by the point route at m = 1/2 (p_poly is its oracle in the tests)."""
    if n < 2:
        raise ValueError("Q is defined for order >= 4")
    return _q_values(n)[n]


def q_sequence(N: int) -> list[int]:
    """Q_{2n} for 2n = 4, 6, ..., 4N; asserts the 4l+2 entries vanish."""
    if N < 1:
        raise ValueError("N must be >= 1")
    q = _q_values(2 * N)
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
    for 2 <= n <= N, on the integers Q_{4n} of one point table (the common
    factor (z/(2 sqrt 2))^(4n) cancels)."""
    if N < 2:
        raise ValueError("N must be >= 2")
    q = _q_values(2 * N)
    for n in range(2, N + 1):
        rhs = sum(
            binomial(4 * n - 4, 4 * j + 2) * q[2 * j + 2] * q[2 * n - 2 * j - 2]
            for j in range(n - 1)
        )
        if q[2 * n] != -6 * rhs:
            return False
    return True


def moments_from_cumulants(N: int, ctx: ModulusContext | None = None) -> list:
    """Moments of every order 0..2N by the plain recurrence
    mu_n = kappa_n + sum_{m=1}^{n-1} C(n-1, m-1) kappa_m mu_{n-m}.

    Without a context the computation is exact (grade coefficients in Z[m],
    order-2 cumulant excluded) and served from the table behind
    bell_moments.  With a context the cumulants are numeric and include the
    variance, so the result matches the direct theta-weighted series.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    top = 2 * N
    if ctx is None:
        return _exact_moments(top)[: top + 1]
    kappa = [hpf(0, ctx.digits)] + [cumulant_value(order, ctx) for order in range(1, top + 1)]
    mu = [hpf(1, ctx.digits)]
    while len(mu) <= top:
        _next_moment(kappa, mu)
    return mu


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
        if c == r + 1:
            return 1
        if 1 <= c <= r:
            return cumulants[r - c] * Fraction(-1, c * math.factorial(r - c))
        return 0

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
        return v.value == 0
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
