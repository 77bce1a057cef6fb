"""Cumulants of the theta-weighted integer distribution.

Three independent routes to the same quantities:

  exact    kappa_{2n} = (-1)^(n-1) (z/2)^(2n) P_{2n-2}(m), where P_{2p} is
           the binomial self-convolution of reduced Schett evaluations,
           read off the EGF of the square of the sn solution;
  lambert  kappa_{2n} = sum_{r>=1} (-1)^(r-1) r^(2n-1) / sinh(c r pi)
                     = sum_{r>=1} (-1)^(r-1) r^(2n-1) 2 q^r / (1 - q^(2r))
                     = 2 sum_{N>=1} a_N(n) q^N,
           a_N(n) = sum_{r | N, N/r odd} (-1)^(r-1) r^(2n-1), q = exp(-pi c)
           the nome: the kernel's one int dot product over one table of
           plain powers 2 q^N per context, shared by every order, with the
           exact int weights a_N(n), which depend on N and n alone;
  lattice  kappa_{2n} from a double sum over odd pairs (an Eisenstein-type
           series), absolutely convergent for 2n >= 4.

The exact route carries no transcendental factor: the grade index n implies
(z/2)^(2n), so CumulantPoly values live wholly in Z[m].
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple

from .exactalg import UniPoly, _sn_square
from .numkernel import (
    _Factors,
    _series_sum,
    _times,
    DomainError,
    HPFloat,
    ModulusContext,
    dual_context,
    hpf,
    pi,
)

__all__ = [
    "CumulantPoly",
    "EisensteinValue",
    "p_poly",
    "cumulant_poly",
    "cumulant_lambert",
    "cumulant_value",
    "cumulant_eisenstein",
    "symmetry_check_P",
    "cumulant_symmetry_residual",
]


class CumulantPoly(NamedTuple):
    """Exact cumulant of order 2n in graded form.

    kappa_{2n}(k) = sign * (z/2)^(2n) * P(m) with sign = (-1)^(n-1) and
    P = P_{2n-2}.  P is divisible by m(1-m) for n >= 2.
    """

    n: int
    P: UniPoly
    sign: int

    @property
    def coefficient(self) -> UniPoly:
        """The signed grade coefficient: kappa_{2n} = (z/2)^(2n) * coefficient(m)."""
        return self.P * self.sign

    def evaluate(self, ctx: ModulusContext) -> HPFloat:
        """Numeric cumulant kappa_{2n} at the context's modulus."""
        half_z = ctx.z / 2
        return half_z ** (2 * self.n) * (self.coefficient.evaluate(ctx.m))


def p_poly(p: int) -> UniPoly:
    """The self-convolution polynomial P_{2p}(m).

    P_{2p} = -m(1-m) * sum_{n=0}^{p-1} C(2p, 2n+1) S_n(m) S_{p-1-n}(m),
    the -m(1-m) factor being the product of the two stripped i*k*k'
    prefactors.  The sum is the EGF coefficient [Y^2]_{2p} of the square
    of the sn solution Y (S_n = Y^(2n+1)(0)), which the exact layer keeps
    memoized, so only the product with -m(1-m) is recomputed per call.
    P_0 is the zero polynomial.
    """
    if p < 0:
        raise ValueError("index must be >= 0")
    if p == 0:
        return UniPoly.zero()
    prefactor = UniPoly.from_ints([0, -1, 1])  # -m(1-m) = m^2 - m
    return prefactor * _sn_square(p)


def cumulant_poly(n: int) -> CumulantPoly:
    """Exact graded cumulant for order 2n, n >= 2.

    The order-2 cumulant is the variance, which is not polynomial in m and
    lives only in the numeric grade (ModulusContext.sigma2).
    """
    if n < 2:
        raise DomainError("exact cumulants start at order 4 (n >= 2)")
    sign = -1 if (n - 1) % 2 else 1
    return CumulantPoly(n=n, P=p_poly(n - 1), sign=sign)


def _power_factors(q: HPFloat) -> _Factors:
    """The factors f_N = 2 q^N = f_1 q^(N-1), N >= 1: q^N is one truncated
    product per entry, the square of q^(N/2) for even N (an int square costs
    about half a product) and q^(N-1) q for odd N, so it has a relative
    error below (2N - 1) 2^(-P)."""

    def fill(q1, bits):
        powers = [q1, q1]  # q^N at index N
        while True:
            yield powers[-1][0], powers[-1][1] + 1
            n = len(powers)
            half = powers[n >> 1]
            powers.append(_times(half, half, bits) if n % 2 == 0 else _times(powers[-1], q1, bits))

    return _Factors(q, lambda n: n - 1, fill)


# power -> [0, a_1, a_2, ...]: the Lambert weights of one order, grown in
# place to the longest table summed in this process
_LAMBERT_WEIGHTS: dict[int, list[int]] = {}


def _first_odd_multiple(low: int, step: int) -> int:
    """The least odd m with m step > low."""
    m = low // step + 1
    return m + 1 - m % 2


def _lambert_weights(power: int, count: int) -> list[int]:
    """[0, a_1, ..., a_L], L >= count, with a_N = sum_{r | N, N/r odd}
    (-1)^(r-1) r^power: for N = 2^a M, M odd, a_N = sigma_power(M) when
    a = 0 and -2^(a power) sigma_power(M) when a >= 1.  Kept per power and
    grown by at least a quarter of its length when a longer table asks, by a
    sieve over the new indices only: sigma_power(M) sums d^power over the odd pairs
    d j = M, in strided slices over d for each j up to sqrt(L) and over j
    for each smaller d, then a_(2^a M) is one strided slice per a."""
    sums = _LAMBERT_WEIGHTS.setdefault(power, [0])
    done = len(sums) - 1
    if done >= count:
        return sums
    size = max(count, done + done // 4)
    sums.extend(itertools.repeat(0, size - done))
    odd = list(map(pow, range(1, size + 1, 2), itertools.repeat(power)))  # d^power at (d - 1)/2
    root = math.isqrt(size)
    beyond = root + 1 + root % 2  # the least odd j above root
    for j in range(1, root + 1, 2):
        d = _first_odd_multiple(done, j)
        sums[d * j::2 * j] = map(operator.add, sums[d * j::2 * j], odd[d >> 1:])
    for d in range(1, size // beyond + 1, 2):
        j = max(beyond, _first_odd_multiple(done, d))
        sums[d * j::2 * d] = map(operator.add, sums[d * j::2 * d], itertools.repeat(odd[d >> 1]))
    twos = 2
    while twos <= size:
        m = _first_odd_multiple(done, twos)
        sums[m * twos::2 * twos] = map(operator.mul, sums[m:size // twos + 1:2],
                                       itertools.repeat(-twos ** power))
        twos *= 2
    return sums


def cumulant_lambert(n: int, ctx: ModulusContext) -> HPFloat:
    """Numeric kappa_{2n} by the alternating Lambert series in the nome,
    sum_r (-1)^(r-1) r^(2n-1) 2 q^r / (1 - q^(2r)) = 2 sum_N a_N(n) q^N with
    q = ctx.q, by the kernel's ``_series_sum`` over the context's one table
    of plain powers 2 q^N (``_power_factors``), grown to the longest order
    asked, and the exact int weights a_N(n) of ``_lambert_weights``, built
    once per process and grown with the longest table.  They are bounded by
    |a_N| <= N^(2n-1) H_N, H_N the harmonic number.  No term makes a rounded
    operation, a transcendental call or a division."""
    if n < 1:
        raise DomainError("cumulant order index must be >= 1")
    power = 2 * n - 1
    factors = ctx._once("powers", lambda: _power_factors(ctx.q))
    total = _series_sum(factors,
                        lambda count: itertools.islice(_lambert_weights(power, count), 1, None),
                        lambda N: (N ** power * (N.bit_length() + 1)).bit_length())
    return HPFloat(*total, ctx.digits)


def cumulant_value(order: int, ctx: ModulusContext) -> HPFloat:
    """Numeric cumulant of any order: odd orders vanish identically."""
    if order < 1:
        raise DomainError("cumulant order must be >= 1")
    if order % 2:
        return hpf(0, ctx.digits)
    return cumulant_lambert(order // 2, ctx)


class EisensteinValue(NamedTuple):
    """A truncated lattice-sum cumulant and its crude tail estimate."""

    value: HPFloat
    tail: HPFloat


def cumulant_eisenstein(n: int, ctx: ModulusContext, lattice_cutoff: int) -> EisensteinValue:
    """kappa_{2n} as a truncated double sum over odd lattice pairs.

    The full-lattice form  (-1)^(n+1) (2n-1)!/pi^(2n) * sum over odd a, b
    of (a + i c b)^(-2n)  folds into the positive quadrant as
    4 * Re((a + i c b)^(-2n)); the quadrant is truncated at
    a, b <= 2*lattice_cutoff - 1.  Only n >= 2 is admitted: the 2n = 2 sum
    converges conditionally and would be ordering-dependent.

    The lattice is summed in Python complex floats; its roundoff is still
    far below the truncation tail O(cutoff^(2-2n)), which is what the
    returned tail field estimates.  A float sum holds no more than float
    precision, whatever ctx.digits is, so value and tail are labelled at
    HPFloat's floor of 15 digits.
    """
    if n < 2:
        raise DomainError("lattice-sum cumulants require n >= 2")
    if lattice_cutoff < 1:
        raise DomainError("lattice cutoff must be >= 1")
    digits = 15
    c = hpf(ctx.c, digits)
    odd = range(1, 2 * lattice_cutoff, 2)
    column = [1j * float(c) * b for b in odd]
    total = sum(sum([(a + w) ** (-2 * n) for w in column]).real for a in odd)
    sign = 1 if (n + 1) % 2 == 0 else -1
    pi_h = pi(digits)
    prefactor = sign * 4 * math.factorial(2 * n - 1) / pi_h ** (2 * n)
    value = prefactor * hpf(Fraction(total), digits)
    # crude tail: odd-pair density 1/4, radial integral outside R
    radius = (2 * lattice_cutoff - 1) * min(hpf(1, digits), c)
    points = (pi_h / (8 * c)) * radius ** (2 - 2 * n) / (n - 1)
    return EisensteinValue(value=value, tail=abs(prefactor) * points)


def symmetry_check_P(n: int) -> bool:
    """Exact check that P_{2n}(1 - m) = (-1)^(n-1) P_{2n}(m) in Z[m]."""
    if n < 1:
        raise ValueError("index must be >= 1")
    p = p_poly(n)
    flipped = p.compose_affine(-1, 1)
    expected = p if (n - 1) % 2 == 0 else -p
    return flipped == expected


def cumulant_symmetry_residual(n: int, ctx: ModulusContext) -> HPFloat:
    """Numeric residual of the dual-modulus cumulant relation
    kappa_{2n}(k') = (-1)^n (K'/K)^(2n) kappa_{2n}(k), both sides by the
    Lambert series."""
    if n < 2:
        raise DomainError("dual-modulus relation applies for n >= 2")
    lhs = cumulant_lambert(n, dual_context(ctx))
    ratio = ctx.c ** (2 * n)  # (K'/K)^(2n)
    sign = 1 if n % 2 == 0 else -1
    rhs = cumulant_lambert(n, ctx) * ratio * sign
    return abs(lhs - rhs)
