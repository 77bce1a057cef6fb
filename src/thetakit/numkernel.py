"""Arbitrary-precision numeric kernel.

Provides the HPFloat scalar (an immutable wrapper around an mpmath value
carrying its decimal working precision), the AGM and the complete elliptic
integrals built on it, the nome, theta series, and the per-modulus
ModulusContext bundle.

One AGM loop, ``_agm_pass``, gives each modulus K and E from one pass: K and
``agm`` take its mean at 10^(1-digits), a looser rule than E's 10^(-digits-5)
that an exact modulus (ROADMAP direction 1) retires.

Every series in the nome (theta, the Lambert cumulants of ``cumulants``,
the moment and Hermite sums of ``verify``) is the one loop ``_series_sum``
over one table type, ``_Factors``, of int (mantissa, exponent) pairs at a
fixed relative precision of P = prec + _TABLE_GUARD bits, grown on demand
by running int products.  A context keeps its tables; a bare-nome theta
call builds a throwaway one.  The one error analysis: a factor stepped n
times is off by about n^2 2^(1-P) relative at most; the truncations of the
terms, the weights' own errors and the tail each stay below about
2^(-prec) times the first factor (``_series_sum``).  Each call converts to
mpf once, exactly, and keeps the scale's precision: the first HPFloat
operation on the result rounds it, so the conversion adds no rounding of
its own.  ``_log2`` reads the size of an mpf without an mpf operation.

This module alone turns a modulus into numbers: ``parse_modulus`` reads the
CLI's tokens (a decimal or '1/sqrt2'), ``make_context`` takes anything it
parses and memoises on the parsed value and the precision, up to
``_CONTEXT_MEMO`` entries, and ``dual_context`` is the one builder of the
complementary context.  m = k^2 is formed once, as ``ModulusContext.m``.
Series sums that depend on the context alone (theta3, the factor tables,
the moments) are kept with it through ``ModulusContext._once``, so the
context memo bounds them and clearing it drops them.

Every primitive runs with ``_GUARD`` extra digits (the one definition, which
the other modules import) so that its relative error stays below
10^(2 - digits).  All values are immutable and safe to share: HPFloat and
ModulusContext are __slots__ classes that refuse assignment, and the other
records are NamedTuples, so the package never imports dataclasses.

mpmath is imported when the first number is made, not with the module,
because its import is most of the start-up of an exact command, which makes
no number.  ``_mpmath`` binds ``mp``, ``dps_to_prec`` and ``from_man_exp``
in the three places where a number can start: ``hpf``, ``pi`` and
``HPFloat.__init__`` (for a value built from an mpf outside this module).
Every other use of mpmath here takes an HPFloat, so it runs after them.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Callable, Union

from .exactalg import _Frozen

__all__ = [
    "DEFAULT_DIGITS",
    "DomainError",
    "HPFloat",
    "ModulusContext",
    "hpf",
    "pi",
    "pow10",
    "agm",
    "ellipK",
    "ellipE",
    "LEMNISCATIC_TOKEN",
    "parse_modulus",
    "make_context",
    "dual_context",
    "lemniscatic_context",
    "theta",
    "theta0",
    "gamma_quarter",
]

DEFAULT_DIGITS = 50
_GUARD = 10  # extra working digits for every primitive
_CONTEXT_MEMO = 32  # contexts kept by make_context
_TABLE_GUARD = 8  # bits of a factor table beyond the working precision

Scalar = Union["HPFloat", int, Fraction, str]

mp = dps_to_prec = from_man_exp = None  # bound by _mpmath when the first number is made


def _mpmath() -> None:
    """Import mpmath and bind mp, dps_to_prec and from_man_exp, once."""
    global mp, dps_to_prec, from_man_exp
    if mp is None:
        from mpmath import mp
        from mpmath.libmp import dps_to_prec, from_man_exp


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class HPFloat(_Frozen):
    """Immutable real scalar with a stated decimal working precision.

    Arithmetic between two HPFloat values is carried out at the larger of
    the two precisions (plus guard digits).  Exact inputs are accepted as
    int, Fraction, or decimal string; binary floats are rejected because
    they silently corrupt decimal intent.
    """

    __slots__ = ("value", "digits")  # an mpmath.mpf and an int

    def __init__(self, value, digits: int) -> None:
        if digits < 15:
            raise DomainError("precision must be at least 15 decimal digits")
        _mpmath()  # a value built from an mpf outside this module
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "digits", digits)

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other: Scalar) -> "HPFloat":
        return other if isinstance(other, HPFloat) else hpf(other, self.digits)

    def _bin(self, other: Scalar, op) -> "HPFloat":
        rhs = self._coerce(other)
        return _at(max(self.digits, rhs.digits), op, self.value, rhs.value)

    def __add__(self, other: Scalar) -> "HPFloat":
        return self._bin(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other: Scalar) -> "HPFloat":
        return self._bin(other, lambda a, b: a - b)

    def __rsub__(self, other: Scalar) -> "HPFloat":
        return self._bin(other, lambda a, b: b - a)

    def __mul__(self, other: Scalar) -> "HPFloat":
        return self._bin(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "HPFloat":
        return self._bin(other, lambda a, b: a / b)

    def __rtruediv__(self, other: Scalar) -> "HPFloat":
        return self._bin(other, lambda a, b: b / a)

    def __pow__(self, exponent: int) -> "HPFloat":
        if not isinstance(exponent, int):
            raise TypeError("HPFloat powers take integer exponents")
        return _at(self.digits, pow, self.value, exponent)

    def __neg__(self) -> "HPFloat":
        # negation rounds to the ambient mpmath precision, so wrap it too
        return self._unary(operator.neg)

    def __abs__(self) -> "HPFloat":
        return self._unary(abs)

    # -- comparisons (by value, precision is not identity) ---------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (HPFloat, int, Fraction, str)):
            return self.value == self._coerce(other).value
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.value)

    def __lt__(self, other: Scalar) -> bool:
        return self.value < self._coerce(other).value

    def __le__(self, other: Scalar) -> bool:
        return self.value <= self._coerce(other).value

    def __gt__(self, other: Scalar) -> bool:
        return self.value > self._coerce(other).value

    def __ge__(self, other: Scalar) -> bool:
        return self.value >= self._coerce(other).value

    # -- elementary functions --------------------------------------------

    def _unary(self, op) -> "HPFloat":
        return _at(self.digits, op, self.value)

    def sqrt(self) -> "HPFloat":
        if self.value < 0:
            raise DomainError("sqrt of a negative value")
        return self._unary(mp.sqrt)

    def exp(self) -> "HPFloat":
        return self._unary(mp.exp)

    def log(self) -> "HPFloat":
        if self.value <= 0:
            raise DomainError("log of a non-positive value")
        return self._unary(mp.log)

    # -- conversions -------------------------------------------------------

    def to_decimal_string(self) -> str:
        return mp.nstr(self.value, self.digits)

    def __float__(self) -> float:
        return float(self.value)

    def __str__(self) -> str:
        return self.to_decimal_string()

    def __repr__(self) -> str:
        return f"HPFloat({self.to_decimal_string()!r}, digits={self.digits})"


def hpf(x: Scalar, digits: int = DEFAULT_DIGITS) -> HPFloat:
    """Build an HPFloat from an exact representation (never a float), or
    relabel an HPFloat to its own or a lower precision (never a higher one)."""
    if isinstance(x, HPFloat):
        if x.digits < digits:
            raise DomainError(f"a {x.digits}-digit value cannot be relabelled to {digits} digits")
        return x if x.digits == digits else HPFloat(x.value, digits)
    if isinstance(x, float):
        raise TypeError("binary floats are ambiguous; pass a str, int or Fraction")
    if isinstance(x, bool) or not isinstance(x, (int, Fraction, str)):
        raise TypeError(f"cannot build HPFloat from {type(x).__name__}")
    _mpmath()
    if isinstance(x, Fraction):
        return _at(digits, lambda a, b: mp.mpf(a) / mp.mpf(b), x.numerator, x.denominator)
    return _at(digits, mp.mpf, x)


def _at(digits: int, op, *args) -> HPFloat:
    """HPFloat(op(*args), digits) with op run at digits + _GUARD working
    digits.  It sets and restores mp.prec directly, which costs less than
    entering ``mp.workdps``, and restores it also when op raises."""
    saved = mp.prec
    mp.dps = digits + _GUARD
    try:
        return HPFloat(op(*args), digits)
    finally:
        mp.prec = saved


def pi(digits: int = DEFAULT_DIGITS) -> HPFloat:
    _mpmath()
    with mp.workdps(digits + _GUARD):
        return HPFloat(+mp.pi, digits)


def pow10(exponent: int, digits: int = DEFAULT_DIGITS) -> HPFloat:
    """Exact power of ten as an HPFloat; handy for tolerances."""
    return hpf(Fraction(10) ** exponent, digits)


LEMNISCATIC_TOKEN = "1/sqrt2"


def parse_modulus(token: Scalar, digits: int) -> HPFloat:
    """Parse a modulus: the token '1/sqrt2' exactly, or anything ``hpf``
    takes.  Only a str is compared with the token, because an HPFloat would
    coerce the token to a number."""
    if isinstance(token, str) and token == LEMNISCATIC_TOKEN:
        return hpf(Fraction(1, 2), digits).sqrt()
    return hpf(token, digits)


# ---------------------------------------------------------------------------
# AGM and complete elliptic integrals
# ---------------------------------------------------------------------------


def _agm_pass(a, b, c, digits: int):
    """The AGM from (a, b) at the ambient precision, carrying E's companion sum
    s = sum_j 2^(j-1) c_j^2, c_0 = c, c_{j+1} = (a_j - b_j)/2.  Yields a_j once
    |a_j - b_j| < 10^(1-digits)*a_j, then (a_j, s) once c_j and |a_j - b_j|/a_j
    are below 10^(-digits-5): absolute in c_j, so only for a_j <= 1."""
    eps_k, eps_e = mp.mpf(10) ** (1 - digits), mp.mpf(10) ** (-digits - 5)
    csum, weight, before_k = mp.mpf(0), mp.mpf(1) / 2, True
    while True:
        if before_k and abs(a - b) < eps_k * a:
            before_k = False
            yield a
        csum += weight * c * c
        if c < eps_e and abs(a - b) < eps_e * a:
            yield a, csum
            return
        a, b, c, weight = (a + b) / 2, mp.sqrt(a * b), (a - b) / 2, weight * 2


def agm(a: Scalar, b: Scalar, digits: int) -> HPFloat:
    """Arithmetic-geometric mean, iterated until |a_n - b_n| < 10^(1-digits)*a_n."""
    a_h, b_h = hpf(a, digits), hpf(b, digits)
    if a_h.value <= 0 or b_h.value <= 0:
        raise DomainError("agm requires positive inputs")
    with mp.workdps(digits + _GUARD):
        return HPFloat(next(_agm_pass(+a_h.value, +b_h.value, 0, digits)), digits)


def _complete(k: HPFloat) -> tuple[HPFloat, HPFloat, HPFloat, HPFloat]:
    """m = k^2, k' = sqrt(1 - m), and K = pi/(2a) at agm's rule and
    E = (pi/(2a))(1 - s) at E's rule from one ``_agm_pass`` from (1, k')."""
    if not (0 < k.value < 1):
        raise DomainError("elliptic modulus must satisfy 0 < k < 1")
    m = k * k
    kprime = (1 - m).sqrt()
    with mp.workdps(k.digits + _GUARD):
        mean_k, (mean_e, csum) = _agm_pass(mp.mpf(1), kprime.value, +k.value, k.digits)
        big_k = HPFloat(mp.pi / (2 * mean_k), k.digits)
        return m, kprime, big_k, HPFloat(mp.pi / (2 * mean_e) * (1 - csum), k.digits)


def ellipK(k: HPFloat) -> HPFloat:
    """Complete elliptic integral of the first kind via pi/(2*agm(1, k'))."""
    return _complete(k)[2]


def ellipE(k: HPFloat) -> HPFloat:
    """Complete elliptic integral of the second kind via the AGM companion
    sum E = K * (1 - sum_j 2^(j-1) c_j^2), c_0 = k, c_{j+1} = (a_j - b_j)/2."""
    return _complete(k)[3]


# ---------------------------------------------------------------------------
# Series in the nome: one factor table, one fixed-point loop, theta
# ---------------------------------------------------------------------------


def _require_nome(q: HPFloat) -> None:
    if not (0 < q.value < 1):
        raise DomainError("nome must satisfy 0 < q < 1")


def _log2(x) -> float:
    """log2 of a positive mpf, from its mantissa and exponent."""
    _, man, exp, _ = x._mpf_
    return math.log2(man) + exp


def _pair(x, bits: int) -> tuple[int, int]:
    """A positive mpf as a (man, exp) pair with a bits-bit mantissa, exact
    unless the mpf has more bits, which are truncated."""
    _, man, exp, bc = x._mpf_
    shift = bits - bc
    return man << shift if shift >= 0 else man >> -shift, exp - shift


def _times(a, b, bits: int) -> tuple[int, int]:
    """The product of two (man, exp) pairs, truncated to at most bits bits."""
    man = a[0] * b[0]
    drop = max(0, man.bit_length() - bits)
    return man >> drop, a[1] + b[1] + drop


class _Factors:
    """The factors f_n, n >= 1, of one series in a nome q, appended on
    demand as int pairs (man, exp), f_n ~ man 2^exp, at a fixed relative
    precision of P = prec + _TABLE_GUARD bits (prec for digits + _GUARD), so
    that an entry depends on q alone, not on which sum grew it.  fill(q, P)
    generates them from q as a P-bit pair by running int products, each
    truncated down to P bits.  exponent(n) bounds f_n <= f_1 q^exponent(n),
    which gives ``reach`` its index bound from the nome alone."""

    __slots__ = ("prec", "decay", "exponent", "values", "_more")

    def __init__(self, q: HPFloat, exponent: Callable[[int], int], fill) -> None:
        self.prec = dps_to_prec(q.digits + _GUARD)
        self.exponent, self.decay = exponent, -_log2(q.value)
        self.values: list[tuple[int, int]] = []
        bits = self.prec + _TABLE_GUARD
        self._more = fill(_pair(q.value, bits), bits)

    def __getitem__(self, n: int) -> tuple[int, int]:
        values = self.values
        while len(values) < n:
            values.append(next(self._more))
        return values[n - 1]

    def reach(self, weight_bits: Callable[[int], int]) -> int:
        """The first power of two n at which f_n 2^weight_bits(n) is below
        2^(-prec) f_1 by the bound f_n <= f_1 q^exponent(n)."""
        last = 1
        while self.decay * self.exponent(last) < self.prec + weight_bits(last):
            last *= 2
        return last


def _series_sum(factors: _Factors, weight: Callable[[int], tuple[int, int]],
                weight_bits: Callable[[int], int] = lambda n: 0, lead: int = 0):
    """lead + sum_{n >= 1} w(n) f_n over a factor table, as an mpf.

    weight(n) is w(n) as an int pair (v, s), w(n) ~ v 2^(-s), so an exact
    int (s = 0) is never shifted before the multiply; weight_bits(n) bounds
    log2 |w| up to n.  The sum is one int scaled by 2^S, S = prec plus the
    bits of the index bound ``reach`` above f_1 < 2^top: each term is
    truncated once onto it, so all of them stay below 2^(top-prec).  It
    stops after the first factor below 2^(top-prec) over the weight bound
    at ``reach``, so a small weight cannot end it early and the tail is of
    that order.  The lead is added exactly and the total converts to mpf
    once, exactly: the loop makes no mpf operation."""
    last = factors.reach(weight_bits)
    man, exp = factors[1]
    top = exp + man.bit_length()
    scale = factors.prec + last.bit_length() - top
    stop = top - factors.prec - weight_bits(last)
    total, n = lead << scale, 1
    while True:
        man, exp = factors[n]
        v, s = weight(n)
        shift, term = exp - s + scale, man * v
        total += term << shift if shift >= 0 else term >> -shift
        if exp + man.bit_length() <= stop:
            return mp.make_mpf(from_man_exp(total, -scale))
        n += 1


def _gaussian_factors(q: HPFloat, half: bool = False) -> _Factors:
    """The folded Gaussian factors f_n = 2 q^((n-h)^2), n >= 1, of the
    lattice sums, with h = 0, or h = 1/2 on the half lattice.  Each is a
    running product: q^((n+1-h)^2 - (n-h)^2) = q^(2n+1-2h) steps by q^2, so
    only the half lattice takes a root, q^(1/4), once.  After n steps f_n
    has a relative error below (n + 1)^2 2^(1-P)."""

    def fill(q1, bits):
        q2 = _times(q1, q1, bits)
        if half:
            with mp.workprec(bits):
                gauss, step = _pair(mp.sqrt(mp.sqrt(q.value)), bits), q2
        else:
            gauss, step = q1, _times(q2, q1, bits)
        while True:
            yield gauss[0], gauss[1] + 1
            gauss, step = _times(gauss, step, bits), _times(step, q2, bits)

    return _Factors(q, (lambda n: n * n - n) if half else (lambda n: n * n - 1), fill)


# theta index -> (half lattice, alternating sign, name of the trigonometric factor on mp)
_THETA_SERIES = {
    1: (True, -1, "sin"), 2: (True, 1, "cos"), 3: (False, 1, "cos"), 4: (False, -1, "cos"),
}


def theta(i: int, zarg: Scalar, q: HPFloat) -> HPFloat:
    """Theta function value theta_i(zarg, q) for real zarg, i in 1..4: the
    lattice sum of sign^(n-h) q^((n-h)^2) trig((2n-2h) z), with (h, sign,
    trig) from ``_THETA_SERIES``, by ``_series_sum`` over a throwaway table
    with the full lattice's n = 0 term as the lead 1.  At z = 0 the
    trigonometric factor is the exact int trig(0); elsewhere each term
    evaluates it in mpf and passes its mantissa and exponent as they are."""
    _require_nome(q)
    if i not in _THETA_SERIES:
        raise DomainError("theta index must be 1, 2, 3 or 4")
    half, sign, name = _THETA_SERIES[i]
    trig, digits = getattr(mp, name), q.digits
    z_h = zarg if isinstance(zarg, HPFloat) else hpf(zarg, digits)
    with mp.workdps(digits + _GUARD):
        zv = +z_h.value
        at_zero = int(trig(0))  # 1 for cos, 0 for sin

        def weight(n):
            if not zv:
                return sign ** (n - half) * at_zero, 0
            negative, man, exp, _ = trig((2 * n - half) * zv)._mpf_
            return sign ** (n - half) * (-man if negative else man), -exp

        return HPFloat(_series_sum(_gaussian_factors(q, half), weight, lead=1 - half), digits)


def theta0(i: int, q: HPFloat) -> HPFloat:
    """theta_i(0, q).  theta1 vanishes identically at 0."""
    return theta(i, 0, q)


# ---------------------------------------------------------------------------
# The lemniscatic gamma constant
# ---------------------------------------------------------------------------


def gamma_quarter(digits: int = DEFAULT_DIGITS) -> HPFloat:
    """Gamma(1/4) obtained from the lemniscatic AGM only:
    K(1/sqrt2) = pi/(2*agm(1, 1/sqrt2)) and Gamma(1/4) = sqrt(4*sqrt(pi)*K)."""
    pi_h = pi(digits)
    bigk = pi_h / (2 * agm(1, parse_modulus(LEMNISCATIC_TOKEN, digits), digits))
    return (4 * pi_h.sqrt() * bigk).sqrt()


# ---------------------------------------------------------------------------
# Per-modulus context
# ---------------------------------------------------------------------------


class ModulusContext(_Frozen):
    """All numeric quantities attached to one elliptic modulus k.

    Fields: k, m = k^2, kprime = sqrt(1 - m), the four complete integrals
    K, E, Kprime, Eprime, the nome q = exp(-pi*c) with c = Kprime/K, the
    theta square z = (2/pi) K, and the variance
    sigma2 = (K^2/pi^2)(E/K - kprime^2).  ``_series`` holds what the
    series layers sum once per context; it is not part of the value.
    """

    __slots__ = ("k", "m", "kprime", "K", "E", "Kprime", "Eprime", "q", "c", "z", "sigma2",
                 "digits", "_series")

    def __init__(self, k, m, kprime, K, E, Kprime, Eprime, q, c, z, sigma2, digits) -> None:
        for name, value in zip(self.__slots__, (k, m, kprime, K, E, Kprime, Eprime, q, c, z,
                                                sigma2, digits, {})):
            object.__setattr__(self, name, value)

    def _once(self, key, compute: Callable[[], object]):
        """The value kept under key, from compute() on first use."""
        if key not in self._series:
            self._series[key] = compute()
        return self._series[key]


def make_context(k: Scalar, digits: int = DEFAULT_DIGITS) -> ModulusContext:
    """The ModulusContext of modulus k (anything ``parse_modulus`` takes)
    at the requested precision.  Memoised on the parsed value, so a token,
    its HPFloat and an equal dual kprime share one context."""
    return _build_context(parse_modulus(k, digits), digits)


@functools.lru_cache(maxsize=_CONTEXT_MEMO)
def _build_context(k: HPFloat, digits: int) -> ModulusContext:
    m, kprime, big_k, big_e = _complete(k)
    _, _, big_kp, big_ep = _complete(kprime)
    c = big_kp / big_k
    pi_h = pi(digits)
    q = (-(pi_h * c)).exp()
    z = big_k * 2 / pi_h
    sigma2 = (big_k * big_k / (pi_h * pi_h)) * (big_e / big_k - kprime * kprime)
    return ModulusContext(
        k=k,
        m=m,
        kprime=kprime,
        K=big_k,
        E=big_e,
        Kprime=big_kp,
        Eprime=big_ep,
        q=q,
        c=c,
        z=z,
        sigma2=sigma2,
        digits=digits,
    )


def dual_context(ctx: ModulusContext) -> ModulusContext:
    """The context of the complementary modulus kprime at the same
    precision; its K is ctx.Kprime."""
    return make_context(ctx.kprime, ctx.digits)


def lemniscatic_context(digits: int = DEFAULT_DIGITS) -> ModulusContext:
    """Context at the self-dual modulus k = 1/sqrt2 (where K = K', q = e^-pi)."""
    return make_context(LEMNISCATIC_TOKEN, digits)
