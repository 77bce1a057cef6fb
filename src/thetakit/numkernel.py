"""Arbitrary-precision numeric kernel.

Provides the HPFloat scalar (an immutable binary float on Python ints,
carrying its decimal working precision), the AGM and the complete elliptic
integrals built on it, the nome, the theta constants, and the per-modulus
ModulusContext bundle.

The number format.  An HPFloat is mantissa 2^exponent for ints mantissa and
exponent, with an odd mantissa or (0, 0), so equal values have equal fields
and the context memo keys on them.  A digits-digit value works at
prec = round((digits + _GUARD + 1) log2 10) bits (``_bits``), and every
operation rounds its result half to even to the prec of the larger of its
operands' precisions.  +, -, *, /, sqrt (one ``math.isqrt``), negation,
abs, squares and positive powers below 1000 bits, and conversion from an
int, a Fraction's rounded numerator and denominator, or a decimal string
whose exponent is within +-400 are correctly rounded (an addend of more than
prec + 4 bits can break a tie the wrong way).  Other powers truncate their
products to prec + 4 bits(n) + 4 bits, and negative ones invert a power at
prec + 5 bits: within an ulp.  pi, exp and log work in fixed-point ints
with at least 64 guard bits and round once, so they are correctly rounded
unless the true value lies within about 2^(-60) ulp of a tie.
``to_decimal_string`` rounds half up on the first digits + 3 decimal digits,
truncated.  There is no other arithmetic path.

One AGM function, ``_agm``, gives each modulus K and E from one pass: K and
``agm`` take its mean at 10^(1-digits), a looser rule than E's 10^(-digits-5)
that an exact modulus (ROADMAP direction 1) retires.  Gamma(1/4) comes from
the lemniscatic context's K, so it runs no AGM of its own.

Every series in the nome (the theta constants, the Lambert cumulants of
``cumulants``, the power sums behind the moment and Hermite sums of
``verify``) is one int dot product, ``_series_sum``, over one table type,
``_Factors``, of int (mantissa, exponent) pairs at a fixed relative
precision of P = prec + _TABLE_GUARD bits, grown on demand by running int
products.  A context keeps its tables; a ``theta0`` call builds a throwaway
one.  The one error analysis: a factor stepped n times is off by about
n^2 2^(1-P) relative at most.  The sum takes the factors down to 2^(-prec)
of the first over the weight bound, and shifts each once onto a scale of
prec bits below the first factor plus the bits of the index bound, widened
by the bits of the weight bound: times its weight, each truncation is below
one unit of the unwidened scale, so the truncations together, like the tail,
stay below about 2^(-prec) times the first factor.  The weights are exact
ints, so the dot product itself is exact: each call returns its sum exactly
and keeps the scale's precision, and the first HPFloat operation on the
result rounds it, so the sum adds no rounding of its own.

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
records are NamedTuples, so the package never imports dataclasses.  pi and
ln 2 are computed on first use and cached per precision, so importing the
module computes nothing.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import sys
from fractions import Fraction
from typing import Callable, Iterable, Union

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
    "LEMNISCATIC_TOKEN",
    "parse_modulus",
    "make_context",
    "dual_context",
    "lemniscatic_context",
    "theta0",
    "gamma_quarter",
]

DEFAULT_DIGITS = 50
_GUARD = 10  # extra working digits for every primitive
_CONTEXT_MEMO = 32  # contexts kept by make_context
_TABLE_GUARD = 8  # bits of a factor table beyond the working precision

Scalar = Union["HPFloat", int, Fraction, str]


# ---------------------------------------------------------------------------
# The number format: a value is man 2^exp for ints man and exp, with man odd
# or (man, exp) = (0, 0).  The functions below take and return such pairs;
# prec is a precision in bits, and each result is rounded to it half to even.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _bits(digits: int) -> int:
    """The working precision of a digits-digit value in bits: that of
    digits + _GUARD decimal digits, round((digits + _GUARD + 1) log2 10)."""
    return max(1, round((digits + _GUARD + 1) * 3.3219280948873626))


def _exact(man: int, exp: int) -> tuple[int, int]:
    """man 2^exp in canonical form, unrounded."""
    if man & 1:  # already canonical, as most results are
        return man, exp
    if not man:
        return 0, 0
    zeros = (man & -man).bit_length() - 1
    return man >> zeros, exp + zeros


def _round(man: int, exp: int, prec: int) -> tuple[int, int]:
    """man 2^exp rounded half to even to prec bits."""
    size = abs(man)
    drop = size.bit_length() - prec
    if drop > 0:
        kept = size >> (drop - 1)  # the kept bits and the half bit
        if kept & 1 and (kept & 2 or size & ((1 << (drop - 1)) - 1)):
            kept += 2
        man, exp = (-(kept >> 1) if man < 0 else kept >> 1), exp + drop
    return _exact(man, exp)


def _add(a, b, prec: int):
    """a + b.  When b lies more than prec + 4 bits below a's lead, a unit
    prec + 4 bits below a's last bit stands in for it, which rounds as the
    exact sum does while a has at most prec + 4 bits."""
    (am, ae), (bm, be) = a, b
    if not am or not bm:
        return _round(am + bm, be if bm else ae, prec)
    if ae < be:
        (am, ae), (bm, be) = (bm, be), (am, ae)
    offset = ae - be
    if offset > 100 and abs(am).bit_length() + offset - abs(bm).bit_length() > prec + 4:
        return _round((am << (prec + 4)) + (1 if bm > 0 else -1), ae - prec - 4, prec)
    return _round((am << offset) + bm, be, prec)


def _sub(a, b, prec: int):
    return _add(a, (-b[0], b[1]), prec)


def _mul(a, b, prec: int):
    return _round(a[0] * b[0], a[1] + b[1], prec)


def _div(a, b, prec: int):
    """a / b from one int quotient of at least prec + 5 bits, with a sticky
    low bit when it leaves a remainder."""
    (am, ae), (bm, be) = a, b
    if not bm:
        raise ZeroDivisionError("division by zero")
    size, divisor = abs(am), abs(bm)
    extra = max(5, prec - size.bit_length() + divisor.bit_length() + 5)
    quot, rem = divmod(size << extra, divisor)
    if rem:
        quot, extra = (quot << 1) | 1, extra + 1
    return _round(-quot if (am < 0) != (bm < 0) else quot, ae - be - extra, prec)


def _sqrt(a, prec: int):
    """sqrt(a) for a >= 0 from one math.isqrt, with a sticky low bit when
    the root is inexact."""
    man, exp = a
    if exp & 1:
        man, exp = man << 1, exp - 1
    shift = max(4, 2 * prec - man.bit_length() + 4)
    shift += shift & 1
    square = man << shift
    root = math.isqrt(square)
    if root * root != square:
        root, shift = (root << 1) | 1, shift + 2
    return _round(root, (exp - shift) // 2, prec)


def _pow(a, n: int, prec: int):
    """a^n for an int n: exact and then rounded for n = 2 or a power below
    1000 bits, else binary powering that truncates every product to
    prec + 4 bits(n) + 4 bits.  For n < -1 it inverts the power at prec + 5."""
    man, exp = a
    if n in (0, 1, 2):
        return (1, 0) if n == 0 else _round(man ** n, exp * n, prec)
    if n < 0:
        return _div((1, 0), a if n == -1 else _pow(a, -n, prec + 5), prec)
    negative, man = man < 0 and n & 1, abs(man)
    if man.bit_length() * n < 1000:
        power, power_exp = man ** n, exp * n
    else:
        work, power, power_exp = prec + 4 * n.bit_length() + 4, 1, 0
        while True:
            if n & 1:
                power, power_exp = power * man, power_exp + exp
                drop = max(0, power.bit_length() - work)
                power, power_exp = power >> drop, power_exp + drop
                n -= 1
                if not n:
                    break
            man, exp = man * man, 2 * exp
            drop = max(0, man.bit_length() - work)
            man, exp = man >> drop, exp + drop
            n //= 2
    return _round(-power if negative else power, power_exp, prec)


def _cmp(a, b) -> int:
    """-1, 0 or 1 as a is below, equal to or above b, exactly."""
    (am, ae), (bm, be) = a, b
    sa, sb = (am > 0) - (am < 0), (bm > 0) - (bm < 0)
    if sa != sb or not sa:
        return (sa > sb) - (sa < sb)
    ta, tb = abs(am).bit_length() + ae, abs(bm).bit_length() + be
    if ta != tb:
        return sa if ta > tb else -sa
    diff = (am << (ae - be)) - bm if ae >= be else am - (bm << (be - ae))
    return (diff > 0) - (diff < 0)


# -- transcendental functions: fixed-point ints at 64 or more guard bits, off
# by a few units of the last, then one rounding, so a result is correctly
# rounded unless the true value lies within about 2^(-60) ulp of a tie.


def _fixed(a, wp: int) -> int:
    """floor(a 2^wp)."""
    man, exp = a
    shift = exp + wp
    return man << shift if shift >= 0 else man >> -shift


def _acot(x: int, wp: int, hyperbolic: bool) -> int:
    """acot(x) 2^wp, or acoth(x) 2^wp, for an int x >= 2, within about wp
    units: the series sum_k (+-1)^k / ((2k + 1) x^(2k + 1))."""
    term = total = (1 << wp) // x
    square, odd, flip = x * x, 3, 1 if hyperbolic else -1
    sign = flip
    while term:
        term //= square
        total += sign * term // odd
        odd, sign = odd + 2, sign * flip
    return total


@functools.lru_cache(maxsize=16)
def _constants_at(wp: int) -> tuple[int, int]:
    """pi 2^wp and ln2 2^wp within a unit: Machin's formula and
    18 acoth 26 - 2 acoth 4801 + 8 acoth 8749, at 32 guard bits."""
    work = wp + 32
    pi_ = 4 * (4 * _acot(5, work, False) - _acot(239, work, False))
    ln2 = 18 * _acot(26, work, True) - 2 * _acot(4801, work, True) + 8 * _acot(8749, work, True)
    return pi_ >> 32, ln2 >> 32


def _constants(wp: int) -> tuple[int, int]:
    """pi 2^wp and ln2 2^wp within two units, shifted down from a cached
    precision that is a multiple of 256."""
    top = -(-wp // 256) * 256
    pi_, ln2 = _constants_at(top)
    return pi_ >> (top - wp), ln2 >> (top - wp)


@functools.lru_cache(maxsize=64)
def _pi(prec: int):
    return _round(_constants(prec + 64)[0], -prec - 64, prec)


def _exp(a, prec: int):
    """e^a: a = n ln2 + r with 0 <= r < ln2, the Taylor series of r/2^s
    squared s times, and the factor 2^n in the exponent."""
    man, exp = a
    mag = abs(man).bit_length() + exp  # |a| < 2^mag
    if not man or mag < -prec - 4:  # e^a rounds to 1
        return 1, 0
    steps = int(math.sqrt(prec / 2))
    wp = prec + 64 + max(0, mag) + steps
    n, r = divmod(_fixed(a, wp), _constants(wp)[1])
    r >>= steps
    total = term = 1 << wp
    k = 1
    while term:
        term = (term * r >> wp) // k
        total, k = total + term, k + 1
    for _ in range(steps):
        total = total * total >> wp
    return _round(total, n - wp, prec)


def _log(a, prec: int):
    """log a for a > 0: a = m 2^e with 1/sqrt2 <= m < sqrt2, and log m =
    2 atanh((m - 1)/(m + 1)); near a = 1 the bits that cancel are added."""
    man, exp = a
    e = man.bit_length() + exp
    if 2 * man * man < 1 << (2 * man.bit_length()):  # m = man/2^bits < 1/sqrt2
        e -= 1
    if e == 0:
        if (man, exp) == (1, 0):
            return 0, 0
        near = man - (1 << -exp)  # a - 1 = near 2^exp, and 0 < a < 2 gives exp < 0
        wp = prec + 64 + max(0, -(abs(near).bit_length() + exp))
    else:
        wp = prec + 64 + e.bit_length()
    one = 1 << wp
    m = _fixed((man, exp - e), wp)
    z = (abs(m - one) << wp) // (m + one)
    square, total, term, odd = z * z >> wp, z, z, 3
    while term:
        term = term * square >> wp
        total, odd = total + term // odd, odd + 2
    return _round((2 * total if m >= one else -2 * total) + e * _constants(wp)[1], -wp, prec)


# -- decimal strings


def _from_str(text: str, prec: int):
    """A decimal literal as float() takes it (but not inf or nan), or p/q
    for ints p and q, correctly rounded, except that a decimal exponent
    beyond +-400 scales by a power of ten rounded at prec + 10 bits, which
    is within an ulp."""
    x = text.lower().strip()
    if "/" in x:
        num, den = (int(part.rstrip("l")) for part in x.split("/"))
        if not den:
            raise ValueError(f"{text!r} has a zero denominator")
        return _div((num, 0), (den, 0), prec)
    x = x.rstrip("l")  # the long suffix of Python 2 literals is ignored
    if x in ("inf", "+inf", "-inf", "nan"):
        raise ValueError(f"{text!r} is not a finite number")
    float(x)  # the literal must be a valid float
    digits, _, power = x.partition("e")
    exp10 = int(power or 0)
    whole, point, fraction = digits.partition(".")
    if point:
        fraction = fraction.rstrip("0")
        digits, exp10 = whole + fraction, exp10 - len(fraction)
    man = int(digits)
    if abs(exp10) > 400:
        scale = _pow((5, 1), abs(exp10), prec + 10)
        return (_mul if exp10 > 0 else _div)((man, 0), scale, prec)
    if exp10 >= 0:
        return _round(man * 10 ** exp10, 0, prec)
    return _div((man, 0), (10 ** -exp10, 0), prec)


def _to_str(man: int, exp: int, dps: int) -> str:
    """The value to dps significant digits: the first dps + 3 digits,
    truncated, decide the rounding, which is half up; trailing zeros go;
    the point is fixed for leading-digit positions strictly between
    min(-(dps // 3), -5) and dps, else an exponent e+N or e-N follows."""
    if not man:
        return "0.0"
    sign, man = ("-" if man < 0 else ""), abs(man)
    digits, exponent = _leading_digits(man, exp, dps + 3)
    if len(digits) > dps and digits[dps] in "56789":
        kept = digits[:dps].rstrip("9")
        if kept:
            digits = kept[:-1] + str(int(kept[-1]) + 1) + "0" * (dps - len(kept))
        else:  # 99..9 carries into a new leading digit
            digits, exponent = "1" + "0" * (dps - 1), exponent + 1
    else:
        digits = digits[:dps]
    if min(-(dps // 3), -5) < exponent < dps:
        if exponent < 0:
            digits, split = "0" * -exponent + digits, 1
        else:
            split = exponent + 1
            digits += "0" * (split - dps)
        exponent = 0
    else:
        split = 1
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    if digits.endswith("."):
        digits += "0"
    if exponent == 0:
        return sign + digits
    return f"{sign}{digits}e{'+' if exponent > 0 else ''}{exponent}"


def _leading_digits(man: int, exp: int, dps: int) -> tuple[str, int]:
    """The decimal digits of man 2^exp > 0, truncated, and the exponent of
    the first: man 2^exp on floor(bitprec) fractional bits times 10^fixdps,
    floored.  A value beyond 2^(+-3500) is divided by a power of ten near
    it first, truncated to bitprec bits."""
    bitprec = int(dps * math.log(10, 2)) + 10
    exponent = 0
    if abs(exp + man.bit_length()) > 3500:
        exponent = int(exp * math.log10(2))
        num, den = man << max(exp, 0), 1 << max(-exp, 0)
        if exponent >= 0:
            den *= 10 ** exponent
        else:
            num *= 10 ** -exponent
        shift = bitprec + 1 - (num.bit_length() - den.bit_length())
        man = (num << shift) // den if shift >= 0 else num // (den << -shift)
        drop = max(0, man.bit_length() - bitprec)
        man, exp = man >> drop, drop - shift
    fixprec = max(bitprec - exp - man.bit_length(), 0)
    fixdps = int(fixprec / math.log(10, 2) + 0.5)
    digits = _numeral(_fixed((man, exp), fixprec) * _ten_to(fixdps) >> fixprec)
    return digits, exponent + len(digits) - fixdps - 1


@functools.lru_cache(maxsize=64)
def _ten_to(n: int) -> int:
    """10^n: the renderings of one report share a few dozen scales."""
    return 10 ** n


def _numeral(n: int) -> str:
    """str(n) for an int n >= 0 of any length: past 13000 bits, 1000 digits
    at a time, since str refuses more than 4300 digits by default."""
    if n.bit_length() <= 13000:
        return str(n)
    groups, chunk = [], 10 ** 1000
    while n >= chunk:
        n, low = divmod(n, chunk)
        groups.append(f"{low:01000d}")
    return str(n) + "".join(reversed(groups))


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class HPFloat(_Frozen):
    """Immutable real scalar mantissa 2^exponent with a stated decimal
    working precision.

    The mantissa is odd or zero, so equal values have equal fields.  Arithmetic
    between two HPFloat values is carried out at the larger of the two
    precisions (plus guard digits) and rounds its result.  Exact inputs are
    accepted as int, Fraction, or decimal string; binary floats are rejected
    because they silently corrupt decimal intent.
    """

    __slots__ = ("mantissa", "exponent", "digits")

    def __init__(self, mantissa: int, exponent: int, digits: int) -> None:
        if digits < 15:
            raise DomainError("precision must be at least 15 decimal digits")
        mantissa, exponent = _exact(mantissa, exponent)
        object.__setattr__(self, "mantissa", mantissa)
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "digits", digits)

    @property
    def value(self) -> tuple[int, int]:
        """The exact value as the pair (mantissa, exponent)."""
        return self.mantissa, self.exponent

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other: Scalar) -> "HPFloat":
        return other if isinstance(other, HPFloat) else hpf(other, self.digits)

    def _bin(self, other: Scalar, op) -> "HPFloat":
        rhs = self._coerce(other)
        digits = max(self.digits, rhs.digits)
        return HPFloat(*op(self.value, rhs.value, _bits(digits)), digits)

    def __add__(self, other: Scalar) -> "HPFloat":
        return self._bin(other, _add)

    __radd__ = __add__

    def __sub__(self, other: Scalar) -> "HPFloat":
        return self._bin(other, _sub)

    def __rsub__(self, other: Scalar) -> "HPFloat":
        return self._bin(other, lambda a, b, prec: _sub(b, a, prec))

    def __mul__(self, other: Scalar) -> "HPFloat":
        return self._bin(other, _mul)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "HPFloat":
        return self._bin(other, _div)

    def __rtruediv__(self, other: Scalar) -> "HPFloat":
        return self._bin(other, lambda a, b, prec: _div(b, a, prec))

    def __pow__(self, exponent: int) -> "HPFloat":
        if not isinstance(exponent, int):
            raise TypeError("HPFloat powers take integer exponents")
        return self._unary(lambda a, prec: _pow(a, exponent, prec))

    def __neg__(self) -> "HPFloat":
        # rounds, as every operation does: a series value may carry more bits
        return self._unary(lambda a, prec: _round(-a[0], a[1], prec))

    def __abs__(self) -> "HPFloat":
        return self._unary(lambda a, prec: _round(abs(a[0]), a[1], prec))

    # -- comparisons (by value, precision is not identity) ---------------

    def _compare(self, other: Scalar) -> int:
        return _cmp(self.value, self._coerce(other).value)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (HPFloat, int, Fraction, str)):
            return self.value == self._coerce(other).value
        return NotImplemented

    def __hash__(self) -> int:
        # Python's hash of the rational man 2^exp, as for an equal int or float
        modulus = sys.hash_info.modulus
        value = (abs(self.mantissa) % modulus) * pow(2, self.exponent, modulus) % modulus
        value = -value if self.mantissa < 0 else value
        return -2 if value == -1 else value

    def __lt__(self, other: Scalar) -> bool:
        return self._compare(other) < 0

    def __le__(self, other: Scalar) -> bool:
        return self._compare(other) <= 0

    def __gt__(self, other: Scalar) -> bool:
        return self._compare(other) > 0

    def __ge__(self, other: Scalar) -> bool:
        return self._compare(other) >= 0

    # -- elementary functions --------------------------------------------

    def _unary(self, op) -> "HPFloat":
        return HPFloat(*op(self.value, _bits(self.digits)), self.digits)

    def sqrt(self) -> "HPFloat":
        if self.mantissa < 0:
            raise DomainError("sqrt of a negative value")
        return self._unary(_sqrt)

    def exp(self) -> "HPFloat":
        return self._unary(_exp)

    def log(self) -> "HPFloat":
        if self.mantissa <= 0:
            raise DomainError("log of a non-positive value")
        return self._unary(_log)

    # -- conversions -------------------------------------------------------

    def to_decimal_string(self, digits: int | None = None) -> str:
        """The value to digits significant digits (default: its own)."""
        return _to_str(*self.value, digits or self.digits)

    def __float__(self) -> float:
        man, exp = _round(*self.value, 53)
        try:
            return math.ldexp(man, exp)
        except OverflowError:
            return math.copysign(math.inf, man)

    def __str__(self) -> str:
        return self.to_decimal_string()

    def __repr__(self) -> str:
        return f"HPFloat({self.to_decimal_string()!r}, digits={self.digits})"


def hpf(x: Scalar, digits: int = DEFAULT_DIGITS) -> HPFloat:
    """Build an HPFloat from an exact representation (never a float), or
    relabel an HPFloat to its own or a lower precision (never a higher one).
    An int or a decimal string is rounded once; a Fraction p/q is p and q
    rounded, then their rounded quotient."""
    if isinstance(x, HPFloat):
        if x.digits < digits:
            raise DomainError(f"a {x.digits}-digit value cannot be relabelled to {digits} digits")
        return x if x.digits == digits else HPFloat(*x.value, digits)
    if isinstance(x, float):
        raise TypeError("binary floats are ambiguous; pass a str, int or Fraction")
    if isinstance(x, bool) or not isinstance(x, (int, Fraction, str)):
        raise TypeError(f"cannot build HPFloat from {type(x).__name__}")
    prec = _bits(digits)
    if isinstance(x, int):
        return HPFloat(*_round(x, 0, prec), digits)
    if isinstance(x, Fraction):
        num, den = _round(x.numerator, 0, prec), _round(x.denominator, 0, prec)
        return HPFloat(*_div(num, den, prec), digits)
    return HPFloat(*_from_str(x, prec), digits)


def pi(digits: int = DEFAULT_DIGITS) -> HPFloat:
    return HPFloat(*_pi(_bits(digits)), digits)


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


def _agm(a, b, c, digits: int):
    """The AGM from (a, b) at prec = _bits(digits), carrying E's companion sum
    s = sum_j 2^(j-1) c_j^2, c_0 = c, c_{j+1} = (a_j - b_j)/2.  Returns
    (K's mean, E's mean, s): K's mean is the first a_j with
    |a_j - b_j| < 10^(1-digits) a_j; the pass ends, with E's mean and s,
    once |a_j - b_j|/a_j and c_j/max(1, a_j) are below 10^(-digits-5).  For
    a_j <= 1, as in every complete integral, c_j's rule is absolute."""
    prec = _bits(digits)
    eps_k, eps_e = _pow((5, 1), 1 - digits, prec), _pow((5, 1), -digits - 5, prec)
    csum, weight, mean_k = (0, 0), (1, -1), None
    while True:
        diff = _sub(a, b, prec)
        gap = (abs(diff[0]), diff[1])
        if mean_k is None and _cmp(gap, _mul(eps_k, a, prec)) < 0:
            mean_k = a
        csum = _add(csum, _mul(_mul(weight, c, prec), c, prec), prec)
        scale = a if _top(a) > 0 else (1, 0)  # max(1, a_j): a_j >= 1 when _top(a_j) > 0
        if _cmp(c, _mul(eps_e, scale, prec)) < 0 and _cmp(gap, _mul(eps_e, a, prec)) < 0:
            return mean_k, a, csum
        total = _add(a, b, prec)
        a, b = (total[0], total[1] - 1), _sqrt(_mul(a, b, prec), prec)
        c, weight = (diff[0], diff[1] - 1) if diff[0] else diff, (1, weight[1] + 1)


def agm(a: Scalar, b: Scalar, digits: int) -> HPFloat:
    """Arithmetic-geometric mean: a_n at the first n with |a_n - b_n| < 10^(1-digits)*a_n."""
    a_h, b_h = hpf(a, digits), hpf(b, digits)
    if a_h.mantissa <= 0 or b_h.mantissa <= 0:
        raise DomainError("agm requires positive inputs")
    prec = _bits(digits)
    mean_k = _agm(_round(*a_h.value, prec), _round(*b_h.value, prec), (0, 0), digits)[0]
    return HPFloat(*mean_k, digits)


def _complete(k: HPFloat) -> tuple[HPFloat, HPFloat, HPFloat, HPFloat]:
    """m = k^2, k' = sqrt(1 - m), and K = pi/(2a) at agm's rule and
    E = (pi/(2a))(1 - s) at E's rule from one ``_agm`` pass from (1, k')."""
    if not 0 < k < 1:
        raise DomainError("elliptic modulus must satisfy 0 < k < 1")
    m = k * k
    kprime = (1 - m).sqrt()
    digits, prec = k.digits, _bits(k.digits)
    mean_k, mean_e, csum = _agm((1, 0), kprime.value, _round(*k.value, prec), digits)
    pi_ = _pi(prec)
    big_k = HPFloat(*_div(pi_, (mean_k[0], mean_k[1] + 1), prec), digits)
    big_e = _mul(_div(pi_, (mean_e[0], mean_e[1] + 1), prec), _sub((1, 0), csum, prec), prec)
    return m, kprime, big_k, HPFloat(*big_e, digits)


# ---------------------------------------------------------------------------
# Series in the nome: one factor table, one fixed-point loop, the theta constants
# ---------------------------------------------------------------------------


def _require_nome(q: HPFloat) -> None:
    if not 0 < q < 1:
        raise DomainError("nome must satisfy 0 < q < 1")


def _log2(x: tuple[int, int]) -> float:
    """log2 of a positive (man, exp) value."""
    return math.log2(x[0]) + x[1]


def _pair(x: tuple[int, int], bits: int) -> tuple[int, int]:
    """A positive (man, exp) value with a bits-bit mantissa, exact unless
    it has more bits, which are truncated."""
    man, exp = x
    shift = bits - man.bit_length()
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
    generates them, non-increasing, from q as a P-bit pair by running int
    products, each truncated down to P bits.  exponent(n) bounds
    f_n <= f_1 q^exponent(n), which gives ``reach`` its index bound from the
    nome alone."""

    __slots__ = ("prec", "decay", "exponent", "values", "_more")

    def __init__(self, q: HPFloat, exponent: Callable[[int], int], fill) -> None:
        self.prec = _bits(q.digits)
        self.exponent, self.decay = exponent, -_log2(q.value)
        bits = self.prec + _TABLE_GUARD
        self._more = fill(_pair(q.value, bits), bits)
        self.values: list[tuple[int, int]] = [next(self._more)]

    def reach(self, weight_bits: Callable[[int], int]) -> int:
        """The first power of two n at which f_n 2^weight_bits(n) is below
        2^(-prec) f_1 by the bound f_n <= f_1 q^exponent(n)."""
        last = 1
        while self.decay * self.exponent(last) < self.prec + weight_bits(last):
            last *= 2
        return last

    def upto(self, stop: int) -> int:
        """The index of the first factor below 2^stop, grown to it."""
        values = self.values
        while _top(values[-1]) > stop:
            values.append(next(self._more))
        return bisect.bisect_left(values, -stop, key=_depth) + 1


def _top(x: tuple[int, int]) -> int:
    """The exponent just above a positive (man, exp) value: x < 2^_top(x)."""
    return x[1] + x[0].bit_length()


def _depth(x: tuple[int, int]) -> int:
    return -_top(x)


def _series_sum(factors: _Factors, weights: Callable[[int], Iterable[int]],
                weight_bits: Callable[[int], int] = lambda n: 0, lead: int = 0):
    """lead + sum_{n >= 1} W_n f_n over a factor table, as an exact
    (man, exp) pair: one int dot product.

    weights(count) gives the ints W_1, W_2, ... (at least count of them);
    weight_bits(n) bounds log2 |W| up to n.  The sum stops after the first
    factor below 2^(top-prec) over the weight bound at the index bound
    ``reach``, f_1 < 2^top, so a small weight cannot end it early and the
    tail is of that order.  Each summed factor is truncated once onto
    2^(-S-B), S = prec plus the bits of ``reach`` less top, widened by that
    weight bound B: times its |W_n| <= 2^B it is off by less than a unit of
    2^(-S), and the count of units below 2^(top-prec).  The weights multiply
    the shifted factors exactly, so the lead is added exactly and the total
    is returned exactly: the sum makes no rounded operation."""
    last = factors.reach(weight_bits)
    top = _top(factors.values[0])
    bound = weight_bits(last)
    count = factors.upto(top - factors.prec - bound)
    scale = factors.prec + last.bit_length() - top + bound
    lift = max(0, factors.values[0][1] + scale)  # shift left first, then drop bits
    terms = [man << lift >> (lift - exp - scale) for man, exp in factors.values[:count]]
    total = sum(map(operator.mul, weights(count), terms))
    return _exact(total + (lead << scale), -scale)


def _gaussian_factors(q: HPFloat, half: bool = False) -> _Factors:
    """The folded Gaussian factors f_n = 2 q^((n-h)^2), n >= 1, of the
    lattice sums, with h = 0, or h = 1/2 on the half lattice.  Each is a
    running product: q^((n+1-h)^2 - (n-h)^2) = q^(2n+1-2h) steps by q^2, so
    only the half lattice takes a root, q^(1/4), once.  After n steps f_n
    has a relative error below (n + 1)^2 2^(1-P)."""

    def fill(q1, bits):
        q2 = _times(q1, q1, bits)
        if half:
            gauss, step = _pair(_sqrt(_sqrt(q.value, bits), bits), bits), q2
        else:
            gauss, step = q1, _times(q2, q1, bits)
        while True:
            yield gauss[0], gauss[1] + 1
            gauss, step = _times(gauss, step, bits), _times(step, q2, bits)

    return _Factors(q, (lambda n: n * n - n) if half else (lambda n: n * n - 1), fill)


# theta index -> (half lattice, alternating sign)
_THETA_SERIES = {2: (True, 1), 3: (False, 1), 4: (False, -1)}


def theta0(i: int, q: HPFloat) -> HPFloat:
    """The theta constant theta_i(0, q), i in 1..4.  theta1 vanishes at 0;
    the others are the lattice sums of sign^n q^((n-h)^2), with (h, sign)
    from ``_THETA_SERIES``, by ``_series_sum`` over a throwaway table with
    the exact int weights sign^n and the full lattice's n = 0 term as the
    lead 1."""
    _require_nome(q)
    if i not in (1, 2, 3, 4):
        raise DomainError("theta index must be 1, 2, 3 or 4")
    if i == 1:
        return hpf(0, q.digits)
    half, sign = _THETA_SERIES[i]
    total = _series_sum(_gaussian_factors(q, half),
                        lambda count: [sign ** n for n in range(1, count + 1)],
                        lead=1 - half)
    return HPFloat(*total, q.digits)


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


def gamma_quarter(digits: int = DEFAULT_DIGITS) -> HPFloat:
    """Gamma(1/4) = sqrt(4 sqrt(pi) K) from the lemniscatic context's K, so it
    adds no AGM pass to a run that holds that context."""
    return (4 * pi(digits).sqrt() * lemniscatic_context(digits).K).sqrt()
