"""Exact algebra: integer polynomials in m and the sn-ODE recurrence.

Every exact quantity downstream of this module lives in Z[m], where m is
the squared elliptic parameter.  UniPoly stores Python ints and keeps a
Fraction only for a coefficient that is not integral, so rationals enter
only at evaluation points such as m = 1/p.

The reduced Schett polynomials S_n(m) are read off the sn equation: on the
slice (0, k, i*k') the Schett flow x' = yz, y' = zx, z' = xy collapses, for
Y = x/(i k k'), to  Y'' = (2m-1) Y - 2m(1-m) Y^3  with Y(0) = 0, Y'(0) = 1
(DLMF 22.13), and S_n = Y^(2n+1)(0).  The Taylor recurrence runs on the
exponential-generating-function coefficients of Y and Y^2, and it is
written once, at a point m = a/b given as the pair (a, b), keeping b^degree
times each value: the rational points of ``moments`` run it on ints, and
Z[m] runs it at (a, b) = (m, 1), memoised here.  Its independent oracle is
the trivariate operator route, kept in the test suite.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

__all__ = [
    "ConsistencyError",
    "UniPoly",
    "binomial",
    "schett_reduced",
]


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; this signals a pipeline bug."""


class _Frozen:
    """Base of the immutable __slots__ value classes (UniPoly, HPFloat,
    ModulusContext): the fields are the slots without a leading underscore,
    which give the repr, equality and hash, and assignment raises."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name[0] != "_")
        return f"{type(self).__name__}({', '.join(fields)})"


def _normalize(c) -> "int | Fraction":
    """An int for every integral value, a reduced Fraction otherwise."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _trim(coeffs: list) -> list:
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    del coeffs[end:]
    return coeffs


def _add(a: list, b: list) -> list:
    """Sum of two ascending coefficient lists, trimmed."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] += c
    return _trim(out)


def _mul(a: list, b: list) -> list:
    """Product of two ascending coefficient lists (schoolbook)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                out[k] += x * y
    return out


class UniPoly(_Frozen):
    """Univariate polynomial in m with exact coefficients.

    Coefficients are ascending in powers of m with no trailing zeros.  Each
    is a Python int when integral and a Fraction only otherwise, so equal
    polynomials have identical representations.  The zero polynomial has
    an empty coefficient tuple and degree -1 (the sentinel).

    >>> p = UniPoly.from_ints([0, 2, -2])   # 2m - 2m^2
    >>> p.evaluate(Fraction(1, 2))
    Fraction(1, 2)
    >>> str(p)
    '-2*m^2 + 2*m'
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int | Fraction]) -> None:
        coeffs = list(coeffs)
        if not {type(c) for c in coeffs} <= {int}:  # the all-int fast path skips _normalize
            coeffs = [_normalize(c) for c in coeffs]
        object.__setattr__(self, "coeffs", tuple(_trim(coeffs)))

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly(())

    @staticmethod
    def one() -> "UniPoly":
        return UniPoly((1,))

    @staticmethod
    def variable() -> "UniPoly":
        """The monomial m."""
        return UniPoly((0, 1))

    @classmethod
    def from_ints(cls, ints: Iterable[int]) -> "UniPoly":
        return cls(tuple(ints))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, k: int) -> "int | Fraction":
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other: "UniPoly | int | Fraction") -> "UniPoly":
        return UniPoly(_add(self.coeffs, _as_poly(other).coeffs))

    __radd__ = __add__

    def __sub__(self, other: "UniPoly | int | Fraction") -> "UniPoly":
        return self + (-_as_poly(other))

    def __rsub__(self, other: "UniPoly | int | Fraction") -> "UniPoly":
        return _as_poly(other) + (-self)

    def __mul__(self, other: "UniPoly | int | Fraction") -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            return UniPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, UniPoly):
            return NotImplemented
        return UniPoly(_mul(self.coeffs, other.coeffs))

    def __rmul__(self, other: "int | Fraction") -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int) -> "UniPoly":
        if exponent < 0:
            raise ValueError("negative polynomial power")
        result = UniPoly.one()
        for _ in range(exponent):
            result = result * self
        return result

    def evaluate(self, x):
        """Horner evaluation; exact for Fraction x, works for any ring
        element supporting + and * with int and Fraction coefficients."""
        result = 0
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def compose_affine(self, alpha, beta) -> "UniPoly":
        """Return p(alpha*m + beta) as an exact polynomial."""
        inner = UniPoly((beta, alpha))
        result = UniPoly.zero()
        for c in reversed(self.coeffs):
            result = result * inner + c
        return result

    def is_integral(self) -> bool:
        return all(type(c) is int for c in self.coeffs)

    def divisible_by_m_one_minus_m(self) -> bool:
        """True iff m(1-m) divides the polynomial.

        m and 1-m are coprime linear factors over Q, so divisibility is
        equivalent to vanishing at m = 0 and m = 1.
        """
        if not self.coeffs:
            return True
        return self.evaluate(0) == 0 and self.evaluate(1) == 0

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if mag.denominator == 1:
                coef = str(mag.numerator)
            else:
                coef = f"({mag})"
            if k == 0:
                body = coef
            else:
                var = "m" if k == 1 else f"m^{k}"
                body = var if mag == 1 else f"{coef}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def _as_poly(value: "UniPoly | int | Fraction") -> UniPoly:
    if isinstance(value, UniPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return UniPoly((value,))
    raise TypeError(f"cannot coerce {type(value).__name__} to UniPoly")


def _sn_extend(a, b, s: list, w: list, count: int) -> None:
    """Extend the sn tables s and w, which hold equally many entries, to
    count entries each, at m = a/b.

    The nonzero EGF coefficients of the sn solution
    Y'' = (2m-1) Y - 2m(1-m) Y^3, Y(0) = 0, Y'(0) = 1 are
    s[n] = Y^(2n+1)(0) = S_n of degree n, w[p] = [Y^2]_{2p} of degree p - 1
    and v = [Y^3]_{2n-1} of degree n - 2, with
        v    = sum_j C(2n-1, 2j+1) s[j] w[n-1-j],
        s[n] = (2m-1) s[n-1] - 2m(1-m) v,
        w[n] = sum_i C(2n, 2i+1) s[i] s[n-1-i].
    Each entry is kept times b^degree: 2m - 1 acts as 2a - b and 2m(1-m) as
    2a(b - a).  With a, b ints in lowest terms every entry is an int; with
    a = m and b = 1 the entries are the polynomials themselves.
    """
    if len(s) >= count:  # full tables: form no coefficient polynomials
        return
    linear, quadratic = 2 * a - b, 2 * a * (b - a)
    while len(s) < count:
        n = len(s)
        v = sum(math.comb(2 * n - 1, 2 * j + 1) * s[j] * w[n - 1 - j] for j in range(n - 1))
        s.append(linear * s[n - 1] - quadratic * v)
        w.append(sum(math.comb(2 * n, 2 * i + 1) * s[i] * s[n - 1 - i] for i in range(n)))


# The sn tables over Z[m], that is at (a, b) = (m, 1), grown on demand:
# _ZM_S[n] = S_n(m) and _ZM_W[p] = [Y^2]_{2p}.
_ZM_S: list[UniPoly] = [UniPoly.one()]
_ZM_W: list[UniPoly] = [UniPoly.zero()]


def _sn_square(p: int) -> UniPoly:
    """[Y^2]_{2p}, the EGF coefficient of order 2p of the square of the sn
    solution, in Z[m]."""
    _sn_extend(UniPoly.variable(), 1, _ZM_S, _ZM_W, p + 1)
    return _ZM_W[p]


def schett_reduced(n: int) -> UniPoly:
    """The polynomial S_n(m) defined by X_{2n+1}(0, k, i*k') = i*k*k'*S_n(m).

    X_n is the n-th Schett polynomial; on the slice it equals the n-th
    derivative at 0 of the solution of the sn equation, so
    S_n = Y^(2n+1)(0), read off the memoized Taylor recurrence.  S_n must
    come out of degree n; anything else raises ConsistencyError.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    _sn_extend(UniPoly.variable(), 1, _ZM_S, _ZM_W, n + 1)
    total = _ZM_S[n]
    if total.degree != n:
        raise ConsistencyError(f"S_{n} has unexpected shape: {total}")
    return total


def binomial(n: int, r: int) -> int:
    """Exact binomial coefficient with strict range validation."""
    if n < 0 or r < 0 or r > n:
        raise ValueError(f"binomial({n}, {r}) is out of range")
    return math.comb(n, r)
