"""Exact algebra: integer polynomials in m and the sn-ODE recurrence.

Every exact quantity downstream of this module lives in Z[m], where m is
the squared elliptic parameter.  UniPoly stores Python ints and keeps a
Fraction only for a coefficient that is not integral, so rationals enter
only at evaluation points such as m = 1/p.

The reduced Schett polynomials S_n(m) are read off the sn equation: on the
slice (0, k, i*k') the Schett flow x' = yz, y' = zx, z' = xy collapses, for
Y = x/(i k k'), to  Y'' = (2m-1) Y - 2m(1-m) Y^3  with Y(0) = 0, Y'(0) = 1
(DLMF 22.13), and S_n = Y^(2n+1)(0).  The Taylor recurrence runs on the
exponential-generating-function coefficients of Y, Y^2 and Y^3.  The
trivariate operator route is kept in the test suite as an independent
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class UniPoly:
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

    coeffs: tuple[int | Fraction, ...]

    def __post_init__(self) -> None:
        normalized = tuple(_trim([_normalize(c) for c in self.coeffs]))
        object.__setattr__(self, "coeffs", normalized)

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


# Exponential-generating-function coefficients of the sn solution Y and of
# Y^2 and Y^3, as ascending integer coefficient lists in m: _SN_Y[j] is
# Y^(j)(0).  Invariant: len(_SN_Y) == len(_SN_Y3) + 2 == len(_SN_Y2) + 2.
_SN_Y: list[list[int]] = [[], [1]]
_SN_Y2: list[list[int]] = []
_SN_Y3: list[list[int]] = []


def _egf_product(f: list[list[int]], g: list[list[int]], j: int) -> list[int]:
    """Coefficient j of the EGF product: sum_i C(j, i) f_i g_{j-i}."""
    out: list[int] = []
    square = f is g  # pair the terms i and j - i
    for i in range(j // 2 + 1 if square else j + 1):
        a, b = f[i], g[j - i]
        if a and b:
            weight = math.comb(j, i) * (2 if square and 2 * i != j else 1)
            out = _add(out, _mul([weight * x for x in a], b))
    return out


def _sn_grow(count: int) -> None:
    """Extend the EGF tables until [Y^2] and [Y^3] hold count entries, and
    Y count + 2, by a_{t+2} = (2m-1) a_t - 2m(1-m) [Y^3]_t."""
    y, y2, y3 = _SN_Y, _SN_Y2, _SN_Y3
    while len(y3) < count:
        t = len(y3)
        y2.append(_egf_product(y, y, t))
        y3.append(_egf_product(y, y2, t))
        y.append(_add(_mul([-1, 2], y[t]), _mul([0, -2, 2], y3[t])))


def _sn_square(j: int) -> UniPoly:
    """[Y^2]_j, the j-th EGF coefficient of the square of the sn solution."""
    _sn_grow(j + 1)
    return UniPoly(tuple(_SN_Y2[j]))


def schett_reduced(n: int) -> UniPoly:
    """The polynomial S_n(m) defined by X_{2n+1}(0, k, i*k') = i*k*k'*S_n(m).

    X_n is the n-th Schett polynomial; on the slice it equals the n-th
    derivative at 0 of the solution of the sn equation, so
    S_n = Y^(2n+1)(0), read off the memoized Taylor recurrence.  S_n must
    come out of degree n; anything else raises ConsistencyError.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    _sn_grow(2 * n)
    total = UniPoly(tuple(_SN_Y[2 * n + 1]))
    if total.degree != n:
        raise ConsistencyError(f"S_{n} has unexpected shape: {total}")
    return total


def binomial(n: int, r: int) -> int:
    """Exact binomial coefficient with strict range validation."""
    if n < 0 or r < 0 or r > n:
        raise ValueError(f"binomial({n}, {r}) is out of range")
    return math.comb(n, r)
