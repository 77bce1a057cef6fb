"""The trivariate Schett route to S_n, kept as an independent test oracle.

The library computes S_n from the one-variable sn equation.  This module
runs the original definition instead: the Schett polynomials
X_n(x, y, z), with X_0 = x and X_n = (yz d/dx + zx d/dy + xy d/dz) X_{n-1},
as sparse integer polynomials, and the reduction of X_{2n+1} on the slice
(0, k, i*k').  It shares no arithmetic with thetakit.exactalg beyond the
UniPoly container of the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from thetakit.exactalg import ConsistencyError, UniPoly

Exponents = tuple[int, int, int]


@dataclass(frozen=True)
class TriPoly:
    """Sparse trivariate integer polynomial in (x, y, z).

    Terms are a canonically sorted tuple of ((a, b, c), coefficient) pairs
    for monomials x^a y^b z^c; no zero coefficients are stored.
    """

    terms: tuple[tuple[Exponents, int], ...]

    @staticmethod
    def from_dict(d: dict[Exponents, int]) -> "TriPoly":
        return TriPoly(tuple(sorted((e, c) for e, c in d.items() if c != 0)))

    @staticmethod
    def zero() -> "TriPoly":
        return TriPoly(())

    def as_dict(self) -> dict[Exponents, int]:
        return dict(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "TriPoly") -> "TriPoly":
        out = self.as_dict()
        for e, c in other.terms:
            out[e] = out.get(e, 0) + c
        return TriPoly.from_dict(out)

    def __neg__(self) -> "TriPoly":
        return TriPoly(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "TriPoly") -> "TriPoly":
        return self + (-other)

    def __mul__(self, other: "TriPoly | int") -> "TriPoly":
        if isinstance(other, int):
            return TriPoly(tuple((e, c * other) for e, c in self.terms)) if other else TriPoly.zero()
        if not isinstance(other, TriPoly):
            return NotImplemented
        out: dict[Exponents, int] = {}
        for (a1, b1, c1), u in self.terms:
            for (a2, b2, c2), v in other.terms:
                key = (a1 + a2, b1 + b2, c1 + c2)
                out[key] = out.get(key, 0) + u * v
        return TriPoly.from_dict(out)

    __rmul__ = __mul__

    def diff(self, var: int) -> "TriPoly":
        """Exact partial derivative; var is 0 for x, 1 for y, 2 for z."""
        if var not in (0, 1, 2):
            raise ValueError("var must be 0, 1 or 2")
        out: dict[Exponents, int] = {}
        for exps, c in self.terms:
            n = exps[var]
            if n == 0:
                continue
            shifted = list(exps)
            shifted[var] = n - 1
            key = (shifted[0], shifted[1], shifted[2])
            out[key] = out.get(key, 0) + c * n
        return TriPoly.from_dict(out)

    def total_degrees(self) -> set[int]:
        return {a + b + c for (a, b, c), _ in self.terms}

    def monomials(self) -> Iterator[tuple[Exponents, int]]:
        return iter(self.terms)


def _schett_step(poly: TriPoly) -> TriPoly:
    """Apply the operator yz d/dx + zx d/dy + xy d/dz."""
    out: dict[Exponents, int] = {}
    for (a, b, c), coef in poly.terms:
        if a:
            key = (a - 1, b + 1, c + 1)
            out[key] = out.get(key, 0) + coef * a
        if b:
            key = (a + 1, b - 1, c + 1)
            out[key] = out.get(key, 0) + coef * b
        if c:
            key = (a + 1, b + 1, c - 1)
            out[key] = out.get(key, 0) + coef * c
    return TriPoly.from_dict(out)


_schett_memo: list[TriPoly] = [TriPoly.from_dict({(1, 0, 0): 1})]


def schett_raw(n: int) -> TriPoly:
    """The n-th Schett polynomial X_n(x, y, z), exact integer coefficients.

    X_0 = x and X_n is obtained from X_{n-1} by one application of the
    differential operator above.  Values are memoized.
    """
    if n < 0:
        raise ValueError("schett index must be >= 0")
    while len(_schett_memo) <= n:
        _schett_memo.append(_schett_step(_schett_memo[-1]))
    return _schett_memo[n]


def schett_slice(n: int) -> UniPoly:
    """S_n(m) from X_{2n+1}(0, k, i*k') = i*k*k'*S_n(m).

    Substitutes x = 0, y = k, z = i*k' into X_{2n+1}, reduces even powers
    of k' through k'^2 = 1 - m, and strips exactly one factor i*k*k'.  The
    recurrence forces every surviving monomial to have odd y and z degrees;
    anything else raises ConsistencyError.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    total = UniPoly.zero()
    for (a, b, c), coef in schett_raw(2 * n + 1).terms:
        if a != 0:
            continue  # killed by x = 0
        if b % 2 == 0 or c % 2 == 0:
            raise ConsistencyError(
                f"X_{2 * n + 1} has an x-free monomial y^{b} z^{c} with even degree"
            )
        # y^b z^c -> k^b (i k')^c = i * k * k' * (-1)^((c-1)/2) * m^((b-1)/2) (1-m)^((c-1)/2)
        j = (c - 1) // 2
        sign = -1 if j % 2 else 1
        term = UniPoly.from_ints([1, -1]) ** j  # (1 - m)^j
        shifted = UniPoly((0,) * ((b - 1) // 2) + term.coeffs)
        total = total + shifted * (coef * sign)
    return total
