"""Numeric verification harness.

Ties the exact polynomial pipeline to theta-series ground truth: the
Hermite-weighted moment identity, the finite moment formula, the
lemniscatic special case, the dual-modulus variance and moment relations,
and the supporting elliptic identities (Legendre, modular transformation,
series-vs-polynomial cumulants).

Both ground-truth series come from the power sums
S_k = [k = 0] + sum_p p^(2k) 2 q^(p^2), each the kernel's one int dot
product with the exact weights p^(2k) over the context's one Gaussian
factor table, and kept with the context: S_0 is theta3, the moment of order
2n is S_n / S_0, and the Hermite-weighted sum is sum_k V_k S_k / S_0, an
exact int sum over the fixed-point coefficients V_k of H_2n(p/(sigma sqrt 2))
in p^2.  The moment polynomials R_2j(m) and the powers and rounded weights
of the Gaussian convolutions are kept too, per context or per precision.
Every modulus verifier takes a ModulusContext and
reaches the dual modulus through ``dual_context``; the kernel owns the
modulus tokens and the context memo.  One table, ``IDENTITIES``, gives each
identity its orders, moduli and runner: ``run_suite`` dispatches through it,
building each context with ``make_context(token, digits)``, and
``cells_for`` builds grids from it.

Residuals are reported relative to max(1, |rhs|) because moments grow
super-exponentially with the order; the default tolerance 10^(8-digits)
budgets series truncation plus accumulation.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, NamedTuple

from .exactalg import binomial
from .cumulants import cumulant_lambert, cumulant_poly
from .moments import bell_moments, d_sequence
from .numkernel import (
    _Factors,
    _bits,
    _div,
    _gaussian_factors,
    _series_sum,
    _times,
    _top,
    DEFAULT_DIGITS,
    LEMNISCATIC_TOKEN,
    DomainError,
    HPFloat,
    ModulusContext,
    dual_context,
    gamma_quarter,
    hpf,
    lemniscatic_context,
    make_context,
    pi,
    pow10,
    theta0,
)

__all__ = [
    "VerificationReport",
    "series_moment",
    "verify_theorem1",
    "verify_theorem3",
    "verify_romik11",
    "verify_variance_symmetry",
    "verify_lambert_schett",
    "verify_jacobi_transform",
    "verify_legendre",
    "verify_dual_moment_relation",
    "verify_phi_consistency",
    "IDENTITIES",
    "cells_for",
    "default_grid",
    "run_suite",
    "suite_tolerance",
]

@functools.lru_cache(maxsize=16)
def suite_tolerance(digits: int) -> HPFloat:
    return pow10(8 - digits, digits)


@functools.lru_cache(maxsize=16)
def _tolerance_text(tolerance: HPFloat, digits: int) -> str:
    """A tolerance's decimal string, rendered once for all the reports that
    share it (keyed on the digits too, since equal values compare equal)."""
    return tolerance.to_decimal_string()


class VerificationReport(NamedTuple):
    """One verified identity instance.

    lhs/rhs/residual/tolerance are None only when error is set (for
    example a domain error raised while building the cell).
    """

    identity: str
    n: int | None
    k: str
    digits: int
    lhs: HPFloat | None
    rhs: HPFloat | None
    residual: HPFloat | None
    tolerance: HPFloat | None
    passed: bool
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "n": self.n,
            "k": self.k,
            "digits": self.digits,
            "lhs": None if self.lhs is None else self.lhs.to_decimal_string(),
            "rhs": None if self.rhs is None else self.rhs.to_decimal_string(),
            "residual": None if self.residual is None else self.residual.to_decimal_string(),
            "tolerance": None if self.tolerance is None
            else _tolerance_text(self.tolerance, self.tolerance.digits),
            "passed": self.passed,
            "error": self.error,
        }


def _report(identity: str, n: int | None, k_token: str, digits: int,
            lhs: HPFloat, rhs: HPFloat) -> VerificationReport:
    tol = suite_tolerance(digits)
    scale = abs(rhs)
    residual = abs(lhs - rhs)
    if scale > 1:
        residual = residual / scale
    return VerificationReport(
        identity=identity,
        n=n,
        k=k_token,
        digits=digits,
        lhs=lhs,
        rhs=rhs,
        residual=residual,
        tolerance=tol,
        passed=bool(residual < tol),
    )


# ---------------------------------------------------------------------------
# Ground-truth series
# ---------------------------------------------------------------------------


def _gaussian(ctx: ModulusContext) -> _Factors:
    """The context's Gaussian factor table, shared by every power sum."""
    return ctx._once("gauss", lambda: _gaussian_factors(ctx.q))


def _power_sum(k: int, ctx: ModulusContext) -> tuple[int, int]:
    """S_k = [k = 0] + sum_p p^(2k) 2 q^(p^2), p >= 1, as the exact pair of
    ``_series_sum`` over the context's Gaussian table with the exact int
    weights p^(2k) and the lead 1 for k = 0, summed once per order and
    context and kept with it.  S_0 is theta3(q), S_k / S_0 the moment of
    order 2k, and the Hermite sums combine them."""
    return ctx._once(("power", k), lambda: _series_sum(
        _gaussian(ctx), lambda count: [p ** (2 * k) for p in range(1, count + 1)],
        lambda p: (p ** (2 * k)).bit_length(), int(k == 0)))


def _theta3(ctx: ModulusContext) -> HPFloat:
    """theta3(q) = 1 + sum_p 2 q^(p^2) = S_0, kept with the context."""
    return ctx._once("theta3", lambda: HPFloat(*_power_sum(0, ctx), ctx.digits))


def _over_theta3(total: tuple[int, int], ctx: ModulusContext) -> HPFloat:
    """An exact series total divided by the context's one theta3."""
    theta3 = _theta3(ctx)
    # a quotient of two series keeps their precision, not the working one
    prec = max(abs(total[0]).bit_length(), abs(theta3.mantissa).bit_length())
    return HPFloat(*_div(total, theta3.value, prec), ctx.digits)


def series_moment(n: int, ctx: ModulusContext) -> HPFloat:
    """Moment of order 2n by direct summation of the weighted series
    sum_p p^(2n) q^(p^2) normalized by theta3(q): the power sum S_n over
    S_0, divided once per order and context and kept with the context."""
    if n < 0:
        raise DomainError("moment index must be >= 0")
    return ctx._once(("moment", n), lambda: _over_theta3(_power_sum(n, ctx), ctx))


def _hermite_coefficients(order: int) -> list[int]:
    """The ints c_k with H_order(x) = x^(order mod 2) sum_k c_k x^(2k):
    c_k = (-1)^(h-k) order! 2^(2k+o) / ((h-k)! (2k+o)!) for order = 2h + o."""
    half, odd = divmod(order, 2)
    return [(-1) ** (half - k) * math.factorial(order) * 2 ** (2 * k + odd)
            // (math.factorial(half - k) * math.factorial(2 * k + odd))
            for k in range(half + 1)]


def _hermite_scaled(n: int, u, scale: int) -> list[int]:
    """V_k = c_k u^(2k) 2^scale for the coefficients c_k of H_2n and a
    positive u, given as a pair (man, exp), so that sum_k V_k p^(2k) is
    H_2n(p u) 2^scale.  Each V_k is truncated once, which adds less than
    sum_k p^(2k) units.  The powers u^(2k) are int running products from
    u's exact mantissa, kept to scale + 1 + bits(n) bits, so their relative
    error, below k 2^(-scale-bits(n)), adds less than |H|(p u) units, where
    |H| has the absolute values of the c_k."""
    man, exp = u
    bits = scale + 1 + n.bit_length()
    square, power = (man * man, 2 * exp), (1, 0)  # u^2, and u^(2k) as (man, exp)
    values = []
    for c in _hermite_coefficients(2 * n):
        shift = power[1] + scale
        v = c * power[0]
        values.append(v << shift if shift >= 0 else v >> -shift)
        power = _times(power, square, bits)
    return values


def hermite_weighted_series(n: int, ctx: ModulusContext) -> HPFloat:
    """sum_p q^(p^2) H_{2n}(p / (sigma sqrt 2)) / theta3(q) by direct
    summation; the Hermite factor only grows polynomially against the
    Gaussian-type decay of q^(p^2).

    At x = p u with u = 1/(sigma sqrt 2), H_{2n}(x) = sum_k c_k u^(2k) p^(2k)
    with the ints c_k of ``_hermite_coefficients``, so over the lattice the
    sum is sum_k c_k u^(2k) S_k, S_k the context's power sums (``_power_sum``,
    with the p = 0 term c_0 through the lead of S_0).  ``_hermite_scaled``
    forms V_k = c_k u^(2k) 2^s once, each truncated to a unit and with its
    power of u to a relative 2^(-s), and sum_k V_k S_k is one exact int sum.
    With s = prec + log2 max_k S_k + log2(n + 1), the truncations of the V_k
    add less than 2^(-prec) in all, against |c_0| >= 1 in the absolute sum,
    and the powers of u less than 2^(-prec) relative to
    sum_k |c_k| u^(2k) S_k, the size at which the errors of the S_k
    themselves enter.  Near k = 0, u is large (sigma^2 is about 2q) and
    H_{2n} reaches about q^(-n); near k = 1, u is small and S_k about
    u^(-2k): both scale with the S_k, so neither loses bits."""
    u = ctx._once("1/sqrt(2sigma2)", lambda: (1 / (2 * ctx.sigma2).sqrt()).value)
    sums = [_power_sum(k, ctx) for k in range(n + 1)]
    low = min(exp for _, exp in sums)
    scale = _bits(ctx.digits) + max(_top(s) for s in sums) + (n + 1).bit_length()
    total = sum(v * (man << (exp - low))
                for v, (man, exp) in zip(_hermite_scaled(n, u, scale), sums))
    return _over_theta3((total, low - scale), ctx)


# ---------------------------------------------------------------------------
# Identity verifiers
# ---------------------------------------------------------------------------


def _moment_poly_value(j: int, ctx: ModulusContext) -> HPFloat:
    """R_{2j}(m), evaluated once per order and context and kept with it."""
    return ctx._once(("R", j), lambda: bell_moments(j)[j].R.evaluate(ctx.m))


@functools.lru_cache(maxsize=256)
def _convolution_weight(n: int, j: int, digits: int) -> HPFloat:
    """C(2n, 2j) (2n-2j)!/(n-j)!, the weight of mu_{2j} in the Gaussian
    convolution of order 2n, rounded once per precision."""
    return hpf(binomial(2 * n, 2 * j) * Fraction(math.factorial(2 * n - 2 * j),
                                                 math.factorial(n - j)), digits)


def verify_theorem1(n: int, ctx: ModulusContext, k_token: str = "") -> VerificationReport:
    """Hermite-weighted series against the graded moment polynomial:
    (1/theta3) sum_p q^(p^2) H_{2n}(p/(sigma sqrt2)) = (z^2/(2 sigma^2))^n R_{2n}(m)."""
    if n < 0:
        raise DomainError("index must be >= 0")
    lhs = hermite_weighted_series(n, ctx)
    ratio = ctx._once("z2/2sigma2", lambda: (ctx.z * ctx.z) / (2 * ctx.sigma2))
    rhs = ratio ** n * _moment_poly_value(n, ctx)
    return _report("theorem1", n, k_token or str(ctx.k), ctx.digits, lhs, rhs)


def verify_theorem3(n: int, ctx: ModulusContext, k_token: str = "") -> VerificationReport:
    """Finite moment formula against the direct series:
    mu_{2n} = sum_j C(2n,2j) ((2n-2j)!/(n-j)!) (z/2)^(2j) R_{2j}(m) (sigma^2/2)^(n-j).

    The Gaussian-convolution factor enters with a plus sign; the minus
    variant fails already at n = 1 (it would force a negative variance).
    """
    if n < 0:
        raise DomainError("index must be >= 0")
    lhs = hpf(0, ctx.digits)
    for j in range(n + 1):
        graded = ctx._once(("graded", j),
                           lambda: (ctx.z / 2) ** (2 * j) * _moment_poly_value(j, ctx))
        half_s = ctx._once(("half_s", n - j), lambda: (ctx.sigma2 / 2) ** (n - j))
        lhs = lhs + graded * half_s * _convolution_weight(n, j, ctx.digits)
    rhs = series_moment(n, ctx)
    return _report("theorem3", n, k_token or str(ctx.k), ctx.digits, lhs, rhs)


def verify_romik11(n: int, digits: int = DEFAULT_DIGITS) -> VerificationReport:
    """Lemniscatic special case: the order-2n moment at k = 1/sqrt2 equals
    (4 pi)^(-n) sum_j (2n)!/(2^(n-2j) (4j)! (n-2j)!) d(j) Omega^j with
    Omega = Gamma(1/4)^8 / (32 pi^4).

    The pi exponent is forced: Omega = 4 Phi with Phi = 4 pi^2 kappa_4 =
    Gamma(1/4)^8/(2^7 pi^4), and only this value makes the n >= 2 cells
    close (a pi^8 variant misses by ~0.06 already at n = 2).  Omega depends
    on the digits alone, so it is kept with the lemniscatic context.
    """
    if n < 0:
        raise DomainError("index must be >= 0")
    ctx = lemniscatic_context(digits)
    lhs = series_moment(n, ctx)
    pi_h = pi(digits)
    omega = ctx._once("omega", lambda: gamma_quarter(digits) ** 8 / (pi_h ** 4 * 32))
    d = [1] + (d_sequence(n // 2) if n >= 2 else [])
    rhs = hpf(0, digits)
    for j in range(n // 2 + 1):
        coeff = Fraction(
            math.factorial(2 * n),
            2 ** (n - 2 * j) * math.factorial(4 * j) * math.factorial(n - 2 * j),
        )
        rhs = rhs + omega ** j * d[j] * coeff
    rhs = rhs / (pi_h * 4) ** n
    return _report("romik_eq11", n, LEMNISCATIC_TOKEN, digits, lhs, rhs)


def verify_variance_symmetry(ctx: ModulusContext, k_token: str = "") -> VerificationReport:
    """Dual-modulus variance relation:
    sigma^2(k)/K^2 + sigma^2(k')/K'^2 = 1/(2 pi K K')."""
    dual = dual_context(ctx)
    lhs = ctx.sigma2 / (ctx.K * ctx.K) + dual.sigma2 / (dual.K * dual.K)
    rhs = 1 / (2 * pi(ctx.digits) * ctx.K * dual.K)
    return _report("variance_symmetry", None, k_token or str(ctx.k), ctx.digits, lhs, rhs)


def verify_lambert_schett(n: int, ctx: ModulusContext, k_token: str = "") -> VerificationReport:
    """Series cumulant against the exact graded polynomial, n >= 2."""
    if n < 2:
        raise DomainError("polynomial cumulants start at n = 2")
    lhs = cumulant_lambert(n, ctx)
    rhs = cumulant_poly(n).evaluate(ctx)
    return _report("lambert_schett", n, k_token or str(ctx.k), ctx.digits, lhs, rhs)


def verify_jacobi_transform(c_token: str, digits: int = DEFAULT_DIGITS) -> VerificationReport:
    """Modular transformation theta3(e^(-pi/c)) = sqrt(c) theta3(e^(-pi c))."""
    c = hpf(c_token, digits)
    if c <= 0:
        raise DomainError("transformation parameter must be positive")
    pi_h = pi(digits)
    lhs = theta0(3, (-(pi_h / c)).exp())
    rhs = c.sqrt() * theta0(3, (-(pi_h * c)).exp())
    return _report("jacobi_transform", None, c_token, digits, lhs, rhs)


def verify_legendre(ctx: ModulusContext, k_token: str = "") -> VerificationReport:
    """Legendre relation K E' + K' E - K K' = pi/2."""
    lhs = ctx.K * ctx.Eprime + ctx.Kprime * ctx.E - ctx.K * ctx.Kprime
    rhs = pi(ctx.digits) / 2
    return _report("legendre", None, k_token or str(ctx.k), ctx.digits, lhs, rhs)


def verify_dual_moment_relation(n: int, ctx: ModulusContext, k_token: str = "") -> VerificationReport:
    """Dual-modulus moment relation:
    mu_{2n}(k') = sum_j C(2n,2j) ((2n-2j)!/(n-j)!) (-1)^j (K'/K)^(2j)
                  (delta^2/2)^(n-j) mu_{2j}(k)
    with delta^2 = sigma^2(k') + (K'/K)^2 sigma^2(k) = K'/(2 pi K).

    The (-1)^j factor is the real value of the even power (i K'/K)^(2j); no
    complex arithmetic is involved.  A difference form of delta^2 fails the
    relation already at n = 1 and is deliberately not implemented.
    """
    if n < 0:
        raise DomainError("index must be >= 0")
    dual = dual_context(ctx)
    lhs = series_moment(n, dual)
    rhs = hpf(0, ctx.digits)
    for j in range(n + 1):
        weight = _convolution_weight(n, j, ctx.digits)
        term = (
            ctx._once(("c", 2 * j), lambda: ctx.c ** (2 * j))
            * ctx._once(("half_delta2", n - j),
                        lambda: ((dual.sigma2 + ctx.c * ctx.c * ctx.sigma2) / 2) ** (n - j))
            * series_moment(j, ctx)
            * (weight if j % 2 == 0 else -weight)
        )
        rhs = rhs + term
    return _report("dual_moment_relation", n, k_token or str(ctx.k), ctx.digits, lhs, rhs)


def verify_phi_consistency(digits: int = DEFAULT_DIGITS) -> VerificationReport:
    """Consistency of the two lemniscatic fourth-cumulant constants:
    4 pi^2 kappa_4 = pi^2 theta3(e^-pi)^8 / 8, with kappa_4 from the series
    and theta3 from its own series."""
    ctx = lemniscatic_context(digits)
    pi_h = pi(digits)
    lhs = 4 * pi_h * pi_h * cumulant_lambert(2, ctx)
    rhs = pi_h * pi_h * _theta3(ctx) ** 8 / 8
    return _report("phi_consistency", None, LEMNISCATIC_TOKEN, digits, lhs, rhs)


# ---------------------------------------------------------------------------
# Suite runner
# ---------------------------------------------------------------------------

DEFAULT_KS = ("0.3", LEMNISCATIC_TOKEN, "0.9")
DEFAULT_CS = ("0.37", "1", "2", "5")

Cell = tuple[str, int | None, str]


# identity -> (orders, moduli, runner).  orders (first, cap) runs n over
# first..min(nmax, cap), cap None meaning nmax; None marks a single cell with
# no order.  moduli are the identity's fixed tokens, or None for the grid's.
# A runner takes (n, token, digits) and looks its verifier up when called,
# so that a wrapper installed on the module attribute sees it.
IDENTITIES: dict[str, tuple] = {
    "theorem1": ((0, None), None, lambda n, k, d: verify_theorem1(n, make_context(k, d), k)),
    "theorem3": ((0, None), None, lambda n, k, d: verify_theorem3(n, make_context(k, d), k)),
    "romik_eq11": ((0, None), (LEMNISCATIC_TOKEN,), lambda n, k, d: verify_romik11(n, d)),
    "lambert_schett": (
        (2, None), None, lambda n, k, d: verify_lambert_schett(n, make_context(k, d), k)
    ),
    "jacobi_transform": (None, DEFAULT_CS, lambda n, c, d: verify_jacobi_transform(c, d)),
    "legendre": (None, None, lambda n, k, d: verify_legendre(make_context(k, d), k)),
    "variance_symmetry": (
        None, None, lambda n, k, d: verify_variance_symmetry(make_context(k, d), k)
    ),
    "phi_consistency": (None, (LEMNISCATIC_TOKEN,), lambda n, k, d: verify_phi_consistency(d)),
    "dual_moment_relation": (
        (0, 4), None, lambda n, k, d: verify_dual_moment_relation(n, make_context(k, d), k)
    ),
}

DEFAULT_IDENTITIES = (
    "theorem1", "theorem3", "romik_eq11", "lambert_schett",
    "jacobi_transform", "legendre", "variance_symmetry",
)


def cells_for(identities: Iterable[str], nmax: int, ks: tuple[str, ...]) -> list[Cell]:
    """The cells of the named identities in the given order; within one
    identity the modulus varies slower than the order."""
    cells: list[Cell] = []
    for identity in identities:
        orders, moduli, _ = IDENTITIES[identity]
        if orders is None:
            ns: Iterable[int | None] = (None,)
        else:
            first, cap = orders
            ns = range(first, (nmax if cap is None else min(nmax, cap)) + 1)
        cells.extend((identity, n, k) for k in moduli or ks for n in ns)
    return cells


def default_grid(nmax: int = 8, ks: tuple[str, ...] = DEFAULT_KS) -> list[Cell]:
    """The deterministic default verification grid."""
    return cells_for(DEFAULT_IDENTITIES, nmax, ks)


def run_suite(cells: Iterable[Cell], digits: int = DEFAULT_DIGITS) -> list[VerificationReport]:
    """Run every cell in order; failures and domain errors are recorded in
    the report stream, never raised."""
    reports: list[VerificationReport] = []
    for identity, n, token in cells:
        try:
            if identity not in IDENTITIES:
                raise DomainError(f"unknown identity {identity!r}")
            orders, _, run = IDENTITIES[identity]
            if not (n is None if orders is None else isinstance(n, int)):
                raise DomainError(f"order {n!r} does not fit identity {identity!r}")
            report = run(n, token, digits)
        except (DomainError, ValueError) as exc:
            report = VerificationReport(
                identity=identity,
                n=n,
                k=token,
                digits=digits,
                lhs=None,
                rhs=None,
                residual=None,
                tolerance=None,
                passed=False,
                error=str(exc),
            )
        reports.append(report)
    return reports
