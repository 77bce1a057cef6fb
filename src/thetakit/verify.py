"""Numeric verification harness.

Ties the exact polynomial pipeline to theta-series ground truth: the
Hermite-weighted moment identity, the finite moment formula, the
lemniscatic special case, the dual-modulus variance and moment relations,
and the supporting elliptic identities (Legendre, modular transformation,
series-vs-polynomial cumulants).

Both ground-truth series are the kernel's one series loop, with a weight,
over the context's one Gaussian factor table, divided by theta3, which is
the same loop with weight 1; the table, theta3, the moments and the moment
polynomials R_2j(m) are kept with the context.  The weights are ints:
p^(2n) exactly, and H_2n(p/(sigma sqrt 2)) as a Horner sum in p^2 of its
fixed-point coefficients, whose guard bits come from a bound on |H_2n| over
the summed range.
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

import math
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

from .exactalg import binomial
from .cumulants import cumulant_lambert, cumulant_poly
from .moments import bell_moments, d_sequence
from .numkernel import (
    _Factors,
    _div,
    _gaussian_factors,
    _log2,
    _series_sum,
    _times,
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

def suite_tolerance(digits: int) -> HPFloat:
    return pow10(8 - digits, digits)


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
            "tolerance": None if self.tolerance is None else self.tolerance.to_decimal_string(),
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


def _theta3(ctx: ModulusContext) -> HPFloat:
    """theta3(q) = 1 + sum_p 2 q^(p^2), weight 1 and lead 1 over the
    context's Gaussian table, summed once per context and kept with it."""
    return ctx._once("theta3", lambda: HPFloat(
        *_series_sum(_gaussian(ctx), lambda p: (1, 0), lead=1), ctx.digits))


def _gaussian(ctx: ModulusContext) -> _Factors:
    """The context's Gaussian factor table, shared by every weight and order."""
    return ctx._once("gauss", lambda: _gaussian_factors(ctx.q))


def _weighted_series(weight: Callable[[int], tuple[int, int]], ctx: ModulusContext,
                     weight_bits: Callable[[int], int], lead: int) -> HPFloat:
    """sum_p w(p) q^(p^2) / theta3(q) for an even weight, as
    ``_series_sum`` takes it over the context's factors 2 q^(p^2), p >= 1,
    with the exact int lead w(0), divided by the context's one theta3."""
    total = _series_sum(_gaussian(ctx), weight, weight_bits, lead)
    theta3 = _theta3(ctx)
    # a quotient of two series keeps their precision, not the working one
    prec = max(abs(total[0]).bit_length(), abs(theta3.mantissa).bit_length())
    return HPFloat(*_div(total, theta3.value, prec), ctx.digits)


def series_moment(n: int, ctx: ModulusContext) -> HPFloat:
    """Moment of order 2n by direct summation of the weighted series
    sum_p p^(2n) q^(p^2) normalized by theta3(q), summed once per order and
    context and kept with the context.  The weight p^(2n) is an exact int."""
    if n < 0:
        raise DomainError("moment index must be >= 0")
    return ctx._once(("moment", n), lambda: _weighted_series(
        lambda p: (p ** (2 * n), 0), ctx, lambda p: (p ** (2 * n)).bit_length(), int(n == 0)))


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
    with the ints c_k of ``_hermite_coefficients``.  ``_hermite_scaled``
    forms V_k = c_k u^(2k) 2^(s+g) once, with g guard bits, and a weight is
    (sum_k V_k p^(2k), s + g), a Horner sum with small int multipliers.
    |H|(x) = sum_k |c_k| x^(2k) obeys the recurrence of H_m with a plus
    sign, so by induction |H_m(x)| <= |H|(x) <= B^m with B = 2|x| + m
    (m >= 1).  In units of 2^(-s) a weight's error is below B^m from the
    powers of u and below 2^(-g) sum_k p^(2k) <= B^m from the V_k (g covers
    log2(n + 1) and, for u < 1, m log2(1/u)): in all below m (2p + 1) B^m,
    the weight bound.  s is the loop's scale above its first factor plus
    that bound at the loop's index bound, so a weight's error times its
    factor stays below one unit of the scale.  At p = 0 the weight is the
    exact int lead c_0.  Near k = 0, u is large (sigma^2 is about 2q) and
    H_{2n} reaches about q^(-n), which the bound follows."""
    order = 2 * n
    u = (1 / (2 * ctx.sigma2).sqrt()).value
    log2_u = _log2(u)

    def weight_bits(p):
        # log2 B <= 1 + max(log2(2 p u), log2 m)
        log2_b = 1 + max(1 + p.bit_length() + log2_u, order.bit_length())
        return math.ceil(order * log2_b) + (order * (2 * p + 1)).bit_length()

    factors = _gaussian(ctx)
    last = factors.reach(weight_bits)
    scale = factors.prec + last.bit_length() + weight_bits(last)
    scale += max(0, math.ceil(-order * log2_u)) + (n + 1).bit_length()
    scaled = _hermite_scaled(n, u, scale)[::-1]

    def weight(p):
        p2, total = p * p, 0
        for v in scaled:
            total = total * p2 + v
        return total, scale

    return _weighted_series(weight, ctx, weight_bits, _hermite_coefficients(order)[0])


# ---------------------------------------------------------------------------
# Identity verifiers
# ---------------------------------------------------------------------------


def _moment_poly_value(j: int, ctx: ModulusContext) -> HPFloat:
    """R_{2j}(m), evaluated once per order and context and kept with it."""
    return ctx._once(("R", j), lambda: bell_moments(j)[j].R.evaluate(ctx.m))


def _convolution_coeff(n: int, j: int) -> Fraction:
    """C(2n, 2j) (2n-2j)!/(n-j)!, the weight of mu_{2j} in the Gaussian
    convolution of order 2n."""
    return binomial(2 * n, 2 * j) * Fraction(math.factorial(2 * n - 2 * j), math.factorial(n - j))


def verify_theorem1(n: int, ctx: ModulusContext, k_token: str = "") -> VerificationReport:
    """Hermite-weighted series against the graded moment polynomial:
    (1/theta3) sum_p q^(p^2) H_{2n}(p/(sigma sqrt2)) = (z^2/(2 sigma^2))^n R_{2n}(m)."""
    if n < 0:
        raise DomainError("index must be >= 0")
    lhs = hermite_weighted_series(n, ctx)
    r_val = _moment_poly_value(n, ctx) if n else hpf(1, ctx.digits)
    ratio = (ctx.z * ctx.z) / (2 * ctx.sigma2)
    rhs = ratio ** n * r_val if n else hpf(1, ctx.digits)
    return _report("theorem1", n, k_token or str(ctx.k), ctx.digits, lhs, rhs)


def verify_theorem3(n: int, ctx: ModulusContext, k_token: str = "") -> VerificationReport:
    """Finite moment formula against the direct series:
    mu_{2n} = sum_j C(2n,2j) ((2n-2j)!/(n-j)!) (z/2)^(2j) R_{2j}(m) (sigma^2/2)^(n-j).

    The Gaussian-convolution factor enters with a plus sign; the minus
    variant fails already at n = 1 (it would force a negative variance).
    """
    if n < 0:
        raise DomainError("index must be >= 0")
    digits = ctx.digits
    half_z = ctx.z / 2
    half_s = ctx.sigma2 / 2
    lhs = hpf(0, digits)
    for j in range(n + 1):
        coeff = _convolution_coeff(n, j)
        term = half_z ** (2 * j) * _moment_poly_value(j, ctx) * half_s ** (n - j) * coeff
        lhs = lhs + term
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
    delta2 = dual.sigma2 + ctx.c * ctx.c * ctx.sigma2
    rhs = hpf(0, ctx.digits)
    for j in range(n + 1):
        coeff = _convolution_coeff(n, j)
        sign = 1 if j % 2 == 0 else -1
        term = (
            (ctx.c ** (2 * j))
            * (delta2 / 2) ** (n - j)
            * series_moment(j, ctx)
            * (coeff * sign)
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
