"""Cumulant layer: exact graded polynomials against three numeric routes
(Lambert series in the nome, lattice sum, direct grade evaluation), and the
Lambert series against its hyperbolic-sine form."""

import pytest
from mpmath import mp

from thetakit import cumulants, numkernel
from thetakit.cumulants import (
    _lambert_weights,
    CumulantPoly,
    cumulant_eisenstein,
    cumulant_lambert,
    cumulant_poly,
    cumulant_symmetry_residual,
    cumulant_value,
    p_poly,
    symmetry_check_P,
)
from thetakit.exactalg import UniPoly
from thetakit.numkernel import DomainError, hpf, lemniscatic_context, make_context, theta0
from thetakit.verify import hermite_weighted_series, series_moment

from lambert_oracle import lambert_sinh
from mpf_bridge import to_mpf

KAPPA4_LEMN = "0.060656787177862888435934250149952886976349774397008478988"


class TestPPoly:
    def test_golden_displays(self):
        assert str(p_poly(1)) == "2*m^2 - 2*m"
        assert str(p_poly(2)) == "16*m^3 - 24*m^2 + 8*m"
        assert str(p_poly(3)) == "272*m^4 - 544*m^3 + 304*m^2 - 32*m"

    def test_p0_is_zero(self):
        assert p_poly(0) == UniPoly.zero()

    @pytest.mark.parametrize("n", range(1, 13))
    def test_integral_and_divisible(self, n):
        p = p_poly(n)
        assert p.is_integral()
        assert p.divisible_by_m_one_minus_m()
        assert p.degree == n + 1

    @pytest.mark.parametrize("n", range(1, 13))
    def test_self_duality(self, n):
        # P_{2n}(1-m) = (-1)^(n-1) P_{2n}(m)
        assert symmetry_check_P(n)

    @pytest.mark.parametrize("n", [3, 4])
    def test_self_duality_check_sees_a_wrong_polynomial(self, monkeypatch, n):
        monkeypatch.setattr(cumulants, "p_poly", lambda i, exact=p_poly: exact(i) + UniPoly.variable())
        assert not symmetry_check_P(n)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            p_poly(-1)


class TestCumulantPoly:
    def test_kappa4_form(self):
        c = cumulant_poly(2)
        # kappa_4 = 2 (kk')^2 (z/2)^4, so the grade coefficient is 2m(1-m)
        assert str(c.coefficient) == "-2*m^2 + 2*m"
        assert c.sign == -1

    def test_sign_alternation(self):
        assert [cumulant_poly(n).sign for n in range(2, 7)] == [-1, 1, -1, 1, -1]

    def test_rejects_low_order(self):
        with pytest.raises(DomainError):
            cumulant_poly(1)

    def test_record_is_read_only(self):
        c = cumulant_poly(2)
        with pytest.raises(AttributeError):
            c.sign = 1
        assert c._replace(sign=1).sign == 1 and c.sign == -1

    @pytest.mark.parametrize("n", range(2, 7))
    def test_evaluate_matches_series_route(self, n):
        ctx = make_context("0.6", 40)
        exact = cumulant_poly(n).evaluate(ctx)
        series = cumulant_lambert(n, ctx)
        rel = abs(exact - series) / abs(series)
        assert float(rel) < 1e-32

    def test_evaluate_lemniscatic_kappa4(self):
        ctx = lemniscatic_context(50)
        got = cumulant_poly(2).evaluate(ctx)
        assert float(abs(got - hpf(KAPPA4_LEMN, 50))) < 1e-45


class TestSeriesRoute:
    def test_kappa2_is_the_variance(self):
        for ctx in (make_context("0.3", 40), lemniscatic_context(40)):
            assert float(abs(cumulant_lambert(1, ctx) - ctx.sigma2)) < 1e-35

    def test_odd_orders_vanish(self):
        ctx = make_context("0.6", 30)
        for order in (1, 3, 7):
            assert float(cumulant_value(order, ctx)) == 0.0

    def test_value_dispatches_even_orders(self):
        ctx = make_context("0.6", 30)
        a = cumulant_value(4, ctx)
        b = cumulant_lambert(2, ctx)
        assert float(abs(a - b)) == 0.0

    def test_rejects_bad_order(self):
        ctx = make_context("0.6", 30)
        with pytest.raises(DomainError):
            cumulant_lambert(0, ctx)
        with pytest.raises(DomainError):
            cumulant_value(0, ctx)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dual_modulus_symmetry_residual(self, n):
        # kappa_{2n}(k') = (-1)^n (K'/K)^(2n) kappa_{2n}(k)
        res = cumulant_symmetry_residual(n, make_context("0.3", 40))
        assert float(abs(res)) < 1e-32


class TestLatticeRoute:
    def test_cross_oracle_n2(self):
        ctx = lemniscatic_context(30)
        approx = cumulant_eisenstein(2, ctx, 2000)
        exact = cumulant_lambert(2, ctx)
        assert float(abs(approx.value - exact)) < 1e-6

    def test_cross_oracle_n3(self):
        ctx = lemniscatic_context(30)
        approx = cumulant_eisenstein(3, ctx, 500)
        exact = cumulant_lambert(3, ctx)
        assert float(abs(approx.value - exact)) < 1e-8

    def test_labelled_at_float_precision(self):
        # the lattice is summed in floats, so a 30-digit context gives no more
        approx = cumulant_eisenstein(3, lemniscatic_context(30), 100)
        assert approx.value.digits == approx.tail.digits == 15

    def test_tail_is_positive_and_shrinks(self):
        ctx = lemniscatic_context(30)
        t_small = cumulant_eisenstein(3, ctx, 100).tail
        t_large = cumulant_eisenstein(3, ctx, 400).tail
        assert float(t_small) > 0
        assert float(t_large) < float(t_small)

    def test_off_lemniscatic_modulus(self):
        ctx = make_context("0.6", 30)
        approx = cumulant_eisenstein(2, ctx, 1500)
        exact = cumulant_lambert(2, ctx)
        assert float(abs(approx.value - exact)) < 1e-5

    def test_rejects_n1_and_bad_cutoff(self):
        ctx = lemniscatic_context(30)
        with pytest.raises(DomainError):
            cumulant_eisenstein(1, ctx, 100)
        with pytest.raises(DomainError):
            cumulant_eisenstein(2, ctx, 0)


# The sinh oracle runs at digits + ORACLE_EXTRA from the context's own c.
ORACLE_EXTRA = 60
ORACLE_NMAX = 8
LAMBERT_MODULI = ("1e-12", "0.3", "1/sqrt2", "0.9", "0.999999")
# Near k = 1 the alternating series cancels (c = K'/K is small), so both
# forms lose digits alike there.
LAMBERT_CANCELS = ("0.999999999999", "0.99999999999999999999")


def _lemniscatic_zero(k, n):
    # P_{2p}(1 - m) = (-1)^(p-1) P_{2p}(m), so kappa_{2n} = 0 at m = 1/2 for odd n >= 3
    return k == "1/sqrt2" and n % 2 == 1 and n >= 3


def _errors(got, reference, digits):
    """|got - ref| / |ref| and |got - ref| / (absolute series) per order."""
    with mp.workdps(digits + ORACLE_EXTRA):
        out = []
        for g, (ref, size) in zip(got, reference):
            err = abs(to_mpf(g) - to_mpf(ref))
            out.append((err / abs(to_mpf(ref)) if ref.mantissa else mp.inf, err / to_mpf(size)))
        return out


class TestLambertAgainstSinhOracle:
    @pytest.mark.parametrize("digits", [30, 50, 500])
    @pytest.mark.parametrize("k", LAMBERT_MODULI)
    def test_relative_error(self, k, digits):
        ctx = make_context(k, digits)
        got = [cumulant_lambert(n, ctx) for n in range(1, ORACLE_NMAX + 1)]
        reference = lambert_sinh(ORACLE_NMAX, ctx.c, digits + ORACLE_EXTRA)
        bound = mp.mpf(10) ** (2 - digits)
        for n, (rel, to_size) in enumerate(_errors(got, reference, digits), start=1):
            # an exact zero has no relative error: measure it against the absolute series
            assert (to_size if _lemniscatic_zero(k, n) else rel) <= bound, (n, rel, to_size)

    @pytest.mark.parametrize("digits", [30, 50, 500])
    @pytest.mark.parametrize("k", LAMBERT_CANCELS)
    def test_cancelling_series_no_worse_than_sinh_form(self, k, digits):
        ctx = make_context(k, digits)
        got = [cumulant_lambert(n, ctx) for n in range(1, ORACLE_NMAX + 1)]
        same_digits = [v for v, _ in lambert_sinh(ORACLE_NMAX, ctx.c, digits)]
        reference = lambert_sinh(ORACLE_NMAX, ctx.c, digits + ORACLE_EXTRA)
        ours = _errors(got, reference, digits)
        theirs = _errors(same_digits, reference, digits)
        # per order both errors are rounding noise amplified by the cancellation,
        # so compare the worst order of each form
        assert max(rel for rel, _ in ours) <= 10 * max(rel for rel, _ in theirs)
        bound = mp.mpf(10) ** (2 - digits)
        assert all(to_size <= bound for _, to_size in ours)


class TestLambertTableOrder:
    """One factor table per context serves every order: kappa_{2n}, and the
    moment and Hermite sums over the context's Gaussian table, must not
    depend on which order grew the table, nor on whether it was warm."""

    @staticmethod
    def _sums(ctx, orders):
        return [(cumulant_lambert(n, ctx).value, series_moment(n, ctx).value,
                 hermite_weighted_series(n, ctx).value) for n in orders]

    @pytest.mark.parametrize("digits", [30, 500])
    @pytest.mark.parametrize("k", ("1e-12", "0.3", "1/sqrt2", "0.9"))
    def test_bit_identical_in_any_order(self, k, digits):
        orders = range(1, ORACLE_NMAX + 1)
        numkernel._build_context.cache_clear()
        ctx = make_context(k, digits)
        upward = self._sums(ctx, orders)
        numkernel._build_context.cache_clear()
        ctx = make_context(k, digits)
        downward = self._sums(ctx, reversed(orders))[::-1]
        for n in orders:  # keep the tables, but sum every moment again
            del ctx._series[("moment", n)], ctx._series[("power", n)]
        warm = self._sums(ctx, orders)
        assert upward == downward == warm


class TestLambertWeights:
    """The weights of kappa_{2n} = 2 sum_N a_N q^N come from a sieve over odd
    divisors and the powers of two in N; against the divisor sum that
    defines them, a_N = sum_{r | N, N/r odd} (-1)^(r-1) r^(2n-1)."""

    def test_against_divisor_sums(self, monkeypatch):
        monkeypatch.setattr(cumulants, "_LAMBERT_WEIGHTS", {})  # grow from empty
        divisors = [[r for r in range(1, N + 1) if N % r == 0] for N in range(1, 801)]
        for n in range(1, 10):
            power = 2 * n - 1
            # grown in steps, as tables of several contexts ask for them
            for count in (1, 2, 37, 300, 301, 800):
                weights = _lambert_weights(power, count)
                assert len(weights) > count
            for N, rs in enumerate(divisors, start=1):
                expected = sum((-1) ** (r - 1) * r ** power for r in rs if (N // r) % 2)
                assert weights[N] == expected, (n, N)


class TestNoTranscendentalPerTerm:
    """The series loops step their powers of q by running products: no term
    evaluates exp, log, sin or cos, nor raises a number to a power, nor
    divides.  The Lambert table of powers of q is filled once per context,
    so a repeated order grows no table entry; so are the Gaussian factors of
    the moment sums."""

    def test_lambert_and_theta_loops(self, monkeypatch):
        # a cold context, built before the patch (contexts do use exp), so
        # that its table of powers is filled under the patch
        numkernel._build_context.cache_clear()
        ctx = make_context("0.9", 500)

        def forbidden(*args, **kwargs):
            raise AssertionError("transcendental function inside a series loop")

        for name in ("_exp", "_log", "_cos_sin"):
            monkeypatch.setattr(numkernel, name, forbidden)
        powers, divisions = [], []
        rounded_pow, rounded_div = numkernel._pow, numkernel._div
        monkeypatch.setattr(
            numkernel, "_pow", lambda a, n, prec: powers.append(n) or rounded_pow(a, n, prec)
        )
        monkeypatch.setattr(
            numkernel, "_div", lambda a, b, prec: divisions.append(b) or rounded_div(a, b, prec)
        )
        cold = cumulant_lambert(8, ctx)
        table = ctx._series["powers"].values
        filled = len(table)
        warm = cumulant_lambert(8, ctx)
        assert filled > 1, "the table of powers was not filled under the patch"
        assert len(table) == filled, "a repeated order grew the table"
        assert not divisions, "the Lambert sum divided"
        assert warm.value == cold.value
        moment = series_moment(8, ctx)
        gauss = ctx._series["gauss"].values
        filled = len(gauss)
        del ctx._series[("moment", 8)], ctx._series[("power", 8)]  # sum the warm table again
        assert series_moment(8, ctx).value == moment.value
        assert len(gauss) == filled, "a repeated moment grew the Gaussian table"
        theta0(3, ctx.q)
        theta0(2, ctx.q)
        assert not powers
