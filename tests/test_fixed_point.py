"""The fixed-point series loops: the Lambert cumulant sum, the moment and
Hermite lattice sums, and theta3 run on ints scaled by 2^S.

Their accuracy is measured against the independent oracles of the other
test modules (the hyperbolic-sine Lambert route and the direct-power
lattice sum, both at digits + 60 from the context's own c and q), over
moduli from 1e-30 to 1 - 1e-20, and a guard counts the mpf operations each
loop makes, which must not grow with the number of terms.
"""

import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from thetakit import numkernel
from thetakit.cumulants import _power_factors, cumulant_lambert
from thetakit.numkernel import DomainError, _gaussian_factors, _series_sum, hpf, make_context, theta0
from thetakit.verify import hermite_weighted_series, series_moment

from lambert_oracle import lambert_sinh
from mpf_bridge import to_mpf
from test_verify import _direct_lattice

EXTRA = 60  # oracle digits beyond the context's
NMAX = 8
MODULI = ("1e-12", "1e-30", "0.3", "1/sqrt2", "0.9", "0.999999999999", "0.99999999999999999999")
DIGITS = (20, 50, 137, 500)


def _context(k, digits):
    try:
        return make_context(k, digits)
    except DomainError:
        pytest.xfail("k' = sqrt(1 - k^2) rounds to 1 in working precision, so no context exists")


def _lambert_errors(ctx, orders):
    """|kappa_2n - oracle| / (absolute series) for each order."""
    got = [cumulant_lambert(n, ctx) for n in orders]
    reference = lambert_sinh(max(orders), ctx.c, ctx.digits + EXTRA)
    with mp.workdps(ctx.digits + EXTRA):
        return [abs(to_mpf(g) - to_mpf(reference[n - 1][0])) / to_mpf(reference[n - 1][1])
                for g, n in zip(got, orders)]


def _lattice_errors(ctx, orders):
    """|series - oracle| / (absolute series) for series_moment and
    hermite_weighted_series at each order."""
    moments = [to_mpf(series_moment(n, ctx)) for n in orders]
    hermites = [to_mpf(hermite_weighted_series(n, ctx)) for n in orders]
    with mp.workdps(ctx.digits + EXTRA):
        work = ctx.digits + EXTRA
        q = to_mpf(ctx.q)
        scale = mp.sqrt(2 * to_mpf(ctx.sigma2))
        theta3 = _direct_lattice(lambda p: 1, q, work)
        errors = []
        for n, moment, hermite in zip(orders, moments, hermites):
            size = _direct_lattice(lambda p: mp.mpf(p) ** (2 * n), q, work) / theta3
            errors.append(("moment", n, abs(moment - size) / size))

            def h(p):
                return mp.hermite(2 * n, p / scale)

            value = _direct_lattice(h, q, work) / theta3
            size = _direct_lattice(lambda p: abs(h(p)), q, work) / theta3
            errors.append(("hermite", n, abs(hermite - value) / size))
        return errors


class TestAccuracyAgainstOracles:
    """The bound of the existing oracle tests, 10^(2 - digits) relative to
    the absolute series, at moduli near 0 and near 1 as well."""

    @pytest.mark.parametrize("digits", DIGITS)
    @pytest.mark.parametrize("k", MODULI)
    def test_lambert(self, k, digits):
        ctx = _context(k, digits)
        bound = mp.mpf(10) ** (2 - digits)
        for n, err in enumerate(_lambert_errors(ctx, range(1, NMAX + 1)), start=1):
            assert err <= bound, (n, err)

    @pytest.mark.parametrize("digits", DIGITS)
    @pytest.mark.parametrize("k", MODULI)
    def test_moment_and_hermite(self, k, digits):
        ctx = _context(k, digits)
        bound = mp.mpf(10) ** (2 - digits)
        for series, n, err in _lattice_errors(ctx, range(NMAX + 1)):
            assert err <= bound, (series, n, err)


@st.composite
def _moduli(draw):
    """(token, digits): log10 k or log10(1 - k) drawn uniformly, down to
    1e-20 and to where k' still differs from 1 in working precision."""
    digits = draw(st.integers(20, 137))
    if draw(st.booleans()):
        x = draw(st.floats(-(digits + 8) / 2, -0.3))
        return f"{Decimal(10) ** Decimal(x):.6e}", digits
    x = draw(st.floats(-20, -0.3))
    return str(1 - Decimal(f"{Decimal(10) ** Decimal(x):.6e}")), digits


class TestAccuracySweep:
    @settings(max_examples=25, deadline=None)
    @given(modulus=_moduli(), n=st.integers(1, NMAX))
    def test_lambert_and_lattice(self, modulus, n):
        k, digits = modulus
        ctx = make_context(k, digits)
        bound = mp.mpf(10) ** (2 - digits)
        assert _lambert_errors(ctx, [n])[0] <= bound
        for series, order, err in _lattice_errors(ctx, [n]):
            assert err <= bound, (series, order, err)


class TestDotProductAgainstExactSum:
    """``_series_sum`` is one int dot product of the weights with the table's
    factors, each truncated once onto a scale widened by the weight bound.
    It must agree with the exact rational sum of the same weights times the
    same table entries within its stated bound, 2^(top - prec) with
    f_1 < 2^top, for any nome, sign pattern, weight size and precision."""

    @settings(max_examples=40, deadline=None)
    @given(numerator=st.integers(1, 900), tiny=st.integers(0, 30), table=st.sampled_from(
               (_power_factors, _gaussian_factors, lambda q: _gaussian_factors(q, True))),
           digits=st.integers(15, 600), bound=st.integers(0, 128), lead=st.integers(-3, 3),
           seed=st.integers(0, 2 ** 32))
    def test_within_stated_bound(self, numerator, tiny, table, digits, bound, lead, seed):
        q = hpf(Fraction(numerator, 1000 * 10 ** tiny), digits)
        factors = table(q)
        draw, weights = random.Random(seed), []

        def weight_ints(count):
            # |W| < 2^bound, of any sign
            limit = 1 << bound
            weights.extend(draw.randrange(-limit + 1, limit) for _ in range(count - len(weights)))
            return weights

        man, exp = _series_sum(factors, weight_ints, lambda n: bound, lead)
        count = len(weights)
        exact = lead + sum(Fraction(w * f_man) * Fraction(2) ** f_exp
                           for w, (f_man, f_exp) in zip(weights, factors.values[:count]))
        first_man, first_exp = factors.values[0]
        top = first_exp + first_man.bit_length()
        assert abs(Fraction(man) * Fraction(2) ** exp - exact) < Fraction(2) ** (top - factors.prec)


class TestMpfOperationsPerCall:
    """The loops run on ints: a call makes a small constant number of
    rounded additions, subtractions and multiplications, however many terms
    it sums.  At k = 0.9 and 500 digits the Lambert sum of order 16 fills
    and runs about 550 terms, and the lattice sums run about 25 points."""

    OPERATIONS = ("_add", "_mul")  # subtraction is a rounded addition
    PER_CALL = 12

    @pytest.fixture
    def count(self, monkeypatch):
        """A function that returns the rounded operations fn() makes."""
        calls = []
        for name in self.OPERATIONS:
            original = getattr(numkernel, name)
            monkeypatch.setattr(
                numkernel, name, lambda *args, _op=original: calls.append(1) or _op(*args)
            )

        def count(fn):
            before = len(calls)
            fn()
            return len(calls) - before

        return count

    @pytest.fixture
    def ctx(self):
        numkernel._build_context.cache_clear()
        yield make_context("0.9", 500)
        numkernel._build_context.cache_clear()

    def test_warm_lambert(self, ctx, count):
        cumulant_lambert(8, ctx)  # fills the factor table
        assert count(lambda: cumulant_lambert(8, ctx)) <= self.PER_CALL

    def test_cold_lambert(self, ctx, count):
        # the factor table is filled on ints: about 550 entries, no mpf
        assert count(lambda: cumulant_lambert(8, ctx)) <= self.PER_CALL

    def test_cold_lattice_sums(self, ctx, count):
        assert count(lambda: theta0(3, ctx.q)) <= self.PER_CALL
        assert count(lambda: series_moment(8, ctx)) <= self.PER_CALL
        assert count(lambda: hermite_weighted_series(8, ctx)) <= self.PER_CALL
