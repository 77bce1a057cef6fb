"""Moment layer: Bell recursion goldens, the d / Q / A integer sequences,
the integrality table, the three cross-checked moment routes, the point
route checked against the polynomial route, and both checked against the
trivariate Schett oracle."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetakit import exactalg, moments
from thetakit.exactalg import ConsistencyError, UniPoly, binomial
from thetakit.cumulants import cumulant_lambert, cumulant_poly, cumulant_value, p_poly
from thetakit.moments import (
    _denominator_factors,
    _point_cumulants,
    _point_moments,
    bell_moments,
    conjecture_check,
    d_sequence,
    dk_sequence,
    kappa_recurrence_check,
    moments_determinant,
    moments_from_cumulants,
    moments_partition,
    a_sequence,
    q_from_a,
    q_sequence,
    q_value,
)
from thetakit.numkernel import make_context

from schett_oracle import schett_slice

D_GOLDEN = [1, -1, 51, 849, -26199, 1341999, 82018251]

# scaled integrality table, rows p = 3..7, terms m = 1..6
CONJECTURE_GOLDEN = {
    3: [1, 3, 7, 2953, 291969, 12470011],
    4: [1, 29, 43, 116171, 78138169, 40042714493],
    5: [1, 17, 105, 4521, 1802457, 535169097],
    6: [1, 123, 8059, 724877, 1686624921, 3594330803003],
    7: [1, 97, 5959, 293923, 294067681, 490927058857],
}


class TestBellMoments:
    def test_golden_displays(self):
        polys = bell_moments(6)
        assert str(polys[0].R) == "1"
        assert str(polys[1].R) == "0"
        assert str(polys[2].R) == "-2*m^2 + 2*m"
        assert str(polys[3].R) == "16*m^3 - 24*m^2 + 8*m"
        assert str(polys[4].R) == "-132*m^4 + 264*m^3 - 164*m^2 + 32*m"
        assert str(polys[5].R) == "1216*m^5 - 3040*m^4 + 2688*m^3 - 992*m^2 + 128*m"
        assert (
            str(polys[6].R)
            == "-12440*m^6 + 37320*m^5 - 42376*m^4 + 22552*m^3 - 5568*m^2 + 512*m"
        )

    @pytest.mark.parametrize("n", range(2, 11))
    def test_symmetry_under_modulus_swap(self, n):
        # R_{2n}(1-m) = (-1)^n R_{2n}(m)
        r = bell_moments(n)[n].R
        assert r.compose_affine(Fraction(-1), Fraction(1)) == r * ((-1) ** n)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_integral_and_divisible(self, n):
        r = bell_moments(n)[n].R
        assert r.is_integral()
        assert r.divisible_by_m_one_minus_m()


class TestDSequence:
    def test_golden(self):
        assert d_sequence(7) == D_GOLDEN

    def test_all_odd(self):
        assert all(d % 2 == 1 for d in d_sequence(7))

    def test_p2_scaling_matches(self):
        vals = dk_sequence(2, 5)
        assert vals[0] == 1
        for n, d in enumerate(d_sequence(5), start=1):
            assert vals[n] == Fraction(d, 2 ** n)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            d_sequence(0)


class TestConjectureTable:
    @pytest.mark.parametrize("p", sorted(CONJECTURE_GOLDEN))
    def test_scaled_golden_and_integral(self, p):
        rows = conjecture_check(p, 6)
        assert [r.scaled for r in rows] == CONJECTURE_GOLDEN[p]
        assert all(r.is_integer for r in rows)

    def test_p2_reduces_to_d(self):
        rows = conjecture_check(2, 4)
        assert [r.scaled for r in rows] == d_sequence(4)

    def test_unknown_p_reports_denominators(self):
        rows = conjecture_check(11, 4)
        for r in rows:
            assert r.alpha is None and r.scaled is None and r.is_integer is None
            assert isinstance(r.denominator_factors, dict)
            assert all(isinstance(prime, int) for prime in r.denominator_factors)
        # the raw values themselves are nontrivial rationals
        assert rows[1].value.denominator > 1

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            conjecture_check(1, 3)


class TestQSequence:
    def test_golden_with_zero_gaps(self):
        assert q_sequence(5)[:5] == [2, 0, -144, 0, 96768]
        assert q_sequence(5)[1::2] == [0] * 4

    def test_q_value_anchors(self):
        assert q_value(2) == 2
        assert q_value(3) == 0
        assert q_value(4) == -144
        assert q_value(6) == 96768

    def test_a_sequence_golden(self):
        assert a_sequence(5) == [1, 6, 336, 77616, 50916096, 76307083776]

    def test_two_routes_agree_to_n8(self):
        # grading route vs the A-recurrence route for Q_{4n}, n <= 8
        via_a = q_from_a(8)
        assert via_a == [q_value(2 * n) for n in range(1, 9)]
        assert via_a[:3] == [2, -144, 96768]

    def test_recurrence_check(self):
        assert kappa_recurrence_check(8)


def _point_p_values(m: Fraction, count: int) -> list[Fraction]:
    """P_{2p}(m) for p = 0..count-1 from the point route's scaled integers."""
    b = m.denominator
    return [Fraction(x, b ** (p + 1)) for p, x in enumerate(_point_cumulants(m, count))]


def _trial_factors(x: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while x > 1:
        while x % d == 0:
            out[d] = out.get(d, 0) + 1
            x //= d
        d += 1
    return out


class TestPointRouteAgainstPolynomials:
    """The point route (d, d_p, the table, Q) and the polynomial route
    (bell_moments, p_poly) run the one sn recurrence and the one Bell
    recursion, at (a, b) and at (m, 1), so these tests check the b^degree
    scaling of the point route; TestAgainstTrivariateOracle checks the
    recurrences themselves."""

    @pytest.mark.parametrize("p", range(2, 8))
    def test_moments_to_order_60(self, p):
        point = Fraction(1, p)
        expected = [row.R.evaluate(point) for row in bell_moments(30)]
        assert _point_moments(point, 30) == expected

    @pytest.mark.parametrize("p", range(2, 8))
    def test_cumulant_polys_to_order_60(self, p):
        point = Fraction(1, p)
        assert _point_p_values(point, 31) == [p_poly(i).evaluate(point) for i in range(31)]

    @pytest.mark.parametrize("p", range(2, 8))
    def test_public_sequences(self, p):
        point = Fraction(1, p)
        polys = bell_moments(24)
        assert dk_sequence(p, 12) == [polys[2 * n].R.evaluate(point) for n in range(13)]
        rows = conjecture_check(p, 12)
        assert [row.value for row in rows] == [polys[2 * n].R.evaluate(point) for n in range(1, 13)]

    def test_d_and_q_at_one_half(self):
        half = Fraction(1, 2)
        polys = bell_moments(40)
        assert d_sequence(20) == [polys[2 * n].R.evaluate(half) * 2 ** n for n in range(1, 21)]
        expected_q = [(-1) ** (n - 1) * 2 ** n * p_poly(n - 1).evaluate(half) for n in range(2, 31)]
        assert q_sequence(15) == expected_q
        assert [q_value(n) for n in (2, 7, 30)] == [expected_q[0], expected_q[5], expected_q[28]]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=60), st.integers(min_value=1, max_value=59),
           st.integers(min_value=0, max_value=8))
    def test_sweep_over_rational_points(self, p, a, n):
        # m = 1/p and, to exercise both factors a and b - a, m = a/p
        for point in {Fraction(1, p), Fraction(1 + a % (p - 1), p)}:
            assert _point_moments(point, n)[n] == bell_moments(n)[n].R.evaluate(point)
            assert _point_p_values(point, n + 1)[n] == p_poly(n).evaluate(point)


def _oracle_p(p: int) -> UniPoly:
    """P_{2p} = -m(1-m) sum_n C(2p, 2n+1) S_n S_{p-1-n}, with S_n from the
    trivariate Schett operator."""
    total = UniPoly.zero()
    for n in range(p):
        total = total + schett_slice(n) * schett_slice(p - 1 - n) * binomial(2 * p, 2 * n + 1)
    return UniPoly.from_ints([0, -1, 1]) * total


class TestAgainstTrivariateOracle:
    """P_{2p} from the trivariate Schett route and R_{2n} from the Hessenberg
    determinant over those cumulants share no code with the sn recurrence
    and the Bell recursion that both exact routes run."""

    @pytest.mark.parametrize("p", range(12))
    def test_p_poly(self, p):
        assert p_poly(p) == _oracle_p(p)

    @pytest.mark.parametrize("point", [Fraction(1, 3), Fraction(2, 5)])
    def test_point_cumulants(self, point):
        assert _point_p_values(point, 12) == [_oracle_p(p).evaluate(point) for p in range(12)]

    def test_determinant_over_oracle_cumulants(self):
        kappas = [
            UniPoly.zero() if o % 2 or o == 2 else _oracle_p(o // 2 - 1) * (-1) ** (o // 2 - 1)
            for o in range(1, 17)
        ]
        expected = [moments_determinant(2 * n, kappas) for n in range(1, 9)]
        assert [row.R for row in bell_moments(8)[1:]] == expected


class TestPointRouteAvoidsPolynomials:
    def test_polynomial_tables_do_not_grow(self, monkeypatch):
        # start from empty Z[m] tables; the point route must not fill them
        monkeypatch.setattr(moments, "_ZM_KAPPA", [UniPoly.zero(), UniPoly.zero()])
        monkeypatch.setattr(moments, "_ZM_R", [UniPoly.one()])
        monkeypatch.setattr(exactalg, "_ZM_S", [UniPoly.one()])
        monkeypatch.setattr(exactalg, "_ZM_W", [UniPoly.zero()])
        assert d_sequence(30)[:7] == D_GOLDEN
        dk_sequence(5, 12)
        assert [row.scaled for row in conjecture_check(7, 12)][:6] == CONJECTURE_GOLDEN[7]
        q_sequence(10)
        q_value(9)
        assert kappa_recurrence_check(8)
        tables = (moments._ZM_KAPPA, moments._ZM_R, exactalg._ZM_S, exactalg._ZM_W)
        assert [len(t) for t in tables] == [2, 1, 1, 1]

    def test_d_sequence_60_floor(self):
        start = time.perf_counter()
        d = d_sequence(60)
        elapsed = time.perf_counter() - start
        assert d[:7] == D_GOLDEN and len(d) == 60
        assert elapsed < 2.0


class TestDenominatorFactors:
    @pytest.mark.parametrize("p", [8, 9, 10, 12, 30, 49])
    def test_matches_trial_division_of_the_denominator(self, p):
        for row in conjecture_check(p, 6):
            assert row.denominator_factors == _trial_factors(row.value.denominator)

    def test_foreign_factor_is_an_error(self):
        assert _denominator_factors(2 ** 5 * 3 ** 2, 6) == {2: 5, 3: 2}
        with pytest.raises(ConsistencyError):
            _denominator_factors(2 ** 5 * 7, 6)


def _reference_moments(kappas: list) -> list:
    # plain textbook recurrence, independent of the module internals
    mu = [Fraction(1)]
    for order in range(1, len(kappas) + 1):
        acc = kappas[order - 1]
        for m in range(1, order):
            acc += kappas[m - 1] * mu[order - m] * binomial(order - 1, m - 1)
        mu.append(acc)
    return mu


class TestMomentRoutes:
    def test_exact_recurrence_matches_bell(self):
        # bell_moments and the exact recurrence share one table, so check
        # it against the determinant and partition routes instead
        orders = 12
        kappas = [
            UniPoly.zero() if (o % 2 or o == 2) else cumulant_poly(o // 2).coefficient
            for o in range(1, orders + 1)
        ]
        bell = bell_moments(orders // 2)
        for n in range(1, orders // 2 + 1):
            assert moments_determinant(2 * n, kappas) == bell[n].R
            assert moments_partition(2 * n, kappas) == bell[n].R
        for j in range(1, orders + 1, 2):
            assert moments_determinant(j, kappas) == UniPoly.zero()
            assert moments_partition(j, kappas) == UniPoly.zero()

    def test_smaller_orders_are_prefixes(self):
        full = moments_from_cumulants(6)
        assert moments_from_cumulants(2) == full[:5]
        assert [m.R for m in bell_moments(2)] == full[0:5:2]

    def test_determinant_and_partition_match_graded(self):
        orders = 12
        kappas = [
            UniPoly.zero() if (o % 2 or o == 2) else cumulant_poly(o // 2).coefficient
            for o in range(1, orders + 1)
        ]
        mu = moments_from_cumulants(orders // 2)
        for n in range(1, orders + 1):
            assert moments_determinant(n, kappas) == mu[n]
            assert moments_partition(n, kappas) == mu[n]

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=6),
            min_size=1,
            max_size=7,
        )
    )
    def test_routes_agree_on_arbitrary_cumulants(self, kappas):
        # includes kappa_1 != 0 and odd cumulants, unlike the graded ring
        ref = _reference_moments(kappas)
        n = len(kappas)
        assert moments_determinant(n, kappas) == ref[n]
        assert moments_partition(n, kappas) == ref[n]

    def test_numeric_context_route(self):
        ctx = make_context("0.6", 40)
        mu = moments_from_cumulants(2, ctx)
        assert float(abs(mu[2] - ctx.sigma2)) < 1e-35
        expected4 = cumulant_value(4, ctx) + ctx.sigma2 ** 2 * 3
        assert float(abs(mu[4] - expected4)) < 1e-33

    def test_partition_budget(self):
        # sparse cumulants keep the over-cap run prunable: only pair blocks
        sparse = [Fraction(1) if o == 2 else Fraction(0) for o in range(1, 15)]
        with pytest.raises(ValueError):
            moments_partition(13, sparse)
        assert moments_partition(14, sparse, cap=14) == _reference_moments(sparse)[14]
        with pytest.raises(ValueError):
            moments_partition(15, [Fraction(1)] * 15, cap=14)

    def test_determinant_needs_enough_cumulants(self):
        with pytest.raises(ValueError):
            moments_determinant(4, [Fraction(1), Fraction(2)])


class TestFactorize:
    """moments._factorize (Miller-Rabin and Pollard-Brent) against sympy,
    which is not a dependency of thetakit."""

    @staticmethod
    def _cases():
        sympy = pytest.importorskip("sympy")
        rng = random.Random(61)
        cases = [1, 2, 41, 42, 43 * 43, 2 ** 61 - 1, (2 ** 31 - 1) * (2 ** 61 - 1)]
        for bits in (8, 16, 24, 32):
            for _ in range(6):
                p = sympy.nextprime(rng.getrandbits(bits))
                q = sympy.nextprime(rng.getrandbits(rng.randint(8, 28)))
                cases += [p * q, p ** rng.randint(2, 5), p ** 2 * q * rng.randint(1, 1000)]
        return sympy, cases

    def test_agrees_with_sympy(self):
        sympy, cases = self._cases()
        for x in cases:
            assert moments._factorize(x) == sympy.factorint(x), x
