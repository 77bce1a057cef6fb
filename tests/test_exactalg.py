"""Exact layer: integer polynomial arithmetic, the sn-ODE route to S_n
checked against the trivariate operator recurrence, and validated
binomials."""

import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetakit.cumulants import p_poly
from thetakit.exactalg import UniPoly, binomial, schett_reduced
from thetakit.moments import bell_moments

from schett_oracle import TriPoly, schett_raw, schett_slice

fractions = st.fractions(max_denominator=50)
small_polys = st.lists(fractions, min_size=0, max_size=6).map(
    lambda cs: UniPoly(tuple(cs))
)


class TestUniPolyBasics:
    def test_zero_one_variable(self):
        assert UniPoly.zero().degree == -1
        assert UniPoly.one().degree == 0
        assert UniPoly.variable().degree == 1
        assert UniPoly.variable().coefficient(1) == 1
        assert not UniPoly.zero()
        assert UniPoly.one()

    def test_trailing_zeros_trimmed(self):
        assert UniPoly((Fraction(1), Fraction(0), Fraction(0))) == UniPoly.one()
        assert UniPoly([1, 0, 0]).coeffs == (1,)
        assert UniPoly([0, 0]).coeffs == ()

    def test_coefficients_are_read_only(self):
        p = UniPoly((1, 2))
        with pytest.raises(AttributeError):
            p.coeffs = (3,)
        assert p.coeffs == (1, 2) and hash(p) == hash(UniPoly((Fraction(1), 2)))
        assert pickle.loads(pickle.dumps(p)) == p

    def test_coefficient_out_of_range(self):
        p = UniPoly.from_ints([3, 5])
        assert p.coefficient(0) == 3
        assert p.coefficient(1) == 5
        assert p.coefficient(7) == 0

    def test_str_golden(self):
        assert str(UniPoly.from_ints([0, 2, -2])) == "-2*m^2 + 2*m"
        assert str(UniPoly.zero()) == "0"
        assert str(UniPoly.one()) == "1"
        assert str(UniPoly.variable()) == "m"
        assert str(UniPoly((Fraction(1, 2), Fraction(-3, 4)))) == "-(3/4)*m + (1/2)"
        assert str(UniPoly.from_ints([-1, 0, 1])) == "m^2 - 1"

    def test_integral_coefficients_are_ints(self):
        p = UniPoly((Fraction(4, 2), Fraction(1, 3), 5))
        assert [type(c) for c in p.coeffs] == [int, Fraction, int]
        assert all(type(c) is int for c in (p * 3).coeffs)
        assert all(type(c) is int for c in (UniPoly((Fraction(1, 2),)) * 2).coeffs)

    def test_integrality_predicates(self):
        assert UniPoly.from_ints([0, 2, -2]).is_integral()
        assert not UniPoly((Fraction(1, 2),)).is_integral()
        assert UniPoly.from_ints([0, 2, -2]).divisible_by_m_one_minus_m()
        assert not UniPoly.from_ints([-1, 2]).divisible_by_m_one_minus_m()
        assert not UniPoly.from_ints([0, 1]).divisible_by_m_one_minus_m()


class TestUniPolyAlgebra:
    @given(small_polys, small_polys, small_polys)
    def test_distributive(self, p, q, r):
        assert (p + q) * r == p * r + q * r

    @given(small_polys, small_polys, fractions)
    def test_evaluate_is_ring_hom(self, p, q, x):
        assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)
        assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)

    @given(small_polys, fractions, fractions, fractions)
    def test_compose_affine_agrees_with_substitution(self, p, alpha, beta, x):
        assert p.compose_affine(alpha, beta).evaluate(x) == p.evaluate(alpha * x + beta)

    @given(small_polys)
    def test_additive_inverse(self, p):
        assert p - p == UniPoly.zero()
        assert -(-p) == p

    def test_pow(self):
        m = UniPoly.variable()
        assert (m + 1) ** 2 == m * m + 2 * m + 1
        assert (m + 1) ** 0 == UniPoly.one()
        with pytest.raises(ValueError):
            (m + 1) ** -1

    def test_scalar_mixing(self):
        m = UniPoly.variable()
        assert 2 * m == m * 2
        assert m + Fraction(1, 2) == UniPoly((Fraction(1, 2), Fraction(1)))
        assert 1 - m == UniPoly.from_ints([1, -1])


class TestSchett:
    def test_raw_golden_low_orders(self):
        assert schett_raw(0).as_dict() == {(1, 0, 0): 1}
        assert schett_raw(1).as_dict() == {(0, 1, 1): 1}
        assert schett_raw(2).as_dict() == {(1, 2, 0): 1, (1, 0, 2): 1}
        assert schett_raw(3).as_dict() == {(0, 3, 1): 1, (0, 1, 3): 1, (2, 1, 1): 4}

    def test_raw_golden_order_four(self):
        # the x^3 block is 4x^3(y^2 + z^2); a z^3 there would break homogeneity
        assert schett_raw(4).as_dict() == {
            (1, 4, 0): 1,
            (1, 0, 4): 1,
            (3, 2, 0): 4,
            (3, 0, 2): 4,
            (1, 2, 2): 14,
        }

    @pytest.mark.parametrize("n", range(21))
    def test_homogeneous_of_degree_n_plus_one(self, n):
        assert schett_raw(n).total_degrees() == {n + 1}

    def test_reduced_golden(self):
        assert str(schett_reduced(0)) == "1"
        assert str(schett_reduced(1)) == "2*m - 1"
        assert str(schett_reduced(2)) == "16*m^2 - 16*m + 1"
        assert str(schett_reduced(3)) == "272*m^3 - 408*m^2 + 138*m - 1"

    @pytest.mark.parametrize("n", range(13))
    def test_reduced_is_integral(self, n):
        assert schett_reduced(n).is_integral()

    @pytest.mark.parametrize("n", range(11))
    def test_reduced_matches_trivariate_oracle(self, n):
        assert schett_reduced(n) == schett_slice(n)

    def test_reduced_self_dual_alternation(self):
        # S_n(1-m) = (-1)^n S_n(m): substitution m -> 1-m flips the sign
        for n in range(9):
            s = schett_reduced(n)
            flipped = s.compose_affine(Fraction(-1), Fraction(1))
            assert flipped == s * ((-1) ** n)


class TestTriPoly:
    def test_diff_product_rule_spot(self):
        p = TriPoly.from_dict({(1, 2, 0): 3, (0, 0, 2): 1})
        q = TriPoly.from_dict({(1, 0, 1): 2})
        for var in range(3):
            lhs = (p * q).diff(var)
            rhs = p.diff(var) * q + p * q.diff(var)
            assert lhs == rhs

    def test_add_sub_roundtrip(self):
        p = TriPoly.from_dict({(2, 1, 1): 5})
        q = TriPoly.from_dict({(0, 1, 0): -4, (2, 1, 1): 1})
        assert (p + q) - q == p
        assert p - p == TriPoly.zero()


class TestBinomial:
    @given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40))
    def test_matches_math_comb(self, n, r):
        if r <= n:
            assert binomial(n, r) == math.comb(n, r)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)
        with pytest.raises(ValueError):
            binomial(3, 5)


class TestIntegerCoefficients:
    """The exact pipeline stays in Z[m]: no Fraction or float creeps in."""

    @pytest.mark.parametrize("n", range(13))
    def test_s_p_r_coefficients_are_ints(self, n):
        polys = [schett_reduced(n), p_poly(n), bell_moments(n)[n].R]
        for poly in polys:
            assert all(type(c) is int for c in poly.coeffs), poly
