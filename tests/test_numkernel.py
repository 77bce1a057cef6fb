"""High-precision kernel tests against frozen external oracle values.

Every literal below was computed independently (mpmath at 60 working
digits) and frozen before the kernel was written.  The kernel shares no
code with mpmath: its numbers are ints, and mpmath serves the tests below
as an independent oracle of the arithmetic, reached through ``mpf_bridge``.
"""

import copy
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import libmp, mp

from thetakit import numkernel
from thetakit.numkernel import (
    DEFAULT_DIGITS,
    DomainError,
    HPFloat,
    LEMNISCATIC_TOKEN,
    ModulusContext,
    agm,
    dual_context,
    gamma_quarter,
    hpf,
    lemniscatic_context,
    make_context,
    parse_modulus,
    pi,
    pow10,
    theta0,
)
from thetakit.verify import _hermite_coefficients, _hermite_scaled, verify_jacobi_transform

from ellipk_oracle import ellipK_series
from mpf_bridge import to_mpf, to_pair
from theta_product_oracle import theta3_product

# frozen oracle constants (60 working digits)
GAMMA_QUARTER = "3.625609908221908311930685155867672002995167682880065467"
K_LEMN = "1.854074677301371918433850347195260046217598823521766906"
E_LEMN = "1.350643881047675502520174735338725841349522366924354545"
K_06 = "1.750753802915752528975226046012148255767459160916801427"
E_06 = "1.418083394448724231567793195609859117163148354103766799"
K_03 = "1.608048619930512801267207222238687157112176728802652558"
K_09 = "2.280549138422770204613751944555530438743237966278793337"
AGM_1_2 = "1.456791031046906869186432383265081974973863943221305591"
THETA3_EPI = "1.086434811213308014575316121510223457070205707245218886"
THETA3_Q01 = "1.2002000020000002000000002000000000020000000000002"
THETA2_Q01 = "1.135930601568280205757589414916293206866163849663349768"
THETA4_Q01 = "0.8001999980000001999999998000000000019999999999998"
THETA1_Z04_Q02 = "0.4710539466859789059867203653727559095175126051668815995"
THETA3_Z04_Q02 = "1.278588490163252476537224866435662413198073171049887486"
Z_LEMN = "1.180340599016096226045337940558488587233716634881447"
SIGMA2_LEMN = "0.079577471545947667884441881686257181017229822870228224374"
Q_03 = "0.0058941444342690817285436195419755298929198393028021"
# theta0(i, q).value for i = 2, 3, 4: the exact lattice sums, bit for bit
THETA0_BITS = {
    ("1e-4", 20): [
        (8112963922590306584185590323159, -105),
        (332373460346018280480996744668893805, -118),
        (332240537546439788893706363962865773, -118),
    ],
    ("0.3", 20): [
        (65490291857913460758536464918309, -105),
        (131124916053519878364314692842877, -106),
        (8440740614318176357174458962041, -104),
    ],
    ("0.95", 20): [
        (2539710248466263451277104630233649, -108),
        (2539710248466263451277104630233651, -108),
        (1631360965481, -106),
    ],
    ("1e-4", 50): [
        (20568807172203145192087890620144995647028538380397082269902923, -206),
        (52666677063445459598857972500322253099794497245415029125708487615, -215),
        (210582458420446992646073555579142075210824539556882183630486280207, -217),
    ],
    ("0.3", 50): [
        (332075231131223693572844836084667600618869782065804645252989711, -207),
        (664882314160482668130603323440840452677405550550915783970624845, -208),
        (171198558497779680458764312643146026215930402711544616638265867, -208),
    ],
    ("0.95", 50): [
        (3219465220874044493751991148109819520842706336168556528714165483, -208),
        (3219465220874044493751991148109819520842706336168556528714165483, -208),
        (129249731692562148226312160211378204206251, -202),
    ],
}


def assert_close(value: HPFloat, literal: str, tol_exp: int = -45) -> None:
    ref = hpf(literal, value.digits)
    assert float(abs(value - ref)) < 10.0 ** tol_exp


class TestHPFloatScalar:
    def test_rejects_floats_and_bools(self):
        with pytest.raises(TypeError):
            hpf(0.5)
        with pytest.raises(TypeError):
            hpf(True)
        with pytest.raises(TypeError):
            hpf([1])

    def test_rejects_low_precision(self):
        with pytest.raises(DomainError):
            hpf(1, digits=10)
        with pytest.raises(DomainError):
            HPFloat(1, 0, 14)

    def test_fields_are_read_only(self):
        x = hpf("0.5", 30)
        with pytest.raises(AttributeError):
            x.digits = 40
        with pytest.raises(AttributeError):
            del x.value
        assert x.digits == 30 and x == hpf("0.5", 30)
        assert copy.copy(x).value == x.value and copy.copy(x).digits == 30

    def test_exact_constructions_agree(self):
        a = hpf("0.125", 30)
        b = hpf(Fraction(1, 8), 30)
        assert float(abs(a - b)) == 0.0

    def test_mixed_precision_uses_larger(self):
        a = hpf(1, 20) / 3
        b = hpf(1, 60) / 3
        assert (a + b).digits == 60

    def test_negation_preserves_precision(self):
        # unary ops round at the value's own working precision, never at a
        # 53-bit double's
        y = pi(50)
        assert float(abs(-y + y)) == 0.0
        assert float(abs(abs(-y) - y)) == 0.0
        q = (-(pi(50) * hpf("0.37", 50))).exp()
        back = -(q.log()) / pi(50)
        assert float(abs(back - hpf("0.37", 50))) < 1e-45

    def test_failed_operation_restores_precision(self):
        # there is no ambient precision: a failed operation leaves no state
        before = (hpf(1, 30) / 3).value
        with pytest.raises(ZeroDivisionError):
            hpf(1, 30) / 0
        with pytest.raises(DomainError):
            hpf(1, 10)
        assert (hpf(1, 30) / 3).value == before

    def test_comparisons(self):
        assert hpf(1, 20) < hpf(2, 20)
        assert hpf(2, 20) >= 2
        assert hpf(3, 20) == 3

    @given(st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000))
    def test_sqrt_squares_back(self, f):
        x = hpf(f, 40)
        err = abs(x.sqrt() ** 2 - x) / x
        assert float(err) < 1e-38

    def test_pow10(self):
        assert float(pow10(-3, 20)) == 1e-3
        assert float(abs(pow10(2, 20) - 100)) == 0.0

    def test_upward_relabel_raises(self):
        # a 30-digit value cannot be promised at 50 digits without recomputing
        with pytest.raises(DomainError):
            hpf(hpf("0.3", 30), 50)

    def test_downward_relabel_keeps_value(self):
        x = pi(50)
        y = hpf(x, 30)
        assert y.digits == 30
        assert y.value == x.value
        assert hpf(x, 50) is x

    def test_decimal_string_roundtrip(self):
        x = pi(40)
        y = hpf(x.to_decimal_string(), 40)
        assert float(abs(x - y)) < 1e-38


class TestAgmAndElliptic:
    def test_agm_oracle(self):
        assert_close(agm(1, 2, 50), AGM_1_2)

    def test_agm_symmetry_and_scaling(self):
        a = agm(3, 7, 40)
        b = agm(7, 3, 40)
        assert float(abs(a - b)) < 1e-37
        assert float(abs(agm(6, 14, 40) - a * 2)) < 1e-36

    @pytest.mark.parametrize("a, b", [(10**30, 2 * 10**30), (1, 10**40), (10**6, 1),
                                      (194937 * 10**35, 659925 * 10**6)])
    def test_agm_far_from_unit_scale(self, a, b):
        # agm's mean is taken at its relative rule; the pass goes on to E's
        # rule, whose bound on c_j scales with max(1, a_j).  The last pair's
        # iterates settle one unit apart near 4.6e38, so c_j stays near 1e-23
        # and would never fall below an absolute 10^(-55): the pass would not end.
        assert float(abs(agm(a, b, 50) / (a * agm(1, Fraction(b, a), 50)) - 1)) < 1e-48

    def test_agm_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            agm(0, 1, 30)
        with pytest.raises(DomainError):
            agm(-2, 1, 30)

    def test_K_oracles(self):
        assert_close(make_context("0.6", 50).K, K_06)
        assert_close(make_context("0.3", 50).K, K_03)
        assert_close(make_context("0.9", 50).K, K_09)

    def test_E_oracles(self):
        assert_close(make_context("0.6", 50).E, E_06)

    def test_lemniscatic_K_and_E(self):
        ctx = lemniscatic_context(50)
        assert_close(ctx.K, K_LEMN)
        assert_close(ctx.E, E_LEMN)

    @pytest.mark.parametrize("digits", [20, 50])
    @pytest.mark.parametrize("token", ["0.3", "1/sqrt2", "0.9"])
    def test_context_integrals_match_public_functions(self, token, digits):
        # K = pi/(2 agm(1, sqrt(1 - k^2))) for k and for k', bit for bit,
        # and the dual context holds E' as its own E
        ctx = make_context(token, digits)
        pi_h = pi(digits)
        for k, big_k in ((ctx.k, ctx.K), (ctx.kprime, ctx.Kprime)):
            assert big_k.value == (pi_h / (2 * agm(1, (1 - k * k).sqrt(), digits))).value
        assert dual_context(ctx).E.value == ctx.Eprime.value

    def test_series_route_agrees_with_agm(self):
        for tok in ("0.3", "0.6"):
            ctx = make_context(tok, 30)
            assert float(abs(ellipK_series(ctx.k) - ctx.K)) < 1e-27

    def test_modulus_domain(self):
        for bad in (hpf(1, 30), hpf(0, 30), hpf(2, 30), hpf(-1, 30) / 2):
            with pytest.raises(DomainError):
                make_context(bad, 30)

    def test_legendre_identity(self):
        # K E' + K' E - K K' = pi/2
        ctx = make_context("0.6", 50)
        res = ctx.K * ctx.Eprime + ctx.Kprime * ctx.E - ctx.K * ctx.Kprime - pi(50) / 2
        assert float(abs(res)) < 1e-47

    def test_precision_scaling(self):
        coarse = make_context("0.6", 20).K
        fine = make_context("0.6", 60).K
        assert float(abs(coarse - fine)) < 1e-18


class TestTheta:
    def test_theta0_oracles_at_q01(self):
        # the relabelled nome keeps a mantissa longer than its working precision
        for q in (hpf("0.1", 50), hpf(hpf("0.1", 100), 50)):
            assert_close(theta0(3, q), THETA3_Q01)
            assert_close(theta0(2, q), THETA2_Q01)
            assert_close(theta0(4, q), THETA4_Q01)

    def test_theta_with_argument(self):
        q = hpf("0.2", 50)
        assert_close(_theta_at(1, hpf("0.4", 50), q), THETA1_Z04_Q02)
        assert_close(_theta_at(3, hpf("0.4", 50), q), THETA3_Z04_Q02)

    @pytest.mark.parametrize("digits", [20, 50])
    @pytest.mark.parametrize("q", ["1e-4", "0.3", "0.95"])
    def test_theta0_bits_kept(self, q, digits):
        got = [theta0(i, hpf(q, digits)).value for i in (2, 3, 4)]
        assert got == THETA0_BITS[q, digits]

    def test_theta_at_exp_minus_pi(self):
        q = (-pi(50)).exp()
        assert_close(theta0(3, q), THETA3_EPI)

    def test_jacobi_quartic_identity(self):
        # theta3^4 = theta2^4 + theta4^4
        for tok in ("0.1", "0.05", "0.3"):
            q = hpf(tok, 50)
            res = theta0(3, q) ** 4 - theta0(2, q) ** 4 - theta0(4, q) ** 4
            assert float(abs(res)) < 1e-45

    def test_product_formula_matches_series(self):
        for tok in ("0.1", "0.25"):
            q = hpf(tok, 40)
            assert float(abs(theta3_product(q) - theta0(3, q))) < 1e-37

    def test_transform_residual_small(self):
        for c in ("0.37", "1", "2.5"):
            r = verify_jacobi_transform(c, 50)
            assert float(abs(r.lhs - r.rhs)) < 1e-45

    def test_nome_domain(self):
        with pytest.raises(DomainError):
            theta0(3, hpf(1, 30))
        with pytest.raises(DomainError):
            theta0(3, hpf(-1, 30))
        with pytest.raises(ValueError):
            theta0(context_bad := 5, hpf("0.1", 30))  # noqa: F841


def _theta_at(i: int, z: HPFloat, q: HPFloat) -> HPFloat:
    """theta_i(z, q) for real z by the kernel's one series sum over its
    Gaussian table, the lattice sum of sign^(n-h) q^((n-h)^2) trig((2n-2h) z)
    that theta0 takes at z = 0.  The weights are trig, times sign^(n-h), from
    mpmath, rounded on prec fractional bits, so the sum runs with a weight
    bound of prec bits where theta0's is 0."""
    half, sign, trig = {1: (1, -1, mp.sin), 2: (1, 1, mp.cos),
                        3: (0, 1, mp.cos), 4: (0, -1, mp.cos)}[i]
    prec = numkernel._bits(q.digits)

    def weights(count):
        with mp.workprec(2 * prec + 64):
            return [int(mp.nint(sign ** (n - half) * trig((2 * n - half) * to_mpf(z)) * 2 ** prec))
                    for n in range(1, count + 1)]

    man, exp = numkernel._series_sum(numkernel._gaussian_factors(q, bool(half)), weights,
                                     lambda n: prec, (1 - half) << prec)
    return HPFloat(man, exp - prec, q.digits)


# theta_i(z, q) against mpmath's jtheta at digits + 60 (an oracle the kernel
# never calls): theta0 at z = 0, ``_theta_at`` elsewhere.  theta4 near q = 1
# is tiny and its alternating series cancels, so four points miss the
# 10^(2 - digits) relative bound.
SWEEP_Q = ("1e-30", "1e-4", "0.01", "0.1", "0.3", "0.5", "0.8", "0.95")
THETA4_CANCELS = {("0", 20), ("0", 30), ("0", 50), ("0", 137)}


def _sweep_cases():
    for digits in (20, 30, 50, 137):
        for q in SWEEP_Q:
            for z in ("0", "0.4"):
                for i in (1, 2, 3, 4):
                    marks = ()
                    if i == 4 and q == "0.95" and (z, digits) in THETA4_CANCELS:
                        marks = pytest.mark.xfail(
                            strict=True,
                            reason="theta4 near q = 1 is tiny and its alternating series cancels",
                        )
                    yield pytest.param(i, z, q, digits, marks=marks)


class TestThetaSweep:
    @pytest.mark.parametrize("i, z, q, digits", _sweep_cases())
    def test_against_jtheta(self, i, z, q, digits):
        q_h, z_h = hpf(q, digits), hpf(z, digits)
        got = to_mpf(theta0(i, q_h) if z == "0" else _theta_at(i, z_h, q_h))
        if i == 1 and z == "0":
            assert got == 0
            return
        with mp.workdps(digits + 60):
            ref = mp.jtheta(i, to_mpf(z_h), to_mpf(q_h))
            assert abs(got - ref) <= abs(ref) * mp.mpf(10) ** (2 - digits)


def _hermite_value(n, u, p, scale):
    """H_2n(p u) 2^scale as the weighted lattice series forms it: the sum of
    V_k p^(2k) over the scaled coefficients of ``_hermite_scaled``."""
    return sum(v * p ** (2 * k) for k, v in enumerate(_hermite_scaled(n, u, scale)))


class TestHermite:
    """The integer coefficients of H_m and their fixed-point form in the
    weighted lattice series: at dyadic u every power of u is exact, so
    each value is an exact int at any scale."""

    def test_golden_values_at_one(self):
        assert [sum(_hermite_coefficients(m)) for m in range(6)] == [1, 2, 2, -4, -20, -8]
        for scale in (0, 7, 200):
            got = [_hermite_value(n, (1, 0), 1, scale) for n in range(3)]
            assert got == [h << scale for h in (1, 2, -20)]

    def test_exact_fraction_input(self):
        half = (1, -1)
        for scale in (1, 7, 200):
            # x = p/2: H_2(1/2) = -1, H_4(1/2) = 1, H_2(3/2) = 7, H_4(3/2) = -15
            assert _hermite_value(1, half, 1, scale) == -1 << scale
            assert _hermite_value(2, half, 1, scale) == 1 << scale
            assert _hermite_value(1, half, 3, scale) == 7 << scale
            assert _hermite_value(2, half, 3, scale) == -15 << scale

    def test_truncated_point_matches_mpmath(self):
        # u = 1/3 is not dyadic: each power of u and each V_k truncates
        scale = 200
        with mp.workdps(80):
            third = mp.mpf(1) / 3
            ref = mp.hermite(12, third) * mp.mpf(2) ** scale
        assert abs(_hermite_value(6, to_pair(third), 1, scale) - ref) < 2 ** 40

    @pytest.mark.parametrize("x", (-3, 0, 1, 2, 7))
    def test_coefficients_against_recurrence(self, x):
        # H_{m+1} = 2x H_m - 2m H_{m-1}, exact in ints at integer x
        h_prev, h = 0, 1
        for m in range(17):
            coefficients = _hermite_coefficients(m)
            assert x ** (m % 2) * sum(c * x ** (2 * k) for k, c in enumerate(coefficients)) == h, m
            h_prev, h = h, 2 * x * h - 2 * m * h_prev


class TestGammaQuarter:
    def test_oracle(self):
        assert_close(gamma_quarter(50), GAMMA_QUARTER)

    def test_precision_stability(self):
        a = gamma_quarter(30)
        b = gamma_quarter(60)
        assert float(abs(a - b)) < 1e-28

    @pytest.mark.parametrize("digits", [30, 50, 500])
    def test_bits_of_the_agm_route(self, digits):
        # sqrt(4 sqrt(pi) K) with K = pi/(2 agm(1, 1/sqrt2)), a route that
        # does not go through the context: at these digits k' = k exactly, so
        # the context's K has the same bits
        pi_h = pi(digits)
        bigk = pi_h / (2 * agm(1, parse_modulus(LEMNISCATIC_TOKEN, digits), digits))
        assert gamma_quarter(digits).value == (4 * pi_h.sqrt() * bigk).sqrt().value

    def test_no_agm_pass_of_its_own(self, monkeypatch):
        lemniscatic_context(40)
        calls = []
        one_pass = numkernel._agm
        monkeypatch.setattr(numkernel, "_agm", lambda *args: calls.append(args) or one_pass(*args))
        gamma_quarter(40)
        assert calls == []


class TestModulusContext:
    def test_internal_consistency_at_06(self):
        ctx = make_context("0.6", 40)
        assert float(abs(ctx.kprime ** 2 + ctx.k ** 2 - 1)) < 1e-37
        assert float(abs(ctx.c - ctx.Kprime / ctx.K)) < 1e-37
        assert float(abs(ctx.q - (-(pi(40) * ctx.c)).exp())) < 1e-37
        # z = theta3(q)^2 = (2/pi) K
        assert float(abs(ctx.z - theta0(3, ctx.q) ** 2)) < 1e-36
        # sigma^2 = (K^2/pi^2)(E/K - kprime^2)
        sig = (ctx.K / pi(40)) ** 2 * (ctx.E / ctx.K - ctx.kprime ** 2)
        assert float(abs(ctx.sigma2 - sig)) < 1e-36

    def test_nome_oracle_at_03(self):
        # regression for the negation precision bug: q came out with only
        # double precision when -(pi*c) bypassed the working context
        ctx = make_context("0.3", 50)
        assert_close(ctx.q, Q_03, tol_exp=-45)

    def test_lemniscatic_self_duality(self):
        ctx = lemniscatic_context(50)
        assert float(abs(ctx.K - ctx.Kprime)) < 1e-47
        assert float(abs(ctx.q - (-pi(50)).exp())) < 1e-47
        assert_close(ctx.z, Z_LEMN, tol_exp=-44)
        assert_close(ctx.sigma2, SIGMA2_LEMN)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            make_context("1.0", 30)
        with pytest.raises(DomainError):
            make_context(0, 30)
        with pytest.raises(TypeError):
            make_context(0.5, 30)

    def test_default_digits(self):
        assert make_context("0.6").digits == DEFAULT_DIGITS

    def test_fields_are_read_only(self):
        ctx = make_context("0.6", 30)
        with pytest.raises(AttributeError):
            ctx.K = ctx.E
        with pytest.raises(AttributeError):
            ctx._series = {}
        assert ctx._once("probe", lambda: 1) == 1 and ctx._once("probe", lambda: 2) == 1

    def test_upward_relabel_of_modulus_raises(self):
        with pytest.raises(DomainError):
            make_context(hpf("0.3", 30), 50)

    def test_repeated_context_is_shared(self):
        assert make_context("0.41", 33) is make_context("0.41", 33)
        # moduli compare by value, so an equal HPFloat reaches the same context
        assert make_context(hpf("0.41", 33), 33) is make_context(hpf("0.41", 33), 33)

    def test_token_and_its_value_share_one_context(self):
        assert make_context("0.41", 33) is make_context(hpf("0.41", 33), 33)

    def test_lemniscatic_token_builds_the_lemniscatic_context(self):
        assert make_context("1/sqrt2", 30) is lemniscatic_context(30)

    @pytest.mark.parametrize("k", ["0.3", "0.9", "1/sqrt2"])
    def test_dual_context_K_is_Kprime_bit_for_bit(self, k):
        ctx = make_context(k, 40)
        dual = dual_context(ctx)
        assert dual.digits == ctx.digits
        assert dual.K.value == ctx.Kprime.value

    @pytest.mark.parametrize("k", ["0.3", "1/sqrt2"])
    def test_m_is_k_squared(self, k):
        ctx = make_context(k, 40)
        assert ctx.m.value == (ctx.k * ctx.k).value


class TestFirstUse:
    """pi and ln 2 are computed when first needed and cached, so each entry
    point must work as the first thing a fresh process runs, with no hpf
    before it, and print what it prints here."""

    @pytest.mark.parametrize("expr", [
        'hpf("0.5", 20).sqrt()',
        "pi(20)",
        'theta0(2, hpf("0.1", 20))',
        'make_context("0.3", 20).q',
        "gamma_quarter(20)",
    ])
    def test_entry_point_in_a_fresh_process(self, expr):
        names = ("gamma_quarter", "hpf", "make_context", "pi", "theta0")
        code = f"from thetakit.numkernel import {', '.join(names)}\nprint({expr})\n"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        namespace = {name: globals()[name] for name in names}
        assert proc.stdout == f"{eval(expr, namespace)}\n"


# ---------------------------------------------------------------------------
# The number format against mpmath, an independent oracle: the same prec
# (mpmath's dps_to_prec of digits + _GUARD) and rounding to nearest.
# ---------------------------------------------------------------------------


def _oracle(digits, fn, *args):
    """fn(*args) in mpmath at the working precision of a digits-digit value."""
    with mp.workprec(libmp.dps_to_prec(digits + numkernel._GUARD)):
        return to_pair(fn(*args))


def _exact_fraction(pair):
    return pair[0] * Fraction(2) ** pair[1]


def _within_an_ulp(got, ref, prec):
    """|got - ref| is at most one unit in the prec-bit last place of ref."""
    top = abs(ref[0]).bit_length() + ref[1]
    return abs(_exact_fraction(got) - _exact_fraction(ref)) <= Fraction(2) ** (top - prec)


mantissas = st.integers(1, 3000).flatmap(lambda bits: st.integers(-(2 ** bits), 2 ** bits))
values = st.builds(lambda man, exp: numkernel._exact(man, exp), mantissas, st.integers(-4000, 4000))
precisions = st.integers(15, 1000)


def _decimal_literal(sign, whole, fraction, exp10):
    return f"{sign}{whole}.{fraction}e{exp10}"


decimal_literals = st.builds(
    _decimal_literal, st.sampled_from(["", "-", "+"]), st.integers(0, 10 ** 30),
    st.text("0123456789", min_size=1, max_size=60), st.integers(-400, 400),
)


class TestArithmeticAgainstMpmath:
    @settings(max_examples=300, deadline=None)
    @given(a=values, b=values, digits=precisions, n=st.integers(-40, 40))
    def test_operations_are_bit_identical(self, a, b, digits, n):
        x, y = HPFloat(*a, digits), HPFloat(*b, digits)
        xm, ym = to_mpf(x), to_mpf(y)
        assert (x + y).value == _oracle(digits, lambda: xm + ym)
        assert (x - y).value == _oracle(digits, lambda: xm - ym)
        assert (x * y).value == _oracle(digits, lambda: xm * ym)
        assert (-x).value == _oracle(digits, lambda: -xm)
        assert abs(x).value == _oracle(digits, lambda: abs(xm))
        assert abs(x).sqrt().value == _oracle(digits, lambda: mp.sqrt(abs(xm)))
        if b[0]:
            assert (x / y).value == _oracle(digits, lambda: xm / ym)
        if a[0] or n >= 0:
            assert (x ** n).value == _oracle(digits, lambda: xm ** n)
        assert (x < y, x == y, x > y) == (xm < ym, xm == ym, xm > ym)

    @pytest.mark.parametrize("digits", (15, 50, 500))
    def test_ties_round_to_even(self, digits):
        # random operands almost never land on a tie; these ints and sums do
        prec = numkernel._bits(digits)
        for m in (1 << (prec - 1), (1 << (prec - 1)) + 1, (1 << prec) - 1):
            for n in (2 * m + 1, 4 * m + 1, 4 * m + 2, 4 * m + 3, -(2 * m + 1)):
                assert hpf(n, digits).value == _oracle(digits, mp.mpf, n), n
            x, half = hpf(m, digits), HPFloat(1, -1, digits)
            assert (x + half).value == _oracle(digits, lambda: mp.mpf(m) + mp.mpf(0.5))
            assert (x * 2 + 1).value == _oracle(digits, lambda: mp.mpf(m) * 2 + 1)

    @settings(max_examples=200, deadline=None)
    @given(a=values, digits=precisions)
    def test_equal_values_hash_alike(self, a, digits):
        x = HPFloat(*a, digits)
        assert hash(x) == hash(to_mpf(x)) == hash(_exact_fraction(x.value))
        assert float(x) == float(to_mpf(x))

    @settings(max_examples=300, deadline=None)
    @given(i=mantissas, num=mantissas, den=st.integers(1, 2 ** 3000), text=decimal_literals,
           digits=precisions)
    def test_constructions_are_bit_identical(self, i, num, den, text, digits):
        ratio = Fraction(num, den)
        assert hpf(i, digits).value == _oracle(digits, mp.mpf, i)
        assert hpf(ratio, digits).value == _oracle(
            digits, lambda: mp.mpf(ratio.numerator) / mp.mpf(ratio.denominator))
        assert hpf(text, digits).value == _oracle(digits, mp.mpf, text)
        assert hpf(f"{num}/{den}", digits).value == _oracle(digits, mp.mpf, f"{num}/{den}")

    @settings(max_examples=50, deadline=None)
    @given(man=st.integers(1, 10 ** 40), exp10=st.integers(401, 5000),
           sign=st.sampled_from([1, -1]), digits=precisions)
    def test_far_decimal_exponents_within_an_ulp(self, man, exp10, sign, digits):
        prec = numkernel._bits(digits)
        for text in (f"{man}e{sign * exp10}", f"-{man}e{sign * exp10}"):
            assert _within_an_ulp(hpf(text, digits).value, _oracle(digits + 30, mp.mpf, text), prec)
            assert _within_an_ulp(hpf(text, digits).value, _oracle(digits, mp.mpf, text), prec)


# the functions the kernel computes in fixed point, each as (kernel, mpmath)
TRANSCENDENTAL = {
    "exp": (numkernel._exp, mp.exp),
    "log": (numkernel._log, mp.log),
}
SWEEP_DIGITS = (15, 20, 30, 50, 137, 500, 1000)
SWEEP_ARGUMENTS = (
    "1e-30", "0.001", "0.37", "0.5", "0.7071067811865476", "1", "1.0000001", "2.5", "3.14159",
    "7", "100", "1845.5", "-0.37", "-2.5", "-100", "-1845.5", "1e-400",
)


class TestTranscendentalAgainstMpmath:
    @pytest.mark.parametrize("digits", SWEEP_DIGITS)
    def test_pi_is_identical(self, digits):
        assert pi(digits).value == _oracle(digits, lambda: +mp.pi)

    @pytest.mark.parametrize("digits", SWEEP_DIGITS)
    @pytest.mark.parametrize("name", sorted(TRANSCENDENTAL))
    def test_identical_on_a_fixed_sweep(self, name, digits):
        kernel, oracle = TRANSCENDENTAL[name]
        prec = numkernel._bits(digits)
        for text in SWEEP_ARGUMENTS:
            if name == "log" and text.startswith("-"):
                continue
            a = hpf(text, digits).value
            assert kernel(a, prec) == _oracle(digits, oracle, to_mpf(a)), text

    @settings(max_examples=40, deadline=None)
    @given(man=st.integers(1, 2 ** 200), exp=st.integers(-260, -190), negative=st.booleans(),
           digits=precisions, name=st.sampled_from(sorted(TRANSCENDENTAL)))
    def test_within_an_ulp(self, man, exp, negative, digits, name):
        kernel, oracle = TRANSCENDENTAL[name]
        a = numkernel._exact(-man if negative and name != "log" else man, exp)
        prec = numkernel._bits(digits)
        assert _within_an_ulp(kernel(a, prec), _oracle(digits, oracle, to_mpf(a)), prec)

    @pytest.mark.parametrize("digits", (20, 50, 500))
    def test_near_one_and_near_zeros(self, digits):
        # log near 1, its zero, keeps its relative precision
        prec = numkernel._bits(digits)
        for text in ("1.000000000000000000000000000001", "0.99999999999999999999"):
            a = hpf(text, digits).value
            assert numkernel._log(a, prec) == _oracle(digits, mp.log, to_mpf(a))


NSTR_VALUES = (
    "0", "1", "-1", "0.5", "-0.125", "3.14159265358979323846264338327950288", "123456789012345678",
    "9.9999999999999999999999999999999999999999999", "-0.000099999999999999999999999999", "1e-5",
    "1e-6", "1e-400", "-7.25e-1100", "1e-1200", "4.5e1100", "-1e1500", "0.99999999999999999999",
)


class TestDecimalStringAgainstNstr:
    @pytest.mark.parametrize("digits", (4, 15, 20, 30, 50, 137, 500, 1000))
    def test_sweep(self, digits):
        at = max(digits, 15)
        # pow10(8 - digits) is the suite tolerance, 1.0e-22 at 30 digits
        values = [hpf(text, at) for text in NSTR_VALUES] + [pow10(8 - at, at), pi(at), -pi(at)]
        third = hpf(Fraction(1, 3), at)
        values += [third * pow10(e, at) for e in (-1100, -40, -6, -5, 0, 5, at, 1100)]
        for x in values:
            assert x.to_decimal_string(digits) == mp.nstr(to_mpf(x), digits), x.value

    def test_beyond_the_str_limit(self):
        # 5000 digits are more than str() of an int gives by default
        for x in (pi(5000), -pi(5000) * pow10(-3000, 5000), 1 - pow10(-5010, 5010)):
            assert x.to_decimal_string(5000) == mp.nstr(to_mpf(x), 5000)

    @settings(max_examples=200, deadline=None)
    @given(a=values, digits=st.integers(1, 1000))
    def test_random_values(self, a, digits):
        x = HPFloat(*a, max(digits, 15))
        assert x.to_decimal_string(digits) == mp.nstr(to_mpf(x), digits)
