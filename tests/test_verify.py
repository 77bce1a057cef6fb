"""Verification harness: ground-truth series, identity cells, and the
suite runner's error discipline."""

import json
from itertools import groupby

import pytest
from mpmath import mp

from thetakit import cumulants, numkernel, verify
from thetakit.exactalg import UniPoly
from thetakit.numkernel import (
    DomainError,
    hpf,
    lemniscatic_context,
    make_context,
    parse_modulus,
    pow10,
)
from thetakit.verify import (
    DEFAULT_KS,
    cells_for,
    default_grid,
    hermite_weighted_series,
    run_suite,
    series_moment,
    suite_tolerance,
    verify_dual_moment_relation,
    verify_jacobi_transform,
    verify_lambert_schett,
    verify_legendre,
    verify_phi_consistency,
    verify_romik11,
    verify_theorem1,
    verify_theorem3,
    verify_variance_symmetry,
)

from mpf_bridge import to_mpf


@pytest.fixture(scope="module")
def ctx06():
    return make_context("0.6", 40)


class TestParseAndTolerance:
    def test_lemniscatic_token(self):
        k = parse_modulus("1/sqrt2", 40)
        assert float(abs(k * k - hpf("0.5", 40))) < 1e-37

    def test_decimal_token(self):
        assert float(parse_modulus("0.3", 30)) == 0.3

    def test_bad_token(self):
        with pytest.raises(ValueError):
            parse_modulus("half", 30)

    def test_suite_tolerance(self):
        assert float(suite_tolerance(50)) == 1e-42
        assert float(suite_tolerance(30)) == 1e-22


class TestGroundTruthSeries:
    def test_zeroth_moment_is_one(self, ctx06):
        assert float(abs(series_moment(0, ctx06) - 1)) < 1e-37

    def test_second_moment_is_variance(self, ctx06):
        assert float(abs(series_moment(1, ctx06) - ctx06.sigma2)) < 1e-36

    def test_hermite_weighted_zeroth(self, ctx06):
        assert float(abs(hermite_weighted_series(0, ctx06) - 1)) < 1e-37

    def test_rejects_negative_index(self, ctx06):
        with pytest.raises(DomainError):
            series_moment(-1, ctx06)


# The oracle for the kernel's running products: every Gaussian factor a fresh
# power q ** (p*p), at digits + GAUSS_EXTRA from the context's own q.
GAUSS_EXTRA = 60
GAUSS_MODULI = ("1e-8", "1e-4", "0.1", "0.5", "1/sqrt2", "0.9", "0.999999", "0.999999999999999")


def _direct_lattice(weight, q, digits):
    """sum_p w(p) q^(p^2) over p in Z for an even weight, stopped once two
    consecutive terms are below 10^(-digits) of the sum."""
    eps = mp.mpf(10) ** (-digits)
    total, p, below = mp.mpf(weight(0)), 1, 0
    while below < 2:
        gauss = q ** (p * p)
        term = 2 * weight(p) * gauss
        total += term
        below = below + 1 if max(abs(term), gauss) < eps * abs(total) else 0
        p += 1
    return total


def _hermite_vanishes(k, n):
    """The Hermite-weighted series is 0 at n = 1 (sigma^2 is the second
    moment) and, at k = 1/sqrt2, at every odd n (R_2n(1/2) = 0)."""
    return n == 1 or (k == "1/sqrt2" and n % 2 == 1)


class TestGaussianSumAgainstDirectPowers:
    @pytest.mark.parametrize("digits", [20, 30, 50, 137])
    @pytest.mark.parametrize("k", GAUSS_MODULI)
    def test_moment_and_hermite_series(self, k, digits):
        ctx = make_context(k, digits)
        moments = [to_mpf(series_moment(n, ctx)) for n in range(9)]
        hermites = [to_mpf(hermite_weighted_series(n, ctx)) for n in range(9)]
        bound = mp.mpf(10) ** (2 - digits)
        with mp.workdps(digits + GAUSS_EXTRA):
            work = digits + GAUSS_EXTRA
            q = to_mpf(ctx.q)
            scale = mp.sqrt(2 * to_mpf(ctx.sigma2))
            theta3 = _direct_lattice(lambda p: 1, q, work)
            for n in range(9):
                moment = _direct_lattice(lambda p: mp.mpf(p) ** (2 * n), q, work) / theta3
                assert abs(moments[n] - moment) <= bound * moment, ("moment", n, moments[n], moment)

                def h(p):
                    return mp.hermite(2 * n, p / scale)

                hermite = _direct_lattice(h, q, work) / theta3
                if _hermite_vanishes(k, n):  # no relative error: measure against the absolute series
                    size = _direct_lattice(lambda p: abs(h(p)), q, work) / theta3
                else:
                    size = abs(hermite)
                assert abs(hermites[n] - hermite) <= bound * size, ("hermite", n, hermites[n], hermite)


class TestIdentityCells:
    @pytest.mark.parametrize("n", range(5))
    def test_theorem1(self, ctx06, n):
        rep = verify_theorem1(n, ctx06, "0.6")
        assert rep.passed, rep.residual.to_decimal_string()

    @pytest.mark.parametrize("n", range(5))
    def test_theorem3(self, ctx06, n):
        rep = verify_theorem3(n, ctx06, "0.6")
        assert rep.passed

    def test_theorem3_n1_catches_sign_flip(self, ctx06):
        # mu_2 = sigma^2 forces the +sigma^2/2 convention; the report for
        # n=1 would fail loudly under the minus variant
        rep = verify_theorem3(1, ctx06, "0.6")
        assert rep.passed
        assert float(rep.rhs) == pytest.approx(float(ctx06.sigma2))

    @pytest.mark.parametrize("n", range(9))
    def test_romik_eq11(self, n):
        rep = verify_romik11(n, 50)
        assert rep.passed, (n, rep.residual.to_decimal_string())

    def test_romik_precision_scaling(self):
        coarse = verify_romik11(4, 30)
        fine = verify_romik11(4, 50)
        assert float(fine.residual) < float(coarse.residual) * 1e-10 or float(fine.residual) == 0.0

    @pytest.mark.parametrize("n", range(2, 6))
    def test_lambert_schett(self, ctx06, n):
        assert verify_lambert_schett(n, ctx06, "0.6").passed

    @pytest.mark.parametrize("c", ["0.37", "1", "5"])
    def test_jacobi_transform(self, c):
        assert verify_jacobi_transform(c, 40).passed

    def test_legendre_and_variance(self):
        ctx = make_context("0.3", 40)
        assert verify_legendre(ctx, "0.3").passed
        assert verify_variance_symmetry(ctx, "0.3").passed

    @pytest.mark.parametrize("n", range(1, 5))
    def test_dual_moment_relation(self, n):
        assert verify_dual_moment_relation(n, make_context("0.3", 40), "0.3").passed

    def test_phi_consistency(self):
        assert verify_phi_consistency(50).passed


class TestNormaliserCanFail:
    """theta3 is summed once per context and divides every ground-truth
    series, so a wrong stored theta3 must fail the cells that use it."""

    @pytest.fixture(autouse=True)
    def cold_memo(self):
        numkernel._build_context.cache_clear()
        yield
        numkernel._build_context.cache_clear()  # drop the perturbed context

    @staticmethod
    def _cells(ctx):
        return [verify_theorem1(n, ctx, "0.9") for n in range(9)], [
            verify_theorem3(n, ctx, "0.9") for n in range(9)
        ]

    def test_perturbed_theta3_fails_theorem1_and_theorem3(self):
        theorem1, theorem3 = self._cells(make_context("0.9", 50))
        assert all(r.passed for r in theorem1 + theorem3)
        numkernel._build_context.cache_clear()  # a context with no moment summed yet
        ctx = make_context("0.9", 50)
        ctx._series["theta3"] = verify._theta3(ctx) * (1 + pow10(-40, 50))
        theorem1, theorem3 = self._cells(ctx)
        # the Hermite series vanishes at n = 1, so a relative error cannot show there
        assert not any(r.passed for r in theorem1 if r.n != 1)
        assert not any(r.passed for r in theorem3)


class TestReports:
    def test_report_is_frozen(self):
        rep = verify_phi_consistency(30)
        with pytest.raises(AttributeError):
            rep.passed = False

    def test_to_dict_serializes(self):
        rep = verify_legendre(make_context("0.3", 30), "0.3")
        payload = rep.to_dict()
        assert payload["identity"] == "legendre"
        assert payload["passed"] is True
        assert isinstance(payload["residual"], str)
        json.dumps(payload)


class TestSuiteRunner:
    def test_default_grid_shape(self):
        assert len(default_grid()) == 94
        assert len(default_grid(nmax=2)) == 34
        runs = [(identity, len(list(run)))
                for identity, run in groupby(c[0] for c in default_grid(nmax=2))]
        assert runs == [
            ("theorem1", 9), ("theorem3", 9), ("romik_eq11", 3),
            ("lambert_schett", 3), ("jacobi_transform", 4), ("legendre", 3),
            ("variance_symmetry", 3),
        ]

    def test_small_grid_all_pass(self):
        reports = run_suite(default_grid(nmax=3), digits=30)
        assert reports and all(r.passed for r in reports)

    def test_domain_error_cell_is_captured(self):
        reports = run_suite([("theorem1", 2, "1.5")], digits=30)
        assert len(reports) == 1
        assert not reports[0].passed
        assert reports[0].error is not None

    def test_unknown_identity_is_captured(self):
        reports = run_suite([("no_such_identity", None, "0.5")], digits=30)
        assert not reports[0].passed
        assert "no_such_identity" in reports[0].error

    def test_nonpositive_transform_parameter_is_captured(self):
        reports = run_suite([("jacobi_transform", None, "0")], digits=30)
        assert not reports[0].passed
        assert "positive" in reports[0].error

    @pytest.mark.parametrize(
        "cell", [("theorem1", None, "0.3"), ("legendre", 2, "0.3")]
    )
    def test_order_that_does_not_fit_is_captured(self, cell):
        reports = run_suite([cell], digits=30)
        assert not reports[0].passed
        assert cell[0] in reports[0].error and "order" in reports[0].error

    def test_suite_builds_one_context_per_modulus(self, monkeypatch):
        # each _complete call is one AGM pass; a context makes two, at k and
        # at kprime, and nothing else in the suite calls it
        calls = []
        complete = numkernel._complete
        monkeypatch.setattr(numkernel, "_complete", lambda k: calls.append(k) or complete(k))
        numkernel._build_context.cache_clear()
        run_suite(default_grid(8), digits=30)
        # 0.3, 1/sqrt2 and 0.9, and the duals of 0.3 and 0.9 (the lemniscatic
        # modulus is its own dual)
        assert len(calls) == 2 * 5

    def test_suite_sums_theta3_once_per_context(self, monkeypatch):
        # count table builds; verify imports the Gaussian builder by name
        gauss, powers = [], []
        build_gauss, build_powers = numkernel._gaussian_factors, cumulants._power_factors

        def counted(q, half=False):
            gauss.append(q)
            return build_gauss(q, half)

        monkeypatch.setattr(numkernel, "_gaussian_factors", counted)
        monkeypatch.setattr(verify, "_gaussian_factors", counted)
        monkeypatch.setattr(cumulants, "_power_factors",
                            lambda q: powers.append(q) or build_powers(q))
        numkernel._build_context.cache_clear()
        run_suite(default_grid(8), digits=30)
        # one table for each of 0.3, 1/sqrt2 and 0.9, which theta3 and every
        # power sum share (the duals sum no series), and a throwaway one for
        # each side of the four jacobi_transform cells
        assert len(gauss) == 3 + 2 * 4
        # one table of powers of q for each of them, shared by every Lambert order
        assert len(powers) == 3
        for k in DEFAULT_KS:
            kept = make_context(k, 30)._series
            assert {"gauss", "powers", *(("power", n) for n in range(9))} <= kept.keys()

    def test_romik_omega_once_per_precision(self, monkeypatch):
        # Omega = Gamma(1/4)^8 / (32 pi^4) depends on the digits alone, so the
        # nine orders share one Gamma(1/4), kept with the lemniscatic context
        calls = []
        quarter = verify.gamma_quarter
        monkeypatch.setattr(verify, "gamma_quarter", lambda d: calls.append(d) or quarter(d))
        numkernel._build_context.cache_clear()
        reports = run_suite(cells_for(("romik_eq11",), 8, DEFAULT_KS), digits=30)
        assert len(reports) == 9 and all(r.passed for r in reports)
        assert calls == [30]

    def test_context_cache_reuses_token(self):
        # two cells with the same token must agree bit for bit
        reports = run_suite(
            [("legendre", None, "0.44"), ("variance_symmetry", None, "0.44")],
            digits=30,
        )
        assert all(r.passed for r in reports)


class TestMomentPolynomialOncePerContext:
    def test_each_R_is_evaluated_once(self, monkeypatch):
        # theorem1 and theorem3 over n = 0..8 need R_0..R_8 at one m: 9 values
        calls = []
        evaluate = UniPoly.evaluate
        monkeypatch.setattr(UniPoly, "evaluate", lambda p, x: calls.append(p) or evaluate(p, x))
        numkernel._build_context.cache_clear()
        ctx = make_context("0.9", 30)
        first = [verify_theorem3(n, ctx, "0.9") for n in range(9)]
        first += [verify_theorem1(n, ctx, "0.9") for n in range(9)]
        assert len(calls) == 9
        again = [verify_theorem3(n, ctx, "0.9") for n in range(9)]
        again += [verify_theorem1(n, ctx, "0.9") for n in range(9)]
        assert len(calls) == 9
        assert [r.to_dict() for r in first] == [r.to_dict() for r in again]
        assert all(r.passed for r in first)
        numkernel._build_context.cache_clear()
