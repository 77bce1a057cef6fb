"""Cycle-peak statistics, the canonical data rows, and the convention
reconciliation for the cycle-peak cumulant formula."""

import itertools
import json
import math
import random

import pytest

from thetakit.combinatorics import (
    _EXPONENTS,
    PRINTED_CONVENTION,
    CyclePeakProfile,
    count_profiles,
    cycle_peaks,
    peak_numbers,
    reconcile_thm11,
)
from thetakit.moments import q_value

# half tangent numbers: tan x = sum T_{2n+1} x^(2n+1)/(2n+1)!
HALF_TANGENT = [1, 8, 136, 3968, 176896, 11184128]


class TestCyclePeaks:
    def test_worked_examples(self):
        # (134)(2)(56) in one-line notation: 1->3, 3->4, 4->1, 5->6, 6->5
        assert cycle_peaks((3, 2, 4, 1, 6, 5)) == (0, 2)
        assert cycle_peaks((2, 1)) == (0, 1)

    def test_identity_has_none(self):
        assert cycle_peaks(tuple(range(1, 8))) == (0, 0)

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            cycle_peaks((1, 1, 3))
        with pytest.raises(ValueError):
            cycle_peaks((0, 1))

    def test_invariant_under_inversion(self):
        # k is a cycle peak of s iff it is one of s^(-1)
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 9)
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            inverse = [0] * n
            for i, v in enumerate(perm, start=1):
                inverse[v - 1] = i
            assert cycle_peaks(tuple(perm)) == cycle_peaks(tuple(inverse))


class TestCountProfiles:
    @pytest.mark.parametrize("n", range(8))
    def test_totals_are_factorials(self, n):
        assert count_profiles(n).total() == math.factorial(n)

    def test_n1_profile(self):
        assert count_profiles(1).counts == {(0, 0): 1}

    def test_n2_single_peaked_permutation(self):
        prof = count_profiles(2)
        assert prof.counts == {(0, 0): 1, (0, 1): 1}

    def test_s4_one_odd_peak_row(self):
        row = count_profiles(4).row(1, swapped=False)
        assert row == {0: 4, 1: 4}

    def test_s6_rows_frozen(self):
        prof = count_profiles(6)
        assert prof.row(1, swapped=False) == {0: 44, 1: 328, 2: 44}
        assert prof.row(1, swapped=True) == {0: 135, 1: 328, 2: 16}

    def test_counts_past_the_old_bound(self):
        # the recurrence has no size bound
        assert count_profiles(16).total() == math.factorial(16)

    @pytest.mark.parametrize("n", range(9))
    def test_matches_validated_cycle_peaks(self, n):
        # the oracle of count_profiles' recurrence: cycle_peaks over all of S_n
        tally = {}
        for perm in itertools.permutations(range(1, n + 1)):
            key = cycle_peaks(perm)
            tally[key] = tally.get(key, 0) + 1
        assert count_profiles(n).counts == tally
        assert list(count_profiles(n).counts) == sorted(tally)


class TestPeakNumbers:
    def test_golden_rows(self):
        assert peak_numbers(1) == (1,)
        assert peak_numbers(2) == (4, 4)
        assert peak_numbers(3) == (16, 104, 16)
        assert peak_numbers(4) == (64, 1920, 1920, 64)
        assert peak_numbers(5) == (256, 32128, 112128, 32128, 256)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_rows_are_symmetric_nonnegative(self, n):
        row = peak_numbers(n)
        assert row == tuple(reversed(row))
        assert all(c >= 0 for c in row)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_row_sums_are_half_tangent_numbers(self, n):
        assert sum(peak_numbers(n)) == HALF_TANGENT[n - 1]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_projection_reproduces_q(self, n):
        proj = 2 * sum((-1) ** j * c for j, c in enumerate(peak_numbers(n)))
        assert proj == q_value(n + 1)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_entries_are_ints(self, n):
        assert all(type(c) is int for c in peak_numbers(n))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            peak_numbers(0)


@pytest.fixture(scope="module")
def report():
    return reconcile_thm11(3)


class TestReconciliation:
    def test_exactly_one_winner(self, report):
        full = [v for v in report.verdicts if all(v.matches.values())]
        assert len(full) == 1
        assert report.winner == ("(j+1, n-j)", "(-1)^j")
        assert (full[0].exponents, full[0].sign) == report.winner

    def test_candidate_space_is_twelve(self, report):
        assert len(report.verdicts) == 12
        assert len({(v.exponents, v.sign) for v in report.verdicts}) == 12

    def test_printed_convention_fails_at_order_one(self, report):
        printed = next(
            v for v in report.verdicts if (v.exponents, v.sign) == PRINTED_CONVENTION
        )
        assert not printed.matches[1]
        assert printed.residuals[1] != "0"
        assert "Q_4 = -1" in report.printed_note

    def test_winner_residuals_vanish(self, report):
        winner = next(
            v for v in report.verdicts if (v.exponents, v.sign) == report.winner
        )
        assert all(r == "0" for r in winner.residuals.values())

    def test_q_projection_matches_reference(self, report):
        assert report.q_projection == report.q_reference == [2, 0, -144]

    def test_enumeration_agreement_is_reported(self, report):
        assert "order 1" in report.enumeration_note
        assert "order 2" in report.enumeration_note
        assert "(44, 328, 44)" in report.enumeration_note

    def test_data_rows_included(self, report):
        assert report.data_rows == {1: (1,), 2: (4, 4), 3: (16, 104, 16)}

    def test_report_serializes(self, report):
        payload = report.to_dict()
        text = json.dumps(payload, sort_keys=True)
        assert json.loads(text) == payload

    def test_max_n_four(self):
        report = reconcile_thm11(4)
        assert report.winner == ("(j+1, n-j)", "(-1)^j")
        assert report.q_projection == [2, 0, -144, 0]

    def test_exponent_maps_stay_nonnegative(self):
        # every candidate power m^a (1-m)^b exists for each entry of a data row
        for fam in _EXPONENTS.values():
            for n in range(1, 5):
                assert len(peak_numbers(n)) == n
                for j in range(n):
                    a, b = fam(n, j)
                    assert a >= 0 and b >= 0, (n, j)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            reconcile_thm11(0)
        with pytest.raises(ValueError):
            reconcile_thm11(5)
