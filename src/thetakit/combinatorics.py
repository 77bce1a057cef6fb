"""Permutation cycle-peak statistics and empirical reconciliation of the
cycle-peak cumulant formula.

A cycle peak of a permutation s of {1..n} is an index c in 2..n with
s(c) != c, s(c) < c and s^{-1}(c) < c.  The cumulant formula under test
pairs an integer table indexed by (n, j) with exponent products
k^(2a) k'^(2b); it circulates in mutually inconsistent exponent/sign
conventions, with parity labels that disagree between the low-order
tables and the general statement.  The reconciliation below fixes the
table data from the independently derived cumulant polynomials (the
unique nonnegative-integer expansion in an alternating basis), tests
every candidate convention exactly in Z[m], and reports where exhaustive
peak enumeration does and does not corroborate the data.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .exactalg import ConsistencyError, UniPoly
from .cumulants import p_poly
from .moments import q_value

__all__ = [
    "CyclePeakProfile",
    "CandidateVerdict",
    "ReconciliationReport",
    "cycle_peaks",
    "count_profiles",
    "peak_numbers",
    "reconcile_thm11",
]

MAX_ENUM = 10  # the largest n of count_profiles, the range it once enumerated


def cycle_peaks(perm: Sequence[int]) -> tuple[int, int]:
    """Count cycle peaks of a permutation given in one-line notation
    (perm[i-1] = image of i), split by parity of the peak value.

    Returns (odd_count, even_count).

    >>> cycle_peaks((3, 2, 4, 1, 6, 5))   # peaks at 4 and 6
    (0, 2)
    >>> cycle_peaks((1, 2, 3))
    (0, 0)
    >>> cycle_peaks((2, 1))
    (0, 1)
    """
    if sorted(perm) != list(range(1, len(perm) + 1)):
        raise ValueError("not a permutation of 1..n in one-line notation")
    return _cycle_peaks(perm)


def _cycle_peaks(perm: Sequence[int]) -> tuple[int, int]:
    """``cycle_peaks`` of a sequence known to be a permutation of 1..n: the
    image c of i is a peak when i < c and the image of c is below c."""
    odd = even = 0
    for i, c in enumerate(perm, start=1):
        if c > i and perm[c - 1] < c:
            if c % 2:
                odd += 1
            else:
                even += 1
    return odd, even


class CyclePeakProfile(NamedTuple):
    """Exhaustive peak-count table for S_n: counts[(i, j)] = number of
    permutations with i odd-valued and j even-valued cycle peaks."""

    n: int
    counts: dict[tuple[int, int], int]

    def total(self) -> int:
        return sum(self.counts.values())

    def row(self, i: int, swapped: bool = False) -> dict[int, int]:
        """The sub-table with exactly i peaks of the chosen parity class.

        With swapped=False, 'odd' means odd peak value (i counts odd-valued
        peaks, the returned keys j count even-valued ones).  With
        swapped=True the two parity classes are interchanged.
        """
        out: dict[int, int] = {}
        for (oi, oj), c in self.counts.items():
            key_i, key_j = (oj, oi) if swapped else (oi, oj)
            if key_i == i:
                out[key_j] = out.get(key_j, 0) + c
        return out


def count_profiles(n: int) -> CyclePeakProfile:
    """Tabulate the cycle-peak counts of S_n, keys in increasing order.

    The values 1..n are inserted in increasing order into the cycles built
    so far.  Value v becomes a fixed point, or goes into one of the v - 1
    arcs i -> s(i), where it is a peak, being above both neighbours.  An arc
    into or out of a peak takes that peak away; there are two per peak, and
    no arc touches two peaks, since a peak's image and preimage are below it.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > MAX_ENUM:
        raise ValueError(f"count_profiles takes n <= {MAX_ENUM}")
    counts = {(0, 0): 1}
    for v in range(2, n + 1):  # 1 can only be a fixed point
        grown: dict[tuple[int, int], int] = {}
        for (odd, even), ways in counts.items():
            odd_v, even_v = odd + v % 2, even + 1 - v % 2  # with v a new peak
            for key, arcs in (((odd, even), 1), ((odd_v, even_v), v - 1 - 2 * (odd + even)),
                              ((odd_v - 1, even_v), 2 * odd), ((odd_v, even_v - 1), 2 * even)):
                if arcs:
                    grown[key] = grown.get(key, 0) + ways * arcs
        counts = grown
    return CyclePeakProfile(n=n, counts=dict(sorted(counts.items())))


def peak_numbers(n: int) -> tuple[int, ...]:
    """Row n of the integer table driving the cycle-peak cumulant formula.

    Defined as the coefficients (c_0, ..., c_{n-1}) of the unique expansion

        (-1)^n P_{2n}(m) = 2 * sum_j (-1)^j m^(j+1) (1-m)^(n-j) c_j

    of the order-(2n+2) cumulant coefficient polynomial.  The basis is
    triangular in the lowest power of m, so the c_j are extracted by back
    substitution; they come out as nonnegative integers (checked), the row
    sums are half the tangent numbers 1, 8, 136, 3968, ..., and the
    alternating projection 2 * sum_j (-1)^j c_j reproduces Q_{2n+2}.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    target = p_poly(n) * (1 if n % 2 == 0 else -1)
    m = UniPoly.variable()
    one_minus_m = UniPoly.from_ints([1, -1])
    remaining = target
    out: list[int] = []
    for j in range(n):
        sign = 1 if j % 2 == 0 else -1
        # only the j-th basis element reaches down to m^(j+1)
        c = Fraction(remaining.coefficient(j + 1) * sign, 2)
        if c.denominator != 1 or c < 0:
            raise ConsistencyError(
                f"expansion coefficient {c} at (n={n}, j={j}) is not a nonnegative integer"
            )
        out.append(int(c))
        remaining = remaining - (m ** (j + 1)) * (one_minus_m ** (n - j)) * (2 * sign * int(c))
    if remaining != UniPoly.zero():
        raise ConsistencyError(f"cumulant polynomial at n={n} leaves a nonzero remainder")
    return tuple(out)


# Candidate conventions for the cumulant formula
#   kappa_{2n+2} = (z^(2n+2) / 2^(2n+1)) * sum_j sign(j) k^(2a) k'^(2b) c_j.
# Twelve candidates, fixed here: two exponent ladders (pair totals a+b of
# n+2 and n+1, the two displayed variants), each at index shifts j-1, j,
# j+1, crossed with the two alternating signs.  Labels give (a, b).
_EXPONENTS: dict[str, object] = {
    "(j+1, n-j+1)": lambda n, j: (j + 1, n - j + 1),
    "(j+2, n-j)": lambda n, j: (j + 2, n - j),
    "(j, n-j+2)": lambda n, j: (j, n - j + 2),
    "(j+1, n-j)": lambda n, j: (j + 1, n - j),
    "(j+2, n-j-1)": lambda n, j: (j + 2, n - j - 1),
    "(j, n-j+1)": lambda n, j: (j, n - j + 1),
}
_SIGNS: dict[str, object] = {
    "(-1)^(j-1)": lambda j: -1 if j % 2 == 0 else 1,
    "(-1)^j": lambda j: 1 if j % 2 == 0 else -1,
}
PRINTED_CONVENTION = ("(j+1, n-j+1)", "(-1)^(j-1)")


class CandidateVerdict(NamedTuple):
    """Exact verdict for one (exponent map, sign) candidate."""

    exponents: str
    sign: str
    matches: dict[int, bool]
    residuals: dict[int, str]


class ReconciliationReport(NamedTuple):
    """Deterministic reconciliation outcome.

    data_rows holds the canonical integer table rows (see peak_numbers);
    peak_tables the exhaustively enumerated one-odd-peak rows of S_{2n}
    under both parity labelings; winner the unique candidate convention
    that reproduces every cumulant polynomial order 1..max_n exactly.
    """

    max_n: int
    data_rows: dict[int, tuple[int, ...]]
    peak_tables: dict[int, dict[str, dict[int, int]]]
    verdicts: list[CandidateVerdict]
    winner: tuple[str, str] | None
    enumeration_note: str
    parity_note: str
    printed_note: str
    q_projection: list[int]
    q_reference: list[int]

    def to_dict(self) -> dict:
        return {
            "max_n": self.max_n,
            "data_rows": {str(n): list(row) for n, row in self.data_rows.items()},
            "peak_tables": {
                str(n): {kind: {str(j): c for j, c in row.items()} for kind, row in tables.items()}
                for n, tables in self.peak_tables.items()
            },
            "verdicts": [
                {
                    "exponents": v.exponents,
                    "sign": v.sign,
                    "matches": {str(n): ok for n, ok in v.matches.items()},
                    "residuals": {str(n): r for n, r in v.residuals.items()},
                }
                for v in self.verdicts
            ],
            "winner": {"exponents": self.winner[0], "sign": self.winner[1]} if self.winner else None,
            "enumeration_note": self.enumeration_note,
            "parity_note": self.parity_note,
            "printed_note": self.printed_note,
            "q_projection": self.q_projection,
            "q_reference": self.q_reference,
        }


def _candidate_sum(row: Sequence[int], n: int, fam, sgn) -> UniPoly:
    """2 * sum_j sign(j) m^a (1-m)^b row[j] as an exact polynomial."""
    total = UniPoly.zero()
    m = UniPoly.variable()
    one_minus_m = UniPoly.from_ints([1, -1])
    for j, count in enumerate(row):
        if count == 0:
            continue
        a, b = fam(n, j)
        total = total + (m ** a) * (one_minus_m ** b) * (sgn(j) * count)
    return total * 2


def _row_tuple(table: dict[int, int], width: int) -> tuple[int, ...]:
    return tuple(table.get(j, 0) for j in range(width))


def reconcile_thm11(max_n: int = 3) -> ReconciliationReport:
    """Test every candidate convention of the cycle-peak cumulant formula
    exactly against the Schett-derived cumulant polynomials.

    For order index n the formula must satisfy, in Z[m],
        2 * sum_j sign(j) m^a (1-m)^b c_j  ==  (-1)^n P_{2n}(m),
    the right side being the independently computed cumulant coefficient
    of kappa_{2n+2} and (c_j) the canonical data row (peak_numbers).  The
    report also compares the data rows against exhaustive S_{2n} peak
    tables, which corroborate them at orders 1..2 and diverge afterwards.
    The tables count peaks over S_2 .. S_{2 max_n}, and max_n <= 4.
    """
    if not 1 <= max_n <= 4:
        raise ValueError("max_n must be between 1 and 4")
    orders = range(1, max_n + 1)
    data_rows = {n: peak_numbers(n) for n in orders}
    profiles = {n: count_profiles(2 * n) for n in orders}
    peak_tables = {
        n: {"value": prof.row(1, swapped=False), "swapped": prof.row(1, swapped=True)}
        for n, prof in profiles.items()
    }
    targets = {n: p_poly(n) * (1 if n % 2 == 0 else -1) for n in orders}

    verdicts: list[CandidateVerdict] = []
    winners: list[tuple[str, str]] = []
    for exp_name, fam in _EXPONENTS.items():
        for sign_name, sgn in _SIGNS.items():
            matches: dict[int, bool] = {}
            residuals: dict[int, str] = {}
            for n in orders:
                got = _candidate_sum(data_rows[n], n, fam, sgn)
                matches[n] = got == targets[n]
                residuals[n] = str(got - targets[n])
            verdicts.append(
                CandidateVerdict(
                    exponents=exp_name,
                    sign=sign_name,
                    matches=matches,
                    residuals=residuals,
                )
            )
            if all(matches[n] for n in orders):
                winners.append((exp_name, sign_name))
    winner = winners[0] if len(winners) == 1 else None

    # where does brute-force enumeration agree with the data rows?
    enum_matches = {
        n: {
            kind: _row_tuple(peak_tables[n][kind], n) == data_rows[n]
            for kind in ("value", "swapped")
        }
        for n in orders
    }
    corroborated = []
    for n in orders:
        kinds = [kind for kind in ("value", "swapped") if enum_matches[n][kind]]
        if kinds:
            corroborated.append(f"order {n} ({' and '.join(kinds)} parity)")
    diverged = [n for n in orders if not any(enum_matches[n].values())]
    note_parts = []
    if corroborated:
        note_parts.append(
            "Exhaustive one-odd-peak tables reproduce the data rows at "
            + ", ".join(corroborated) + "."
        )
    for n in diverged:
        note_parts.append(
            f"At order {n} the enumerated rows are "
            f"{_row_tuple(peak_tables[n]['value'], n)} (value) / "
            f"{_row_tuple(peak_tables[n]['swapped'], n)} (swapped) against data "
            f"{data_rows[n]}, so whole-group peak counts stop tracking the formula there."
        )
    enumeration_note = "  ".join(note_parts)

    def labels(n: int) -> str:
        if enum_matches[n]["value"]:
            return "matches the plain value labels"
        if enum_matches[n]["swapped"]:  # at order 1 the one peak is that of (2,1)
            return ("needs the peak of (2,1) counted as odd (swapped labels)" if n == 1
                    else "needs swapped labels")
        return "matches neither"

    uniform = [kind for kind in ("value", "swapped") if all(enum_matches[n][kind] for n in orders)]
    # orders past the first that no labeling matches are left to the enumeration note
    shown = [f"order {n} {labels(n)}" for n in range(1, (diverged or [max_n])[0] + 1)]
    listed = " and ".join(shown) if len(shown) < 3 else ", ".join(shown[:-1]) + ", and " + shown[-1]
    parity_note = (
        f"{uniform[0].capitalize()}-parity labels match at every enumerated order." if uniform
        else f"No single parity labeling matches the data at every enumerated order: {listed}.  "
        "The winning form therefore fixes its table by the cumulant-polynomial expansion, "
        "with enumeration as a low-order cross-check only."
    )

    printed = next(v for v in verdicts if (v.exponents, v.sign) == PRINTED_CONVENTION)
    # the as-printed projection sum_j (-1)^(j-1) c_j carries no factor 2
    printed_q4 = sum((-1 if j % 2 == 0 else 1) * c for j, c in enumerate(data_rows[1]))
    printed_note = (
        f"The convention as printed (exponents {PRINTED_CONVENTION[0]}, sign "
        f"{PRINTED_CONVENTION[1]}) mismatches already at order 1: residual "
        f"{printed.residuals[1]}.  Its alternating projection would give "
        f"Q_4 = {printed_q4} instead of {q_value(2)}."
        if not printed.matches[1]
        else "Unexpected: the printed convention matches at order 1."
    )

    # scalar projection: Q_{2n+2} = 2 sum_j (-1)^j c_j, checked against moments
    q_projection = [
        2 * sum((1 if j % 2 == 0 else -1) * c for j, c in enumerate(data_rows[n]))
        for n in orders
    ]
    q_reference = [q_value(n + 1) for n in orders]

    return ReconciliationReport(
        max_n=max_n,
        data_rows=data_rows,
        peak_tables=peak_tables,
        verdicts=verdicts,
        winner=winner,
        enumeration_note=enumeration_note,
        parity_note=parity_note,
        printed_note=printed_note,
        q_projection=q_projection,
        q_reference=q_reference,
    )
