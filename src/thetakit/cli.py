"""Command-line front end.

Subcommands:
  sequences   emit d, Q or generalized d_p terms, exact and lossless
  polys       print the Schett, cumulant and moment polynomial tables
  verify      run numeric identity suites and report residuals
  conjecture  evaluate the scaled integrality table for modulus 1/sqrt(p)
  reconcile   brute-force adjudication of the cycle-peak cumulant formula

Exit codes: 0 success / all cells pass; 1 verification failure or internal
inconsistency; 2 usage or domain error.

JSON output is deterministic (sorted keys, two-space indent, exact values
as strings), so re-serializing parsed output is byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from .combinatorics import reconcile_thm11
from .cumulants import p_poly
from .exactalg import ConsistencyError, schett_reduced
from .moments import bell_moments, conjecture_check, d_sequence, q_from_a, q_sequence
from .numkernel import DEFAULT_DIGITS, DomainError, parse_modulus
from .verify import DEFAULT_IDENTITIES, DEFAULT_KS, IDENTITIES, cells_for, run_suite

__all__ = ["build_parser", "main"]


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _short(x) -> str:
    """Compact scientific rendering of an HPFloat for text reports."""
    return "-" if x is None else x.to_decimal_string(4)


class _UnwritableOut(Exception):
    """The --out path cannot be written; a usage error."""


def _emit(args, text: str, payload, csv_header: list[str], csv_rows: list[list]) -> None:
    if args.format == "json":
        out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
        out = buf.getvalue()
    else:
        out = text if text.endswith("\n") else text + "\n"
    if args.out:
        try:
            Path(args.out).write_text(out, encoding="utf-8")
        except OSError as exc:
            raise _UnwritableOut(f"cannot write {args.out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(out)


def _validate_modulus_token(token: str, digits: int) -> str | None:
    """None if token parses to a modulus in (0,1) at the given precision,
    else an error message."""
    try:
        k = parse_modulus(token, digits)
    except (ValueError, DomainError):
        return f"modulus {token!r} is not a decimal number or '1/sqrt2'"
    if not 0 < k < 1:
        return f"modulus {token} is outside the open interval (0, 1)"
    return None


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------


def _cmd_sequences(args) -> int:
    if args.count < 1:
        return _fail_usage("--count must be >= 1")
    which = args.which
    if which != "dk" and (args.p is not None or args.scaled):
        return _fail_usage(f"--p and --scaled apply to the dk sequence only, not to {which}")
    if which == "d":
        terms = [str(v) for v in d_sequence(args.count)]
        params: dict = {"count": args.count}
        lines = [f"d({n}) = {t}" for n, t in enumerate(terms, start=1)]
    elif which == "q":
        ints = q_from_a(args.count)
        # cross-check the recurrence route against the cumulant grading route
        grading = q_sequence(min(args.count, 8))[::2]  # Q_4, Q_8, ...
        for n, q in enumerate(grading, start=1):
            if ints[n - 1] != q:
                raise ConsistencyError(
                    f"Q_{4 * n}: recurrence gives {ints[n - 1]}, grading gives {q}"
                )
        terms = [str(v) for v in ints]
        params = {"count": args.count}
        lines = [f"Q_{4 * n} = {t}" for n, t in enumerate(terms, start=1)]
    else:  # dk
        if args.p is None:
            return _fail_usage("--p is required for the dk sequence")
        if args.p < 2:
            return _fail_usage("--p must be >= 2")
        rows = conjecture_check(args.p, args.count)
        if args.scaled:
            if any(row.scaled is None for row in rows):
                return _fail_usage(f"no scaling constant is known for p = {args.p}")
            terms = [str(row.scaled) for row in rows]
            lines = [f"d_{args.p}({row.m}) = {t}" for row, t in zip(rows, terms)]
        else:
            terms = [str(row.value) for row in rows]
            lines = [f"R_{4 * row.m}(1/{args.p}) = {t}" for row, t in zip(rows, terms)]
        params = {"count": args.count, "p": args.p, "scaled": bool(args.scaled)}
    payload = {"name": which, "params": params, "terms": terms}
    csv_rows = [[i, t] for i, t in enumerate(terms, start=1)]
    _emit(args, "\n".join(lines), payload, ["index", "term"], csv_rows)
    return 0


# ---------------------------------------------------------------------------
# polys
# ---------------------------------------------------------------------------


def _cmd_polys(args) -> int:
    if args.nmax < 0:
        return _fail_usage("--nmax must be >= 0")
    n = args.nmax
    schett = [str(schett_reduced(i)) for i in range(n + 1)]
    cumulant = [str(p_poly(i)) for i in range(1, n + 1)]
    moment = [str(mp_.R) for mp_ in bell_moments(n)]
    lines = [f"Schett S_i(m), i = 0..{n}:"]
    lines += [f"  S_{i}(m) = {s}" for i, s in enumerate(schett)]
    lines.append(f"Cumulant P_2i(m), i = 1..{n}:")
    lines += [f"  P_{2 * i}(m) = {s}" for i, s in enumerate(cumulant, start=1)]
    lines.append(f"Moment R_2i(m), i = 0..{n}:")
    lines += [f"  R_{2 * i}(m) = {s}" for i, s in enumerate(moment)]
    payload = {
        "name": "polys",
        "nmax": n,
        "schett": schett,
        "cumulant": cumulant,
        "moment": moment,
    }
    csv_rows = (
        [["S", i, s] for i, s in enumerate(schett)]
        + [["P", 2 * i, s] for i, s in enumerate(cumulant, start=1)]
        + [["R", 2 * i, s] for i, s in enumerate(moment)]
    )
    _emit(args, "\n".join(lines), payload, ["family", "index", "poly"], csv_rows)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


# The identities each verify subcommand runs, in report order.
_VERIFY_SUITES = {
    "all": (*DEFAULT_IDENTITIES, "phi_consistency", "dual_moment_relation"),
    "theorem1": ("theorem1",),
    "theorem3": ("theorem3",),
    "romik": ("romik_eq11",),
    "symmetry": ("variance_symmetry", "dual_moment_relation"),
}


def _cmd_verify(args) -> int:
    if args.digits < 15:
        return _fail_usage("--digits must be >= 15")
    if args.nmax < 0:
        return _fail_usage("--nmax must be >= 0")
    if args.k is not None:
        problem = _validate_modulus_token(args.k, args.digits)
        if problem:
            return _fail_usage(problem)
        fixed = {k for name in _VERIFY_SUITES[args.which] for k in IDENTITIES[name][1] or [None]}
        if None not in fixed:
            return _fail_usage(f"verify {args.which} runs only at k = {', '.join(sorted(fixed))}")
        ks: tuple[str, ...] = (args.k,)
    else:
        ks = DEFAULT_KS
    reports = run_suite(cells_for(_VERIFY_SUITES[args.which], args.nmax, ks), args.digits)
    passed = sum(1 for r in reports if r.passed)
    header = ["identity", "n", "k", "digits", "lhs", "rhs", "residual", "tolerance", "passed", "error"]
    # each format renders only what it writes
    text, payload, csv_rows = "", None, []
    if args.format == "text":
        lines = []
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            line = (
                f"[{status}] {r.identity} n={'-' if r.n is None else r.n} k={r.k} "
                f"residual={_short(r.residual)} tolerance={_short(r.tolerance)}"
            )
            if r.error:
                line += f" error={r.error}"
            lines.append(line)
        lines.append(f"{passed}/{len(reports)} cells passed at {args.digits} digits")
        text = "\n".join(lines)
    else:
        payload = [r.to_dict() for r in reports]
        csv_rows = [[row[key] for key in header] for row in payload]
    _emit(args, text, payload, header, csv_rows)
    return 0 if passed == len(reports) else 1


# ---------------------------------------------------------------------------
# conjecture
# ---------------------------------------------------------------------------


def _factors_str(factors: dict[int, int] | None) -> str:
    if factors is None:
        return ""
    if not factors:
        return "1"
    return "*".join(f"{p}^{e}" if e > 1 else str(p) for p, e in sorted(factors.items()))


def _cmd_conjecture(args) -> int:
    if args.p < 2:
        return _fail_usage("--p must be >= 2")
    if args.count < 1:
        return _fail_usage("--count must be >= 1")
    rows = conjecture_check(args.p, args.count)
    known = all(row.alpha is not None for row in rows)
    lines = [f"scaled integrality table for modulus 1/sqrt({args.p}), m = 1..{args.count}:"]
    for row in rows:
        if known:
            flag = "integer" if row.is_integer else "NOT AN INTEGER"
            lines.append(f"  m={row.m}  scaled={row.scaled}  [{flag}]")
        else:
            lines.append(
                f"  m={row.m}  value={row.value}  denominator={_factors_str(row.denominator_factors)}"
            )
    if known:
        bad = [row.m for row in rows if not row.is_integer]
        lines.append(
            "all scaled values are integers"
            if not bad
            else f"integrality FAILS at m = {', '.join(map(str, bad))}"
        )
        exit_code = 0 if not bad else 1
    else:
        lines.append(
            f"no scaling constant is known for p = {args.p}; denominators shown factored"
        )
        exit_code = 0
    payload = {
        "name": "conjecture",
        "params": {"count": args.count, "p": args.p},
        "rows": [
            {
                "m": row.m,
                "value": str(row.value),
                "alpha": None if row.alpha is None else str(row.alpha),
                "scaled": None if row.scaled is None else str(row.scaled),
                "is_integer": row.is_integer,
                "denominator_factors": None
                if row.denominator_factors is None
                else {str(p): e for p, e in sorted(row.denominator_factors.items())},
            }
            for row in rows
        ],
    }
    csv_rows = [
        [
            row.m,
            str(row.value),
            "" if row.alpha is None else str(row.alpha),
            "" if row.scaled is None else str(row.scaled),
            "" if row.is_integer is None else row.is_integer,
            _factors_str(row.denominator_factors),
        ]
        for row in rows
    ]
    header = ["m", "value", "alpha", "scaled", "is_integer", "denominator_factors"]
    _emit(args, "\n".join(lines), payload, header, csv_rows)
    return exit_code


# ---------------------------------------------------------------------------
# reconcile
# ---------------------------------------------------------------------------


def _cmd_reconcile(args) -> int:
    if not 1 <= args.nmax <= 4:
        return _fail_usage("--nmax must be between 1 and 4 (exhaustive S_{2n} enumeration)")
    report = reconcile_thm11(args.nmax)
    lines = [f"cycle-peak formula reconciliation, orders 1..{report.max_n}:"]
    for n, row in report.data_rows.items():
        lines.append(f"  data row {n}: {list(row)}")
    for v in report.verdicts:
        matched = [n for n in sorted(v.matches) if v.matches[n]]
        verdict = "all orders" if len(matched) == report.max_n else (
            f"orders {matched}" if matched else "none"
        )
        lines.append(f"  exponents={v.exponents:<14s} sign={v.sign:<10s} matches: {verdict}")
    if report.winner:
        lines.append(f"winner: exponents={report.winner[0]} sign={report.winner[1]}")
    else:
        lines.append("winner: none (no unique candidate matched)")
    lines.append(report.enumeration_note)
    lines.append(report.parity_note)
    lines.append(report.printed_note)
    lines.append(f"Q projection {report.q_projection} vs reference {report.q_reference}")
    payload = report.to_dict()
    csv_rows = [
        [v.exponents, v.sign, all(v.matches[n] for n in sorted(v.matches))]
        for v in report.verdicts
    ]
    header = ["exponents", "sign", "matches_all_orders"]
    _emit(args, "\n".join(lines), payload, header, csv_rows)
    ok = report.winner is not None and report.q_projection == report.q_reference
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "csv", "text"], default="text")
    common.add_argument("--out", default=None, metavar="PATH", help="write output to PATH")

    parser = argparse.ArgumentParser(
        prog="thetakit",
        description="Exact and high-precision toolkit for theta-series moment identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seq = sub.add_parser("sequences", parents=[common], help="emit integer/rational sequences")
    seq.add_argument("which", choices=["d", "q", "dk"])
    seq.add_argument("--count", type=int, default=6)
    seq.add_argument("--p", type=int, default=None, help="modulus parameter for dk (k = 1/sqrt p)")
    seq.add_argument("--scaled", action="store_true", help="apply the integrality scaling")
    seq.set_defaults(handler=_cmd_sequences)

    pol = sub.add_parser("polys", parents=[common], help="print polynomial tables")
    pol.add_argument("--nmax", type=int, default=6)
    pol.set_defaults(handler=_cmd_polys)

    ver = sub.add_parser("verify", parents=[common], help="run numeric identity suites")
    ver.add_argument("which", choices=list(_VERIFY_SUITES))
    ver.add_argument("--k", default=None, help="modulus: decimal in (0,1) or '1/sqrt2'")
    ver.add_argument("--digits", type=int, default=DEFAULT_DIGITS)
    ver.add_argument("--nmax", type=int, default=8)
    ver.set_defaults(handler=_cmd_verify)

    con = sub.add_parser("conjecture", parents=[common], help="scaled integrality table")
    con.add_argument("--p", type=int, required=True)
    con.add_argument("--count", type=int, default=6)
    con.set_defaults(handler=_cmd_conjecture)

    rec = sub.add_parser("reconcile", parents=[common], help="adjudicate the cycle-peak formula")
    rec.add_argument("--nmax", type=int, default=3)
    rec.set_defaults(handler=_cmd_reconcile)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 1
    except _UnwritableOut as exc:
        return _fail_usage(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
