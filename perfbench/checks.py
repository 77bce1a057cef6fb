"""Checks of one CLI command's output against the recorded reference.

Two outcomes are kept apart:

* ``ok`` is False when the command failed: a non-zero exit status, an
  identity cell that did not pass, or output that differs from the
  reference.  This feeds ``fail_frac``.
* ``correct`` is False when the output is worse than the reference: wrong
  bytes, a golden value lost, a cell that passed in the reference and fails
  now, or a value that moved by more than its cell's tolerance.  A cell that
  failed in the reference fails ``ok`` but not ``correct``, so a known defect
  shows in ``fail_frac`` without making the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation, localcontext
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Acceptance criterion 1: d(1..7).
D_GOLDEN = [1, -1, 51, 849, -26199, 1341999, 82018251]
# Acceptance criterion 4: scaled integrality rows m = 1..6 for p = 3..7.
CONJECTURE_GOLDEN = {
    3: [1, 3, 7, 2953, 291969, 12470011],
    4: [1, 29, 43, 116171, 78138169, 40042714493],
    5: [1, 17, 105, 4521, 1802457, 535169097],
    6: [1, 123, 8059, 724877, 1686624921, 3594330803003],
    7: [1, 97, 5959, 293923, 294067681, 490927058857],
}


@dataclass
class Outcome:
    ok: bool = True
    correct: bool = True
    cells: int = 0
    cells_failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str, *, wrong: bool) -> None:
        self.ok = False
        self.correct = self.correct and not wrong
        self.problems.append(problem)


def command_key(args: list[str]) -> str:
    return " ".join(args)


def cell_key(cell: dict) -> str:
    return f"{cell['identity']} {cell['n']} {cell['k']}"


def load_reference() -> dict:
    """The recorded outputs: ``commands`` maps a command line to its exit
    status and either the sha256 of its output or its cell count; ``cells``
    maps digits to the recorded [passed, lhs, rhs] of each verify cell."""
    commands = json.loads((REFERENCE_DIR / "commands.json").read_text())
    cells = {}
    for path in sorted(REFERENCE_DIR.glob("cells-*.json")):
        cells[path.stem.split("-", 1)[1]] = json.loads(path.read_text())
    return {"commands": commands, "cells": cells}


def check(args: list[str], exit_code: int, stdout: bytes, reference: dict) -> Outcome:
    out = Outcome()
    expected = reference["commands"].get(command_key(args))
    if expected is None:
        out.fail(f"no reference recorded for {command_key(args)!r}", wrong=True)
        return out
    if exit_code not in (0, 1):
        out.fail(f"exit status {exit_code}", wrong=True)
        return out
    if exit_code != 0:
        out.fail(f"exit status {exit_code}", wrong=expected["exit"] == 0)
    try:
        payload = json.loads(stdout)
    except ValueError:
        out.fail("output is not JSON", wrong=True)
        return out
    if args[0] == "verify":
        _check_cells(args, exit_code, payload, expected, reference["cells"], out)
    else:
        if hashlib.sha256(stdout).hexdigest() != expected["sha256"]:
            out.fail("output bytes differ from the reference", wrong=True)
        _check_goldens(args, payload, out)
    return out


def _check_goldens(args: list[str], payload: dict, out: Outcome) -> None:
    try:
        if args[:2] == ["sequences", "d"]:
            got = [int(t) for t in payload["terms"][: len(D_GOLDEN)]]
            if got != D_GOLDEN:
                out.fail(f"d(1..7) = {got}", wrong=True)
        elif args[0] == "conjecture":
            p = payload["params"]["p"]
            golden = CONJECTURE_GOLDEN.get(p)
            if golden is not None:
                got = [int(row["scaled"]) for row in payload["rows"][: len(golden)]]
                if got != golden:
                    out.fail(f"conjecture p={p} rows 1..6 = {got}", wrong=True)
    except (KeyError, TypeError, ValueError) as exc:
        out.fail(f"malformed output: {exc!r}", wrong=True)


def _check_cells(args, exit_code, payload, expected, cells_by_digits, out: Outcome) -> None:
    digits = args[args.index("--digits") + 1] if "--digits" in args else "50"
    recorded = cells_by_digits.get(digits, {})
    if not isinstance(payload, list) or len(payload) != expected["cells"]:
        out.fail(f"expected {expected['cells']} cells", wrong=True)
        return
    with localcontext() as dec:
        dec.prec = int(digits) + 20
        for cell in payload:
            _check_cell(cell, recorded, out)
    if exit_code != (0 if out.cells_failed == 0 else 1):
        out.fail(f"exit status {exit_code} with {out.cells_failed} failed cells", wrong=True)


def _check_cell(cell: dict, recorded: dict, out: Outcome) -> None:
    out.cells += 1
    key = cell_key(cell)
    ref = recorded.get(key)
    if ref is None:
        out.fail(f"{key}: not in the reference", wrong=True)
        return
    ref_passed, ref_lhs, ref_rhs = ref
    if not cell["passed"]:
        out.cells_failed += 1
        out.fail(f"{key}: failed, residual {cell['residual']}", wrong=ref_passed)
        return
    if not ref_passed:
        return  # fixed since the reference was recorded; old values were wrong
    try:
        tol = Decimal(cell["tolerance"])
        for side, ref_value in (("lhs", ref_lhs), ("rhs", ref_rhs)):
            ref_d = Decimal(ref_value)
            err = abs(Decimal(cell[side]) - ref_d) / max(Decimal(1), abs(ref_d))
            if not err < tol:
                out.fail(f"{key}: {side} moved by {err:.3e} > {tol}", wrong=True)
    except (InvalidOperation, TypeError) as exc:
        out.fail(f"{key}: unreadable value: {exc!r}", wrong=True)
