"""The benchmark's output gate, run in-process: every command that a
benchmark seed can draw gives output that ``perfbench.checks`` finds
correct against the recorded reference in ``perfbench/reference/``.  So a
change that moves a verify value by more than its cell's tolerance, or an
exact output by one byte, fails here before any benchmark run.  The test
reads ``perfbench/`` and writes nothing there."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checks, workloads  # noqa: E402
from thetakit.cli import main  # noqa: E402


def test_reference_commands_are_correct(capsys):
    reference = checks.load_reference()
    commands = workloads.reference_commands()
    assert {checks.command_key(args) for args in commands} == set(reference["commands"])
    wrong = {}
    for args in commands:
        code = main(list(args))
        out, _ = capsys.readouterr()
        outcome = checks.check(args, code, out.encode(), reference)
        if not outcome.correct:
            wrong[checks.command_key(args)] = outcome.problems
    assert not wrong
