"""Self-tests of the benchmark.  They live outside tests/, so the project's
own test run does not collect them; run them with

    python3 -m pytest perfbench/test_bench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _moduli(cmds: list[list[str]]) -> list[str]:
    return [args[args.index("--k") + 1] for args in cmds if "--k" in args]


def test_same_seed_same_commands():
    for name in workloads.WORKLOADS:
        assert workloads.commands(name, 7) == workloads.commands(name, 7)


def test_other_seed_other_moduli():
    assert _moduli(workloads.commands("cli-mix", 1)) != _moduli(workloads.commands("cli-mix", 2))
    assert len(_moduli(workloads.commands("cli-mix", 1))) == 11


def test_every_drawable_command_has_a_reference():
    recorded = checks.load_reference()["commands"]
    drawable = {checks.command_key(a) for a in workloads.reference_commands()}
    assert drawable == set(recorded)
    for name in workloads.WORKLOADS:
        for seed in range(20):
            for args in workloads.commands(name, seed):
                assert checks.command_key(args) in drawable


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == ["wall_s", "cpu_s", "setup_s", "peak_rss_mb"]


def _run(reference: dict, args: list[str]) -> tuple[bytes, checks.Outcome]:
    proc = subprocess.run([sys.executable, "-m", "thetakit.cli", *args], cwd=ROOT,
                          env=run.child_env(ROOT), stdout=subprocess.PIPE, check=False)
    return proc.stdout, checks.check(args, proc.returncode, proc.stdout, reference)


def test_corrupted_exact_output_is_caught():
    reference = checks.load_reference()
    args = ["conjecture", "--p", "3", "--count", "8", "--format", "json"]
    stdout, outcome = _run(reference, args)
    assert outcome.ok and outcome.correct
    corrupted = stdout.replace(b'"scaled": "2953"', b'"scaled": "2954"')
    assert corrupted != stdout
    outcome = checks.check(args, 0, corrupted, reference)
    assert not outcome.ok and not outcome.correct
    assert any("rows 1..6" in p for p in outcome.problems)


def test_corrupted_verify_output_is_caught():
    reference = checks.load_reference()
    token = workloads.near_one_moduli()[20]
    args = ["verify", "symmetry", "--k", token, "--format", "json"]
    stdout, outcome = _run(reference, args)
    assert outcome.ok and outcome.correct and outcome.cells == 6
    cells = json.loads(stdout)
    lhs = cells[0]["lhs"]
    digit = lhs.index(".") + 30  # a digit far above the 1e-42 tolerance
    cells[0]["lhs"] = lhs[:digit] + str((int(lhs[digit]) + 1) % 10) + lhs[digit + 1:]
    outcome = checks.check(args, 0, json.dumps(cells).encode(), reference)
    assert not outcome.correct and "lhs moved" in outcome.problems[0]
    cells = json.loads(stdout)
    cells[1]["passed"] = False
    outcome = checks.check(args, 1, json.dumps(cells).encode(), reference)
    assert not outcome.ok and not outcome.correct and outcome.cells_failed == 1


def test_known_defect_fails_without_being_wrong():
    reference = checks.load_reference()
    args = ["verify", "all", "--k", workloads.near_zero_moduli()[0], "--digits", "50",
            "--format", "json"]
    _, outcome = _run(reference, args)
    assert not outcome.ok and outcome.correct and outcome.cells_failed > 0


def test_self_times_subtract_children():
    spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None], ["c", 2.0, 3.0, 1, None]]
    assert tracer.self_times(spans) == [7.0, 2.0, 1.0]


def _bench(trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cli-mix", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench_out" / f"cli-mix-seed5-trace{trace}.json").read_text())
    return result, record


@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_end_to_end(trace):
    result, record = _bench(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] == 16
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for key in ("nproc", "cpu_model", "python", "mpmath", "mpmath_backend", "numpy",
                "git_commit", "seed"):
        assert key in record["environment"]
    if trace:
        layers = next(p["layers"] for p in record["passes"] if p["traced"])
        derived = {"trace.overhead_s", "verify.cells", "verify.cells_failed"}
        assert {m["name"] for m in wanted} - derived <= set(layers)


def test_tier1_does_not_collect_the_benchmark():
    proc = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q"], cwd=ROOT,
                          env=run.child_env(ROOT), capture_output=True, text=True, check=False)
    assert "tests/test_acceptance.py" in proc.stdout
    assert "perfbench" not in proc.stdout
