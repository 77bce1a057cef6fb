"""thetakit benchmark: each workload is a series of fresh CLI processes.

    python3 perfbench/run.py --workload exact-deep --seed 1 --seconds 40 --trace 0

One benchmark process runs the workload's commands one at a time (a closed loop
with a single client) and repeats the whole list, a pass, while the time
allows.  Every output is checked against perfbench/reference/.  With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
traced passes, run alternately with untraced ones to measure the tracing
overhead.  Metric names and units come from BENCHMARK.json.  Each run also
writes a full record, with the environment, to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import tracer
import workloads

# Set-up is probed this many times before the first pass and once after each
# round of passes, so that it samples the machine over the same span of time
# as the passes do.
SETUP_PROBES = 3
# Every run must end within 180 s, however slow the machine.
RUN_LIMIT_S = 170.0


def repo_root() -> Path:
    return Path(__file__).resolve().parent.parent


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Runner:
    """Runs commands in fresh interpreters and times them with wait4."""

    def __init__(self, root: Path, deadline: float) -> None:
        self.root = root
        self.env = child_env(root)
        self.deadline = deadline
        self.out_dir = root / ".perfbench_out"
        self.out_dir.mkdir(exist_ok=True)

    def spawn(self, argv: list[str]) -> dict:
        """Run argv to completion: wall and CPU seconds, max RSS, exit, stdout."""
        with open(self.out_dir / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=subprocess.PIPE, stderr=err)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                stdout = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            finally:
                timer.cancel()
                proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
            "exit": proc.returncode,
            "stdout": stdout,
        }

    def cli(self, args: list[str], spans: Path | None = None) -> dict:
        if spans is None:
            return self.spawn([sys.executable, "-m", "thetakit.cli", *args])
        return self.spawn([sys.executable, str(Path(tracer.__file__)), str(spans), *args])


def build(root: Path) -> None:
    """Compile the package once, so every timed import reads bytecode."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src" / "thetakit")],
                   check=True, stdout=subprocess.DEVNULL)


def measure_setup(runner: Runner, probes: int) -> list[float]:
    """Wall times of fresh interpreters that import the CLI and build its parser."""
    probe = [sys.executable, "-c", "import thetakit.cli as c; c.build_parser()"]
    times = []
    for _ in range(probes):
        result = runner.spawn(probe)
        if result["exit"] != 0:
            raise RuntimeError("importing thetakit.cli failed")
        times.append(result["wall_s"])
    return times


def run_pass(runner: Runner, cmds: list[list[str]], reference: dict, traced: bool) -> dict:
    walls, cpus, rss, outcomes, traces = [], [], [], [], []
    spans_path = runner.out_dir / "spans.json"
    for args in cmds:
        if time.monotonic() >= runner.deadline:
            outcome = checks.Outcome()
            outcome.fail("not run: the run's time limit was reached", wrong=True)
            outcomes.append(outcome)
            continue
        spans_path.unlink(missing_ok=True)
        result = runner.cli(args, spans_path if traced else None)
        walls.append(result["wall_s"])
        cpus.append(result["cpu_s"])
        rss.append(result["rss_mb"])
        outcome = checks.check(args, result["exit"], result["stdout"], reference)
        outcomes.append(outcome)
        if traced:
            try:
                trace = json.loads(spans_path.read_text())
            except (OSError, ValueError):
                outcome.fail("traced process wrote no spans", wrong=True)
                continue
            main_s = sum(end - start for name, start, end, parent, _ in trace["spans"]
                         if parent < 0)
            trace["other_s"] = result["wall_s"] - trace["import_s"] - main_s
            traces.append(trace)
    record = {
        "traced": traced,
        "wall_s": sum(walls),
        "cpu_s": sum(cpus),
        "peak_rss_mb": max(rss, default=0.0),
        "commands": [
            {"args": " ".join(a), "ok": o.ok, "correct": o.correct, "problems": o.problems[:5]}
            for a, o in zip(cmds, outcomes)
        ],
        "command_wall_s": walls,
        "attempted": len(cmds),
        "failed": sum(not o.ok for o in outcomes),
        "correct": all(o.correct for o in outcomes),
        "cells": sum(o.cells for o in outcomes),
        "cells_failed": sum(o.cells_failed for o in outcomes),
    }
    if traced:
        record["layers"] = tracer.summarize(traces)
        record["layers"]["process.other_s"] = sum(t["other_s"] for t in traces)
    return record


def environment(runner: Runner, workload: str, seed: int) -> dict:
    probe = ("import json, sys, mpmath, mpmath.libmp, numpy; print(json.dumps({"
             "'python': sys.version.split()[0], 'mpmath': mpmath.__version__, "
             "'mpmath_backend': mpmath.libmp.BACKEND, 'numpy': numpy.__version__}))")
    env = json.loads(runner.spawn([sys.executable, "-c", probe])["stdout"])
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    commit = None
    if (runner.root / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=runner.root,
                             capture_output=True, text=True, check=False)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((runner.root / "src" / "thetakit").glob("*.py")):
        digest.update(path.read_bytes())
    env.update({
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
    })
    return env


def _median(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="keep starting passes while they fit in this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = repo_root()
    if not (root / "src" / "thetakit" / "cli.py").is_file():
        print(f"error: no thetakit sources under {root / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    reference = checks.load_reference()
    cmds = workloads.commands(args.workload, args.seed)
    runner = Runner(root, time.monotonic() + RUN_LIMIT_S)

    build(root)
    env = environment(runner, args.workload, args.seed)
    measure_setup(runner, 1)  # warms the file cache; not counted
    setup = measure_setup(runner, SETUP_PROBES)

    passes: list[dict] = []
    start = time.monotonic()
    while True:
        passes.append(run_pass(runner, cmds, reference, traced=False))
        if args.trace:
            passes.append(run_pass(runner, cmds, reference, traced=True))
        setup += measure_setup(runner, 1)
        elapsed = time.monotonic() - start
        next_round = elapsed / (len(passes) // (1 + args.trace))
        if elapsed + next_round > args.seconds or time.monotonic() + next_round > runner.deadline:
            break

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    # Each command of the list counts once, as failed if it failed in any pass,
    # so the counts depend on the seed and not on how many passes fit the time.
    attempted = len(cmds)
    failed = sum(any(not p["commands"][i]["ok"] for p in passes) for i in range(attempted))
    observed = {
        "wall_s": _median(plain, "wall_s"),
        "cpu_s": _median(plain, "cpu_s"),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": _median(plain, "peak_rss_mb"),
    }
    if traced:
        names = {name for p in traced for name in p["layers"]}
        observed.update({
            name: statistics.median(p["layers"].get(name, 0) for p in traced) for name in names
        })
        observed["trace.overhead_s"] = _median(traced, "wall_s") - observed["wall_s"]
        observed["verify.cells"] = _median(traced, "cells")
        observed["verify.cells_failed"] = _median(traced, "cells_failed")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": observed.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}

    result = {
        "correct": all(p["correct"] for p in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {"environment": env, "setup_s": setup, "passes": passes, "result": result}
    record_path = runner.out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    _report(args, env, setup, plain, traced, observed, attempted, failed, record_path)
    print(json.dumps(result))
    return 0


def _report(args, env, setup, plain, traced, observed, attempted, failed, record_path) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(plain)} untraced and {len(traced)} traced passes")
    print("environment " + json.dumps(env, sort_keys=True))
    walls = ", ".join(f"{p['wall_s']:.3f}" for p in plain)
    print(f"wall_s       {observed['wall_s']:.4f} s   median of {len(plain)} passes ({walls})")
    print(f"cpu_s        {observed['cpu_s']:.4f} s   median of {len(plain)} passes")
    print(f"setup_s      {observed['setup_s']:.4f} s   median of {len(setup)} fresh interpreters")
    print(f"peak_rss_mb  {observed['peak_rss_mb']:.1f} MB  median of {len(plain)} passes")
    print(f"fail_frac    {failed / attempted:.4f}     {failed} of {attempted} commands failed in some pass")
    for p in plain + traced:
        for cmd in p["commands"]:
            if not cmd["ok"]:
                label = "failed" if cmd["correct"] else "WRONG"
                print(f"  {label}: {cmd['args']}: {'; '.join(cmd['problems'][:2])}")
    if traced:
        layers = sum(v for k, v in observed.items()
                     if k.endswith(".self_s") and k.count(".") == 1)
        print(f"traced wall {_median(traced, 'wall_s'):.3f} s = import {observed['cli.import_s']:.3f}"
              f" + layer self time {layers:.3f} + process start and exit "
              f"{observed['process.other_s']:.3f}; tracing overhead "
              f"{observed['trace.overhead_s']:.3f} s")
    print(f"record {record_path}")


if __name__ == "__main__":
    sys.exit(main())
