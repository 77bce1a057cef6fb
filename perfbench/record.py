"""Record the reference outputs that the benchmark checks against.

    python3 perfbench/record.py

Runs every command any seed can draw (a few minutes) and rewrites
perfbench/reference/.  Run it only at a commit whose outputs are known to be
right, and say in the change that the reference was re-recorded and why.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import checks
import run
import workloads


def main() -> int:
    root = run.repo_root()
    env = run.child_env(root)
    commands: dict[str, dict] = {}
    cells: dict[str, dict] = {}
    for args in workloads.reference_commands():
        proc = subprocess.run(
            [sys.executable, "-m", "thetakit.cli", *args],
            cwd=root, env=env, stdout=subprocess.PIPE, check=False,
        )
        key = checks.command_key(args)
        print(f"exit {proc.returncode}  {key}", flush=True)
        if args[0] != "verify":
            sha = hashlib.sha256(proc.stdout).hexdigest()
            commands[key] = {"exit": proc.returncode, "sha256": sha}
            continue
        payload = json.loads(proc.stdout)
        commands[key] = {"exit": proc.returncode, "cells": len(payload)}
        digits = args[args.index("--digits") + 1] if "--digits" in args else "50"
        table = cells.setdefault(digits, {})
        for cell in payload:
            value = [cell["passed"], cell["lhs"], cell["rhs"]]
            if table.setdefault(checks.cell_key(cell), value) != value:
                raise SystemExit(f"{checks.cell_key(cell)}: two commands disagree")
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    _write(checks.REFERENCE_DIR / "commands.json", commands)
    for digits, table in cells.items():
        _write(checks.REFERENCE_DIR / f"cells-{digits}.json", table)
    return 0


def _write(path, data: dict) -> None:
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(data.items())]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    raise SystemExit(main())
