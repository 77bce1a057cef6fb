"""Spans around thetakit's public functions, recorded from outside the package.

As a program it runs one CLI command with every public function of the
traced modules wrapped, and writes the spans to a JSON file:

    python3 perfbench/tracer.py SPANS.json sequences d --count 7 --format json

``summarize`` turns the span files of one pass into per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("exactalg", "numkernel", "cumulants", "moments", "combinatorics", "verify", "cli")

# Leaf helpers called tens of thousands of times per command, where a span
# would cost more than the call; their time stays in the caller's self time.
UNTRACED = ("combinatorics.cycle_peaks", "numkernel.hpf", "exactalg.binomial")

# Functions whose arguments are kept with each span, to count distinct calls.
KEYED = ("moments.bell_moments", "numkernel.make_context")

# The identity verifiers, by the identity name the reports carry.
IDENTITIES = {
    "theorem1": "verify_theorem1",
    "theorem3": "verify_theorem3",
    "romik_eq11": "verify_romik11",
    "lambert_schett": "verify_lambert_schett",
    "jacobi_transform": "verify_jacobi_transform",
    "legendre": "verify_legendre",
    "variance_symmetry": "verify_variance_symmetry",
    "dual_moment_relation": "verify_dual_moment_relation",
    "phi_consistency": "verify_phi_consistency",
}


class Recorder:
    """Spans kept in memory as [name, start, end, parent index, key]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack = [-1]

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        signature = inspect.signature(fn) if name in KEYED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                key = " ".join(str(v) for v in bound.arguments.values())
            span = [name, 0.0, 0.0, stack[-1], key]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced


def install(recorder: Recorder) -> None:
    """Wrap each public function of the traced modules, in its defining
    module and in every thetakit module that imported it by name."""
    wrapped: dict[int, tuple] = {}
    for layer in LAYERS:
        module = sys.modules[f"thetakit.{layer}"]
        for attr, obj in vars(module).items():
            if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                continue
            name = f"{layer}.{attr}"
            if getattr(obj, "__module__", None) == module.__name__ and name not in UNTRACED:
                wrapped[id(obj)] = (obj, recorder.wrap(name, obj))
    for name, module in list(sys.modules.items()):
        if name != "thetakit" and not name.startswith("thetakit."):
            continue
        for attr, obj in list(vars(module).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import thetakit.cli

    import_s = time.perf_counter() - start
    recorder = Recorder()
    install(recorder)
    try:
        code = sys.modules["thetakit.cli"].main(cli_args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "spans": recorder.spans}, fh)
    return code


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass, from the span files of its commands.

    ``traces`` holds one loaded span file per command.  Counts and times are
    totals over the pass; ``useful_frac`` is distinct arguments per process
    over calls.
    """
    metrics: dict[str, float] = {"cli.import_s": 0.0}
    distinct: dict[str, int] = {}
    for trace in traces:
        spans = trace["spans"]
        metrics["cli.import_s"] += trace["import_s"]
        keys: dict[str, set] = {}
        for span, own in zip(spans, self_times(spans)):
            name = span[0]
            layer = name.split(".", 1)[0]
            metrics[f"{name}.self_s"] = metrics.get(f"{name}.self_s", 0.0) + own
            metrics[f"{name}.calls"] = metrics.get(f"{name}.calls", 0) + 1
            metrics[f"{layer}.self_s"] = metrics.get(f"{layer}.self_s", 0.0) + own
            if span[4] is not None:
                keys.setdefault(name, set()).add(span[4])
        for name, seen in keys.items():
            distinct[name] = distinct.get(name, 0) + len(seen)
    for name in KEYED:
        calls = metrics.get(f"{name}.calls", 0)
        metrics[f"{name}.useful_frac"] = distinct.get(name, 0) / calls if calls else 0.0
    for identity, function in IDENTITIES.items():
        for suffix in ("self_s", "calls"):
            value = metrics.pop(f"verify.{function}.{suffix}", 0)
            metrics[f"verify.{identity}.{suffix}"] = value
    return metrics


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
