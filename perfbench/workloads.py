"""Command lists of the three benchmark workloads, generated from a seed.

The seed belongs to the benchmark; thetakit only ever sees the command
lines built here.  Every command asks for ``--format json`` so that its
output can be checked against the recorded reference.
"""

from __future__ import annotations

import random
from decimal import Decimal

WORKLOADS = ("exact-deep", "verify-deep", "cli-mix")

# log10 of the distance to the nearer end of (0, 1) runs over this many evenly
# spaced points in [-12, -0.3].  The grid is finite so that the reference can
# hold a recorded result for every modulus the benchmark can draw.
GRID_POINTS = 28
GRID_LO, GRID_HI = -12.0, -0.3
STRATA = 4

# Sizes of the two deep workloads.  A pass of each takes a few seconds, so a
# run holds several passes and its median is not set by one slow stretch of
# the machine.  At these sizes the exact layer still does all the work of
# ``sequences d``, and ``cumulant_lambert`` still takes most of ``verify all``.
D_COUNT = "20"
DEEP_DIGITS = "500"


def _log_grid() -> list[float]:
    step = (GRID_HI - GRID_LO) / (GRID_POINTS - 1)
    return [GRID_LO + i * step for i in range(GRID_POINTS)]


def _distance(x: float) -> Decimal:
    """10**x rounded to six significant digits, as an exact decimal."""
    return Decimal(f"{10.0 ** x:.5e}")


def near_zero_moduli() -> list[str]:
    """Moduli k with log10 k on the grid."""
    return [f"{_distance(x):f}" for x in _log_grid()]


def near_one_moduli() -> list[str]:
    """Moduli k with log10 (1 - k) on the grid."""
    return [f"{1 - _distance(x):f}" for x in _log_grid()]


def grid_moduli() -> list[str]:
    return near_zero_moduli() + near_one_moduli()


def _stratified(rng: random.Random, tokens: list[str]) -> list[str]:
    """One token from each of STRATA equal slices of the grid.

    Each draw is still uniform over the grid, but every pass covers the whole
    range once, so pass times and failure counts vary less between seeds.
    """
    size = len(tokens) // STRATA
    return [rng.choice(tokens[i * size:(i + 1) * size]) for i in range(STRATA)]


def commands(workload: str, seed: int) -> list[list[str]]:
    """The argument lists (after ``python -m thetakit.cli``) of one pass."""
    return [[*args, "--format", "json"] for args in _plan(workload, seed)]


def _plan(workload: str, seed: int) -> list[list[str]]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "exact-deep":
        p = rng.randint(3, 7)
        return [
            ["sequences", "d", "--count", D_COUNT],
            ["conjecture", "--p", str(p), "--count", "12"],
        ]
    if workload == "verify-deep":
        return [["verify", "all", "--digits", DEEP_DIGITS]]
    if workload == "cli-mix":
        ks = _stratified(rng, near_zero_moduli()) + _stratified(rng, near_one_moduli())
        cmds = [["verify", "all", "--k", k, "--digits", "50"] for k in ks]
        cmds += [["verify", "symmetry", "--k", k] for k in rng.sample(grid_moduli(), 3)]
        cmds += [
            ["polys", "--nmax", "12"],
            ["reconcile", "--nmax", "4"],
            ["sequences", "q", "--count", "30"],
            ["sequences", "dk", "--p", str(rng.randint(2, 7)), "--count", "8", "--scaled"],
            ["conjecture", "--p", str(rng.randint(2, 7)), "--count", "8"],
        ]
        rng.shuffle(cmds)
        return cmds
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def reference_commands() -> list[list[str]]:
    """Every command any seed can draw, for recording the reference outputs."""
    plain = [["sequences", "d", "--count", D_COUNT], ["verify", "all", "--digits", DEEP_DIGITS]]
    plain += [["conjecture", "--p", str(p), "--count", "12"] for p in range(3, 8)]
    plain += [["verify", "all", "--k", k, "--digits", "50"] for k in grid_moduli()]
    plain += [["verify", "symmetry", "--k", k] for k in grid_moduli()]
    plain += [
        ["polys", "--nmax", "12"],
        ["reconcile", "--nmax", "4"],
        ["sequences", "q", "--count", "30"],
    ]
    plain += [["sequences", "dk", "--p", str(p), "--count", "8", "--scaled"] for p in range(2, 8)]
    plain += [["conjecture", "--p", str(p), "--count", "8"] for p in range(2, 8)]
    return [[*args, "--format", "json"] for args in plain]
