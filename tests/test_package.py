"""The package boundary: the public names and the declared dependencies."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import thetakit
from thetakit import combinatorics, cumulants, exactalg, moments, numkernel, verify

LAYERS = (exactalg, numkernel, cumulants, moments, combinatorics, verify)
ROOT = Path(__file__).resolve().parents[1]

# the package namespace as it was written out by hand, less theta, ellipK and
# ellipE (theta0 and the context's K and E are their one entry points); none
# of the rest may go
EARLIER_NAMES = """
    CandidateVerdict ConjectureRow ConsistencyError CumulantPoly CyclePeakProfile
    DEFAULT_DIGITS DomainError EisensteinValue HPFloat ModulusContext MomentPoly
    ReconciliationReport UniPoly VerificationReport a_sequence agm bell_moments
    binomial conjecture_check count_profiles cumulant_eisenstein cumulant_lambert
    cumulant_poly cumulant_symmetry_residual cumulant_value cycle_peaks d_sequence
    default_grid dk_sequence dual_context gamma_quarter hpf
    kappa_recurrence_check lemniscatic_context make_context moments_determinant
    moments_from_cumulants moments_partition p_poly parse_modulus peak_numbers pi
    pow10 q_from_a q_sequence q_value reconcile_thm11 run_suite schett_reduced
    series_moment suite_tolerance symmetry_check_P theta0
    verify_dual_moment_relation verify_jacobi_transform verify_lambert_schett
    verify_legendre verify_phi_consistency verify_romik11 verify_theorem1
    verify_theorem3 verify_variance_symmetry
""".split()


class TestNamespace:
    def test_all_is_the_modules_all_in_order(self):
        expected = [name for module in LAYERS for name in module.__all__]
        assert thetakit.__all__ == expected
        assert len(set(expected)) == len(expected)

    def test_every_name_is_its_modules_object(self):
        for module in LAYERS:
            for name in module.__all__:
                assert getattr(thetakit, name) is getattr(module, name), name

    def test_earlier_names_all_kept(self):
        assert len(EARLIER_NAMES) == 62
        missing = set(EARLIER_NAMES) - set(thetakit.__all__)
        assert not missing
        added = set(thetakit.__all__) - set(EARLIER_NAMES)
        assert added == {"IDENTITIES", "cells_for", "LEMNISCATIC_TOKEN"}


class TestDependencies:
    def test_lattice_cumulant_leaves_numpy_unloaded(self):
        code = (
            "import sys\n"
            "from thetakit import cumulant_eisenstein, lemniscatic_context\n"
            "cumulant_eisenstein(2, lemniscatic_context(30), 10)\n"
            "print('numpy' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_cli_start_leaves_dataclasses_and_inspect_unloaded(self):
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import thetakit.cli\n"
            "thetakit.cli.build_parser()\n"
            "print(sorted({'dataclasses', 'inspect', 'mpmath'} & (set(sys.modules) - before)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_exact_commands_leave_mpmath_unloaded(self):
        # perfbench's tracer looks up every thetakit.<layer> in sys.modules
        # right after `import thetakit.cli`, so all seven layers must be
        # imported at start; no command loads mpmath, not even one that
        # makes numbers
        layers = [module.__name__ for module in LAYERS] + ["thetakit.cli"]
        code = (
            "import contextlib, io, sys\n"
            "import thetakit.cli\n"
            f"print(all(name in sys.modules for name in {layers!r}))\n"
            "runs = [['sequences', 'd', '--count', '5'], ['sequences', 'q', '--count', '5'],\n"
            "        ['sequences', 'dk', '--p', '5', '--scaled', '--count', '5'],\n"
            "        ['conjecture', '--p', '3'], ['polys'], ['reconcile', '--nmax', '2']]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [thetakit.cli.main(args) for args in runs]\n"
            "print(codes, 'mpmath' in sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [thetakit.cli.main(['verify', 'symmetry', '--k', '0.3']),\n"
            "             thetakit.cli.main(['verify', 'all', '--nmax', '1'])]\n"
            "print(codes, 'mpmath' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "True\n[0, 0, 0, 0, 0, 0] False\n[0, 0] False\n"

    def test_declared_dependencies_are_the_imported_ones(self):
        tomllib = pytest.importorskip("tomllib")
        imported = set()
        for path in (ROOT / "src" / "thetakit").glob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported.update(alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add(node.module.split(".")[0])
        third_party = imported - set(sys.stdlib_module_names) - {"thetakit"}
        with (ROOT / "pyproject.toml").open("rb") as fh:
            requirements = tomllib.load(fh)["project"]["dependencies"]
        declared = {re.match(r"[A-Za-z0-9_.-]+", req).group(0) for req in requirements}
        assert third_party == declared
