"""End-to-end command line tests: exact output formats, exit codes, and
serialization round-trips."""

import csv
import hashlib
import io
import json
import subprocess
import sys
import time
from fractions import Fraction
from itertools import groupby

import pytest

from thetakit.cli import main
from thetakit.numkernel import hpf, parse_modulus


def run_cli(*argv, capsys=None):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestSequences:
    def test_d_golden(self, capsys):
        code, out, _ = run_cli("sequences", "d", "--count", "7", capsys=capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d(1) = 1"
        assert lines[1] == "d(2) = -1"
        assert lines[6] == "d(7) = 82018251"

    def test_q_nonzero_subsequence(self, capsys):
        code, out, _ = run_cli("sequences", "q", "--count", "3", capsys=capsys)
        assert code == 0
        assert out.splitlines() == ["Q_4 = 2", "Q_8 = -144", "Q_12 = 96768"]

    def test_dk_scaled_golden(self, capsys):
        code, out, _ = run_cli(
            "sequences", "dk", "--p", "3", "--count", "5", "--scaled", capsys=capsys
        )
        assert code == 0
        assert out.splitlines() == [
            "d_3(1) = 1",
            "d_3(2) = 3",
            "d_3(3) = 7",
            "d_3(4) = 2953",
            "d_3(5) = 291969",
        ]

    def test_dk_raw_rationals(self, capsys):
        code, out, _ = run_cli("sequences", "dk", "--p", "3", "--count", "2", capsys=capsys)
        assert code == 0
        assert out.splitlines() == ["R_4(1/3) = 4/9", "R_8(1/3) = 16/27"]

    def test_dk_scaled_unknown_p_is_usage_error(self, capsys):
        code, _, err = run_cli(
            "sequences", "dk", "--p", "11", "--count", "3", "--scaled", capsys=capsys
        )
        assert code == 2
        assert "scal" in err.lower() or "p" in err.lower()

    @pytest.mark.parametrize("which", ["d", "q"])
    @pytest.mark.parametrize("flags", [["--p", "3"], ["--scaled"], ["--p", "3", "--scaled"]])
    def test_dk_flags_on_other_sequences_are_usage_errors(self, capsys, which, flags):
        code, out, err = run_cli("sequences", which, *flags, "--count", "2", capsys=capsys)
        assert code == 2
        assert out == ""
        assert "dk sequence only" in err

    def test_json_shape(self, capsys):
        code, out, _ = run_cli(
            "sequences", "d", "--count", "3", "--format", "json", capsys=capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {"name": "d", "params": {"count": 3}, "terms": ["1", "-1", "51"]}

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            "sequences", "d", "--count", "3", "--format", "csv", capsys=capsys
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["index", "term"]
        assert rows[1:] == [["1", "1"], ["2", "-1"], ["3", "51"]]


class TestPolys:
    def test_text_contains_all_families(self, capsys):
        code, out, _ = run_cli("polys", "--nmax", "2", capsys=capsys)
        assert code == 0
        assert "S_1(m) = 2*m - 1" in out
        assert "P_4(m) = 16*m^3 - 24*m^2 + 8*m" in out
        assert "R_4(m) = -2*m^2 + 2*m" in out

    def test_json_families(self, capsys):
        code, out, _ = run_cli("polys", "--nmax", "3", "--format", "json", capsys=capsys)
        payload = json.loads(out)
        assert code == 0
        assert payload["nmax"] == 3
        assert payload["schett"][1] == "2*m - 1"
        assert len(payload["cumulant"]) == 3
        assert len(payload["moment"]) == 4


class TestVerify:
    def test_romik_all_pass(self, capsys):
        code, out, _ = run_cli("verify", "romik", "--nmax", "8", capsys=capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert sum(1 for ln in lines if ln.startswith("[PASS] romik_eq11")) == 9
        assert lines[-1].endswith("passed at 50 digits")

    def test_theorem1_with_modulus(self, capsys):
        code, out, _ = run_cli(
            "verify", "theorem1", "--k", "0.6", "--digits", "40", "--nmax", "4",
            capsys=capsys,
        )
        assert code == 0
        assert "[FAIL]" not in out

    def test_theorem3_spec_example(self, capsys):
        code, out, _ = run_cli(
            "verify", "theorem3", "--k", "0.3", "--nmax", "6", "--digits", "30",
            capsys=capsys,
        )
        assert code == 0
        assert "tolerance=1.0e-22" in out

    def test_all_small_grid(self, capsys):
        code, out, _ = run_cli(
            "verify", "all", "--nmax", "2", "--digits", "30", capsys=capsys
        )
        assert code == 0
        assert "[FAIL]" not in out

    def test_symmetry_suite(self, capsys):
        code, out, _ = run_cli("verify", "symmetry", "--digits", "30", capsys=capsys)
        assert code == 0
        assert "variance_symmetry" in out and "dual_moment_relation" in out

    def test_out_of_domain_modulus_is_usage_error(self, capsys):
        code, _, err = run_cli("verify", "all", "--k", "1.5", capsys=capsys)
        assert code == 2
        assert "0, 1" in err or "interval" in err

    def test_modulus_near_one_is_accepted(self, capsys):
        # 1 - 1e-20 rounds to 1.0 as a binary float but not at 50 digits
        code, out, _ = run_cli(
            "verify", "all", "--k", "0.99999999999999999999", "--nmax", "3",
            "--digits", "50", capsys=capsys,
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == "25/25 cells passed at 50 digits"

    def test_tiny_modulus_gives_error_cells(self, capsys):
        # accepted, but at 50 digits k' rounds to 1, so the cells that need a
        # context report a domain error instead of crashing
        code, out, _ = run_cli(
            "verify", "all", "--k", "1e-400", "--nmax", "1", capsys=capsys
        )
        assert code == 1
        assert "error=elliptic modulus" in out

    @pytest.mark.parametrize("token", ["0", "1", "1.5", "-0.1", "nan", "inf", "half"])
    def test_rejected_modulus_tokens(self, token, capsys):
        code, out, err = run_cli("verify", "all", "--k", token, capsys=capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: modulus")

    def test_modulus_for_fixed_modulus_suite_is_usage_error(self, capsys):
        # every romik cell runs at 1/sqrt2, so a given modulus would be ignored
        code, out, err = run_cli("verify", "romik", "--k", "0.5", capsys=capsys)
        assert code == 2
        assert out == ""
        assert err == "error: verify romik runs only at k = 1/sqrt2\n"

    def test_json_report_stream(self, capsys):
        code, out, _ = run_cli(
            "verify", "romik", "--nmax", "2", "--format", "json", capsys=capsys
        )
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 3
        assert all(r["passed"] for r in reports)
        assert all(r["identity"] == "romik_eq11" for r in reports)


class TestModulusTokens:
    """The modulus tokens that parse_modulus accepts and rejects, as the CLI
    took them while the decimal parser came from mpmath; the parser is now
    thetakit's own, and "1/0", which then crashed, is a usage error."""

    @pytest.mark.parametrize("token, code", [
        ("0.5e0", 0), ("1/2", 0), ("0.99999999999999999999", 0), ("1/sqrt2", 0),
        # accepted, but k' rounds to 1 at 20 digits, so its cells report a domain error
        ("1e-400", 1),
    ])
    def test_accepted(self, token, code, capsys):
        argv = ("verify", "symmetry", "--k", token, "--digits", "20")
        assert run_cli(*argv, capsys=capsys)[0] == code

    def test_accepted_values(self):
        half = hpf(Fraction(1, 2), 20)
        assert parse_modulus("0.5e0", 20) == parse_modulus("1/2", 20) == half
        assert parse_modulus("0.99999999999999999999", 20) < 1
        assert str(parse_modulus("1e-400", 20)) == "1.0e-400"
        assert parse_modulus("1/sqrt2", 20) == half.sqrt()

    @pytest.mark.parametrize("token", ["nan", "inf", "abc", "-0.5", "1", "1/0"])
    def test_rejected(self, token, capsys):
        code, out, err = run_cli("verify", "symmetry", "--k", token, capsys=capsys)
        assert code == 2
        assert out == ""
        assert err.startswith((f"error: modulus {token} ", f"error: modulus {token!r} "))


def _blocks(cells):
    """Collapse a cell list into its runs of one identity: [(identity, count)]."""
    return [(identity, len(list(run))) for identity, run in groupby(c[0] for c in cells)]


class TestVerifyCells:
    """The exact cell list each verify subcommand hands to run_suite."""

    EXPECTED = {
        ("all", None): [
            ("theorem1", 27), ("theorem3", 27), ("romik_eq11", 9),
            ("lambert_schett", 21), ("jacobi_transform", 4), ("legendre", 3),
            ("variance_symmetry", 3), ("phi_consistency", 1),
            ("dual_moment_relation", 15),
        ],
        ("all", "2"): [
            ("theorem1", 9), ("theorem3", 9), ("romik_eq11", 3),
            ("lambert_schett", 3), ("jacobi_transform", 4), ("legendre", 3),
            ("variance_symmetry", 3), ("phi_consistency", 1),
            ("dual_moment_relation", 9),
        ],
        ("theorem1", None): [("theorem1", 27)],
        ("theorem1", "2"): [("theorem1", 9)],
        ("theorem3", None): [("theorem3", 27)],
        ("theorem3", "2"): [("theorem3", 9)],
        ("romik", None): [("romik_eq11", 9)],
        ("romik", "2"): [("romik_eq11", 3)],
        ("symmetry", None): [("variance_symmetry", 3), ("dual_moment_relation", 15)],
        ("symmetry", "2"): [("variance_symmetry", 3), ("dual_moment_relation", 9)],
    }

    @staticmethod
    def _capture(monkeypatch, capsys, *argv):
        seen = []

        def fake_run_suite(cells, digits):
            seen.append(list(cells))
            return []

        monkeypatch.setattr("thetakit.cli.run_suite", fake_run_suite)
        code, _, _ = run_cli("verify", *argv, capsys=capsys)
        assert code == 0 and len(seen) == 1
        return seen[0]

    @pytest.mark.parametrize("which, nmax", sorted(EXPECTED, key=str))
    def test_block_order_and_lengths(self, monkeypatch, capsys, which, nmax):
        argv = (which,) if nmax is None else (which, "--nmax", nmax)
        cells = self._capture(monkeypatch, capsys, *argv)
        assert _blocks(cells) == self.EXPECTED[(which, nmax)]

    def test_all_default_cells(self, monkeypatch, capsys):
        cells = self._capture(monkeypatch, capsys, "all")
        assert len(cells) == 110
        assert cells[:10] == [("theorem1", n, "0.3") for n in range(9)] + [
            ("theorem1", 0, "1/sqrt2")
        ]
        assert [c for c in cells if c[0] == "jacobi_transform"] == [
            ("jacobi_transform", None, c) for c in ("0.37", "1", "2", "5")
        ]
        assert cells[-15:] == [
            ("dual_moment_relation", n, k)
            for k in ("0.3", "1/sqrt2", "0.9")
            for n in range(5)
        ]

    def test_given_modulus_replaces_defaults(self, monkeypatch, capsys):
        cells = self._capture(monkeypatch, capsys, "all", "--k", "0.6", "--nmax", "2")
        fixed = {"romik_eq11": "1/sqrt2", "phi_consistency": "1/sqrt2"}
        for identity, _, token in cells:
            if identity == "jacobi_transform":
                continue
            assert token == fixed.get(identity, "0.6")
        assert len(cells) == 3 + 3 + 3 + 1 + 4 + 1 + 1 + 1 + 3


class TestConjecture:
    def test_known_p(self, capsys):
        code, out, _ = run_cli("conjecture", "--p", "6", "--count", "6", capsys=capsys)
        assert code == 0
        assert "scaled=3594330803003" in out
        assert "all scaled values are integers" in out

    def test_p2_reduces_to_d(self, capsys):
        code, out, _ = run_cli("conjecture", "--p", "2", "--count", "4", capsys=capsys)
        assert code == 0
        assert "scaled=849" in out

    def test_unknown_p_factors_denominators(self, capsys):
        code, out, _ = run_cli("conjecture", "--p", "11", "--count", "4", capsys=capsys)
        assert code == 0
        assert "denominator=11^2" in out
        assert "no scaling constant is known" in out

    def test_bad_p_usage_error(self, capsys):
        code, _, err = run_cli("conjecture", "--p", "1", "--count", "3", capsys=capsys)
        assert code == 2

    def test_large_prime_p_factors_quickly(self, capsys):
        # the denominators divide a power of p, so only p is factored; trial
        # division of p^4 up to its square root would take minutes
        start = time.perf_counter()
        code, out, _ = run_cli("conjecture", "--p", "100000007", "--count", "2", capsys=capsys)
        elapsed = time.perf_counter() - start
        assert code == 0
        lines = out.splitlines()
        assert lines[1].startswith("  m=1  ") and lines[1].endswith("denominator=100000007^2")
        assert lines[2].startswith("  m=2  ") and lines[2].endswith("denominator=100000007^4")
        assert elapsed < 2.0

    @pytest.mark.parametrize("argv, denominator", [
        # 2^61 - 1, prime
        (("--p", "2305843009213693951", "--count", "1"), "denominator=2305843009213693951^2"),
        # (2^31 - 1)(2^61 - 1)
        (("--p", "4951760154835678088235319297",),
         "denominator=2147483647^12*2305843009213693951^12"),
    ])
    def test_p_with_large_prime_factors(self, capsys, argv, denominator):
        start = time.perf_counter()
        code, out, _ = run_cli("conjecture", *argv, capsys=capsys)
        elapsed = time.perf_counter() - start
        assert code == 0
        assert out.splitlines()[-2].endswith(denominator)
        assert elapsed < 2.0


class TestReconcile:
    def test_winner_and_exit_zero(self, capsys):
        code, out, _ = run_cli("reconcile", "--nmax", "3", capsys=capsys)
        assert code == 0
        assert "winner: exponents=(j+1, n-j) sign=(-1)^j" in out
        assert "Q projection [2, 0, -144] vs reference [2, 0, -144]" in out

    def test_nmax_out_of_range(self, capsys):
        code, _, err = run_cli("reconcile", "--nmax", "5", capsys=capsys)
        assert code == 2

    def test_parity_note_states_only_enumerated_orders(self, capsys):
        notes = {}
        for nmax in ("1", "2"):
            code, out, _ = run_cli("reconcile", "--nmax", nmax, "--format", "json", capsys=capsys)
            assert code == 0
            notes[nmax] = json.loads(out)["parity_note"]
        # order 1 alone matches the swapped labels
        assert notes["1"] == "Swapped-parity labels match at every enumerated order."
        assert ("order 1 needs the peak of (2,1) counted as odd (swapped labels) and order 2 "
                "matches the plain value labels." in notes["2"])
        assert all("order 3" not in note for note in notes.values())

    def test_json_verdicts(self, capsys):
        code, out, _ = run_cli("reconcile", "--nmax", "2", "--format", "json", capsys=capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["winner"] == {"exponents": "(j+1, n-j)", "sign": "(-1)^j"}
        assert len(payload["verdicts"]) == 12


# sha256 of the --format json output and the exit code of the exact
# commands, recorded before the sequences moved to the point route; any byte
# drift in the exact layer fails here. Every pinned command exits 0.
PINNED_JSON = {
    "sequences d --count 20":
        "7107004cda38c147faf69aab58895638d63bcb5441cb742b62f69af7f27fa497",
    "conjecture --p 3 --count 12":
        "45441acf1d976164bd461edc10608313412abbbff020666da43528248e5ccf2f",
    "conjecture --p 4 --count 12":
        "2cf01b4a65c5752e1461a8269ee2e7d218c5c0bffabbc28a356b9cb546aceedf",
    "conjecture --p 5 --count 12":
        "58510244ecc2ad01d8b351beffd4e895255dd4fbfd2c47b764fcc039918fb9fd",
    "conjecture --p 6 --count 12":
        "ed52eeba37d25cb089b4d216731bc034986ccd777ddfe3cfd126691add5f62ca",
    "conjecture --p 7 --count 12":
        "845b65178e54142593f667396f39b44951150556375017b451e8257c8bd2ab45",
    "sequences dk --p 2 --count 8 --scaled":
        "65f643a87ebc1149c0fc0d93d10b76103e65b4459a6a9e706d3fa2ecf1f36c4e",
    "sequences dk --p 3 --count 8 --scaled":
        "14a27dd154d393c3f79005eea4bac9601fa963cc04566e9623843a19cc491b0c",
    "sequences dk --p 4 --count 8 --scaled":
        "bfd117f7546c8ae24067dcaeb42a3cae8de595d64fc11114333cb5adf72bf420",
    "sequences dk --p 5 --count 8 --scaled":
        "275bf6ec8923f63880d1742a6fb455d9cc3bfbd3d7aa083625e0f95831d87315",
    "sequences dk --p 6 --count 8 --scaled":
        "0c16023dcff485a1537192f72a8a401e6e54551ba0f05ea0a3d56e4d85ad6298",
    "sequences dk --p 7 --count 8 --scaled":
        "4df26fec2dbcb92359f29a5518e03e64e7899c82faabdc4c4a1b17add8dbc6bd",
    "sequences q --count 30":
        "afdc54253b385960ac2993634d07c59a084b9b3ffc824b405ef5def47ed0e507",
    "polys --nmax 12":
        "b6cd7e71b77f97f8c493599a6001c00295d3c0e76533eb6f6cfb0a6c37ab1438",
    "reconcile --nmax 4":
        "a627cfae658b06a110f31df9be7995d14d9c4ceb658644599bdc3dc095be69ab",
}


class TestPinnedExactOutputs:
    @pytest.mark.parametrize("command", sorted(PINNED_JSON))
    def test_json_bytes_and_exit_code(self, command, capsys):
        code, out, _ = run_cli(*command.split(), "--format", "json", capsys=capsys)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_JSON[command]


class TestPlumbing:
    @pytest.mark.parametrize(
        "argv",
        [
            ("sequences", "d", "--count", "4"),
            ("polys", "--nmax", "3"),
            ("verify", "romik", "--nmax", "2"),
            ("reconcile", "--nmax", "2"),
            ("conjecture", "--p", "5", "--count", "3"),
        ],
    )
    def test_json_output_round_trips_byte_identical(self, argv, capsys):
        code, out, _ = run_cli(*argv, "--format", "json", capsys=capsys)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"

    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "d.json"
        code, out, _ = run_cli(
            "sequences", "d", "--count", "3", "--format", "json",
            "--out", str(target), capsys=capsys,
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text()) == {
            "name": "d", "params": {"count": 3}, "terms": ["1", "-1", "51"]
        }

    def test_out_to_missing_directory_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(
            "verify", "all", "--k", "0.5", "--nmax", "1", "--out", str(target), capsys=capsys
        )
        assert code == 2
        assert out == "" and not target.exists()
        assert err == f"error: cannot write {target}: No such file or directory\n"

    def test_out_to_directory_is_usage_error(self, tmp_path, capsys):
        code, out, err = run_cli("sequences", "d", "--count", "3", "--out", str(tmp_path), capsys=capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write {tmp_path}: Is a directory\n"

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sequences", "d", "--frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_installed_entry_point(self):
        proc = subprocess.run(
            ["thetakit", "sequences", "q", "--count", "2", "--format", "json"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["terms"] == ["2", "-144"]

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "thetakit.cli", "sequences", "d", "--count", "1"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout == "d(1) = 1\n"

    def test_cli_import_leaves_numpy_unloaded(self):
        # thetakit depends on mpmath alone; nothing on the CLI path may pull numpy in
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, thetakit.cli; print('numpy' in sys.modules)"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout == "False\n"
