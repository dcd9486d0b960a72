"""Command-line interface: formats, exit codes, error locations, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from catzeta.cli import cli_main
from conftest import FIXTURE_DIR

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def fixture(name: str) -> str:
    return str(FIXTURE_DIR / f"{name}.json")


def matrix_fixture(name: str) -> str:
    return str(FIXTURE_DIR / "matrices" / f"{name}.json")


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_ok(self, capsys):
        code, out, _ = run(capsys, "validate", fixture("z2"))
        assert code == 0
        assert out.startswith("ok:")

    def test_matrix_mode(self, capsys):
        code, out, _ = run(capsys, "validate", matrix_fixture("pell"), "--matrix")
        assert code == 0
        assert "square integer matrix" in out

    def test_violations_exit_3(self, capsys, tmp_path):
        with open(fixture("z2")) as fh:
            doc = json.load(fh)
        doc["compose"] = []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", str(bad))
        assert code == 3
        assert "invalid:" in out
        assert "totality" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "validate", fixture("k2"), "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["ok"] is True
        assert doc["violations"] == []


class TestErrorHandling:
    def test_malformed_json_exit_2_with_location(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{oops")
        code, _, err = run(capsys, "chains", str(bad))
        assert code == 2
        assert f"{bad}:1:" in err

    def test_missing_key_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "incomplete.json"
        bad.write_text(json.dumps({"objects": []}))
        code, _, err = run(capsys, "euler", str(bad))
        assert code == 2
        assert "missing key" in err

    def test_nonexistent_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "euler", str(tmp_path / "absent.json"))
        assert code == 2
        assert "absent.json" in err

    def test_axiom_violation_blocks_computation(self, capsys, tmp_path):
        with open(fixture("z2")) as fh:
            doc = json.load(fh)
        doc["compose"] = []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "zeta", str(bad))
        assert code == 3
        assert "totality" in err

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["frobnicate"])
        assert exc.value.code == 2

    def test_negative_order_rejected(self, capsys):
        code, _, err = run(capsys, "zeta", fixture("z2"), "--order", "-1")
        assert code == 2
        assert "order" in err

    def test_zero_max_rejected(self, capsys):
        code, _, err = run(capsys, "chains", fixture("z2"), "--max", "0")
        assert code == 2

    @pytest.mark.parametrize("value", ["0", "-100"])
    def test_nonpositive_precision_rejected(self, capsys, value):
        code, out, err = run(capsys, "verify", matrix_fixture("pell"), "--matrix",
                             f"--precision={value}")
        assert code == 2
        assert out == ""
        assert "--precision must be at least 1" in err

    @pytest.mark.parametrize("value", ["-1", "-1e-30", "nan", "inf", "-inf"])
    def test_bad_tolerance_rejected(self, capsys, value):
        code, out, err = run(capsys, "verify", fixture("k2"), f"--tol={value}")
        assert code == 2
        assert out == ""
        assert "--tol must be a finite nonnegative number" in err

    def test_zero_tolerance_and_one_bit_accepted(self, capsys):
        code, out, _ = run(capsys, "verify", fixture("k2"), "--tol=0", "--precision=1")
        assert code == 0
        assert "overall: PASS" in out

    def test_tolerance_leaves_the_closed_form_alone(self, capsys):
        # --tol is the verification tolerance; the closed form recombines at
        # the library default, so even 1e-300 changes no byte of it
        argv = ("zeta", "--closed", "--matrix", matrix_fixture("pell"))
        _, plain, _ = run(capsys, *argv)
        code, tight, _ = run(capsys, *argv, "--tol", "1e-300")
        assert code == 0
        assert tight == plain

    def test_bool_matrix_entry_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bools.json"
        bad.write_text("[[true, false], [false, true]]")
        code, _, err = run(capsys, "chains", str(bad), "--matrix")
        assert code == 2


class TestChains:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "chains", fixture("z2"), "--max", "4")
        assert code == 0
        assert out.splitlines() == ["#N_1 = 2", "#N_2 = 4", "#N_3 = 8", "#N_4 = 16"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "chains", fixture("z2"), "--max", "3", "--json")
        assert json.loads(out)["counts"] == ["2", "4", "8"]

    def test_matrix_input(self, capsys):
        code, out, _ = run(capsys, "chains", matrix_fixture("pell"),
                           "--matrix", "--max", "2")
        assert out.splitlines() == ["#N_1 = 5", "#N_2 = 12"]


class TestCharpoly:
    def test_text(self, capsys):
        _, out, _ = run(capsys, "charpoly", fixture("p2"))
        lines = out.splitlines()
        assert "d(z) = 1 - 2 z + z^2" in lines
        assert "k(z) = 2 - z" in lines
        assert "m(z) = 3 - 2 z" in lines
        assert "r = 0, s = 0, lead d = 1" in lines

    def test_json(self, capsys):
        _, out, _ = run(capsys, "charpoly", fixture("p2"), "--json")
        doc = json.loads(out)
        assert doc["d"] == ["1", "-2", "1"]
        assert doc["k"] == ["2", "-1"]
        assert doc["m"] == ["3", "-2"]
        assert (doc["r"], doc["s"], doc["n"]) == (0, 0, 2)


class TestEuler:
    def test_exists(self, capsys):
        _, out, _ = run(capsys, "euler", fixture("s"))
        assert out.strip() == "chi = 0"

    def test_rational_value(self, capsys):
        _, out, _ = run(capsys, "euler", fixture("z2"))
        assert out.strip() == "chi = 1/2"

    def test_does_not_exist(self, capsys):
        code, out, _ = run(capsys, "euler", matrix_fixture("shift2"), "--matrix")
        assert code == 0
        assert out.strip() == "chi does not exist (r = 2, s = 0)"

    def test_json(self, capsys):
        _, out, _ = run(capsys, "euler", fixture("z2"), "--json")
        doc = json.loads(out)
        assert doc["chi"] == "1/2"
        assert doc["exists"] is True
        assert doc["branch"] == "ratio"


class TestZeta:
    def test_series_only(self, capsys):
        _, out, _ = run(capsys, "zeta", fixture("p2"), "--order", "3")
        assert out.strip() == "series: 1, 3, 13/2, 73/6"

    def test_closed_form_text(self, capsys):
        _, out, _ = run(capsys, "zeta", fixture("p2"), "--order", "3", "--closed")
        assert "theta = 1 (rational, multiplicity 2)" in out
        assert "beta0 = 2" in out
        assert "pole of order 2 with essential part" in out

    def test_json_structure(self, capsys):
        _, out, _ = run(capsys, "zeta", fixture("z2"), "--order", "4",
                        "--closed", "--json")
        doc = json.loads(out)
        assert doc["series"] == ["1", "2", "4", "8", "16"]
        cf = doc["closed_form"]
        assert cf["path"] == "exact"
        (factor,) = cf["factors"]
        assert factor["theta"] == "1/2"
        assert factor["beta0"] == "1"
        assert factor["classification"] == "pole"
        assert cf["corollary_violations"] == []

    def test_numeric_values_as_strings(self, capsys):
        _, out, _ = run(capsys, "zeta", matrix_fixture("pell"), "--matrix",
                        "--order", "2", "--closed", "--json")
        doc = json.loads(out)
        (f1, f2) = doc["closed_form"]["factors"]
        # numeric values serialize as [re, im] pairs of decimal strings
        assert [float(part) for part in f1["theta"]] == \
            pytest.approx([0.41421356, 0.0], abs=1e-6)
        assert float(f2["theta"][0]) == pytest.approx(-2.41421356, rel=1e-6)


class TestVerify:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "verify", fixture("k2"))
        assert code == 0
        assert "overall: PASS" in out
        assert out.count("[PASS]") == 4

    def test_inapplicable_marked(self, capsys):
        code, out, _ = run(capsys, "verify", matrix_fixture("shift2"), "--matrix")
        assert code == 0
        assert "[n/a]" in out

    def test_forced_failure_exit_1(self, capsys):
        code, out, _ = run(capsys, "verify", matrix_fixture("pell"),
                           "--matrix", "--tol", "1e-80")
        assert code == 1
        assert "overall: FAIL" in out

    def test_json_report(self, capsys):
        _, out, _ = run(capsys, "verify", fixture("p2"), "--json")
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["chi"] == "1"
        assert doc["path"] == "exact"


class TestGenerate:
    def test_discrete(self, capsys):
        code, out, _ = run(capsys, "generate", "discrete", "3")
        doc = json.loads(out)
        assert code == 0
        assert len(doc["objects"]) == 3

    def test_poset_roundtrip(self, capsys, tmp_path):
        rel = tmp_path / "rel.json"
        rel.write_text("[[1, 1, 1], [0, 1, 1], [0, 0, 1]]")
        code, out, _ = run(capsys, "generate", "poset", str(rel))
        cat = tmp_path / "cat.json"
        cat.write_text(out)
        code2, out2, _ = run(capsys, "euler", str(cat))
        assert (code, code2) == (0, 0)
        assert out2.strip() == "chi = 1"

    def test_monoid(self, capsys, tmp_path):
        table = tmp_path / "z3.json"
        table.write_text("[[0, 1, 2], [1, 2, 0], [2, 0, 1]]")
        code, out, _ = run(capsys, "generate", "monoid", str(table))
        assert code == 0
        doc = json.loads(out)
        assert len(doc["morphisms"]) == 3

    def test_monoid_without_identity_exit_3(self, capsys, tmp_path):
        table = tmp_path / "bad.json"
        table.write_text("[[1, 1], [1, 1]]")
        code, _, err = run(capsys, "generate", "monoid", str(table))
        assert code == 3
        assert "identity" in err

    def test_union_and_product(self, capsys, tmp_path):
        code, out, _ = run(capsys, "generate", "union",
                           fixture("p2"), fixture("z2"))
        assert code == 0
        u = tmp_path / "union.json"
        u.write_text(out)
        _, out2, _ = run(capsys, "euler", str(u))
        assert out2.strip() == "chi = 3/2"

        code, out, _ = run(capsys, "generate", "product",
                           fixture("p2"), fixture("p2"))
        assert code == 0
        p = tmp_path / "prod.json"
        p.write_text(out)
        _, out3, _ = run(capsys, "validate", str(p))
        assert out3.startswith("ok:")

    def test_bad_relation_shape_exit_2(self, capsys, tmp_path):
        rel = tmp_path / "rel.json"
        rel.write_text("[[1, 1], [0]]")
        code, _, _ = run(capsys, "generate", "poset", str(rel))
        assert code == 2

    def test_non_poset_relation_exit_3(self, capsys, tmp_path):
        rel = tmp_path / "rel.json"
        rel.write_text("[[1, 1], [1, 1]]")
        code, _, err = run(capsys, "generate", "poset", str(rel))
        assert code == 3
        assert "antisymmetric" in err


class TestPinnedOutput:
    """stdout byte for byte against files under tests/golden, written by
    `python -m catzeta.cli <argv> --matrix fixtures/matrices/<name>.json`.
    pell pins the numeric path's 40-digit residuals, jordan2 the exact
    path; rewrite a file only in a change meant to alter those bytes."""

    @pytest.mark.parametrize("name", ["pell", "jordan2"])
    @pytest.mark.parametrize("argv,stem", [
        (("verify", "--json", "--order", "30"), "verify.30"),
        (("verify", "--json", "--order", "200"), "verify.200"),
        (("zeta", "--closed", "--json"), "zeta-closed"),
    ])
    def test_stdout_matches_pinned_bytes(self, capsys, name, argv, stem):
        code, out, _ = run(capsys, *argv, "--matrix", matrix_fixture(name))
        assert code == 0
        assert out == (GOLDEN_DIR / f"{name}.{stem}.json").read_text(encoding="utf-8")


class TestDeterminism:
    """Byte-identical JSON across process restarts and hash seeds."""

    def invoke(self, argv, seed):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        return subprocess.run(
            [sys.executable, "-m", "catzeta.cli", *argv],
            capture_output=True, env=env, check=True,
        ).stdout

    @pytest.mark.parametrize("argv", [
        ["zeta", fixture("p2"), "--order", "8", "--closed", "--json"],
        ["verify", matrix_fixture("pell"), "--matrix", "--json"],
        ["validate", fixture("k2"), "--json"],
        ["charpoly", matrix_fixture("block4"), "--matrix", "--json"],
    ])
    def test_byte_identical_across_hash_seeds(self, argv):
        first = self.invoke(argv, "0")
        second = self.invoke(argv, "424242")
        assert first == second
        assert first.strip()

    def test_console_script_help(self):
        out = subprocess.run(["catzeta", "--help"], capture_output=True,
                             check=True, text=True).stdout
        for sub in ("validate", "chains", "charpoly", "euler", "zeta",
                    "verify", "generate"):
            assert sub in out
