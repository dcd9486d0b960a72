"""Command-line interface: formats, exit codes, error locations, determinism."""

import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import cli_sweep
from catzeta import adjacency, verify_matrix
from catzeta.cli import _json, cli_main
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

    @pytest.mark.parametrize("argv", [
        ["zeta", "--closed", "--matrix", matrix_fixture("pell"), "--tol", "1e-300"],
        ["chains", fixture("z2"), "--tol", "1"],
        ["generate", "discrete", "3", "--json"],
    ])
    def test_a_flag_the_command_does_not_read_is_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_bool_matrix_entry_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bools.json"
        bad.write_text("[[true, false], [false, true]]")
        code, _, err = run(capsys, "chains", str(bad), "--matrix")
        assert code == 2

    @pytest.mark.parametrize("text", ["[1, 2]", "{}", "[[1], 2]"])
    def test_matrix_not_an_array_of_arrays(self, capsys, tmp_path, text):
        # the one check _parse_matrix keeps; rows and entries are IntMatrix's
        bad = tmp_path / "flat.json"
        bad.write_text(text)
        code, out, err = run(capsys, "chains", str(bad), "--matrix")
        assert (code, out) == (2, "")
        assert err == f"error: {bad}: matrix must be an array of arrays\n"

    def test_identity_that_is_not_a_string_exit_2(self, capsys, tmp_path):
        with open(fixture("z2")) as fh:
            doc = json.load(fh)
        doc["identity"] = {x: [m] for x, m in doc["identity"].items()}
        bad = tmp_path / "listed.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", str(bad))
        assert (code, out) == (2, "")
        assert err == f"error: {bad}: identity['*']: morphism id must be a string\n"

    @pytest.mark.parametrize("command", ["validate", "verify"])
    def test_identity_that_does_not_run_x_to_x_exit_2(self, capsys, tmp_path, command):
        with open(fixture("p2")) as fh:
            doc = json.load(fh)
        doc["identity"]["x"] = "f"
        bad = tmp_path / "misid.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, str(bad))
        assert (code, out) == (2, "")
        assert err == f"error: {bad}: identity['x']: morphism 'f' runs x->y, not x->x\n"

    @pytest.mark.parametrize("argv", [["verify", "--matrix"], ["verify"]],
                             ids=["matrix", "category"])
    def test_file_not_utf8_exit_2(self, capsys, tmp_path, argv):
        bad = tmp_path / "latin.json"
        bad.write_bytes(b"\xff\xfe[[1]]")
        code, out, err = run(capsys, *argv, str(bad))
        assert (code, out) == (2, "")
        assert err == f"error: {bad}: not UTF-8 text: invalid start byte at byte 0\n"

    def test_uncertified_root_exit_1(self, capsys, monkeypatch):
        """A RootFindingError is an ArithmeticError, but it is the user's
        to act on, not an internal consistency failure."""
        import catzeta.roots
        message = "root residual above certification bound; raise the precision"

        def refuse(p, precision_bits):
            raise catzeta.roots.RootFindingError(message)

        monkeypatch.setattr(catzeta.roots, "numeric_roots", refuse)
        code, out, err = run(capsys, "verify", matrix_fixture("pell"), "--matrix")
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"


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
        assert doc["lead_d"] == "1"  # a JSON string, as every Fraction prints

    def test_json_lead_past_one(self, capsys):
        # jordan2's d = (1 - 2z)^2 has lead 4, an int in the bundle
        _, out, _ = run(capsys, "charpoly", matrix_fixture("jordan2"), "--matrix", "--json")
        doc = json.loads(out)
        assert doc["d"] == ["1", "-4", "4"] and doc["lead_d"] == "4"


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

    def test_closed_form_sweeps_chain_counts_once(self, capsys, monkeypatch):
        # the series through z^10 and the pencil share one sweep of N = 2
        # steps, #N_3 .. #N_10 from P's recurrence; chain_counts runs its
        # sweep through category.chain_vectors too
        import catzeta.category
        import catzeta.zeta
        from catzeta.category import chain_vectors

        sweeps = []  # the steps v <- A v taken, one entry per sweep

        def counted(a):
            sweeps.append(-1)
            for v in chain_vectors(a):
                sweeps[-1] += 1
                yield v

        for module in (catzeta.category, catzeta.zeta):
            monkeypatch.setattr(module, "chain_vectors", counted)
        code, out, _ = run(capsys, "zeta", "--closed", "--json", "--matrix",
                           matrix_fixture("pell"), "--order", "10")
        assert code == 0 and len(json.loads(out)["series"]) == 11
        assert sweeps == [2]


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

    @pytest.mark.parametrize("name, path", [("k2", "exact"), ("pell", "numeric")])
    def test_json_is_the_report_as_it_is(self, capsys, fixture_categories,
                                         fixture_matrices, name, path):
        if name in fixture_categories:
            a, argv = adjacency(fixture_categories[name]), [fixture(name)]
        else:
            a, argv = fixture_matrices[name], [matrix_fixture(name), "--matrix"]
        report = verify_matrix(a)
        names = {f.name for f in fields(report)}
        code, out, _ = run(capsys, "verify", *argv, "--json")
        doc = json.loads(out)
        assert code == 0 and report.path == path
        assert set(doc) == {"command", "passed"} | names
        checks = [getattr(report, c) for c in ("c1", "c2", "c3", "c4")]
        for c, check in zip(("c1", "c2", "c3", "c4"), checks):
            assert set(doc[c]) == set(check), c
        # what bench/run.py reads of a report: fields(report), the four flags,
        # passed, path, order and chi
        flags = [report.c1_pass, report.c2_pass, report.c3_pass, report.c4_pass]
        assert flags == [check["pass"] for check in checks]
        assert report.passed is doc["passed"] is True
        assert (doc["path"], doc["order"], doc["chi"]) == (report.path, report.order,
                                                           str(report.chi))

    @pytest.mark.parametrize("k", [11, 20, 30])
    def test_a_root_past_2_to_the_32_passes(self, capsys, tmp_path, k):
        path = tmp_path / "large.json"
        path.write_text(json.dumps([[10**k, 1], [1, 0]]))
        code, out, _ = run(capsys, "verify", "--matrix", str(path), "--precision", "128")
        assert code == 0 and "overall: PASS" in out

    def test_semiprime_eigenvalue_matrix(self, capsys, tmp_path):
        # eigenvalues 1 and q = p1 p2, two 12-digit primes
        q = 900000000013 * 900012345697
        path = tmp_path / "semiprime.json"
        path.write_text(json.dumps([[q - 1, 1], [q - 2, 2]]))
        code, out, _ = run(capsys, "verify", "--json", "--matrix", str(path))
        assert code == 0
        assert json.loads(out)["path"] == "exact"


class TestGenerate:
    def test_discrete(self, capsys):
        code, out, _ = run(capsys, "generate", "discrete", "3")
        doc = json.loads(out)
        assert code == 0
        assert len(doc["objects"]) == 3

    def test_discrete_rejects_a_superscript_digit(self, capsys):
        # "²".isdigit() holds but int("²") raises: the count must be decimal
        code, out, err = run(capsys, "generate", "discrete", "²")
        assert (code, out) == (2, "")
        assert "nonnegative object count" in err

    def test_discrete_accepts_any_decimal_digit(self, capsys):
        code, out, _ = run(capsys, "generate", "discrete", "٣")  # int("٣") == 3
        assert code == 0
        assert len(json.loads(out)["objects"]) == 3

    def test_discrete_at_the_object_cap(self, capsys):
        code, out, _ = run(capsys, "generate", "discrete", "10000")
        assert code == 0
        assert len(json.loads(out)["objects"]) == 10000

    @pytest.mark.parametrize("count", ["10001", "9" * 5000], ids=["10001", "5000-digits"])
    def test_discrete_above_the_object_cap_is_a_usage_error(self, capsys, count):
        # nothing is built or printed; 5000 digits are more than int() reads
        code, out, err = run(capsys, "generate", "discrete", count)
        assert (code, out) == (2, "")
        assert err == "error: generate discrete takes at most 10000 objects\n"

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

    @pytest.mark.parametrize("kind", ["poset", "monoid"])
    def test_bool_table_entry_rejected(self, capsys, tmp_path, kind):
        # JSON true is a Python bool, an int subclass: rejected as in --matrix
        table = tmp_path / "table.json"
        table.write_text("[[true]]")
        code, _, err = run(capsys, "generate", kind, str(table))
        assert code == 2
        assert "entry (0, 0) is not an integer" in err

    def test_non_poset_relation_exit_3(self, capsys, tmp_path):
        rel = tmp_path / "rel.json"
        rel.write_text("[[1, 1], [1, 1]]")
        code, _, err = run(capsys, "generate", "poset", str(rel))
        assert code == 3
        assert "antisymmetric" in err


class TestJsonValues:
    """--json prints an int as a JSON number, so every exact scalar in a
    report has to stay a Fraction to print as a string."""

    def test_exact_verify_values_are_strings(self, capsys, tmp_path, corpus_matrices):
        exact = 0
        for label, a in corpus_matrices:
            path = tmp_path / f"{label}.json"
            path.write_text(json.dumps(a.rows))
            code, out, _ = run(capsys, "verify", "--json", "--matrix", str(path))
            doc = json.loads(out)
            if doc["path"] != "exact":
                continue
            exact += 1
            values = [doc["chi"]] + [v for c in ("c1", "c2", "c3", "c4") for v in doc[c].values()]
            for v in values:
                assert (v is None or isinstance(v, (str, bool))
                        or isinstance(v, list) and all(isinstance(x, str) for x in v)), (label, v)
        assert exact == len(corpus_matrices) - 2  # all but pell and rot90

    @pytest.mark.parametrize("value", [object(), 1j, {1, 2}])
    def test_unknown_type_raises(self, value):
        with pytest.raises(TypeError, match="cannot serialize"):
            _json(value, 17)


class TestPinnedOutput:
    """stdout byte for byte against files under tests/golden, written by
    `python -m catzeta.cli <argv> --matrix fixtures/matrices/<name>.json`.
    pell pins the numeric path's 40-digit residuals, rot90 its complex
    conjugate roots, jordan2 the exact path.  The sweep pins every
    subcommand, text and --json, on each fixture, edge matrix and error
    path.  Rewrite a file only in a change meant to alter those bytes."""

    @pytest.mark.parametrize("name", ["pell", "jordan2", "rot90"])
    @pytest.mark.parametrize("argv,stem", [
        (("verify", "--json", "--order", "30"), "verify.30"),
        (("verify", "--json", "--order", "200"), "verify.200"),
        (("zeta", "--closed", "--json"), "zeta-closed"),
    ])
    def test_stdout_matches_pinned_bytes(self, capsys, name, argv, stem):
        code, out, _ = run(capsys, *argv, "--matrix", matrix_fixture(name))
        assert code == 0
        assert out == (GOLDEN_DIR / f"{name}.{stem}.json").read_text(encoding="utf-8")

    def test_every_command_matches_the_sweep(self, tmp_path, monkeypatch):
        # tests/golden/cli_sweep.json, written by `python tests/cli_sweep.py`:
        # stdout and stderr hashes and the exit code of each command line
        manifest = json.loads(cli_sweep.MANIFEST.read_text(encoding="utf-8"))
        cli_sweep.prepare(tmp_path, manifest["inputs"])
        monkeypatch.chdir(tmp_path)
        changed = [line for line, want in manifest["runs"].items()
                   if cli_sweep.replay(line.split(" ")) != want]
        assert changed == []


class TestMpmathImport:
    """An exact run never loads mpmath and a numeric one does, and a run
    that only builds or checks categories loads no algebra.  Each case
    runs in a fresh interpreter, because this one has loaded it all
    already."""

    CATEGORY_RUN = """
import sys
def loaded(step, *modules):
    assert "mpmath" not in sys.modules, step
    got = sorted(m for m in sys.modules if m.split(".")[0] == "catzeta")
    assert got == ["catzeta", *modules], (step, got)
import catzeta
loaded("import")
a = catzeta.adjacency(catzeta.poset_category([[1, 1, 1], [0, 1, 1], [0, 0, 1]]))
assert isinstance(a, catzeta.IntMatrix) and a.n == 3
loaded("poset", "catzeta.category")
from catzeta.cli import cli_main
for argv in (["validate", {p2!r}], ["chains", "--json", {p2!r}], ["generate", "discrete", "2"]):
    assert cli_main(argv) == 0, argv
    loaded(argv[0], "catzeta.category", "catzeta.cli")
assert "verify_matrix" not in vars(catzeta)
for name in ("category", "charpoly", "poly", "roots", "zeta"):
    assert getattr(catzeta, name) is sys.modules["catzeta." + name], name
assert catzeta.verify_matrix is catzeta.zeta.verify_matrix is vars(catzeta)["verify_matrix"]
"""

    EXACT_RUN = """
import json, runpy, sys
def clean(step):
    assert "mpmath" not in sys.modules, step
import catzeta, catzeta.cli
clean("import")
for path, matrix in {fixtures!r}:
    with open(path) as fh:
        doc = json.load(fh)
    a = catzeta.IntMatrix(doc) if matrix else catzeta.adjacency(catzeta.category_from_dict(doc))
    report = catzeta.verify_matrix(a)
    assert report.path == "exact" and report.passed, path
    clean(path)
argv = ["verify", "--json", {k2!r}, "--order", "200"]
assert catzeta.cli.cli_main(argv) == 0
clean("cli_main")
sys.argv = ["catzeta", *argv]
try:
    runpy.run_module("catzeta.cli", run_name="__main__")
except SystemExit as e:
    assert e.code == 0
clean("python -m catzeta.cli")
"""

    NUMERIC_RUN = """
import sys
from catzeta.cli import cli_main
code = cli_main(["verify", "--json", "--order", "200", "--matrix", {pell!r}])
assert code == 0 and "mpmath" in sys.modules
"""

    def run_fresh(self, code):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_exact_runs_leave_mpmath_unloaded(self):
        fixtures = [(fixture(name), False) for name in ("terminal", "p2", "s", "z2", "k2")]
        fixtures += [(matrix_fixture(name), True)
                     for name in ("shift2", "block4", "nilpotent2", "jordan2")]
        out = self.run_fresh(self.EXACT_RUN.format(fixtures=fixtures, k2=fixture("k2")))
        first, second = out[:len(out) // 2], out[len(out) // 2:]
        assert first == second and json.loads(first)["path"] == "exact"

    def test_category_runs_load_no_algebra(self):
        """import catzeta loads no submodule; a poset category loads
        catzeta.category; validate, chains and generate add catzeta.cli
        alone.  The submodules and their names still resolve on the
        package, each name bound there on first use."""
        self.run_fresh(self.CATEGORY_RUN.format(p2=fixture("p2")))

    def test_numeric_run_loads_mpmath_and_keeps_its_bytes(self):
        out = self.run_fresh(self.NUMERIC_RUN.format(pell=matrix_fixture("pell")))
        assert out == (GOLDEN_DIR / "pell.verify.200.json").read_text(encoding="utf-8")


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
