"""Pin every CLI command's output: the sweep behind tests/golden/cli_sweep.json.

The sweep runs each subcommand, in text and in --json, over the eleven
bundled fixtures (zeta with and without --closed, verify at K = 30 and
K = 200), a few generators, small edge matrices (empty, 1 x 1, rank one,
3 x 3 with irrational or repeated eigenvalues, --precision 300) and the
error paths.  Each run
goes in-process through cli_main, in a scratch directory that holds a copy
of fixtures/ and the edge inputs listed in the manifest, so every path is
relative to the repository root and no absolute path reaches stderr.  For
each command line the manifest records the sha256 of stdout, the sha256 of
stderr and the exit code.

    PYTHONPATH=src python tests/cli_sweep.py

rewrites the manifest from the current CLI; do that only in a change meant
to alter those bytes.  tests/test_cli.py::TestPinnedOutput replays it.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from catzeta.cli import cli_main

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "golden" / "cli_sweep.json"

CATEGORIES = ("terminal", "p2", "s", "z2", "k2")
MATRICES = ("shift2", "rot90", "pell", "block4", "nilpotent2", "jordan2")

INPUTS = {
    "edge/empty.json": "[]",
    "edge/zero1.json": "[[0]]",
    "edge/ones2.json": "[[1, 1], [1, 1]]",
    "edge/plastic3.json": "[[0, 1, 0], [0, 0, 1], [1, 1, 0]]",
    "edge/mixed3.json": "[[2, 1, 1], [1, 0, 1], [1, 1, 3]]",
    "edge/cyclic3.json": "[[0, 1, 1], [1, 0, 1], [1, 1, 0]]",
    "edge/rel3.json": "[[1, 1, 1], [0, 1, 1], [0, 0, 1]]",
    "edge/z3.json": "[[0, 1, 2], [1, 2, 0], [2, 0, 1]]",
    "edge/ragged.json": "[[1, 1], [0]]",
    "edge/bools.json": "[[true, false], [false, true]]",
    "edge/broken.json": "{oops",
    "edge/noid.json": json.dumps({"objects": ["x"], "morphisms": [
        {"id": "e", "src": "x", "tgt": "x"}], "compose": []}),
    "edge/nonassoc.json": "[[1, 1], [1, 1]]",
    "edge/nototal.json": json.dumps({"name": "z2", "objects": ["*"], "morphisms": [
        {"id": "e", "src": "*", "tgt": "*"}, {"id": "s", "src": "*", "tgt": "*"}],
        "identity": {"*": "e"}, "compose": []}),
    "edge/misid.json": json.dumps({"name": "arrow", "objects": ["x", "y"], "morphisms": [
        {"id": "id_x", "src": "x", "tgt": "x"}, {"id": "id_y", "src": "y", "tgt": "y"},
        {"id": "f", "src": "x", "tgt": "y"}], "identity": {"x": "f", "y": "id_y"},
        "compose": []}),
}

TEXT_AND_JSON = (
    ("validate",),
    ("chains",),
    ("charpoly",),
    ("euler",),
    ("zeta",),
    ("zeta", "--closed"),
)


def _per_input(path: str, flags: tuple, verify_orders: tuple) -> list[list[str]]:
    runs = []
    for fmt in ((), ("--json",)):
        for cmd in TEXT_AND_JSON:
            runs.append([cmd[0], path, *cmd[1:], *flags, *fmt])
        for k in verify_orders:
            runs.append(["verify", path, "--order", str(k), *flags, *fmt])
    return runs


def sweep() -> list[list[str]]:
    """Every command line of the sweep, in a fixed order."""
    runs = []
    for name in CATEGORIES:
        runs += _per_input(f"fixtures/{name}.json", (), ("30", "200"))
    for name in MATRICES:
        runs += _per_input(f"fixtures/matrices/{name}.json", ("--matrix",), ("30", "200"))
    for name in ("empty", "zero1", "ones2", "plastic3", "mixed3", "cyclic3"):
        runs += _per_input(f"edge/{name}.json", ("--matrix",), ("30",))
    for name in ("pell", "rot90"):
        path = f"fixtures/matrices/{name}.json"
        for fmt in ((), ("--json",)):
            runs.append(["zeta", path, "--closed", "--matrix", "--precision", "300", *fmt])
            runs.append(["verify", path, "--matrix", "--precision", "300", *fmt])
    runs += [
        ["generate", "discrete", "0"],
        ["generate", "discrete", "3"],
        ["generate", "poset", "edge/rel3.json"],
        ["generate", "monoid", "edge/z3.json"],
        ["generate", "union", "fixtures/p2.json", "fixtures/z2.json"],
        ["generate", "union", "fixtures/terminal.json", "fixtures/s.json"],
        ["generate", "product", "fixtures/p2.json", "fixtures/p2.json"],
        ["generate", "product", "fixtures/z2.json", "fixtures/k2.json"],
        # error paths
        ["generate", "discrete", "x"],
        ["generate", "monoid", "edge/nonassoc.json"],
        ["generate", "poset", "edge/nonassoc.json"],
        ["generate", "poset", "edge/ragged.json"],
        ["generate", "union", "fixtures/p2.json"],
        ["chains", "edge/ragged.json", "--matrix"],
        ["chains", "edge/bools.json", "--matrix"],
        ["chains", "edge/broken.json"],
        ["euler", "edge/absent.json"],
        ["euler", "edge/noid.json"],
        ["validate", "edge/noid.json", "--json"],
        ["validate", "edge/empty.json"],
        ["validate", "edge/nototal.json"],
        ["validate", "edge/nototal.json", "--json"],
        ["validate", "edge/misid.json"],
        ["validate", "edge/misid.json", "--json"],
        ["verify", "edge/misid.json"],
        ["zeta", "edge/nototal.json"],
        ["zeta", "fixtures/z2.json", "--order", "-1"],
        ["chains", "fixtures/z2.json", "--max", "0"],
        ["verify", "fixtures/k2.json", "--precision", "0"],
        ["verify", "fixtures/k2.json", "--tol", "nan"],
        ["verify", "fixtures/matrices/pell.json", "--matrix", "--tol", "1e-80", "--json"],
        ["frobnicate"],
    ]
    return runs


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def replay(argv: list[str]) -> dict:
    """One in-process run: sha256 of stdout and stderr, and the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as e:  # argparse rejects the command line
            code = e.code
    return {"stdout": _sha(out.getvalue()), "stderr": _sha(err.getvalue()), "code": code}


def prepare(workdir: Path, inputs: dict[str, str]) -> None:
    """Lay out fixtures/ and the edge inputs under workdir."""
    shutil.copytree(ROOT / "fixtures", workdir / "fixtures")
    for rel, text in inputs.items():
        (workdir / rel).parent.mkdir(parents=True, exist_ok=True)
        (workdir / rel).write_text(text, encoding="utf-8")


def main() -> None:
    runs = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        prepare(Path(tmp), INPUTS)
        os.chdir(tmp)
        try:
            for argv in sweep():
                runs[" ".join(argv)] = replay(argv)
        finally:
            os.chdir(cwd)
    doc = {"inputs": INPUTS, "runs": runs}
    MANIFEST.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"{len(runs)} runs -> {MANIFEST.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
