"""List the lines of src/catzeta that no benchmark input, CLI command line
or demo reaches: a script and not a test.

Under a sys.settrace line tracer it imports catzeta and runs
- the benchmark's corpus, exact-ladder and numeric-ladder at seed 1
  (built by bench/workloads.py) through verify_matrix at K = 30;
- every command line of tests/cli_sweep.py through cli_sweep.replay, in a
  temporary directory laid out by cli_sweep.prepare (the manifest is not
  rewritten);
- the five demos, their stdout discarded.
Then, for each module, it prints the executable lines (those the
compiler attaches bytecode to) that none of these reached, with their
source text.  Tier-1 tests reach more; a line listed here serves no input
of the three kinds.

    PYTHONPATH=src python tests/traffic.py
"""

from __future__ import annotations

import io
import os
import runpy
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "catzeta"


def executable_lines(path: Path) -> set[int]:
    """Every line some code object of the module attaches bytecode to."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_everything() -> None:
    """The three kinds of input; catzeta is imported here, under the trace."""
    sys.path.insert(0, str(ROOT / "bench"))  # bench/ is not a package
    import cli_sweep
    from catzeta import verify_matrix
    from workloads import ORDER, build

    for name in ("corpus", "exact-ladder", "numeric-ladder"):
        for item in build(name, 1):
            verify_matrix(item.matrix, order=ORDER)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        cli_sweep.prepare(Path(tmp), cli_sweep.INPUTS)
        os.chdir(tmp)
        try:
            for argv in cli_sweep.sweep():
                cli_sweep.replay(argv)
        finally:
            os.chdir(cwd)
    for demo in sorted((ROOT / "demos").glob("*.py")):
        with redirect_stdout(io.StringIO()):
            runpy.run_path(str(demo), run_name="__main__")


def main() -> None:
    prefix = str(PACKAGE) + os.sep
    reached: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        reached.setdefault(name, set())
        return local

    sys.settrace(start)
    try:
        run_everything()
    finally:
        sys.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(executable_lines(path) - reached.get(str(path), set()))
        text = path.read_text(encoding="utf-8").splitlines()
        print(f"{path.relative_to(ROOT)}: {len(missed)} lines not reached")
        for line in missed:
            print(f"  {line:4d}  {text[line - 1].strip()}")


if __name__ == "__main__":
    main()
