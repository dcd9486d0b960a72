"""A mutation census of the compute code, judged by verify alone: a script
and not a test.

Each mutant changes one site in one named function of zeta.py,
charpoly.py, category.py or roots.py (TARGETS): a comparison operator
(< and <=, > and >=, == and !=, is and is not, in and not in swap), a
boolean operator (and and or swap), a binary arithmetic operator (+ and -
swap, * becomes +, // and / become *, % becomes //, ** becomes *), or an
int constant 0, 1 or 2, which becomes one more.  Only the function's
body is mutated, never its defaults.  The mutated module is compiled in
memory and the function's code object swapped into the live function,
so every module that imported it runs the mutant; no file is written.

verify_matrix judges each mutant, in a forked child, on the 230-matrix
corpus of tests/conftest.py plus six seeded random 0..3 matrices
(N = 3..8), at K = 30 and K = 60.  A run's fingerprint is d, k, m, the
Euler branch and chi, the path, the closed form and the series to z^12.
Each mutant lands in one column:

- caught: some run FAILs or raises (the command line would exit non-zero);
- equivalent: every run PASSes with the unmutated fingerprint;
- silent: every run PASSes, and some fingerprint differs;
- crash: the child gave no verdict: it ran out of time (TIME_LIMIT) or
  memory (MEMORY_LIMIT), or the mutant did not compile.

It prints, per file, the number of sites and the counts of each column,
then each silent site with its function, line and change.  Given a path,
it also writes every mutant's verdict there as JSON, keyed by file,
function, source line, column and change, so that two trees' censuses
can be compared site by site.

    PYTHONPATH=src python tests/mutants.py [verdicts.json]
"""

from __future__ import annotations

import ast
import inspect
import json
import os
import resource
import select
import signal
import sys
import time
from collections import Counter
from dataclasses import dataclass
from types import ModuleType

import catzeta.category
import catzeta.charpoly
import catzeta.roots
import catzeta.zeta
from catzeta import IntMatrix, analyze_matrix, verify_matrix, zeta_series
from conftest import corpus, random_matrices

TARGETS = {
    catzeta.zeta: ("series_from_pair", "_reduced", "_divide_linear", "_divide_out",
                   "_hermite_terms", "closed_form", "closed_form_counts"),
    catzeta.charpoly: ("bundle_from_sweep", "_newton", "_path_bound", "power_traces",
                       "continue_counts", "block_traces", "series_euler_char"),
    catzeta.category: ("chain_vectors",),
    catzeta.roots: ("_simple_rational_roots", "factor_charpoly"),
}
ORDERS = (30, 60)
SERIES_ORDER = 12
TIME_LIMIT = 60.0  # seconds per mutant, every run included
MEMORY_LIMIT = 2 << 30  # bytes of address space per child
COLUMNS = ("caught", "equivalent", "silent", "crash")

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.And: ast.Or, ast.Or: ast.And,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add, ast.FloorDiv: ast.Mult,
    ast.Div: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
}


def fingerprint(a: IntMatrix) -> str:
    """d, k, m, the Euler branch and chi, the path, the closed form and
    the series to z^SERIES_ORDER, as one string."""
    an = analyze_matrix(a)
    b, cf = an.bundle, an.closed
    return repr((b.d.coeffs, b.k.coeffs, b.m.coeffs, an.euler.branch, an.euler.chi, an.path,
                 cf.q_integral.coeffs, cf.reduced,
                 [(f.theta, f.multiplicity, f.kind, f.beta0, f.betas) for f in cf.factors],
                 zeta_series(a, SERIES_ORDER).coeffs))


def judge(matrices: list[tuple[str, IntMatrix]], want: list[str]) -> str:
    """caught, equivalent or silent for the code as it now runs."""
    changed = False
    for (_, a), expected in zip(matrices, want):
        try:
            changed |= fingerprint(a) != expected
            if not all(verify_matrix(a, order=k).passed for k in ORDERS):
                return "caught"
        except MemoryError:
            raise
        except Exception:
            return "caught"
    return "silent" if changed else "equivalent"


@dataclass
class Site:
    """One mutation: the node in the module's tree, the field it changes
    (ops[index] of a comparison, op, or an int constant's value) and how."""

    module: ModuleType
    func: str
    node: ast.AST
    field: str
    index: int | None
    change: str

    def key(self, lines: list[str]) -> str:
        """The site by file, function, source line, columns and change, so
        that it names the same site in another tree."""
        node = self.node
        return "|".join(map(str, (os.path.basename(self.module.__file__), self.func,
                                  lines[node.lineno - 1].strip(), node.col_offset,
                                  node.end_col_offset, self.index, self.change)))


def sites(module, names) -> tuple[ast.Module, list[Site]]:
    """The module's tree and every mutable site in the bodies of names."""
    tree = ast.parse(inspect.getsource(module))
    out = []
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef) or fn.name not in names:
            continue
        for stmt in fn.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Compare):
                    for i, op in enumerate(node.ops):
                        if type(op) in SWAPS:
                            out.append(Site(module, fn.name, node, "ops", i,
                                            f"{type(op).__name__} -> {SWAPS[type(op)].__name__}"))
                elif isinstance(node, (ast.BoolOp, ast.BinOp, ast.AugAssign)):
                    if type(node.op) in SWAPS:
                        out.append(Site(module, fn.name, node, "op", None,
                                        f"{type(node.op).__name__} -> "
                                        f"{SWAPS[type(node.op)].__name__}"))
                elif (isinstance(node, ast.Constant) and type(node.value) is int
                      and node.value in (0, 1, 2)):
                    out.append(Site(module, fn.name, node, "value", None,
                                    f"{node.value} -> {node.value + 1}"))
    return tree, out


def mutated_code(tree: ast.Module, site: Site):
    """The code object of site.func with the one change made, in place:
    the forked child that calls this owns its copy of the tree."""
    node = site.node
    if site.field == "ops":
        node.ops[site.index] = SWAPS[type(node.ops[site.index])]()
    elif site.field == "op":
        node.op = SWAPS[type(node.op)]()
    else:
        node.value += 1
    code = compile(tree, site.module.__file__, "exec")
    return next(c for c in code.co_consts
                if hasattr(c, "co_name") and c.co_name == site.func)


def run_mutant(tree, site: Site, matrices, want) -> str:
    """The mutant's column, judged in a forked child under the limits."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: swap the code in, judge, report one word
        os.close(read)
        verdict = "crash"
        try:
            resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
            getattr(site.module, site.func).__code__ = mutated_code(tree, site)
            verdict = judge(matrices, want)
        except BaseException:
            pass
        os.write(write, verdict.encode())
        os._exit(0)
    os.close(write)
    ready, _, _ = select.select([read], [], [], TIME_LIMIT)
    verdict = os.read(read, 64).decode() if ready else ""
    if not ready:
        os.kill(pid, signal.SIGKILL)
    os.close(read)
    os.waitpid(pid, 0)
    return verdict or "crash"


def main() -> None:
    matrices = corpus() + random_matrices()
    start = time.perf_counter()
    want = [fingerprint(a) for _, a in matrices]
    bad = [label for label, a in matrices if not all(verify_matrix(a, order=k).passed
                                                     for k in ORDERS)]
    if bad:
        sys.exit(f"the unmutated code FAILs on {bad}")
    print(f"{len(matrices)} matrices, {len(matrices) * len(ORDERS)} runs, unmutated pass "
          f"{time.perf_counter() - start:.1f} s")
    table, silent, verdicts = {}, [], {}
    for module, names in TARGETS.items():
        tree, found = sites(module, names)
        lines = inspect.getsource(module).splitlines()
        counts = table.setdefault(os.path.basename(module.__file__), Counter())
        for site in found:
            verdict = run_mutant(tree, site, matrices, want)
            counts[verdict] += 1
            key = site.key(lines)
            while key in verdicts:  # the same text on two lines of one function
                key += "'"
            verdicts[key] = verdict
            if verdict == "silent":
                silent.append(f"{os.path.basename(module.__file__)}:{site.node.lineno} "
                              f"{site.func}: {site.change} in "
                              f"`{lines[site.node.lineno - 1].strip()}`")
    print(f"| file | sites | {' | '.join(COLUMNS)} |")
    print("|---|---" + "|---" * len(COLUMNS) + "|")
    for name, counts in [*table.items(), ("total", sum(table.values(), Counter()))]:
        print(f"| {name} | {sum(counts.values())} | "
              + " | ".join(str(counts[c]) for c in COLUMNS) + " |")
    print("silent:" if silent else "no silent site")
    for line in silent:
        print(f"  {line}")
    print(f"{time.perf_counter() - start:.0f} s")
    if len(sys.argv) > 1:
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump(verdicts, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
