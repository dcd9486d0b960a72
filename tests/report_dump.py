"""Dump what verify and the analysis return, one line an input: a script
and not a test.

For each input it prints vars() of verify_matrix(a, order=30) and the
analysis (its chain counts, continued to #N_40 by the pair's denominator,
the pencil bundle with its pair, and the closed form), every mpc or mpf
value at 60 digits.  The inputs
are the acceptance corpus of tests/conftest.py, the benchmark's
exact-ladder at seeds 1-3 and numeric-ladder at seed 1 (built by
bench/workloads.py) and n_rung's random posets at N = 100 and 200.  The
last line is the sha256 of all the lines before it, so two trees that
print the same hash return the same reports, byte for byte.

    PYTHONPATH=src python tests/report_dump.py
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction
from pathlib import Path

import mpmath

from catzeta import RatPoly, verify_matrix
from catzeta.zeta import analyze_matrix
from conftest import corpus
from n_rung import P, random_poset

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import build  # noqa: E402  (bench/ is not a package)

ORDER = 30
ANALYSIS_ORDER = 40
DIGITS = 60


def render(x) -> str:
    """x as text, dataclasses field by field (repr=False ones too)."""
    if isinstance(x, mpmath.mpc):
        return f"({mpmath.nstr(x.real, DIGITS)}, {mpmath.nstr(x.imag, DIGITS)})"
    if isinstance(x, mpmath.mpf):
        return mpmath.nstr(x, DIGITS)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, RatPoly):
        return "RatPoly" + render(x.coeffs)
    if is_dataclass(x):
        return type(x).__name__ + render({f.name: getattr(x, f.name) for f in fields(x)})
    if isinstance(x, dict):
        return "{" + ", ".join(f"{k}: {render(v)}" for k, v in x.items()) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(map(render, x)) + "]"
    return repr(x)


def inputs():
    """(label, matrix) for every input, in a fixed order."""
    yield from corpus()
    for name, seeds in (("exact-ladder", (1, 2, 3)), ("numeric-ladder", (1,))):
        for seed in seeds:
            yield from ((f"{name}/{seed}/{item.label}", item.matrix)
                        for item in build(name, seed))
    yield from ((f"poset-n{n}", random_poset(n, P, n)) for n in (100, 200))


def main() -> None:
    digest = hashlib.sha256()
    for label, a in inputs():
        analysis = analyze_matrix(a)
        chains = analysis.counts(ANALYSIS_ORDER)
        line = (f"{label} verify={render(vars(verify_matrix(a, order=ORDER)))} "
                f"chains={render(chains)} bundle={render(analysis.bundle)} "
                f"closed={render(analysis.closed)}")
        digest.update(line.encode() + b"\n")
        print(line)
    print(f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
