"""
A tour of five small categories
===============================

The terminal category, the arrow category, the parallel pair, the
delooping of Z/2, and the codiscrete pair on two objects.  For each one
we print the adjacency matrix, the three pencil polynomials, the series
Euler characteristic, and the zeta function both ways.
"""

from catzeta import (
    adjacency,
    analyze_matrix,
    category_from_dict,
    closed_form_taylor,
    zeta_series,
)

import json
from fractions import Fraction
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

for name in ("terminal", "p2", "s", "z2", "k2"):
    with open(FIXTURES / f"{name}.json") as fh:
        cat = category_from_dict(json.load(fh))
    a = adjacency(cat)
    analysis = analyze_matrix(a)

    print(f"== {name} ==")
    print("objects:", ", ".join(cat.objects))
    print("adjacency:", [list(r) for r in a.rows])
    b = analysis.bundle
    d, k, m = ([Fraction(c) for c in p.coeffs] for p in (b.d, b.k, b.m))
    print(f"d = {d}  k = {k}  m = {m}")
    print(f"chi = {analysis.euler.chi}  (r = {b.r}, s = {b.s})")

    # the exponential of the chain-count generating function...
    series = zeta_series(a, 6)
    print("series:   ", ", ".join(str(c) for c in series.coeffs))

    # ...must match the Taylor expansion of the closed form
    taylor = closed_form_taylor(analysis.closed, 6)
    print("closed:   ", ", ".join(str(c) for c in taylor))
    for f in analysis.closed.factors:
        print(f"  factor (1 - {f.alpha} z)^(-{f.beta0})", end="")
        if f.betas:
            inner = ", ".join(str(bj) for bj in f.betas)
            print(f"  with exp-part coefficients [{inner}]", end="")
        print()
    assert taylor == list(series.coeffs)
    print()
