"""Acceptance gate: nine release criteria, one test per criterion.

Every tolerance is stated inline and pinned; loosening one here means
the release contract changed, not that a flake was fixed.  The sweep
corpus comes from conftest: the five bundled categories, the six
synthetic matrices, 200 seeded random posets on at most 6 objects, and
deloopings of every monoid with at most 3 elements plus five 4-element
monoids.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from catzeta import (
    RatPoly,
    adjacency,
    analyze_matrix,
    chain_counts,
    char_poly_bundle,
    closed_form_taylor,
    disjoint_union,
    mul_coeffs,
    series_euler_char,
    singularity_report,
    verify_matrix,
    zeta_series,
)
from conftest import FIXTURE_DIR
from oracles import (
    enumerate_chains,
    euler_char_oracle,
    log_derivative_check,
    mobius_euler_char,
    reversal_check,
)

SWEEP_ORDER = 30
SWEEP_TOL = 1e-9


@pytest.fixture(scope="session")
def sweep(corpus_matrices):
    """Verification reports for the whole corpus at K=30, tol 1e-9,
    with the wall-clock time the sweep took."""
    t0 = time.monotonic()
    reports = [(label, a, verify_matrix(a, order=SWEEP_ORDER, tolerance=SWEEP_TOL))
               for label, a in corpus_matrices]
    elapsed = time.monotonic() - t0
    return reports, elapsed


def test_criterion_1_golden_bundle(fixture_categories):
    """Exact golden values for the five bundled categories; zero tolerance;
    runtime under 1 s."""
    t0 = time.monotonic()
    golden = {
        # name: d, k, m, chi, leading zeta coefficients
        "terminal": ([1, -1], [1], [1], Fraction(1), [1, 1, 1, 1, 1, 1]),
        "p2": ([1, -2, 1], [2, -1], [3, -2], Fraction(1),
               [1, 3, Fraction(13, 2), Fraction(73, 6)]),
        "s": ([1, -2, 1], [2], [4, -2], Fraction(0),
              [1, 4, 11, Fraction(76, 3)]),
        "z2": ([1, -2], [1], [2], Fraction(1, 2), [1, 2, 4, 8, 16]),
        "k2": ([1, -2], [2], [4], Fraction(1), [1, 4, 12, 32, 80]),
    }
    # closed-form shape: (theta, multiplicity, beta0, betas)
    factors = {
        "terminal": (Fraction(1), 1, Fraction(1), ()),
        "p2": (Fraction(1), 2, Fraction(2), (Fraction(1),)),
        "s": (Fraction(1), 2, Fraction(2), (Fraction(2),)),
        "z2": (Fraction(1, 2), 1, Fraction(1), ()),
        "k2": (Fraction(1, 2), 1, Fraction(2), ()),
    }
    for name, (d, k, m, chi, series) in golden.items():
        a = adjacency(fixture_categories[name])
        analysis = analyze_matrix(a)
        assert analysis.bundle.d == RatPoly(d), name
        assert analysis.bundle.k == RatPoly(k), name
        assert analysis.bundle.m == RatPoly(m), name
        assert analysis.euler.exists and analysis.euler.chi == chi, name
        order = len(series) - 1
        assert list(zeta_series(a, order).coeffs) == series, name
        assert closed_form_taylor(analysis.closed, order) == series, name
        (f,) = analysis.closed.factors
        assert (f.theta, f.multiplicity, f.beta0, f.betas) == factors[name], name
        assert analysis.closed.q_integral == RatPoly.zero(), name
    assert time.monotonic() - t0 < 1.0


def test_criterion_2_series_agreement(sweep, corpus_categories):
    """Closed-form Taylor coefficients match the direct exponential series
    through K=30 on every corpus member: exactly on the all-rational path,
    else relative error <= 1e-9.  Whole sweep under 60 s."""
    reports, elapsed = sweep
    assert len(reports) >= 205 + 6
    for label, _, rep in reports:
        assert rep.c1["pass"], label
        if rep.path == "exact":
            assert rep.c1["max_rel_err"] == 0, label
        else:
            assert float(rep.c1["max_rel_err"]) <= SWEEP_TOL, label
    # categories (posets, monoids, fixtures) all have rational spectra here,
    # so the exact path must actually be the one exercised for them
    category_count = len(corpus_categories)
    for label, _, rep in reports[:category_count]:
        assert rep.path == "exact", label
    assert elapsed < 60.0


def test_criterion_3_exponent_sum(sweep):
    """Sum of the factor exponents beta_{k,0} equals the object count:
    exact equality on the rational path, residual <= 1e-9 numerically."""
    reports, _ = sweep
    applicable = 0
    for label, a, rep in reports:
        assert rep.c2["pass"] is not False, label
        if not rep.c2["applicable"]:
            continue
        applicable += 1
        if rep.path == "exact":
            assert rep.c2["sum"] == a.n, label
        else:
            assert float(abs(rep.c2["residual"])) <= SWEEP_TOL, label
    assert applicable >= 200


def test_criterion_4_reciprocal_roots_are_eigenvalues(sweep):
    """The monic characteristic polynomial vanishes at every alpha = 1/theta:
    residual <= 1e-9 * scale, and exactly zero for rational roots."""
    reports, _ = sweep
    seen_roots = 0
    for label, _, rep in reports:
        assert rep.c3["pass"], label
        for res, scale in zip(rep.c3["residuals"], rep.c3["scales"]):
            seen_roots += 1
            assert float(abs(res)) <= SWEEP_TOL * float(scale), label
        if rep.path == "exact":
            assert all(res == 0 for res in rep.c3["residuals"]), label
    assert seen_roots >= 200


def test_criterion_5_alternating_sum_is_chi(sweep):
    """Where the series Euler characteristic exists, the alternating sum of
    beta coefficients over alpha powers reproduces it: residual <= 1e-9,
    imaginary part <= 1e-9."""
    reports, _ = sweep
    applicable = 0
    for label, a, rep in reports:
        assert rep.c4["pass"] is not False, label
        if not rep.c4["applicable"]:
            continue
        applicable += 1
        assert rep.c4["target"] == series_euler_char(char_poly_bundle(a)).chi, label
        assert float(abs(rep.c4["residual"])) <= SWEEP_TOL, label
        assert float(abs(rep.c4["imag"])) <= SWEEP_TOL, label
    assert applicable >= 200


def test_criterion_6_identity_suite(corpus_matrices):
    """Exact pencil identities, zero tolerance: z m = k - N d; d_0 = 1;
    k_0 = N; d_1 = -tr A; reversal identities; degree drop and both
    top-coefficient branches when s >= r (both branches must occur)."""
    branch_hits = {"s_gt_r": 0, "s_eq_r": 0}
    for label, a in corpus_matrices:
        b = char_poly_bundle(a)
        n, r, s = a.n, b.r, b.s
        assert RatPoly([0, 1]) * b.m == b.k - n * b.d, label
        assert b.d.coeff(0) == 1, label
        assert b.k.coeff(0) == n, label
        assert b.d.coeff(1) == -sum(a.diagonal), label
        assert reversal_check(a), label
        if n == 0 or s < r:
            continue
        assert b.m.degree == b.d.degree - 1, label
        assert b.m.coeff(n - 1 - r) == -n * b.d.coeff(n - r), label
        if n - 2 - r >= 0:
            second = -n * b.d.coeff(n - 1 - r)
            if s == r:
                second += b.k.coeff(n - 1 - r)
                branch_hits["s_eq_r"] += 1
            else:
                branch_hits["s_gt_r"] += 1
            assert b.m.coeff(n - 2 - r) == second, label
    assert branch_hits["s_eq_r"] > 0 and branch_hits["s_gt_r"] > 0


def test_criterion_7_oracle_equivalences(corpus_categories, random_posets):
    """Independent oracles agree exactly: brute-force chain enumeration,
    the valuation-based Euler characteristic, the log-derivative identity
    through K=20, zeta multiplicativity over disjoint unions at K=10, and
    Moebius inversion on posets."""
    for label, c in corpus_categories:
        a = adjacency(c)
        for m in range(5):
            assert enumerate_chains(c, m) == chain_counts(a, m)[m], (label, m)
        direct = series_euler_char(char_poly_bundle(a))
        oracle = euler_char_oracle(a)
        assert oracle == direct, label
        assert log_derivative_check(a, 20), label
    pairs = list(zip(corpus_categories[:5], corpus_categories[5:10]))
    for (l1, c1), (l2, c2) in pairs:
        u = adjacency(disjoint_union(c1, c2))
        assert list(zeta_series(u, 10).coeffs) == mul_coeffs(
            zeta_series(adjacency(c2), 10).coeffs, zeta_series(adjacency(c1), 10).coeffs,
            11), (l1, l2)
    for c in random_posets:
        a = adjacency(c)
        assert series_euler_char(char_poly_bundle(a)).chi == mobius_euler_char(a), c.name


def test_criterion_8_singularity_classification(corpus_matrices):
    """Every distinct root of d lands in the singularity report with a
    non-trivial classification (pole, zero or essential); no violations."""
    total_points = 0
    for label, a in corpus_matrices:
        analysis = analyze_matrix(a)
        points = singularity_report(analysis.closed)
        assert all(pt.classification != "violation" for pt in points), label
        assert len(points) == len(analysis.rootset.roots), label
        for pt in points:
            total_points += 1
            assert pt.classification in ("pole", "zero", "essential"), label
    assert total_points >= 200


def test_criterion_9_cli_determinism():
    """Identical CLI invocations emit byte-identical --json output across
    process restarts and hash seeds."""
    invocations = [
        ["zeta", str(FIXTURE_DIR / "p2.json"), "--order", "8", "--closed", "--json"],
        ["verify", str(FIXTURE_DIR / "matrices" / "pell.json"), "--matrix", "--json"],
        ["charpoly", str(FIXTURE_DIR / "matrices" / "block4.json"), "--matrix",
         "--json"],
        ["euler", str(FIXTURE_DIR / "s.json"), "--json"],
    ]
    for argv in invocations:
        outputs = set()
        for seed in ("0", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run([sys.executable, "-m", "catzeta.cli", *argv],
                                  capture_output=True, env=env, check=True)
            outputs.add(proc.stdout)
        assert len(outputs) == 1, argv
        json.loads(outputs.pop())  # and it is well-formed JSON
