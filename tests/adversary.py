"""A false-FAIL census: seeded families of hard inputs through verify, each
verdict judged independently.  A script and not a test.

Every matrix goes through verify_matrix at K = 30 and 128 bits, with
verify's own tolerance, and lands in one column:

- PASS: every identity held.  The judge re-checks the certificate the
  PASS rests on, mu(A) 1 = 0, by plain int matrix-vector products, for
  mu(t) = t^(N - deg d) nu(t), nu the pencil pair's denominator reversed
  (t^(N - deg d) is the most of t that any annihilator the pencil tries
  may carry).  A PASS whose certificate fails is counted "bad PASS".
- false FAIL: some identity FAILed, and the judge shows that all four
  hold.  Exact path: the oracles of tests/oracles.py agree (C1 by
  c1_k_term_oracle over n = 1..K, C2 and C4 by c2_sum_oracle and
  c4_sum_oracle against N and euler_char_oracle's chi, C3 by a Bareiss
  determinant det(b A - a E) = 0 for each alpha = a / b).  Numeric path:
  at four times the precision, the log route holds within the tolerance,
  closed_form_counts against the counts continued by the pencil's pair
  (ZetaAnalysis.counts), relative to max(1, #N_n), and verify's C2 to C4
  pass there.
- true FAIL: some identity FAILed and the judge does not clear it (or
  cannot run).
- exit 1: the documented exit the command line gives for the exception
  raised (RootFindingError and ArithmeticError), counted by message with
  its digits masked.  Every input is a valid int matrix, so exits 2
  (malformed input) and 3 (axiom violation) cannot occur.
- crash: any other exception, which the command line would not catch.

A run over 5 s is also counted slow.  Each FAIL is then run again at
256 bits, into a second table.  Seeds are fixed, so a rerun on the same
tree draws the same matrices.

    PYTHONPATH=src python tests/adversary.py
"""

from __future__ import annotations

import random
import re
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

from catzeta import (IntMatrix, RootFindingError, analyze_matrix, closed_form_counts,
                     mul_coeffs, verify_matrix)
from catzeta.zeta import DEFAULT_ORDER, DEFAULT_VERIFY_TOL
from oracles import (bareiss_det, c1_k_term_oracle, c2_sum_oracle, c4_sum_oracle,
                     euler_char_oracle)

BITS = 128
SLOW = 5.0
COLUMNS = ("PASS", "bad PASS", "false FAIL", "true FAIL", "exit 1", "crash", "slow")


def companion(coeffs: list[int]) -> IntMatrix:
    """The companion of the monic x^n + sum_i c_i x^i, coeffs = c_0 .. c_(n-1):
    its characteristic polynomial is that polynomial."""
    n = len(coeffs)
    rows = [[int(j == i + 1) for j in range(n)] for i in range(n - 1)]
    return IntMatrix(rows + [[-c for c in coeffs]])


def repeated(block: list[list[int]], copies: int, extra: dict) -> IntMatrix:
    """copies of block down the diagonal, plus the entries extra[(i, j)]."""
    k = len(block)
    n = k * copies
    rows = [[0] * n for _ in range(n)]
    for c in range(copies):
        for i in range(k):
            rows[c * k + i][c * k:(c + 1) * k] = block[i]
    for (i, j), x in extra.items():
        rows[i][j] = x
    return IntMatrix(rows)


def repeated_blocks(seed: int, count: int) -> list[IntMatrix]:
    """A random k x k block B (k = 2..4, entries -3..3), 2 or 3 copies of it
    down the diagonal and, with probability 0.7, one entry of -1, 1 or 2
    coupling copy r - 1 to copy r: irrational roots of multiplicity 2-3."""
    rng, out = random.Random(seed), []
    for _ in range(count):
        k, copies = rng.randint(2, 4), rng.randint(2, 3)
        block = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        extra = {}
        if rng.random() < 0.7:
            r = rng.randint(1, copies - 1)
            i, j = rng.randrange(k), rng.randrange(k)
            extra[(r - 1) * k + i, r * k + j] = rng.choice((-1, 1, 2))
        out.append(repeated(block, copies, extra))
    return out


def plain_random(seed: int) -> list[IntMatrix]:
    """The control: 100 each of entries -2..2 with N <= 6, -9..9 with
    N <= 10 and 0/1 with N <= 14."""
    rng, out = random.Random(seed), []
    for lo, hi, top in ((-2, 2, 6), (-9, 9, 10), (0, 1, 14)):
        for _ in range(100):
            n = rng.randint(1, top)
            out.append(IntMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]))
    return out


def families() -> list[tuple[str, list[IntMatrix]]]:
    """The families in the order they run; 1750 repeated-block matrices over
    seeds 1-6."""
    blocks = [m for seed in range(1, 7)
              for m in repeated_blocks(seed, 1750 // 6 + (seed <= 1750 % 6))]
    mignotte = [companion([-2, 4 * a, -2 * a * a] + [0] * (n - 3))  # x^n - 2(ax - 1)^2
                for n in (5, 6, 8, 10, 12) for a in (10, 20, 50, 100)]
    roots_of_two = [companion([-2] + [0] * (n - 1)) for n in range(1, 33)]
    large = [IntMatrix([[10 ** k, 1], [1, 0]]) for k in range(1, 41)]
    large += [IntMatrix([[0, 1, 0], [0, 0, 1], [1, -10 ** k, 0]]) for k in range(1, 41)]
    wilkinson = []
    for n in range(1, 21):
        p = [1]
        for i in range(1, n + 1):
            p = mul_coeffs(p, [-i, 1])
        wilkinson.append(companion(p[:-1]))
    # ROADMAP item 16's two witnesses of the repeated-block class, A1 (N = 9) and A3 (N = 8)
    b1 = [[0, 0, -3], [-3, -1, 0], [-1, 0, 3]]
    b3 = [[-2, 1, -2, 1], [1, 2, -1, 0], [-1, -3, 3, -3], [3, -1, 3, 1]]
    witnesses = [repeated(b1, 3, {(1, 5): -1, (5, 7): -1}), repeated(b3, 2, {(1, 6): 2})]
    return [("witnesses A1, A3", witnesses),
            ("repeated blocks", blocks), ("Mignotte x^n-2(ax-1)^2", mignotte),
            ("x^n - 2", roots_of_two), ("large entries", large),
            ("Wilkinson prod(x-i)", wilkinson), ("plain random", plain_random(7))]


def certificate_holds(a: IntMatrix, analysis) -> bool:
    """mu(A) 1 = 0 for mu = t^(N - deg d) nu, nu the reversal of the pair's
    denominator, by plain matrix-vector products on A's dense rows."""
    rev = analysis.bundle.pair[1].coeffs
    nu = rev[::-1]  # nu_i at t^i, monic, as rev_0 = 1
    rows, v = a.rows, [1] * a.n
    for _ in range(a.n - analysis.bundle.d.degree):
        v = [sum(x * y for x, y in zip(row, v)) for row in rows]
    total = [0] * a.n
    for c in nu:
        total = [t + c * x for t, x in zip(total, v)]
        v = [sum(x * y for x, y in zip(row, v)) for row in rows]
    return not any(total)


def exact_identities_hold(a: IntMatrix, order: int) -> bool:
    """C1 to C4 by the oracles of tests/oracles.py, on an exact root set."""
    analysis = analyze_matrix(a, BITS)
    cf, n = analysis.closed, a.n
    euler = euler_char_oracle(a)
    if c1_k_term_oracle(cf, a, order) != 0:
        return False
    for f in cf.factors:  # alpha = p / q an eigenvalue: det(q A - p E) = 0
        p, q = Fraction(f.alpha).as_integer_ratio()
        if bareiss_det([[q * x - p * (i == j) for j, x in enumerate(row)]
                        for i, row in enumerate(a.rows)]):
            return False
    return not euler.exists or (c2_sum_oracle(cf) == n and c4_sum_oracle(cf) == euler.chi)


def numeric_identities_hold(a: IntMatrix, order: int, bits: int) -> bool:
    """C1 by the log route at four times the precision, and C2 to C4 by
    verify there."""
    analysis = analyze_matrix(a, 4 * bits)
    arith = analysis.rootset.arithmetic
    with arith.context():
        pairs = zip(closed_form_counts(analysis.closed, order), analysis.counts(order)[1:])
        if not all(arith.within(abs(got - want), DEFAULT_VERIFY_TOL, max(1, abs(want)))
                   for got, want in pairs):
            return False
    report = verify_matrix(a, order=order, precision_bits=4 * bits)
    return all(c["pass"] is not False for c in (report.c2, report.c3, report.c4))


def judge(a: IntMatrix, bits: int, exits: Counter) -> tuple[str, float]:
    """The column a's verify run at bits lands in, and its time."""
    start = perf_counter()
    try:
        report = verify_matrix(a, order=DEFAULT_ORDER, precision_bits=bits)
    except (RootFindingError, ArithmeticError) as e:
        exits[re.sub(r"\d+", "#", str(e))[:90]] += 1
        return "exit 1", perf_counter() - start
    except Exception as e:  # the command line would print a traceback
        exits[f"{type(e).__name__}: {e}"[:90]] += 1
        return "crash", perf_counter() - start
    seconds = perf_counter() - start
    if report.passed:
        return ("PASS" if certificate_holds(a, analyze_matrix(a, bits)) else "bad PASS"), seconds
    try:
        if report.path == "exact":
            held = exact_identities_hold(a, DEFAULT_ORDER)
        else:
            held = numeric_identities_hold(a, DEFAULT_ORDER, bits)
    except (RootFindingError, ArithmeticError):
        held = False
    return ("false FAIL" if held else "true FAIL"), seconds


def census(rows: list[tuple[str, list[IntMatrix]]], bits: int) -> list[tuple[str, IntMatrix]]:
    """Print one table row per family at bits; return the FAILed inputs."""
    print(f"\n{bits} bits, K = {DEFAULT_ORDER}, tol = {DEFAULT_VERIFY_TOL}")
    print(f"{'family':<24} {'inputs':>6} " + " ".join(f"{c:>10}" for c in COLUMNS)
          + f" {'time (s)':>9}")
    failed, messages = [], []
    for name, matrices in rows:
        counts, exits, start = Counter(), Counter(), perf_counter()
        for a in matrices:
            column, seconds = judge(a, bits, exits)
            counts[column] += 1
            counts["slow"] += seconds > SLOW
            if column.endswith("FAIL"):
                failed.append((name, a))
        print(f"{name:<24} {len(matrices):>6} " + " ".join(f"{counts[c]:>10}" for c in COLUMNS)
              + f" {perf_counter() - start:>9.1f}", flush=True)
        messages += [(name, text, k) for text, k in sorted(exits.items())]
    for name, text, k in messages:
        print(f"  {name}: {k} x {text}")
    return failed


def main() -> None:
    start = perf_counter()
    failed = census(families(), BITS)
    if failed:
        grouped: dict[str, list[IntMatrix]] = {}
        for name, a in failed:
            grouped.setdefault(name, []).append(a)
        census(list(grouped.items()), 2 * BITS)
    print(f"\ntotal {perf_counter() - start:.0f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
