"""Time exact verify as N grows: the N rung, a script and not a test.

For random posets (edge probability 0.1 above the diagonal of a linear
order, then transitive closure) at N = 100, 200 and 400, and for the
discrete category at N = 400 and 800, it prints the best of three
verify_matrix(order=30) times, the best of the same three times spent in
closed_form, the steps v <- A v that the chain sweeps took in one call,
and s = deg mu~, the pencil's path bound ("-" where a strongly connected
block is larger than 1 x 1).

A second table, the load rung, gives the best of three times of
category_from_dict, validate and adjacency on the discrete document
(category_to_dict(discrete(N))) at N = 1000, 4000 and 10000, and of
poset_category on the 40- and 60-point chains.  adjacency holds N^2 ints
twice at N = 10000: maxrss reads 1.55 GB on CPython 3.11.

    PYTHONPATH=src python tests/n_rung.py

Each poset is seeded by its N, so a rerun on the same tree measures the
same inputs.
"""

from __future__ import annotations

import random
from time import perf_counter

import catzeta.category
import catzeta.zeta
from catzeta import (IntMatrix, adjacency, category_from_dict, category_to_dict, discrete,
                     poset_category, validate, verify_matrix)
from catzeta.category import chain_vectors
from catzeta.charpoly import block_traces

ORDER = 30
REPEATS = 3
P = 0.1


def random_poset(n: int, p: float, seed: int) -> IntMatrix:
    """A random poset's relation matrix: each i < j related with
    probability p, drawn row by row, then closed transitively as bit sets
    from the last row up (every edge goes up the order)."""
    rng = random.Random(seed)
    edges = [[j for j in range(i + 1, n) if rng.random() < p] for i in range(n)]
    reach = [0] * n
    for i in reversed(range(n)):
        bits = 1 << i
        for j in edges[i]:
            bits |= reach[j]
        reach[i] = bits
    return IntMatrix([[(reach[i] >> j) & 1 for j in range(n)] for i in range(n)])


def sweep_steps(a: IntMatrix) -> int:
    """The steps v <- A v that one verify_matrix call takes, over every
    sweep it starts."""
    steps = []

    def counted(m):
        steps.append(-1)
        for v in chain_vectors(m):
            steps[-1] += 1
            yield v

    saved = [(module, module.chain_vectors) for module in (catzeta.category, catzeta.zeta)]
    for module, _ in saved:
        module.chain_vectors = counted
    try:
        verify_matrix(a, order=ORDER)
    finally:
        for module, real in saved:
            module.chain_vectors = real
    return sum(steps)


def best_times(a: IntMatrix) -> tuple[float, float]:
    """The best of three verify_matrix times, and the best of the three
    times its closed_form call took."""
    real, staged = catzeta.zeta.closed_form, []

    def timed(*args):
        start = perf_counter()
        try:
            return real(*args)
        finally:
            staged.append(perf_counter() - start)

    times = []
    catzeta.zeta.closed_form = timed
    try:
        for _ in range(REPEATS):
            start = perf_counter()
            report = verify_matrix(a, order=ORDER)
            times.append(perf_counter() - start)
            assert report.passed and report.path == "exact"
    finally:
        catzeta.zeta.closed_form = real
    return min(times), min(staged)


def best_of(fn, arg) -> float:
    """The best of three times of fn(arg); each result is dropped at once."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        fn(arg)
        times.append(perf_counter() - start)
    return min(times)


def load_rung() -> None:
    print(f"\n{'input':<14} {'N':>5} {'from_dict (s)':>14} {'validate (s)':>13} "
          f"{'adjacency (s)':>14}")
    for n in (1000, 4000, 10000):
        doc = category_to_dict(discrete(n))
        c = category_from_dict(doc)
        print(f"{'discrete':<14} {n:>5} {best_of(category_from_dict, doc):>14.3f} "
              f"{best_of(validate, c):>13.3f} {best_of(adjacency, c):>14.3f}", flush=True)
    print(f"\n{'input':<14} {'N':>5} {'poset_category (s)':>19}")
    for n in (40, 60):
        chain = [[int(i <= j) for j in range(n)] for i in range(n)]
        print(f"{'chain':<14} {n:>5} {best_of(poset_category, chain):>19.3f}", flush=True)


def main() -> None:
    rungs = [(f"poset p={P}", n, random_poset(n, P, n)) for n in (100, 200, 400)]
    rungs += [("discrete", n, IntMatrix.identity(n)) for n in (400, 800)]
    print(f"{'input':<14} {'N':>5} {'best of 3 (s)':>14} {'closed_form (s)':>16} "
          f"{'sweep steps':>12} {'s':>5}")
    for name, n, a in rungs:
        bound = block_traces(a)[1]
        s = "-" if bound is None else str(sum(bound.values()))
        total, stage = best_times(a)
        print(f"{name:<14} {n:>5} {total:>14.3f} {stage:>16.4f} {sweep_steps(a):>12} {s:>5}",
              flush=True)
    load_rung()


if __name__ == "__main__":
    main()
