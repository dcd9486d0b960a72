"""The four benchmark workloads, built from a seed.

Every workload is a closed loop: one caller, and each item starts when
the previous one returns.  The seed only picks inputs and their order;
the library sees nothing but the generated matrices or CLI arguments.

- corpus: the 230-matrix acceptance corpus of tests/conftest.py (five
  fixture categories, 200 seeded posets, 19 monoid deloopings, six
  synthetic matrices), verified at K = 30 in seeded order.  Many tiny
  inputs, so per-call cost and the Fraction series kernels dominate.
- exact-ladder: a random poset, a poset x monoid product and two monoid
  deloopings joined by disjoint union, N = 12..36.  Every eigenvalue is
  an integer, one of them with multiplicity N - 4, so every item takes
  the exact path and the pencil dominates.
- numeric-ladder: random 0..3 integer matrices, N = 4..24, each
  certified to have an irrational eigenvalue, so every item takes the
  numeric path and Aberth iteration dominates.
- cli: the 11 fixture files through `python -m catzeta.cli verify --json`
  at K = 30 (start-up bound) and K = 200 (series bound), one child
  process at a time.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

from benchpath import FIXTURES
from catzeta import (
    IntMatrix,
    adjacency,
    category_from_dict,
    disjoint_union,
    monoid_delooping,
    poset_category,
    product,
)
from oracle import has_irrational_eigenvalue

WORKLOADS = ("corpus", "exact-ladder", "numeric-ladder", "cli")
ORDER = 30
CLI_ORDERS = (30, 200)
PRECISION = 128

FIXTURE_NAMES = ("terminal", "p2", "s", "z2", "k2")
MATRIX_NAMES = ("shift2", "rot90", "pell", "block4", "nilpotent2", "jordan2")
CORPUS_POSET_SEED = 20260825
CORPUS_POSET_COUNT = 200

# (N, items per pass).  A pass takes about six seconds at about 0.2 s an
# item, so a run pools over 100 latency samples.  The median and the 90th
# percentile each fall inside a block of same-size items, not on the edge
# between two sizes, which keeps them from jumping from one seed to the next.
EXACT_RUNGS = ((12, 10), (16, 14), (20, 3), (24, 5), (36, 1))
NUMERIC_RUNGS = ((4, 8), (6, 6), (8, 14), (12, 2), (14, 5), (24, 1))
LADDER_DENSITY = 0.2


@dataclass(frozen=True)
class Item:
    """One unit of work: a matrix to verify, or one CLI invocation."""

    label: str
    matrix: IntMatrix | None = None
    argv: tuple[str, ...] = ()
    expected_path: str | None = None

    @property
    def n(self) -> int | None:
        return None if self.matrix is None else self.matrix.n


# -- posets and monoids (the generators of tests/conftest.py) -----------------

def random_relation(rng: random.Random, n: int, p: float) -> list[list[int]]:
    """Random poset on n points: edges above the diagonal with probability p,
    then transitive closure."""
    rel = [[i == j for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rel[i][j] = True
    for k in range(n):
        for i in range(n):
            if rel[i][k]:
                for j in range(n):
                    if rel[k][j]:
                        rel[i][j] = True
    return [[int(x) for x in row] for row in rel]


def corpus_poset_relations() -> list[list[list[int]]]:
    rng = random.Random(CORPUS_POSET_SEED)
    out = []
    for _ in range(CORPUS_POSET_COUNT):
        n = rng.randint(1, 6)
        p = rng.choice([0.15, 0.3, 0.5, 0.75])
        out.append(random_relation(rng, n, p))
    return out


def _associative(t: list[list[int]]) -> bool:
    n = len(t)
    return all(t[t[a][b]][c] == t[a][t[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


def monoid_tables() -> list[list[list[int]]]:
    """The 14 monoids of order at most 3 and the conftest shelf of five of order 4."""
    tables = [[[0]]]
    for x in range(2):
        t = [[0, 1], [1, x]]
        if _associative(t):
            tables.append(t)
    for vals in itertools.product(range(3), repeat=4):
        t = [[0, 1, 2], [1, vals[0], vals[1]], [2, vals[2], vals[3]]]
        if _associative(t):
            tables.append(t)
    tables.append([[(i + j) % 4 for j in range(4)] for i in range(4)])
    tables.append([[i ^ j for j in range(4)] for i in range(4)])
    tables.append([[max(i, j) for j in range(4)] for i in range(4)])
    tables.append([[min(i + j, 3) for j in range(4)] for i in range(4)])
    tables.append([[(i + j) % 3 if i < 3 and j < 3 else 3 for j in range(4)]
                   for i in range(4)])
    return tables


def _load(path):
    with open(path) as fh:
        return json.load(fh)


# -- workloads -----------------------------------------------------------------

def corpus_items() -> list[Item]:
    items = [Item(name, adjacency(category_from_dict(_load(FIXTURES / f"{name}.json"))))
             for name in FIXTURE_NAMES]
    items += [Item(f"poset{i}", adjacency(poset_category(rel)))
              for i, rel in enumerate(corpus_poset_relations())]
    items += [Item(f"monoid{i}", adjacency(monoid_delooping(t)))
              for i, t in enumerate(monoid_tables())]
    items += [Item(name, IntMatrix(_load(FIXTURES / "matrices" / f"{name}.json")))
              for name in MATRIX_NAMES]
    return items


def exact_matrix(rng: random.Random, n: int) -> IntMatrix:
    """poset(N-4) + poset(2) x monoid + monoid + monoid, so N objects."""
    monoids = monoid_tables()
    big = poset_category(random_relation(rng, n - 4, LADDER_DENSITY))
    pair = product(poset_category(random_relation(rng, 2, 0.5)),
                   monoid_delooping(rng.choice(monoids)))
    loops = disjoint_union(monoid_delooping(rng.choice(monoids)),
                           monoid_delooping(rng.choice(monoids)))
    return adjacency(disjoint_union(disjoint_union(big, pair), loops))


def numeric_matrix(rng: random.Random, n: int) -> IntMatrix:
    """Random 0..3 matrix with a certified irrational eigenvalue."""
    while True:
        rows = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
        if has_irrational_eigenvalue(rows):
            return IntMatrix(rows)


def cli_items() -> list[Item]:
    items = []
    for name in FIXTURE_NAMES + MATRIX_NAMES:
        is_matrix = name in MATRIX_NAMES
        path = FIXTURES / "matrices" / f"{name}.json" if is_matrix else FIXTURES / f"{name}.json"
        for order in CLI_ORDERS:
            argv = ("verify", "--json") + (("--matrix",) if is_matrix else ()) \
                + (str(path), "--order", str(order))
            items.append(Item(f"{name}@{order}", argv=argv))
    return items


def build(name: str, seed: int) -> list[Item]:
    """The items of one pass of workload `name`, in the order they run."""
    rng = random.Random(f"{name}/{seed}")
    if name == "corpus":
        items = corpus_items()
    elif name == "exact-ladder":
        items = [Item(f"exact{n}.{i}", exact_matrix(rng, n), expected_path="exact")
                 for n, count in EXACT_RUNGS for i in range(count)]
    elif name == "numeric-ladder":
        items = [Item(f"numeric{n}.{i}", numeric_matrix(rng, n), expected_path="numeric")
                 for n, count in NUMERIC_RUNGS for i in range(count)]
    elif name == "cli":
        items = cli_items()
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(items)
    return items
