"""Shared corpus for the test suite.

The sweep corpus mirrors what the verification tools are meant to cover:
the five bundled fixture categories, the bundled synthetic matrices, a
seeded batch of 200 random posets on up to 6 objects, and one-object
deloopings of every monoid with at most 3 elements plus a hand-picked
shelf of 4-element monoids.  Beside it, a family of action categories,
which the corpus lacks: Z/n (n <= 6), D3, D4 and S3 acting on cosets,
points, pairs and subsets, and seeded small transformation monoids
acting on their points.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import settings

from catzeta import (
    FiniteCategory,
    IntMatrix,
    adjacency,
    category_from_dict,
    monoid_delooping,
    poset_category,
)

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_NAMES = ("terminal", "p2", "s", "z2", "k2")
MATRIX_NAMES = ("shift2", "rot90", "pell", "block4", "nilpotent2", "jordan2")

POSET_SEED = 20260825
POSET_COUNT = 200
ACTION_SEED = 20261022
RANDOM_MATRIX_SEED = 20261022


def load_fixture_category(name: str) -> FiniteCategory:
    with open(FIXTURE_DIR / f"{name}.json") as fh:
        return category_from_dict(json.load(fh))


def load_fixture_matrix(name: str) -> IntMatrix:
    with open(FIXTURE_DIR / "matrices" / f"{name}.json") as fh:
        return IntMatrix(json.load(fh))


def random_poset_relation(rng: random.Random) -> list[list[int]]:
    """Random poset on 1..6 points: sprinkle edges above the diagonal of a
    shuffled linear order, then close transitively.  Orientation along a
    fixed linear order keeps the relation antisymmetric by construction."""
    n = rng.randint(1, 6)
    p = rng.choice([0.15, 0.3, 0.5, 0.75])
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


def poset_relations() -> list[list[list[int]]]:
    rng = random.Random(POSET_SEED)
    return [random_poset_relation(rng) for _ in range(POSET_COUNT)]


def monoids_up_to_3() -> list[list[list[int]]]:
    """Every monoid with at most 3 elements, identity pinned as element 0.

    Order 3 is small enough to filter all 81 candidate tables by brute
    associativity; the count (11) is a known value, asserted here so a
    generator regression cannot silently shrink the corpus.
    """
    tables = [[[0]]]
    for x in range(2):
        t = [[0, 1], [1, x]]
        if _associative(t):
            tables.append(t)
    for vals in itertools.product(range(3), repeat=4):
        t = [[0, 1, 2], [1, vals[0], vals[1]], [2, vals[2], vals[3]]]
        if _associative(t):
            tables.append(t)
    assert len(tables) == 14
    return tables


def _associative(t: list[list[int]]) -> bool:
    n = len(t)
    return all(
        t[t[a][b]][c] == t[a][t[b][c]]
        for a in range(n) for b in range(n) for c in range(n)
    )


def monoids_of_4() -> list[list[list[int]]]:
    """A shelf of 4-element monoids: the two groups, the chain under max,
    saturating addition, and the 3-cycle with an absorbing zero."""
    cyclic = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    klein = [[i ^ j for j in range(4)] for i in range(4)]
    chain_max = [[max(i, j) for j in range(4)] for i in range(4)]
    sat_add = [[min(i + j, 3) for j in range(4)] for i in range(4)]
    z3_zero = [[(i + j) % 3 if i < 3 and j < 3 else 3 for j in range(4)]
               for i in range(4)]
    tables = [cyclic, klein, chain_max, sat_add, z3_zero]
    assert all(_associative(t) for t in tables)
    return tables


def corpus() -> list[tuple[str, IntMatrix]]:
    """Adjacency matrices of the corpus categories (fixtures, posets,
    monoids, in that order) plus the synthetic matrix fixtures, as
    (label, matrix) pairs."""
    pairs = [(name, adjacency(load_fixture_category(name))) for name in FIXTURE_NAMES]
    pairs += [(f"poset{i}", adjacency(poset_category(rel)))
              for i, rel in enumerate(poset_relations())]
    pairs += [(f"monoid{i}", adjacency(monoid_delooping(t)))
              for i, t in enumerate(monoids_up_to_3() + monoids_of_4())]
    return pairs + [(name, load_fixture_matrix(name)) for name in MATRIX_NAMES]


def random_matrices() -> list[tuple[str, IntMatrix]]:
    """Six seeded random 0..3 matrices, N = 3..8, as (label, matrix):
    irrational spectra, with a rational root beside them in some."""
    rng = random.Random(RANDOM_MATRIX_SEED)
    return [(f"random{n}", IntMatrix([[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]))
            for n in range(3, 9)]


def _compose(p: tuple, q: tuple) -> tuple:
    """p after q, maps of range(n) as tuples: x -> p[q[x]]."""
    return tuple(p[x] for x in q)


def _generated(gens: list[tuple]) -> list[tuple]:
    """The monoid of maps that gens generate, identity included, sorted."""
    out = {tuple(range(len(gens[0])))}
    todo = list(out)
    while todo:
        f = todo.pop()
        for g in gens:
            h = _compose(g, f)
            if h not in out:
                out.add(h)
                todo.append(h)
    return sorted(out)


def action_family() -> list[tuple[str, FiniteCategory, int | None]]:
    """(label, category of elements, |G| for a group action, else None).

    Z/n acts on each Z/d, d | n, by translation; S3 (all permutations of
    three points), D3 and D4 (rotation and reflection of a triangle and a
    square) act on their points, on the cosets of a subgroup, on
    themselves and on 2-subsets of points, S3 on ordered pairs of points
    too; and six transformation monoids of at most 16 maps, each
    generated by two seeded random maps of 2..4 points, act on those
    points."""
    from oracles import action_category  # here: conftest loads without tests/ on sys.path

    out = []
    for n in range(1, 7):
        for d in (d for d in range(1, n + 1) if n % d == 0):
            c = action_category(range(n), lambda a, b, n=n: (a + b) % n,
                                lambda g, x, d=d: (g + x) % d, range(d), 0)
            out.append((f"Z/{n} on Z/{d}", c, n))

    def on_cosets(p, coset):
        return tuple(sorted(_compose(p, c) for c in coset))

    def on_pairs(p, xy):
        return p[xy[0]], p[xy[1]]

    def on_subsets(p, xs):
        return tuple(sorted(p[x] for x in xs))

    s3 = _generated([(1, 0, 2), (1, 2, 0)])
    d3 = _generated([(1, 2, 0), (0, 2, 1)])
    d4 = _generated([(1, 2, 3, 0), (0, 3, 2, 1)])
    groups = {"S3": (s3, [(0, 1, 2), (1, 0, 2)]), "D3": (d3, [(0, 1, 2), (1, 2, 0), (2, 0, 1)]),
              "D4": (d4, _generated([(1, 2, 3, 0)]))}
    for name, (g, h) in groups.items():
        k = len(g[0])
        cosets = sorted({tuple(sorted(_compose(p, q) for q in h)) for p in g})
        actions = [("points", lambda p, x: p[x], range(k)),
                   ("cosets", on_cosets, cosets),
                   ("itself", _compose, g),
                   ("2-subsets", on_subsets, list(itertools.combinations(range(k), 2)))]
        if name == "S3":
            actions.append(("pairs", on_pairs, list(itertools.product(range(3), repeat=2))))
        for what, act, points in actions:
            c = action_category(g, _compose, act, points, g[0])
            out.append((f"{name} on {what}", c, len(g)))
    rng, monoids = random.Random(ACTION_SEED), {}
    while len(monoids) < 6:
        k = rng.randint(2, 4)
        m = _generated([tuple(rng.randrange(k) for _ in range(k)) for _ in range(2)])
        if len(m) <= 16 and tuple(m) not in monoids:
            c = action_category(m, _compose, lambda f, x: f[x], range(k), tuple(range(k)))
            monoids[tuple(m)] = (f"monoid{len(monoids)}, {len(m)} maps on {k} points", c, None)
    return out + list(monoids.values())


@pytest.fixture(scope="session")
def action_categories() -> list[tuple[str, FiniteCategory, int | None]]:
    return action_family()


@pytest.fixture(scope="session")
def fixture_categories() -> dict[str, FiniteCategory]:
    return {name: load_fixture_category(name) for name in FIXTURE_NAMES}


@pytest.fixture(scope="session")
def fixture_matrices() -> dict[str, IntMatrix]:
    return {name: load_fixture_matrix(name) for name in MATRIX_NAMES}


@pytest.fixture(scope="session")
def random_posets() -> list[FiniteCategory]:
    return [poset_category(rel, name=f"poset{i}")
            for i, rel in enumerate(poset_relations())]


@pytest.fixture(scope="session")
def monoid_deloopings() -> list[FiniteCategory]:
    tables = monoids_up_to_3() + monoids_of_4()
    return [monoid_delooping(t, name=f"monoid{i}")
            for i, t in enumerate(tables)]


@pytest.fixture(scope="session")
def corpus_categories(fixture_categories, random_posets, monoid_deloopings):
    """Every category in the sweep corpus as (label, category) pairs,
    fixtures first."""
    pairs = list(fixture_categories.items())
    pairs += [(c.name, c) for c in random_posets]
    pairs += [(c.name, c) for c in monoid_deloopings]
    return pairs


@pytest.fixture(scope="session")
def corpus_matrices() -> list[tuple[str, IntMatrix]]:
    return corpus()
