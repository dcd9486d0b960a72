"""Finite categories as explicit tables, plus their adjacency matrices.

A category is stored fully enumerated: object names, morphism triples
(name, source, target), the identity assignment, and the complete
composition table keyed by (g, f) for composable pairs g: y -> z,
f: x -> y.  Validation is then a finite enumeration of the axioms.

The structure (unique, known ids, one identity x -> x for each object,
a table keyed only by composable pairs) has one owner, category_from_dict.
The raw FiniteCategory constructor trusts its tables, so a category comes
from the parser or from a builder, which is sound by construction.

The JSON wire format (consumed by the CLI) mirrors this structure; in
files, composition pairs involving identities may be omitted since the
identity laws force their values.

IntMatrix holds A's support, its one nonzero view, built once: adjacency
counts it from the morphisms in O(N + M) for N objects and M morphisms,
and the chain sweep, the blocks and the path bound read it.  It keeps no
dense rows; a reader of rows gets them built from the support.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import compress, islice, repeat
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence


class CategoryFormatError(ValueError):
    """Malformed category document (bad schema, duplicate or unknown ids)."""

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


@dataclass(frozen=True)
class Morphism:
    name: str
    src: str
    tgt: str


@dataclass(frozen=True, eq=False)
class FiniteCategory:
    """Immutable finite category; validate(c) lists its axiom violations.

    The constructor trusts its tables to name only known ids, each
    identity to run x -> x and the table to hold composable pairs only:
    build one with category_from_dict, which checks them, or a builder."""

    objects: tuple[str, ...]
    morphisms: tuple[Morphism, ...]
    identity: Mapping[str, str]       # object -> identity morphism name
    compose: Mapping[tuple[str, str], str]  # (g, f) -> g after f
    name: str = ""


class IntMatrix:
    """Square matrix of (arbitrary-precision) integers, held as its
    support, A's one nonzero view: row i's nonzero entries as (columns
    ascending, int values), and the diagonal, which the chain sweep, the
    blocks and the path bound read instead of N x N rows.

    From dense rows, row by row, a wrong length raises ValueError, then an
    entry that is not an int (a bool, float, Fraction or str) TypeError;
    the same pass lists the nonzeros.  adjacency gives the support with no
    dense fill; rows is built from it on each read.  Both routes give one
    support, so the matrices are equal and hash alike."""

    __slots__ = ("n", "support", "diagonal")

    def __init__(self, rows: Iterable[Iterable[int]]):
        rs = tuple(map(tuple, rows))
        n, support = len(rs), []
        for i, row in enumerate(rs):
            if len(row) != n:
                raise ValueError(f"row {i} has {len(row)} entries, expected {n}")
            if not {int}.issuperset(map(type, row)):
                j = next(j for j, x in enumerate(row) if type(x) is not int)
                raise TypeError(f"entry ({i}, {j}) is not an integer")
            cols = tuple(compress(range(n), row))
            support.append((cols, tuple(map(row.__getitem__, cols))))
        self._hold(support)

    @classmethod
    def _of_entries(cls, n: int, entries: Mapping[tuple[int, int], int]) -> "IntMatrix":
        """The n x n matrix with the given nonzero int entries, keyed by
        (i, j) with 0 <= i, j < n, with no dense fill."""
        rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for (i, j), x in sorted(entries.items()):
            rows[i].append((j, x))
        a = cls.__new__(cls)
        a._hold([tuple(zip(*row)) or ((), ()) for row in rows])
        return a

    def _hold(self, support) -> None:
        object.__setattr__(self, "n", len(support))
        object.__setattr__(self, "support", tuple(support))
        object.__setattr__(self, "diagonal", tuple(self[i, i] for i in range(self.n)))

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    def __reduce__(self):  # copy and pickle rebuild from the support, with no dense fill
        entries = {(i, j): x for i, (cols, vals) in enumerate(self.support)
                   for j, x in zip(cols, vals)}
        return IntMatrix._of_entries, (self.n, entries)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The dense rows, built from the support on each read."""
        return tuple(tuple(map(dict(zip(*s)).get, range(self.n), repeat(0)))
                     for s in self.support)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij[0], range(self.n)[ij[1]]  # a dense row's IndexError, and j < 0 from the end
        cols, vals = self.support[i]
        k = bisect_left(cols, j)
        return vals[k] if cols[k:k + 1] == (j,) else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.support == other.support

    def __hash__(self):
        return hash(self.support)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.rows]!r})"

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        bt = list(zip(*other.rows))
        return IntMatrix([[sum(map(mul, row, col)) for col in bt] for row in self.rows])


# -- axiom checking --------------------------------------------------------

def _into(objects: Iterable[str], morphisms: Iterable[Morphism]) -> dict[str, list[Morphism]]:
    """The morphisms into each object, in morphism order: the composable
    pairs (g, f) are g with each f in into[g.src]."""
    into: dict[str, list[Morphism]] = {x: [] for x in objects}
    for f in morphisms:
        into[f.tgt].append(f)
    return into


def validate(c: FiniteCategory) -> list[str]:
    """The violations of the category axioms, empty when they all hold.

    One walk over the composable pairs (g, f) checks totality, closure and
    the identity laws; one over the composable triples checks
    associativity.  Both read one index of the morphisms into each object.
    The structure is taken as category_from_dict or a builder leaves it:
    unique, known ids, an identity x -> x for each object, and a table
    keyed by composable pairs only.
    """
    v: list[str] = []
    by_name = {f.name: f for f in c.morphisms}
    into = _into(c.objects, c.morphisms)

    for g in c.morphisms:
        e = c.identity[g.src]
        for f in into[g.src]:
            hn = c.compose.get((g.name, f.name))
            if hn is None:
                v.append(f"totality: composable pair ({g.name}, {f.name}) missing from table")
                continue
            h = by_name[hn]
            if h.src != f.src or h.tgt != g.tgt:
                v.append(f"closure: ({g.name}, {f.name}) -> {hn} has endpoints "
                         f"{h.src}->{h.tgt}, expected {f.src}->{g.tgt}")
            # e, the identity of g.src, is a unit on either side; other pairs pass
            unit = g.name if f.name == e else f.name if g.name == e else hn
            if hn != unit:
                v.append(f"identity: ({g.name}, {f.name}) composes to {hn}, expected {unit}")

    # Associativity over all composable triples, using the table itself.
    for h in c.morphisms:
        for g in into[h.src]:
            hg = c.compose.get((h.name, g.name))
            for f in into[g.src]:
                gf = c.compose.get((g.name, f.name))
                if hg is None or gf is None:
                    continue  # already reported as a totality violation
                left = c.compose.get((h.name, gf))
                right = c.compose.get((hg, f.name))
                if left is None or right is None:
                    continue
                if left != right:
                    v.append(
                        f"associativity: ({h.name}, {g.name}, {f.name}) gives "
                        f"{left} vs {right}"
                    )
    return v


# -- adjacency matrix and chain counting -----------------------------------

def adjacency(c: FiniteCategory) -> IntMatrix:
    """Adjacency matrix: entry (i, j) counts morphisms object_i -> object_j.
    Its support is counted straight from the morphisms, with no N x N fill."""
    index = {x: i for i, x in enumerate(c.objects)}
    return IntMatrix._of_entries(len(c.objects),
                                 Counter((index[f.src], index[f.tgt]) for f in c.morphisms))


def chain_vectors(a: IntMatrix) -> Iterator[list[int]]:
    """v_0, v_1, ... with v_m = A^m 1, the one sweep of v <- A v from the
    all-ones vector; entry i of v_m counts the chains of m morphisms out of
    object i.  Each step runs only when the next vector is asked for.

    Each row's support is split once per call: its unit entries are added
    up with no multiplication, and only the rows with other nonzero
    entries multiply, so a step costs A's nonzeros, not N^2."""
    units, others = [], []
    for i, (cols, vals) in enumerate(a.support):
        units.append(list(compress(cols, map((1).__eq__, vals))))
        if len(units[i]) < len(cols):
            js = [j for j, x in zip(cols, vals) if x != 1]
            others.append((i, js, [x for x in vals if x != 1]))
    v = [1] * a.n
    while True:
        yield v
        get = v.__getitem__
        w = [sum(map(get, js)) for js in units]
        for i, js, xs in others:
            w[i] += sum(map(mul, xs, map(get, js)))
        v = w


def chain_counts(a: IntMatrix, length: int) -> list[int]:
    """#N_0 .. #N_length, where #N_m = 1^T A^m 1 = sum(v_m) counts the
    composable chains of m morphisms; length steps of chain_vectors."""
    if length < 0:
        raise ValueError("chain length must be nonnegative")
    return [sum(v) for v in islice(chain_vectors(a), length + 1)]


# -- builders --------------------------------------------------------------

def _identity_pairs(morphisms: Sequence[Morphism], identity: Mapping[str, str]) -> dict:
    """Composition entries forced by the identity laws."""
    table = {}
    for f in morphisms:
        table.setdefault((f.name, identity[f.src]), f.name)
        table.setdefault((identity[f.tgt], f.name), f.name)
    return table


def discrete(n: int) -> FiniteCategory:
    """n objects, identity morphisms only."""
    objects = tuple(str(i) for i in range(n))
    morphisms = tuple(Morphism(f"id_{x}", x, x) for x in objects)
    identity = {x: f"id_{x}" for x in objects}
    table = _identity_pairs(morphisms, identity)
    return FiniteCategory(objects, morphisms, identity, table, name=f"discrete({n})")


def poset_category(leq: Sequence[Sequence[int]], name: str = "") -> FiniteCategory:
    """Category of a finite poset given as a reflexive relation matrix.

    leq[i][j] is truthy iff element i <= element j.  The relation must be
    reflexive, antisymmetric and transitive; violations raise ValueError.
    """
    n = len(leq)
    for row in leq:
        if len(row) != n:
            raise ValueError("relation matrix must be square")
    rel = [[bool(x) for x in row] for row in leq]
    for i in range(n):
        if not rel[i][i]:
            raise ValueError(f"relation not reflexive at {i}")
    for i in range(n):
        for j in range(n):
            if i != j and rel[i][j] and rel[j][i]:
                raise ValueError(f"relation not antisymmetric at ({i}, {j})")
            if rel[i][j]:
                for k in range(n):
                    if rel[j][k] and not rel[i][k]:
                        raise ValueError(f"relation not transitive at ({i}, {j}, {k})")
    objects = tuple(str(i) for i in range(n))
    morphisms = []
    for i in range(n):
        for j in range(n):
            if rel[i][j]:
                morphisms.append(Morphism(f"{i}<={j}", str(i), str(j)))
    identity = {str(i): f"{i}<={i}" for i in range(n)}
    into = _into(objects, morphisms)
    table = {(g.name, f.name): f"{f.src}<={g.tgt}" for g in morphisms for f in into[g.src]}
    return FiniteCategory(tuple(objects), tuple(morphisms), identity, table,
                          name=name or f"poset({n})")


def monoid_delooping(table: Sequence[Sequence[int]], name: str = "") -> FiniteCategory:
    """One-object category whose endomorphisms g0, g1, ... form the given monoid.

    table[i][j] is the index of element_i * element_j.  The table must be
    associative and possess a two-sided identity element.
    """
    k = len(table)
    for row in table:
        if len(row) != k:
            raise ValueError("multiplication table must be square")
        for x in row:
            if not 0 <= x < k:
                raise ValueError("multiplication table entry out of range")
    unit = None
    for e in range(k):
        if all(table[e][i] == i and table[i][e] == i for i in range(k)):
            unit = e
            break
    if unit is None:
        raise ValueError("multiplication table has no identity element")
    for a in range(k):
        for b in range(k):
            for c in range(k):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise ValueError(f"multiplication not associative at ({a}, {b}, {c})")
    names = [f"g{i}" for i in range(k)]
    obj = "*"
    morphisms = tuple(Morphism(names[i], obj, obj) for i in range(k))
    identity = {obj: names[unit]}
    comp = {}
    for a in range(k):
        for b in range(k):
            comp[(names[a], names[b])] = names[table[a][b]]
    return FiniteCategory((obj,), morphisms, identity, comp,
                          name=name or f"monoid({k})")


def disjoint_union(c1: FiniteCategory, c2: FiniteCategory) -> FiniteCategory:
    """Coproduct of two categories; adjacency is block-diagonal."""
    def tag(prefix, s):
        return f"{prefix}.{s}"

    objects = tuple(tag("L", x) for x in c1.objects) + tuple(tag("R", x) for x in c2.objects)
    morphisms = tuple(Morphism(tag("L", f.name), tag("L", f.src), tag("L", f.tgt))
                      for f in c1.morphisms) \
        + tuple(Morphism(tag("R", f.name), tag("R", f.src), tag("R", f.tgt))
                for f in c2.morphisms)
    identity = {tag("L", x): tag("L", m) for x, m in c1.identity.items()}
    identity.update({tag("R", x): tag("R", m) for x, m in c2.identity.items()})
    table = {}
    for (g, f), h in c1.compose.items():
        table[(tag("L", g), tag("L", f))] = tag("L", h)
    for (g, f), h in c2.compose.items():
        table[(tag("R", g), tag("R", f))] = tag("R", h)
    return FiniteCategory(objects, morphisms, identity, table,
                          name=f"({c1.name})+({c2.name})")


def product(c1: FiniteCategory, c2: FiniteCategory) -> FiniteCategory:
    """Product category; adjacency is the Kronecker product of the factors'."""
    def pobj(x, y):
        return f"({x},{y})"

    def pmor(f, g):
        return f"({f},{g})"

    objects = tuple(pobj(x, y) for x in c1.objects for y in c2.objects)
    morphisms = tuple(
        Morphism(pmor(f.name, g.name), pobj(f.src, g.src), pobj(f.tgt, g.tgt))
        for f in c1.morphisms for g in c2.morphisms
    )
    identity = {
        pobj(x, y): pmor(c1.identity[x], c2.identity[y])
        for x in c1.objects for y in c2.objects
    }
    table = {}
    for (g1, f1), h1 in c1.compose.items():
        for (g2, f2), h2 in c2.compose.items():
            table[(pmor(g1, g2), pmor(f1, f2))] = pmor(h1, h2)
    return FiniteCategory(objects, morphisms, identity, table,
                          name=f"({c1.name})x({c2.name})")


# -- JSON wire format ------------------------------------------------------

def category_to_dict(c: FiniteCategory) -> dict:
    """Serialize; composition pairs implied by identity laws are omitted."""
    ids = set(c.identity.values())
    compose = sorted(
        [g, f, h] for (g, f), h in c.compose.items() if g not in ids and f not in ids
    )
    out = {
        "objects": list(c.objects),
        "morphisms": [{"id": f.name, "src": f.src, "tgt": f.tgt} for f in c.morphisms],
        "identity": {x: c.identity[x] for x in c.objects},
        "compose": compose,
    }
    if c.name:
        out["name"] = c.name
    return out


def category_from_dict(doc: dict) -> FiniteCategory:
    """Parse the JSON wire format; raises CategoryFormatError on bad documents.

    The identity named for x must run x -> x and each file entry must be a
    composable pair; the pairs involving identities are filled in from the
    identity laws when omitted.  Missing non-identity pairs are *not* an
    error here; validate() reports them as totality violations.
    """
    if not isinstance(doc, dict):
        raise CategoryFormatError("document must be a JSON object", "$")
    for key in ("objects", "morphisms", "identity", "compose"):
        if key not in doc:
            raise CategoryFormatError(f"missing key {key!r}", "$")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise CategoryFormatError("name must be a string", "name")

    objects = doc["objects"]
    if not isinstance(objects, list) or not all(isinstance(x, str) for x in objects):
        raise CategoryFormatError("objects must be an array of strings", "objects")
    dup = [x for x, k in Counter(objects).items() if k > 1]
    if dup:
        raise CategoryFormatError(f"duplicate object {dup[0]!r}", "objects")
    objs = set(objects)

    morphisms = []
    raw = doc["morphisms"]
    if not isinstance(raw, list):
        raise CategoryFormatError("morphisms must be an array", "morphisms")
    for i, entry in enumerate(raw):
        loc = f"morphisms[{i}]"
        if not isinstance(entry, dict) or not {"id", "src", "tgt"} <= set(entry):
            raise CategoryFormatError("entry must have id, src and tgt", loc)
        mid, src, tgt = entry["id"], entry["src"], entry["tgt"]
        if not all(isinstance(s, str) for s in (mid, src, tgt)):
            raise CategoryFormatError("id, src and tgt must be strings", loc)
        if src not in objs or tgt not in objs:
            raise CategoryFormatError(f"morphism {mid!r} references unknown object", loc)
        morphisms.append(Morphism(mid, src, tgt))
    names = [f.name for f in morphisms]
    dup = [x for x, k in Counter(names).items() if k > 1]
    if dup:
        raise CategoryFormatError(f"duplicate morphism id {dup[0]!r}", "morphisms")
    by_name = {f.name: f for f in morphisms}

    identity = doc["identity"]
    if not isinstance(identity, dict):
        raise CategoryFormatError("identity must be an object", "identity")
    for x, m in identity.items():
        if x not in objs:
            raise CategoryFormatError(f"unknown object {x!r}", "identity")
        if not isinstance(m, str):
            raise CategoryFormatError("morphism id must be a string", f"identity[{x!r}]")
        if m not in by_name:
            raise CategoryFormatError(f"unknown morphism {m!r}", f"identity[{x!r}]")
        e = by_name[m]
        if (e.src, e.tgt) != (x, x):
            raise CategoryFormatError(f"morphism {m!r} runs {e.src}->{e.tgt}, not {x}->{x}",
                                      f"identity[{x!r}]")
    missing = [x for x in objects if x not in identity]
    if missing:
        raise CategoryFormatError(f"object {missing[0]!r} has no identity", "identity")

    table: dict[tuple[str, str], str] = {}
    raw = doc["compose"]
    if not isinstance(raw, list):
        raise CategoryFormatError("compose must be an array of [g, f, gf] triples", "compose")
    for i, entry in enumerate(raw):
        loc = f"compose[{i}]"
        if not (isinstance(entry, list) and len(entry) == 3
                and all(isinstance(s, str) for s in entry)):
            raise CategoryFormatError("entry must be a [g, f, gf] triple of ids", loc)
        g, f, h = entry
        for m in entry:
            if m not in by_name:
                raise CategoryFormatError(f"unknown morphism {m!r}", loc)
        if by_name[g].src != by_name[f].tgt:
            raise CategoryFormatError(f"({g!r}, {f!r}) is not a composable pair", loc)
        if (g, f) in table:
            raise CategoryFormatError(f"pair ({g!r}, {f!r}) listed twice", loc)
        table[(g, f)] = h

    # Fill pairs implied by the identity laws unless the file overrides them.
    for pair, h in _identity_pairs(morphisms, identity).items():
        table.setdefault(pair, h)

    return FiniteCategory(tuple(objects), tuple(morphisms), dict(identity), table, name=name)
