"""Finite categories as explicit tables, plus their adjacency matrices.

A category is stored fully enumerated: object names, morphism triples
(name, source, target), the identity assignment, and the complete
composition table keyed by (g, f) for composable pairs g: y -> z,
f: x -> y.  Validation is then a finite enumeration of the axioms.

The structure (unique, known ids, one identity for each object, the
file's table entries keyed only by composable pairs) has one owner,
category_from_dict.  The raw FiniteCategory constructor trusts its
tables, so a category comes from the parser or from a builder, which is
sound by construction.

The JSON wire format (consumed by the CLI) mirrors this structure; in
files, composition pairs involving identities may be omitted since the
identity laws force their values.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, islice
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
    """Immutable finite category; use validate() to check the axioms.

    The constructor trusts its tables to name only known ids: build one
    with category_from_dict, which checks them, or with a builder."""

    objects: tuple[str, ...]
    morphisms: tuple[Morphism, ...]
    identity: Mapping[str, str]       # object -> identity morphism name
    compose: Mapping[tuple[str, str], str]  # (g, f) -> g after f
    name: str = ""

    def morphism(self, name: str) -> Morphism:
        return self._by_name[name]

    @cached_property
    def _by_name(self) -> dict[str, Morphism]:
        return {f.name: f for f in self.morphisms}


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


class IntMatrix:
    """Square matrix of (arbitrary-precision) integers.  Row by row, a
    wrong length raises ValueError, then an entry that is not an int (a
    bool, float, Fraction or str) TypeError."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Iterable[Iterable[int]]):
        rs = tuple(map(tuple, rows))
        n = len(rs)
        for i, row in enumerate(rs):
            if len(row) != n:
                raise ValueError(f"row {i} has {len(row)} entries, expected {n}")
            if not {int}.issuperset(map(type, row)):
                j = next(j for j, x in enumerate(row) if type(x) is not int)
                raise TypeError(f"entry ({i}, {j}) is not an integer")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rs)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.rows]!r})"

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        n = self.n
        bt = list(zip(*other.rows)) if n else []
        return IntMatrix([[sum(map(mul, row, col)) for col in bt] for row in self.rows])

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.n))


# -- axiom checking --------------------------------------------------------

def _into(objects: Iterable[str], morphisms: Iterable[Morphism]) -> dict[str, list[Morphism]]:
    """The morphisms into each object, in morphism order: the composable
    pairs (g, f) are g with each f in into[g.src]."""
    into: dict[str, list[Morphism]] = {x: [] for x in objects}
    for f in morphisms:
        into[f.tgt].append(f)
    return into


def validate(c: FiniteCategory) -> ValidationReport:
    """Check the category axioms; returns every violation found.

    Identity laws, totality and closure of composition, and associativity
    are each checked by direct enumeration.  The structure is taken as
    category_from_dict or a builder leaves it: unique, known ids and an
    identity for each object.  The parser keys the file's table entries by
    composable pairs only; the pairs it fills in from an identity assigned
    with the wrong endpoints are not, and are reported here.
    """
    report = ValidationReport()
    v = report.violations
    ids = set(c.identity.values())

    for x in c.objects:
        e = c.morphism(c.identity[x])
        if e.src != x or e.tgt != x:
            v.append(f"identity: {e.name} assigned to {x} has endpoints {e.src}->{e.tgt}")

    for (gn, fn), hn in c.compose.items():
        g, f, h = c.morphism(gn), c.morphism(fn), c.morphism(hn)
        if g.src != f.tgt:  # filled in from an identity with the wrong endpoints
            v.append(f"closure: table entry ({gn}, {fn}) is not a composable pair")
            continue
        if h.src != f.src or h.tgt != g.tgt:
            v.append(
                f"closure: ({gn}, {fn}) -> {hn} has endpoints {h.src}->{h.tgt}, "
                f"expected {f.src}->{g.tgt}"
            )

    into = _into(c.objects, c.morphisms)

    for g in c.morphisms:
        for f in into[g.src]:
            if (g.name, f.name) not in c.compose:
                v.append(f"totality: composable pair ({g.name}, {f.name}) missing from table")

    for f in c.morphisms:
        e_src, e_tgt = c.identity[f.src], c.identity[f.tgt]
        got = c.compose.get((f.name, e_src))
        if got is not None and got != f.name:
            v.append(f"identity: ({f.name}, {e_src}) composes to {got}, expected {f.name}")
        got = c.compose.get((e_tgt, f.name))
        if got is not None and got != f.name:
            v.append(f"identity: ({e_tgt}, {f.name}) composes to {got}, expected {f.name}")
        if f.name in ids and f.src == f.tgt:
            got = c.compose.get((f.name, f.name))
            if got is not None and got != f.name:
                v.append(f"identity: ({f.name}, {f.name}) composes to {got}, expected {f.name}")

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
    return report


# -- adjacency matrix and chain counting -----------------------------------

def adjacency(c: FiniteCategory) -> IntMatrix:
    """Adjacency matrix: entry (i, j) counts morphisms object_i -> object_j."""
    index = {x: i for i, x in enumerate(c.objects)}
    n = len(c.objects)
    rows = [[0] * n for _ in range(n)]
    for f in c.morphisms:
        rows[index[f.src]][index[f.tgt]] += 1
    return IntMatrix(rows)


def chain_vectors(a: IntMatrix) -> Iterator[list[int]]:
    """v_0, v_1, ... with v_m = A^m 1, the one sweep of v <- A v from the
    all-ones vector; entry i of v_m counts the chains of m morphisms out of
    object i.  Each step runs only when the next vector is asked for.

    Each row's nonzero columns are listed once per call: its unit entries
    are added up with no multiplication, and only the rows with other
    nonzero entries multiply, so a step costs A's nonzeros, not N^2."""
    cols = range(a.n)
    units, others = [], []
    for i, row in enumerate(a.rows):
        units.append(list(compress(cols, map((1).__eq__, row))))
        if len(units[i]) + row.count(0) < a.n:
            js = [j for j in cols if row[j] not in (0, 1)]
            others.append((i, js, [row[j] for j in js]))
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

    Composition entries for pairs involving identities are filled in from
    the identity laws when omitted.  Missing non-identity pairs are *not*
    an error here; validate() reports them as totality violations.
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
