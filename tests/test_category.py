"""Finite categories: axiom checking, builders, JSON format, chain counts."""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from catzeta import (
    CategoryFormatError,
    FiniteCategory,
    IntMatrix,
    Morphism,
    adjacency,
    category_from_dict,
    category_to_dict,
    chain_counts,
    discrete,
    disjoint_union,
    monoid_delooping,
    poset_category,
    product,
    validate,
)
from conftest import monoids_of_4, monoids_up_to_3, poset_relations
from oracles import axiom_violations_oracle, enumerate_chains, permuted

small_matrices = st.integers(min_value=0, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
).map(IntMatrix)
# The conftest categories, their unions and products, and N = 0: the
# inputs adjacency builds a support for.
BASE_CATEGORIES = ([poset_category(rel) for rel in poset_relations()]
                   + [monoid_delooping(t) for t in monoids_up_to_3() + monoids_of_4()]
                   + [discrete(0)])
_base = st.sampled_from(BASE_CATEGORIES)
built_categories = st.one_of(_base, st.builds(disjoint_union, _base, _base),
                             st.builds(product, _base, _base))
# For the sweep, which adds unit entries and multiplies the other nonzeros:
# N up to 8, with zeros, +-1 and large entries of either sign.
sweep_matrices = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.lists(
        st.lists(st.one_of(st.sampled_from([0, 0, 1, -1]),
                           st.integers(min_value=-10**12, max_value=10**12)),
                 min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
).map(IntMatrix)


class TestFixtures:
    def test_all_fixtures_satisfy_axioms(self, fixture_categories):
        for name, c in fixture_categories.items():
            assert validate(c) == [], name

    def test_adjacency_matrices(self, fixture_categories):
        expected = {
            "terminal": [[1]],
            "p2": [[1, 1], [0, 1]],
            "s": [[1, 2], [0, 1]],
            "z2": [[2]],
            "k2": [[1, 1], [1, 1]],
        }
        for name, rows in expected.items():
            assert adjacency(fixture_categories[name]) == IntMatrix(rows)

    def test_hom_count(self, fixture_categories):
        p2 = fixture_categories["p2"]
        assert Morphism("f", "x", "y") in p2.morphisms
        # hom counts are the adjacency entries, objects in the order x, y
        hom = adjacency(p2)
        assert (hom[0, 1], hom[1, 0]) == (1, 0)
        assert adjacency(fixture_categories["s"])[0, 1] == 2


class TestIntMatrix:
    def test_must_be_square(self):
        with pytest.raises(ValueError):
            IntMatrix([[1, 2]])

    @pytest.mark.parametrize("entry", [1.7, Fraction(3, 2), Fraction(2), "1", True, 2.0])
    def test_refuses_an_entry_it_would_truncate(self, entry):
        """int() would read 1.7 as 1 and True as 1, so verify could pass a
        matrix it was not given; every entry must be an int itself."""
        with pytest.raises(TypeError, match=r"entry \(1, 0\) is "):
            IntMatrix([[1, 0], [entry, 2]])

    def test_int_entries_are_kept(self):
        with pytest.raises(TypeError, match=r"entry \(0, 0\) is not an integer"):
            IntMatrix([[1.7, True], [0, 2.9]])  # once read as [[1, 1], [0, 2]]
        a = IntMatrix([[10**40, -1], [0, 2]])
        assert a.rows == ((10**40, -1), (0, 2)) and all(
            type(x) is int for row in a.rows for x in row)

    def test_identity_and_indexing(self):
        e = adjacency(discrete(3))
        assert e[0, 0] == 1 and e[0, 1] == 0
        assert sum(e.diagonal) == 3

    @given(small_matrices)
    def test_identity_is_neutral(self, a):
        e = adjacency(discrete(a.n))
        assert a @ e == a
        assert e @ a == a

    def test_matmul_example(self):
        a = IntMatrix([[1, 2], [3, 4]])
        b = IntMatrix([[0, 1], [1, 0]])
        assert a @ b == IntMatrix([[2, 1], [4, 3]])

    @given(built_categories)
    def test_adjacency_agrees_with_its_dense_rows(self, c):
        """adjacency's support, counted from the morphisms, and the one
        IntMatrix finds in the dense rows are the same matrix; those rows
        are the morphism counts."""
        a = adjacency(c)
        dense = [[0] * len(c.objects) for _ in c.objects]
        at = {x: i for i, x in enumerate(c.objects)}
        for f in c.morphisms:
            dense[at[f.src]][at[f.tgt]] += 1
        b = IntMatrix(dense)
        assert a.support == b.support and a.diagonal == b.diagonal
        assert a == b and hash(a) == hash(b)
        assert all(a[i, j] == b[i, j] == dense[i][j] for i in range(a.n) for j in range(a.n))
        assert a.rows == b.rows == tuple(map(tuple, dense)) and repr(a) == repr(b)
        for cols, vals in a.support:
            assert list(cols) == sorted(set(cols)) and 0 not in vals

    def test_indexing_past_the_row(self):
        a = adjacency(poset_category([[1, 1], [0, 1]]))
        assert a[0, -1] == a[0, 1] == 1 and a[-1, 0] == 0
        with pytest.raises(IndexError):
            a[0, 2]
        with pytest.raises(IndexError):
            a[2, 0]

    @pytest.mark.parametrize("rows, error, message", [
        ([[1, 2], [3]], ValueError, "row 1 has 1 entries, expected 2"),
        ([[1, 2], [True]], ValueError, "row 1 has 1 entries"),  # the length first
        ([[1, 0.5], [3]], TypeError, r"entry \(0, 1\) is not"),  # then row by row
    ])
    def test_refusals_keep_their_messages(self, rows, error, message):
        with pytest.raises(error, match=message):
            IntMatrix(rows)

    def test_permuted_is_conjugation(self):
        a = IntMatrix([[1, 2], [3, 4]])
        b = permuted(a, [1, 0])
        assert b == IntMatrix([[4, 3], [2, 1]])
        assert sum(b.diagonal) == sum(a.diagonal)


class TestChainCounting:
    def test_zero_chains_count_objects(self, fixture_categories):
        for c in fixture_categories.values():
            assert chain_counts(adjacency(c), 0)[0] == len(c.objects)
            assert enumerate_chains(c, 0) == len(c.objects)

    def test_enumeration_matches_matrix_powers(self, fixture_categories):
        for c in fixture_categories.values():
            a = adjacency(c)
            for m in range(5):
                assert enumerate_chains(c, m) == chain_counts(a, m)[m]

    def test_known_counts(self, fixture_categories):
        a = adjacency(fixture_categories["p2"])
        assert chain_counts(a, 4)[1:] == [3, 4, 5, 6]
        a = adjacency(fixture_categories["k2"])
        assert chain_counts(a, 4)[1:] == [4, 8, 16, 32]

    @given(st.one_of(small_matrices, sweep_matrices))
    def test_chain_counts_match_matrix_powers(self, a):
        acc = adjacency(discrete(a.n))
        counts = chain_counts(a, 4)
        assert len(counts) == 5
        for m in range(5):
            assert counts[m] == sum(map(sum, acc.rows))
            acc = acc @ a

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            chain_counts(adjacency(discrete(2)), -1)

    def test_enumeration_cap(self, fixture_categories):
        with pytest.raises(ValueError, match="chain_count"):
            enumerate_chains(fixture_categories["k2"], 9, cap=5)


class TestStructureAndAxioms:
    @pytest.mark.parametrize("objects, morphisms, identity, compose, message", [
        (("x", "y"), (Morphism("id_x", "x", "x"), Morphism("id_y", "y", "y"),
                      Morphism("f", "x", "y"), Morphism("g", "x", "y")),
         {"x": "id_x", "y": "id_y"}, {("id_y", "f"): "g"},
         "identity: (id_y, f) composes to g, expected f"),
    ], ids=["left-identity-law"])
    def test_axiom_violations_name_the_morphisms(self, objects, morphisms, identity, compose,
                                                 message):
        assert message in validate(FiniteCategory(objects, morphisms, identity, compose))

    def test_a_misassigned_identity_fills_pairs_that_do_not_compose(self, fixture_categories):
        """With f: x -> y named as x's identity, the identity laws would fill
        (f, f) and (id_x, f) in, pairs that do not compose; the parser
        refuses the assignment before any pair is filled."""
        doc = category_to_dict(fixture_categories["p2"])
        doc["identity"]["x"] = "f"
        with pytest.raises(CategoryFormatError) as exc:
            category_from_dict(doc)
        assert str(exc.value) == "identity['x']: morphism 'f' runs x->y, not x->x"

    def test_a_wrong_identity_square_is_reported_once(self, fixture_categories):
        """(e, e) is a unit pair on both sides; its one table entry gives one
        identity line, beside the associativity lines it breaks."""
        doc = category_to_dict(fixture_categories["z2"])
        doc["compose"].append(["e", "e", "s"])
        lines = validate(category_from_dict(doc))
        assert [line for line in lines if line.startswith("identity")] == [
            "identity: (e, e) composes to s, expected e"]
        assert len(set(lines)) == len(lines)

    def test_validate_matches_the_brute_force_oracle(self, fixture_categories):
        """2400 seeded broken tables that the parser accepts, each from a
        fixture, a poset on at most 4 points, Z/3 or z2 x k2 by one to three
        moves: delete a file entry, give one a random composite, or override
        an identity pair.  validate gives the oracle's lines, none twice.
        Then 1200 tables whose only defects are one to three wrong
        composites with the right endpoints, from Z/2 .. Z/6, a two-element
        monoid, chain(2) x Z/3 and Z/4 + chain(3): the pair walk passes
        them, so the triple walk decides, and its lines are the oracle's,
        line for line."""
        cats = fixture_categories
        bases = [*cats.values(), monoid_delooping([[0, 1, 2], [1, 2, 0], [2, 0, 1]]),
                 product(cats["z2"], cats["k2"])]
        bases += [poset_category(rel) for rel in poset_relations() if len(rel) <= 4][:8]
        rng = random.Random(20261020)
        kinds = Counter()
        for trial in range(2400):
            base = bases[trial % len(bases)]
            names = [f.name for f in base.morphisms]
            entries = {(g, f): h for g, f, h in category_to_dict(base)["compose"]}
            for _ in range(rng.randint(1, 3)):
                move = rng.randrange(3)
                if move < 2 and entries:
                    pair = rng.choice(sorted(entries))
                    if move == 0:
                        del entries[pair]
                    else:
                        entries[pair] = rng.choice(names)
                else:
                    g = rng.choice(base.morphisms)
                    pair = rng.choice([(g.name, base.identity[g.src]),
                                       (base.identity[g.tgt], g.name)])
                    entries[pair] = rng.choice(names)
            doc = category_to_dict(base)
            doc["compose"] = [[g, f, h] for (g, f), h in entries.items()]
            c = category_from_dict(doc)
            lines = validate(c)
            assert len(set(lines)) == len(lines)
            assert set(lines) == set(axiom_violations_oracle(c))
            kinds.update(line.split(":")[0] for line in lines)
        assert set(kinds) == {"totality", "closure", "identity", "associativity"}

        def cyclic(n):
            return monoid_delooping([[(i + j) % n for j in range(n)] for i in range(n)])

        chain = [poset_category([[int(i <= j) for j in range(n)] for i in range(n)])
                 for n in (2, 3)]
        bases = [*map(cyclic, range(2, 7)), monoid_delooping([[0, 1], [1, 1]]),
                 product(chain[0], cyclic(3)), disjoint_union(cyclic(4), chain[1])]
        broken = 0
        for trial in range(1200):
            base = bases[trial % len(bases)]
            by_name = {f.name: f for f in base.morphisms}
            entries = {(g, f): h for g, f, h in category_to_dict(base)["compose"]}
            for _ in range(rng.randint(1, 3)):
                pair = rng.choice(sorted(entries))
                src, tgt = by_name[pair[1]].src, by_name[pair[0]].tgt
                entries[pair] = rng.choice([f.name for f in base.morphisms
                                            if (f.src, f.tgt) == (src, tgt)])
            doc = category_to_dict(base)
            doc["compose"] = [[g, f, h] for (g, f), h in entries.items()]
            c = category_from_dict(doc)
            lines = validate(c)
            assert lines == axiom_violations_oracle(c)
            assert all(line.startswith("associativity: ") for line in lines)
            broken += bool(lines)
        assert broken >= 600

    def test_validate_walks_no_triples_on_a_thin_category(self, fixture_categories):
        """A thin category whose pairs pass (a poset, k2) is read once per
        composable pair; z2, which is not thin, and a poset with a wrong
        composite are walked triple by triple as well."""
        class Reads(dict):
            count = 0

            def get(self, key):
                self.count += 1
                return super().get(key)

        def reads(c):
            table = Reads(c.compose)
            lines = validate(replace(c, compose=table))
            return table.count, lines

        poset = poset_category([[1, 1, 1], [0, 1, 1], [0, 0, 1]])
        for c in (poset, fixture_categories["k2"]):
            assert reads(c) == (len(c.compose), [])
        z2 = fixture_categories["z2"]
        count, lines = reads(z2)
        assert count > len(z2.compose) and lines == []
        broken = replace(poset, compose={**poset.compose, ("1<=2", "0<=1"): "0<=1"})
        count, lines = reads(broken)
        assert count > len(poset.compose)
        assert lines[0].startswith("closure")
        assert set(lines) == set(axiom_violations_oracle(broken))

    def test_totality_violation_reported(self, fixture_categories):
        doc = category_to_dict(fixture_categories["k2"])
        doc["compose"] = [t for t in doc["compose"] if t[:2] != ["g", "f"]]
        assert any("totality" in v and "(g, f)" in v for v in validate(category_from_dict(doc)))

    def test_closure_violation_reported(self, fixture_categories):
        doc = category_to_dict(fixture_categories["k2"])
        doc["compose"] = [t if t[:2] != ["g", "f"] else ["g", "f", "f"]
                          for t in doc["compose"]]
        assert any("closure" in v for v in validate(category_from_dict(doc)))

    def test_identity_law_violation_reported(self):
        doc = {
            "objects": ["x"],
            "morphisms": [{"id": "e", "src": "x", "tgt": "x"},
                          {"id": "s", "src": "x", "tgt": "x"}],
            "identity": {"x": "e"},
            "compose": [["s", "s", "e"], ["s", "e", "e"]],
        }
        assert any("identity" in v for v in validate(category_from_dict(doc)))

    def test_associativity_violation_reported(self):
        # Z/3 table corrupted at one non-identity product.
        doc = {
            "objects": ["x"],
            "morphisms": [{"id": "e", "src": "x", "tgt": "x"},
                          {"id": "a", "src": "x", "tgt": "x"},
                          {"id": "b", "src": "x", "tgt": "x"}],
            "identity": {"x": "e"},
            "compose": [["a", "a", "b"], ["a", "b", "b"], ["b", "a", "e"],
                        ["b", "b", "a"]],
        }
        assert any("associativity" in v for v in validate(category_from_dict(doc)))


class TestBuilders:
    def test_discrete(self):
        c = discrete(3)
        assert validate(c) == []
        assert adjacency(c) == IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert validate(discrete(0)) == []

    def test_poset_chain(self):
        c = poset_category([[1, 1, 1], [0, 1, 1], [0, 0, 1]])
        assert validate(c) == []
        assert adjacency(c) == IntMatrix([[1, 1, 1], [0, 1, 1], [0, 0, 1]])
        assert Morphism("0<=2", "0", "2") in c.morphisms

    def test_poset_table_is_the_scan_of_all_pairs(self):
        """The table, indexed by target, has the keys and values of the scan
        over all M^2 morphism pairs, in the same insertion order."""
        chain = [[int(i <= j) for j in range(40)] for i in range(40)]
        for rel in poset_relations() + [chain]:
            c = poset_category(rel)
            scan = {}
            for g in c.morphisms:
                for f in c.morphisms:
                    if g.src == f.tgt:
                        scan[(g.name, f.name)] = f"{f.src}<={g.tgt}"
            assert list(c.compose.items()) == list(scan.items())

    def test_poset_rejects_bad_relations(self):
        with pytest.raises(ValueError, match="reflexive"):
            poset_category([[0]])
        with pytest.raises(ValueError, match="antisymmetric"):
            poset_category([[1, 1], [1, 1]])
        with pytest.raises(ValueError, match="transitive"):
            poset_category([[1, 1, 0], [0, 1, 1], [0, 0, 1]])

    def test_monoid_delooping_z2(self):
        c = monoid_delooping([[0, 1], [1, 0]])
        assert validate(c) == []
        assert adjacency(c) == IntMatrix([[2]])
        assert c.compose[("g1", "g1")] == "g0"

    def test_monoid_identity_found_anywhere(self):
        # identity is element 1 here
        c = monoid_delooping([[1, 0], [0, 1]])
        assert validate(c) == []
        assert c.identity["*"] == "g1"

    def test_monoid_rejections(self):
        with pytest.raises(ValueError, match="identity"):
            monoid_delooping([[1, 1], [1, 1]])
        with pytest.raises(ValueError, match="associative"):
            monoid_delooping([[0, 1, 2], [1, 0, 0], [2, 2, 1]])

    def test_disjoint_union_blocks(self, fixture_categories):
        u = disjoint_union(fixture_categories["p2"], fixture_categories["z2"])
        assert validate(u) == []
        assert adjacency(u) == IntMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 2]])

    def test_product_kronecker(self, fixture_categories):
        p2 = fixture_categories["p2"]
        sq = product(p2, p2)
        assert validate(sq) == []
        a = adjacency(sq)
        assert a.n == 4
        # chain counts multiply across a product
        ap = adjacency(p2)
        for m in range(4):
            assert chain_counts(a, m)[m] == chain_counts(ap, m)[m] ** 2


class TestJsonFormat:
    def test_roundtrip(self, fixture_categories):
        for name, c in fixture_categories.items():
            doc = category_to_dict(c)
            again = category_to_dict(category_from_dict(doc))
            assert doc == again, name

    def test_identity_pairs_omitted_from_serialization(self, fixture_categories):
        doc = category_to_dict(fixture_categories["z2"])
        assert doc["compose"] == [["s", "s", "e"]]

    def test_identity_pairs_filled_on_parse(self):
        c = category_from_dict({
            "objects": ["x"],
            "morphisms": [{"id": "e", "src": "x", "tgt": "x"},
                          {"id": "s", "src": "x", "tgt": "x"}],
            "identity": {"x": "e"},
            "compose": [["s", "s", "e"]],
        })
        assert c.compose[("s", "e")] == "s"
        assert c.compose[("e", "s")] == "s"
        assert c.compose[("e", "e")] == "e"

    @pytest.mark.parametrize("mutate, location", [
        (lambda d: d.pop("identity"), "$"),
        (lambda d: d["objects"].append("x"), "objects"),
        (lambda d: d["morphisms"].append({"id": "f"}), "morphisms[2]"),
        (lambda d: d["morphisms"].append({"id": "q", "src": "x", "tgt": "ghost"}),
         "morphisms[2]"),
        (lambda d: d["identity"].update({"x": "ghost"}), "identity['x']"),
        (lambda d: d["compose"].append(["s", "s", "ghost"]), "compose[1]"),
        (lambda d: d["compose"].append(["s", "s", "e"]), "compose[1]"),
    ])
    def test_malformed_documents_report_location(self, mutate, location):
        doc = {
            "objects": ["x"],
            "morphisms": [{"id": "e", "src": "x", "tgt": "x"},
                          {"id": "s", "src": "x", "tgt": "x"}],
            "identity": {"x": "e"},
            "compose": [["s", "s", "e"]],
        }
        mutate(doc)
        with pytest.raises(CategoryFormatError) as exc:
            category_from_dict(doc)
        assert exc.value.location == location

    @pytest.mark.parametrize("make, message, location", [
        (lambda d: {**d, "name": 5}, "name must be a string", "name"),
        (lambda d: {**d, "objects": ["x", 1]}, "objects must be an array of strings", "objects"),
        (lambda d: {**d, "morphisms": {}}, "morphisms must be an array", "morphisms"),
        (lambda d: {**d, "morphisms": d["morphisms"] + [{"id": 1, "src": "x", "tgt": "x"}]},
         "id, src and tgt must be strings", "morphisms[2]"),
        (lambda d: {**d, "morphisms": d["morphisms"] + [{"id": "s", "src": "x", "tgt": "x"}]},
         "duplicate morphism id 's'", "morphisms"),
        (lambda d: {**d, "identity": []}, "identity must be an object", "identity"),
        (lambda d: {**d, "identity": {"x": "e", "y": "e"}}, "unknown object 'y'", "identity"),
        (lambda d: {**d, "objects": ["x", "y"]}, "object 'y' has no identity", "identity"),
        (lambda d: {**d, "compose": {}}, "compose must be an array of [g, f, gf] triples",
         "compose"),
        (lambda d: {**d, "compose": d["compose"] + [["s", "s"]]},
         "entry must be a [g, f, gf] triple of ids", "compose[1]"),
        (lambda d: {**d, "compose": d["compose"] + [["s", ["s"], "s"]]},
         "entry must be a [g, f, gf] triple of ids", "compose[1]"),
        (lambda d: {**d, "objects": ["x", "x"]}, "duplicate object 'x'", "objects"),
        (lambda d: {**d, "morphisms": d["morphisms"] + [{"id": "q", "src": "x", "tgt": "y"}]},
         "morphism 'q' references unknown object", "morphisms[2]"),
        (lambda d: {**d, "identity": {"x": "ghost"}}, "unknown morphism 'ghost'",
         "identity['x']"),
        (lambda d: {**d, "identity": {"x": ["e"]}}, "morphism id must be a string",
         "identity['x']"),
        (lambda d: {**d, "compose": d["compose"] + [["s", "ghost", "s"]]},
         "unknown morphism 'ghost'", "compose[1]"),
        (lambda d: {**d, "objects": ["x", "y"],
                    "morphisms": d["morphisms"] + [{"id": "f", "src": "x", "tgt": "y"},
                                                   {"id": "i", "src": "y", "tgt": "y"}],
                    "identity": {"x": "f", "y": "i"}},
         "morphism 'f' runs x->y, not x->x", "identity['x']"),
    ], ids=["name", "objects", "morphisms", "non-string-id",
            "duplicate-morphism", "identity", "identity-unknown-object", "missing-identity",
            "compose", "compose-entry", "compose-entry-type", "duplicate-object",
            "unknown-endpoint", "identity-unknown-morphism", "non-string-identity",
            "compose-unknown-morphism", "identity-endpoints"])
    def test_format_errors_carry_message_and_location(self, make, message, location):
        doc = make({
            "objects": ["x"],
            "morphisms": [{"id": "e", "src": "x", "tgt": "x"},
                          {"id": "s", "src": "x", "tgt": "x"}],
            "identity": {"x": "e"},
            "compose": [["s", "s", "e"]],
        })
        with pytest.raises(CategoryFormatError) as exc:
            category_from_dict(doc)
        assert type(exc.value) is CategoryFormatError
        assert exc.value.location == location
        assert str(exc.value) == f"{location}: {message}"

    def test_non_composable_pair_rejected(self, fixture_categories):
        doc = category_to_dict(fixture_categories["p2"])
        doc["compose"] = [["f", "f", "f"]]
        with pytest.raises(CategoryFormatError, match="composable"):
            category_from_dict(doc)

    def test_missing_pair_parses_but_fails_validation(self, fixture_categories):
        doc = category_to_dict(fixture_categories["z2"])
        doc["compose"] = []
        c = category_from_dict(doc)
        assert any("totality" in v for v in validate(c))
