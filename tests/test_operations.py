"""The paper's category operations as oracles with a known answer.

The adjacency of a product is the Kronecker product of the factors', and
that of a disjoint union their block sum, so the chain counts multiply
and add: #N_m(A x B) = #N_m(A) #N_m(B) and #N_m(A + B) = #N_m(A) +
#N_m(B).  The series Euler characteristic multiplies and adds the same
way wherever both sides exist, and is invariant under equivalence
(Berger-Leinster), so a product with the indiscrete category on k
objects, equivalent to the terminal one, leaves it and its existence
unchanged.  Each category so built also passes verify.
"""

from hypothesis import given, settings, strategies as st

from catzeta import (
    adjacency,
    chain_counts,
    disjoint_union,
    euler_char_of_matrix,
    monoid_delooping,
    poset_category,
    product,
    verify_matrix,
)
from conftest import monoids_up_to_3, poset_relations
from oracles import indiscrete

CATEGORIES = ([poset_category(rel, f"poset{i}") for i, rel in enumerate(poset_relations())]
              + [monoid_delooping(t) for t in monoids_up_to_3()])
categories = st.sampled_from(CATEGORIES)


def counts_to_3n(c, n):
    return chain_counts(adjacency(c), 3 * n)


@given(categories, categories)
@settings(max_examples=60, deadline=None)
def test_product_multiplies_counts_and_chi(left, right):
    c = product(left, right)
    a, n = adjacency(c), len(c.objects)
    assert counts_to_3n(c, n) == [x * y for x, y in zip(counts_to_3n(left, n),
                                                        counts_to_3n(right, n))]
    chi, chi_l, chi_r = map(euler_char_of_matrix, (a, adjacency(left), adjacency(right)))
    if chi.exists and chi_l.exists and chi_r.exists:
        assert chi.chi == chi_l.chi * chi_r.chi
    assert verify_matrix(a, order=30).passed


@given(categories, categories)
@settings(max_examples=60, deadline=None)
def test_disjoint_union_adds_counts_and_chi(left, right):
    c = disjoint_union(left, right)
    a, n = adjacency(c), len(c.objects)
    assert counts_to_3n(c, n) == [x + y for x, y in zip(counts_to_3n(left, n),
                                                        counts_to_3n(right, n))]
    chi, chi_l, chi_r = map(euler_char_of_matrix, (a, adjacency(left), adjacency(right)))
    if chi.exists and chi_l.exists and chi_r.exists:
        assert chi.chi == chi_l.chi + chi_r.chi
    assert verify_matrix(a, order=30).passed


@given(categories, st.sampled_from([2, 3]))
@settings(max_examples=60, deadline=None)
def test_indiscrete_blow_up_keeps_chi(c, k):
    blown = product(c, indiscrete(k))
    a = adjacency(blown)
    want, got = euler_char_of_matrix(adjacency(c)), euler_char_of_matrix(a)
    assert (got.exists, got.chi) == (want.exists, want.chi)
    assert verify_matrix(a, order=30).passed
