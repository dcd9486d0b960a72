"""The paper's category operations as oracles with a known answer.

The adjacency of a product is the Kronecker product of the factors', and
that of a disjoint union their block sum, so the chain counts multiply
and add: #N_m(A x B) = #N_m(A) #N_m(B) and #N_m(A + B) = #N_m(A) +
#N_m(B).  The series Euler characteristic multiplies and adds the same
way wherever both sides exist, and is invariant under equivalence
(Berger-Leinster), so a product with the indiscrete category on k
objects, equivalent to the terminal one, leaves it and its existence
unchanged.  Each category so built also passes verify.

The closed forms obey the same rules past every window: their log
coefficients (closed_form_counts) multiply and add for n <= 3N, and
since zeta_(A+B) = zeta_A zeta_B, the closed form of A + B is the merge
of A's and B's (oracles.merged_closed_form).  Every category drawn here
has an integer spectrum, so each closed form is exact.
"""

from hypothesis import given, settings, strategies as st

from catzeta import (
    adjacency,
    analyze_matrix,
    chain_counts,
    char_poly_bundle,
    closed_form_counts,
    disjoint_union,
    monoid_delooping,
    poset_category,
    product,
    series_euler_char,
    verify_matrix,
)
from conftest import monoids_up_to_3, poset_relations
from oracles import closed_form_terms, indiscrete, merged_closed_form

CATEGORIES = ([poset_category(rel, f"poset{i}") for i, rel in enumerate(poset_relations())]
              + [monoid_delooping(t) for t in monoids_up_to_3()])
categories = st.sampled_from(CATEGORIES)


def counts_to_3n(c, n):
    return chain_counts(adjacency(c), 3 * n)


def closed_form_of(c):
    return analyze_matrix(adjacency(c)).closed


@given(categories, categories)
@settings(max_examples=60, deadline=None)
def test_product_multiplies_counts_and_chi(left, right):
    c = product(left, right)
    a, n = adjacency(c), len(c.objects)
    assert counts_to_3n(c, n) == [x * y for x, y in zip(counts_to_3n(left, n),
                                                        counts_to_3n(right, n))]
    logs, logs_l, logs_r = (closed_form_counts(closed_form_of(x), 3 * n)
                            for x in (c, left, right))
    assert logs == [x * y for x, y in zip(logs_l, logs_r)]
    chi, chi_l, chi_r = (series_euler_char(char_poly_bundle(m))
                         for m in (a, adjacency(left), adjacency(right)))
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
    closed, closed_l, closed_r = map(closed_form_of, (c, left, right))
    assert closed.arithmetic.exact
    assert closed_form_terms(closed) == merged_closed_form(closed_l, closed_r)
    assert closed_form_counts(closed, 3 * n) == [
        x + y for x, y in zip(closed_form_counts(closed_l, 3 * n),
                              closed_form_counts(closed_r, 3 * n))]
    chi, chi_l, chi_r = (series_euler_char(char_poly_bundle(m))
                         for m in (a, adjacency(left), adjacency(right)))
    if chi.exists and chi_l.exists and chi_r.exists:
        assert chi.chi == chi_l.chi + chi_r.chi
    assert verify_matrix(a, order=30).passed


@given(categories, st.sampled_from([2, 3]))
@settings(max_examples=60, deadline=None)
def test_indiscrete_blow_up_keeps_chi(c, k):
    blown = product(c, indiscrete(k))
    a = adjacency(blown)
    want = series_euler_char(char_poly_bundle(adjacency(c)))
    got = series_euler_char(char_poly_bundle(a))
    assert (got.exists, got.chi) == (want.exists, want.chi)
    assert verify_matrix(a, order=30).passed
