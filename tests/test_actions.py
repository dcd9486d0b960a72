"""Action categories: the category of elements of a monoid M acting on a
set X, which the corpus lacks (conftest.action_family).

Each is a category by construction, built through the JSON parser.  For
a group G it is a groupoid with one strongly connected block per orbit,
of |orbit| objects and hom-sets of |G_x| elements, so A is singular
wherever an orbit has two points and Moebius inversion does not apply.
Its series Euler characteristic is the groupoid cardinality, the sum
over orbits of 1/|G_x|, which is |X|/|G| (Baez-Dolan, "From finite sets
to Feynman diagrams"; Leinster, "The Euler characteristic of a
category").
"""

from fractions import Fraction

from catzeta import (adjacency, chain_counts, char_poly_bundle, series_euler_char, validate,
                     verify_matrix)
from oracles import axiom_violations_oracle, enumerate_chains


def test_the_family_is_valid_and_passes_verify(action_categories):
    assert len(action_categories) >= 30
    for label, c, _ in action_categories:
        assert validate(c) == [], label
        assert axiom_violations_oracle(c) == [], label
        assert verify_matrix(adjacency(c)).passed, label


def test_a_group_action_has_chi_points_over_order(action_categories):
    groups = [(label, c, order) for label, c, order in action_categories if order]
    assert len(groups) >= 25
    for label, c, order in groups:
        euler = series_euler_char(char_poly_bundle(adjacency(c)))
        assert euler.exists and euler.chi == Fraction(len(c.objects), order), label


def test_chain_counts_match_enumeration(action_categories):
    for label, c, _ in action_categories:
        assert chain_counts(adjacency(c), 4) == [enumerate_chains(c, m) for m in range(5)], label
