"""Series Euler characteristic: branch logic, oracle, Moebius comparison."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from catzeta import (
    IntMatrix,
    adjacency,
    char_poly_bundle,
    euler_char_of_matrix,
    series_euler_char,
)
from oracles import euler_char_oracle, mobius_euler_char

small_matrices = st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
).map(IntMatrix)


class TestGoldenValues:
    @pytest.mark.parametrize("name, chi", [
        ("terminal", Fraction(1)),
        ("p2", Fraction(1)),
        ("s", Fraction(0)),
        ("z2", Fraction(1, 2)),
        ("k2", Fraction(1)),
    ])
    def test_fixture_chi(self, fixture_categories, name, chi):
        report = euler_char_of_matrix(adjacency(fixture_categories[name]))
        assert report.exists
        assert report.chi == chi


class TestBranches:
    def test_empty(self):
        report = euler_char_of_matrix(IntMatrix([]))
        assert report.exists and report.chi == 0
        assert report.branch == "empty"

    def test_vanishing(self):
        report = euler_char_of_matrix(IntMatrix([[1, 2], [0, 1]]))
        assert report.exists and report.chi == 0
        assert report.branch == "vanishes"
        assert report.s > report.r

    def test_ratio(self):
        report = euler_char_of_matrix(IntMatrix([[1, 1], [0, 1]]))
        assert report.branch == "ratio"
        assert report.chi == 1

    def test_undefined(self):
        report = euler_char_of_matrix(IntMatrix([[0, 1], [0, 0]]))
        assert not report.exists
        assert report.chi is None
        assert report.branch == "undefined"
        assert report.s < report.r


class TestOracle:
    """The valuation-based reading of the reversed pencil must agree with
    the coefficient formula in every field."""

    @given(small_matrices)
    def test_oracle_equals_series_formula(self, a):
        direct = series_euler_char(char_poly_bundle(a))
        oracle = euler_char_oracle(a)
        assert (oracle.exists, oracle.chi, oracle.r, oracle.s, oracle.branch) == \
            (direct.exists, direct.chi, direct.r, direct.s, direct.branch)

    def test_oracle_on_fixture_matrices(self, fixture_matrices):
        for name, a in fixture_matrices.items():
            direct = series_euler_char(char_poly_bundle(a))
            oracle = euler_char_oracle(a)
            assert oracle == direct or (
                oracle.exists == direct.exists and oracle.chi == direct.chi
            ), name


class TestMobiusComparison:
    def test_known_posets(self):
        chain3 = IntMatrix([[1, 1, 1], [0, 1, 1], [0, 0, 1]])
        assert mobius_euler_char(chain3) == 1
        antichain3 = IntMatrix.identity(3)
        assert mobius_euler_char(antichain3) == 3
        vee = IntMatrix([[1, 1, 1], [0, 1, 0], [0, 0, 1]])
        assert mobius_euler_char(vee) == 1
        diamond = IntMatrix([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]])
        assert mobius_euler_char(diamond) == 1

    def test_group_delooping(self):
        assert mobius_euler_char(IntMatrix([[2]])) == Fraction(1, 2)
        assert mobius_euler_char(IntMatrix([[4]])) == Fraction(1, 4)

    def test_matches_series_chi_on_random_posets(self, random_posets):
        for c in random_posets:
            a = adjacency(c)
            report = euler_char_of_matrix(a)
            assert report.exists, c.name
            assert report.chi == mobius_euler_char(a), c.name

    def test_singular_matrix_rejected(self):
        with pytest.raises(ZeroDivisionError, match="singular"):
            mobius_euler_char(IntMatrix([[1, 1], [1, 1]]))

    def test_empty(self):
        assert mobius_euler_char(IntMatrix([])) == 0
