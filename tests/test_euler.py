"""Series Euler characteristic: branch logic, oracle, Moebius comparison."""

import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from catzeta import (
    IntMatrix,
    adjacency,
    char_poly_bundle,
    discrete,
    series_euler_char,
)
from catzeta import charpoly, zeta
from catzeta.charpoly import bundle_from_sweep
from catzeta.cli import cli_main
from catzeta.poly import RatPoly
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
        report = series_euler_char(char_poly_bundle(adjacency(fixture_categories[name])))
        assert report.exists
        assert report.chi == chi


class TestBranches:
    def test_empty(self):
        report = series_euler_char(char_poly_bundle(IntMatrix([])))
        assert report.exists and report.chi == 0
        assert report.branch == "empty"

    def test_vanishing(self):
        report = series_euler_char(char_poly_bundle(IntMatrix([[1, 2], [0, 1]])))
        assert report.exists and report.chi == 0
        assert report.branch == "vanishes"
        assert report.s > report.r

    def test_ratio(self):
        report = series_euler_char(char_poly_bundle(IntMatrix([[1, 1], [0, 1]])))
        assert report.branch == "ratio"
        assert report.chi == 1

    def test_undefined(self):
        report = series_euler_char(char_poly_bundle(IntMatrix([[0, 1], [0, 0]])))
        assert not report.exists
        assert report.chi is None
        assert report.branch == "undefined"
        assert report.s < report.r

    def test_branch_is_checked_against_the_certified_pair(self, monkeypatch, capsys, tmp_path):
        """A k one degree short moves the degree defects to "vanishes",
        while the pair (R, rev) still gives chi = 1: series_euler_char
        raises, and so does check_pencil, on k itself.  A right k with s
        one too large ends euler and verify with exit 1."""
        a = IntMatrix([[1, 1], [0, 1]])
        good = char_poly_bundle(a)
        assert (good.k, good.r, good.s) == (RatPoly([2, -1]), 0, 0)
        short = replace(good, k=RatPoly([2]), s=1)
        with pytest.raises(ArithmeticError, match="chi = 0 \\(vanishes\\), the certified "
                                                  "pair gives 1"):
            series_euler_char(short)
        with pytest.raises(ArithmeticError, match="k rev is not d \\(N rev \\+ z R\\) at z\\^1"):
            charpoly.check_pencil(short, a)

        def sweep_off_by_one(*args):
            bundle, chains = bundle_from_sweep(*args)
            return replace(bundle, s=bundle.s + 1), chains

        for module in (charpoly, zeta):
            monkeypatch.setattr(module, "bundle_from_sweep", sweep_off_by_one)
        path = tmp_path / "a.json"
        path.write_text(json.dumps(a.rows))
        for command in ("euler", "verify"):
            assert cli_main([command, "--matrix", str(path)]) == 1, command
            err = capsys.readouterr().err
            assert ("internal consistency check failed: the degree defects give chi = 0 "
                    "(vanishes)") in err, command


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
        antichain3 = adjacency(discrete(3))
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
            report = series_euler_char(char_poly_bundle(a))
            assert report.exists, c.name
            assert report.chi == mobius_euler_char(a), c.name

    def test_singular_matrix_rejected(self):
        with pytest.raises(ZeroDivisionError, match="singular"):
            mobius_euler_char(IntMatrix([[1, 1], [1, 1]]))

    def test_empty(self):
        assert mobius_euler_char(IntMatrix([])) == 0


def test_chi_is_the_inverse_sum_wherever_det_a_is_nonzero(corpus_matrices, action_categories):
    """chi = sum of the entries of A^(-1) for every invertible A, not only a
    poset's: with deg d = N and deg k = N - 1, -k_(N-1)/d_N = sum adj(A) /
    det A, and where that sum is 0, s > r and chi = 0 as well."""
    inputs = corpus_matrices + [(label, adjacency(c)) for label, c, _ in action_categories]
    invertible = 0
    for label, a in inputs:
        try:
            want = mobius_euler_char(a)
        except ZeroDivisionError:
            continue
        invertible += 1
        report = series_euler_char(char_poly_bundle(a))
        assert report.exists and report.chi == want, label
    assert invertible >= 220
