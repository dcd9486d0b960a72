"""The pencil polynomials d, k, m and their exact identities.

d(z) = det(E - A z), k(z) = sum of entries of adj(E - A z), and m(z) the
entry sum of adj(E - A z) A.  The three are tied together by
z m(z) = k(z) - N d(z) and by reversal against the pencil A - E z.  The
library reads them off one power sweep; the oracles in oracles.py take
the Bareiss + Lagrange road, and the two must agree exactly.
"""

import json
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from catzeta import (
    IntMatrix,
    RatPoly,
    adjacency,
    analyze_matrix,
    chain_counts,
    char_poly_bundle,
    closed_form,
    discrete,
    exp_trunc,
    factor_charpoly,
    monic_charpoly,
    zeta_series,
)
from catzeta import charpoly, verify_matrix, zeta
from catzeta.category import chain_vectors
from catzeta.charpoly import bundle_from_sweep, continue_counts
from catzeta.cli import cli_main
from catzeta.poly import horner
from conftest import load_fixture_matrix
from n_rung import random_poset
from oracles import (
    adjsum_poly,
    adjsum_times_a_poly,
    bareiss_det,
    det_poly,
    krylov_rank,
    oracle_pencil,
    path_bound_oracle,
    reversal_check,
    reversed_adjsum_poly,
    reversed_det_poly,
    permuted,
    reversed_pencil_polys,
)

small_matrices = st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
).map(IntMatrix)


def cofactor_det(rows):
    """Reference determinant by cofactor expansion (first row)."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, c in enumerate(rows[0]):
        if c == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        total += (-1) ** j * c * cofactor_det(minor)
    return total


class TestBareissDeterminant:
    @given(st.integers(min_value=0, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n),
            min_size=n, max_size=n)))
    def test_matches_cofactor_expansion(self, rows):
        assert bareiss_det(rows) == cofactor_det(rows)

    def test_corner_cases(self):
        assert bareiss_det([]) == 1
        assert bareiss_det([[7]]) == 7
        assert bareiss_det([[1, 2], [2, 4]]) == 0
        assert bareiss_det([[0, 1], [1, 0]]) == -1


FIXTURE_PENCILS = {
    "terminal": ([[1]], [1, -1], [1], [1]),
    "p2": ([[1, 1], [0, 1]], [1, -2, 1], [2, -1], [3, -2]),
    "s": ([[1, 2], [0, 1]], [1, -2, 1], [2], [4, -2]),
    "z2": ([[2]], [1, -2], [1], [2]),
    "k2": ([[1, 1], [1, 1]], [1, -2], [2], [4]),
}


class TestPencilPolynomials:
    @pytest.mark.parametrize("name", sorted(FIXTURE_PENCILS))
    def test_fixture_values(self, name):
        rows, d, k, m = FIXTURE_PENCILS[name]
        bundle = char_poly_bundle(IntMatrix(rows))
        assert bundle.d == RatPoly(d)
        assert bundle.k == RatPoly(k)
        assert bundle.m == RatPoly(m)

    def test_empty_matrix(self):
        bundle = char_poly_bundle(IntMatrix([]))
        assert bundle.d == RatPoly.one()
        assert bundle.k == RatPoly.zero()
        assert bundle.m == RatPoly.zero()
        assert (bundle.r, bundle.s) == (0, 0)

    @given(small_matrices)
    def test_z_m_equals_k_minus_n_d(self, a):
        bundle = char_poly_bundle(a)
        lhs = RatPoly([0, 1]) * bundle.m
        assert lhs == bundle.k - a.n * bundle.d

    @given(small_matrices)
    def test_low_and_high_coefficients(self, a):
        bundle = char_poly_bundle(a)
        assert bundle.d.coeff(0) == 1
        assert bundle.k.coeff(0) == a.n
        assert bundle.d.coeff(1) == -sum(a.diagonal)
        assert bundle.d.coeff(a.n) == (-1) ** a.n * bareiss_det(
            [list(r) for r in a.rows])

    @given(small_matrices)
    def test_adjsum_times_a_consistent_with_division(self, a):
        bundle = char_poly_bundle(a)
        q, r = divmod(bundle.k - a.n * bundle.d, RatPoly([0, 1]))
        assert r == RatPoly.zero()
        assert adjsum_times_a_poly(a) == q

    def test_component_functions_agree_with_bundle(self):
        a = IntMatrix([[1, 1], [0, 1]])
        bundle = char_poly_bundle(a)
        assert det_poly(a) == bundle.d
        assert adjsum_poly(a) == bundle.k
        assert adjsum_times_a_poly(a) == bundle.m


class TestDegreeDefects:
    @pytest.mark.parametrize("name, r, s", [
        ("terminal", 0, 0),
        ("p2", 0, 0),
        ("s", 0, 1),
        ("z2", 0, 0),
        ("k2", 1, 1),
    ])
    def test_fixture_defects(self, name, r, s):
        rows = FIXTURE_PENCILS[name][0]
        bundle = char_poly_bundle(IntMatrix(rows))
        assert (bundle.r, bundle.s) == (r, s)

    def test_nilpotent_shift(self):
        bundle = char_poly_bundle(IntMatrix([[0, 1], [0, 0]]))
        assert (bundle.r, bundle.s) == (2, 0)


class TestReversal:
    @given(small_matrices)
    def test_reversed_pencil_matches_coefficient_reversal(self, a):
        bundle = char_poly_bundle(a)
        rev_d, rev_k = reversed_pencil_polys(a)
        assert rev_d == reversed_det_poly(bundle.d, a.n)
        assert rev_k == reversed_adjsum_poly(bundle.k, a.n)
        assert reversal_check(a)

    def test_reversal_example(self):
        # p2: det(A - E z) = (1 - z)^2 = z^2 - 2z + 1, and (-1)^2 reverses
        # 1 - 2z + z^2 onto itself.
        a = IntMatrix([[1, 1], [0, 1]])
        rev_d, rev_k = reversed_pencil_polys(a)
        assert rev_d == RatPoly([1, -2, 1])
        assert rev_k == -RatPoly([-1, 2])  # (-1)^(N-1) (k_0 z + k_1)


class TestMonicCharpoly:
    @given(small_matrices, st.integers(min_value=-3, max_value=3))
    def test_evaluates_as_det_of_te_minus_a(self, a, t):
        bundle = char_poly_bundle(a)
        cp = monic_charpoly(bundle.d.coeffs, a.n)
        shifted = [[t * (i == j) - a[i, j] for j in range(a.n)] for i in range(a.n)]
        assert horner(cp, Fraction(t)) == bareiss_det(shifted)

    def test_known_charpolys(self):
        d = char_poly_bundle(IntMatrix([[1, 1], [1, 1]])).d
        assert monic_charpoly(d.coeffs, 2) == [0, -2, 1]  # t^2 - 2t
        d = char_poly_bundle(IntMatrix([[1, 1], [0, 1]])).d
        assert monic_charpoly(d.coeffs, 2) == [1, -2, 1]  # (t - 1)^2


class TestTopCoefficientFormulas:
    """Degree drop and the two leading coefficients of m when s >= r."""

    @given(small_matrices)
    def test_degree_drop(self, a):
        bundle = char_poly_bundle(a)
        if a.n and bundle.s >= bundle.r:
            assert bundle.m.degree == bundle.d.degree - 1

    @given(small_matrices)
    def test_leading_m_coefficient(self, a):
        bundle = char_poly_bundle(a)
        n, r, s = a.n, bundle.r, bundle.s
        if n and s >= r:
            assert bundle.m.coeff(n - 1 - r) == -n * bundle.d.coeff(n - r)

    @given(small_matrices)
    def test_second_m_coefficient_both_branches(self, a):
        bundle = char_poly_bundle(a)
        n, r, s = a.n, bundle.r, bundle.s
        if not n or s < r or n - 2 - r < 0:
            return
        expected = -n * bundle.d.coeff(n - 1 - r)
        if s == r:
            expected += bundle.k.coeff(n - 1 - r)
        assert bundle.m.coeff(n - 2 - r) == expected

    def test_branch_examples(self):
        # equal defects: p2 has r = s = 0, m = 3 - 2z
        b = char_poly_bundle(IntMatrix([[1, 1], [0, 1]]))
        assert b.s == b.r
        assert b.m.coeff(1) == -2 * b.d.coeff(2)
        assert b.m.coeff(0) == -2 * b.d.coeff(1) + b.k.coeff(1)
        # strict drop: s has r = 0, s = 1, m = 4 - 2z
        b = char_poly_bundle(IntMatrix([[1, 2], [0, 1]]))
        assert b.s > b.r
        assert b.m.coeff(0) == -2 * b.d.coeff(1)

    def test_formulas_need_the_degree_hypothesis(self):
        # diag(1, 0) has s = 0 < r = 1 and the leading formula fails there,
        # so the guards above are not vacuous.
        b = char_poly_bundle(IntMatrix([[1, 0], [0, 0]]))
        assert b.s < b.r
        assert b.m.coeff(b.n - 1 - b.r) != -b.n * b.d.coeff(b.n - b.r)


oracle_matrices = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
).map(IntMatrix)

EDGE_MATRICES = {
    "empty": [],
    "nilpotent": [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
    "singular_all_ones": [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
    "huge_entry": [[10**30, 1, 0], [2, -3, 10**30], [1, -1, 1]],
    "negative": [[-2, 3, -1], [0, -1, 2], [4, -3, 0]],
}


def series_from_matrix_powers(a, order):
    """Fraction log-series sum #N_m z^m / m with counts from A @ A @ ...,
    exponentiated by exp_trunc: independent of the chain-count sweep."""
    log_coeffs = [Fraction(0)] * (order + 1)
    power = adjacency(discrete(a.n))
    for m in range(1, order + 1):
        power = power @ a
        log_coeffs[m] = Fraction(sum(map(sum, power.rows)), m)
    return exp_trunc(log_coeffs)


class TestSweepAgainstOracle:
    """d, k, m from the power sweep against Bareiss determinants plus
    Lagrange interpolation, and the integer series recurrence against
    exp_trunc of the rational log-series, all at zero tolerance."""

    def test_corpus(self, corpus_matrices):
        for label, a in corpus_matrices:
            b = char_poly_bundle(a)
            assert (b.d, b.k, b.m) == oracle_pencil(a), label

    def test_corpus_coefficient_strings(self, corpus_matrices):
        """The bundle keeps the swept ints, whose str() is that of the
        Fractions the oracle builds: what a reader of .coeffs prints."""
        for label, a in corpus_matrices:
            b = char_poly_bundle(a)
            for got, want in zip((b.d, b.k, b.m), oracle_pencil(a)):
                assert [str(c) for c in got.coeffs] == \
                    [str(Fraction(c)) for c in want.coeffs], label

    @given(oracle_matrices)
    def test_random_matrices(self, a):
        b = char_poly_bundle(a)
        assert (b.d, b.k, b.m) == oracle_pencil(a)

    @pytest.mark.parametrize("name", sorted(EDGE_MATRICES))
    def test_edge_matrices(self, name):
        a = IntMatrix(EDGE_MATRICES[name])
        b = char_poly_bundle(a)
        assert (b.d, b.k, b.m) == oracle_pencil(a)
        assert list(zeta_series(a, 12).coeffs) == series_from_matrix_powers(a, 12)

    def test_series_on_fixtures_at_long_order(self, fixture_categories, fixture_matrices):
        matrices = [adjacency(c) for c in fixture_categories.values()]
        matrices += list(fixture_matrices.values())
        for a in matrices:
            assert list(zeta_series(a, 200).coeffs) == series_from_matrix_powers(a, 200), a

    @given(oracle_matrices, st.integers(min_value=0, max_value=40))
    def test_series_on_random_matrices(self, a, order):
        assert list(zeta_series(a, order).coeffs) == series_from_matrix_powers(a, order)

    @pytest.mark.parametrize("name", ["power_traces", "chain_counts"])
    def test_cayley_hamilton_guard(self, monkeypatch, name):
        """One wrong power sum, the last trace of the 2 x 2 block (the
        only kind whose traces come from power_traces) or the last swept
        vector v_N, and P(A) 1 is no longer zero.  The bump is even so
        that Newton's divisions stay exact and the certificate itself has
        to catch it."""
        if name == "power_traces":
            good = charpoly.power_traces
            monkeypatch.setattr(charpoly, name, lambda a: good(a)[:-1] + [good(a)[-1] + 2])
        else:
            def sweep(a):
                for i, v in enumerate(chain_vectors(a)):
                    yield v if i < a.n else [v[0] + 2] + v[1:]
            monkeypatch.setattr(charpoly, "chain_vectors", sweep)
        with pytest.raises(ArithmeticError, match="Cayley-Hamilton"):
            char_poly_bundle(IntMatrix(GUARD_MATRIX))

    def test_cayley_hamilton_guard_on_a_unit_block(self, monkeypatch, capsys, tmp_path):
        """A wrong factor of the first block, 1 x 1 in all but the last
        matrix, makes the blockwise d wrong, and the whole-matrix sweep
        catches it: the bundle, verify and the CLI all refuse the matrix."""
        good = charpoly.block_traces

        def corrupt(a):
            (first, *rest), bound = good(a)
            return [first[:-1] + [first[-1] + 2]] + rest, bound

        for module in (charpoly, zeta):
            monkeypatch.setattr(module, "block_traces", corrupt)
        # the second one's true d is (1 - 2z)(1 + z), the corrupt one (1 - 2z)^2 (1 + z);
        # the last one has no 1 x 1 block and an irrational spectrum
        for rows in (GUARD_MATRIX, [[0, 0, 0], [2, 1, 2], [0, 1, 0]],
                     [[0, 1, 0, 0], [1, 0, 0, 0], [1, 1, 2, 1], [0, 0, 2, 2]]):
            with pytest.raises(ArithmeticError, match="Cayley-Hamilton"):
                char_poly_bundle(IntMatrix(rows))
            with pytest.raises(ArithmeticError, match="Cayley-Hamilton"):
                verify_matrix(IntMatrix(rows))
            path = tmp_path / "a.json"
            path.write_text(json.dumps(rows))
            assert cli_main(["verify", "--matrix", str(path)]) == 1, rows
            assert "internal consistency check failed" in capsys.readouterr().err

    def test_pencil_checks_d0_k0_and_the_trace(self, monkeypatch, capsys, tmp_path):
        """check_pencil refuses a d doubled with k and m (a cofactor g = 2),
        a k with k(0) = N + 1 and a d_1 off tr A; the first, fed through
        the sweep, ends charpoly, euler and verify with exit 1."""
        a = IntMatrix(GUARD_MATRIX)
        good = char_poly_bundle(a)
        charpoly.check_pencil(good, a)
        doubled = replace(good, d=good.d * 2, k=good.k * 2, m=good.m * 2)
        with pytest.raises(ArithmeticError, match="d\\(0\\) is 2, not 1"):
            charpoly.check_pencil(doubled, a)
        with pytest.raises(ArithmeticError, match="k\\(0\\) is 4, not N = 3"):
            charpoly.check_pencil(replace(good, k=good.k + 1), a)
        with pytest.raises(ArithmeticError, match="-d_1 is 0, not tr A = 2"):
            charpoly.check_pencil(replace(good, d=good.d + RatPoly([0, 2])), a)

        def doubling(*args):
            bundle, chains = bundle_from_sweep(*args)
            return replace(bundle, d=bundle.d * 2, k=bundle.k * 2, m=bundle.m * 2), chains

        for module in (charpoly, zeta):
            monkeypatch.setattr(module, "bundle_from_sweep", doubling)
        path = tmp_path / "a.json"
        path.write_text(json.dumps(GUARD_MATRIX))
        for command in ("charpoly", "euler", "verify"):
            assert cli_main([command, "--matrix", str(path)]) == 1, command
            err = capsys.readouterr().err
            assert "internal consistency check failed: d(0) is 2, not 1" in err, command

    def test_newton_division_must_be_exact(self):
        # traces (1, 0) would need d_2 = 1/2, which no integer matrix has
        with pytest.raises(ArithmeticError, match="Newton"):
            bundle_from_sweep(lambda: chain_vectors(IntMatrix([[1, 0], [0, 0]])),
                              ([[1, 0]], None))


# the Fibonacci block {0, 1} coupled into the 1 x 1 block {2}.  The
# certificate compares the whole vector P(A) 1 with 0, so a wrong factor
# passes only where the sweep v_i = A^i 1 spans less than the space and
# misses that factor's roots: [[1, 1], [1, 1]] sweeps along its eigenvector
# 1, sees the eigenvalue 2 alone, and accepts traces (3, 5) for (2, 4).
GUARD_MATRIX = [[1, 1, 1], [1, 0, 0], [0, 0, 1]]

PELL = [[2, 1], [1, 0]]
FIXED_BLOCKS = (
    PELL,                                # 1 -+ sqrt 2, irrational
    [[1, 1], [1, 1]],                    # eigenvalues 0 and 2
    [[0, 1, 0], [0, 0, 1], [1, 1, 0]],   # t^3 - t - 1, irrational
)
blocks = st.one_of(
    st.integers(min_value=-3, max_value=3).map(lambda x: [[x]]),
    st.integers(min_value=2, max_value=3).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
            min_size=n, max_size=n)),
    st.sampled_from(FIXED_BLOCKS),
)


def block_matrix(diagonal, coupling):
    """The blocks down the diagonal, coupling(i, j) above them, zero below."""
    n = sum(len(b) for b in diagonal)
    rows = [[0] * n for _ in range(n)]
    start = 0
    for b in diagonal:
        end = start + len(b)
        for i, row in enumerate(b):
            rows[start + i][start:end] = row
            rows[start + i][end:] = [coupling(start + i, j) for j in range(end, n)]
        start = end
    return IntMatrix(rows)


@st.composite
def scrambled_block_matrices(draw):
    """A block upper-triangular matrix under a random simultaneous
    permutation of its rows and columns."""
    diagonal = draw(st.lists(blocks, max_size=4))
    entry = st.integers(min_value=-3, max_value=3)
    a = block_matrix(diagonal, lambda i, j: draw(entry))
    return permuted(a, draw(st.permutations(range(a.n))))


# name -> (matrix, sorted (kind, multiplicity) of the roots of d)
SCRAMBLED_CASES = {
    # two equal irrational blocks: the root pair is repeated in d
    "pell_pell": (permuted(block_matrix([PELL, PELL], lambda i, j: (i + j) % 3 - 1),
                           [3, 0, 2, 1]),
                  [("numeric", 2), ("numeric", 2)]),
    # a 2 x 2 block's rational eigenvalue 2 equals the 1 x 1 block's
    "ones_beside_two": (permuted(block_matrix([[[1, 1], [1, 1]], [[2]]], lambda i, j: 1),
                                 [2, 0, 1]),
                        [("rational", 2)]),
    # a non-linear block factor (1 - 2z)(1 + z) whose rational root 1/2
    # merges with the 1 x 1 block's
    "two_minus_one_beside_two": (permuted(block_matrix([[[1, 2], [1, 0]], [[2]]],
                                                       lambda i, j: 1),
                                          [1, 2, 0]),
                                 [("rational", 1), ("rational", 2)]),
    "ones_pell_two": (permuted(block_matrix([[[1, 1], [1, 1]], PELL, [[2]], [[0]]],
                                            lambda i, j: i - j + 2),
                               [5, 2, 0, 4, 1, 3]),
                      [("numeric", 1), ("numeric", 1), ("rational", 2)]),
}


class TestStrongBlocks:
    """The blockwise pencil against the Bareiss oracle, and the factored
    root set against the factorization of d alone."""

    def check(self, a):
        b = char_poly_bundle(a)
        assert (b.d, b.k, b.m) == oracle_pencil(a)
        product = RatPoly.one()
        for f in b.factors:
            assert f.degree >= 1 and f.coeff(0) == 1
            product = product * f
        units = [block for block in charpoly.strong_blocks(a) if len(block) == 1]
        diagonal = Counter(a[i, i] for (i,) in units)
        del diagonal[0]
        assert dict(b.diagonal) == diagonal
        for lam, e in b.diagonal:
            for _ in range(e):
                product = product * RatPoly([1, -lam])
        assert product == b.d
        assert factor_charpoly(b.d, factors=b.factors, diagonal=b.diagonal) == \
            factor_charpoly(b.d)

    @given(scrambled_block_matrices())
    def test_scrambled_block_matrices(self, a):
        self.check(a)

    @pytest.mark.parametrize("name", sorted(SCRAMBLED_CASES))
    def test_scrambled_cases(self, name):
        a, roots = SCRAMBLED_CASES[name]
        self.check(a)
        b = char_poly_bundle(a)
        rs = factor_charpoly(b.d, factors=b.factors, diagonal=b.diagonal)
        assert sorted((root.kind, root.multiplicity) for root in rs.roots) == roots

    def test_unit_blocks_enter_d_by_their_counts(self, monkeypatch):
        """Only the 2 x 2 block goes through Newton's identities; the 1 x 1
        blocks are counted by their entry, zero dropped, and k needs no
        product of its own (d by each distinct power and m, three in all)."""
        newton, products = [], []
        real_newton, real_mul = charpoly._newton, charpoly.mul_coeffs
        monkeypatch.setattr(charpoly, "_newton", lambda t: newton.append(t) or real_newton(t))
        monkeypatch.setattr(charpoly, "mul_coeffs",
                            lambda *args: products.append(len(args)) or real_mul(*args))
        a = block_matrix([[[2]], [[1, 1], [1, 1]], [[2]], [[0]], [[-1]], [[2]]],
                         lambda i, j: 1)
        b = char_poly_bundle(a)
        assert newton == [[2, 4]]
        assert b.factors == (RatPoly([1, -2]),) and dict(b.diagonal) == {2: 3, -1: 1}
        assert len(products) == 4  # the block factor, two powers, m
        assert (b.d, b.k, b.m) == oracle_pencil(a)

    def test_blocks_of_a_scrambled_matrix(self):
        a = block_matrix([PELL, [[3]], [[1, 1], [1, 1]]], lambda i, j: 1)
        perm = [4, 2, 0, 3, 1]
        blocks = charpoly.strong_blocks(permuted(a, perm))
        assert sorted(sorted(perm[i] for i in block) for block in blocks) == [
            [0, 1], [2], [3, 4]]
        # reverse topological order: a block comes before every block that reaches it
        assert [sorted(perm[i] for i in block) for block in blocks] == [[3, 4], [2], [0, 1]]
        assert charpoly.block_traces(IntMatrix([[5]])) == ([[5]], {5: 1})
        assert charpoly.block_traces(IntMatrix([])) == ([], {})

    def test_long_path_needs_no_recursion(self):
        n = 2 * sys.getrecursionlimit()
        path = IntMatrix([[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)])
        assert charpoly.strong_blocks(path) == [[i] for i in reversed(range(n))]
        cycle = IntMatrix([[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)])
        assert charpoly.strong_blocks(cycle) == [list(range(n))]


@st.composite
def permuted_triangular_matrices(draw):
    """Upper triangular under a random simultaneous permutation of rows and
    columns, entries in -3..3.  The diagonal comes from a palette of at
    most three values, so that they repeat; a 0 in it adds nilpotent parts."""
    n = draw(st.integers(min_value=0, max_value=7))
    palette = draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=3))
    diag = draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n))
    entry = st.integers(min_value=-3, max_value=3)
    a = IntMatrix([[diag[i] if i == j else draw(entry) if i < j else 0 for j in range(n)]
                   for i in range(n)])
    return permuted(a, draw(st.permutations(range(n))))


def counted(a, pulled):
    """A sweep factory over chain_vectors(a) that appends to pulled, for
    each sweep it starts, the number of vectors taken from it."""
    def sweep():
        pulled.append(0)
        for v in chain_vectors(a):
            pulled[-1] += 1
            yield v
    return sweep


# an arrow beside a 3-chain: mu~ = (t - 1)^2 t^3 is the minimal polynomial
# of A on 1 and P itself, so one c_lambda less no longer kills 1
ARROW_AND_CHAIN = [[1, 1, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 1, 0],
                   [0, 0, 0, 0, 1], [0, 0, 0, 0, 0]]


class TestPathBound:
    """Every block 1 x 1: the sweep stops at s = deg mu~, mu~ from the
    path bound of Tarjan's pass, certified by mu~(A) 1 = 0 and c_lambda <=
    e_lambda, and the counts past s come from mu~'s recurrence."""

    @given(permuted_triangular_matrices())
    @settings(max_examples=150, deadline=None)
    def test_permuted_triangular_matrices(self, a):
        traces, bound = charpoly.block_traces(a)
        s = sum(bound.values())
        assert krylov_rank(a) <= s <= a.n  # deg minpoly <= deg mu~ <= N
        pulled = []
        bundle, chains = bundle_from_sweep(counted(a, pulled), (traces, bound))
        assert (bundle.d, bundle.k, bundle.m) == oracle_pencil(a)
        assert chains == chain_counts(a, a.n)
        assert pulled == [s + 1]  # v_0 .. v_s, one sweep
        analysis = analyze_matrix(a)
        assert analysis.counts(200) == chain_counts(a, 200)

    @given(permuted_triangular_matrices())
    @settings(max_examples=150, deadline=None)
    def test_bound_matches_the_path_oracle(self, a):
        assert charpoly.block_traces(a)[1] == path_bound_oracle(a)

    def test_a_bound_equal_to_e_is_the_p_try(self, monkeypatch):
        """On the arrow, c_1 = e_1 = 2: mu~ is P, so a refused P is swept
        once, not twice."""
        a = IntMatrix([[1, 1], [0, 1]])
        traces, bound = charpoly.block_traces(a)
        assert bound == {1: 2}
        real = charpoly.monic_charpoly
        monkeypatch.setattr(charpoly, "monic_charpoly",
                            lambda d, n: [p + (i == 0) for i, p in enumerate(real(d, n))])
        pulled = []
        with pytest.raises(ArithmeticError, match="Cayley-Hamilton"):
            bundle_from_sweep(counted(a, pulled), (traces, bound))
        assert pulled == [a.n + 1]

    def test_bound_of_a_chain_and_of_a_discrete_category(self):
        chain = IntMatrix([[int(i <= j) for j in range(6)] for i in range(6)])
        assert charpoly.block_traces(chain)[1] == {1: 6} and krylov_rank(chain) == 6
        antichain = adjacency(discrete(6))
        assert charpoly.block_traces(antichain)[1] == {1: 1} and krylov_rank(antichain) == 1
        assert charpoly.block_traces(IntMatrix([[1, 1], [1, 1]]))[1] is None

    def test_a_refused_bound_falls_back(self):
        """One c_lambda under-counted gives a mu~ that leaves mu~(A) 1 != 0;
        a c_lambda above e_lambda (a value on no diagonal) gives a mu~ that
        kills 1 but does not divide P.  Either way P is tried next: a new
        sweep runs N steps from v_0, the later counts come from P's
        recurrence, and the bundle and counts are the same.  A corrupt
        diagonal count is refused by P(A) 1 itself."""
        order = 12
        a = IntMatrix(ARROW_AND_CHAIN)
        traces, bound = charpoly.block_traces(a)
        assert bound == {1: 2, 0: 3} and krylov_rank(a) == a.n
        want = bundle_from_sweep(lambda: chain_vectors(a), (traces, None))
        assert continue_counts(want[1], want[0].pair[1].coeffs, order) == chain_counts(a, order)
        for lam, c in bound.items():
            pulled = []
            under = bundle_from_sweep(counted(a, pulled), (traces, {**bound, lam: c - 1}))
            assert under == want and pulled == [a.n, a.n + 1]  # s - 1 steps, then P's N
            assert continue_counts(under[1], under[0].pair[1].coeffs, order) == chain_counts(
                a, order)
        for i in range(a.n):
            spoilt = traces[:i] + [[traces[i][0] + 2]] + traces[i + 1:]
            with pytest.raises(ArithmeticError, match="Cayley-Hamilton"):
                bundle_from_sweep(lambda: chain_vectors(a), (spoilt, bound))
        # an arrow beside two points: s = 2 < N = 4, and (t - 1)^2 (t - 7)
        # still kills 1, so only c_7 <= e_7 = 0 keeps 1 - 7z out of d
        a = IntMatrix([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        traces, bound = charpoly.block_traces(a)
        assert bound == {1: 2}
        want = bundle_from_sweep(lambda: chain_vectors(a), (traces, None))
        pulled = []
        got = bundle_from_sweep(counted(a, pulled), (traces, bound))
        assert got == want and pulled == [3]
        assert continue_counts(got[1], got[0].pair[1].coeffs, order) == chain_counts(a, order)
        # equal bundles, though only the mu~ route proved the smaller pair
        assert got[0].pair[1] == RatPoly([1, -2, 1]) and want[0].pair == (want[0].m, want[0].d)
        pulled = []
        over = bundle_from_sweep(counted(a, pulled), (traces, {**bound, 7: 1}))
        assert over == want and pulled == [a.n + 1]
        assert continue_counts(over[1], over[0].pair[1].coeffs, order) == chain_counts(a, order)


class TestOneRoute:
    """bundle_from_sweep tries the path bound, then P, through one body:
    a call pulls deg mu + 1 vectors from one sweep, and every later count
    comes from the recurrence of the mu that passed (continue_counts).
    small_matrices mostly have a block larger than 1 x 1, so only P is
    tried; every block of a permuted triangular matrix is 1 x 1, and its
    path bound always kills 1."""

    @given(st.one_of(small_matrices, permuted_triangular_matrices()), st.data())
    @settings(max_examples=150, deadline=None)
    def test_counts_to_3n_from_one_sweep(self, a, data):
        order = data.draw(st.integers(min_value=0, max_value=3 * a.n), label="order")
        traces, bound = charpoly.block_traces(a)
        deg_mu = a.n if bound is None else sum(bound.values())
        pulled = []
        bundle, chains = bundle_from_sweep(counted(a, pulled), (traces, bound))
        assert chains == chain_counts(a, a.n)
        assert continue_counts(chains, bundle.pair[1].coeffs, order) == chain_counts(
            a, max(a.n, order))
        assert pulled == [deg_mu + 1]
        assert (bundle.d, bundle.k, bundle.m) == oracle_pencil(a)


class TestPencilPair:
    """analyze_matrix builds the closed form from the pencil's pair, (R, rev)
    on the mu~ route and (m, d) otherwise: the same closed form, field for
    field, as closed_form on (m, d), with fewer coefficients to divide."""

    @staticmethod
    def assert_same_closed_form(bundle, rootset) -> bool:
        """Whether the pair is smaller than (m, d); either way m/d = num/den
        and both give the same closed form."""
        num, den = bundle.pair
        assert num * bundle.d == den * bundle.m
        via_pair = closed_form(num, den, rootset)
        via_md = closed_form(bundle.m, bundle.d, rootset)
        assert vars(via_pair) == vars(via_md)
        assert via_pair.reduced == via_md.reduced
        return den.degree < bundle.d.degree

    def test_corpus(self, corpus_matrices):
        smaller = 0
        for label, a in corpus_matrices:
            analysis = analyze_matrix(a)
            assert analysis.closed == closed_form(analysis.bundle.m, analysis.bundle.d,
                                                  analysis.rootset), label
            smaller += self.assert_same_closed_form(analysis.bundle, analysis.rootset)
        assert smaller >= 100

    @pytest.mark.parametrize("n", [100, 200])
    def test_random_posets(self, n):
        analysis = analyze_matrix(random_poset(n, 0.1, n))
        assert self.assert_same_closed_form(analysis.bundle, analysis.rootset)
        assert analysis.closed == closed_form(analysis.bundle.m, analysis.bundle.d,
                                              analysis.rootset)

    @given(permuted_triangular_matrices(), st.sampled_from(["kept", "under", "over"]),
           st.data())
    @settings(max_examples=150, deadline=None)
    def test_permuted_triangular_matrices(self, a, refuse, data):
        """The bound as found, one c_lambda under-counted (mu~ may then
        leave mu~(A) 1 != 0, and the N-step route runs), or a value on no
        diagonal added (mu~ no longer divides P)."""
        traces, bound = charpoly.block_traces(a)
        if refuse == "under" and bound:
            lam = data.draw(st.sampled_from(sorted(bound)))
            bound = {**bound, lam: bound[lam] - 1}
        elif refuse == "over":
            bound = {**bound, 7: 1}
        bundle, _ = bundle_from_sweep(lambda: chain_vectors(a), (traces, bound))
        assert bundle == char_poly_bundle(a)
        rootset = factor_charpoly(bundle.d, factors=bundle.factors, diagonal=bundle.diagonal)
        self.assert_same_closed_form(bundle, rootset)

    def test_discrete_category_divides_s_plus_one_coefficients(self, monkeypatch):
        a = adjacency(discrete(50))
        lengths, real = [], zeta._divide_linear
        monkeypatch.setattr(zeta, "_divide_linear",
                            lambda ints, p, r: lengths.append(len(ints)) or real(ints, p, r))
        analysis = analyze_matrix(a)
        s = sum(charpoly.block_traces(a)[1].values())
        assert s == 1 and analysis.bundle.pair == (RatPoly([50]), RatPoly([1, -1]))
        assert analysis.closed.reduced == (1,)
        assert lengths and max(lengths) <= s + 1

    def test_certified_exact_verify_counts_once(self, monkeypatch, corpus_matrices):
        """Where facts (b) and (c) hold, or K <= W, verify reads the
        analysis's one comparison of #N_1..#N_W and asks for no more."""
        calls, real = [], zeta.closed_form_counts
        monkeypatch.setattr(zeta, "closed_form_counts",
                            lambda cf, order: calls.append(order) or real(cf, order))
        certified = 0
        for label, a in corpus_matrices:
            analysis = analyze_matrix(a)
            if analysis.path != "exact" or not zeta._c1_certified(analysis):
                continue
            calls.clear()
            assert verify_matrix(a, order=30).passed, label
            assert calls == [analysis.window], label
            certified += 1
        assert certified >= 200


def pair_ints(bundle):
    """The pencil's pair (R, rev) as the int lists series_from_pair reads."""
    return [list(half.coeffs) for half in bundle.pair]


class TestSeriesFromPair:
    """zeta from the recurrence of the pencil's pair, of order s, against
    zeta_series (the pair (#N_1 .. #N_K, 1)) and against exp_trunc of the
    log-series from matrix powers; and the callers that hold the pair
    continue no counts past #N_N."""

    @given(oracle_matrices, st.integers(min_value=0, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_random_matrices(self, a, order):
        got = zeta.series_from_pair(*pair_ints(char_poly_bundle(a)), order)
        assert got == zeta_series(a, order)
        assert list(got.coeffs) == series_from_matrix_powers(a, order)

    def test_corpus(self, corpus_matrices):
        # the Fraction oracle runs at the corpus's verify order: at K = 200
        # it takes some 30 s over the 200 posets, and TestSweepAgainstOracle
        # holds zeta_series to it at K = 200 on the fixtures
        for label, a in corpus_matrices:
            pair = pair_ints(char_poly_bundle(a))
            assert zeta.series_from_pair(*pair, 200) == zeta_series(a, 200), label
            assert list(zeta.series_from_pair(*pair, 30).coeffs) == \
                series_from_matrix_powers(a, 30), label

    def test_no_counts_past_n(self, monkeypatch, tmp_path, capsys):
        """Numeric verify at K = 200 and zeta --closed read the series off
        the pair: continue_counts is never asked for more than #N_N."""
        asked, real = [], continue_counts

        def wrapped(chains, rev, length):
            asked.append(length)
            return real(chains, rev, length)

        for module in (charpoly, zeta):
            monkeypatch.setattr(module, "continue_counts", wrapped)
        for name in ("pell", "rot90", "jordan2"):
            a = load_fixture_matrix(name)
            asked.clear()
            if name != "jordan2":
                report = verify_matrix(a, order=200)
                assert report.path == "numeric" and report.passed, name
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(a.rows))
            assert cli_main(["zeta", "--closed", "--json", "--matrix", str(path),
                             "--order", "200"]) == 0, name
            assert len(json.loads(capsys.readouterr().out)["series"]) == 201, name
            assert asked and max(asked) <= a.n, (name, asked)
