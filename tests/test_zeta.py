"""Zeta series, partial fractions, closed form, verification, singularities."""

import copy
import math
import pickle
import random
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from catzeta import (
    ClosedFormZeta,
    IntMatrix,
    RatPoly,
    RatSeries,
    Root,
    RootSet,
    ZetaFactor,
    adjacency,
    analyze_matrix,
    chain_counts,
    char_poly_bundle,
    closed_form,
    closed_form_counts,
    closed_form_taylor,
    discrete,
    disjoint_union,
    factor_charpoly,
    monic_charpoly,
    monoid_delooping,
    mul_coeffs,
    poset_category,
    product,
    singularity_report,
    verify_matrix,
    zeta_series,
)
from catzeta import category as category_module
from catzeta import charpoly as charpoly_module
from catzeta import zeta as zeta_module
from catzeta.category import chain_vectors
from catzeta.charpoly import block_traces, bundle_from_sweep
from catzeta.roots import Arithmetic
from conftest import monoids_up_to_3, random_poset_relation
from oracles import (
    bareiss_det,
    c1_k_term_oracle,
    c2_sum_oracle,
    c4_sum_oracle,
    closed_form_betas_oracle,
    closed_form_counts_oracle,
    det_poly,
    hermite_terms_oracle,
    log_derivative_check,
    log_trunc,
)

small_nonneg_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
).map(IntMatrix)


class TestZetaSeries:
    def test_negative_order_raises(self):
        a = IntMatrix([[1, 1], [0, 1]])
        with pytest.raises(ValueError, match="^series order must be nonnegative$"):
            zeta_series(a, -1)
        with pytest.raises(ValueError, match="^series order must be nonnegative$"):
            closed_form_taylor(analyze_matrix(a).closed, -1)

    def test_golden_series(self, fixture_categories):
        expected = {
            "terminal": [1, 1, 1, 1, 1],
            "p2": [1, 3, Fraction(13, 2), Fraction(73, 6)],
            "s": [1, 4, 11, Fraction(76, 3)],
            "z2": [1, 2, 4, 8],
            "k2": [1, 4, 12, 32, 80],
        }
        for name, coeffs in expected.items():
            a = adjacency(fixture_categories[name])
            f = zeta_series(a, len(coeffs) - 1)
            assert list(f.coeffs) == [Fraction(c) for c in coeffs], name

    def test_constant_term_is_one(self, fixture_matrices):
        for a in fixture_matrices.values():
            assert zeta_series(a, 3).coeff(0) == 1

    def test_log_recovers_chain_counts(self, fixture_categories):
        a = adjacency(fixture_categories["k2"])
        logz = log_trunc(zeta_series(a, 6).coeffs)
        for m, count in enumerate(chain_counts(a, 6)[1:], start=1):
            assert logz[m] == Fraction(count, m)

    def test_nilpotent_gives_polynomial_exp(self):
        # one nonidentity arrow: log zeta = z, zeta = e^z
        f = zeta_series(IntMatrix([[0, 1], [0, 0]]), 4)
        assert list(f.coeffs) == [1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24)]

    def test_empty_category(self):
        assert zeta_series(IntMatrix([]), 3) == RatSeries(3, [1, 0, 0, 0])

    def test_log_derivative_identity(self, fixture_matrices):
        for name, a in fixture_matrices.items():
            assert log_derivative_check(a, 20), name

    def test_union_is_product(self, fixture_categories):
        p2, z2 = fixture_categories["p2"], fixture_categories["z2"]
        u = disjoint_union(p2, z2)
        assert list(zeta_series(adjacency(u), 8).coeffs) == mul_coeffs(
            zeta_series(adjacency(z2), 8).coeffs, zeta_series(adjacency(p2), 8).coeffs, 9)


# theta = a/b with b <= 7, mostly +-1/b as for a pencil (a = 2 or -3 gives a
# non-integral alpha), multiplicities up to 8, a lead that is not +-1
exact_root_sets = st.builds(
    lambda thetas, mults, lead: RootSet(
        roots=tuple(Root(t, e) for t, e in zip(thetas, mults)), lead=Fraction(lead),
        precision=128),
    st.lists(st.builds(Fraction, st.sampled_from([1, -1, 1, -1, 2, -3]), st.integers(1, 7)),
             min_size=1, max_size=3, unique=True),
    st.lists(st.integers(1, 8), min_size=3, max_size=3),
    st.integers(2, 12).flatmap(lambda n: st.sampled_from([n, -n, Fraction(n, 13)])),
)


class TestPartialFractions:
    """The A_{k,j} that closed_form reads off _hermite_terms, as Fractions."""

    @staticmethod
    def terms(bundle, rootset):
        """q, rem and the A_{k,j} of bundle.m / bundle.d over rootset, for
        j = 1..e_k: those of the reduced fraction, as closed_form takes
        them, then zeros."""
        arith = rootset.arithmetic
        q, rem = divmod(bundle.m, bundle.d)
        pairs = [arith.split(root.theta) for root in rootset.roots]
        with arith.context():
            ints, den, mults = zeta_module._reduced(rem, bundle.d, rootset.roots, arith)
            parts = zeta_module._hermite_terms(ints, den, pairs, mults, arith)
        return q, rem, tuple(tuple(Fraction(x, den) for x in nums)
                             + (Fraction(0),) * (root.multiplicity - len(nums))
                             for root, (nums, den) in zip(rootset.roots, parts))

    def analyze(self, rows):
        analysis = analyze_matrix(IntMatrix(rows))
        return (analysis, *self.terms(analysis.bundle, analysis.rootset))

    def test_arrow_category(self):
        analysis, q, rem, terms = self.analyze([[1, 1], [0, 1]])
        assert q == RatPoly.zero() == analysis.closed.q_integral.derivative()
        assert rem == RatPoly([3, -2])
        assert analysis.rootset.lead == 1
        assert terms == ((Fraction(-2), Fraction(1)),)
        assert analysis.rootset.arithmetic.exact

    def test_parallel_pair(self):
        _, _, _, terms = self.analyze([[1, 2], [0, 1]])
        assert terms == ((Fraction(-2), Fraction(2)),)

    def test_codiscrete_pair(self):
        analysis, _, _, terms = self.analyze([[1, 1], [1, 1]])
        assert analysis.rootset.lead == -2
        assert terms == ((Fraction(4),),)

    def test_polynomial_part(self):
        analysis, q, _, _ = self.analyze([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0],
                                          [0, 0, 0, 1]])
        assert q == RatPoly([2, 1]) == analysis.closed.q_integral.derivative()

    def test_evaluates_to_rational_function(self):
        """Independent check: sum the terms at sample points away from roots."""
        for rows in ([[1, 1], [0, 1]], [[1, 2], [0, 1]], [[1, 1], [1, 1]],
                     [[2, 1], [0, 2]]):
            analysis, _, rem, terms = self.analyze(rows)
            rootset = analysis.rootset
            assert rootset.arithmetic.exact
            roots = rootset.roots
            for x in (Fraction(2), Fraction(3), Fraction(5, 7)):
                if any(r.theta == x for r in roots):
                    continue
                direct = rem(x) / analysis.bundle.d(x)
                summed = sum(
                    (coeff / (rootset.lead * (x - r.theta) ** j)
                     for r, term in zip(roots, terms)
                     for j, coeff in enumerate(term, start=1)),
                    Fraction(0),
                )
                assert direct == summed, rows

    @staticmethod
    def assert_corrupt_term_caught(monkeypatch, a, exact, n_roots, j):
        """A_{k,j} + 1/3 on a root with e' = e, so the term is one that
        closed_form computes: the analysis's check of the log coefficients
        against #N_1..#N_W refuses it and names the first n off."""
        analysis = analyze_matrix(a)
        rs, cf = analysis.rootset, analysis.closed
        assert rs.arithmetic.exact == exact
        k = next(i for i, root in enumerate(rs.roots) if root.multiplicity >= 3)
        assert len(rs.roots) == n_roots
        assert cf == closed_form(analysis.bundle.m, analysis.bundle.d, rs)
        assert cf.arithmetic.exact == exact
        assert cf.reduced[k] == rs.roots[k].multiplicity  # e' = e: A_{k,j} is computed
        real = zeta_module._hermite_terms

        def corrupt(*args):  # A_{k,j} + 1/3, over the root's denominator times 3
            parts = real(*args)
            nums, den = parts[k]
            bad = [3 * x for x in nums]
            bad[j - 1] += den
            return parts[:k] + [(bad, 3 * den)] + parts[k + 1:]

        monkeypatch.setattr(zeta_module, "_hermite_terms", corrupt)
        with pytest.raises(ArithmeticError, match=r"at n = \d+, not #N_\d+ = " +
                           ("" if exact else ".*raise the precision")):
            analyze_matrix(a)

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_recombination_catches_a_corrupt_term(self, monkeypatch, j):
        # a 4-chain poset (root 1, e = 4) next to the monoid Z/2 (root 1/2)
        a = IntMatrix([[1, 1, 1, 1, 0], [0, 1, 1, 1, 0], [0, 0, 1, 1, 0],
                       [0, 0, 0, 1, 0], [0, 0, 0, 0, 2]])
        self.assert_corrupt_term_caught(monkeypatch, a, True, 2, j)

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_recombination_catches_a_corrupt_term_at_a_fractional_root(self, monkeypatch, j):
        # three Z/2 monoids joined into a chain (root 1/2, e = 3, so b = 2)
        # next to a point (root 1)
        a = IntMatrix([[2, 1, 1, 0], [0, 2, 1, 0], [0, 0, 2, 0], [0, 0, 0, 1]])
        self.assert_corrupt_term_caught(monkeypatch, a, True, 2, j)

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_recombination_catches_a_corrupt_term_with_a_non_unit_lead(self, monkeypatch, j):
        # three Z/3 monoids joined into a chain (root 1/3, e = 3, so b = 3),
        # then Z/2 (root 1/2) and a nilpotent tail: lead 54, and rem has
        # denominators
        a = IntMatrix([[3, 1, 1, 0, 0, 0], [0, 3, 1, 0, 0, 0], [0, 0, 3, 1, 0, 0],
                       [0, 0, 0, 2, 1, 0], [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0]])
        bundle = char_poly_bundle(a)
        assert bundle.d.lead == 54
        assert max(c.denominator for c in divmod(bundle.m, bundle.d)[1].coeffs) > 1
        self.assert_corrupt_term_caught(monkeypatch, a, True, 2, j)

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_recombination_catches_a_corrupt_numeric_term(self, monkeypatch, j):
        # a 3-chain poset (root 1, e = 3) next to pell (roots -1 +- sqrt 2)
        a = IntMatrix([[1, 1, 1, 0, 0], [0, 1, 1, 0, 0], [0, 0, 1, 0, 0],
                       [0, 0, 0, 1, 2], [0, 0, 0, 1, 1]])
        self.assert_corrupt_term_caught(monkeypatch, a, False, 3, j)

    @given(exact_root_sets, st.one_of(st.lists(st.integers(-9, 9), max_size=30),
                                      st.just("multiple")))
    @example(RootSet(roots=(Root(Fraction(1, 3), 3), Root(Fraction(-1, 2), 1)),
                     lead=Fraction(54), precision=128), list(range(1, 8)))  # D = 54
    @settings(max_examples=300, deadline=None)
    def test_integer_kernels_match_the_fraction_oracles(self, rootset, m_coeffs):
        d = RatPoly([rootset.lead])
        for root in rootset.roots:
            for _ in range(root.multiplicity):
                d = d * RatPoly([-root.theta, 1])
        m = d * RatPoly([2, -1]) if m_coeffs == "multiple" else RatPoly(m_coeffs)
        rem = divmod(m, d)[1]
        thetas = [root.theta for root in rootset.roots]
        mults = [root.multiplicity for root in rootset.roots]
        want = hermite_terms_oracle(rem, thetas, mults)
        arith = rootset.arithmetic
        den = math.lcm(*(c.denominator for c in rem.coeffs))
        ints = [c.numerator * (den // c.denominator) for c in rem.coeffs]
        parts = zeta_module._hermite_terms(ints, den, [arith.split(t) for t in thetas], mults,
                                           arith)
        assert all(type(x) is int for nums, den in parts for x in [den, *nums])
        assert [tuple(Fraction(x, den) for x in nums) for nums, den in parts] == want
        got = [(f.beta0, f.betas) for f in closed_form(m, d, rootset).factors]
        assert got == closed_form_betas_oracle(rootset, want)
        assert all(type(b) is Fraction for b0, betas in got for b in (b0, *betas))

    def test_standalone_call(self):
        bundle = char_poly_bundle(IntMatrix([[1, 1], [0, 1]]))
        rs = factor_charpoly(bundle.d)
        assert self.terms(bundle, rs)[2] == ((Fraction(-2), Fraction(1)),)
        cf = closed_form(bundle.m, bundle.d, rs)
        assert [(f.beta0, f.betas) for f in cf.factors] == [(2, (1,))]


def _cut(rem, theta, e):
    """min(e, ord_theta(rem)), in Fractions: e - e' for the root theta."""
    t = 0
    while t < e and (rem.is_zero() or rem(theta) == 0):
        rem, t = rem // RatPoly([-theta, 1]), t + 1
    return t


@st.composite
def reducible_log_derivatives(draw):
    """(m, d, rootset) with rem = prod (z - theta)^(t_k) R for drawn
    t_k <= e_k: m/d cancels to e'_k <= e_k - t_k, down to e' = 0."""
    rootset = draw(exact_root_sets)
    d, rem, free = RatPoly([rootset.lead]), RatPoly.one(), 0
    for root in rootset.roots:
        t = draw(st.integers(0, root.multiplicity))
        for i in range(root.multiplicity):
            d = d * RatPoly([-root.theta, 1])
            if i < t:
                rem = rem * RatPoly([-root.theta, 1])
        free += root.multiplicity - t
    rem = rem * RatPoly(draw(st.lists(st.integers(-9, 9), max_size=free)))
    return d * RatPoly(draw(st.lists(st.integers(-3, 3), max_size=3))) + rem, d, rootset


class TestReducedClosedForm:
    """closed_form on m/d in lowest terms: each rational root's
    multiplicity e' in the reduced denominator, and beta's equal to those
    of the full-multiplicity Hermite terms, zero from index e' on."""

    @staticmethod
    def assert_full_betas(m, d, rootset):
        rem = divmod(m, d)[1]
        thetas = [root.theta for root in rootset.roots]
        mults = [root.multiplicity for root in rootset.roots]
        cf = closed_form(m, d, rootset)
        assert cf.reduced == tuple(e - _cut(rem, theta, e) for theta, e in zip(thetas, mults))
        got = [(f.beta0, f.betas) for f in cf.factors]
        assert got == closed_form_betas_oracle(rootset, hermite_terms_oracle(rem, thetas, mults))
        assert all(type(b) is Fraction for b0, betas in got for b in (b0, *betas))
        assert all(len(f.betas) == f.multiplicity - 1 and not any(((f.beta0,) + f.betas)[e:])
                   for f, e in zip(cf.factors, cf.reduced))
        return cf

    @given(reducible_log_derivatives())
    @settings(max_examples=300, deadline=None)
    def test_betas_match_the_full_multiplicity_oracle(self, case):
        self.assert_full_betas(*case)

    @pytest.mark.parametrize("rows, reduced", [
        ([[3, -1], [-1, 3]], (0, 1)),  # theta = 1/4 cancels: beta0 = 0
        ([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], (2,)),  # e = 4
        ([[1, 1, 1, 1, 0], [0, 1, 1, 1, 0], [0, 0, 1, 1, 0], [0, 0, 0, 1, 0],
          [0, 0, 0, 0, 2]], (1, 4)),  # a chain: e' = e
    ])
    def test_matrices(self, rows, reduced):
        analysis = analyze_matrix(IntMatrix(rows))
        cf = self.assert_full_betas(analysis.bundle.m, analysis.bundle.d, analysis.rootset)
        assert cf == analysis.closed and cf.reduced == reduced
        if rows == [[3, -1], [-1, 3]]:
            assert (cf.factors[0].theta, cf.factors[0].beta0) == (Fraction(1, 4), 0)

    @pytest.mark.parametrize("n", [12, 20, 36])
    def test_exact_ladder(self, n):
        analysis = analyze_matrix(exact_ladder_item(n))
        cf = self.assert_full_betas(analysis.bundle.m, analysis.bundle.d, analysis.rootset)
        assert sum(cf.reduced) <= sum(f.multiplicity for f in cf.factors) // 2

    def test_division_proves_each_factor(self):
        # (2z - 1)^2 (z + 3) divides by 2z - 1 twice, then leaves a remainder
        ints = mul_coeffs(mul_coeffs([-1, 2], [-1, 2]), [3, 1])
        once = zeta_module._divide_linear(ints, 1, 2)
        assert once == mul_coeffs([-1, 2], [3, 1])
        assert zeta_module._divide_linear(once, 1, 2) == [3, 1]
        assert zeta_module._divide_linear([3, 1], 1, 2) is None
        assert zeta_module._divide_linear([3, 1], -3, 1) == [1]
        assert zeta_module._divide_linear([], 1, 2) == []

    def test_numeric_root_set_keeps_irrational_multiplicities(self):
        # [[3, -1], [-1, 3]] (theta = 1/4 cancels) beside pell's irrational pair
        a = IntMatrix([[3, -1, 0, 0], [-1, 3, 0, 0], [0, 0, 2, 1], [0, 0, 1, 0]])
        analysis = analyze_matrix(a)
        assert analysis.path == "numeric"
        kinds = [(f.kind, e) for f, e in zip(analysis.closed.factors, analysis.closed.reduced)]
        assert sorted(kinds) == [("numeric", 1), ("numeric", 1), ("rational", 0),
                                 ("rational", 1)]
        assert verify_matrix(a, order=12).passed


class TestClosedForm:
    def factors_of(self, rows):
        return analyze_matrix(IntMatrix(rows)).closed

    def test_zero_denominator_raises(self):
        rootset = factor_charpoly(RatPoly([1, -2]))
        with pytest.raises(ValueError, match="^denominator must be nonzero$"):
            closed_form(RatPoly([1]), RatPoly.zero(), rootset)

    def test_a_proper_divisor_needs_rational_roots(self):
        """1 - 2z divides d = (1 - z - z^2)(1 - 2z), but d's other roots
        are irrational, and only a rational root's count in a divisor is
        found by division."""
        rootset = factor_charpoly(RatPoly([1, -1, -1]) * RatPoly([1, -2]))
        assert not rootset.arithmetic.exact
        with pytest.raises(ValueError, match="^a proper divisor of d needs rational roots$"):
            closed_form(RatPoly([1]), RatPoly([1, -2]), rootset)

    def test_arrow_category(self):
        cf = self.factors_of([[1, 1], [0, 1]])
        assert cf.q_integral == RatPoly.zero()
        (f,) = cf.factors
        assert (f.theta, f.alpha, f.multiplicity) == (1, 1, 2)
        assert f.beta0 == 2
        assert f.betas == (Fraction(1),)

    def test_parallel_pair(self):
        (f,) = self.factors_of([[1, 2], [0, 1]]).factors
        assert f.beta0 == 2
        assert f.betas == (Fraction(2),)

    def test_group_delooping(self):
        (f,) = self.factors_of([[2]]).factors
        assert (f.theta, f.alpha, f.beta0, f.betas) == \
            (Fraction(1, 2), Fraction(2), Fraction(1), ())

    def test_codiscrete_pair(self):
        (f,) = self.factors_of([[1, 1], [1, 1]]).factors
        assert (f.alpha, f.beta0, f.betas) == (Fraction(2), Fraction(2), ())

    def test_jordan_block(self):
        # (1 - 2z)^(-2) exp(z / (1 - 2z))
        (f,) = self.factors_of([[2, 1], [0, 2]]).factors
        assert (f.theta, f.multiplicity, f.beta0, f.betas) == \
            (Fraction(1, 2), 2, Fraction(2), (Fraction(1),))

    def test_polynomial_exponential_part(self):
        cf = self.factors_of([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0],
                              [0, 0, 0, 1]])
        assert cf.q_integral == RatPoly([0, 2, Fraction(1, 2)])
        (f,) = cf.factors
        assert (f.theta, f.beta0, f.betas) == (1, 1, ())

    def test_pure_exponential(self):
        cf = self.factors_of([[0, 1], [0, 0]])
        assert cf.factors == ()
        assert cf.q_integral == RatPoly([0, 1])
        assert closed_form_taylor(cf, 4) == \
            [1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24)]

    def test_taylor_golden(self):
        cf = self.factors_of([[1, 1], [1, 1]])
        assert closed_form_taylor(cf, 4) == [1, 4, 12, 32, 80]

    @given(small_nonneg_matrices)
    @settings(max_examples=40)
    def test_taylor_matches_series(self, a):
        analysis = analyze_matrix(a)
        series = zeta_series(a, 10)
        taylor = closed_form_taylor(analysis.closed, 10)
        if analysis.path == "exact":
            assert taylor == list(series.coeffs)
        else:
            for got, want in zip(taylor, series.coeffs):
                scale = max(1, abs(Fraction(want)))
                assert abs(got - want) / scale < 1e-9


# an arrow (root 1, e = 2, beta_1 = 1) next to a nilpotent chain (Q != 0)
ARROW_AND_CHAIN = IntMatrix([[1, 1, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 1, 0],
                             [0, 0, 0, 0, 1], [0, 0, 0, 0, 0]])
# an arrow beside two points: root 1 with e = 4 in d, e' = 2 in the reduced m/d
ARROW_AND_TWO_POINTS = IntMatrix([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


_small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
# alpha integral or not, of either sign; a root of multiplicity e carries
# e - 1 inner betas, the last ones possibly zero; Q possibly nonzero
_alphas = st.one_of(st.integers(min_value=-5, max_value=5).map(Fraction),
                    st.fractions(min_value=-4, max_value=4, max_denominator=5)).filter(bool)
_hand_built_factors = st.builds(
    lambda alpha, beta0, betas, zeros: ZetaFactor(
        theta=1 / alpha, alpha=alpha, multiplicity=len(betas) + zeros + 1, kind="rational",
        beta0=beta0, betas=tuple(betas) + (Fraction(0),) * zeros),
    _alphas, _small_fractions, st.lists(_small_fractions, max_size=3),
    st.integers(min_value=0, max_value=2))
hand_built_closed_forms = st.builds(
    lambda q, factors: ClosedFormZeta(q_integral=RatPoly([0] + q), factors=tuple(factors),
                                      arithmetic=Arithmetic(True, 128),
                                      reduced=tuple(f.multiplicity for f in factors)),
    st.lists(_small_fractions, max_size=4), st.lists(_hand_built_factors, max_size=3))


def _perturbed(cf, what):
    """The closed form with one ingredient off by 1/7."""
    delta = Fraction(1, 7)
    if what == "Q":
        return replace(cf, q_integral=cf.q_integral + RatPoly([0, delta]))
    factor = cf.factors[0]
    if what == "beta0":
        factor = replace(factor, beta0=factor.beta0 + delta)
    elif what == "beta_j":
        factor = replace(factor, betas=(factor.betas[0] + delta,) + factor.betas[1:])
    else:
        factor = replace(factor, alpha=factor.alpha + delta)
    return replace(cf, factors=(factor,) + cf.factors[1:])


class TestClosedFormCounts:
    """C1 on the log coefficients: n [z^n] log of the closed form against
    the chain counts, equivalent to the Taylor comparison."""

    @staticmethod
    def assert_both_routes_agree(a, order):
        analysis = analyze_matrix(a)
        assert analysis.path == "exact"
        assert closed_form_counts(analysis.closed, order) == chain_counts(a, order)[1:]
        assert closed_form_taylor(analysis.closed, order) == \
            list(zeta_series(a, order).coeffs)

    def test_exact_corpus_at_order_30(self, corpus_matrices):
        exact = 0
        for label, a in corpus_matrices:
            if analyze_matrix(a).path == "exact":
                self.assert_both_routes_agree(a, 30)
                exact += 1
        assert exact >= 200

    def test_exact_fixtures_at_order_200(self, fixture_categories, fixture_matrices):
        mats = [adjacency(c) for c in fixture_categories.values()]
        mats += list(fixture_matrices.values())
        exact = [a for a in mats if analyze_matrix(a).path == "exact"]
        assert len(exact) >= 7
        for a in exact:
            self.assert_both_routes_agree(a, 200)

    @given(hand_built_closed_forms, st.integers(min_value=0, max_value=12))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_termwise_oracle(self, cf, order):
        counts = closed_form_counts(cf, order)
        assert counts == closed_form_counts_oracle(cf, order)
        assert all(type(c) is Fraction for c in counts)

    def test_numeric_counts_approximate_chains(self, fixture_matrices):
        a = fixture_matrices["pell"]
        analysis = analyze_matrix(a)
        assert analysis.path == "numeric"
        counts = closed_form_counts(analysis.closed, 40)
        for got, want in zip(counts, chain_counts(a, 40)[1:]):
            assert abs(got - want) / max(1, want) < 1e-20

    @pytest.mark.parametrize("what", ["beta0", "beta_j", "alpha", "Q"])
    def test_perturbed_closed_form_fails_c1(self, monkeypatch, what):
        """Each ingredient off by 1/7 moves c_1, so the analysis's check
        refuses the closed form at n = 1 before verify reports anything."""
        cf = analyze_matrix(ARROW_AND_CHAIN).closed
        assert cf.q_integral != RatPoly.zero() and cf.factors[0].betas
        bad = _perturbed(cf, what)
        series = zeta_series(ARROW_AND_CHAIN, 12)
        assert closed_form_taylor(bad, 12) != list(series.coeffs)
        assert closed_form_counts(bad, 12) != chain_counts(ARROW_AND_CHAIN, 12)[1:]
        real = zeta_module.closed_form
        monkeypatch.setattr(zeta_module, "closed_form", lambda *args: _perturbed(real(*args), what))
        with pytest.raises(ArithmeticError, match="at n = 1, not #N_1 = "):
            verify_matrix(ARROW_AND_CHAIN, order=12)

    def test_empty_matrix(self):
        a = IntMatrix([])
        cf = analyze_matrix(a).closed
        assert closed_form_counts(cf, 5) == [0] * 5
        report = verify_matrix(a, order=5)
        assert report.passed and report.c1["max_rel_err"] == 0

    def test_nilpotent_is_q_only(self):
        a = IntMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        cf = analyze_matrix(a).closed
        assert cf.factors == ()
        assert closed_form_counts(cf, 6) == [2, 1, 0, 0, 0, 0]
        assert verify_matrix(a, order=6).c1["max_rel_err"] == 0

    def test_order_zero(self):
        cf = analyze_matrix(ARROW_AND_CHAIN).closed
        assert closed_form_counts(cf, 0) == []
        report = verify_matrix(ARROW_AND_CHAIN, order=0)
        assert report.passed and report.c1["max_rel_err"] == 0

    def test_order_below_size(self):
        a = IntMatrix([[1 if i <= j else 0 for j in range(6)] for i in range(6)])
        cf = analyze_matrix(a).closed
        assert closed_form_counts(cf, 2) == chain_counts(a, 2)[1:]
        report = verify_matrix(a, order=2)
        assert report.passed and report.c1["max_rel_err"] == 0

    def test_order_within_the_window_reads_the_analysis(self, monkeypatch):
        """K <= W: analyze_matrix matched #N_1..#N_W exactly, a superset
        of n = 1..K, so verify asks closed_form_counts for nothing more."""
        a = IntMatrix([[1 if i <= j else 0 for j in range(6)] for i in range(6)])
        calls = []
        monkeypatch.setattr(zeta_module, "closed_form_counts",
                            recording(calls, closed_form_counts))
        report = verify_matrix(a, order=4)
        assert report.passed and report.c1["max_rel_err"] == 0
        assert calls == [6]

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            closed_form_counts(analyze_matrix(ARROW_AND_CHAIN).closed, -1)
        with pytest.raises(ValueError):
            verify_matrix(ARROW_AND_CHAIN, order=-1)


class TestExactVerifyRoute:
    """The exact path compares log coefficients and never expands the
    closed form as a series; the numeric path still does."""

    def test_exact_path_skips_the_taylor_product(self, monkeypatch, fixture_categories,
                                                 fixture_matrices):
        order = 200

        def refuse(*args):
            raise AssertionError("series route used on the exact path")

        def short_products_only(a, b, n=None):
            # the Hermite expansions and recombinations multiply lists of length <= N + 1
            if max(len(a), len(b)) > order // 2:
                raise AssertionError("series-length product on the exact path")
            return real_mul(a, b, n)

        real_mul = zeta_module.mul_coeffs
        for name in ("closed_form_taylor", "series_from_pair", "exp_trunc"):
            monkeypatch.setattr(zeta_module, name, refuse)
        monkeypatch.setattr(zeta_module, "mul_coeffs", short_products_only)
        mats = [adjacency(c) for c in fixture_categories.values()]
        mats += list(fixture_matrices.values())
        exact = 0
        for a in mats:
            if analyze_matrix(a).path == "exact":
                report = verify_matrix(a, order=order)
                assert report.path == "exact" and report.passed
                exact += 1
        assert exact >= 7

    def test_numeric_path_keeps_the_taylor_route(self, monkeypatch, fixture_matrices):
        calls = []
        real = zeta_module.closed_form_taylor

        def counting(cf, order):
            calls.append(order)
            return real(cf, order)

        monkeypatch.setattr(zeta_module, "closed_form_taylor", counting)
        sweeps = counted_sweeps(monkeypatch)
        report = verify_matrix(fixture_matrices["pell"], order=20)
        assert report.path == "numeric" and report.passed
        assert calls == [20]
        assert sweeps == [2]  # the pencil's N steps; the series' counts from P's recurrence


integer_matrices = st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
).map(IntMatrix)


@st.composite
def triangular_matrices(draw):
    """Upper triangular, with the diagonal (the eigenvalues) drawn from four
    values so that they repeat; 0 adds a nilpotent part."""
    n = draw(st.integers(min_value=1, max_value=6))
    diag = draw(st.lists(st.sampled_from([-1, 0, 1, 2]), min_size=n, max_size=n))
    upper = st.integers(min_value=-2, max_value=2)
    return IntMatrix([[diag[i] if i == j else draw(upper) if i < j else 0
                       for j in range(n)] for i in range(n)])


_posets = st.randoms(use_true_random=False).map(
    lambda rng: poset_category(random_poset_relation(rng)))
exact_inputs = st.one_of(
    _posets.map(adjacency),
    st.tuples(_posets, st.sampled_from(monoids_up_to_3())).map(
        lambda pm: adjacency(product(pm[0], monoid_delooping(pm[1])))),
    triangular_matrices(),
)


def recording(calls, real):
    """real(cf, order), recording each order it is asked for."""
    def wrapped(cf, order):
        calls.append(order)
        return real(cf, order)
    return wrapped


def counted_sweeps(monkeypatch):
    """Patch chain_vectors where it is looked up, and return the list of
    steps v <- A v taken by each sweep, chain_counts' included."""
    sweeps = []

    def sweep(a):
        sweeps.append(-1)
        for v in chain_vectors(a):
            sweeps[-1] += 1
            yield v

    for module in (category_module, zeta_module):
        monkeypatch.setattr(module, "chain_vectors", sweep)
    return sweeps


def exact_ladder_item(n):
    """poset(N - 4) + poset(2) x monoid + monoid + monoid, N objects and
    every eigenvalue an integer, as on the benchmark's exact ladder."""
    rng = random.Random(n)
    m = n - 4
    rel = [[int(i == j or (i < j and rng.random() < 0.2)) for j in range(m)] for i in range(m)]
    for k in range(m):  # transitive closure, row by row
        for i in range(m):
            if rel[i][k]:
                rel[i] = [x | y for x, y in zip(rel[i], rel[k])]
    monoids = monoids_up_to_3()
    pair = product(poset_category([[1, 1], [0, 1]]), monoid_delooping(monoids[3]))
    loops = disjoint_union(monoid_delooping(monoids[5]), monoid_delooping(monoids[-1]))
    return adjacency(disjoint_union(disjoint_union(poset_category(rel), pair), loops))


def _q_term_at(cf, degree):
    """The closed form with z^degree / degree added to Q: c_degree goes up by 1."""
    return replace(cf, q_integral=cf.q_integral + RatPoly([0] * degree + [Fraction(1, degree)]))


def _beta_at(cf, j):
    """The closed form with beta_j = 1/7 on its first factor, past the root's
    multiplicity: c_n goes up by C(n, j) alpha^(n-j) / 7 from n = j on."""
    factor = cf.factors[0]
    betas = factor.betas + (Fraction(0),) * (j - 1 - len(factor.betas)) + (Fraction(1, 7),)
    return replace(cf, factors=(replace(factor, betas=betas),) + cf.factors[1:])


class TestC1Window:
    """The analysis compares n = 1..W, the window, and on the exact path C1
    proves every other order from it and facts (a)-(c), (a) by the
    pencil's certificate P(A) 1 = 0; the report stays that of the K-term
    comparison, c1_k_term_oracle."""

    @given(integer_matrices)
    @example(IntMatrix([]))
    @example(IntMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]))  # nilpotent
    @example(IntMatrix([[1, 1], [1, 1]]))  # singular
    @example(IntMatrix([[2, 1, 0], [0, 2, 1], [0, 0, 2]]))  # one eigenvalue, a Jordan block
    @example(IntMatrix([[2, 0, 0], [0, 2, 0], [0, 0, 2]]))  # one eigenvalue, diagonal
    @example(IntMatrix([[0, -1], [1, 0]]))  # irrational spectrum
    @settings(max_examples=150, deadline=None)
    def test_certificate_holds_for_the_true_charpoly(self, a):
        bundle, chains = bundle_from_sweep(lambda: chain_vectors(a), block_traces(a))
        assert bundle.d == det_poly(a)  # the Bareiss oracle's
        assert chains == chain_counts(a, a.n)
        cp = monic_charpoly(bundle.d.coeffs, a.n)
        assert len(cp) == a.n + 1 and cp[-1] == 1

    def test_perturbed_charpoly_is_refused(self, monkeypatch):
        a = IntMatrix([[1, 1, 0], [0, 3, 1], [1, 0, 2]])  # v_0, v_1, v_2 independent
        real = charpoly_module.monic_charpoly
        bundle_from_sweep(lambda: chain_vectors(a), block_traces(a))  # accepted as it stands
        for i in range(a.n + 1):  # p_i + 1 adds v_i
            monkeypatch.setattr(charpoly_module, "monic_charpoly",
                                lambda d, n: [p + (j == i) for j, p in enumerate(real(d, n))])
            with pytest.raises(ArithmeticError, match="Cayley-Hamilton"):
                bundle_from_sweep(lambda: chain_vectors(a), block_traces(a))
        monkeypatch.setattr(charpoly_module, "monic_charpoly",
                            lambda d, n: real(d, n)[1:])
        with pytest.raises(ArithmeticError, match="Cayley-Hamilton"):
            bundle_from_sweep(lambda: chain_vectors(a), block_traces(a))

    def test_refused_certificate_raises(self, monkeypatch):
        """No K-term route: a d that the sweep refuses ends verify.  Every
        block is 1 x 1, so d is spoilt through the diagonal counts: block
        i's entry + 2 leaves e_lambda < c_lambda for its own entry, mu~ no
        longer divides P, and the N-step sweep refuses P(A) 1."""
        calls, real = [], zeta_module.block_traces
        monkeypatch.setattr(zeta_module, "closed_form_counts",
                            recording(calls, closed_form_counts))
        for i in range(ARROW_AND_CHAIN.n):
            def spoilt(a, i=i):
                traces, bound = real(a)
                return traces[:i] + [[traces[i][0] + 2]] + traces[i + 1:], bound

            monkeypatch.setattr(zeta_module, "block_traces", spoilt)
            with pytest.raises(ArithmeticError, match="Cayley-Hamilton"):
                verify_matrix(ARROW_AND_CHAIN, order=3 * ARROW_AND_CHAIN.n)
        assert calls == []

    @pytest.mark.parametrize("fact", ["c", "b"])
    def test_a_failed_fact_takes_the_k_term_route(self, monkeypatch, fact):
        """(c) deg Q > N - deg d, or (b) a beta_j with j >= e.  Either way
        the first mismatch is at n = N + 1, past the window, and only the
        K-term comparison sees it."""
        a = ARROW_AND_CHAIN
        n, order = a.n, 3 * a.n
        real = zeta_module.closed_form
        if fact == "c":
            def spoil(cf):
                return _q_term_at(cf, n + 1)
        else:
            def spoil(cf):
                return _beta_at(cf, n + 1)
        analysis = analyze_matrix(a)
        bad = spoil(analysis.closed)
        assert closed_form_counts(bad, n) == chain_counts(a, n)[1:]
        assert closed_form_counts(bad, n + 1)[-1] != chain_counts(a, n + 1)[-1]
        assert not zeta_module._c1_certified(replace(analysis, closed=bad))
        monkeypatch.setattr(zeta_module, "closed_form", lambda *args: spoil(real(*args)))
        report = verify_matrix(a, order=order)
        assert report.path == "exact" and not report.c1["pass"]
        assert report.c1["max_rel_err"] == c1_k_term_oracle(bad, a, order) > 0

    @pytest.mark.parametrize("case", ["monoid", "nilpotent"])
    def test_first_mismatch_at_n_equal_to_N(self, monkeypatch, case):
        """A closed form off first at n = N = W, with facts (a)-(c) intact,
        is refused by the analysis's check of the window.  A
        shift of one beta_j first shows at n = max(j, 1) <= e - 1 < N once
        N >= 2, so for beta0 that takes N = 1 (a monoid delooping); the
        nilpotent case moves Q's top coefficient instead (deg Q = N)."""
        if case == "monoid":
            a = IntMatrix([[3]])

            def spoil(cf):
                return _perturbed(cf, "beta0")
        else:
            a = IntMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])

            def spoil(cf):
                return _q_term_at(cf, 3)
        n, order = a.n, 4 * a.n
        analysis = analyze_matrix(a)
        bad = spoil(analysis.closed)
        # a window of N - 1 orders would miss it
        assert closed_form_counts(bad, n - 1) == chain_counts(a, n - 1)[1:]
        assert closed_form_counts(bad, n)[-1] != chain_counts(a, n)[-1]
        assert zeta_module._c1_certified(replace(analysis, closed=bad))
        assert analysis.window == n and c1_k_term_oracle(bad, a, order) > 0
        calls, real = [], zeta_module.closed_form
        monkeypatch.setattr(zeta_module, "closed_form", lambda *args: spoil(real(*args)))
        monkeypatch.setattr(zeta_module, "closed_form_counts",
                            recording(calls, closed_form_counts))
        with pytest.raises(ArithmeticError, match=f"at n = {n}, not #N_{n} = "):
            verify_matrix(a, order=order)
        assert calls == [n]  # the analysis's window finds it

    def test_first_mismatch_at_the_window_edge(self, monkeypatch):
        """The window is (N - deg d) + sum e' = 2 orders for an arrow beside
        two points (root 1, e = 4, e' = 2).  beta0 - 1/7 and beta_1 + 1/7
        shift c_n by (n - 1)/7: off first at n = 2, with every fact intact,
        which the analysis's check of the window refuses."""
        a = ARROW_AND_TWO_POINTS
        n, order = a.n, 3 * a.n
        analysis = analyze_matrix(a)
        window = n - analysis.bundle.d.degree + sum(analysis.closed.reduced)
        assert analysis.closed.reduced == (2,) and window == 2 < n

        def spoil(cf):
            (f,) = cf.factors
            delta = Fraction(1, 7)
            return replace(cf, factors=(replace(f, beta0=f.beta0 - delta,
                                                betas=(f.betas[0] + delta,) + f.betas[1:]),))

        bad = spoil(analysis.closed)
        assert closed_form_counts(bad, window - 1) == chain_counts(a, window - 1)[1:]
        assert closed_form_counts(bad, window)[-1] != chain_counts(a, window)[-1]
        assert zeta_module._c1_certified(replace(analysis, closed=bad))
        assert c1_k_term_oracle(bad, a, order) > 0
        calls, real = [], zeta_module.closed_form
        monkeypatch.setattr(zeta_module, "closed_form", lambda *args: spoil(real(*args)))
        monkeypatch.setattr(zeta_module, "closed_form_counts",
                            recording(calls, closed_form_counts))
        with pytest.raises(ArithmeticError, match=f"at n = {window}, not #N_{window} = "):
            verify_matrix(a, order=order)
        assert calls == [window]

    @pytest.mark.parametrize("j", [2, 3])
    def test_a_beta_past_the_reduced_multiplicity_takes_the_k_term_route(self, monkeypatch, j):
        """beta_j with e' <= j < e is an exact zero of the reduced fraction.
        Made nonzero, it breaks fact (b) and first shows at n = j >= the
        window W = 2.  At j = 2, the window's edge, the analysis refuses it;
        at j = 3, past it, only the K-term comparison sees it."""
        a = ARROW_AND_TWO_POINTS
        order = 3 * a.n
        analysis = analyze_matrix(a)
        (f,) = analysis.closed.factors
        assert analysis.closed.reduced == (2,) and f.multiplicity == 4 and f.betas[j - 1] == 0
        window = analysis.window
        assert window == 2

        def spoil(cf):
            (f,) = cf.factors
            betas = list(f.betas)
            betas[j - 1] = Fraction(1, 7)
            return replace(cf, factors=(replace(f, betas=tuple(betas)),))

        bad = spoil(analysis.closed)
        assert closed_form_counts(bad, j - 1) == chain_counts(a, j - 1)[1:]
        assert closed_form_counts(bad, j)[-1] != chain_counts(a, j)[-1]
        assert not zeta_module._c1_certified(replace(analysis, closed=bad))
        calls, real = [], zeta_module.closed_form
        monkeypatch.setattr(zeta_module, "closed_form", lambda *args: spoil(real(*args)))
        monkeypatch.setattr(zeta_module, "closed_form_counts",
                            recording(calls, closed_form_counts))
        if j == window:
            with pytest.raises(ArithmeticError, match=f"at n = {j}, not #N_{j} = "):
                verify_matrix(a, order=order)
            assert calls == [window]
            return
        report = verify_matrix(a, order=order)
        assert report.path == "exact" and not report.c1["pass"]
        assert report.c1["max_rel_err"] == c1_k_term_oracle(bad, a, order) > 0
        assert calls == [window, order]

    @given(exact_inputs, st.data(), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_window_report_equals_the_k_term_report(self, a, data, perturb):
        """A perturbation that shows in the window ends the analysis; one
        that does not (W = 0) leaves the report of the K-term comparison."""
        order = data.draw(st.integers(min_value=0, max_value=3 * a.n), label="order")
        real = zeta_module.closed_form

        def closed(*args):
            cf = real(*args)
            return _perturbed(cf, "beta0") if perturb and cf.factors else cf

        analysis = analyze_matrix(a)
        window = analysis.window
        if closed_form_counts(closed(*analysis.bundle.pair, analysis.rootset), window) \
                != list(analysis.chains[1:window + 1]):
            with mock.patch.object(zeta_module, "closed_form", closed):
                with pytest.raises(ArithmeticError, match="at n = "):
                    verify_matrix(a, order=order)
            return
        with mock.patch.object(zeta_module, "closed_form", closed):
            report = verify_matrix(a, order=order)
            with mock.patch.object(zeta_module, "_c1_certified", lambda *args: False):
                k_term = verify_matrix(a, order=order)
            cf = analyze_matrix(a).closed
        assert report.path == "exact"
        assert report == k_term
        assert report.c1["max_rel_err"] == c1_k_term_oracle(cf, a, order)
        assert report.c1["pass"] == (report.c1["max_rel_err"] == 0)

    def test_exact_verify_sweeps_n_steps_whatever_k(self, monkeypatch):
        """Counted, not timed: at K = 3000 the exact path sweeps A for
        s = deg mu~ steps, well below N (13 at N = 36), and asks
        closed_form_counts for (N - deg d) + sum e' orders, the window,
        well below N here."""
        a, calls = exact_ladder_item(36), []
        analysis = analyze_matrix(a)
        window = a.n - analysis.bundle.d.degree + sum(analysis.closed.reduced)
        assert window < a.n // 2
        s = sum(block_traces(a)[1].values())
        assert s == 13
        sweeps = counted_sweeps(monkeypatch)
        monkeypatch.setattr(zeta_module, "closed_form_counts",
                            recording(calls, closed_form_counts))
        report = verify_matrix(a, order=3000)
        assert report.path == "exact" and report.passed
        assert sweeps == [s] and calls == [window]

    def test_k_term_verify_sweeps_once(self, monkeypatch):
        """With facts (b) and (c) taken as failed, C1 compares n = 1..K;
        #N_(s+1)..#N_K come from the pair's recurrence, not a new sweep."""
        a, calls, order = exact_ladder_item(36), [], 100
        analysis = analyze_matrix(a)
        s = sum(block_traces(a)[1].values())
        sweeps = counted_sweeps(monkeypatch)
        monkeypatch.setattr(zeta_module, "_c1_certified", lambda *args: False)
        monkeypatch.setattr(zeta_module, "closed_form_counts",
                            recording(calls, closed_form_counts))
        report = verify_matrix(a, order=order)
        assert report.passed and report.c1["max_rel_err"] == 0
        assert sweeps == [s] and calls == [analysis.window, order]

    def test_exact_verify_keeps_no_sweep_vectors(self):
        """The certificate adds each vector into one running sum, so the
        peak allocation of one verify call at N = 36 stays small."""
        a = exact_ladder_item(36)
        verify_matrix(a, order=30)  # warm caches and imports up
        tracemalloc.start()
        try:
            verify_matrix(a, order=30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 1024

    def test_verify_on_an_adjacency_holds_no_dense_rows(self):
        """adjacency gives the support straight from the morphisms, and
        verify reads only the support, so neither holds N^2 ints: the dense
        rows of discrete(3000) alone would take about 70 MB."""
        c = discrete(3000)
        tracemalloc.start()
        try:
            report = verify_matrix(adjacency(c), order=30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and report.path == "exact"
        assert peak < 32 * 1024 * 1024


class TestAnalysis:
    def test_exact_path_for_posets(self, fixture_categories):
        for name in ("terminal", "p2", "s"):
            assert analyze_matrix(adjacency(fixture_categories[name])).path == "exact"

    def test_counts_past_n_come_from_the_recurrence(self, monkeypatch):
        """zeta --closed's counts to K: v_0 .. v_s are swept, s = deg mu~,
        and the rest read off mu~'s recurrence."""
        a = exact_ladder_item(36)
        want = tuple(chain_counts(a, 200))
        s = sum(block_traces(a)[1].values())
        sweeps = counted_sweeps(monkeypatch)
        analysis = analyze_matrix(a)
        assert tuple(analysis.counts(200)) == want
        assert sweeps == [s] and s < a.n

    def test_numeric_path_for_irrational_spectrum(self, fixture_matrices):
        analysis = analyze_matrix(fixture_matrices["pell"])
        assert analysis.path == "numeric"
        assert analysis.closed.arithmetic.precision == 128


def pickled(x):
    return pickle.loads(pickle.dumps(x))


class TestCopyAndPickle:
    """The immutable values rebuild through their constructors, so copy,
    deepcopy and pickle take them, and the analyses that hold them."""

    @pytest.mark.parametrize("how", [copy.copy, copy.deepcopy, pickled])
    @pytest.mark.parametrize("x", [
        IntMatrix([[10**40, -1], [0, 2]]), IntMatrix([]), adjacency(discrete(3)),
        RatPoly([1, Fraction(-1, 2), 3]), RatPoly([]),
        RatSeries(2, [1, Fraction(1, 3), 5])])
    def test_round_trip(self, x, how):
        y = how(x)
        assert type(y) is type(x) and y == x and hash(y) == hash(x) and repr(y) == repr(x)

    @pytest.mark.parametrize("name,path", [("jordan2", "exact"), ("pell", "numeric")])
    @pytest.mark.parametrize("how", [copy.deepcopy, pickled])
    def test_analysis(self, fixture_matrices, name, path, how):
        analysis = analyze_matrix(fixture_matrices[name])
        twin = how(analysis)
        assert analysis.path == twin.path == path
        assert twin == analysis and repr(twin) == repr(analysis)
        assert twin.bundle.pair == analysis.bundle.pair
        assert twin.counts(40) == analysis.counts(40)

    def test_pickle_of_an_adjacency_holds_no_dense_rows(self):
        """An IntMatrix pickles its support, so discrete(3000), whose dense
        rows would take about 70 MB, goes both ways in a few."""
        a = adjacency(discrete(3000))
        tracemalloc.start()
        try:
            b = pickled(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert b == a and b.n == 3000
        assert peak < 32 * 1024 * 1024


class TestVerification:
    def test_exact_report_fields(self, fixture_categories):
        report = verify_matrix(adjacency(fixture_categories["p2"]), order=12)
        assert report.passed
        assert report.path == "exact"
        assert report.chi == 1
        assert report.c1["max_rel_err"] == 0
        assert report.c2["sum"] == 2
        assert (report.c2["applicable"], report.c4["applicable"]) == (True, True)
        assert report.c4["value"] == report.c4["target"] == 1
        assert all(r == 0 for r in report.c3["residuals"])

    def test_all_fixture_categories_verify(self, fixture_categories):
        for name, c in fixture_categories.items():
            assert verify_matrix(adjacency(c), order=15).passed, name

    def test_synthetic_matrices_verify(self, fixture_matrices):
        for name, a in fixture_matrices.items():
            report = verify_matrix(a, order=15)
            assert report.passed, name

    def test_huge_diagonal_verifies_fast(self):
        # d = (1 - 10^30 z)^11: eleven 1 x 1 blocks, one root of tiny size
        a = IntMatrix([[10**30 if i == j else 0 for j in range(11)] for i in range(11)])
        start = time.perf_counter()
        report = verify_matrix(a)
        elapsed = time.perf_counter() - start
        assert report.passed
        assert report.path == "exact"
        assert elapsed < 0.5

    @pytest.mark.parametrize("k", [11, 20, 30])
    def test_a_root_past_2_to_the_32_converges(self, k):
        # d = 1 - 10^k z - z^2 has a root near -10^k, where an absolute
        # Aberth step cannot shrink below one ulp at 128 + 64 bits
        report = verify_matrix(IntMatrix([[10**k, 1], [1, 0]]), precision_bits=128)
        assert report.path == "numeric" and report.passed

    def test_tiny_root_in_one_block_verifies_fast(self):
        # one 2 x 2 block with d = (1 - z)(1 - 10^14 z): the rational-root
        # search must find 1/10^14 without trial-dividing up to 10^7
        a = IntMatrix([[10**14 - 1, 2], [5 * 10**13 - 1, 2]])
        start = time.perf_counter()
        report = verify_matrix(a)
        elapsed = time.perf_counter() - start
        assert report.passed
        assert report.path == "exact"
        assert elapsed < 0.5

    def test_semiprime_eigenvalue_verifies_fast(self):
        # [[q - 1, 1], [q - 2, 2]] is one strongly connected block with
        # eigenvalues 1 and q = p1 p2, two 12-digit primes, so its root
        # 1/q must be found without splitting q
        q = 900000000013 * 900012345697
        a = IntMatrix([[q - 1, 1], [q - 2, 2]])
        start = time.perf_counter()
        report = verify_matrix(a)
        elapsed = time.perf_counter() - start
        assert report.passed
        assert report.path == "exact"
        assert elapsed < 0.5

    @pytest.mark.parametrize("rows, path", [
        ([[2, 0], [0, -3]], "exact"),
        ([[1, 0, 0], [0, 1, 2], [0, 1, 1]], "numeric"),
    ])
    def test_c3_residual_is_the_value_of_the_charpoly(self, monkeypatch, rows, path):
        # checked against cp + t^2 + 1, every rational alpha leaves the
        # residual |cp(alpha) + alpha^2 + 1| = alpha^2 + 1, exactly
        real = zeta_module.monic_charpoly
        monkeypatch.setattr(zeta_module, "monic_charpoly",
                            lambda d, n: [p + (i in (0, 2)) for i, p in enumerate(real(d, n))])
        report = verify_matrix(IntMatrix(rows), order=6)
        assert report.path == path and not report.c3["pass"]
        cf = analyze_matrix(IntMatrix(rows)).closed
        got = [res for res, f in zip(report.c3["residuals"], cf.factors) if f.kind == "rational"]
        want = [1 / f.theta ** 2 + 1 for f in cf.factors if f.kind == "rational"]
        assert got == want if path == "exact" else [float(x) for x in got] == want

    def test_c3_checks_each_rational_alpha_on_a_block_of_a(self, monkeypatch):
        """Traces (3, 5) for [[1, 1], [1, 1]] (really (2, 4)) give
        d = (1 - z)(1 - 2z), which the certificate accepts: the sweep only
        sees the eigenvector 1.  The pencil's trace check refuses it
        (-d_1 = 3, tr A = 2); with that check off, alpha = 1 is a root of
        cp but no eigenvalue of A, so C3 fails, with both residuals still
        zero."""
        a = IntMatrix([[1, 1], [1, 1]])
        assert verify_matrix(a, order=10).passed
        monkeypatch.setattr(zeta_module, "block_traces", lambda *args: ([[3, 5]], None))
        with pytest.raises(ArithmeticError, match="not tr A = 2"):
            verify_matrix(a, order=10)
        monkeypatch.setattr(zeta_module, "check_pencil", lambda *args: None)
        report = verify_matrix(a, order=10)
        assert report.path == "exact" and not report.c3["pass"] and not report.passed
        assert report.c3["residuals"] == (0, 0)

    def test_c3_reads_a_1x1_block_off_a_not_the_pencil(self, monkeypatch):
        """Traces ([1], [2]) for [[1, 1], [1, 1]] claim two 1 x 1 blocks, so
        d = (1 - z)(1 - 2z) with the root theta = 1 in the pencil's diagonal
        counts; the certificate, C1, C2 and C4 accept it.  The pencil's
        trace check refuses it; with that check off, theta = 1 cancels
        (e' = 0), and 1 is no eigenvalue of A's one 2 x 2 block, so C3 fails."""
        monkeypatch.setattr(zeta_module, "block_traces", lambda *args: ([[1], [2]], None))
        with pytest.raises(ArithmeticError, match="not tr A = 2"):
            verify_matrix(IntMatrix([[1, 1], [1, 1]]), order=10)
        monkeypatch.setattr(zeta_module, "check_pencil", lambda *args: None)
        report = verify_matrix(IntMatrix([[1, 1], [1, 1]]), order=10)
        assert report.path == "exact" and report.c3["residuals"] == (0, 0)
        assert report.c1["pass"] and report.c2["pass"] and report.c4["pass"]
        assert report.c3["pass"] is False and report.passed is False

    def test_only_a_cancelled_root_goes_to_the_blocks(self, monkeypatch):
        """A pole of m/d is an eigenvalue of A by the sweep alone; the root
        1/4 of [[3, -1], [-1, 3]] cancels (e' = 0), so it alone is looked
        up on the blocks, and found there."""
        calls, real = [], charpoly_module.eigenvalue_of_a_block
        monkeypatch.setattr(zeta_module, "eigenvalue_of_a_block",
                            lambda a, theta: calls.append(theta) or real(a, theta))
        report = verify_matrix(IntMatrix([[3, -1], [-1, 3]]), order=10)
        assert report.passed and calls == [Fraction(1, 4)]

    def test_eigenvalues_read_off_the_blocks(self):
        # the block {0, 1} has eigenvalues 2 and -1, the 1 x 1 block {2} has 2
        a = IntMatrix([[1, 2, 1], [1, 0, 1], [0, 0, 2]])
        assert charpoly_module.char_poly_bundle(a).diagonal == ((2, 1),)
        assert charpoly_module.eigenvalue_of_a_block(a, Fraction(1, 2))
        assert charpoly_module.eigenvalue_of_a_block(a, Fraction(-1))
        # with 3 in place of 2, only the 1 x 1 block {2} carries it
        b = IntMatrix([[1, 2, 1], [1, 0, 1], [0, 0, 3]])
        assert charpoly_module.eigenvalue_of_a_block(b, Fraction(1, 3))
        assert not charpoly_module.eigenvalue_of_a_block(a, Fraction(1, 3))
        assert not charpoly_module.eigenvalue_of_a_block(a, Fraction(2))

    @given(integer_matrices)
    @settings(max_examples=100, deadline=None)
    def test_singular_matches_the_bareiss_oracle(self, a):
        assert charpoly_module._singular([list(row) for row in a.rows]) == \
            (bareiss_det([list(row) for row in a.rows]) == 0)

    def test_numeric_path_report(self, fixture_matrices):
        report = verify_matrix(fixture_matrices["pell"], order=20)
        assert report.path == "numeric"
        assert report.passed
        assert report.chi == 1
        assert float(report.c1["max_rel_err"]) < 1e-20
        assert float(report.c2["residual"]) < 1e-20

    def test_higher_precision_accepted(self, fixture_matrices):
        report = verify_matrix(fixture_matrices["pell"], order=10,
                               precision_bits=256)
        assert report.passed
        assert report.precision == 256

    def test_inapplicable_identities_reported_as_none(self, fixture_matrices):
        report = verify_matrix(fixture_matrices["shift2"], order=10)
        assert not report.chi_exists
        assert report.c2["pass"] is None and report.c4["pass"] is None
        assert report.passed  # only the applicable identities count

    def test_vanishing_chi_exercises_alternating_sum(self, fixture_matrices):
        report = verify_matrix(fixture_matrices["rot90"], order=12)
        assert report.path == "numeric"
        assert report.c4["applicable"]
        assert report.c4["target"] == 0
        assert report.passed

    @pytest.mark.parametrize("bits", [64, 128])
    def test_alternating_sum_is_relative_to_chi(self, monkeypatch, bits):
        """chi = 10^30 + 3, of which C4's sum is about two ulps off at 64
        bits: C4 is judged against max(1, |chi|), as C1 against
        max(1, |want|), and PASSes.  beta0 off by 1/7 at alpha ~ 10^-30
        moves the sum by about 10^29 and still FAILs it."""
        a = IntMatrix([[0, 1, 0], [0, 0, 1], [1, -10**30, 0]])
        report = verify_matrix(a, precision_bits=bits)
        assert report.path == "numeric" and report.chi == 10**30 + 3
        assert report.c4["pass"] and report.passed
        from mpmath import mp
        real = zeta_module.closed_form

        def spoil(cf):
            k = min(range(len(cf.factors)), key=lambda i: abs(cf.factors[i].alpha))
            bad = replace(cf.factors[k], beta0=cf.factors[k].beta0 + mp.mpf(1) / 7)
            return replace(cf, factors=cf.factors[:k] + (bad,) + cf.factors[k + 1:])

        monkeypatch.setattr(zeta_module, "closed_form", lambda *args: spoil(real(*args)))
        report = verify_matrix(a, precision_bits=bits)
        assert report.c4["pass"] is False and float(report.c4["residual"]) > 1e28


class TestChecksOnInts:
    """C2's beta0 sum and C4's alternating sum, which verify adds as ints
    over one denominator, against their Fraction forms in oracles."""

    @staticmethod
    def assert_as_fractions(a):
        report = verify_matrix(a, order=12)
        cf = analyze_matrix(a).closed
        assert report.path == "exact"
        assert report.c2["sum"] == c2_sum_oracle(cf)
        assert report.c4["value"] == c4_sum_oracle(cf)
        assert type(report.c2["sum"]) is type(report.c4["value"]) is Fraction

    def test_exact_corpus(self, corpus_matrices):
        exact = 0
        for _, a in corpus_matrices:
            if analyze_matrix(a).path == "exact":
                self.assert_as_fractions(a)
                exact += 1
        assert exact >= 200

    def test_repeated_roots(self, fixture_matrices):
        a = fixture_matrices["jordan2"]
        assert max(f.multiplicity for f in analyze_matrix(a).closed.factors) == 2
        self.assert_as_fractions(a)

    @pytest.mark.parametrize("rows", [[[-2, 1], [0, -2]], [[-1, 1, 0], [0, -1, 1], [0, 0, 3]]])
    def test_negative_repeated_roots(self, rows):
        """A negative alpha gives C4's odd terms negative denominators."""
        self.assert_as_fractions(IntMatrix(rows))

    @pytest.mark.parametrize("n", [12, 20, 28, 36])
    def test_exact_ladder_multiplicity_up_to_32(self, n):
        a = exact_ladder_item(n)
        assert max(f.multiplicity for f in analyze_matrix(a).closed.factors) >= n - 4
        self.assert_as_fractions(a)


def violations(points):
    """The indices of the points classified "violation"."""
    return tuple(i for i, pt in enumerate(points) if pt.classification == "violation")


class TestSingularities:
    def report_for(self, rows):
        return singularity_report(analyze_matrix(IntMatrix(rows)).closed)

    def test_pole_with_essential_part(self):
        points = self.report_for([[1, 1], [0, 1]])
        (pt,) = points
        assert pt.classification == "pole"
        assert pt.pole_order == 2
        assert pt.essential
        assert violations(points) == ()

    def test_plain_poles(self):
        (pt,) = self.report_for([[2]])
        assert (pt.classification, pt.pole_order, pt.essential) == ("pole", 1, False)
        (pt,) = self.report_for([[1, 1], [1, 1]])
        assert (pt.classification, pt.pole_order, pt.essential) == ("pole", 2, False)

    def test_numeric_conjugate_poles(self):
        cf = analyze_matrix(IntMatrix([[0, 1], [-1, 0]])).closed
        points = singularity_report(cf)
        assert len(points) == 2
        for factor, pt in zip(cf.factors, points):
            assert factor.kind == "numeric"
            assert pt.classification == "pole"
            assert pt.pole_order == 1
        assert violations(points) == ()

    def test_no_roots_no_points(self):
        points = self.report_for([[1, 1], [-1, -1]])
        assert points == ()
        assert violations(points) == ()

    def test_zero_of_zeta(self):
        # idempotent with a negative column: zeta = 1 - z exactly
        a = IntMatrix([[1, 0], [-2, 0]])
        assert list(zeta_series(a, 3).coeffs) == [1, -1, 0, 0]
        cf = analyze_matrix(a).closed
        points = singularity_report(cf)
        (pt,), (factor,) = points, cf.factors
        assert pt.classification == "zero"
        assert factor.beta0 == -1
        assert pt.pole_order is None
        assert violations(points) == ()

    def test_cancelling_root_flagged_as_violation(self):
        # zeta = (1 - z)^(-2) but d = 1 - z^2: the root at -1 carries no
        # exponent at all, which the report must flag rather than hide.
        cf = analyze_matrix(IntMatrix([[1, 2], [0, -1]])).closed
        points = singularity_report(cf)
        assert violations(points)
        flagged = [points[i] for i in violations(points)]
        assert [pt.classification for pt in flagged] == ["violation"]
        assert [cf.factors[i].theta for i in violations(points)] == [-1]

    def test_essential_only_point(self):
        # m/d = 1 / (z - 1)^2, a term with vanishing residue but a live
        # inner coefficient: beta0 = 0, beta1 = 1
        rootset = RootSet(roots=(Root(Fraction(1), 2),), lead=Fraction(1), precision=128)
        cf = closed_form(RatPoly([1]), RatPoly([1, -2, 1]), rootset)
        (f,) = cf.factors
        assert f.beta0 == 0 and f.betas == (1,)
        points = singularity_report(cf)
        (pt,) = points
        assert pt.classification == "essential"
        assert pt.essential and pt.pole_order is None
        assert violations(points) == ()

    def test_purely_imaginary_residue_is_essential(self):
        # hand-built numeric factor with beta0 = i: neither a pole nor a zero
        from mpmath import mp
        arith = Arithmetic(False, 128)
        with arith.context():
            factor = ZetaFactor(theta=mp.mpc(2), alpha=mp.mpc(0.5), multiplicity=1,
                                kind="numeric", beta0=mp.mpc(0, 1), betas=())
        cf = ClosedFormZeta(q_integral=RatPoly.zero(), factors=(factor,), arithmetic=arith,
                            reduced=(1,))
        points = singularity_report(cf)
        (pt,) = points
        assert (pt.classification, pt.essential, pt.pole_order) == ("essential", False, None)
        assert violations(points) == ()
