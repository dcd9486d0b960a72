"""Zeta series, partial fractions, closed form, verification, singularities."""

import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from catzeta import (
    ClosedFormZeta,
    IntMatrix,
    PartialFractionDecomposition,
    RatPoly,
    RatSeries,
    Root,
    RootSet,
    ZetaFactor,
    adjacency,
    analyze_category,
    analyze_matrix,
    chain_counts,
    char_poly_bundle,
    closed_form,
    closed_form_counts,
    closed_form_taylor,
    disjoint_union,
    factor_charpoly,
    mul_trunc,
    partial_fractions,
    singularity_report,
    verify_conjecture,
    verify_matrix,
    zeta_series,
)
from catzeta import zeta as zeta_module
from catzeta.roots import Arithmetic
from oracles import closed_form_counts_oracle, log_derivative_check, log_trunc

small_nonneg_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
).map(IntMatrix)


class TestZetaSeries:
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
        from catzeta import chain_count
        a = adjacency(fixture_categories["k2"])
        logz = log_trunc(zeta_series(a, 6).coeffs)
        for m in range(1, 7):
            assert logz[m] == Fraction(chain_count(a, m), m)

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
        assert list(zeta_series(adjacency(u), 8).coeffs) == mul_trunc(
            zeta_series(adjacency(p2), 8).coeffs, zeta_series(adjacency(z2), 8).coeffs)


class TestPartialFractions:
    def analyze(self, rows):
        return analyze_matrix(IntMatrix(rows))

    def test_arrow_category(self):
        pfd = self.analyze([[1, 1], [0, 1]]).pfd
        assert pfd.q == RatPoly.zero()
        assert pfd.remainder == RatPoly([3, -2])
        assert pfd.rootset.lead == 1
        assert pfd.terms == ((Fraction(-2), Fraction(1)),)
        assert pfd.rootset.arithmetic.exact

    def test_parallel_pair(self):
        pfd = self.analyze([[1, 2], [0, 1]]).pfd
        assert pfd.terms == ((Fraction(-2), Fraction(2)),)

    def test_codiscrete_pair(self):
        pfd = self.analyze([[1, 1], [1, 1]]).pfd
        assert pfd.rootset.lead == -2
        assert pfd.terms == ((Fraction(4),),)

    def test_polynomial_part(self):
        pfd = self.analyze([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0],
                            [0, 0, 0, 1]]).pfd
        assert pfd.q == RatPoly([2, 1])

    def test_evaluates_to_rational_function(self):
        """Independent check: sum the terms at sample points away from roots."""
        for rows in ([[1, 1], [0, 1]], [[1, 2], [0, 1]], [[1, 1], [1, 1]],
                     [[2, 1], [0, 2]]):
            analysis = self.analyze(rows)
            pfd = analysis.pfd
            assert pfd.rootset.arithmetic.exact
            roots = pfd.rootset.roots
            for x in (Fraction(2), Fraction(3), Fraction(5, 7)):
                if any(r.theta == x for r in roots):
                    continue
                direct = pfd.remainder(x) / analysis.bundle.d(x)
                summed = sum(
                    (coeff / (pfd.rootset.lead * (x - r.theta) ** j)
                     for r, term in zip(roots, pfd.terms)
                     for j, coeff in enumerate(term, start=1)),
                    Fraction(0),
                )
                assert direct == summed, rows

    @staticmethod
    def assert_corrupt_term_caught(monkeypatch, a, exact, n_roots, j):
        bundle = char_poly_bundle(a)
        rs = factor_charpoly(bundle.d)
        assert rs.arithmetic.exact == exact
        k = next(i for i, root in enumerate(rs.roots) if root.multiplicity >= 3)
        assert len(rs.roots) == n_roots
        assert partial_fractions(bundle.m, bundle.d, rs).rootset.arithmetic.exact == exact
        real = zeta_module._hermite_terms

        def corrupt(*args):
            terms = real(*args)
            bad = list(terms[k])
            bad[j - 1] += Fraction(1, 3)
            return terms[:k] + [tuple(bad)] + terms[k + 1:]

        monkeypatch.setattr(zeta_module, "_hermite_terms", corrupt)
        with pytest.raises(ArithmeticError):
            partial_fractions(bundle.m, bundle.d, rs)

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
    def test_recombination_catches_a_corrupt_numeric_term(self, monkeypatch, j):
        # a 3-chain poset (root 1, e = 3) next to pell (roots -1 +- sqrt 2)
        a = IntMatrix([[1, 1, 1, 0, 0], [0, 1, 1, 0, 0], [0, 0, 1, 0, 0],
                       [0, 0, 0, 1, 2], [0, 0, 0, 1, 1]])
        self.assert_corrupt_term_caught(monkeypatch, a, False, 3, j)

    def test_standalone_call(self):
        bundle = char_poly_bundle(IntMatrix([[1, 1], [0, 1]]))
        rs = factor_charpoly(bundle.d)
        pfd = partial_fractions(bundle.m, bundle.d, rs)
        assert pfd.terms == ((Fraction(-2), Fraction(1)),)


class TestClosedForm:
    def factors_of(self, rows):
        return analyze_matrix(IntMatrix(rows)).closed

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
                                      arithmetic=Arithmetic(True, 128)),
    st.lists(_small_fractions, max_size=4), st.lists(_hand_built_factors, max_size=3))


def _perturbed(cf, what):
    """The closed form with one ingredient off by 1/7."""
    delta = Fraction(1, 7)
    if what == "Q":
        return replace(cf, q_integral=cf.q_integral + RatPoly.monomial(1, delta))
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
        cf = analyze_matrix(ARROW_AND_CHAIN).closed
        assert cf.q_integral != RatPoly.zero() and cf.factors[0].betas
        bad = _perturbed(cf, what)
        series = zeta_series(ARROW_AND_CHAIN, 12)
        assert closed_form_taylor(bad, 12) != list(series.coeffs)
        assert closed_form_counts(bad, 12) != chain_counts(ARROW_AND_CHAIN, 12)[1:]
        real = zeta_module.closed_form
        monkeypatch.setattr(zeta_module, "closed_form", lambda pfd: _perturbed(real(pfd), what))
        report = verify_matrix(ARROW_AND_CHAIN, order=12)
        assert report.path == "exact"
        assert not report.c1_pass and not report.passed
        assert report.c1_max_rel_err > 0

    def test_empty_matrix(self):
        a = IntMatrix([])
        cf = analyze_matrix(a).closed
        assert closed_form_counts(cf, 5) == [0] * 5
        report = verify_matrix(a, order=5)
        assert report.passed and report.c1_max_rel_err == 0

    def test_nilpotent_is_q_only(self):
        a = IntMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        cf = analyze_matrix(a).closed
        assert cf.factors == ()
        assert closed_form_counts(cf, 6) == [2, 1, 0, 0, 0, 0]
        assert verify_matrix(a, order=6).c1_max_rel_err == 0

    def test_order_zero(self):
        cf = analyze_matrix(ARROW_AND_CHAIN).closed
        assert closed_form_counts(cf, 0) == []
        report = verify_matrix(ARROW_AND_CHAIN, order=0)
        assert report.passed and report.c1_max_rel_err == 0

    def test_order_below_size(self):
        a = IntMatrix([[1 if i <= j else 0 for j in range(6)] for i in range(6)])
        cf = analyze_matrix(a).closed
        assert closed_form_counts(cf, 2) == chain_counts(a, 2)[1:]
        report = verify_matrix(a, order=2)
        assert report.passed and report.c1_max_rel_err == 0

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            closed_form_counts(analyze_matrix(ARROW_AND_CHAIN).closed, -1)


class TestExactVerifyRoute:
    """The exact path compares log coefficients and never expands the
    closed form as a series; the numeric path still does."""

    def test_exact_path_skips_the_taylor_product(self, monkeypatch, fixture_categories,
                                                 fixture_matrices):
        order = 200

        def refuse(*args):
            raise AssertionError("series route used on the exact path")

        def short_products_only(a, b):
            # the Hermite expansions multiply lists of length e <= N
            if len(a) > order // 2:
                raise AssertionError("series-length product on the exact path")
            return real_mul(a, b)

        real_mul = zeta_module.mul_trunc
        for name in ("closed_form_taylor", "series_from_counts", "exp_trunc"):
            monkeypatch.setattr(zeta_module, name, refuse)
        monkeypatch.setattr(zeta_module, "mul_trunc", short_products_only)
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
        report = verify_matrix(fixture_matrices["pell"], order=20)
        assert report.path == "numeric" and report.passed
        assert calls == [20]


class TestAnalysis:
    def test_exact_path_for_posets(self, fixture_categories):
        for name in ("terminal", "p2", "s"):
            assert analyze_category(fixture_categories[name]).path == "exact"

    def test_numeric_path_for_irrational_spectrum(self, fixture_matrices):
        analysis = analyze_matrix(fixture_matrices["pell"])
        assert analysis.path == "numeric"
        assert analysis.closed.arithmetic.precision == 128

    def test_category_wrapper_matches_matrix(self, fixture_categories):
        c = fixture_categories["p2"]
        assert analyze_category(c).bundle.d == analyze_matrix(adjacency(c)).bundle.d


class TestVerification:
    def test_exact_report_fields(self, fixture_categories):
        report = verify_conjecture(fixture_categories["p2"], order=12)
        assert report.passed
        assert report.path == "exact"
        assert report.chi == 1
        assert report.c1_max_rel_err == 0
        assert report.c2_sum == 2
        assert (report.c2_applicable, report.c4_applicable) == (True, True)
        assert report.c4_value == report.c4_target == 1
        assert all(r == 0 for r in report.c3_residuals)

    def test_all_fixture_categories_verify(self, fixture_categories):
        for name, c in fixture_categories.items():
            assert verify_conjecture(c, order=15).passed, name

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

    def test_numeric_path_report(self, fixture_matrices):
        report = verify_matrix(fixture_matrices["pell"], order=20)
        assert report.path == "numeric"
        assert report.passed
        assert report.chi == 1
        assert float(report.c1_max_rel_err) < 1e-20
        assert float(report.c2_residual) < 1e-20

    def test_higher_precision_accepted(self, fixture_matrices):
        report = verify_matrix(fixture_matrices["pell"], order=10,
                               precision_bits=256)
        assert report.passed
        assert report.precision == 256

    def test_inapplicable_identities_reported_as_none(self, fixture_matrices):
        report = verify_matrix(fixture_matrices["shift2"], order=10)
        assert not report.chi_exists
        assert report.c2_pass is None and report.c4_pass is None
        assert report.passed  # only the applicable identities count

    def test_vanishing_chi_exercises_alternating_sum(self, fixture_matrices):
        report = verify_matrix(fixture_matrices["rot90"], order=12)
        assert report.path == "numeric"
        assert report.c4_applicable
        assert report.c4_target == 0
        assert report.passed


class TestSingularities:
    def report_for(self, rows):
        analysis = analyze_matrix(IntMatrix(rows))
        return singularity_report(analysis.closed, analysis.rootset)

    def test_pole_with_essential_part(self):
        rep = self.report_for([[1, 1], [0, 1]])
        (pt,) = rep.points
        assert pt.classification == "pole"
        assert pt.pole_order == 2
        assert pt.essential
        assert rep.ok

    def test_plain_poles(self):
        (pt,) = self.report_for([[2]]).points
        assert (pt.classification, pt.pole_order, pt.essential) == ("pole", 1, False)
        (pt,) = self.report_for([[1, 1], [1, 1]]).points
        assert (pt.classification, pt.pole_order, pt.essential) == ("pole", 2, False)

    def test_numeric_conjugate_poles(self):
        rep = self.report_for([[0, 1], [-1, 0]])
        assert len(rep.points) == 2
        for pt in rep.points:
            assert pt.kind == "numeric"
            assert pt.classification == "pole"
            assert pt.pole_order == 1
        assert rep.ok

    def test_no_roots_no_points(self):
        rep = self.report_for([[1, 1], [-1, -1]])
        assert rep.points == ()
        assert rep.ok

    def test_zero_of_zeta(self):
        # idempotent with a negative column: zeta = 1 - z exactly
        a = IntMatrix([[1, 0], [-2, 0]])
        assert list(zeta_series(a, 3).coeffs) == [1, -1, 0, 0]
        rep = self.report_for([[1, 0], [-2, 0]])
        (pt,) = rep.points
        assert pt.classification == "zero"
        assert pt.beta0 == -1
        assert pt.pole_order is None
        assert rep.ok

    def test_cancelling_root_flagged_as_violation(self):
        # zeta = (1 - z)^(-2) but d = 1 - z^2: the root at -1 carries no
        # exponent at all, which the report must flag rather than hide.
        rep = self.report_for([[1, 2], [0, -1]])
        assert not rep.ok
        flagged = [rep.points[i] for i in rep.violations]
        assert [pt.classification for pt in flagged] == ["violation"]
        assert flagged[0].theta == -1

    def test_essential_only_point(self):
        # hand-built term with vanishing residue but a live inner
        # coefficient: beta0 = 0, beta1 = 1
        rootset = RootSet(roots=(Root(Fraction(1), 2),), lead=Fraction(1), precision=128)
        pfd = PartialFractionDecomposition(
            q=RatPoly.zero(), remainder=RatPoly.one(),
            rootset=rootset, terms=((Fraction(0), Fraction(1)),))
        cf = closed_form(pfd)
        (f,) = cf.factors
        assert f.beta0 == 0 and f.betas != ()
        rep = singularity_report(cf, rootset)
        (pt,) = rep.points
        assert pt.classification == "essential"
        assert pt.essential and pt.pole_order is None
        assert rep.ok
