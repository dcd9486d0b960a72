"""Zeta series, partial fractions, closed form, verification, singularities."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from catzeta import (
    IntMatrix,
    PartialFractionDecomposition,
    RatPoly,
    RatSeries,
    Root,
    RootSet,
    adjacency,
    analyze_category,
    analyze_matrix,
    char_poly_bundle,
    closed_form,
    closed_form_taylor,
    disjoint_union,
    factor_charpoly,
    partial_fractions,
    singularity_report,
    verify_conjecture,
    verify_matrix,
    zeta_series,
)
from oracles import log_derivative_check

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
        logz = zeta_series(a, 6).log()
        for m in range(1, 7):
            assert logz.coeff(m) == Fraction(chain_count(a, m), m)

    def test_nilpotent_gives_polynomial_exp(self):
        # one nonidentity arrow: log zeta = z, zeta = e^z
        f = zeta_series(IntMatrix([[0, 1], [0, 0]]), 4)
        assert list(f.coeffs) == [1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24)]

    def test_empty_category(self):
        assert zeta_series(IntMatrix([]), 3) == RatSeries.one(3)

    def test_log_derivative_identity(self, fixture_matrices):
        for name, a in fixture_matrices.items():
            assert log_derivative_check(a, 20), name

    def test_union_is_product(self, fixture_categories):
        p2, z2 = fixture_categories["p2"], fixture_categories["z2"]
        u = disjoint_union(p2, z2)
        assert zeta_series(adjacency(u), 8) == \
            zeta_series(adjacency(p2), 8) * zeta_series(adjacency(z2), 8)


class TestPartialFractions:
    def analyze(self, rows):
        return analyze_matrix(IntMatrix(rows))

    def test_arrow_category(self):
        pfd = self.analyze([[1, 1], [0, 1]]).pfd
        assert pfd.q == RatPoly.zero()
        assert pfd.remainder == RatPoly([3, -2])
        assert pfd.lead == 1
        assert pfd.terms == ((Fraction(-2), Fraction(1)),)
        assert pfd.exact

    def test_parallel_pair(self):
        pfd = self.analyze([[1, 2], [0, 1]]).pfd
        assert pfd.terms == ((Fraction(-2), Fraction(2)),)

    def test_codiscrete_pair(self):
        pfd = self.analyze([[1, 1], [1, 1]]).pfd
        assert pfd.lead == -2
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
            assert pfd.exact
            roots = pfd.rootset.roots
            for x in (Fraction(2), Fraction(3), Fraction(5, 7)):
                if any(r.theta == x for r in roots):
                    continue
                direct = pfd.remainder(x) / analysis.bundle.d(x)
                summed = sum(
                    (coeff / (pfd.lead * (x - r.theta) ** j)
                     for r, term in zip(roots, pfd.terms)
                     for j, coeff in enumerate(term, start=1)),
                    Fraction(0),
                )
                assert direct == summed, rows

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


class TestAnalysis:
    def test_exact_path_for_posets(self, fixture_categories):
        for name in ("terminal", "p2", "s"):
            assert analyze_category(fixture_categories[name]).path == "exact"

    def test_numeric_path_for_irrational_spectrum(self, fixture_matrices):
        analysis = analyze_matrix(fixture_matrices["pell"])
        assert analysis.path == "numeric"
        assert analysis.closed.precision == 128

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
    def report_for(self, rows, **kw):
        analysis = analyze_matrix(IntMatrix(rows))
        return singularity_report(analysis.closed, analysis.rootset, **kw)

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
        rootset = RootSet(roots=(Root(Fraction(1), 2, "rational"),),
                          lead=Fraction(1), precision=128, degree=2)
        pfd = PartialFractionDecomposition(
            q=RatPoly.zero(), remainder=RatPoly.one(), lead=Fraction(1),
            rootset=rootset, terms=((Fraction(0), Fraction(1)),), exact=True)
        cf = closed_form(pfd)
        (f,) = cf.factors
        assert f.beta0 == 0 and f.betas != ()
        rep = singularity_report(cf, rootset)
        (pt,) = rep.points
        assert pt.classification == "essential"
        assert pt.essential and pt.pole_order is None
        assert rep.ok
