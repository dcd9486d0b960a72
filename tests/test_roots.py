"""Root extraction: rational-root deflation, Aberth iteration, certification."""

import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp

from catzeta import (
    IntMatrix,
    RatPoly,
    Root,
    char_poly_bundle,
    factor_charpoly,
    numeric_roots,
    rational_roots,
)
from catzeta import roots as roots_module
from catzeta.poly import linear_power
from catzeta.roots import RootFindingError, to_mpc, to_mpf
from oracles import rational_roots_oracle

small_nonneg_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
).map(IntMatrix)


class TestConversions:
    def test_to_mpf_exact_on_dyadic(self):
        assert to_mpf(Fraction(3, 8)) == mp.mpf("0.375")

    def test_to_mpf_rounds_thirds(self):
        x = to_mpf(Fraction(1, 3))
        assert abs(x - mp.mpf(1) / 3) < mp.mpf(2) ** (-mp.prec + 2)

    def test_to_mpc(self):
        z = to_mpc(Fraction(-5, 4))
        assert z.real == mp.mpf("-1.25") and z.imag == 0


class TestRationalRoots:
    def test_distinct_roots(self):
        roots, cof = rational_roots(RatPoly([1, -3, 2]))  # (1-z)(1-2z)
        assert roots == [(Fraction(1, 2), 1), (Fraction(1), 1)]
        assert cof.degree == 0

    def test_multiplicity(self):
        roots, cof = rational_roots(RatPoly([1, -2, 1]))  # (1-z)^2
        assert roots == [(Fraction(1), 2)]
        assert cof.degree == 0

    def test_no_rational_roots(self):
        p = RatPoly([-2, 0, 1])  # z^2 - 2
        roots, cof = rational_roots(p)
        assert roots == []
        assert cof == p

    def test_zero_root_stripped_first(self):
        p = RatPoly([0, 0, 1, -1])  # z^2 (1 - z)
        roots, cof = rational_roots(p)
        assert roots == [(Fraction(0), 2), (Fraction(1), 1)]
        assert cof.degree == 0

    def test_fractional_candidates(self):
        p = RatPoly([Fraction(1), Fraction(-5, 6), Fraction(1, 6)])  # (1-z/2)(1-z/3)
        roots, _ = rational_roots(p)
        assert [r for r, _ in roots] == [Fraction(2), Fraction(3)]

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            rational_roots(RatPoly.zero())

    @given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                    min_size=1, max_size=4))
    def test_found_roots_are_roots_and_cofactor_has_none(self, root_list):
        p = RatPoly.one()
        for r in root_list:
            p = p * RatPoly((-r, 1))
        roots, cof = rational_roots(p)
        assert sum(m for _, m in roots) == len(root_list)
        for r, _ in roots:
            assert p(r) == 0
        assert cof.degree == 0

    def test_large_lead_is_fast(self):
        # (1 - 101 z) ... (1 - 137 z) (2 - 3 z) (4 z - 5) (1 - z - z^2):
        # a lead about 4 * 10^17, whose divisors an unbounded search would
        # trial-divide up to its square root, about 6 * 10^8
        primes = (101, 103, 107, 109, 113, 127, 131, 137)
        quadratic = RatPoly([1, -1, -1])
        p = RatPoly([2, -3]) * RatPoly([-5, 4]) * quadratic
        for lam in primes:
            p = p * RatPoly([1, -lam])
        assert abs(p.lead) > 10**17
        start = time.perf_counter()
        roots, cof = rational_roots(p)
        elapsed = time.perf_counter() - start
        expected = sorted([Fraction(1, lam) for lam in primes]
                          + [Fraction(2, 3), Fraction(5, 4)])
        assert roots == [(r, 1) for r in expected]
        assert cof == quadratic * (p.lead / quadratic.lead)
        assert elapsed < 0.1

    def test_tiny_root_is_solved_directly(self):
        # a divisor search of the lead would trial-divide up to 10^15
        start = time.perf_counter()
        roots, cof = rational_roots(RatPoly([-1, 10**30]))
        elapsed = time.perf_counter() - start
        assert roots == [(Fraction(1, 10**30), 1)]
        assert cof == RatPoly([10**30])
        assert elapsed < 0.1

    def test_tiny_root_of_a_quadratic_is_fast(self):
        # (1 - z)(1 - 10^14 z): the lead 2^14 5^14 factors after a few
        # trial divisions; listing its divisors by trial division up to
        # its square root would take 10^7 steps
        start = time.perf_counter()
        roots, cof = rational_roots(RatPoly([1, -(10**14 + 1), 10**14]))
        elapsed = time.perf_counter() - start
        assert roots == [(Fraction(1, 10**14), 1), (Fraction(1), 1)]
        assert cof.degree == 0
        assert elapsed < 0.1

    def test_prime_lead_of_a_quadratic_is_fast(self):
        # (1 - z)(1 - p z) with p prime: Miller-Rabin stops the divisor
        # search at once, where trial division would run up to sqrt(p)
        p = 10**14 + 31
        start = time.perf_counter()
        roots, cof = rational_roots(RatPoly([1, -(p + 1), p]))
        elapsed = time.perf_counter() - start
        assert roots == [(Fraction(1, p), 1), (Fraction(1), 1)]
        assert cof.degree == 0
        assert elapsed < 0.1

    def test_semiprime_lead_of_a_quadratic_is_fast(self):
        # (1 - z)(1 - q z) with q a product of two primes near 10^7: the
        # cofactor is composite, so Miller-Rabin does not stop the search;
        # Pollard-Brent rho splits q where trial division would run to 10^7
        q = (10**7 + 19) * (10**7 + 79)
        start = time.perf_counter()
        roots, cof = rational_roots(RatPoly([1, -(q + 1), q]))
        elapsed = time.perf_counter() - start
        assert roots == [(Fraction(1, q), 1), (Fraction(1), 1)]
        assert cof.degree == 0
        assert elapsed < 0.1

    @given(st.lists(st.tuples(st.integers(min_value=-6, max_value=6),
                              st.integers(min_value=1, max_value=6)), max_size=4),
           st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=4),
           st.integers(min_value=0, max_value=2))
    @settings(max_examples=150, deadline=None)
    def test_matches_unbounded_enumeration(self, linears, extra, zeros):
        """Roots, their order and the cofactor agree with the oracle that
        tries every divisor, on products of (q z - p) factors with an
        arbitrary small polynomial."""
        p = RatPoly(extra) * RatPoly.monomial(zeros)
        for num, den in linears:
            p = p * RatPoly([-num, den])
        assume(not p.is_zero())
        assert rational_roots(p) == rational_roots_oracle(p)


class TestNumericRoots:
    def test_linear(self):
        (theta,) = numeric_roots(RatPoly([-1, 2]))
        assert abs(theta - mp.mpf("0.5")) < mp.mpf(2) ** -100

    def test_sqrt2(self):
        roots = numeric_roots(RatPoly([-2, 0, 1]))
        assert len(roots) == 2
        with mp.workprec(160):
            assert abs(roots[0] - mp.sqrt(2)) < mp.mpf(2) ** -100
            assert abs(roots[1] + mp.sqrt(2)) < mp.mpf(2) ** -100

    def test_pure_imaginary_pair(self):
        roots = numeric_roots(RatPoly([1, 0, 1]))
        assert sorted(str(r.imag)[0] for r in roots) == ["-", "1"] or \
            {mp.sign(r.imag) for r in roots} == {mp.mpf(1), mp.mpf(-1)}
        for r in roots:
            assert abs(r.real) < mp.mpf(2) ** -100
            assert abs(abs(r.imag) - 1) < mp.mpf(2) ** -100

    def test_three_real_roots(self):
        # (z-1)(z-2)(z-3) = -6 + 11z - 6z^2 + z^3
        roots = numeric_roots(RatPoly([-6, 11, -6, 1]), precision_bits=256)
        vals = sorted(float(r.real) for r in roots)
        assert vals == pytest.approx([1.0, 2.0, 3.0], abs=1e-60)

    def test_precision_scales(self):
        p = RatPoly([-2, 0, 1])
        with mp.workprec(400):
            lo = min(abs(t - mp.sqrt(2)) for t in numeric_roots(p, precision_bits=64))
            hi = min(abs(t - mp.sqrt(2)) for t in numeric_roots(p, precision_bits=256))
            assert hi < mp.mpf(2) ** -250
            assert lo < mp.mpf(2) ** -60


class TestFactorCharpoly:
    def test_repeated_rational_root(self):
        rs = factor_charpoly(RatPoly([1, -2, 1]))
        assert rs.all_rational
        assert len(rs.roots) == 1
        (root,) = rs.roots
        assert (root.theta, root.multiplicity, root.kind) == (Fraction(1), 2, "rational")
        assert rs.lead == 1

    def test_group_delooping_root(self):
        rs = factor_charpoly(RatPoly([1, -2]))
        (root,) = rs.roots
        assert root.theta == Fraction(1, 2)
        assert rs.lead == -2

    def test_high_multiplicities_via_squarefree_split(self):
        p = RatPoly(linear_power(Fraction(1), 1, 3)) * RatPoly(linear_power(Fraction(1, 2), 1, 2))
        rs = factor_charpoly(p)
        assert {(r.theta, r.multiplicity) for r in rs.roots} == {
            (Fraction(1), 3), (Fraction(1, 2), 2)}

    def test_mixed_kinds_sorted_by_magnitude(self):
        # (1 - z)(1 - 2z - z^2): rational 1 between the two numeric roots
        d = char_poly_bundle(IntMatrix([[1, 0, 0], [0, 1, 2], [0, 1, 1]])).d
        rs = factor_charpoly(d)
        assert [r.kind for r in rs.roots] == ["numeric", "rational", "numeric"]
        assert not rs.all_rational
        mags = [abs(to_mpc(r.theta)) for r in rs.roots]
        assert mags == sorted(mags)

    def test_kind_follows_theta(self):
        assert Root(Fraction(1), 2).kind == "rational"
        assert Root(mp.mpc(1), 2).kind == "numeric"

    def test_multiplicities_sum_to_degree(self):
        d = RatPoly([1, -2, -1])  # irrational pair
        rs = factor_charpoly(d)
        assert sum(r.multiplicity for r in rs.roots) == d.degree == 2

    @given(small_nonneg_matrices)
    def test_charpoly_factorization_runs_on_random_matrices(self, a):
        d = char_poly_bundle(a).d
        rs = factor_charpoly(d)
        assert sum(r.multiplicity for r in rs.roots) == d.degree
        assert rs.lead == (d.lead if d.degree >= 0 else 1)

    @pytest.mark.parametrize("kind", ["rational", "numeric"])
    def test_recombination_catches_a_perturbed_root(self, monkeypatch, kind):
        # a repeated root at 1 beside 1/2 (an exact root set) or beside the
        # irrational pair -1 +- sqrt 2 (a numeric one)
        other = RatPoly([1, -2]) if kind == "rational" else RatPoly([1, -2, -1])
        d = RatPoly(linear_power(Fraction(1), 1, 2)) * other
        assert factor_charpoly(d).arithmetic.exact == (kind == "rational")
        real_rational, real_numeric = roots_module.rational_roots, roots_module.numeric_roots

        def nudge_rational(p):
            found, cof = real_rational(p)
            return [(theta + Fraction(1, 10 ** 6), e) for theta, e in found], cof

        def nudge_numeric(p, bits):
            first, *rest = real_numeric(p, bits)
            return [first + mp.mpf(10) ** -6] + rest

        if kind == "rational":
            monkeypatch.setattr(roots_module, "rational_roots", nudge_rational)
        else:
            monkeypatch.setattr(roots_module, "numeric_roots", nudge_numeric)
        with pytest.raises(RootFindingError):
            factor_charpoly(d)

    def test_exact_recombination_failure_is_not_a_precision_problem(self, monkeypatch):
        # (1 - z)(1 - 2z) with its roots nudged: the root set stays exact,
        # so the message must not ask for more precision
        real = roots_module.rational_roots

        def nudge(p):
            found, cof = real(p)
            return [(theta + Fraction(1, 10 ** 6), e) for theta, e in found], cof

        monkeypatch.setattr(roots_module, "rational_roots", nudge)
        with pytest.raises(RootFindingError) as info:
            factor_charpoly(RatPoly([1, -1]) * RatPoly([1, -2]))
        assert "exact" in str(info.value)
        assert "precision" not in str(info.value)

    def test_exact_recombination_failure_at_fractional_roots(self, monkeypatch):
        # (1 - 2z)^2 (1 - 3z): roots 1/2 and 1/3, each with denominator
        # b > 1, nudged; the integer check must still see the residual
        real = roots_module.rational_roots

        def nudge(p):
            found, cof = real(p)
            return [(theta + Fraction(1, 10 ** 6), e) for theta, e in found], cof

        monkeypatch.setattr(roots_module, "rational_roots", nudge)
        with pytest.raises(RootFindingError, match="exact recombination failed"):
            factor_charpoly(RatPoly([1, -2]) * RatPoly([1, -2]) * RatPoly([1, -3]))

    def test_rational_order_does_not_follow_the_factor_order(self):
        # 1 and 1 + 2^-300 round to the same mpf at 192 bits; the exact
        # key still puts the smaller first
        near = 1 + Fraction(1, 2 ** 300)
        factors = (RatPoly([1, -1]), RatPoly([1, -1 / near]))
        d = factors[0] * factors[1]
        for order in (factors, factors[::-1]):
            rs = factor_charpoly(d, factors=order)
            assert [r.theta for r in rs.roots] == [Fraction(1), near]

    def test_linear_factors_merge_with_rational_roots(self):
        # (1 - 2z)^2 as two linear factors, and (1 - 2z)(1 - 2z - z^2) as one
        # non-linear factor whose rational root 1/2 joins them
        linear, quadratic = RatPoly([1, -2]), RatPoly([1, -2, -1])
        factors = (linear, linear * quadratic, RatPoly([1, -3]), linear)
        d = RatPoly.one()
        for f in factors:
            d = d * f
        rs = factor_charpoly(d, factors=factors)
        assert rs == factor_charpoly(d)
        assert [(r.theta, r.multiplicity) for r in rs.roots if r.kind == "rational"] == [
            (Fraction(1, 3), 1), (Fraction(1, 2), 3)]
        assert [r.multiplicity for r in rs.roots if r.kind == "numeric"] == [1, 1]

    def test_factors_must_multiply_to_d(self):
        # a wrong linear factor is caught by the recombination against d
        d = RatPoly([1, -2]) * RatPoly([1, -3])
        with pytest.raises(RootFindingError):
            factor_charpoly(d, factors=(RatPoly([1, -2]), RatPoly([1, -4])))

    def test_constant_pencil_has_no_roots(self):
        rs = factor_charpoly(RatPoly.one())
        assert rs.roots == ()
        assert rs.all_rational

    def test_root_at_origin_rejected(self):
        with pytest.raises(ValueError, match="z = 0"):
            factor_charpoly(RatPoly([0, 1]))

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            factor_charpoly(RatPoly.zero())
