"""Root extraction: rational roots by p-adic lifting, Aberth iteration, certification."""

import random
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
    mul_coeffs,
    numeric_roots,
)
from catzeta import roots as roots_module
from catzeta.poly import linear_power
from catzeta.roots import RootFindingError, to_mpc
from conftest import load_fixture_matrix
from oracles import aberth_reference, mul_coeffs_reference, rational_roots_oracle

small_nonneg_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
).map(IntMatrix)


class TestConversions:
    def test_to_mpc_exact_on_dyadic(self):
        assert to_mpc(Fraction(3, 8)).real == mp.mpf("0.375")

    def test_to_mpc_rounds_thirds(self):
        x = to_mpc(Fraction(1, 3)).real
        assert abs(x - mp.mpf(1) / 3) < mp.mpf(2) ** (-mp.prec + 2)

    def test_to_mpc(self):
        z = to_mpc(Fraction(-5, 4))
        assert z.real == mp.mpf("-1.25") and z.imag == 0


def rational_part(p):
    """factor_charpoly's rational roots of p, with multiplicities, in
    increasing order; a root at zero is divided out first."""
    zeros = next(i for i, c in enumerate(p.coeffs) if c)
    rs = factor_charpoly(RatPoly(p.coeffs[zeros:]))
    return sorted((r.theta, r.multiplicity) for r in rs.roots if r.kind == "rational")


def lifted(f):
    """_simple_rational_roots(f), timed: (sorted roots, seconds)."""
    start = time.perf_counter()
    roots = roots_module._simple_rational_roots(f)
    return sorted(roots), time.perf_counter() - start


class TestRationalRoots:
    def test_distinct_roots(self):
        assert rational_part(RatPoly([1, -3, 2])) == [(Fraction(1, 2), 1), (Fraction(1), 1)]

    def test_multiplicity(self):
        assert rational_part(RatPoly([1, -2, 1])) == [(Fraction(1), 2)]  # (1-z)^2

    def test_no_rational_roots(self):
        assert roots_module._simple_rational_roots(RatPoly([-2, 0, 1])) == []  # z^2 - 2

    def test_fractional_candidates(self):
        p = RatPoly([Fraction(1), Fraction(-5, 6), Fraction(1, 6)])  # (1-z/2)(1-z/3)
        assert [r for r, _ in rational_part(p)] == [Fraction(2), Fraction(3)]

    @given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
                    min_size=1, max_size=4))
    def test_found_roots_are_roots_and_cofactor_has_none(self, root_list):
        # every root is rational, so no numeric root is left over
        p = RatPoly.one()
        for r in root_list:
            p = p * RatPoly((-r, 1))
        rs = factor_charpoly(p)
        assert rs.arithmetic.exact
        assert sum(r.multiplicity for r in rs.roots) == len(root_list)
        for r in rs.roots:
            assert p(r.theta) == 0

    def test_large_lead_is_fast(self):
        # (1 - 101 z) ... (1 - 137 z) (2 - 3 z) (4 z - 5) (1 - z - z^2):
        # a lead about 4 * 10^17, whose divisors an unbounded search would
        # trial-divide up to its square root, about 6 * 10^8; lifting
        # needs none of them, only a small prime where the roots stay apart
        primes = (101, 103, 107, 109, 113, 127, 131, 137)
        p = RatPoly([2, -3]) * RatPoly([-5, 4]) * RatPoly([1, -1, -1])
        for lam in primes:
            p = p * RatPoly([1, -lam])
        assert abs(p.lead) > 10**17
        roots, elapsed = lifted(p)
        assert roots == sorted([Fraction(1, lam) for lam in primes]
                               + [Fraction(2, 3), Fraction(5, 4)])
        assert elapsed < 0.1

    def test_tiny_root_is_solved_directly(self):
        # a divisor search of the lead would trial-divide up to 10^15; the
        # one root of a linear factor lifts from a root mod 2
        roots, elapsed = lifted(RatPoly([-1, 10**30]))
        assert roots == [Fraction(1, 10**30)]
        assert elapsed < 0.1

    def test_tiny_root_of_a_quadratic_is_fast(self):
        # (1 - z)(1 - 10^14 z): listing the divisors of the lead 2^14 5^14
        # by trial division up to its square root would take 10^7 steps;
        # lifting only squares a small prime power until it passes 10^14
        roots, elapsed = lifted(RatPoly([1, -(10**14 + 1), 10**14]))
        assert roots == [Fraction(1, 10**14), Fraction(1)]
        assert elapsed < 0.1

    def test_prime_lead_of_a_quadratic_is_fast(self):
        # (1 - z)(1 - p z) with p prime: trial division would run up to
        # sqrt(p), but lifting never asks whether p is prime
        p = 10**14 + 31
        roots, elapsed = lifted(RatPoly([1, -(p + 1), p]))
        assert roots == [Fraction(1, p), Fraction(1)]
        assert elapsed < 0.1

    def test_semiprime_lead_of_a_quadratic_is_fast(self):
        # (1 - z)(1 - q z) with q a product of two primes near 10^7: trial
        # division would run to 10^7; lifting never splits q
        q = (10**7 + 19) * (10**7 + 79)
        roots, elapsed = lifted(RatPoly([1, -(q + 1), q]))
        assert roots == [Fraction(1, q), Fraction(1)]
        assert elapsed < 0.1

    @pytest.mark.parametrize("p1, p2", [
        (900000000013, 900012345697),
        (10**19 + 51, 2 * 10**19 + 153),
        (10**39 + 3, 2 * 10**39 + 11),
    ], ids=["12-digit", "20-digit", "40-digit"])
    def test_semiprime_lead_with_large_prime_factors_is_fast(self, p1, p2):
        # (1 - z)(1 - q z) with q = p1 p2, both prime: a search for q's
        # divisors costs about sqrt(p1) steps at best, seconds at 12 digits;
        # lifting costs a few squarings up to q
        q = p1 * p2
        roots, elapsed = lifted(RatPoly([1, -(q + 1), q]))
        assert roots == [Fraction(1, q), Fraction(1)]
        assert elapsed < 0.1

    @given(st.lists(st.tuples(st.integers(min_value=-10**40, max_value=10**40).filter(bool),
                              st.integers(min_value=1, max_value=10**40),
                              st.integers(min_value=1, max_value=3)), max_size=4),
           st.integers(min_value=-4, max_value=4),
           st.sampled_from([1, -1, 2, -2]))
    @settings(max_examples=60, deadline=None)
    def test_large_leads_give_back_their_roots(self, linears, k, c0):
        """Products of (b z - a)^e with b up to 10^40 and a quartic
        z^4 + k z^3 + c0 without rational roots: exactly the built roots
        and multiplicities come back, and the quartic's four roots are
        numeric.  A rational root of the quartic is an integer that
        divides c0, so trying +-1 and +-2 rules them out."""
        quartic = RatPoly([c0, 0, 0, k, 1])
        assume(all(quartic(r) for r in (1, -1, 2, -2)))
        p, expected = quartic, {}
        for a, b, e in linears:
            p = p * RatPoly(linear_power(a, b, e))
            expected[Fraction(a, b)] = expected.get(Fraction(a, b), 0) + e
        rs = factor_charpoly(p)
        assert sorted((r.theta, r.multiplicity) for r in rs.roots
                      if r.kind == "rational") == sorted(expected.items())
        assert sum(r.multiplicity for r in rs.roots if r.kind == "numeric") == 4

    @given(st.lists(st.tuples(st.integers(min_value=-6, max_value=6),
                              st.integers(min_value=1, max_value=6)), max_size=4),
           st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=4),
           st.integers(min_value=0, max_value=2))
    @settings(max_examples=150, deadline=None)
    def test_matches_unbounded_enumeration(self, linears, extra, zeros):
        """The nonzero roots and their order agree with the oracle that
        tries every divisor, on products of (q z - p) factors with an
        arbitrary small polynomial."""
        p = RatPoly(extra) * RatPoly([0] * zeros + [1])
        for num, den in linears:
            p = p * RatPoly([-num, den])
        assume(not p.is_zero())
        expected, _ = rational_roots_oracle(p)
        assert rational_part(p) == [(r, e) for r, e in expected if r]


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


    def test_non_convergence_carries_the_best_iterates(self):
        # roots 1 and 1 +- 2^-30: at 8 bits the cluster is too tight for
        # the stop 2^-40 on the Aberth step; 128 bits resolve it
        eps = Fraction(1, 2**30)
        p = RatPoly([-1, 1]) * RatPoly([-1 - eps, 1]) * RatPoly([-1 + eps, 1])
        with pytest.raises(RootFindingError, match="did not converge") as info:
            numeric_roots(p, 8)
        assert len(info.value.best) == 3
        assert all(isinstance(x, mp.mpc) for x in info.value.best)
        assert len(numeric_roots(p, 128)) == 3

    def test_tuple_kernels_match_the_mpc_operators(self, monkeypatch):
        """numeric_roots and mul_coeffs on mpmath.libmp's tuples give the
        _mpc_ tuples that mpc operators give, bit for bit: the roots on the
        inputs factor_charpoly hands numeric_roots for pell, rot90, the
        Mignotte-type companion of x^6 - 2(10x - 1)^2, two seeded random
        0..3 matrices, each one block, and [[10^12, 1], [1, 0]], whose root
        near -10^12 takes the stop rule past |x| = 2^32; the products on
        mpc lists holding exact zeros and ones."""
        seen, real = [], roots_module.numeric_roots
        monkeypatch.setattr(roots_module, "numeric_roots",
                            lambda p, bits: seen.append(p) or real(p, bits))
        rng = random.Random(36)
        mignotte = ([[int(j == i + 1) for j in range(6)] for i in range(5)]
                    + [[2, -40, 200, 0, 0, 0]])  # the companion of its polynomial
        for rows in (load_fixture_matrix("pell").rows, load_fixture_matrix("rot90").rows, mignotte,
                     *([[rng.randint(0, 3) for _ in range(n)] for _ in range(n)] for n in (8, 14)),
                     [[10 ** 12, 1], [1, 0]]):
            bundle = char_poly_bundle(IntMatrix(rows))
            factor_charpoly(bundle.d, 128, bundle.factors, bundle.diagonal)
        assert [p.degree for p in seen] == [2, 2, 6, 8, 14, 2]
        for p in seen:
            assert ([x._mpc_ for x in real(p, 128)]
                    == [x._mpc_ for x in aberth_reference(p, 128)]), p
        with mp.workprec(192):
            one, zero = mp.mpc(1), mp.mpc(0)

            def draw(k):
                return [mp.mpc(rng.randint(-99, 99), rng.randint(-99, 99)) / 7 for _ in range(k)]

            a = [one, zero, *draw(10), one]
            b = [*draw(3), one, zero, zero, *draw(8), one]
            for n in (None, 1, 4, 20):
                got = mul_coeffs(a, b, n)
                assert all(type(x) is mp.mpc for x in got)
                assert ([x._mpc_ for x in got]
                        == [x._mpc_ for x in mul_coeffs_reference(a, b, n)]), n


class TestFactorCharpoly:
    def test_repeated_rational_root(self):
        rs = factor_charpoly(RatPoly([1, -2, 1]))
        assert rs.arithmetic.exact
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
        assert not rs.arithmetic.exact
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
        real_rational = roots_module._simple_rational_roots
        real_numeric = roots_module.numeric_roots

        def nudge_rational(f):
            return [theta + Fraction(1, 10 ** 6) for theta in real_rational(f)]

        def nudge_numeric(p, bits):
            first, *rest = real_numeric(p, bits)
            return [first + mp.mpf(10) ** -6] + rest

        if kind == "rational":
            monkeypatch.setattr(roots_module, "_simple_rational_roots", nudge_rational)
        else:
            monkeypatch.setattr(roots_module, "numeric_roots", nudge_numeric)
        with pytest.raises(RootFindingError):
            factor_charpoly(d)

    def test_exact_recombination_failure_is_not_a_precision_problem(self, monkeypatch):
        # (1 - z)(1 - 2z) with its roots nudged: the root set stays exact,
        # so the message must not ask for more precision
        real = roots_module._simple_rational_roots

        def nudge(f):
            return [theta + Fraction(1, 10 ** 6) for theta in real(f)]

        monkeypatch.setattr(roots_module, "_simple_rational_roots", nudge)
        with pytest.raises(RootFindingError) as info:
            factor_charpoly(RatPoly([1, -1]) * RatPoly([1, -2]))
        assert "exact" in str(info.value)
        assert "precision" not in str(info.value)

    def test_exact_recombination_failure_at_fractional_roots(self, monkeypatch):
        # (1 - 2z)^2 (1 - 3z): roots 1/2 and 1/3, each with denominator
        # b > 1, nudged; the integer check must still see the residual
        real = roots_module._simple_rational_roots

        def nudge(f):
            return [theta + Fraction(1, 10 ** 6) for theta in real(f)]

        monkeypatch.setattr(roots_module, "_simple_rational_roots", nudge)
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

    def test_diagonal_counts_give_their_roots_without_yun(self, monkeypatch):
        """(1 - 2z)^3 (1 + z) (1 - z)^2 as diagonal counts: no block
        factor, so no Yun.  A block factor goes through it, the linear
        1 - 3z as well as a non-linear one."""
        diagonal, linear = ((2, 3), (-1, 1), (1, 2)), RatPoly([1, -3])
        counted = RatPoly.one()
        for lam, e in diagonal:
            counted = counted * RatPoly(linear_power(-1, -lam, e))
        d = linear * counted
        want_counted, want = factor_charpoly(counted), factor_charpoly(d)
        quadratic = RatPoly([1, -2, -1])
        want_mixed = factor_charpoly(d * quadratic)
        calls, real = [], roots_module.squarefree_decompose
        monkeypatch.setattr(roots_module, "squarefree_decompose",
                            lambda p: calls.append(p) or real(p))
        assert factor_charpoly(counted, factors=(), diagonal=diagonal) == want_counted
        assert calls == []
        assert factor_charpoly(d, factors=(linear,), diagonal=diagonal) == want
        assert calls == [linear]
        assert [(r.theta, r.multiplicity) for r in want.roots] == [
            (Fraction(1, 3), 1), (Fraction(1, 2), 3), (Fraction(1), 2), (Fraction(-1), 1)]
        calls.clear()
        mixed = factor_charpoly(d * quadratic, factors=(quadratic, linear), diagonal=diagonal)
        assert mixed == want_mixed and calls == [quadratic * linear]

    def test_a_missing_factor_leaves_the_multiplicities_short(self):
        d = RatPoly([1, -2]) * RatPoly([1, -3])
        with pytest.raises(ArithmeticError,
                           match="^multiplicities do not add up to the degree$") as exc:
            factor_charpoly(d, factors=(RatPoly([1, -2]),))
        assert type(exc.value) is ArithmeticError

    def test_factors_must_multiply_to_d(self):
        # a wrong linear factor is caught by the recombination against d
        d = RatPoly([1, -2]) * RatPoly([1, -3])
        with pytest.raises(RootFindingError):
            factor_charpoly(d, factors=(RatPoly([1, -2]), RatPoly([1, -4])))

    def test_constant_pencil_has_no_roots(self):
        rs = factor_charpoly(RatPoly.one())
        assert rs.roots == ()
        assert rs.arithmetic.exact

    def test_root_at_origin_rejected(self):
        with pytest.raises(ValueError, match="z = 0"):
            factor_charpoly(RatPoly([0, 1]))

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            factor_charpoly(RatPoly.zero())
