"""Exact polynomial arithmetic: ring laws, division, calculus, factor tools."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from catzeta import (
    RatPoly,
    mul_coeffs,
    poly_gcd,
    squarefree_decompose,
)
from catzeta.poly import horner, linear_power
from oracles import lagrange_interpolate

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
polys = st.lists(fractions, max_size=6).map(RatPoly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


class TestBasics:
    def test_trailing_zeros_trimmed(self):
        assert RatPoly([1, 2, 0, 0]) == RatPoly([1, 2])
        assert RatPoly([1, 2, 0, 0]).degree == 1

    def test_zero_polynomial(self):
        z = RatPoly.zero()
        assert z.is_zero()
        assert not z
        assert z.degree == -1
        assert RatPoly([0, 0]) == z

    def test_constructors(self):
        assert RatPoly.one() == RatPoly([1])
        assert RatPoly.constant(Fraction(3, 2)) == RatPoly([Fraction(3, 2)])

    def test_coeff_access(self):
        p = RatPoly([1, 0, 7])
        assert p.coeff(0) == 1
        assert p.coeff(1) == 0
        assert p.coeff(2) == 7
        assert p.coeff(99) == 0
        with pytest.raises(IndexError):
            p.coeff(-1)

    def test_lead(self):
        assert RatPoly([1, 2, 3]).lead == 3
        with pytest.raises(ValueError):
            _ = RatPoly.zero().lead

    def test_eq_against_scalars(self):
        assert RatPoly([5]) == 5
        assert RatPoly([Fraction(1, 2)]) == Fraction(1, 2)
        assert RatPoly.zero() == 0
        assert RatPoly([0, 1]) != 0

    def test_immutable_and_hashable(self):
        p = RatPoly([1, 2])
        with pytest.raises(AttributeError):
            p.coeffs = ()
        assert hash(p) == hash(RatPoly([1, 2, 0]))


class TestRingLaws:
    @given(polys, polys, polys)
    def test_add_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(polys, polys)
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @given(polys, polys, polys)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys)
    def test_additive_inverse(self, a):
        assert a + (-a) == RatPoly.zero()
        assert a - a == RatPoly.zero()

    @given(polys, fractions)
    def test_scalar_mul_both_sides(self, p, c):
        assert c * p == p * c == p * RatPoly.constant(c)

    @given(polys, nonzero_polys)
    def test_divmod_identity(self, a, b):
        q, r = divmod(a, b)
        assert a == q * b + r
        assert r.degree < b.degree

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(RatPoly([1]), RatPoly.zero())

    @given(polys, polys)
    def test_degree_of_product(self, a, b):
        if a.is_zero() or b.is_zero():
            assert (a * b).is_zero()
        else:
            assert (a * b).degree == a.degree + b.degree


class TestCalculusAndEvaluation:
    @given(polys)
    def test_derivative_of_antiderivative(self, p):
        assert p.antiderivative().derivative() == p

    @given(polys)
    def test_antiderivative_constant_term(self, p):
        assert p.antiderivative().coeff(0) == 0

    def test_derivative_example(self):
        # d/dz (1 - 4z + 3z^3) = -4 + 9z^2
        assert RatPoly([1, -4, 0, 3]).derivative() == RatPoly([-4, 0, 9])

    @given(polys, fractions)
    def test_call_matches_naive_sum(self, p, x):
        naive = sum((c * x ** i for i, c in enumerate(p.coeffs)), Fraction(0))
        assert p(x) == naive

    def test_call_on_complex(self):
        from mpmath import mp
        p = RatPoly([1, 0, 1])  # 1 + z^2
        assert p(mp.mpc(0, 1)) == 0

    @pytest.mark.parametrize("kind", ["int", "fraction", "mpc"])
    def test_horner_is_the_stepwise_loop(self, kind):
        from mpmath import mp
        cs = [3, -7, 0, 2, 5, -1]
        with mp.workprec(192):
            if kind == "int":
                x, acc = 11, 0
            elif kind == "fraction":
                cs = [Fraction(c, i + 2) for i, c in enumerate(cs)]
                x, acc = Fraction(-7, 5), Fraction(0)
            else:
                cs = [mp.mpc(c, 1) / 3 for c in cs]
                x, acc = mp.mpc(mp.sqrt(2), -mp.pi / 3), mp.mpc(0)
            for c in reversed(cs):
                acc = acc * x + c
            got = horner(cs, x)
        assert type(got) is type(acc)
        if kind == "mpc":  # bit for bit
            assert got._mpc_ == acc._mpc_
        else:
            assert got == acc == sum(c * x ** i for i, c in enumerate(cs))
        if kind == "int":  # reducing once equals reducing at every step
            for q in (2, 3, 7, 97, 2 ** 61 - 1):
                reduced = 0
                for c in reversed(cs):
                    reduced = (reduced * x + c) % q
                assert got % q == reduced

    @given(nonzero_polys)
    def test_monic(self, p):
        m = p.monic()
        assert m.lead == 1
        assert m * p.lead == p


class TestGcd:
    @given(nonzero_polys, nonzero_polys)
    def test_gcd_divides_both(self, a, b):
        g = poly_gcd(a, b)
        assert a % g == RatPoly.zero()
        assert b % g == RatPoly.zero()
        assert g.lead == 1

    @given(nonzero_polys, nonzero_polys, nonzero_polys)
    def test_common_factor_detected(self, a, b, g):
        d = poly_gcd(a * g, b * g)
        assert d % g.monic() == RatPoly.zero()

    @given(nonzero_polys)
    def test_gcd_with_zero(self, a):
        assert poly_gcd(a, RatPoly.zero()) == a.monic()


class TestSquarefree:
    def test_known_factorization(self):
        # (1-z)^2 (1-2z) = 1 - 4z + 5z^2 - 2z^3
        p = RatPoly([1, -4, 5, -2])
        factors = squarefree_decompose(p)
        assert factors == [
            (RatPoly([Fraction(-1, 2), 1]), 1),
            (RatPoly([-1, 1]), 2),
        ] or factors == [
            (RatPoly([-1, 1]), 2),
            (RatPoly([Fraction(-1, 2), 1]), 1),
        ]

    def test_squarefree_input_single_factor(self):
        p = RatPoly([-2, 0, 1])  # z^2 - 2, already squarefree
        assert squarefree_decompose(p) == [(p, 1)]

    @given(nonzero_polys)
    def test_reconstruction(self, p):
        factors = squarefree_decompose(p)
        prod = RatPoly.constant(p.lead)
        for f, mult in factors:
            for _ in range(mult):
                prod = prod * f
        assert prod == p

    @given(nonzero_polys)
    def test_factors_squarefree_and_coprime(self, p):
        factors = squarefree_decompose(p)
        for f, _ in factors:
            assert f.lead == 1
            assert poly_gcd(f, f.derivative()) == RatPoly.one()
        for i, (f, _) in enumerate(factors):
            for g, _ in factors[i + 1:]:
                assert poly_gcd(f, g) == RatPoly.one()


class TestInterpolation:
    @given(st.lists(fractions, min_size=1, max_size=5))
    def test_roundtrip(self, coeffs):
        p = RatPoly(coeffs)
        points = [(Fraction(i), p(Fraction(i))) for i in range(len(coeffs))]
        assert lagrange_interpolate(points) == p

    def test_duplicate_abscissa_rejected(self):
        with pytest.raises(ValueError):
            lagrange_interpolate([(Fraction(1), Fraction(0)),
                                  (Fraction(1), Fraction(2))])


class TestProduct:
    @given(st.lists(fractions, min_size=1, max_size=6), st.lists(fractions, min_size=1, max_size=6),
           st.integers(min_value=1, max_value=12))
    def test_truncated_product_is_a_prefix_of_the_product(self, a, b, n):
        full = mul_coeffs(a, b)
        assert len(full) == len(a) + len(b) - 1
        assert RatPoly(full) == RatPoly(a) * RatPoly(b)
        assert mul_coeffs(a, b, n) == (full + [Fraction(0)] * n)[:n]

    def test_zeros_take_the_type_of_the_first_argument(self):
        assert [type(c) for c in mul_coeffs([Fraction(1)], [2], 3)] == [Fraction] * 3
        assert [type(c) for c in mul_coeffs([1], [Fraction(2)], 3)] == [Fraction, int, int]


class TestBinomial:
    """linear_power reads (b z - a)^e off the binomial theorem, with math.comb."""

    def test_matches_math_comb(self):
        import math
        for n in range(8):
            assert linear_power(-1, 1, n) == [math.comb(n, k) for k in range(n + 1)]
            assert linear_power(Fraction(2, 3), 5, n) == [
                math.comb(n, k) * 5 ** k * Fraction(-2, 3) ** (n - k) for k in range(n + 1)]

    def test_outside_range(self):
        with pytest.raises(ValueError):
            linear_power(1, 1, -1)
