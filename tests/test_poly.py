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
from catzeta import poly as poly_module
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


int_lists = st.lists(st.integers(min_value=-50, max_value=50), max_size=6)


def fraction_form(p: RatPoly) -> RatPoly:
    return RatPoly([Fraction(c) for c in p.coeffs])


def assert_exact(*values):
    """No value, nor any coefficient of a polynomial among them, is a float."""
    for v in values:
        for c in v.coeffs if isinstance(v, RatPoly) else (v,):
            assert type(c) in (int, Fraction), (v, c)


class TestIntCoefficients:
    """A RatPoly keeps int coefficients as ints: each operation equals the
    same one on the Fraction-coefficient form, and no float appears."""

    def test_ints_stay_ints_and_compare_as_fractions(self):
        p = RatPoly([1, -2, 0])
        assert [type(c) for c in p.coeffs] == [int, int]
        assert p == fraction_form(p) and hash(p) == hash(fraction_form(p))

    @given(int_lists, int_lists, fractions)
    def test_operations_match_the_fraction_form(self, a, b, x):
        p, q = RatPoly(a), RatPoly(b)
        pf, qf = fraction_form(p), fraction_form(q)
        pairs = [(p + q, pf + qf), (p - q, pf - qf), (p * q, pf * qf),
                 (p.derivative(), pf.derivative()), (p.antiderivative(), pf.antiderivative()),
                 (p(x), pf(x)), (p(3), pf(3))]
        if q:
            pairs += list(zip(divmod(p, q), divmod(pf, qf)))
            pairs.append((q.monic(), qf.monic()))
        for got, want in pairs:
            assert got == want
            assert_exact(got)
        assert all(type(c) is int for c in (p + q).coeffs + (p * q).coeffs
                   + p.derivative().coeffs)

    @given(int_lists.filter(lambda cs: any(cs[1:])))
    def test_divisions_by_an_int_lead_leave_fractions_not_floats(self, a):
        p = RatPoly(a)
        assert_exact(p.monic(), *divmod(p, RatPoly([2, 3])), divmod(p * p + 1, p)[0],
                     p.antiderivative(), p(Fraction(1, 3)))


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

    def test_zero_polynomial_errors(self):
        zero = RatPoly.zero()
        with pytest.raises(ValueError, match="^cannot normalize the zero polynomial$"):
            zero.monic()
        with pytest.raises(ValueError, match="^gcd of two zero polynomials is undefined$"):
            poly_gcd(zero, zero)
        with pytest.raises(ValueError, match="^cannot decompose the zero polynomial$"):
            squarefree_decompose(zero)


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


class TestSquarefreeModPrime:
    """The square-free test mod q returns exactly what Yun's gcds return."""

    FIRST_PRIMES = poly_module._SQUAREFREE_PRIMES

    @staticmethod
    def assert_as_yun(p, shortcut):
        """squarefree_decompose(p) against Yun's gcds alone (no prime to
        test with); shortcut says whether the mod-q test must skip them."""
        gcds = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(poly_module, "poly_gcd", lambda *a: gcds.append(a) or poly_gcd(*a))
            fast = squarefree_decompose(p)
            assert (not gcds) == shortcut
            mp.setattr(poly_module, "_SQUAREFREE_PRIMES", ())
            assert fast == squarefree_decompose(p)

    @given(st.lists(fractions, min_size=1, max_size=5, unique=True),
           st.integers(-5, 5).filter(bool))
    def test_squarefree_products_of_distinct_linear_factors(self, roots, lead):
        p = RatPoly([lead])
        for r in roots:
            p = p * RatPoly([-r, 1])
        self.assert_as_yun(p, shortcut=True)

    @pytest.mark.parametrize("coeffs", [
        [-2, 0, 1],                   # z^2 - 2
        [1, 1, 1],                    # z^2 + z + 1
        [-2, 0, 0, 0, 0, 0, 0, 1],    # z^7 - 2
        [Fraction(1, 3), 5, 0, 7],    # rational coefficients
        [1, -3, 1],                   # 1 - 3z + z^2, a pencil factor
    ])
    def test_squarefree_irreducibles(self, coeffs):
        self.assert_as_yun(RatPoly(coeffs), shortcut=True)

    @given(nonzero_polys, nonzero_polys, st.integers(2, 4))
    def test_repeated_factors(self, f, g, e):
        f = f * RatPoly([1, 1])  # of degree >= 1, so f^e g is not square-free
        prod = g
        for _ in range(e):
            prod = prod * f
        self.assert_as_yun(prod, shortcut=False)

    @pytest.mark.parametrize("k", [1, 2, len(FIRST_PRIMES)])
    @pytest.mark.parametrize("repeated", [False, True])
    def test_lead_divisible_by_the_first_primes(self, k, repeated):
        """q skips each prime that divides the lead; with none left, Yun runs."""
        lead = 1
        for q in self.FIRST_PRIMES[:k]:
            lead *= q
        p = RatPoly([-2, 3, lead])  # lead z^2 + 3z - 2, square-free
        if repeated:
            p = p * RatPoly([1, lead])
            p = p * RatPoly([1, lead])
        self.assert_as_yun(p, shortcut=not repeated and k < len(self.FIRST_PRIMES))


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
