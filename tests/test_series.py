"""Truncated power series: kernel roundtrips and the RatSeries container."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from catzeta import RatSeries, exp_trunc, mul_coeffs
from oracles import inv_trunc, log_trunc

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=5)


def coeff_lists(min_size=1, max_size=7):
    return st.lists(fractions, min_size=min_size, max_size=max_size)


class TestKernels:
    @given(coeff_lists())
    def test_mul_by_one(self, a):
        one = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
        assert mul_coeffs(one, a, len(a)) == a

    @given(coeff_lists(), coeff_lists())
    def test_mul_commutative(self, a, b):
        n = min(len(a), len(b))
        assert mul_coeffs(b[:n], a[:n], n) == mul_coeffs(a[:n], b[:n], n)

    @given(coeff_lists())
    def test_inverse_roundtrip(self, a):
        a = [Fraction(1)] + a[1:]
        prod = mul_coeffs(inv_trunc(a), a, len(a))
        assert prod == [Fraction(1)] + [Fraction(0)] * (len(a) - 1)

    @given(coeff_lists())
    def test_exp_log_roundtrip(self, s):
        s = [Fraction(0)] + s[1:]
        assert log_trunc(exp_trunc(s)) == s

    @given(coeff_lists())
    def test_log_exp_roundtrip(self, f):
        f = [Fraction(1)] + f[1:]
        assert exp_trunc(log_trunc(f)) == f

    @given(coeff_lists(), coeff_lists())
    def test_exp_of_sum(self, s, t):
        n = min(len(s), len(t))
        s = [Fraction(0)] + s[1:n]
        t = [Fraction(0)] + t[1:n]
        added = [x + y for x, y in zip(s, t)]
        assert exp_trunc(added) == mul_coeffs(exp_trunc(t), exp_trunc(s), n)

    def test_exp_of_geometric_log(self):
        # exp(z + z^2/2 + z^3/3 + ...) = 1/(1 - z)
        s = [Fraction(0)] + [Fraction(1, m) for m in range(1, 6)]
        assert exp_trunc(s) == [Fraction(1)] * 6


class TestRatSeries:
    def test_length_must_match_order(self):
        with pytest.raises(ValueError):
            RatSeries(3, [1, 2])
        with pytest.raises(ValueError):
            RatSeries(-1, [])

    def test_coeff(self):
        f = RatSeries(2, [5, 6, 7])
        assert [f.coeff(i) for i in range(3)] == [5, 6, 7]

    def test_negative_coeff_index_raises(self):
        # as RatPoly.coeff: no reading of the last coefficient from the end
        with pytest.raises(IndexError, match="^negative coefficient index$"):
            RatSeries(2, [5, 6, 7]).coeff(-1)

    def test_hash_consistent_with_eq(self):
        assert hash(RatSeries(2, [1, 2, 3])) == hash(RatSeries(2, [1, 2, 3]))

    def test_immutable(self):
        f = RatSeries(1, [1, 0])
        with pytest.raises(AttributeError):
            f.coeffs = ()
