"""Truncated power series: kernel roundtrips and the RatSeries wrapper."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from catzeta import (
    RatSeries,
    exp_trunc,
    inv_trunc,
    log_trunc,
    mul_trunc,
)

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=5)


def coeff_lists(min_size=1, max_size=7):
    return st.lists(fractions, min_size=min_size, max_size=max_size)


class TestKernels:
    @given(coeff_lists())
    def test_mul_by_one(self, a):
        one = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
        assert mul_trunc(a, one) == a

    @given(coeff_lists(), coeff_lists())
    def test_mul_commutative(self, a, b):
        n = min(len(a), len(b))
        assert mul_trunc(a[:n], b[:n]) == mul_trunc(b[:n], a[:n])

    @given(coeff_lists())
    def test_inverse_roundtrip(self, a):
        a = [Fraction(1)] + a[1:]
        prod = mul_trunc(a, inv_trunc(a))
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
        assert exp_trunc(added) == mul_trunc(exp_trunc(s), exp_trunc(t))

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

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError, match="order"):
            RatSeries.one(2) + RatSeries.one(3)

    def test_arithmetic(self):
        f = RatSeries(3, [1, 1, 1, 1])       # 1/(1-z)
        g = RatSeries(3, [1, -1, 0, 0])      # 1 - z
        assert f * g == RatSeries.one(3)
        assert f - f == RatSeries.zero(3)
        assert f + g == RatSeries(3, [2, 0, 1, 1])
        assert f * 2 == RatSeries(3, [2, 2, 2, 2])

    def test_inverse(self):
        f = RatSeries(3, [1, -1, 0, 0])
        assert f.inverse() == RatSeries(3, [1, 1, 1, 1])
        with pytest.raises(ValueError):
            RatSeries.zero(2).inverse()

    def test_exp_log(self):
        s = RatSeries(3, [0, 1, 0, 0])
        e = s.exp()
        assert e == RatSeries(3, [1, 1, Fraction(1, 2), Fraction(1, 6)])
        assert e.log() == s
        with pytest.raises(ValueError):
            RatSeries.one(2).exp()
        with pytest.raises(ValueError):
            RatSeries.zero(2).log()

    def test_hash_consistent_with_eq(self):
        assert hash(RatSeries(2, [1, 2, 3])) == hash(RatSeries(2, [1, 2, 3]))

    def test_immutable(self):
        f = RatSeries.one(1)
        with pytest.raises(AttributeError):
            f.coeffs = ()
