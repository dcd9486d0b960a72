"""Truncated formal power series: list kernels and an exact container.

The kernels (`mul_trunc`, `inv_trunc`, `exp_trunc`) work on plain
coefficient lists of equal length and are coefficient-ring agnostic:
they only use +, *, / and division by small integers, so the closed form
runs them on Fractions and on mpmath complex numbers alike.

RatSeries holds the exact zeta series: a fixed truncation order K and
exactly K+1 rational coefficients (z**0 .. z**K).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence


# -- generic kernels on plain coefficient lists ----------------------------

def mul_trunc(a: Sequence, b: Sequence) -> list:
    """Product of two coefficient lists of equal length, truncated."""
    K = len(a) - 1
    zero = a[0] * 0
    out = [zero] * (K + 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j in range(K + 1 - i):
            cb = b[j]
            if not cb:
                continue
            out[i + j] = out[i + j] + ca * cb
    return out


def inv_trunc(a: Sequence) -> list:
    """Multiplicative inverse of a coefficient list; a[0] must be invertible."""
    K = len(a) - 1
    inv0 = 1 / a[0]
    out = [inv0] + [a[0] * 0] * K
    for n in range(1, K + 1):
        acc = a[0] * 0
        for i in range(1, n + 1):
            if a[i]:
                acc = acc + a[i] * out[n - i]
        out[n] = -inv0 * acc
    return out


def exp_trunc(s: Sequence) -> list:
    """exp of a coefficient list with zero constant term.

    Uses the recurrence from (exp s)' = s' * exp s:
        (n+1) g_{n+1} = sum_{i=0..n} (i+1) s_{i+1} g_{n-i}.
    """
    K = len(s) - 1
    zero = s[0] * 0
    out = [zero + 1] + [zero] * K
    for n in range(K):
        acc = zero
        for i in range(n + 1):
            c = s[i + 1]
            if c:
                acc = acc + (i + 1) * c * out[n - i]
        out[n + 1] = acc / (n + 1)
    return out


# -- exact rational wrapper ------------------------------------------------

class RatSeries:
    """Power series truncated at a fixed order K, over the rationals."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[Fraction | int]):
        if order < 0:
            raise ValueError("series order must be nonnegative")
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) != order + 1:
            raise ValueError(
                f"series of order {order} needs {order + 1} coefficients, got {len(cs)}"
            )
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("RatSeries is immutable")

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        return f"RatSeries(order={self.order}, coeffs={[str(c) for c in self.coeffs]})"
