"""Exact dense univariate polynomials and truncated power series over the rationals.

A polynomial is a tuple of exact coefficients, ints, or Fractions where a
division leaves one, index i holding the coefficient of z**i, with
trailing zeros trimmed; an int and the Fraction equal to it compare and
hash alike.  The zero polynomial is the empty tuple.  Degrees in this
project are bounded by the object count of a finite category, so the
dense representation is deliberate.

RatPoly is exact: no floats enter or leave, its divisions (divmod,
monic, antiderivative) going through Fraction.  The list kernels work in
whatever scalar type they are given, using only +, *, / and division by
small integers, so the pipeline runs them on ints, Fractions and mpmath
complex numbers alike: horner evaluates, mul_coeffs multiplies, whole or
cut to the first n coefficients as for truncated power series,
linear_power expands (b z - a)**e, and exp_trunc exponentiates a
truncated power series, a plain coefficient list; cleared puts a RatPoly
over one denominator.

RatSeries holds the exact zeta series: a fixed truncation order K and
exactly K+1 rational coefficients (z**0 .. z**K).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from typing import Iterable, Sequence


class RatPoly:
    """Immutable dense polynomial with exact coefficients: ints, or
    Fractions where a division leaves one (a float becomes its Fraction)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [c if type(c) is int or type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("RatPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "RatPoly":
        return cls(())

    @classmethod
    def one(cls) -> "RatPoly":
        return cls((1,))

    @classmethod
    def constant(cls, c) -> "RatPoly":
        return cls((c,))

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lead(self) -> Fraction | int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> Fraction | int:
        """Coefficient of z**i (zero beyond the degree)."""
        if i < 0:
            raise IndexError("negative coefficient index")
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, RatPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == RatPoly.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"RatPoly({list(self.coeffs)!r})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "RatPoly":
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "RatPoly":
        return RatPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "RatPoly":
        return self + (-_coerce(other))

    def __mul__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            return RatPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, RatPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return RatPoly.zero()
        return RatPoly(mul_coeffs(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __divmod__(self, other) -> tuple["RatPoly", "RatPoly"]:
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero polynomial")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return RatPoly.zero(), self
        quot = [0] * (dq + 1)
        dlead = other.lead
        for k in range(dq, -1, -1):
            c = Fraction(rem[k + other.degree], dlead)
            quot[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return RatPoly(quot), RatPoly(rem)

    def __floordiv__(self, other) -> "RatPoly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "RatPoly":
        return divmod(self, other)[1]

    # -- calculus and evaluation -------------------------------------------

    def derivative(self) -> "RatPoly":
        return RatPoly([i * self.coeffs[i] for i in range(1, len(self.coeffs))])

    def antiderivative(self) -> "RatPoly":
        """Antiderivative with zero constant term."""
        return RatPoly([0] + [Fraction(c, i + 1) for i, c in enumerate(self.coeffs)])

    def __call__(self, x):
        """Horner evaluation; works for Fraction, int, complex and mpmath types."""
        return horner(self.coeffs, x)

    def monic(self) -> "RatPoly":
        if self.is_zero():
            raise ValueError("cannot normalize the zero polynomial")
        inv = Fraction(1, self.lead)
        return RatPoly(tuple(c * inv for c in self.coeffs))


def _coerce(x) -> RatPoly:
    if isinstance(x, RatPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return RatPoly.constant(x)
    raise TypeError(f"cannot treat {type(x).__name__} as a polynomial")


def poly_gcd(p: RatPoly, q: RatPoly) -> RatPoly:
    """Monic greatest common divisor by the Euclidean algorithm."""
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd of two zero polynomials is undefined")
    a, b = p, q
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def cleared(p: RatPoly) -> tuple[list[int], int]:
    """p = sum_i P_i z^i / D as the ints P_i and D, the lcm of p's denominators."""
    den = reduce(math.lcm, (c.denominator for c in p.coeffs), 1)  # no argument tuple
    return [c.numerator * (den // c.denominator) for c in p.coeffs], den


def primitive_ints(p: RatPoly) -> list[int]:
    """The coefficients of a nonzero p scaled to coprime ints."""
    ints = cleared(p)[0]
    g = math.gcd(*ints)
    return [c // g for c in ints]


# Primes for the square-free test mod q; a lead that all of them divide has over 400 bits.
_SQUAREFREE_PRIMES = (2**31 - 1, 2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1)


def _coprime_mod(f: list[int], g: list[int], q: int) -> bool:
    """Whether f and g (int coefficients, lowest degree first; q, a prime,
    does not divide f's lead) are coprime modulo q: Euclid's algorithm over
    the integers mod q ends on a nonzero constant."""
    a, b = [c % q for c in f], [c % q for c in g]
    while b:
        if not b[-1]:
            b.pop()
            continue
        inv = pow(b[-1], -1, q)
        while len(a) >= len(b):  # a <- a mod b, one top term at a time
            c = a.pop() * inv % q
            for i, x in enumerate(b[:-1], start=len(a) + 1 - len(b)):
                a[i] = (a[i] - c * x) % q
        a, b = b, a
    return len(a) == 1


def squarefree_decompose(p: RatPoly) -> list[tuple[RatPoly, int]]:
    """Yun's square-free decomposition.

    Returns [(f1, m1), (f2, m2), ...] with monic, square-free, pairwise
    coprime factors and strictly increasing multiplicities, such that
    p = lead(p) * product(fi ** mi).  Factors of degree zero are dropped.

    A square-free p mostly skips Yun's gcds in Fractions: with c the lead
    of p's primitive integer form and q the first of _SQUAREFREE_PRIMES not
    dividing c, p and p' coprime mod q make the discriminant of p nonzero
    mod q, so nonzero, and the answer is [(monic p, 1)], as Yun's.
    """
    if p.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    p = p.monic()
    if p.degree == 0:
        return []
    ints = primitive_ints(p)
    q = next((q for q in _SQUAREFREE_PRIMES if ints[-1] % q), None)
    if q is not None and _coprime_mod(ints, [i * c for i, c in enumerate(ints)][1:], q):
        return [(p, 1)]
    dp = p.derivative()
    a = poly_gcd(p, dp)
    b = p // a
    c = dp // a - b.derivative()
    out: list[tuple[RatPoly, int]] = []
    mult = 1
    while b.degree > 0:
        f = poly_gcd(b, c) if not c.is_zero() else b.monic()
        if f.degree > 0:
            out.append((f, mult))
        b2 = b // f
        c = c // f - b2.derivative()
        b = b2
        mult += 1
    return out


def mul_coeffs(a: Sequence, b: Sequence, n: int | None = None) -> list:
    """Product of two nonempty coefficient lists, its zeros in a's scalar type;
    with n, only its first n coefficients (a truncated power series product).

    b is walked in the outer loop: its zero terms are skipped and its
    unit terms (the leads of monic factors) cost no multiplication.
    """
    size = len(a) + len(b) - 1 if n is None else n
    out = [a[0] * 0] * size
    for j, cb in enumerate(b[:size]):
        if not cb:
            continue
        unit = cb == 1
        for i, ca in enumerate(a[:size - j], start=j):
            out[i] = out[i] + (ca if unit else ca * cb)
    return out


def linear_power(a, b: int, e: int) -> list:
    """Coefficients of (b z - a)**e in a's scalar type, read off the
    binomial theorem; b = 1 gives (z - a)**e.  C(e, t) is the int running
    product C(e, t + 1) = C(e, t) (e - t) / (t + 1), exact at each step."""
    if e < 0:
        raise ValueError("negative polynomial power")
    neg, binom, out = -a, 1, []
    for t in range(e + 1):
        out.append(binom * b ** t * neg ** (e - t))
        binom = binom * (e - t) // (t + 1)
    return out


def horner(cs: Sequence, x):
    """sum cs[i] x^i by Horner's rule, in the scalar type of x * 0."""
    acc = x * 0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


# -- truncated power series --------------------------------------------------

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
