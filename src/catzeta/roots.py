"""Root finding for det(E - A z): exact where possible, certified otherwise.

d(z) is factored as lead * (z - theta_1)^{e_1} ... (z - theta_n)^{e_n},
starting from its factors over the strongly connected blocks of A (see
charpoly).  The 1 x 1 blocks arrive as diagonal counts, (lambda, e) for
(1 - lambda z)^e, and give the root 1/lambda with multiplicity e, keyed
by lambda.  Every other block factor, linear or not, goes into
one product and through exact square-free decomposition (Yun), so
numeric clustering never decides a multiplicity.  The rational roots of
each square-free factor are found exactly by p-adic (Hensel) lifting,
with no integer factoring (_simple_rational_roots, which factor_charpoly
alone calls), and counted under 1/theta, the keys of the diagonal ones;
whatever remains of the factor is handed to an Aberth-Ehrlich
simultaneous iteration polished by Newton steps.  An irrational root
comes only from the block factors, with its multiplicity in d, so the
numeric part does not depend on how d was split.

The root set also chooses, once, the arithmetic of every later stage:
its Arithmetic is exact (Fractions) when every root is rational and
numeric (mpmath complex numbers at the precision plus GUARD_BITS)
otherwise.  Every RootSet is checked by recombination in that
arithmetic: multiplying the factors back together must reproduce d,
exactly in the all-rational case and to a relative coefficient error of
DEFAULT_TOLERANCE otherwise, the exact check on ints (poly.cleared).
Only a numeric root loads mpmath.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import mul
from typing import Sequence

from .poly import (RatPoly, cleared, horner, linear_power, mul_coeffs, primitive_ints,
                   squarefree_decompose)

DEFAULT_PRECISION_BITS = 128
DEFAULT_TOLERANCE = 1e-12
GUARD_BITS = 64  # working precision above the requested one, for every mpmath stage
_ONE = Fraction(1)  # the exact one, built once: a Fraction is immutable


class RootFindingError(ArithmeticError):
    """Numeric root finding failed; carries the best iterates found."""

    def __init__(self, message: str, best: list | None = None):
        super().__init__(message)
        self.best = list(best) if best else []


def to_mpf(x):
    """Fraction or int to mpf at the current working precision."""
    from mpmath import mp
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def to_mpc(x):
    from mpmath import mp
    if isinstance(x, Fraction):
        return mp.mpc(to_mpf(x))
    return x if isinstance(x, mp.mpc) else mp.mpc(x)  # mpc(mpc) would only copy


@dataclass(frozen=True)
class Root:
    theta: object        # Fraction for a rational root, else mpc
    multiplicity: int

    @property
    def kind(self) -> str:
        """Whether theta is a Fraction ("rational") or an mpc ("numeric")."""
        return "rational" if isinstance(self.theta, Fraction) else "numeric"


@dataclass(frozen=True)
class Arithmetic:
    """The scalars every stage after root finding computes in.

    Exact: ints and Fractions, never mpmath, and a check holds only with a
    zero residual.  Numeric: mpmath complex numbers at precision + GUARD_BITS,
    and a check holds when its residual is within tolerance.  The exact
    stages run denominator-free, on ints: split gives each number as a / b,
    a stage or a check scales its inputs once, and join builds each result
    back from an int numerator and denominator, or quotient_sum a sum of
    such pairs over their common denominator.  On a numeric root set b is
    1, so the same code does the mpmath operations plus exact products by
    1.  An exact theta is 1/lambda, lambda a rational root of the monic
    integer det(x E - A) and so an integer: theta = +-1/b and alpha = +-b.
    """

    exact: bool
    precision: int

    @property
    def one(self):
        return _ONE if self.exact else to_mpc(1)

    def lift(self, x):
        """An exact number (int or Fraction) as a scalar of this arithmetic."""
        return x if self.exact else to_mpc(x)

    def split(self, x):
        """x = a / b as (a, b): numerator and denominator when exact, else (lift(x), 1)."""
        return (x.numerator, x.denominator) if self.exact else (to_mpc(x), 1)

    def join(self, a, b):
        """The inverse of split: Fraction(a, b) when exact, else a / b (b = 1)."""
        return Fraction(a, b) if self.exact else a / b

    def quotient_sum(self, pairs):
        """sum a / b over the pairs (a, b) from split: over one int
        denominator, with one Fraction built at the end, when exact; else
        term by term from 0, each b being 1."""
        if not self.exact:
            return sum(a / b for a, b in pairs)
        pairs = list(pairs)  # reduce, not lcm(*...): freed argument tuples stay on free lists
        den = reduce(math.lcm, (b for _, b in pairs), 1)
        return Fraction(sum(a * (den // b) for a, b in pairs), den)

    def context(self):
        """The mpmath working precision the scalars need; nothing when exact."""
        if self.exact:
            return nullcontext()
        from mpmath import mp
        return mp.workprec(self.precision + GUARD_BITS)

    def within(self, err, tol, scale=1) -> bool:
        """err == 0 when exact, err <= tol * scale otherwise."""
        return err == 0 if self.exact else bool(err <= tol * scale)


@dataclass(frozen=True)
class RootSet:
    roots: tuple[Root, ...]
    lead: Fraction       # leading coefficient of d, a Fraction as zeta --closed prints it
    precision: int       # working binary precision in bits

    @property
    def all_rational(self) -> bool:
        return all(r.kind == "rational" for r in self.roots)

    @property
    def arithmetic(self) -> Arithmetic:
        """Exact exactly when every root is rational."""
        return Arithmetic(self.all_rational, self.precision)


def _simple_rational_roots(f: RatPoly) -> list[Fraction]:
    """The rational roots of a square-free f with f(0) != 0, by p-adic lifting.

    With c the lead of f's primitive integer form and n its degree, a
    rational root of f is x / c for an integer root x of the monic
    g(x) = c^(n-1) f(x / c), and x divides g(0).  q is the least prime at
    which every root of g mod q is simple; one exists because g is
    square-free (any prime not dividing its discriminant will do).  Newton's
    step lifts each root mod q to one mod q^(2^i), and once the modulus m
    passes 2 |g(0)|, x can only be the residue in (-m/2, m/2]; those that
    are exact roots of g are kept.  Nothing is factored.
    """
    ints = primitive_ints(f)
    n, c = len(ints) - 1, ints[-1]
    g = [a * c ** (n - 1 - i) for i, a in enumerate(ints[:-1])] + [1]
    dg = [i * a for i, a in enumerate(g)][1:]
    q = 1
    while True:
        q += 1
        if any(q % p == 0 for p in range(2, math.isqrt(q) + 1)):
            continue
        start = [r for r in range(q) if horner(g, r) % q == 0]
        if all(horner(dg, r) % q for r in start):
            break
    roots = []
    for r in start:
        m = q
        while m <= 2 * abs(g[0]):  # Newton's step, g'(r) inverted mod m: a root mod m^2
            r = (r - horner(g, r) * pow(horner(dg, r), -1, m)) % (m * m)
            m *= m
        x = r if 2 * r <= m else r - m
        if horner(g, x) == 0:
            roots.append(Fraction(x, c))
    return roots


def numeric_roots(p: RatPoly, precision_bits: int = DEFAULT_PRECISION_BITS) -> list:
    """All complex roots of a square-free polynomial, as mpc values.

    Aberth-Ehrlich simultaneous iteration from points on a circle inside
    the Cauchy bound, then Newton polishing.  The iteration stops once no
    step from an iterate x passes 2^-(precision_bits+32) max(1, |x| 2^-32):
    past |x| = 2^32 an absolute step cannot shrink below one ulp of x.  Each
    returned root theta satisfies
    |p(theta)| <= 2^(-precision_bits/2) max|coeff| max(1,|theta|)^deg;
    failing that raises RootFindingError with the best iterates attached.
    """
    from mpmath import mp
    deg = p.degree
    if deg < 1:
        raise ValueError("root finding needs degree >= 1")
    with mp.workprec(precision_bits + GUARD_BITS):
        cs = [to_mpc(c) for c in p.coeffs]
        dcs = [i * cs[i] for i in range(1, len(cs))]
        lead = cs[-1]

        radius = 1 + max(abs(c / lead) for c in cs[:-1])
        roots = [
            radius * mp.expjpi(2 * mp.mpf(i) / deg + mp.mpf(1) / (2 * deg))
            for i in range(deg)
        ]
        eps_stop = mp.mpf(2) ** (-(precision_bits + 32))
        for _ in range(500):
            converged = True  # until a step misses the stop
            for i in range(deg):
                x = roots[i]
                pv = horner(cs, x)
                dv = horner(dcs, x)
                if not dv:
                    # stalled on a critical point; nudge and retry
                    roots[i] = x + mp.mpf("0.001") * (1 + abs(x))
                    converged = False
                    continue
                newton = pv / dv
                diffs = [x - other for other in roots]  # 0 at x itself and at equal roots
                repulse = sum((1 / diff for diff in diffs if diff), mp.mpc(0))
                denom = 1 - newton * repulse
                w = newton / denom if denom else newton
                roots[i] = x - w
                converged = converged and abs(w) <= eps_stop * max(1, abs(x) / 2 ** 32)
            if converged:
                break
        if not converged:
            raise RootFindingError(
                "simultaneous iteration did not converge; raise the precision",
                best=roots,
            )

        for i in range(deg):
            for _ in range(3):
                dv = horner(dcs, roots[i])
                if not dv:
                    break
                roots[i] = roots[i] - horner(cs, roots[i]) / dv

        max_coeff = max(abs(c) for c in cs)
        allowed = mp.mpf(2) ** (-(precision_bits // 2)) * max_coeff
        for x in roots:
            if abs(horner(cs, x)) > allowed * max(mp.mpf(1), abs(x)) ** deg:
                raise RootFindingError(
                    "root residual above certification bound; raise the precision",
                    best=roots,
                )
        return [mp.mpc(x) for x in roots]


def _sort_key(root: Root, precision_bits: int):
    """|theta|, then arg(theta) in (-pi, pi], as mpmath numbers (mpf and
    Fraction do not compare): the order of a root set with a numeric root."""
    from mpmath import mp
    with mp.workprec(precision_bits + GUARD_BITS):
        if root.kind == "rational":
            t = to_mpf(root.theta)
            return (abs(t), mp.pi if t < 0 else mp.mpf(0))
        return (abs(root.theta), mp.arg(root.theta))


def _check_recombination(rs: RootSet, d: RatPoly) -> None:
    """lead * prod (z - theta)^e must reproduce d at full degree: with
    d = sum_i P_i z^i / D (poly.cleared), lead = d's lead and theta = a / b
    (Arithmetic.split), D lead prod (b z - a)^e = P prod b^e, all ints
    when exact."""
    arith = rs.arithmetic
    with arith.context():
        want, den = cleared(d)  # a pencil's d has D = 1
        lead, lead_den = arith.split(rs.lead)
        got, mult = [lead * (den // lead_den)], 1
        for root in rs.roots:
            a, b = arith.split(root.theta)
            got = mul_coeffs(got, linear_power(a, b, root.multiplicity))
            mult *= b ** root.multiplicity  # prod b^e
        want = [arith.lift(w * mult) for w in want]
        err = max(abs(g - w) for g, w in zip(got, want))
        scale = max(abs(w) for w in want)
        if len(got) != len(want) or not arith.within(err, DEFAULT_TOLERANCE, scale):
            if arith.exact:  # a wrong root, which no precision fixes
                raise RootFindingError("exact recombination failed: "
                                       f"residual {Fraction(err, scale)}")
            from mpmath import mp
            raise RootFindingError(f"recombination residual {mp.nstr(err / scale)} above "
                                   "tolerance; raise the precision")


def factor_charpoly(d: RatPoly, precision_bits: int = DEFAULT_PRECISION_BITS,
                    factors: Sequence[RatPoly] | None = None,
                    diagonal: Sequence[tuple[int, int]] = ()) -> RootSet:
    """Full factorization of d over the complex numbers as a RootSet.

    factors and diagonal, when given, are a CharPolyBundle's: d is the
    product of the factors and of (1 - lambda z)^e for each (lambda, e) of
    diagonal; d alone is one factor.  The roots 1/lambda are read off
    diagonal.  The multiplicities of the other roots are read off the
    square-free decomposition of the product of the factors, if there are
    any, a linear one included; each square-free factor gives its rational
    roots by p-adic lifting (_simple_rational_roots), merged with the
    diagonal ones, and the numeric roots of what is left once they are
    divided out.  d(0) must be nonzero (it is 1 for determinant
    pencils), so zero is never a root.
    """
    if d.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if d.coeff(0) == 0:
        raise ValueError("z = 0 must not be a root")
    rational = dict(diagonal)  # e by lambda = 1/theta; an int hashes as its Fraction
    blocks = (d,) if factors is None else factors
    roots: list[Root] = []
    for factor, mult in squarefree_decompose(reduce(mul, blocks)) if blocks else ():
        cofactor = factor
        for theta in _simple_rational_roots(factor):
            rational[1 / theta] = rational.get(1 / theta, 0) + mult
            cofactor = cofactor // RatPoly((-theta, 1))
        if cofactor.degree >= 1:
            for theta in numeric_roots(cofactor, precision_bits):
                roots.append(Root(theta, mult))
    roots += [Root(Fraction(1, lam), mult) for lam, mult in rational.items()]
    if sum(r.multiplicity for r in roots) != d.degree:
        raise ArithmeticError("multiplicities do not add up to the degree")
    if all(root.kind == "rational" for root in roots):  # the same order, unrounded
        roots.sort(key=lambda root: (abs(root.theta), root.theta < 0))
    else:
        roots.sort(key=lambda root: _sort_key(root, precision_bits))
    rs = RootSet(roots=tuple(roots), lead=Fraction(d.lead), precision=precision_bits)
    _check_recombination(rs, d)
    return rs
