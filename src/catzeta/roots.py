"""Root finding for det(E - A z): exact where possible, certified otherwise.

d(z) is factored as lead * (z - theta_1)^{e_1} ... (z - theta_n)^{e_n},
starting from its factors over the strongly connected blocks of A (see
charpoly).  A linear factor gives its root directly, and equal ones are
counted.  Only the product of the non-linear factors goes through exact
square-free decomposition (Yun), so numeric clustering never decides a
multiplicity.  Its rational roots are extracted exactly by the
rational-root theorem and merged with the linear ones; whatever remains
is handed, factor by factor, to an Aberth-Ehrlich simultaneous iteration
polished by Newton steps.  An irrational root comes only from the
non-linear factors, with its multiplicity in d, so the numeric part does
not depend on how d was split.

The root set also chooses, once, the arithmetic of every later stage:
its Arithmetic is exact (Fractions) when every root is rational and
numeric (mpmath complex numbers at the precision plus GUARD_BITS)
otherwise.  Every RootSet is checked by recombination in that
arithmetic: multiplying the factors back together must reproduce d,
exactly in the all-rational case and to a small relative coefficient
error otherwise.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from mpmath import mp

from .poly import RatPoly, linear_power, mul_coeffs, squarefree_decompose

DEFAULT_PRECISION_BITS = 128
DEFAULT_TOLERANCE = 1e-12
GUARD_BITS = 64  # working precision above the requested one, for every mpmath stage


class RootFindingError(ArithmeticError):
    """Numeric root finding failed; carries the best iterates found."""

    def __init__(self, message: str, best: list | None = None):
        super().__init__(message)
        self.best = list(best) if best else []


def to_mpf(x) -> "mp.mpf":
    """Fraction or int to mpf at the current working precision."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def to_mpc(x) -> "mp.mpc":
    if isinstance(x, Fraction):
        return mp.mpc(to_mpf(x))
    return mp.mpc(x)


@dataclass(frozen=True)
class Root:
    theta: object        # Fraction when kind == "rational", else mpc
    multiplicity: int
    kind: str            # "rational" or "numeric"


@dataclass(frozen=True)
class Arithmetic:
    """The scalars every stage after root finding computes in.

    Exact: Fractions, and a check holds only with a zero residual.
    Numeric: mpmath complex numbers at precision + GUARD_BITS, and a check
    holds when its residual is within tolerance.
    """

    exact: bool
    precision: int

    @property
    def one(self):
        return Fraction(1) if self.exact else mp.mpc(1)

    def lift(self, x):
        """An exact number (int or Fraction) as a scalar of this arithmetic."""
        return x if self.exact else to_mpc(x)

    def context(self):
        """The mpmath working precision the scalars need; nothing when exact."""
        return nullcontext() if self.exact else mp.workprec(self.precision + GUARD_BITS)

    def within(self, err, tol, scale=1) -> bool:
        """err == 0 when exact, err <= tol * scale otherwise."""
        return err == 0 if self.exact else bool(err <= tol * scale)


@dataclass(frozen=True)
class RootSet:
    roots: tuple[Root, ...]
    lead: Fraction       # leading coefficient of d
    precision: int       # working binary precision in bits
    degree: int          # deg d = sum of multiplicities

    @property
    def all_rational(self) -> bool:
        return all(r.kind == "rational" for r in self.roots)

    @property
    def arithmetic(self) -> Arithmetic:
        """Exact exactly when every root is rational."""
        return Arithmetic(self.all_rational, self.precision)


def _divisors(n: int, limit: int) -> list[int]:
    """The positive divisors of n that are at most limit."""
    n = abs(n)
    out = []
    for i in range(1, min(limit, math.isqrt(n)) + 1):
        if n % i == 0:
            out.append(i)
            if i != n // i and n // i <= limit:
                out.append(n // i)
    return out


def _iroot_ceil(t: int, k: int) -> int:
    """The least integer r >= 0 with r**k >= t, for t >= 0."""
    if t <= 1:
        return t
    r = 1 << -(-t.bit_length() // k)  # r**k >= 2**bit_length > t
    while True:  # Newton's method from above settles on floor(t**(1/k))
        s = ((k - 1) * r + t // r ** (k - 1)) // k
        if s >= r:
            break
        r = s
    return r if r ** k >= t else r + 1


def _root_bound(ints: list[int]) -> int:
    """An integer bound on |z| over the roots of sum ints[i] z^i (Fujiwara):
    2 max(|c_{m-i}/c_m|^(1/i) for i < m, |c_0/(2 c_m)|^(1/m))."""
    m, lead = len(ints) - 1, abs(ints[-1])
    terms = [_iroot_ceil(-(-abs(ints[m - i]) // lead), i) for i in range(1, m)]
    terms.append(_iroot_ceil(-(-abs(ints[0]) // (2 * lead)), m))
    return 2 * max(terms)


def _primitive_int_coeffs(p: RatPoly) -> list[int]:
    denom = math.lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * denom) for c in p.coeffs]
    g = math.gcd(*ints)
    return [c // g for c in ints]


def _scaled_value(ints: list[int], num: int, den: int) -> int:
    """den**m f(num/den) for f = sum ints[i] z^i of degree m, in integers."""
    acc, den_pow = ints[-1], 1
    for c in reversed(ints[:-1]):
        den_pow *= den
        acc = acc * num + c * den_pow
    return acc


def rational_roots(p: RatPoly) -> tuple[list[tuple[Fraction, int]], RatPoly]:
    """All rational roots of p with multiplicities, plus the deflated cofactor.

    Candidates come from the rational-root theorem applied to the primitive
    integer form, within integer root bounds of it and of its reversal, and
    are screened by an integer evaluation; each root is divided out to full
    multiplicity, so the cofactor has no rational roots at all.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has every number as a root")
    roots: list[tuple[Fraction, int]] = []
    cof = p

    # z = 0 first, so the constant coefficient below is nonzero.
    mult = 0
    while cof.degree >= 1 and cof.coeff(0) == 0:
        cof = cof // RatPoly.monomial(1)
        mult += 1
    if mult:
        roots.append((Fraction(0), mult))

    if cof.degree == 1:
        roots.append((-cof.coeff(0) / cof.coeff(1), 1))
        cof = RatPoly.constant(cof.coeff(1))
    elif cof.degree >= 1:
        # A root num/den in lowest terms has |num/den| <= bound and
        # den/|num| <= bound_rev, a bound for the reversed polynomial,
        # whose roots are the reciprocals; that caps both divisor searches.
        ints = _primitive_int_coeffs(cof)
        bound, bound_rev = _root_bound(ints), _root_bound(ints[::-1])
        nums = _divisors(ints[0], abs(ints[-1]) * bound)
        dens = _divisors(ints[-1], abs(ints[0]) * bound_rev)
        candidates = sorted(
            {Fraction(sign * num, den)
             for num in nums for den in dens
             if num <= den * bound and den <= num * bound_rev
             for sign in (1, -1)}
        )
        for cand in candidates:
            if _scaled_value(ints, cand.numerator, cand.denominator):
                continue
            mult = 0
            while cof.degree >= 1 and cof(cand) == 0:
                cof = cof // RatPoly((-cand, 1))
                mult += 1
            if mult:
                roots.append((cand, mult))
    return roots, cof


def _horner(coeffs: list, x):
    acc = mp.mpc(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def numeric_roots(p: RatPoly, precision_bits: int = DEFAULT_PRECISION_BITS) -> list:
    """All complex roots of a square-free polynomial, as mpc values.

    Aberth-Ehrlich simultaneous iteration from points on a circle inside
    the Cauchy bound, then Newton polishing.  Each returned root theta
    satisfies |p(theta)| <= 2^(-precision_bits/2) max|coeff| max(1,|theta|)^deg;
    failing that raises RootFindingError with the best iterates attached.
    """
    deg = p.degree
    if deg < 1:
        raise ValueError("root finding needs degree >= 1")
    with mp.workprec(precision_bits + GUARD_BITS):
        cs = [to_mpc(c) for c in p.coeffs]
        dcs = [i * cs[i] for i in range(1, len(cs))]
        lead = cs[-1]

        if deg == 1:
            roots = [-cs[0] / cs[1]]
        else:
            radius = 1 + max(abs(c / lead) for c in cs[:-1])
            roots = [
                radius * mp.expjpi(2 * mp.mpf(i) / deg + mp.mpf(1) / (2 * deg))
                for i in range(deg)
            ]
            eps_stop = mp.mpf(2) ** (-(precision_bits + 32))
            converged = False
            for _ in range(500):
                shift_max = mp.mpf(0)
                for i in range(deg):
                    x = roots[i]
                    pv = _horner(cs, x)
                    dv = _horner(dcs, x)
                    if dv == 0:
                        # stalled on a critical point; nudge and retry
                        roots[i] = x + mp.mpf("0.001") * (1 + abs(x))
                        shift_max = max(shift_max, abs(roots[i] - x))
                        continue
                    newton = pv / dv
                    repulse = mp.mpc(0)
                    for j in range(deg):
                        if j != i and roots[j] != x:
                            repulse += 1 / (x - roots[j])
                    denom = 1 - newton * repulse
                    w = newton if denom == 0 else newton / denom
                    roots[i] = x - w
                    shift_max = max(shift_max, abs(w))
                if shift_max <= eps_stop:
                    converged = True
                    break
            if not converged:
                raise RootFindingError(
                    "simultaneous iteration did not converge; raise the precision",
                    best=roots,
                )

        for i in range(deg):
            for _ in range(3):
                dv = _horner(dcs, roots[i])
                if dv == 0:
                    break
                roots[i] = roots[i] - _horner(cs, roots[i]) / dv

        max_coeff = max(abs(c) for c in cs)
        allowed = mp.mpf(2) ** (-(precision_bits // 2)) * max_coeff
        for x in roots:
            if abs(_horner(cs, x)) > allowed * max(mp.mpf(1), abs(x)) ** deg:
                raise RootFindingError(
                    "root residual above certification bound; raise the precision",
                    best=roots,
                )
        return [mp.mpc(x) for x in roots]


def _sort_key(root: Root, precision_bits: int):
    with mp.workprec(precision_bits + GUARD_BITS):
        if root.kind == "rational":
            t = to_mpf(root.theta)
            return (abs(t), mp.pi if t < 0 else mp.mpf(0))
        return (abs(root.theta), mp.arg(root.theta))


def _check_recombination(rs: RootSet, d: RatPoly, tol: float) -> None:
    """lead * prod (z - theta)^e must reproduce d."""
    arith = rs.arithmetic
    with arith.context():
        got = [arith.lift(rs.lead)]
        for root in rs.roots:
            got = mul_coeffs(got, linear_power(arith.lift(root.theta), root.multiplicity))
        want = [arith.lift(c) for c in d.coeffs]
        err = max(abs(g - w) for g, w in zip(got, want))
        scale = max(abs(w) for w in want)
        if len(got) != len(want) or not arith.within(err, tol, scale):
            raise RootFindingError(
                f"recombination residual {mp.nstr(err / scale)} above tolerance; "
                "raise the precision"
            )


def factor_charpoly(d: RatPoly, precision_bits: int = DEFAULT_PRECISION_BITS,
                    tol: float = DEFAULT_TOLERANCE,
                    factors: Sequence[RatPoly] | None = None) -> RootSet:
    """Full factorization of d over the complex numbers as a RootSet.

    factors, when given, multiply to d (a CharPolyBundle's block
    factors); d alone is one factor.  Linear factors give their roots
    directly.  The multiplicities of the other roots are read off the
    square-free decomposition of the product of the non-linear factors;
    each square-free factor is split into exact rational roots, merged
    with the linear ones, and numeric ones.  d(0) must be nonzero (it is
    1 for determinant pencils), so zero is never a root.
    """
    if d.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if d.coeff(0) == 0:
        raise ValueError("z = 0 must not be a root")
    rational: dict[Fraction, int] = {}
    nonlinear = RatPoly.one()
    for factor in (d,) if factors is None else factors:
        if factor.degree == 1:
            theta = -factor.coeff(0) / factor.coeff(1)
            rational[theta] = rational.get(theta, 0) + 1
        else:
            nonlinear = nonlinear * factor
    roots: list[Root] = []
    for factor, mult in squarefree_decompose(nonlinear):
        found, cofactor = rational_roots(factor)
        for theta, inner in found:
            if inner != 1:
                raise ArithmeticError("square-free factor with a repeated root")
            rational[theta] = rational.get(theta, 0) + mult
        if cofactor.degree >= 1:
            for theta in numeric_roots(cofactor, precision_bits):
                roots.append(Root(theta=theta, multiplicity=mult, kind="numeric"))
    roots += [Root(theta=theta, multiplicity=mult, kind="rational")
              for theta, mult in rational.items()]
    roots.sort(key=lambda root: _sort_key(root, precision_bits))
    rs = RootSet(roots=tuple(roots), lead=d.lead, precision=precision_bits,
                 degree=max(d.degree, 0))
    if sum(r.multiplicity for r in rs.roots) != rs.degree:
        raise ArithmeticError("multiplicities do not add up to the degree")
    _check_recombination(rs, d, tol)
    return rs
