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
exactly in the all-rational case and to a relative coefficient error of
DEFAULT_TOLERANCE otherwise, the exact check on ints (Arithmetic.split).
Only a numeric root loads mpmath.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .poly import RatPoly, linear_power, mul_coeffs, squarefree_decompose

DEFAULT_PRECISION_BITS = 128
DEFAULT_TOLERANCE = 1e-12
GUARD_BITS = 64  # working precision above the requested one, for every mpmath stage


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
    return mp.mpc(x)


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

    Exact: Fractions, never mpmath, and a check holds only with a zero
    residual.  Numeric: mpmath complex numbers at precision + GUARD_BITS,
    and a check holds when its residual is within tolerance.  The exact
    identities are checked denominator-free, on ints: split gives each
    number as a / b, and a check scales both sides once.  An exact theta
    is 1/lambda, lambda a rational root of the monic integer det(x E - A)
    and so an integer: theta = +-1/b and alpha = +-b.
    """

    exact: bool
    precision: int

    @property
    def one(self):
        return Fraction(1) if self.exact else to_mpc(1)

    def lift(self, x):
        """An exact number (int or Fraction) as a scalar of this arithmetic."""
        return x if self.exact else to_mpc(x)

    def split(self, x):
        """x = a / b as (a, b): numerator and denominator when exact, else (lift(x), 1)."""
        return (x.numerator, x.denominator) if self.exact else (to_mpc(x), 1)

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
    lead: Fraction       # leading coefficient of d
    precision: int       # working binary precision in bits

    @property
    def all_rational(self) -> bool:
        return all(r.kind == "rational" for r in self.roots)

    @property
    def arithmetic(self) -> Arithmetic:
        """Exact exactly when every root is rational."""
        return Arithmetic(self.all_rational, self.precision)


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BASES_BOUND = 3317044064679887385961981  # Miller-Rabin on them is exact below
_TRIAL_BOUND = 1 << 10  # _divisors tries trial division up to it before rho


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases _PRIME_BASES, exact for n < _PRIME_BASES_BOUND:
    with n - 1 = 2**s d, d odd, each a has a**d = 1 or a**(2**r d) = -1, r < s."""
    if n < 2 or any(n % p == 0 for p in _PRIME_BASES):
        return n in _PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # the lowest set bit of n - 1
    return all(pow(a, (n - 1) >> s, n) == 1
               or any(pow(a, (n - 1) >> i, n) == n - 1 for i in range(1, s + 1))
               for a in _PRIME_BASES)


def _rho(n: int, steps: int) -> int:
    """A proper factor of n by Pollard's rho on y -> y^2 + 1 with Brent's
    cycle detection, or 1 when none turned up within steps steps."""
    x = y = r = 2
    for i in range(2, steps + 2):
        y = (y * y + 1) % n
        g = math.gcd(x - y, n)
        if g > 1:
            return g if g < n else 1
        if i == r:  # the tortoise jumps to the hare at each power of 2
            x, r = y, 2 * r
    return 1


def _divisors(n: int, limit: int) -> list[int]:
    """The positive divisors of n that are at most limit, built from its
    prime powers.  A cofactor that is not prime is split at its least
    prime factor up to _TRIAL_BOUND, else by Pollard-Brent rho, else at
    its least one up to min(limit, sqrt); one that stays whole is prime
    or has no prime factor at most limit, and above limit adds no divisor."""
    exps, stack = {}, [abs(n)]
    while stack:
        m = stack.pop()
        sweep, f = min(limit, math.isqrt(m)), m
        if m > 1 and not (m < _PRIME_BASES_BOUND and _is_prime(m)):
            f = next((p for p in range(2, min(sweep, _TRIAL_BOUND) + 1) if m % p == 0), 1)
            if f == 1 and sweep > _TRIAL_BOUND:
                f = _rho(m, sweep // 32)  # about half the cost of the sweep
            if f == 1:
                f = next((p for p in range(_TRIAL_BOUND + 1, sweep + 1) if m % p == 0), m)
        if f < m:
            stack += [f, m // f]
        elif m > 1:
            exps[m] = exps.get(m, 0) + 1
    out = [1]
    for p, e in sorted(exps.items()):
        out += [d * p ** k for d in out for k in range(1, e + 1) if d * p ** k <= limit]
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
    from mpmath import mp
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
    from mpmath import mp
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
                    if not dv:
                        # stalled on a critical point; nudge and retry
                        roots[i] = x + mp.mpf("0.001") * (1 + abs(x))
                        shift_max = max(shift_max, abs(roots[i] - x))
                        continue
                    newton = pv / dv
                    diffs = [x - other for other in roots]  # 0 at x itself and at equal roots
                    repulse = sum((1 / diff for diff in diffs if diff), mp.mpc(0))
                    denom = 1 - newton * repulse
                    w = newton / denom if denom else newton
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
                if not dv:
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
    """|theta|, then arg(theta) in (-pi, pi], as mpmath numbers (mpf and
    Fraction do not compare): the order of a root set with a numeric root."""
    from mpmath import mp
    with mp.workprec(precision_bits + GUARD_BITS):
        if root.kind == "rational":
            t = to_mpf(root.theta)
            return (abs(t), mp.pi if t < 0 else mp.mpf(0))
        return (abs(root.theta), mp.arg(root.theta))


def _check_recombination(rs: RootSet, d: RatPoly) -> None:
    """lead * prod (z - theta)^e must reproduce d: with theta = a / b
    (Arithmetic.split), lead * prod (b z - a)^e = d * prod b^e, times the
    lcm D of the coefficients' denominators, all ints when exact."""
    arith = rs.arithmetic
    with arith.context():
        (lead, lead_den), *want = [arith.split(c) for c in (rs.lead,) + d.coeffs]
        mult = math.lcm(lead_den, *(b for _, b in want))
        got = [lead * (mult // lead_den)]
        for root in rs.roots:
            a, b = arith.split(root.theta)
            got = mul_coeffs(got, linear_power(a, b, root.multiplicity))
            mult *= b ** root.multiplicity  # D prod b^e
        want = [a * (mult // b) for a, b in want]
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
                roots.append(Root(theta, mult))
    roots += [Root(theta, mult) for theta, mult in rational.items()]
    if sum(r.multiplicity for r in roots) != d.degree:
        raise ArithmeticError("multiplicities do not add up to the degree")
    if all(root.kind == "rational" for root in roots):  # the same order, unrounded
        roots.sort(key=lambda root: (abs(root.theta), root.theta < 0))
    else:
        roots.sort(key=lambda root: _sort_key(root, precision_bits))
    rs = RootSet(roots=tuple(roots), lead=d.lead, precision=precision_bits)
    _check_recombination(rs, d)
    return rs
