"""Independent oracles for the pencil polynomials and the Euler characteristic.

The library reads d, k and m off one sweep over the powers of A (Newton's
identities on the traces, then products with the chain-count series).
Everything here takes a different road, so that agreement means something:

- Bareiss determinants of E - A z at N+1 integer points, then Lagrange
  interpolation.  Adjugate sums never form the adjugate itself; they use
  the rank-one update identities

      sum(adj(M))   = det(M + J) - det(M)        (J the all-ones matrix)
      sum(adj(M) A) = det(M + (A 1) 1^T) - det(M)

  and m(z) is recomputed from z m(z) = k(z) - N d(z), the two routes
  agreeing to the last digit.
- The reversed pencil A - E z, computed directly, against coefficient
  reversal of d and k; its valuations at z = 0 give the Euler
  characteristic a second time.
- The sum of the entries of A^{-1}, the classical Euler characteristic of
  a poset by Moebius inversion.
- The Taylor expansion of m/d against chain counts from matrix powers.
- Rational roots by the rational-root theorem, where the library lifts
  p-adically: every divisor of both end coefficients, found by trial
  division up to the coefficient itself.
- The category axioms by brute force over every ordered pair and triple
  of morphisms, composable where the endpoints meet, against validate's
  walks over an index of the morphisms into each object.
- Chain counts by brute-force enumeration of composable morphisms, and
  the series inverse and logarithm by their own recurrences, against the
  library's matrix sweep and exponential.
- n [z^n] log of a closed form summed term by term in Fractions, against
  the library's integer difference tables.
- The closed form of a disjoint union A + B as the merge of A's and B's
  (zeta_(A+B) = zeta_A zeta_B), against the union's own.
- C1 over every n = 1..K (c1_k_term_oracle): the closed form's log
  coefficients against a chain-count sweep to K, against verify's window
  of min(K, N) orders under the certificate P(A) 1 = 0.
- The Hermite terms A_{k,j} of m/d and the closed form's beta's in
  Fractions: rem(theta_k + w) expanded term by term, the product of the
  other roots' factors inverted by the series kernel, and each beta_j
  summed from the A_{k,j}, against the library's integer kernels.
- C2's sum of the beta0 and C4's alternating sum of the beta's, added
  term by term in Fractions, against verify's sums over one int
  denominator.
- The degree of the minimal polynomial of A on 1 as the rank of the
  Krylov vectors 1, A 1, .., A^N 1 (plain matrix-vector products, then
  fraction-free elimination), against the pencil's path bound deg mu~.
- The path bound c_lambda itself by depth-first search over every path
  of A's support, against the pencil's pass over Tarjan's blocks.
- Aberth's sweep and Newton's polish, and the coefficient-list product,
  in mpc operators, against numeric_roots and mul_coeffs on mpmath's
  tuple kernels: the same operations, so equal bit for bit.

Also here: simultaneous row/column permutation of a matrix, which the
tests use to scramble block-triangular inputs, and the indiscrete
category on k objects, equivalent to the terminal one, which the tests
multiply into others as a blow-up that leaves chi unchanged.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, gcd
from typing import Callable, Sequence

from catzeta import (
    CharPolyBundle,
    ClosedFormZeta,
    EulerReport,
    FiniteCategory,
    IntMatrix,
    Morphism,
    RatPoly,
    category_from_dict,
    chain_counts,
    char_poly_bundle,
    closed_form_counts,
    mul_coeffs,
)
from catzeta.poly import horner
from catzeta.roots import GUARD_BITS, to_mpc


def bareiss_det(rows: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free elimination with pivoting."""
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix must be square")
    if n == 0:
        return 1
    m = [[int(x) for x in row] for row in rows]
    sign = 1
    prev = 1
    for col in range(n - 1):
        if m[col][col] == 0:
            pivot = next((i for i in range(col + 1, n) if m[i][col] != 0), None)
            if pivot is None:
                return 0
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        for i in range(col + 1, n):
            for j in range(col + 1, n):
                # Division is exact at every step; that is Bareiss's point.
                m[i][j] = (m[i][j] * m[col][col] - m[i][col] * m[col][j]) // prev
            m[i][col] = 0
        prev = m[col][col]
    return sign * m[n - 1][n - 1]


def lagrange_interpolate(points: Sequence[tuple]) -> RatPoly:
    """The unique polynomial of degree < len(points) through the given points."""
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation abscissae must be pairwise distinct")
    result = RatPoly.zero()
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        if yi == 0:
            continue
        basis = RatPoly.one()
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            basis = basis * RatPoly((-xj, 1))
            denom *= xi - xj
        result = result + basis * (yi / denom)
    return result


def _interpolated(value_at: Callable[[int], int], degree_bound: int) -> RatPoly:
    """Polynomial of degree <= degree_bound from its values at 0..degree_bound."""
    points = [(Fraction(z), Fraction(value_at(z))) for z in range(degree_bound + 1)]
    return lagrange_interpolate(points)


def _pencil_entry(a: IntMatrix, i: int, j: int, z: int) -> int:
    return (1 if i == j else 0) - a[i, j] * z


# -- the pencil E - A z ---------------------------------------------------------

def det_poly(a: IntMatrix) -> RatPoly:
    """d(z) = det(E - A z), exactly."""
    n = a.n
    if n == 0:
        return RatPoly.one()

    def value_at(z: int) -> int:
        return bareiss_det([[_pencil_entry(a, i, j, z) for j in range(n)] for i in range(n)])

    return _interpolated(value_at, n)


def adjsum_poly(a: IntMatrix) -> RatPoly:
    """k(z) = sum of entries of adj(E - A z), exactly."""
    n = a.n
    if n == 0:
        return RatPoly.zero()

    def value_at(z: int) -> int:
        m = [[_pencil_entry(a, i, j, z) for j in range(n)] for i in range(n)]
        bumped = [[m[i][j] + 1 for j in range(n)] for i in range(n)]
        return bareiss_det(bumped) - bareiss_det(m)

    # The z^N terms of det(M+J) and det(M) cancel, so degree <= N-1; we
    # interpolate with a point to spare and check that they really did.
    k = _interpolated(value_at, n)
    if k.degree > n - 1:
        raise ArithmeticError("adjugate sum exceeded its degree bound")
    return k


def adjsum_times_a_poly(a: IntMatrix, k: RatPoly | None = None,
                        d: RatPoly | None = None) -> RatPoly:
    """m(z) = sum of entries of adj(E - A z) A, exactly, via two routes.

    Route one is the rank-one update determinant; route two divides
    k(z) - N d(z) by z.  Disagreement means the determinant backend is
    broken, and raises.
    """
    n = a.n
    if n == 0:
        return RatPoly.zero()
    row_sums = [sum(row) for row in a.rows]

    def value_at(z: int) -> int:
        m = [[_pencil_entry(a, i, j, z) for j in range(n)] for i in range(n)]
        bumped = [[m[i][j] + row_sums[i] for j in range(n)] for i in range(n)]
        return bareiss_det(bumped) - bareiss_det(m)

    direct = _interpolated(value_at, n)
    if direct.degree > n - 1:
        raise ArithmeticError("adjugate sum exceeded its degree bound")

    if k is None:
        k = adjsum_poly(a)
    if d is None:
        d = det_poly(a)
    shifted = k - d * n
    quot, rem = divmod(shifted, RatPoly([0, 1]))
    if not rem.is_zero():
        raise ArithmeticError("k(z) - N d(z) has a nonzero constant term")
    if quot != direct:
        raise ArithmeticError("the two adjugate-sum-times-A routes disagree")
    return direct


def oracle_pencil(a: IntMatrix) -> tuple[RatPoly, RatPoly, RatPoly]:
    """(d, k, m) by Bareiss determinants and Lagrange interpolation."""
    d = det_poly(a)
    k = adjsum_poly(a)
    return d, k, adjsum_times_a_poly(a, k=k, d=d)


# -- the reversed pencil A - E z ------------------------------------------------

def reversed_det_poly(d: RatPoly, n: int) -> RatPoly:
    """det(A - E z) = (-1)^N (d_0 z^N + d_1 z^{N-1} + ... + d_N)."""
    sign = -1 if n % 2 else 1
    return RatPoly([sign * d.coeff(n - j) for j in range(n + 1)])


def reversed_adjsum_poly(k: RatPoly, n: int) -> RatPoly:
    """sum adj(A - E z) = (-1)^{N-1} (k_0 z^{N-1} + ... + k_{N-1})."""
    if n == 0:
        return RatPoly.zero()
    sign = 1 if n % 2 else -1
    return RatPoly([sign * k.coeff(n - 1 - j) for j in range(n)])


def reversed_pencil_polys(a: IntMatrix) -> tuple[RatPoly, RatPoly]:
    """det(A - E z) and sum adj(A - E z), computed directly from A.

    Independent of the pencil E - A z; used to cross-check the
    coefficient-reversal formulas and as an alternative route to the
    series Euler characteristic.
    """
    n = a.n
    if n == 0:
        return RatPoly.one(), RatPoly.zero()

    def rev_entry(i: int, j: int, z: int) -> int:
        return a[i, j] - (z if i == j else 0)

    def det_at(z: int) -> int:
        return bareiss_det([[rev_entry(i, j, z) for j in range(n)] for i in range(n)])

    def adjsum_at(z: int) -> int:
        m = [[rev_entry(i, j, z) for j in range(n)] for i in range(n)]
        bumped = [[m[i][j] + 1 for j in range(n)] for i in range(n)]
        return bareiss_det(bumped) - bareiss_det(m)

    return _interpolated(det_at, n), _interpolated(adjsum_at, n)


def reversal_check(a: IntMatrix, bundle: CharPolyBundle | None = None) -> bool:
    """Recompute det(A - E z) and sum adj(A - E z) directly and compare
    against the coefficient-reversal formulas.  True iff both match."""
    if bundle is None:
        bundle = char_poly_bundle(a)
    n = a.n
    if n == 0:
        return True
    direct_det, direct_adj = reversed_pencil_polys(a)
    return (direct_det == reversed_det_poly(bundle.d, n)
            and direct_adj == reversed_adjsum_poly(bundle.k, n))


# -- the Euler characteristic, twice more ---------------------------------------

def _valuation(p: RatPoly) -> int | None:
    """Order of vanishing at 0; None for the zero polynomial."""
    if p.is_zero():
        return None
    return next(i for i in range(p.degree + 1) if p.coeff(i) != 0)


def euler_char_oracle(a: IntMatrix) -> EulerReport:
    """The series Euler characteristic via the reversed pencil, straight from A.

    det(A - E z) vanishes to order r at z = 0 and sum adj(A - E z) to
    order s; the characteristic is the ratio of the two lowest nonzero
    coefficients when the orders agree.
    """
    det_rev, adj_rev = reversed_pencil_polys(a)
    r = _valuation(det_rev)
    assert r is not None  # lowest coefficient of det(A - E z) includes z^N
    s = _valuation(adj_rev)
    if s is None:
        # adjugate sum is identically zero only for the empty matrix
        return EulerReport(exists=True, chi=Fraction(0), r=0, s=0, branch="empty")
    if s < r:
        return EulerReport(exists=False, chi=None, r=r, s=s, branch="undefined")
    if s > r:
        return EulerReport(exists=True, chi=Fraction(0), r=r, s=s, branch="vanishes")
    chi = adj_rev.coeff(s) / det_rev.coeff(r)
    return EulerReport(exists=True, chi=chi, r=r, s=s, branch="ratio")


def mobius_euler_char(a: IntMatrix) -> Fraction:
    """Sum of the entries of A^{-1}, computed exactly.

    For the adjacency matrix of a poset this is the classical Euler
    characteristic via the incidence-algebra inverse.  Raises
    ZeroDivisionError when A is singular.
    """
    n = a.n
    if n == 0:
        return Fraction(0)
    work = [[Fraction(a[i, j]) for j in range(n)] + [Fraction(1 if j == i else 0) for j in range(n)]
            for i in range(n)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if work[i][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for i in range(n):
            if i != col and work[i][col] != 0:
                factor = work[i][col]
                work[i] = [x - factor * y for x, y in zip(work[i], work[col])]
    return sum(work[i][n + j] for i in range(n) for j in range(n))


# -- the log-derivative identity ------------------------------------------------

def log_derivative_check(a: IntMatrix, order: int) -> bool:
    """True iff the Taylor expansion of m(z)/d(z) through z**(order-1)
    reproduces the chain counts: coefficient of z^t must be the number
    of chains of t+1 morphisms.  d and m come from the Bareiss oracle and
    the counts from matrix powers, so the library's sweep is not involved.
    Exact rational series division."""
    if order < 1:
        raise ValueError("need at least one coefficient to compare")
    d, _, m = oracle_pencil(a)
    dc = [d.coeff(i) for i in range(order)]
    mc = [m.coeff(i) for i in range(order)]
    quotient = mul_coeffs(inv_trunc(dc), mc, order)
    power = a
    for t in range(order):
        if quotient[t] != sum(map(sum, power.rows)):
            return False
        power = power @ a
    return True


# -- rational roots by unbounded enumeration --------------------------------------

def rational_roots_oracle(p: RatPoly) -> tuple[list[tuple[Fraction, int]], RatPoly]:
    """Rational roots with multiplicities and the deflated cofactor, trying
    every +-num/den with num | c_0 and den | c_m of the primitive integer
    form, in increasing order, by exact evaluation.  Divisors come from
    trial division all the way up to |n|, so only small coefficients are
    practical."""
    roots: list[tuple[Fraction, int]] = []
    cof = p
    mult = 0
    while cof.degree >= 1 and cof.coeff(0) == 0:
        cof = cof // RatPoly([0, 1])
        mult += 1
    if mult:
        roots.append((Fraction(0), mult))
    if cof.degree < 1:
        return roots, cof
    scale = 1
    for c in cof.coeffs:
        scale = scale * c.denominator // gcd(scale, c.denominator)
    ints = [int(c * scale) for c in cof.coeffs]
    g = gcd(*ints)
    ints = [c // g for c in ints]

    def divisors(n: int) -> list[int]:
        return [i for i in range(1, abs(n) + 1) if n % i == 0]

    candidates = sorted({Fraction(sign * num, den) for num in divisors(ints[0])
                         for den in divisors(ints[-1]) for sign in (1, -1)})
    for cand in candidates:
        mult = 0
        while cof.degree >= 1 and cof(cand) == 0:
            cof = cof // RatPoly((-cand, 1))
            mult += 1
        if mult:
            roots.append((cand, mult))
    return roots, cof


# -- category axioms --------------------------------------------------------

def axiom_violations_oracle(c: FiniteCategory) -> list[str]:
    """validate's lines by brute force: every ordered pair (g, f) and
    triple (h, g, f) of morphisms, kept where the endpoints meet, with no
    index of the morphisms into each object.  A line may appear twice
    here (the pair (e, e) of an identity e is a unit pair on both sides);
    compare as sets."""
    out = []
    by_name = {f.name: f for f in c.morphisms}
    ids = set(c.identity.values())
    for g, f in product(c.morphisms, repeat=2):
        if g.src != f.tgt:
            continue
        h = c.compose.get((g.name, f.name))
        if h is None:
            out.append(f"totality: composable pair ({g.name}, {f.name}) missing from table")
            continue
        if (by_name[h].src, by_name[h].tgt) != (f.src, g.tgt):
            out.append(f"closure: ({g.name}, {f.name}) -> {h} has endpoints "
                       f"{by_name[h].src}->{by_name[h].tgt}, expected {f.src}->{g.tgt}")
        for unit, other in ((f, g), (g, f)):
            if unit.name in ids and h != other.name:
                out.append(f"identity: ({g.name}, {f.name}) composes to {h}, "
                           f"expected {other.name}")
    for h, g, f in product(c.morphisms, repeat=3):
        if h.src != g.tgt or g.src != f.tgt:
            continue
        hg, gf = c.compose.get((h.name, g.name)), c.compose.get((g.name, f.name))
        if hg is None or gf is None:
            continue
        left, right = c.compose.get((h.name, gf)), c.compose.get((hg, f.name))
        if left is not None and right is not None and left != right:
            out.append(f"associativity: ({h.name}, {g.name}, {f.name}) gives "
                       f"{left} vs {right}")
    return out


# -- chains, series inverse and logarithm, permutations ------------------------

def enumerate_chains(c: FiniteCategory, m: int, cap: int = 5) -> int:
    """Brute-force chain count by nested iteration over matching morphisms.

    Deliberately independent of chain_counts; serves as its oracle.
    Refuses lengths above `cap` to bound the cost.
    """
    if m < 0:
        raise ValueError("chain length must be nonnegative")
    if m > cap:
        raise ValueError(
            f"brute-force enumeration capped at m={cap}; use chain_counts for longer chains"
        )
    if m == 0:
        return len(c.objects)
    by_src: dict[str, list[Morphism]] = {x: [] for x in c.objects}
    for f in c.morphisms:
        by_src[f.src].append(f)

    def count_from(obj: str, remaining: int) -> int:
        if remaining == 0:
            return 1
        return sum(count_from(f.tgt, remaining - 1) for f in by_src[obj])

    return sum(count_from(x, m) for x in c.objects)


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


def log_trunc(s: Sequence) -> list:
    """log of a coefficient list with constant term one (inverse of exp_trunc)."""
    K = len(s) - 1
    zero = s[0] * 0
    out = [zero] * (K + 1)
    for n in range(K):
        acc = (n + 1) * s[n + 1]
        for i in range(n):
            c = s[n - i]
            if c != 0:
                acc = acc - (i + 1) * out[i + 1] * c
        out[n + 1] = acc / (n + 1)
    return out


def indiscrete(k: int) -> FiniteCategory:
    """k objects with exactly one morphism each way between any two, built
    through the JSON wire format: g f is the one morphism from f's source
    to g's target, an identity where they are equal."""
    objects = [str(x) for x in range(k)]

    def hom(x, y):
        return f"id_{x}" if x == y else f"{x}>{y}"

    arrows = [(x, y) for x in objects for y in objects if x != y]
    return category_from_dict({
        "name": f"indiscrete({k})",
        "objects": objects,
        "morphisms": [{"id": hom(x, y), "src": x, "tgt": y}
                      for x in objects for y in objects],
        "identity": {x: hom(x, x) for x in objects},
        "compose": [[hom(y, z), hom(x, y), hom(x, z)]
                    for x, y in arrows for z in objects if z != y],
    })


def permuted(a: IntMatrix, perm: Sequence[int]) -> IntMatrix:
    """Simultaneous row/column permutation: entry (i, j) of the result is
    the (perm[i], perm[j]) entry of a."""
    rows = a.rows  # built on each read
    return IntMatrix([[rows[perm[i]][perm[j]] for j in range(a.n)] for i in range(a.n)])


def closed_form_counts_oracle(cf: ClosedFormZeta, order: int) -> list[Fraction]:
    """n [z^n] log zeta = q_{n-1} + sum_k sum_j beta_{k,j} C(n, j) alpha_k^(n-j)
    for n = 1..order, each term in Fractions: no difference table, no
    common denominator."""
    out = []
    for n in range(1, order + 1):
        acc = n * cf.q_integral.coeff(n)  # q_{n-1} = n Q_n
        for f in cf.factors:
            for j, beta in enumerate((f.beta0,) + f.betas):
                if j <= n:
                    acc += beta * comb(n, j) * Fraction(f.alpha) ** (n - j)
        out.append(acc)
    return out


def closed_form_terms(cf: ClosedFormZeta) -> tuple[RatPoly, dict]:
    """Q and, keyed by alpha, (multiplicity, (beta0, beta_1, ..)) of a
    closed form: what determines it, with no order among the roots."""
    return cf.q_integral, {f.alpha: (f.multiplicity, (f.beta0,) + f.betas)
                           for f in cf.factors}


def merged_closed_form(left: ClosedFormZeta, right: ClosedFormZeta) -> tuple[RatPoly, dict]:
    """closed_form_terms of zeta_A zeta_B, the zeta of A + B, from A's and
    B's closed forms: Q adds, and where an alpha is shared the
    multiplicities add and the beta_j add, each list padded with zeros."""
    q, terms = closed_form_terms(left)
    q_right, terms_right = closed_form_terms(right)
    for alpha, (e, betas) in terms_right.items():
        e_left, betas_left = terms.get(alpha, (0, ()))
        width = e_left + e
        terms[alpha] = (width, tuple(
            x + y for x, y in zip(betas_left + (0,) * (width - len(betas_left)),
                                  betas + (0,) * (width - len(betas)))))
    return q + q_right, terms


def hermite_terms_oracle(rem: RatPoly, thetas: Sequence[Fraction],
                         mults: Sequence[int]) -> list[tuple[Fraction, ...]]:
    """A_{k,j} for j = 1..e_k: the Taylor coefficients at theta_k of
    rem(z) / prod_{l != k} (z - theta_l)^{e_l}, read off in reverse, each
    step in Fractions."""
    terms = []
    for k, (theta, e) in enumerate(zip(thetas, mults)):
        numer = [Fraction(0)] * e  # rem(theta + w) through w^(e-1)
        for i, c in enumerate(rem.coeffs):
            for t in range(min(i, e - 1) + 1):
                numer[t] += c * comb(i, t) * theta ** (i - t)
        denom = [Fraction(1)] + [Fraction(0)] * (e - 1)
        for l, (theta_l, e_l) in enumerate(zip(thetas, mults)):
            if l != k:  # (w + theta - theta_l)^(e_l) through w^(e-1)
                factor = [comb(e_l, t) * (theta - theta_l) ** (e_l - t) if t <= e_l
                          else Fraction(0) for t in range(e)]
                denom = mul_coeffs(factor, denom, e)
        terms.append(tuple(reversed(mul_coeffs(inv_trunc(denom), numer, e))))
    return terms


def closed_form_betas_oracle(rootset, terms_by_root
                             ) -> list[tuple[Fraction, tuple[Fraction, ...]]]:
    """(beta0, (beta_1..beta_(e-1))) per root of rootset, from its A_{k,j}
    (terms_by_root[k][j-1]): beta0 = -A_{k,1}/lead and
    beta_j = (1/lead) sum_{i=j}^{e-1} C(i-1, j-1) (-1)^(i+1) alpha^(i+j) A_{k,i+1},
    each term in Fractions."""
    lead, out = Fraction(rootset.lead), []
    for root, terms in zip(rootset.roots, terms_by_root):
        alpha, e = 1 / Fraction(root.theta), root.multiplicity
        betas = tuple(sum((Fraction((-1) ** (i + 1) * comb(i - 1, j - 1)) * alpha ** (i + j)
                           * terms[i] for i in range(j, e)), Fraction(0)) / lead
                      for j in range(1, e))
        out.append((-terms[0] / lead, betas))
    return out


def c2_sum_oracle(cf: ClosedFormZeta) -> Fraction:
    """C2's sum of the exponents beta_{k,0}, added in Fractions."""
    return sum((f.beta0 for f in cf.factors), Fraction(0))


def c4_sum_oracle(cf: ClosedFormZeta) -> Fraction:
    """C4's sum_k sum_j (-1)^j beta_{k,j} / alpha_k^(j+1), term by term in
    Fractions."""
    acc = Fraction(0)
    for f in cf.factors:
        for j, beta in enumerate((f.beta0,) + f.betas):
            acc += (-1) ** j * beta / Fraction(f.alpha) ** (j + 1)
    return acc


def c1_k_term_oracle(cf: ClosedFormZeta, a: IntMatrix, order: int) -> Fraction:
    """C1 as compared before the window: max |got - want| / max(1, |want|)
    over n = 1..order of closed_form_counts(cf, order) against
    chain_counts(a, order), and 0 when every pair is equal."""
    pairs = zip(closed_form_counts(cf, order), chain_counts(a, order)[1:])
    return max((abs(got - want) / max(1, abs(want)) for got, want in pairs if got != want),
               default=Fraction(0))


def krylov_rank(a: IntMatrix) -> int:
    """The degree of the minimal polynomial of A on 1: the rank of the
    vectors 1, A 1, .., A^N 1, each by a plain matrix-vector product, by
    fraction-free elimination on ints.  A column with no pivot left is
    skipped; every division stays exact (Sylvester's identity)."""
    rows, v, dense = [], [1] * a.n, a.rows
    for _ in range(a.n + 1):
        rows.append(v)
        v = [sum(x * y for x, y in zip(row, v)) for row in dense]
    rank, prev = 0, 1
    for col in range(a.n):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            rows[i] = [(x * top[col] - rows[i][col] * y) // prev for x, y in zip(rows[i], top)]
        prev, rank = top[col], rank + 1
    return rank


def path_bound_oracle(a: IntMatrix) -> dict[int, int]:
    """For each diagonal value lambda of A, the most vertices v with
    a_vv = lambda on one path of A's support (i -> j when a_ij != 0, i != j),
    by depth-first search over every path from every vertex: no DP, no
    blocks.  Meant for N <= 7 and a support with no cycle but self-loops,
    where the paths are simple and few."""
    rows = a.rows  # built on each read
    diag = [rows[v][v] for v in range(a.n)]
    best = dict.fromkeys(diag, 0)
    stack = [(v, (v,)) for v in range(a.n)]
    while stack:
        v, path = stack.pop()
        for lam in best:
            best[lam] = max(best[lam], sum(diag[u] == lam for u in path))
        stack.extend((w, path + (w,)) for w in range(a.n)
                     if rows[v][w] and w not in path)
    return best


def aberth_reference(p: RatPoly, precision_bits: int) -> list:
    """numeric_roots' sweep and polish in mpc operators, with no
    certificate: the iterates numeric_roots must return, bit for bit."""
    from mpmath import mp
    deg = p.degree
    with mp.workprec(precision_bits + GUARD_BITS):
        cs = [to_mpc(c) for c in p.coeffs]
        dcs = [i * cs[i] for i in range(1, len(cs))]
        lead = cs[-1]
        radius = 1 + max(abs(c / lead) for c in cs[:-1])
        roots = [radius * mp.expjpi(2 * mp.mpf(i) / deg + mp.mpf(1) / (2 * deg))
                 for i in range(deg)]
        eps_stop = mp.mpf(2) ** (-(precision_bits + 32))
        for _ in range(500):
            converged = True
            for i in range(deg):
                x = roots[i]
                pv = horner(cs, x)
                dv = horner(dcs, x)
                if not dv:
                    roots[i] = x + mp.mpf("0.001") * (1 + abs(x))
                    converged = False
                    continue
                newton = pv / dv
                diffs = [x - other for other in roots]
                repulse = sum((1 / diff for diff in diffs if diff), mp.mpc(0))
                denom = 1 - newton * repulse
                w = newton / denom if denom else newton
                roots[i] = x - w
                converged = converged and abs(w) <= eps_stop * max(1, abs(x) / 2 ** 32)
            if converged:
                break
        for i in range(deg):
            for _ in range(3):
                dv = horner(dcs, roots[i])
                if not dv:
                    break
                roots[i] = roots[i] - horner(cs, roots[i]) / dv
        return roots


def mul_coeffs_reference(a: Sequence, b: Sequence, n: int | None = None) -> list:
    """mul_coeffs' loop in the scalars' own operators, whatever their type."""
    size = len(a) + len(b) - 1 if n is None else n
    out = [a[0] * 0] * size
    for j, cb in enumerate(b[:size]):
        if not cb:
            continue
        unit = cb == 1
        for i, ca in enumerate(a[:size - j], start=j):
            out[i] = out[i] + (ca if unit else ca * cb)
    return out
