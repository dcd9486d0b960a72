"""The zeta function of a finite category, both ways, and its checks.

Both ways start from integer power sums: the chain counts
#N_m = 1^T A^m 1 from one sweep over the powers of A, and the traces of
the powers of A's strongly connected blocks.  One way: series_from_pair
solves rev zeta' = r zeta on ints, for r/rev = zeta'/zeta the pencil's
pair or, in zeta_series, (#N_1 .. #N_K, 1).  The other: the logarithmic
derivative of zeta is the rational function m(z)/d(z), whose polynomials
charpoly builds from the same sums, so partial fractions over the
roots of d, found block factor by block factor, give a closed form

    zeta(z) = prod_k (1 - alpha_k z)^(-beta_{k,0})
              * exp(Q(z) + sum_k sum_{j>=1} beta_{k,j} z^j / (j (1 - alpha_k z)^j))

with alpha_k = 1/theta_k.  Four identities tie the two together and are
machine-checked here: the Taylor match itself, sum of the exponents
beta_{k,0} = N, each 1/theta_k an eigenvalue of A, and an alternating
sum of the beta's equal to the series Euler characteristic.  A final
report is one point per root: a pole, a zero or an essential singularity.

The arithmetic is chosen once, by the root set: exact (the pencil's
ints, Fractions where a division leaves one) when every root of d is
rational, complex numbers at the working precision otherwise
(roots.Arithmetic).  The closed form, its Taylor and log coefficients,
identities 2 to 4 and the singularity report each run one code path
over whichever scalars the root set carries; an identity holds with a
zero residual in exact arithmetic and within a tolerance in numeric
arithmetic: verify's own for the four identities (C1 and C4 relative to
max(1, |want|)), the fixed DEFAULT_VERIFY_TOL for the singularity report.
closed_form is one stage from the pencil's pair and the roots: (R, rev),
of degree at most s = deg mu for the annihilator mu whose check passed,
so that the sweep proved m/d = R/rev; that is (m, d) where mu is P.  It
divides, cancels to lowest terms at the rational roots by exact
synthetic division, takes the Hermite terms A_{k,j} of the reduced
fraction as numerators over one denominator per root and sums the
beta's from the same numerators.  On an exact root set, whose theta are
+-1/b, it, closed_form_counts and C2 to C4 run on ints (Arithmetic.split,
join, quotient_sum) and build Fractions only for the values they return.
analyze_matrix checks the closed form once: its log coefficients
c_n = n [z^n] log zeta (closed_form_counts) must equal the swept chain
counts #N_n for n = 1..W, exactly on an exact root set and to the fixed
DEFAULT_TOLERANCE, relative, on a numeric one.  Reduced to lowest terms,
m/d = q + rem'/d' with d' = lead prod (z - theta_k)^(e'_k), e'_k <= e_k;
the window W = (N - deg d) + sum_k e'_k is the degree of the monic
mu(t) = t^(N - deg d) prod_k (t - alpha_k)^(e'_k).  delta_n = c_n - #N_n
obeys mu's recurrence for every n >= 1, so delta_1 = .. = delta_W = 0
gives delta_n = 0 for all n, as good as equal Taylor coefficients, and
with it every Hermite term, once three facts hold:

  (a) the certificate: P(A) 1 = 0 for P = cp = det(t E - A) =
      sum_i p_i t^i, the reversal of d (charpoly.monic_charpoly), so
      sum_i p_i #N_(n+i) = 1^T A^n P(A) 1 = 0 for every n >= 0 and
      sum_j #N_(j+1) z^j is m/d as a power series, which puts #N_n on
      mu's recurrence through m/d = q + rem'/d'.  The pencil proves it
      on v_0 .. v_s as mu(A) 1 = 0 for the first candidate mu that
      passes: the path bound mu~ = prod (t - lambda)^(c_lambda) of
      charpoly where each c_lambda <= e_lambda, so that mu~ divides P,
      then P itself, s = N;
  (b) the roots: each closed-form factor's alpha_k is 1/theta_k of the
      root set, whose exact recombination (factor_charpoly) proved
      d = lead prod (z - theta_k)^(e_k); e'_k comes from closed_form's
      exact divisions of the pair, and the factor's last nonzero beta has
      index below e'_k, so (t - alpha_k)^(e'_k), a factor of mu, kills
      its terms beta_j C(n, j) alpha_k^(n-j);
  (c) the polynomial part: deg Q <= N - deg d, the multiplicity of t = 0
      in mu, so the q_(n-1) = n Q_n left over vanish for n > N - deg d.

(a) holds for every bundle: charpoly checks it on the sweep's own vectors
as it builds d, k and m, and raises ArithmeticError where P's own check
fails.  The window alone would pass a wrong d, since m makes
c_n = #N_n for n <= N whatever d is.  A mismatch in the window raises
ArithmeticError naming n.  Two checks of verify still branch.  C1, on
the arithmetic: exact, it reads the analysis's match where K <= W or (b)
and (c) hold, else compares n = 1..K as it stands, its counts past #N_N
from the pair's recurrence (ZetaAnalysis.counts); numeric, it compares
closed_form_taylor with series_from_pair of the pencil's pair through
z^K.  C3 branches on each root's kind: a rational root is checked exactly
on both paths, on ints, a numeric one within the tolerance.  Its residual
is |cp(alpha)|, cp the reversal of the pencil's own d's coefficients
(monic_charpoly, evaluated by horner, of degree N), and (a) ties cp to A
only on the span of the vectors A^i 1.  So a rational alpha must also be
an eigenvalue of A itself.  Where e' > 0 the sweep shows it: under (a),
m/d = 1^T A (E - A z)^(-1) 1, whose poles are reciprocal eigenvalues.  A
root that cancels (e' = 0) must make A_BB - alpha E singular for a
strongly connected block B, 1 x 1 ones included, on A's own entries, not
the pencil's diagonal counts: charpoly owns the blocks, and that test is
its eigenvalue_of_a_block.  A numeric alpha is checked against cp alone,
so a wrong d with extra irrational roots can still pass C3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .category import IntMatrix, chain_counts, chain_vectors
from .charpoly import (
    CharPolyBundle,
    EulerReport,
    block_traces,
    bundle_from_sweep,
    check_pencil,
    continue_counts,
    eigenvalue_of_a_block,
    monic_charpoly,
    series_euler_char,
)
from .poly import RatPoly, RatSeries, cleared, exp_trunc, horner, linear_power, mul_coeffs
from .roots import (
    DEFAULT_PRECISION_BITS,
    DEFAULT_TOLERANCE,
    Arithmetic,
    RootSet,
    factor_charpoly,
)

DEFAULT_ORDER = 30
DEFAULT_VERIFY_TOL = 1e-9


# -- the series side -------------------------------------------------------

def series_from_pair(r: Sequence[int], rev: Sequence[int], order: int) -> RatSeries:
    """zeta through z**order from int lists r, rev with rev_0 = 1 and
    r/rev = zeta'/zeta as power series.  rev zeta' = r zeta gives, with
    h_n = n! g_n and n^(j) = n!/(n-j)!, a recurrence on ints of order
    max(len r, deg rev): s <= N on the pencil's pair, as zeta is D-finite
    (Stanley, "Differentiably finite power series", European J. Combin. 1980):

        h_{n+1} = sum_j r_j n^(j) h_{n-j} - sum_{i>=1} rev_i n^(i) h_{n+1-i}
    """
    h, coeffs, factorial = [1], [1], 1
    for n in range(order):
        acc, fr, fv = 0, 1, 1  # n^(j) before r_j's term, n^(j+1) at rev_(j+1)'s
        for j, c in enumerate(r[:n + 1]):
            acc += c * fr * h[n - j]
            fr *= n - j
        for j, c in enumerate(rev[1:n + 1]):
            fv *= n - j
            acc -= c * fv * h[n - j]
        h.append(acc)
        factorial *= n + 1
        coeffs.append(Fraction(acc, factorial))
    return RatSeries(order, coeffs)


def zeta_series(a: IntMatrix, order: int) -> RatSeries:
    """Exact Taylor coefficients of zeta through z**order.

    zeta = exp(sum_{m>=1} c_m z^m / m), c_m the composable chains of m
    morphisms, A**m's entry sum: series_from_pair of (c_1 .. c_order, 1).
    """
    if order < 0:
        raise ValueError("series order must be nonnegative")
    return series_from_pair(chain_counts(a, order)[1:], [1], order)


# -- closed form -----------------------------------------------------------

def _hermite_terms(ints: list, mult: int, pairs: list, mults: list[int],
                   arith: Arithmetic) -> list[tuple]:
    """A_{k,j} for every root as (numerators for j = 1..e_k, one denominator;
    none for e_k = 0):
    Taylor coefficients at theta_k of rem(z) / prod_{l != k} (z - theta_l)^{e_l},
    read off in reverse, on ints when exact.  rem = sum_i R_i z^i / D, its
    numerators R_i (ints) over one denominator D (mult), as _reduced gives
    them.  With theta = a / b (pairs, from Arithmetic.split), n = deg rem
    and w = z - theta_k:

        b^n D rem = sum_t w^t sum_i R_i C(i, t) a^(i-t) b^(n-i+t),
        z - theta_l = (a b_l - a_l b + b b_l w) / (b b_l),

    and the product Q(w) of the (a b_l - a_l b + b b_l w)^(e_l) has the
    inverse sum_i W_i w^i / c^(i+1), where (u, c) = split(1 / Q_0), W_0 = u
    and W_i = -u sum_{s>=1} Q_s c^(s-1) W_(i-s).
    """
    zero, _ = arith.split(0)
    n = max(len(ints) - 1, 0)
    out = []
    for k, ((a, b), e) in enumerate(zip(pairs, mults)):
        if not e:
            out.append(([], 1))
            continue
        apow, bpow = [a ** i for i in range(n + 1)], [b ** i for i in range(n + 1)]
        numer = [zero] * e
        for i, r in enumerate(ints):
            if not r:
                continue
            for t in range(min(i, e - 1) + 1):
                numer[t] = numer[t] + r * (math.comb(i, t) * bpow[n - i + t]) * apow[i - t]
        denom, scale = [1] + [0] * (e - 1), 1
        for l, ((a_l, b_l), e_l) in enumerate(zip(pairs, mults)):
            if l == k:
                continue
            shift, bb = a * b_l - a_l * b, b * b_l  # (shift + bb w)^(e_l) through w^(e-1)
            denom = mul_coeffs(linear_power(-shift, bb, e_l), denom, e)
            scale *= bb ** e_l
        u, c = arith.split(arith.join(1, denom[0]))
        cpow = [c ** s for s in range(e + 1)]
        inv = [u]
        for i in range(1, e):
            inv.append(-u * sum(denom[s] * cpow[s - 1] * inv[i - s]
                                for s in range(1, i + 1) if denom[s]))
        # h_t = scale sum_s numer_s c^s inv_(t-s) / (D b^n c^(t+1))
        h = mul_coeffs(inv, [x * cpow[t] for t, x in enumerate(numer)], e)
        out.append(([h[t] * (scale * cpow[e - 1 - t]) for t in reversed(range(e))],
                    mult * b ** n * cpow[e]))
    return out


@dataclass(frozen=True)
class ZetaFactor:
    """One root's contribution: (1 - alpha z)^(-beta0) and, for repeated
    roots, inner exponential coefficients beta_j for j = 1..e-1."""

    theta: object
    alpha: object
    multiplicity: int
    kind: str
    beta0: object
    betas: tuple


@dataclass(frozen=True)
class ClosedFormZeta:
    q_integral: RatPoly          # Q(z), antiderivative of q, zero constant term
    factors: tuple[ZetaFactor, ...]
    arithmetic: Arithmetic       # that of the root set it was built over
    reduced: tuple[int, ...]     # e' per factor, proved by closed_form's divisions


def _divide_linear(ints: list[int], a: int, b: int) -> list[int] | None:
    """P / (b z - a) for P's int coefficients (lowest degree first), or None
    where the division leaves a remainder.  a / b is in lowest terms, so an
    exact quotient has int coefficients (Gauss's lemma), found from the top:
    q_(i-1) = (p_i + a q_i) / b, and p_0 + a q_0 must vanish."""
    quot, carry = [], 0  # carry = a q_i
    for p in reversed(ints[1:]):
        q, r = divmod(p + carry, b)
        if r:
            return None
        quot.append(q)
        carry = a * q
    if ints and ints[0] + carry:
        return None
    return quot[::-1]


def _divide_out(ints: list[int], a: int, b: int, most: int) -> tuple[list[int], int]:
    """ints divided by b z - a while no remainder is left, at most `most` times; and how often."""
    count = 0
    while count < most and (quot := _divide_linear(ints, a, b)) is not None:
        ints, count = quot, count + 1
    return ints, count


def _reduced(rem: RatPoly, d: RatPoly, roots, arith: Arithmetic) -> tuple[list, int, list[int]]:
    """The remainder and the multiplicities e' of rem/d in lowest terms.

    d = lead prod (z - theta)^c divides the polynomial the roots factor:
    it is that polynomial (c = e), or of lower degree, as the pencil's rev
    is, each c counted by dividing d by b z - a (every root rational).
    Each rational theta = a / b is divided out of rem's ints R_i (poly.cleared)
    at most c times; each division that leaves no remainder proves one
    more factor, so D rem = prod (b z - a)^(c - e') R' and

        rem / d = R' prod b^(c - e') / (D lead prod (z - theta)^(e')).

    Returns the new numerators R' prod b^(c - e') and D, then the e'.  On
    a numeric root set each numerator is lifted from its Fraction over D,
    and D becomes 1.  Irrational roots keep e.
    """
    ints, den = cleared(rem)
    dints = cleared(d)[0] if d.degree < sum(root.multiplicity for root in roots) else None
    kept, scale = [], 1
    for root in roots:
        e = root.multiplicity
        if root.kind == "rational":
            a, b = root.theta.as_integer_ratio()
            if dints is not None:
                dints, e = _divide_out(dints, a, b, e)
            ints, cut = _divide_out(ints, a, b, e)
            e, scale = e - cut, scale * b ** cut
        elif dints is not None:
            raise ValueError("a proper divisor of d needs rational roots")
        kept.append(e)
    ints = [x * scale for x in ints]
    if not arith.exact:  # each coefficient rounded once, as rem's own Fractions are
        return [arith.lift(Fraction(x, den)) for x in ints], 1, kept
    return ints, den, kept


def closed_form(m_poly: RatPoly, d: RatPoly, rootset: RootSet) -> ClosedFormZeta:
    """The closed form of zeta from its log derivative m/d and the roots.

    d divides the polynomial rootset factors: the pencil's d, or the
    denominator of its pair (CharPolyBundle.pair).  Exact division gives
    m/d = q + rem/d, Q is q's antiderivative, and _reduced cancels to
    lowest terms at the rational roots, rem/d = rem'/d' with
    d' = lead prod_k (z - theta_k)^(e'_k), lead = d.lead and e'_k <= e_k:

        rem'/d' = (1/lead) sum_k sum_{j=1..e'_k} A_{k,j} / (z - theta_k)^j,

    whose A_{k,j} _hermite_terms gives as numerators over one denominator
    per root, ints when exact.  Then beta0 = -A_{k,1}/lead, and for j >= 1

        beta_j = (1/lead) sum_{i=j}^{e'-1} C(i-1, j-1) (-1)^{i+1}
                          alpha^{i+j} A_{k,i+1}

    so that the factor and exponential coefficients carry no stray
    normalization; the sum of the beta0 is then exactly N.  With alpha = p / r,
    A_{k,i+1} = nums_i / den and 1/lead = lead_num / lead_den (Arithmetic.split),
    each beta_j is one sum over lead_den den r^(2e'-2), on ints when exact.
    Partial fractions are unique, so the A_{k,j} past e'_k are zero: beta_j
    for e'_k <= j < e_k is an exact zero, and so is beta0 where e'_k = 0.
    closed_form builds the terms; analyze_matrix checks them.
    """
    if d.is_zero():
        raise ValueError("denominator must be nonzero")
    q, rem = divmod(m_poly, d)
    arith = rootset.arithmetic
    factors = []
    with arith.context():
        ints, rden, mults = _reduced(rem, d, rootset.roots, arith)
        pairs = [arith.split(root.theta) for root in rootset.roots]
        parts = _hermite_terms(ints, rden, pairs, mults, arith)
        zero = arith.one * 0
        lead_num, lead_den = arith.split(arith.join(1, arith.lift(d.lead)))
        for root, (a, b), (nums, den), e in zip(rootset.roots, pairs, parts, mults):
            theta, alpha = arith.lift(root.theta), arith.join(b, a)  # alpha = 1 / theta
            p, r = arith.split(alpha)
            ppow, rpow = ([x ** k for k in range(2 * e - 1)] for x in (p, r))
            betas = []
            for j in range(1, e):
                acc = 0  # the i = j term makes it a scalar of the arithmetic
                for i in range(j, e):
                    sign = 1 if i % 2 else -1  # (-1)^(i+1)
                    acc = acc + (sign * math.comb(i - 1, j - 1) * ppow[i + j]
                                 * rpow[2 * e - 2 - i - j] * nums[i])
                betas.append(arith.join(acc * lead_num, lead_den * den * rpow[-1]))
            betas += [zero] * (root.multiplicity - 1 - len(betas))
            factors.append(ZetaFactor(theta=theta, alpha=alpha,
                                      multiplicity=root.multiplicity, kind=root.kind,
                                      beta0=(arith.join(-nums[0] * lead_num, lead_den * den)
                                             if e else zero),
                                      betas=tuple(betas)))
    return ClosedFormZeta(q_integral=q.antiderivative(), factors=tuple(factors),
                          arithmetic=arith, reduced=tuple(mults))


def _binomial_factor_coeffs(alpha, beta0, order: int, one) -> list:
    """Taylor coefficients of (1 - alpha z)^(-beta0)."""
    out = [one]
    c = one
    for n in range(1, order + 1):
        c = c * alpha * (beta0 + (n - 1)) / n
        out.append(c)
    return out


def closed_form_taylor(cf: ClosedFormZeta, order: int) -> list:
    """Taylor coefficients of the closed form through z**order.

    Exact Fractions on the exact path, mpc values otherwise.  The
    constant coefficient is always exactly 1.
    """
    if order < 0:
        raise ValueError("series order must be nonnegative")
    arith = cf.arithmetic
    with arith.context():
        one = arith.one
        exponent = [one * 0 + cf.q_integral.coeff(i) for i in range(order + 1)]
        for factor in cf.factors:
            for j, beta in enumerate(factor.betas, start=1):
                apow = one
                for n in range(j, order + 1):
                    exponent[n] = exponent[n] + beta * math.comb(n - 1, j - 1) * apow / j
                    apow = apow * factor.alpha
        out = exp_trunc(exponent)
        for factor in cf.factors:
            out = mul_coeffs(_binomial_factor_coeffs(factor.alpha, factor.beta0, order, one),
                             out, order + 1)
    return out


def closed_form_counts(cf: ClosedFormZeta, order: int) -> list:
    """n [z^n] log of the closed form for n = 1..order.

    The logarithm of the closed form is Q(z) - sum_k beta_{k,0} log(1 - alpha_k z)
    + sum_k sum_{j>=1} beta_{k,j} z^j / (j (1 - alpha_k z)^j), so

        n [z^n] log zeta = q_{n-1} + sum_k sum_{j<e_k} beta_{k,j} C(n, j) alpha_k^(n-j)

    with beta_{k,0} = beta0 and q_{n-1} = n Q_n.  These are the chain
    counts #N_1..#N_order exactly when the closed form's Taylor expansion
    is zeta through z**order, since exp and log are inverse bijections
    modulo z**(order+1).  Exact Fractions on the exact path, summed as ints
    over one common denominator; mpc values otherwise.
    """
    if order < 0:
        raise ValueError("series order must be nonnegative")
    arith = cf.arithmetic
    with arith.context():
        zero = arith.one * 0
        q = [zero + n * c for n, c in enumerate(cf.q_integral.coeffs[1:order + 1], start=1)]
        q = [arith.split(c) for c in q] + [arith.split(zero)] * (order - len(q))
        tables = []
        for factor in cf.factors:
            # beta_j C(n, j) alpha^(n-j) = alpha^n gamma_j C(n, j) with
            # gamma_j = beta_j alpha^(-j).  diffs[j] runs through
            # sum_{i>=j} gamma_i C(n, i-j), the forward difference table of
            # sum_j gamma_j C(n, j), so stepping n costs additions only.  All
            # of it goes over one denominator D R^order, R the lcm of the r
            # in alpha = p / r: ints when exact, where alpha is an int, R = 1.
            # gamma_j = a sn / (b sd) for beta_j = a / b and alpha^(-j) =
            # sn / sd, whose every step multiplies by 1/alpha = rn / rd,
            # split once: powers of coprime ints when exact, so in lowest
            # terms, one mpc product otherwise.  A zero beta_j is split like
            # any other: its zero numerator adds nothing, whatever D is.
            p, r = arith.split(factor.alpha)
            betas = (factor.beta0,) + factor.betas
            last = max((j for j, beta in enumerate(betas) if beta), default=-1)
            diffs, (sn, sd), (rn, rd) = [], (1, 1), arith.split(arith.join(r, p))
            for beta in betas[:last + 1]:
                a, b = arith.split(beta)
                diffs.append((a * sn, b * sd))
                sn, sd = sn * rn, sd * rd
            if diffs:
                tables.append(((p, r), diffs))
        den = math.lcm(*(b for _, b in q), *(b for _, diffs in tables for _, b in diffs))
        rden = math.lcm(*(r for (_, r), _ in tables))
        out = [a * (den // b * rden ** n) for n, (a, b) in enumerate(q, start=1)]
        for (p, r), diffs in tables:
            diffs = [a * (den // b) for a, b in diffs]
            step, apow = p * (rden // r), 1  # alpha R
            for n in range(1, order + 1):
                for j in range(len(diffs) - 1):
                    diffs[j] = diffs[j] + diffs[j + 1]
                apow = apow * step
                out[n - 1] = out[n - 1] + apow * diffs[0]
        den *= rden ** order
        return [arith.join(x * rden ** (order - n), den) for n, x in enumerate(out, start=1)]


# -- one-stop analysis -----------------------------------------------------

@dataclass(frozen=True)
class ZetaAnalysis:
    # #N_0 .. #N_N: v_0 .. v_s swept, s = deg mu for the annihilator mu
    # that passed, and the rest from mu's recurrence; a reader that needs
    # more calls counts(order)
    chains: tuple[int, ...]
    bundle: CharPolyBundle
    euler: EulerReport
    rootset: RootSet
    closed: ClosedFormZeta

    @property
    def path(self) -> str:
        return "exact" if self.closed.arithmetic.exact else "numeric"

    @property
    def window(self) -> int:
        """W = (N - deg d) + sum e': analyze_matrix matched c_n = #N_n for n = 1..W."""
        return self.bundle.n - self.bundle.d.degree + sum(self.closed.reduced)

    def counts(self, order: int) -> list[int]:
        """#N_0 .. #N_max(N, order): chains, continued past #N_N by the
        recurrence of the pencil pair's denominator (charpoly.continue_counts)."""
        return continue_counts(self.chains, self.bundle.pair[1].coeffs, order)


def analyze_matrix(a: IntMatrix, precision_bits: int = DEFAULT_PRECISION_BITS) -> ZetaAnalysis:
    """Everything derived from one adjacency matrix, computed once.

    The pencil certifies d (fact (a)) and gives #N_0 .. #N_N: chain_vectors
    runs s = deg mu steps for the first annihilator mu that passes its
    check (mu~ from the path bound, else P, s = N), and every later count
    comes from mu's recurrence; check_pencil then checks d(0), k(0) and
    d_1 against A, and k against the pair.  A reader that needs counts past #N_N
    calls ZetaAnalysis.counts, which continues them by the pair's denominator.
    The closed form, built from the pencil's pair, must give #N_1..#N_W
    (module docstring), or ArithmeticError names the first n off.
    """
    bundle, chains = bundle_from_sweep(lambda: chain_vectors(a), block_traces(a))
    check_pencil(bundle, a)
    chains = tuple(chains)
    euler = series_euler_char(bundle)
    rootset = factor_charpoly(bundle.d, precision_bits, bundle.factors, bundle.diagonal)
    analysis = ZetaAnalysis(chains=chains, bundle=bundle, euler=euler, rootset=rootset,
                            closed=closed_form(*bundle.pair, rootset))
    arith = rootset.arithmetic
    with arith.context():
        got = closed_form_counts(analysis.closed, analysis.window)
        for n, (x, want) in enumerate(zip(got, chains[1:]), start=1):
            if x != want and not arith.within(abs(x - want), DEFAULT_TOLERANCE,
                                              max(1, abs(want))):
                raise ArithmeticError(f"the closed form gives {x} at n = {n}, not #N_{n} = "
                                      f"{want}" + ("" if arith.exact else "; raise the precision"))
    return analysis


# -- verification of the four identities -----------------------------------

@dataclass(frozen=True)
class VerificationReport:
    """Residuals and pass flags for the four closed-form identities.

    c1 .. c4 hold one dict per identity, keyed by its --json names:
    c1 {max_rel_err, pass}, c2 {applicable, sum, residual, pass},
    c3 {residuals, scales, pass} and c4 {applicable, value, target,
    residual, imag, pass}.

    c1["max_rel_err"] is max |got - want| / max(1, |want|) over the C1
    comparison: on the exact path a Fraction, with got = n [z^n] log of
    the closed form and want = #N_n, zero exactly when C1 holds; on the
    numeric path an mpf over the Taylor coefficients of z^0..z^order
    against the exact series.  An exact zero is proved for every n, by
    analyze_matrix's match at n = 1..W where order <= W or facts (b) and
    (c) of the module docstring hold, else from n = 1..order.

    C3's residuals are |cp(alpha)|, cp the reversal of the pencil's own
    d; a rational alpha must also be an eigenvalue of A itself (see the
    module docstring).

    Flags are None where an identity does not apply (the exponent-sum and
    alternating-sum identities need the Euler characteristic to exist).
    The overall flag ignores inapplicable parts.
    """

    n: int
    order: int
    tolerance: float
    precision: int
    path: str
    chi_exists: bool
    chi: Fraction | None
    c1: dict
    c2: dict
    c3: dict
    c4: dict

    @property
    def passed(self) -> bool:
        return all(c["pass"] is not False for c in (self.c1, self.c2, self.c3, self.c4))

    # the four flags bench/run.py reads
    c1_pass = property(lambda self: self.c1["pass"])
    c2_pass = property(lambda self: self.c2["pass"])
    c3_pass = property(lambda self: self.c3["pass"])
    c4_pass = property(lambda self: self.c4["pass"])


def _c4_terms(factors, arith: Arithmetic):
    """C4's terms (-1)^j beta_j / alpha^(j+1), a zero beta_j's included, each
    as a split pair: with beta_j = a / b and alpha = p / r, (+-a r^(j+1), b p^(j+1))."""
    for f in factors:
        p, r = arith.split(f.alpha)
        for j, beta in enumerate((f.beta0,) + f.betas):
            a, b = arith.split(beta)
            yield (-a if j % 2 else a) * r ** (j + 1), b * p ** (j + 1)


def _c1_certified(analysis: ZetaAnalysis) -> bool:
    """Facts (b) and (c) of the module docstring, under which the match at
    n = 1..W that analyze_matrix checked proves C1 at every n; the pencil
    has proved (a)."""
    n, cf, roots = analysis.bundle.n, analysis.closed, analysis.rootset.roots
    return (cf.q_integral.degree <= n - analysis.bundle.d.degree  # (c)
            and len(cf.factors) == len(roots) == len(cf.reduced)  # (b)
            and all(f.alpha * root.theta == 1 and len(f.betas) < root.multiplicity
                    and not any(((f.beta0,) + f.betas)[e:])
                    for f, root, e in zip(cf.factors, roots, cf.reduced)))


def verify_matrix(a: IntMatrix, order: int = DEFAULT_ORDER,
                  tolerance: float = DEFAULT_VERIFY_TOL,
                  precision_bits: int = DEFAULT_PRECISION_BITS) -> VerificationReport:
    """Run all four identity checks on one adjacency matrix.

    The analysis sweeps A as far as the pencil needs, s = deg mu steps,
    and raises ArithmeticError where the sweep refuses d (fact (a)) or the
    closed form misses #N_1..#N_W.  On the exact path, where order <= W,
    or where facts (b) and (c) of the module docstring hold, that match
    proves C1 for every n; otherwise closed_form_counts is compared with
    #N_1..#N_order, those past #N_N from the pair's recurrence, not a new
    sweep.  On the numeric path the closed form's Taylor coefficients
    through z**order are compared to the tolerance with series_from_pair
    of the pencil's pair.  C3 also requires each rational alpha to be an
    eigenvalue of A.
    """
    if order < 0:
        raise ValueError("series order must be nonnegative")
    analysis = analyze_matrix(a, precision_bits)
    cf = analysis.closed
    euler = analysis.euler
    n = a.n
    applicable = euler.exists
    cp = monic_charpoly(analysis.bundle.d.coeffs, n)  # ints, as the pencil's d
    arith = analysis.rootset.arithmetic

    with arith.context():
        unit = abs(arith.one)  # 1 as a real scalar: max(1, |x|) is max(unit, abs(x))
        if arith.exact:  # the one fork: log coefficients against the chain counts
            pairs = ()  # K <= W, or K > W under (b) and (c): analyze_matrix's match proves C1
            if order > analysis.window and not _c1_certified(analysis):
                pairs = zip(closed_form_counts(cf, order), analysis.counts(order)[1:])
        else:  # Taylor coefficients against the series
            series = series_from_pair(*(half.coeffs for half in analysis.bundle.pair), order)
            pairs = zip(closed_form_taylor(cf, order), map(arith.lift, series.coeffs))
        c1_err = max((abs(got - want) / max(unit, abs(want))
                      for got, want in pairs if got != want), default=unit * 0)
        c1 = {"max_rel_err": c1_err, "pass": arith.within(c1_err, tolerance)}
        c2_sum = arith.quotient_sum(arith.split(f.beta0) for f in cf.factors)
        c2_residual = abs(c2_sum - n)
        c2 = {"applicable": applicable, "sum": c2_sum, "residual": c2_residual,
              "pass": arith.within(c2_residual, tolerance) if applicable else None}
        residuals, scales, roots_ok = [], [], True
        coeff_sum = sum(map(abs, cp))
        for f, root, kept in zip(cf.factors, analysis.rootset.roots, cf.reduced):
            scale = coeff_sum * max(unit, abs(f.alpha)) ** n
            if root.kind == "rational":  # exactly on both paths: r^N cp(p / r) on ints
                r, p = root.theta.as_integer_ratio()
                value = horner([c * r ** (n - i) for i, c in enumerate(cp)], p)
                res = abs(arith.lift(Fraction(value, r ** n)))
                ok = value == 0 and (kept > 0 or eigenvalue_of_a_block(a, root.theta))
            else:
                res = abs(horner(cp, f.alpha))
                ok = arith.within(res, tolerance, scale)
            residuals.append(res)
            scales.append(scale)
            roots_ok = roots_ok and ok
        c3 = {"residuals": tuple(residuals), "scales": tuple(scales), "pass": roots_ok}
        c4_value = arith.quotient_sum(_c4_terms(cf.factors, arith))
        chi = arith.lift(euler.chi if applicable else 0)
        c4_scale = max(unit, abs(chi))  # relative to max(1, |chi|), as C1 to max(1, |want|)
        c4_residual = abs(c4_value - chi) if applicable else None
        c4_imag = abs(c4_value - c4_value.real)  # |Im|, in the scalar type
        c4 = {"applicable": applicable, "value": c4_value, "target": euler.chi,
              "residual": c4_residual, "imag": c4_imag,
              "pass": (arith.within(c4_residual, tolerance, c4_scale)
                       and arith.within(c4_imag, tolerance, c4_scale) if applicable else None)}

    return VerificationReport(n=n, order=order, tolerance=tolerance, precision=precision_bits,
                              path=analysis.path, chi_exists=euler.exists, chi=euler.chi,
                              c1=c1, c2=c2, c3=c3, c4=c4)


# -- singularity classification --------------------------------------------

@dataclass(frozen=True)
class SingularPoint:
    """The classification of the closed-form factor with the same index;
    that factor holds the root's theta, multiplicity, kind and beta0."""

    classification: str   # "pole", "zero", "essential" or "violation"
    essential: bool       # nonzero inner exponential coefficients present
    pole_order: int | None


def singularity_report(cf: ClosedFormZeta) -> tuple[SingularPoint, ...]:
    """Classify every root of d as a singular point or zero of zeta.

    A root with beta0 of positive real part is a pole-type singularity,
    negative real part a zero, and nonzero inner coefficients mark an
    essential singularity.  A root where every coefficient vanishes
    would contradict the root/singularity correspondence, so it is
    classified "violation" rather than silently accepted.
    """
    arith, tol = cf.arithmetic, DEFAULT_VERIFY_TOL
    points = []
    with arith.context():
        for factor in cf.factors:
            beta0 = factor.beta0
            re = beta0.real
            essential = not all(arith.within(abs(b), tol) for b in factor.betas)
            if arith.within(abs(beta0), tol):
                classification = "essential" if essential else "violation"
            elif re > 0:
                classification = "pole"
            elif re < 0:
                classification = "zero"
            else:
                classification = "essential"
            pole_order = None
            if (classification == "pole" and arith.within(abs(beta0.imag), tol)
                    and arith.within(abs(re - round(re)), tol)):
                pole_order = round(re)
            points.append(SingularPoint(classification=classification,
                                        essential=essential, pole_order=pole_order))
    return tuple(points)
