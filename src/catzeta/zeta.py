"""The zeta function of a finite category, both ways, and its checks.

Both ways start from integer power sums: the chain counts
#N_m = 1^T A^m 1 from one sweep over the powers of A, and the traces of
the powers of A's strongly connected blocks.  One way: zeta_series
exponentiates sum_m #N_m z^m / m through an integer recurrence and
divides by n! only at the end.  The other: the logarithmic derivative of
zeta is the rational function m(z)/d(z), whose polynomials charpoly
builds from the same sums, so partial fractions over the roots of d,
found block factor by block factor, give a closed form

    zeta(z) = prod_k (1 - alpha_k z)^(-beta_{k,0})
              * exp(Q(z) + sum_k sum_{j>=1} beta_{k,j} z^j / (j (1 - alpha_k z)^j))

with alpha_k = 1/theta_k.  Four identities tie the two together and are
machine-checked here: the Taylor match itself, sum of the exponents
beta_{k,0} = N, each 1/theta_k an eigenvalue of A, and an alternating
sum of the beta's equal to the series Euler characteristic.  A final
report classifies each root as a pole, zero or essential singularity.

The arithmetic is chosen once, by the root set: exact Fractions when
every root of d is rational, complex numbers at the working precision
otherwise (roots.Arithmetic).  Partial fractions, the closed form, its
Taylor and log coefficients, identities 2 to 4 and the singularity report
each run one code path over whichever scalars the root set carries; an
identity holds with a zero residual in exact arithmetic and within a
tolerance in numeric arithmetic: verify's own for the four identities,
the fixed DEFAULT_TOLERANCE for the partial-fraction recombination and
DEFAULT_VERIFY_TOL for the singularity report.  The Hermite terms
A_{k,j}, the beta's, both recombinations and closed_form_counts clear
denominators once (Arithmetic.split) and build each result once
(Arithmetic.join), so on an exact root set, whose theta are +-1/b, they
add and multiply ints.  Two checks still branch.  The Taylor match forks
on the arithmetic.  Exact: the log coefficients c_n = n [z^n] log zeta
from closed_form_counts must equal the swept chain counts #N_n, as good
as equal Taylor coefficients, and this is proved for every order n from
n = 1..min(K, N) alone.  Let cp = det(t E - A) = sum_i p_i t^i, the
reversal of d (charpoly.monic_charpoly), monic with integer p_i.  Then
delta_n = c_n - #N_n obeys cp's monic recurrence of order N for every
n >= 1, so delta_1 = .. = delta_N = 0 gives delta_n = 0 for all n, once
three facts hold, each checked:

  (a) the certificate: P(A) 1 = 0, so
      sum_i p_i #N_(n+i) = 1^T A^n P(A) 1 = 0 for every n >= 0;
  (b) the roots: each closed-form factor's alpha_k is 1/theta_k of the
      root set, whose exact recombination (factor_charpoly) proved
      d = lead prod (z - theta_k)^(e_k), and it carries fewer than e_k
      beta's, so (t - alpha_k)^(e_k), a factor of cp, kills its terms
      beta_j C(n, j) alpha_k^(n-j);
  (c) the polynomial part: deg Q <= N - deg d, the multiplicity of t = 0
      in cp, so the q_(n-1) = n Q_n left over vanish for n > N - deg d.

(a) holds for every bundle: charpoly checks it on the sweep's own vectors
as it builds d, k and m, and raises ArithmeticError where it fails.  The
window alone would pass a wrong d, since m makes c_n = #N_n for n <= N
whatever d is.  Where K <= N, (b) or (c) fails or the window finds a
mismatch, C1 compares n = 1..K as it stands, so a failure reports the
same maximum.  Numeric:
closed_form_taylor against the series through z^K, until C1 is exact
for irrational spectra as well.  The eigenvalue check C3 branches on
each root's kind: a rational root is checked exactly on both paths, on
ints, a numeric one within the tolerance.  It checks each alpha against
cp, the reversal of the pencil's own d, and (a) ties cp to A only on the
span of the vectors A^i 1: a wrong d whose extra roots that span never
reaches passes C3 as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Sequence

from .category import IntMatrix, chain_counts, chain_vectors
from .charpoly import (
    CharPolyBundle,
    EulerReport,
    block_traces,
    bundle_from_sweep,
    monic_charpoly,
    series_euler_char,
)
from .poly import RatPoly, RatSeries, exp_trunc, horner, linear_power, mul_coeffs
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

def series_from_counts(chains: Sequence[int], order: int) -> RatSeries:
    """zeta through z**order from the chain counts #N_0 .. #N_order.

    zeta' = (sum_i #N_{i+1} z^i) zeta gives (n+1) g_{n+1} = sum_i #N_{i+1} g_{n-i}
    for the coefficients g_n; with h_n = n! g_n this runs on integers:

        h_{n+1} = sum_{i=0..n} #N_{i+1} n!/(n-i)! h_{n-i}
    """
    h = [1]
    for n in range(order):
        acc, falling = 0, 1  # falling = n!/(n-i)!
        for i in range(n + 1):
            acc += chains[i + 1] * falling * h[n - i]
            falling *= n - i
        h.append(acc)
    coeffs, factorial = [Fraction(1)], 1
    for n in range(1, order + 1):
        factorial *= n
        coeffs.append(Fraction(h[n], factorial))
    return RatSeries(order, coeffs)


def zeta_series(a: IntMatrix, order: int) -> RatSeries:
    """Exact Taylor coefficients of zeta through z**order.

    zeta = exp(sum_{m>=1} c_m z^m / m) where c_m counts composable chains
    of m morphisms, i.e. the total entry sum of A**m.
    """
    if order < 0:
        raise ValueError("series order must be nonnegative")
    return series_from_counts(chain_counts(a, order), order)


# -- partial fractions -----------------------------------------------------

@dataclass(frozen=True)
class PartialFractionDecomposition:
    """m(z)/d(z) = q(z) + (1/lead) sum_k sum_j A_{k,j} / (z - theta_k)^j,
    with lead = rootset.lead.

    terms[k][j-1] holds A_{k,j} for the k-th root of the root set, in
    the root set's arithmetic.
    """

    q: RatPoly
    remainder: RatPoly
    rootset: RootSet
    terms: tuple[tuple, ...]


def _hermite_terms(rem: RatPoly, pairs: list, mults: list[int],
                   arith: Arithmetic) -> list[tuple]:
    """A_{k,j} for every root as (numerators for j = 1..e_k, one denominator):
    Taylor coefficients at theta_k of rem(z) / prod_{l != k} (z - theta_l)^{e_l},
    read off in reverse, on ints when exact.  With theta = a / b (pairs, from
    Arithmetic.split), D rem = sum_i R_i z^i (D the lcm of rem's
    denominators, n = deg rem) and w = z - theta_k:

        b^n D rem = sum_t w^t sum_i R_i C(i, t) a^(i-t) b^(n-i+t),
        z - theta_l = (a b_l - a_l b + b b_l w) / (b b_l),

    and the product Q(w) of the (a b_l - a_l b + b b_l w)^(e_l) has the
    inverse sum_i W_i w^i / c^(i+1), where (u, c) = split(1 / Q_0), W_0 = u
    and W_i = -u sum_{s>=1} Q_s c^(s-1) W_(i-s).
    """
    zero, _ = arith.split(0)
    coeffs = [arith.split(c) for c in rem.coeffs]
    mult = math.lcm(*[b for _, b in coeffs])
    ints = [a * (mult // b) for a, b in coeffs]
    n = max(len(ints) - 1, 0)
    out = []
    for k, ((a, b), e) in enumerate(zip(pairs, mults)):
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
        u, c = arith.split(arith.one / denom[0])
        inv = [u]
        for i in range(1, e):
            inv.append(-u * sum(denom[s] * c ** (s - 1) * inv[i - s]
                                for s in range(1, i + 1) if denom[s]))
        # h_t = scale sum_s numer_s c^s inv_(t-s) / (D b^n c^(t+1))
        h = mul_coeffs(inv, [x * c ** t for t, x in enumerate(numer)], e)
        out.append(([h[t] * (scale * c ** (e - 1 - t)) for t in reversed(range(e))],
                    mult * b ** n * c ** e))
    return out


def partial_fractions(m_poly: RatPoly, d: RatPoly,
                      rootset: RootSet) -> PartialFractionDecomposition:
    """Split m/d into quotient plus partial fractions over the given roots.

    The quotient and remainder come from exact polynomial division.  The
    A_{k,j} come from Taylor expansion of the deflated remainder at each
    root, on ints when exact; recombining the same numerators and
    denominators with denominators cleared verifies the decomposition.
    """
    if d.is_zero():
        raise ValueError("denominator must be nonzero")
    q, rem = divmod(m_poly, d)
    arith = rootset.arithmetic
    mults = [root.multiplicity for root in rootset.roots]
    with arith.context():
        pairs = [arith.split(root.theta) for root in rootset.roots]
        parts = _hermite_terms(rem, pairs, mults, arith)
        terms = [tuple([arith.join(x, den) for x in nums]) for nums, den in parts]
        # With theta_k = a_k / b_k, B = prod_k b_k^(e_k) and D the lcm of
        # the denominators of the A_{k,j} and of rem:
        # D B rem = sum_k [sum_j D A_{k,j} b_k^j (b_k z - a_k)^(e_k - j), by
        # Horner in b_k z - a_k] * prod_{l != k} (b_l z - a_l)^(e_l)
        want = [arith.split(rem.coeff(t)) for t in range(sum(mults))]
        mult = math.lcm(*[b for _, b in want], *[den for _, den in parts])
        powers = [linear_power(a, b, e) for (a, b), e in zip(pairs, mults)]
        got = [0] * len(want)
        for k, ((a, b), (nums, den)) in enumerate(zip(pairs, parts)):
            cs = [x * (mult // den * b ** j) for j, x in enumerate(nums, start=1)]
            piece = cs[:1]
            for c in cs[1:]:
                piece = mul_coeffs(piece, [-a, b])
                piece[0] = piece[0] + c
            for l, power in enumerate(powers):
                if l != k:
                    piece = mul_coeffs(piece, power)
            got = [g + c for g, c in zip(got, piece)]
        mult *= math.prod(b ** e for (_, b), e in zip(pairs, mults))  # D B
        want = [a * (mult // b) for a, b in want]
        err = max((abs(g - w) for g, w in zip(got, want)), default=0)
        scale = max(abs(w) for w in [arith.lift(mult)] + want)
        if rem.degree >= len(got) or not arith.within(err, DEFAULT_TOLERANCE, scale):
            if arith.exact:  # a wrong Hermite term, which no precision fixes
                raise ArithmeticError("exact recombination failed for the partial "
                                      f"fractions: residual {Fraction(err, scale)}")
            raise ArithmeticError(
                "partial fraction recombination residual above tolerance; "
                "raise the precision"
            )
    return PartialFractionDecomposition(q=q, remainder=rem, rootset=rootset,
                                        terms=tuple(terms))


# -- closed form -----------------------------------------------------------

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


def closed_form(pfd: PartialFractionDecomposition) -> ClosedFormZeta:
    """Assemble the closed form from a partial fraction decomposition.

    beta0 = -A_{k,1}/lead, and for j >= 1

        beta_j = (1/lead) sum_{i=j}^{e-1} C(i-1, j-1) (-1)^{i+1}
                          alpha^{i+j} A_{k,i+1}

    so that the factor and exponential coefficients carry no stray
    normalization; the sum of the beta0 is then exactly N.  With alpha = p / r,
    A_{k,i+1} = nums_i / den and 1/lead = lead_num / lead_den (Arithmetic.split),
    each beta_j is one sum over lead_den den r^(2e-2), on ints when exact.
    """
    arith = pfd.rootset.arithmetic
    factors = []
    with arith.context():
        one = arith.one
        lead_num, lead_den = arith.split(one / arith.lift(pfd.rootset.lead))
        for root, terms in zip(pfd.rootset.roots, pfd.terms):
            theta, e = arith.lift(root.theta), root.multiplicity
            alpha = one / theta
            (p, r), parts = arith.split(alpha), [arith.split(c) for c in terms]
            den = math.lcm(*[b for _, b in parts])
            nums = [a * (den // b) for a, b in parts]
            ppow, rpow = ([x ** k for k in range(2 * e - 1)] for x in (p, r))
            betas = []
            for j in range(1, e):
                acc = 0  # the i = j term makes it a scalar of the arithmetic
                for i in range(j, e):
                    sign = 1 if i % 2 else -1  # (-1)^(i+1)
                    acc = acc + (sign * math.comb(i - 1, j - 1) * ppow[i + j]
                                 * rpow[2 * e - 2 - i - j] * nums[i])
                betas.append(arith.join(acc * lead_num, lead_den * den * rpow[-1]))
            factors.append(ZetaFactor(theta=theta, alpha=alpha,
                                      multiplicity=e, kind=root.kind,
                                      beta0=arith.join(-nums[0] * lead_num, lead_den * den),
                                      betas=tuple(betas)))
    return ClosedFormZeta(q_integral=pfd.q.antiderivative(), factors=tuple(factors),
                          arithmetic=arith)


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
                if not beta:
                    continue
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
        one = arith.one
        zero = one * 0
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
            diffs, scale = [], one
            for beta in (factor.beta0,) + factor.betas:
                diffs.append(arith.split(beta * scale))
                scale = scale / factor.alpha
            while diffs and not diffs[-1][0]:
                diffs.pop()
            if diffs:
                tables.append((arith.split(factor.alpha), diffs))
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
    matrix: IntMatrix
    chains: tuple[int, ...]  # #N_0 .. #N_max(order, N), one sweep of max(order, N) steps
    bundle: CharPolyBundle
    euler: EulerReport
    rootset: RootSet
    pfd: PartialFractionDecomposition
    closed: ClosedFormZeta

    @property
    def path(self) -> str:
        return "exact" if self.closed.arithmetic.exact else "numeric"


def analyze_matrix(a: IntMatrix, precision_bits: int = DEFAULT_PRECISION_BITS,
                   order: int = 0) -> ZetaAnalysis:
    """Everything derived from one adjacency matrix, computed once.

    One sweep of chain_vectors gives the chain counts.  The pencil takes
    its first N steps, certifies d on those vectors (P(A) 1 = 0) and
    reads #N_0 .. #N_N off them; the same sweep then runs on to #N_order.
    The counts, kept on the analysis, feed the series through z**order;
    verify passes no order, so its sweep stops at #N_N.
    """
    sweep = chain_vectors(a)
    bundle, chains = bundle_from_sweep(sweep, block_traces(a))
    chains = tuple(chains) + tuple(map(sum, islice(sweep, max(order - a.n, 0))))
    euler = series_euler_char(bundle)
    rootset = factor_charpoly(bundle.d, precision_bits, bundle.factors)
    pfd = partial_fractions(bundle.m, bundle.d, rootset)
    return ZetaAnalysis(matrix=a, chains=chains, bundle=bundle, euler=euler,
                        rootset=rootset, pfd=pfd, closed=closed_form(pfd))


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
    against the exact series.  An exact zero is proved for every n: from
    n = 1..min(order, N) when facts (b) and (c) of the module docstring
    hold, else from n = 1..order.  A nonzero one is always the maximum over
    n = 1..order.

    C3 checks each alpha against cp, the reversal of the pencil's own d,
    not against A itself (see the module docstring).

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


def _c4_sum(factors, one):
    acc = one * 0
    for f in factors:
        betas = (f.beta0,) + f.betas
        for j, beta in enumerate(betas):
            sign = -1 if j % 2 else 1
            acc = acc + sign * beta / f.alpha ** (j + 1)
    return acc


def _c1_certified(analysis: ZetaAnalysis) -> bool:
    """Facts (b) and (c) of the module docstring, under which C1 at
    n = 1..N proves it at every n; the pencil has proved (a)."""
    n, cf, roots = analysis.matrix.n, analysis.closed, analysis.rootset.roots
    return (cf.q_integral.degree <= n - analysis.bundle.d.degree  # (c)
            and len(cf.factors) == len(roots)  # (b)
            and all(f.alpha * root.theta == 1 and len(f.betas) < root.multiplicity
                    for f, root in zip(cf.factors, roots)))


def verify_matrix(a: IntMatrix, order: int = DEFAULT_ORDER,
                  tolerance: float = DEFAULT_VERIFY_TOL,
                  precision_bits: int = DEFAULT_PRECISION_BITS) -> VerificationReport:
    """Run all four identity checks on one adjacency matrix.

    The analysis sweeps A for N steps, as far as the pencil needs, and
    raises ArithmeticError where the sweep refuses d (fact (a)).  On the
    exact path C1 compares closed_form_counts with the swept
    #N_1..#N_min(order, N) and must hold with equality; facts (b) and (c)
    of the module docstring then prove it for every n.  Where one of them
    fails, or the window finds a mismatch, the comparison runs over
    n = 1..order, so a failure reports the same maximum either way.  On
    the numeric path the closed form's Taylor coefficients through
    z**order are compared with the series to the tolerance.  The sweep
    is run again to order when a comparison needs counts past #N_N.
    """
    analysis = analyze_matrix(a, precision_bits)
    chains, cf = analysis.chains, analysis.closed
    euler = analysis.euler
    n = a.n
    applicable = euler.exists
    cp = monic_charpoly(analysis.bundle.d, n)
    arith = analysis.rootset.arithmetic

    with arith.context():
        one = arith.one
        if arith.exact:  # the one fork: log coefficients against the chain counts
            window = n if order > n and _c1_certified(analysis) else order
            got = closed_form_counts(cf, window)
            if window < order and got != list(chains[1:window + 1]):
                got = closed_form_counts(cf, order)  # a failure is reported over n = 1..K
            if len(chains) <= len(got):
                chains = chain_counts(a, len(got))
            pairs = zip(got, chains[1:])
        else:  # Taylor coefficients against the series
            if len(chains) <= order:
                chains = chain_counts(a, order)
            pairs = zip(closed_form_taylor(cf, order),
                        map(arith.lift, series_from_counts(chains, order).coeffs))
        c1_err = max((abs(got - want) / max(abs(one), abs(want))
                      for got, want in pairs if got != want), default=abs(one) * 0)
        c1 = {"max_rel_err": c1_err, "pass": arith.within(c1_err, tolerance)}
        c2_sum = sum((f.beta0 for f in cf.factors), one * 0)
        c2_residual = abs(c2_sum - n)
        c2 = {"applicable": applicable, "sum": c2_sum, "residual": c2_residual,
              "pass": arith.within(c2_residual, tolerance) if applicable else None}
        residuals, scales = [], []
        roots_ok = True
        coeff_sum = sum(abs(arith.lift(c)) for c in cp.coeffs)
        for f, root in zip(cf.factors, analysis.rootset.roots):
            scale = coeff_sum * max(abs(one), abs(f.alpha)) ** cp.degree
            if root.kind == "rational":
                # rational roots are checked exactly on both paths, on ints:
                # r^N cp(p / r) for alpha = p / r, cp having integer coefficients
                p, r = (1 / root.theta).as_integer_ratio()
                value = horner([c.numerator * r ** (cp.degree - i)
                                for i, c in enumerate(cp.coeffs)], p)
                exact_res = abs(Fraction(value, r ** cp.degree))
                res, ok = abs(arith.lift(exact_res)), value == 0
            else:
                res = abs(cp(f.alpha))
                ok = arith.within(res, tolerance, scale)
            residuals.append(res)
            scales.append(scale)
            roots_ok = roots_ok and ok
        c3 = {"residuals": tuple(residuals), "scales": tuple(scales), "pass": roots_ok}
        c4_value = _c4_sum(cf.factors, one)
        c4_residual = abs(c4_value - arith.lift(euler.chi)) if applicable else None
        c4_imag = abs(c4_value - c4_value.real)  # |Im|, in the scalar type
        c4 = {"applicable": applicable, "value": c4_value, "target": euler.chi,
              "residual": c4_residual, "imag": c4_imag,
              "pass": (arith.within(c4_residual, tolerance) and arith.within(c4_imag, tolerance)
                       if applicable else None)}

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


@dataclass(frozen=True)
class SingularityReport:
    points: tuple[SingularPoint, ...]
    violations: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def singularity_report(cf: ClosedFormZeta) -> SingularityReport:
    """Classify every root of d as a singular point or zero of zeta.

    A root with beta0 of positive real part is a pole-type singularity,
    negative real part a zero, and nonzero inner coefficients mark an
    essential singularity.  A root where every coefficient vanishes
    would contradict the root/singularity correspondence, so it is
    flagged as a violation rather than silently accepted.
    """
    arith, tol = cf.arithmetic, DEFAULT_VERIFY_TOL
    points = []
    violations = []
    with arith.context():
        for idx, factor in enumerate(cf.factors):
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
            if classification == "violation":
                violations.append(idx)
            points.append(SingularPoint(classification=classification,
                                        essential=essential, pole_order=pole_order))
    return SingularityReport(points=tuple(points), violations=tuple(violations))
