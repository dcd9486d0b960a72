"""The pencil polynomials of E - A z, read off one sweep over the powers of A.

For an N x N integer matrix A, three polynomials drive everything else:

    d(z) = det(E - A z)
    k(z) = sum of entries of adj(E - A z)
    m(z) = sum of entries of adj(E - A z) A

d is a product over the strongly connected blocks of A's support (i -> j
when a_ij != 0): ordered by Tarjan's algorithm, A is block upper
triangular, so d = prod_B det(E - A_BB z).  The 1 x 1 blocks are counted
by their entry lambda = a_ii, and each distinct lambda != 0 enters d once,
as (1 - lambda z)^e for the e blocks that carry it (the diagonal counts,
which root finding reads its roots off as well).  A larger block's factor
comes from its own traces tr A_BB^1 .. tr A_BB^|B| (by P <- P A_BB)
through Newton's identities,

    j d_j = -sum_{i=1..j} tr(A_BB^i) d_{j-i}.

For a category, a block is a set of objects with morphisms both ways, so
acyclic and EI categories have tiny blocks and no dense power sweep.
strong_blocks finds the blocks and nothing else; their traces feed d,
one pass over them gives the path bound below, and C3 of verify tests a
cancelled root on every one of them, 1 x 1 blocks included, on A's own
entries (eigenvalue_of_a_block).
k and m come from the chain counts #N_j = 1^T A^j 1 of the whole matrix,
the entry sums of v_j = A^j 1 (by v <- A v, category.chain_vectors): since
adj(E - A z) = d(z) (E - A z)^{-1} = d(z) sum_j A^j z^j,

    k(z) = d(z) sum_j #N_j z^j        mod z^N
    m(z) = d(z) sum_j #N_{j+1} z^j    mod z^N.

Only m is multiplied out: the first sum is N + z times the second, so
k = N d + z m mod z^N.  Both need d to be det(E - A z), and the sweep
certifies that on every call, the blockwise d against the whole matrix,
through one loop over candidate annihilators of 1: v_0 .. v_s are swept
and mu(A) 1 = 0 is checked as an integer vector, s = deg mu.  The first
is the path bound, where every block is 1 x 1: one pass over the blocks
finds, for each diagonal value lambda (0 too), the largest number
c_lambda of vertices with a_ii = lambda on one path of A's support, and
mu~ = prod (t - lambda)^(c_lambda), of degree s <= N (not the degree
defect s below), is a multiple of the minimal polynomial of A on 1 by
Rothblum's index theorem, and often equal to it.  It is tried where
c_lambda <= e_lambda, the number of blocks with entry lambda, so that mu~
divides P(t) = det(t E - A) = sum_i p_i t^i, the reversal of d
(monic_charpoly), and some c_lambda < e_lambda (else mu~ is P).  The
last is P itself, whose failed check raises.  A mu that passes gives
P(A) 1 = 0, and with it the z^N coefficients of the two products,
1^T P(A) 1 and 1^T A P(A) 1, vanish, which pins z m(z) = k(z) - N d(z)
down to the top coefficient.  The counts past #N_s follow mu's integer
recurrence (continue_counts), so s steps replace N, and d = g rev,
m = g R for the int list rev = z^s mu(1/z) and a cofactor g.  The counts
stop at #N_N; a reader that needs more continues them by rev.

check_pencil adds three O(N) checks that use neither Newton's identities
nor the cofactor: d(0) = 1, k(0) = N and -d_1 = tr A, read off A's
diagonal, and checks k against the certified pair, k rev = d (N rev + z R)
below z^N; char_poly_bundle and the analysis run them on every pencil.

The degree defects r = N - deg d and s = N - 1 - deg k decide the
series Euler characteristic:

    s < r : not defined
    s > r : defined, equal to 0
    s = r : defined, equal to -k_{N-1-s} / d_{N-r}

The empty category has d = 1 and k = 0, so r = s = 0; its
characteristic is 0.  series_euler_char checks the branch and the value
against the certified pair, which the degree defects do not read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Callable, Iterator, Sequence

from .category import IntMatrix, chain_vectors
from .poly import RatPoly, linear_power, mul_coeffs


def strong_blocks(a: IntMatrix) -> list[list[int]]:
    """The strongly connected components of A's support, i -> j when
    a_ij != 0, each as a sorted index list.

    Tarjan's algorithm with an explicit stack, so a long path cannot hit
    the recursion limit.  Blocks come out in reverse topological order: a
    block after every block it reaches.
    """
    succ = [cols for cols, _ in a.support]
    index, low = [-1] * a.n, [0] * a.n
    on_stack = [False] * a.n
    stack: list[int] = []
    blocks: list[list[int]] = []
    counter = 0
    for root in range(a.n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] < 0:  # descend into w; v's remaining edges wait
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:  # every edge of v is done
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] < index[v]:
                    continue
                block, w = [], -1
                while w != v:  # v's block is the stack above and at v
                    w = stack.pop()
                    on_stack[w] = False
                    block.append(w)
                block.sort()
                blocks.append(block)
    return blocks


def _path_bound(a: IntMatrix, blocks: Sequence[Sequence[int]]) -> dict[int, int] | None:
    """The path bound c_lambda: the most vertices v with a_vv = lambda on
    one path of A's support, for each diagonal value lambda in the order
    first met; None if a block is larger than 1 x 1.  In strong_blocks'
    order each v comes after every vertex it reaches, so c_v[lambda], that
    count over the paths from v, is the largest c_w[lambda] over v's
    successors w, plus one where a_vv = lambda."""
    if len(blocks) < a.n:  # some block is larger than 1 x 1
        return None
    slot = dict(zip(dict.fromkeys(a.diagonal), range(a.n)))  # each diagonal value's index in c_v
    zero = [0] * len(slot)
    longest = [zero] * a.n  # c_v over the slots; a self-loop reads v's own as zero
    for (v,) in blocks:  # zero twice: max needs two arguments
        c = [*map(max, zero, zero, *map(longest.__getitem__, a.support[v][0]))]
        c[slot[a.diagonal[v]]] += 1
        longest[v] = c
    return dict(zip(slot, map(max, zero, zero, *longest)))


def power_traces(b: Sequence[Sequence[int]]) -> list[int]:
    """tr B^1 .. tr B^n of the n x n int rows B, by repeated P <- P B on
    plain row lists."""
    cols, power, traces = list(zip(*b)), b, []
    for k in range(len(b)):
        if k:
            power = [[sum(map(mul, row, col)) for col in cols] for row in power]
        traces.append(sum(row[i] for i, row in enumerate(power)))
    return traces


def block_traces(a: IntMatrix) -> tuple[list[list[int]], dict[int, int] | None]:
    """tr A_BB^1 .. tr A_BB^|B| for each strongly connected block B, with
    the path bound of one pass over the blocks (_path_bound; None if a
    block is larger than 1 x 1).

    A 1 x 1 block's one trace is its entry; only larger blocks are swept.
    """
    blocks = strong_blocks(a)
    return [[a.diagonal[b[0]]] if len(b) == 1 else power_traces([[a[i, j] for j in b] for i in b])
            for b in blocks], _path_bound(a, blocks)


def eigenvalue_of_a_block(a: IntMatrix, theta: Fraction) -> bool:
    """Whether alpha = 1/theta is an eigenvalue of a strongly connected
    block B of A, 1 x 1 blocks included: a value at which A_BB - alpha E
    is singular, tested on ints as num A_BB - den E for alpha = den / num."""
    num, den = theta.as_integer_ratio()
    return any(_singular([[num * a[i, j] - (den if i == j else 0) for j in block]
                          for i in block])
               for block in strong_blocks(a))


def _singular(rows: list[list[int]]) -> bool:
    """Whether a square int matrix is singular, by fraction-free (Bareiss)
    elimination: every division is exact, and a column with no pivot left
    means det = 0."""
    m, prev = [list(row) for row in rows], 1
    for col in range(len(m)):
        pivot = next((i for i in range(col, len(m)) if m[i][col]), None)
        if pivot is None:
            return True
        m[col], m[pivot] = m[pivot], m[col]
        top = m[col]
        for i in range(col + 1, len(m)):
            m[i] = [(x * top[col] - m[i][col] * y) // prev for x, y in zip(m[i], top)]
        prev = top[col]
    return False


def _newton(traces: Sequence[int]) -> list[int]:
    """det(E - B z) from tr B^1 .. tr B^n, by Newton's identities."""
    d = [1]
    for j in range(1, len(traces) + 1):
        q, rem = divmod(-sum(traces[i - 1] * d[j - i] for i in range(1, j + 1)), j)
        if rem:
            raise ArithmeticError(f"Newton's identity is not integral at z^{j}")
        d.append(q)
    return d


@dataclass(frozen=True)
class CharPolyBundle:
    """The three pencil polynomials of one matrix, with degree bookkeeping.

    diagonal holds (lambda, e) for each distinct entry lambda != 0 of A's
    1 x 1 strongly connected blocks, e the number of such blocks, in the
    order first met; factors holds det(E - A_BB z) for each larger block B
    whose factor is not constant.  d is their product with the
    (1 - lambda z)^e.  pair = (R, rev) for the annihilator mu that passed
    its check (module docstring), the smallest pair the sweep proved equal
    to m/d, outside == and repr; d = g rev and m = g R mod z^N are one
    product each with the cofactor g, g = 1 where mu is P.  Every
    polynomial here keeps the swept ints as its coefficients.
    """

    n: int
    d: RatPoly
    k: RatPoly
    m: RatPoly
    r: int
    s: int
    factors: tuple[RatPoly, ...]
    diagonal: tuple[tuple[int, int], ...]
    pair: tuple[RatPoly, RatPoly] = field(compare=False, repr=False)


def continue_counts(chains: Sequence[int], rev: Sequence[int], length: int) -> list[int]:
    """#N_0 .. #N_length from #N_0 .. #N_s, where the int coefficients rev
    of z^s mu(1/z) (pair[1].coeffs) have mu(A) 1 = 0: 1^T A^(j-s)
    mu(A) 1 = 0 gives #N_j = -sum_(i>=1) rev_i #N_(j-i) for j > s, on ints."""
    chains = list(chains)
    taps = [-c for c in reversed(rev[1:])]  # -rev_r .. -rev_1
    for _ in range(length + 1 - len(chains)):
        chains.append(sum(map(mul, taps, chains[len(chains) - len(taps):])))
    return chains


def bundle_from_sweep(sweep: Callable[[], Iterator[Sequence[int]]],
                      blocks: tuple[Sequence[Sequence[int]], dict[int, int] | None]
                      ) -> tuple[CharPolyBundle, list[int]]:
    """d, k, m and the degree defects, with the chain counts #N_0 .. #N_N.

    blocks is block_traces' pair: d comes from the traces, block by block,
    m from the counts, the entry sums of v_i = A^i 1 (sweep() starts a
    sweep, category.chain_vectors), and k = N d + z m.  The path bound,
    where it divides P and is not P, and then P are tried through one
    body on int lists (module docstring); the first mu that passes gives
    the counts past #N_s and the bundle's pair (R, rev), (m, d) on P.

    Raises ArithmeticError if a Newton division leaves a remainder or
    P(A) 1 is not zero: either way d is not det(E - A z) of the matrix
    swept.
    """
    traces_by_block, bound = blocks
    n = sum(len(traces) for traces in traces_by_block)
    big, factors, counts = [1], [], {}
    for traces in traces_by_block:
        if len(traces) == 1:
            counts[traces[0]] = counts.get(traces[0], 0) + 1
        else:
            factor = _newton(traces)
            big = mul_coeffs(factor, big)
            factors.append(RatPoly(factor))
    # a bound above some e_lambda kills 1 but need not divide P; one equal to e is P
    tries = [bound] if bound is not None and bound != counts and all(
        c <= counts.get(lam, 0) for lam, c in bound.items()) else []
    for c in tries + [counts]:  # bound is not None only where big == [1]
        rev = big
        for lam, k in c.items():
            if lam:
                rev = mul_coeffs(linear_power(-1, -lam, k), rev)  # rev's 1s cost no multiplication
        s = n - sum(counts.values()) + sum(c.values())  # the larger blocks' sizes, plus sum c
        residue, chains = [0] * n, []
        # zip asks for p_i first: no vector past v_s is pulled
        for p, v in zip(monic_charpoly(rev, s), sweep()):
            chains.append(sum(v))
            if p:
                residue = [r + p * x for r, x in zip(residue, v)]
        if not any(residue):
            break
    else:
        bad = next(i for i, x in enumerate(residue) if x)
        raise ArithmeticError(f"Cayley-Hamilton fails: entry {bad} of P(A) 1 is "
                              f"{residue[bad]}, not 0")
    chains = continue_counts(chains, rev, n)
    # R = rev sum_j #N_(j+1) z^j has degree below s, its z^k coefficient
    # for k >= s being 1^T A^(k-s+1) mu(A) 1 = 0
    r_coeffs = mul_coeffs(rev, chains[1:s + 1], s)
    g = [1]  # the cofactor prod (1 - lambda z)^(e_lambda - c_lambda): d = g rev, m = g R
    for lam, e in counts.items():
        if lam and e > c.get(lam, 0):
            g = mul_coeffs(linear_power(-1, -lam, e - c.get(lam, 0)), g)
    d, m = mul_coeffs(g, rev), mul_coeffs(g, r_coeffs, n)
    d_poly = RatPoly(d)
    counts.pop(0, None)
    # k_i = N d_i + m_(i-1): N d + z m below z^N
    k_poly = RatPoly([n * x + y for x, y in zip(d[:n] + [0] * (n - len(d)), [0] + m)])
    return CharPolyBundle(n=n, d=d_poly, k=k_poly, m=RatPoly(m),
                          r=n - d_poly.degree, s=n - 1 - k_poly.degree,
                          factors=tuple(f for f in factors if f.degree >= 1),
                          diagonal=tuple(counts.items()),
                          pair=(RatPoly(r_coeffs), RatPoly(rev))), chains


def check_pencil(bundle: CharPolyBundle, a: IntMatrix) -> None:
    """Checks of A's pencil that do not use the cofactor g: three O(N)
    ones, d(0) = 1, k(0) = N, and -d_1 = tr A, read off A's diagonal
    (none uses Newton's identities either), then k against the certified
    pair (R, rev): k/d = N + z R/rev, so k rev = d (N rev + z R) below z^N.
    Raises ArithmeticError on a mismatch."""
    n, d, k = bundle.n, bundle.d, bundle.k
    d0, minus_d1, k0 = d.coeff(0), -d.coeff(1), k.coeff(0)
    if d0 != 1:
        raise ArithmeticError(f"d(0) is {d0}, not 1")
    if k0 != n:
        raise ArithmeticError(f"k(0) is {k0}, not N = {n}")
    if minus_d1 != sum(a.diagonal):
        raise ArithmeticError(f"-d_1 is {minus_d1}, not tr A = {sum(a.diagonal)}")
    if not n:
        return
    lhs = mul_coeffs(k.coeffs, bundle.pair[1].coeffs, n)
    rhs = mul_coeffs(d.coeffs, _pair_numerator(bundle), n)
    if lhs != rhs:
        wrong = next(i for i, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
        raise ArithmeticError(f"k rev is not d (N rev + z R) at z^{wrong}: k disagrees "
                              f"with the certified pair")


def _pair_numerator(bundle: CharPolyBundle) -> list:
    """N rev + z R for the pair (R, rev), trailing zeros dropped: the
    numerator of k/d = N + z R/rev over rev."""
    rem, rev = (half.coeffs for half in bundle.pair)
    q = [bundle.n * x for x in rev] + [0] * (len(rem) + 1 - len(rev))
    for i, x in enumerate(rem, 1):
        q[i] += x
    while q and not q[-1]:
        q.pop()
    return q


def char_poly_bundle(a: IntMatrix) -> CharPolyBundle:
    """Compute d, k, m and the degree defects for one adjacency matrix,
    checked by check_pencil."""
    bundle = bundle_from_sweep(lambda: chain_vectors(a), block_traces(a))[0]
    check_pencil(bundle, a)
    return bundle


def monic_charpoly(d: Sequence, n: int) -> list:
    """det(t E - A) from d's coefficients by reversal, in their scalars.

    d has degree at most N and d_0 = 1, so the reversal pads with zeros:
    the coefficient of t^j is d_{N-j}.
    """
    cs = list(d[:n + 1])
    return (cs + [cs[0] * 0] * (n + 1 - len(cs)))[::-1]


@dataclass(frozen=True)
class EulerReport:
    exists: bool
    chi: Fraction | None
    r: int
    s: int
    branch: str  # "empty", "vanishes", "ratio" or "undefined"


def series_euler_char(bundle: CharPolyBundle) -> EulerReport:
    """Euler characteristic from the degree defects of d and k, checked
    against the certified pair (R, rev).

    k/d = N + z R/rev, so chi = -lim z k/d = -lim P/rev as z -> infinity,
    P = N z rev + z^2 R: not defined where deg P > deg rev, -P_top/rev_top
    where they are equal, and 0 where deg P < deg rev (N = 0 too).
    Raises ArithmeticError where that disagrees with the degree defects.
    """
    n, r, s = bundle.n, bundle.r, bundle.s
    if n == 0:
        report = EulerReport(exists=True, chi=Fraction(0), r=r, s=s, branch="empty")
    elif s < r:
        report = EulerReport(exists=False, chi=None, r=r, s=s, branch="undefined")
    elif s > r:
        report = EulerReport(exists=True, chi=Fraction(0), r=r, s=s, branch="vanishes")
    else:
        chi = Fraction(-bundle.k.coeff(n - 1 - s), bundle.d.coeff(n - r))
        report = EulerReport(exists=True, chi=chi, r=r, s=s, branch="ratio")
    q, rev = _pair_numerator(bundle), bundle.pair[1].coeffs
    deg_p = len(q) if q else -1  # P = z q
    if deg_p > len(rev) - 1:
        want = None
    elif deg_p == len(rev) - 1:
        want = Fraction(-q[-1], rev[-1])
    else:
        want = Fraction(0)
    if report.chi != want:
        raise ArithmeticError(f"the degree defects give chi = {report.chi} ({report.branch}), "
                              f"the certified pair gives {want}")
    return report
