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
k and m come from the chain counts #N_j = 1^T A^j 1 of the whole matrix,
the entry sums of v_j = A^j 1 (by v <- A v, category.chain_vectors): since
adj(E - A z) = d(z) (E - A z)^{-1} = d(z) sum_j A^j z^j,

    k(z) = d(z) sum_j #N_j z^j        mod z^N
    m(z) = d(z) sum_j #N_{j+1} z^j    mod z^N.

Only m is multiplied out: the first sum is N + z times the second, so
k = N d + z m mod z^N.  Both need d to be det(E - A z), and the sweep
certifies that on every call, the blockwise d against the whole matrix:
with P(t) = det(t E - A) = sum_i p_i t^i, the reversal of d
(monic_charpoly), P(A) 1 = 0 must hold as an integer vector.  The z^N
coefficients of the two products, 1^T P(A) 1 and 1^T A P(A) 1, vanish
with it, which pins z m(z) = k(z) - N d(z) down to the top coefficient.

Where every block is 1 x 1, the certificate goes through a divisor of P.
The same Tarjan pass finds, for each diagonal value lambda (0 too), the
largest number c_lambda of vertices with a_ii = lambda on one path of
A's support.  mu~(t) = prod (t - lambda)^(c_lambda), of degree s <= N
(not the degree defect s below), is a multiple of the minimal
polynomial of A on 1, by a path bound on each eigenvalue's index
(Rothblum's index theorem), and often equal to it.  Then c_lambda <=
e_lambda, the number of blocks with entry lambda, makes mu~ divide P,
and mu~(A) 1 = 0 on v_0 .. v_s gives P(A) 1 = 0; the counts past #N_s
follow mu~'s integer recurrence, so s steps replace N.  Nothing trusts
the bound: where either check fails, or a block is larger, v_0 .. v_N
give sum_i p_i v_i = P(A) 1 = 0 by Cayley-Hamilton.

The degree defects r = N - deg d and s = N - 1 - deg k decide the
series Euler characteristic:

    s < r : not defined
    s > r : defined, equal to 0
    s = r : defined, equal to -k_{N-1-s} / d_{N-r}

The empty category has d = 1 and k = 0, so r = s = 0; its
characteristic is 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import compress, islice
from operator import mul
from typing import Callable, Iterator, Sequence

from .category import IntMatrix, chain_vectors
from .poly import RatPoly, linear_power, mul_coeffs


def strong_blocks(a: IntMatrix) -> list[list[int]]:
    """The strongly connected components of A's support, i -> j when
    a_ij != 0, each as a sorted index list.

    Tarjan's algorithm with an explicit stack, so a long path cannot hit
    the recursion limit.  Blocks come out in reverse topological order.
    """
    return _tarjan(a)[0]


def _tarjan(a: IntMatrix) -> tuple[list[list[int]], dict[int, int] | None]:
    """strong_blocks, with the path bound c_lambda (None if a block is
    larger than 1 x 1): the most vertices v with a_vv = lambda on one path
    of A's support, for each diagonal value lambda.  A 1 x 1 block {v} is
    popped after every vertex it reaches, so one DP in the same pass gives
    c_v[lambda], that count over the paths from v: the largest
    c_w[lambda] over v's successors w, plus one where a_vv = lambda.
    """
    cols = range(a.n)
    succ = [list(compress(cols, row)) for row in a.rows]
    diag = [row[i] for i, row in enumerate(a.rows)]
    slot = dict(zip(dict.fromkeys(diag), cols))  # each diagonal value's index in c_v
    zero = [0] * len(slot)
    longest: list | None = [zero] * a.n  # c_v over the slots; v's own is zero until v is popped
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
                if stack[-1] == v:  # a 1 x 1 block
                    stack.pop()
                    on_stack[v] = False
                    blocks.append([v])
                    if longest is not None:  # zero twice: max needs two arguments
                        c = [*map(max, zero, zero, *map(longest.__getitem__, succ[v]))]
                        c[slot[diag[v]]] += 1
                        longest[v] = c
                else:
                    block = []
                    while not block or block[-1] != v:
                        block.append(stack.pop())
                        on_stack[block[-1]] = False
                    blocks.append(sorted(block))
                    longest = None
    if longest is None:
        return blocks, None
    return blocks, dict(zip(slot, map(max, zero, zero, *longest)))


def power_traces(a: IntMatrix) -> list[int]:
    """tr A^1 .. tr A^N, by repeated P <- P A."""
    traces = []
    power = IntMatrix.identity(a.n)
    for _ in range(a.n):
        power = power @ a
        traces.append(power.trace())
    return traces


def block_traces(a: IntMatrix) -> tuple[list[list[int]], dict[int, int] | None]:
    """tr A_BB^1 .. tr A_BB^|B| for each strongly connected block B, with
    the path bound of the same Tarjan pass (_tarjan; None if a block is
    larger than 1 x 1).

    A 1 x 1 block's one trace is its entry; only larger blocks are swept.
    """
    blocks, bound = _tarjan(a)
    out = []
    for block in blocks:
        if len(block) == 1:
            out.append([a.rows[block[0]][block[0]]])
        else:
            out.append(power_traces(IntMatrix([[a.rows[i][j] for j in block]
                                               for i in block])))
    return out, bound


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
    (1 - lambda z)^e.  pair = (R, rev) on the mu~ route, else (m, d): the
    smallest pair the sweep proved equal to m/d, outside == and repr.
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


def _residue(coeffs: Sequence[int], sweep: Iterator[Sequence[int]], n: int
             ) -> tuple[list[int], list[int]]:
    """sum_i c_i v_i over the first len(coeffs) vectors of sweep, with their
    entry sums #N_i; zip asks for c_i first, so no vector past the last is
    pulled."""
    residue, chains = [0] * n, []
    for c, v in zip(coeffs, sweep):
        chains.append(sum(v))
        if c:
            residue = [r + c * x for r, x in zip(residue, v)]
    return residue, chains


def bundle_from_sweep(sweep: Callable[[], Iterator[Sequence[int]]],
                      blocks: tuple[Sequence[Sequence[int]], dict[int, int] | None],
                      order: int = 0) -> tuple[CharPolyBundle, list[int]]:
    """d, k, m and the degree defects, with the chain counts #N_0 .. #N_max(N, order).

    blocks is block_traces' pair: d comes from the traces, block by block,
    m from the counts, the entry sums of v_i = A^i 1 (sweep() starts a
    sweep, category.chain_vectors), and k = N d + z m.  Where the path
    bound is below N and c_lambda <= e_lambda, v_0 .. v_s are swept,
    mu~(A) 1 = 0 is checked and the later counts come from mu~'s
    recurrence, #N_(j+s) = -sum_(i<s) u_i #N_(j+i); then d = g rev and
    m = g R, rev the reversal of mu~, and the bundle's pair is (R, rev).
    Otherwise, or where mu~(A) 1 != 0, a new sweep runs N steps, checks
    P(A) 1 = 0 and goes on to #N_order (see the module docstring).

    Raises ArithmeticError if a Newton division leaves a remainder or
    P(A) 1 is not zero: either way d is not det(E - A z) of the matrix
    swept.
    """
    traces_by_block, bound = blocks
    n = sum(len(traces) for traces in traces_by_block)
    d, factors, counts = [1], [], {}
    for traces in traces_by_block:
        if len(traces) == 1:
            counts[traces[0]] = counts.get(traces[0], 0) + 1
        else:
            factor = _newton(traces)
            d = mul_coeffs(d, factor)
            factors.append(RatPoly(factor))
    length = max(n, order)
    chains, proved, pair = None, {}, None
    # s = N leaves nothing to save: under c_lambda <= e_lambda, mu~ is P itself
    if (bound is not None and sum(bound.values()) < n
            and all(c <= counts.get(lam, 0) for lam, c in bound.items())):
        mu = reduce(mul_coeffs, [linear_power(lam, 1, c) for lam, c in bound.items()])
        residue, chains = _residue(mu, sweep(), n)
        if any(residue):
            chains = None
        else:
            s, tail = len(mu) - 1, [-u for u in mu[:-1]]
            for _ in range(length - s):
                chains.append(sum(map(mul, tail, chains[-s:])))
            proved = bound
    counts.pop(0, None)
    for lam, e in counts.items():  # d, or g on the mu~ route: (1 - lambda z)^(e - c)
        if e > proved.get(lam, 0):
            d = mul_coeffs(d, linear_power(-1, -lam, e - proved.get(lam, 0)))
    if chains is not None:
        # d = g rev, rev = z^s mu~(1/z) without its t^(c_0), and m = g R:
        # R = rev sum_j #N_(j+1) z^j has degree below s, its z^k
        # coefficient for k >= s being 1^T A^(k-s+1) mu~(A) 1 = 0
        rev = mu[::-1][:len(mu) - proved.get(0, 0)]
        r_coeffs = mul_coeffs(rev, chains[1:s + 1], s)
        m = mul_coeffs(d, r_coeffs, n)
        d = mul_coeffs(d, rev)
        pair = RatPoly(r_coeffs), RatPoly(rev)
    d_poly = RatPoly(d)
    if chains is None:
        vectors = sweep()
        residue, chains = _residue([p.numerator for p in monic_charpoly(d_poly, n).coeffs],
                                   vectors, n)
        bad = next((i for i, x in enumerate(residue) if x), None)
        if bad is not None:
            raise ArithmeticError(f"Cayley-Hamilton fails: entry {bad} of P(A) 1 is "
                                  f"{residue[bad]}, not 0")
        chains += map(sum, islice(vectors, length - n))
        m = mul_coeffs(d, chains[1:n + 1], n)  # z^0 .. z^(N-1) of d times the counts' series
    m_poly = RatPoly(m)
    # k_i = N d_i + m_(i-1): N d + z m below z^N
    k_poly = RatPoly([n * x + y for x, y in zip(d[:n] + [0] * (n - len(d)), [0] + m)])
    return CharPolyBundle(n=n, d=d_poly, k=k_poly, m=m_poly,
                          r=n - d_poly.degree, s=n - 1 - k_poly.degree,
                          factors=tuple(f for f in factors if f.degree >= 1),
                          diagonal=tuple(counts.items()), pair=pair or (m_poly, d_poly)), chains


def char_poly_bundle(a: IntMatrix) -> CharPolyBundle:
    """Compute d, k, m and the degree defects for one adjacency matrix."""
    return bundle_from_sweep(lambda: chain_vectors(a), block_traces(a))[0]


def monic_charpoly(d: RatPoly, n: int) -> RatPoly:
    """det(t E - A) recovered from d by coefficient reversal.

    d has degree at most N, so the reversal pads with zeros: the
    coefficient of t^j is d_{N-j}.
    """
    return RatPoly([d.coeff(n - j) for j in range(n + 1)])


@dataclass(frozen=True)
class EulerReport:
    exists: bool
    chi: Fraction | None
    r: int
    s: int
    branch: str  # "empty", "vanishes", "ratio" or "undefined"


def series_euler_char(bundle: CharPolyBundle) -> EulerReport:
    """Euler characteristic from the degree defects of d and k."""
    n, r, s = bundle.n, bundle.r, bundle.s
    if n == 0:
        return EulerReport(exists=True, chi=Fraction(0), r=r, s=s, branch="empty")
    if s < r:
        return EulerReport(exists=False, chi=None, r=r, s=s, branch="undefined")
    if s > r:
        return EulerReport(exists=True, chi=Fraction(0), r=r, s=s, branch="vanishes")
    chi = -bundle.k.coeff(n - 1 - s) / bundle.d.coeff(n - r)
    return EulerReport(exists=True, chi=chi, r=r, s=s, branch="ratio")


def euler_char_of_matrix(a: IntMatrix) -> EulerReport:
    return series_euler_char(char_poly_bundle(a))
