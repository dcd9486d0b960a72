"""The pencil polynomials of E - A z, read off one sweep over the powers of A.

For an N x N integer matrix A, three polynomials drive everything else:

    d(z) = det(E - A z)
    k(z) = sum of entries of adj(E - A z)
    m(z) = sum of entries of adj(E - A z) A

d is a product over the strongly connected blocks of A's support (i -> j
when a_ij != 0): ordered by Tarjan's algorithm, A is block upper
triangular, so d = prod_B det(E - A_BB z).  A 1 x 1 block contributes
1 - a_ii z as it stands; a larger block's factor comes from its own
traces tr A_BB^1 .. tr A_BB^|B| (by P <- P A_BB) through Newton's
identities,

    j d_j = -sum_{i=1..j} tr(A_BB^i) d_{j-i}.

For a category, a block is a set of objects with morphisms both ways, so
acyclic and EI categories have tiny blocks and no dense power sweep.
k and m come from the chain counts #N_j = 1^T A^j 1 of the whole matrix
(by v <- A v, see category.chain_counts): since
adj(E - A z) = d(z) (E - A z)^{-1} = d(z) sum_j A^j z^j,

    k(z) = d(z) sum_j #N_j z^j        mod z^N
    m(z) = d(z) sum_j #N_{j+1} z^j    mod z^N.

By Cayley-Hamilton the z^N coefficient of both products vanishes.  That
is checked on every call, the blockwise d against the whole-matrix chain
counts, and it also pins z m(z) = k(z) - N d(z) down to the top
coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .category import IntMatrix, chain_counts
from .poly import RatPoly, mul_coeffs


def strong_blocks(a: IntMatrix) -> list[list[int]]:
    """The strongly connected components of A's support, i -> j when
    a_ij != 0, each as a sorted index list.

    Tarjan's algorithm with an explicit stack, so a long path cannot hit
    the recursion limit.  Blocks come out in reverse topological order.
    """
    succ = [[j for j, x in enumerate(row) if x] for row in a.rows]
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
                if low[v] == index[v]:
                    block = []
                    while not block or block[-1] != v:
                        block.append(stack.pop())
                        on_stack[block[-1]] = False
                    blocks.append(sorted(block))
    return blocks


def power_traces(a: IntMatrix) -> list[int]:
    """tr A^1 .. tr A^N, by repeated P <- P A."""
    traces = []
    power = IntMatrix.identity(a.n)
    for _ in range(a.n):
        power = power @ a
        traces.append(power.trace())
    return traces


def block_traces(a: IntMatrix) -> list[list[int]]:
    """tr A_BB^1 .. tr A_BB^|B| for each strongly connected block B.

    A 1 x 1 block's one trace is its entry; only larger blocks are swept.
    """
    out = []
    for block in strong_blocks(a):
        if len(block) == 1:
            out.append([a.rows[block[0]][block[0]]])
        else:
            out.append(power_traces(IntMatrix([[a.rows[i][j] for j in block]
                                               for i in block])))
    return out


def _times_d(d: list[int], counts: Sequence[int]) -> list[int]:
    """Coefficients z^0 .. z^N of d(z) * sum_j counts[j] z^j."""
    return [sum(d[i] * counts[t - i] for i in range(t + 1)) for t in range(len(d))]


def _newton(traces: Sequence[int]) -> list[int]:
    """det(E - B z) from tr B^1 .. tr B^n, by Newton's identities."""
    d = [1]
    for j in range(1, len(traces) + 1):
        q, rem = divmod(-sum(traces[i - 1] * d[j - i] for i in range(1, j + 1)), j)
        if rem:
            raise ArithmeticError(f"Newton's identity is not integral at z^{j}")
        d.append(q)
    return d


def degree_defects(d: RatPoly, k: RatPoly, n: int) -> tuple[int, int]:
    """(r, s) with r = N - deg d and s = N - 1 - deg k.

    For N = 0 both polynomials degenerate (d = 1, k = 0) and the defects
    are (0, 0) by convention.
    """
    if n == 0:
        return 0, 0
    return n - d.degree, n - 1 - k.degree


@dataclass(frozen=True)
class CharPolyBundle:
    """The three pencil polynomials of one matrix, with degree bookkeeping.

    factors holds det(E - A_BB z) for each strongly connected block B
    whose factor is not constant; their product is d.
    """

    n: int
    d: RatPoly
    k: RatPoly
    m: RatPoly
    r: int
    s: int
    factors: tuple[RatPoly, ...]

    @property
    def lead_d(self) -> Fraction:
        """Leading coefficient of d; equals d_{N-r}."""
        return self.d.lead


def bundle_from_sums(chains: Sequence[int],
                     traces_by_block: Sequence[Sequence[int]]) -> CharPolyBundle:
    """d, k, m and the degree defects from #N_0 .. #N_{N+1} and, for each
    strongly connected block B, tr A_BB^1 .. tr A_BB^|B|.

    Raises ArithmeticError if a Newton division leaves a remainder or the
    z^N coefficient of d * (chain-count series) does not vanish: either
    means the sums do not come from one integer matrix.
    """
    n = sum(len(traces) for traces in traces_by_block)
    if len(chains) < n + 2:
        raise ValueError(f"need the chain counts #N_0 .. #N_{n + 1}")
    d, factors = [1], []
    for traces in traces_by_block:
        factor = _newton(traces)
        d = mul_coeffs(d, factor)
        factors.append(RatPoly(factor))
    k = _times_d(d, chains)
    m = _times_d(d, chains[1:])
    if k[n] or m[n]:
        raise ArithmeticError("Cayley-Hamilton fails: traces and chain counts disagree")
    d_poly, k_poly = RatPoly(d), RatPoly(k[:n])
    r, s = degree_defects(d_poly, k_poly, n)
    return CharPolyBundle(n=n, d=d_poly, k=k_poly, m=RatPoly(m[:n]), r=r, s=s,
                          factors=tuple(f for f in factors if f.degree >= 1))


def char_poly_bundle(a: IntMatrix) -> CharPolyBundle:
    """Compute d, k, m and the degree defects for one adjacency matrix."""
    return bundle_from_sums(chain_counts(a, a.n + 1), block_traces(a))


def monic_charpoly(d: RatPoly, n: int) -> RatPoly:
    """det(t E - A) recovered from d by coefficient reversal.

    d has degree at most N, so the reversal pads with zeros: the
    coefficient of t^j is d_{N-j}.
    """
    return RatPoly([d.coeff(n - j) for j in range(n + 1)])
