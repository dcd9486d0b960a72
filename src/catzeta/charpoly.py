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
k and m come from the chain counts #N_j = 1^T A^j 1 of the whole matrix,
the entry sums of v_j = A^j 1 (by v <- A v, category.chain_vectors): since
adj(E - A z) = d(z) (E - A z)^{-1} = d(z) sum_j A^j z^j,

    k(z) = d(z) sum_j #N_j z^j        mod z^N
    m(z) = d(z) sum_j #N_{j+1} z^j    mod z^N.

Both need d to be det(E - A z), and v_0 .. v_N certify that on every
call, the blockwise d against the whole matrix: with P(t) = det(t E - A)
= sum_i p_i t^i, the reversal of d (monic_charpoly), Cayley-Hamilton gives
the integer vector sum_i p_i v_i = P(A) 1 = 0.  The z^N coefficients of
the two products, 1^T P(A) 1 and 1^T A P(A) 1, vanish with it, which pins
z m(z) = k(z) - N d(z) down to the top coefficient.

The degree defects r = N - deg d and s = N - 1 - deg k decide the
series Euler characteristic:

    s < r : not defined
    s > r : defined, equal to 0
    s = r : defined, equal to -k_{N-1-s} / d_{N-r}

The empty category has d = 1 and k = 0, so r = s = 0; its
characteristic is 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .category import IntMatrix, chain_vectors
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


def bundle_from_sweep(sweep: Iterator[Sequence[int]], traces_by_block: Sequence[Sequence[int]]
                      ) -> tuple[CharPolyBundle, list[int]]:
    """d, k, m and the degree defects, with the chain counts #N_0 .. #N_N.

    d comes from tr A_BB^1 .. tr A_BB^|B| for each strongly connected
    block B alone, k and m from the counts, the entry sums of the first
    N + 1 vectors v_i = A^i 1 of sweep (category.chain_vectors).  That is
    N steps of it; the caller may continue it for later counts.

    Raises ArithmeticError if a Newton division leaves a remainder or
    P(A) 1 = sum_i p_i v_i is not zero: either way d is not det(E - A z)
    of the matrix swept.
    """
    n = sum(len(traces) for traces in traces_by_block)
    d, factors = [1], []
    for traces in traces_by_block:
        factor = _newton(traces)
        d = mul_coeffs(d, factor)
        factors.append(RatPoly(factor))
    d_poly = RatPoly(d)
    residue, chains = [0] * n, []
    # zip asks for p_i before v_i, so v_N is the last vector pulled
    for p, v in zip(monic_charpoly(d_poly, n).coeffs, sweep):
        chains.append(sum(v))
        if p:
            p = p.numerator
            residue = [r + p * x for r, x in zip(residue, v)]
    bad = next((i for i, x in enumerate(residue) if x), None)
    if bad is not None:
        raise ArithmeticError(f"Cayley-Hamilton fails: entry {bad} of P(A) 1 is "
                              f"{residue[bad]}, not 0")
    k_poly = RatPoly(mul_coeffs(d, chains, n))  # z^0 .. z^(N-1) of d times the counts' series
    return CharPolyBundle(n=n, d=d_poly, k=k_poly, m=RatPoly(mul_coeffs(d, chains[1:], n)),
                          r=n - d_poly.degree, s=n - 1 - k_poly.degree,
                          factors=tuple(f for f in factors if f.degree >= 1)), chains


def char_poly_bundle(a: IntMatrix) -> CharPolyBundle:
    """Compute d, k, m and the degree defects for one adjacency matrix."""
    return bundle_from_sweep(chain_vectors(a), block_traces(a))[0]


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
