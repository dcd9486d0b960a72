"""The pencil polynomials of E - A z, read off one sweep over the powers of A.

For an N x N integer matrix A, three polynomials drive everything else:

    d(z) = det(E - A z)
    k(z) = sum of entries of adj(E - A z)
    m(z) = sum of entries of adj(E - A z) A

All three come from integer power sums: the chain counts #N_j = 1^T A^j 1
(by v <- A v, see category.chain_counts) and the traces tr A^j (by
P <- P A).  Newton's identities turn the traces into d,

    j d_j = -sum_{i=1..j} tr(A^i) d_{j-i},

and since adj(E - A z) = d(z) (E - A z)^{-1} = d(z) sum_j A^j z^j,

    k(z) = d(z) sum_j #N_j z^j        mod z^N
    m(z) = d(z) sum_j #N_{j+1} z^j    mod z^N.

By Cayley-Hamilton the z^N coefficient of both products vanishes.  That
is checked on every call, traces against chain counts, and it also pins
z m(z) = k(z) - N d(z) down to the top coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .category import IntMatrix, chain_counts
from .poly import RatPoly


def power_traces(a: IntMatrix) -> list[int]:
    """tr A^1 .. tr A^N, by repeated P <- P A."""
    traces = []
    power = IntMatrix.identity(a.n)
    for _ in range(a.n):
        power = power @ a
        traces.append(power.trace())
    return traces


def _times_d(d: list[int], counts: Sequence[int]) -> list[int]:
    """Coefficients z^0 .. z^N of d(z) * sum_j counts[j] z^j."""
    return [sum(d[i] * counts[t - i] for i in range(t + 1)) for t in range(len(d))]


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
    """The three pencil polynomials of one matrix, with degree bookkeeping."""

    n: int
    d: RatPoly
    k: RatPoly
    m: RatPoly
    r: int
    s: int

    @property
    def lead_d(self) -> Fraction:
        """Leading coefficient of d; equals d_{N-r}."""
        return self.d.lead


def bundle_from_sums(chains: Sequence[int], traces: Sequence[int]) -> CharPolyBundle:
    """d, k, m and the degree defects from #N_0 .. #N_{N+1} and tr A^1 .. tr A^N.

    Raises ArithmeticError if a Newton division leaves a remainder or the
    z^N coefficient of d * (chain-count series) does not vanish: either
    means the sums do not come from one integer matrix.
    """
    n = len(traces)
    if len(chains) < n + 2:
        raise ValueError(f"need the chain counts #N_0 .. #N_{n + 1}")
    d = [1]
    for j in range(1, n + 1):
        q, rem = divmod(-sum(traces[i - 1] * d[j - i] for i in range(1, j + 1)), j)
        if rem:
            raise ArithmeticError(f"Newton's identity is not integral at z^{j}")
        d.append(q)
    k = _times_d(d, chains)
    m = _times_d(d, chains[1:])
    if k[n] or m[n]:
        raise ArithmeticError("Cayley-Hamilton fails: traces and chain counts disagree")
    d_poly, k_poly = RatPoly(d), RatPoly(k[:n])
    r, s = degree_defects(d_poly, k_poly, n)
    return CharPolyBundle(n=n, d=d_poly, k=k_poly, m=RatPoly(m[:n]), r=r, s=s)


def char_poly_bundle(a: IntMatrix) -> CharPolyBundle:
    """Compute d, k, m and the degree defects for one adjacency matrix."""
    return bundle_from_sums(chain_counts(a, a.n + 1), power_traces(a))


def monic_charpoly(d: RatPoly, n: int) -> RatPoly:
    """det(t E - A) recovered from d by coefficient reversal.

    d has degree at most N, so the reversal pads with zeros: the
    coefficient of t^j is d_{N-j}.
    """
    return RatPoly([d.coeff(n - j) for j in range(n + 1)])
