"""Independent checks of catzeta's exact results, in plain modular arithmetic.

Nothing here imports catzeta.  The pencil polynomials are checked by
evaluating d(z) = det(E - A z), k(z) = 1^T adj(E - A z) 1 and
m(z) = 1^T adj(E - A z) A 1 at one point modulo a 61-bit prime, with
one Gauss-Jordan elimination; the library gets them from Bareiss
determinants and Lagrange interpolation instead.  The zeta coefficients
g are checked through the log-derivative identity d(z) g'(z) = m(z) g(z),
which fixes g uniquely once d(0) = 1 and g_0 = 1.  A wrong polynomial
or coefficient passes either check with probability about N / 2^61.

The module also certifies that a matrix has an irrational eigenvalue
(its characteristic polynomial fails to split modulo a small prime), which
is how the numeric ladder guarantees that every input takes the numeric
path.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

PRIME = (1 << 61) - 1
SPLIT_PRIMES = (101, 103, 107)


def to_mod(x, p: int = PRIME) -> int:
    """An int or Fraction as a residue mod p (the denominator must be a unit)."""
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, p) % p


def poly_at(coeffs, z: int, p: int = PRIME) -> int:
    """Horner evaluation mod p of a lowest-degree-first coefficient list."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * z + to_mod(c, p)) % p
    return acc


def pencil_at(rows: list[list[int]], z: int, p: int = PRIME) -> tuple[int, int, int] | None:
    """(d(z), k(z), m(z)) mod p, or None when E - A z is singular mod p.

    With M = E - A z and y solving M^T y = 1: adj(M) = det(M) M^-1, so
    k = det(M) * sum(y) and m = det(M) * y . (A 1).
    """
    n = len(rows)
    if n == 0:
        return 1, 0, 0
    aug = [[((1 if i == j else 0) - rows[j][i] * z) % p for j in range(n)] + [1]
           for i in range(n)]
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            return None
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
            det = -det
        det = det * aug[col][col] % p
        inv = pow(aug[col][col], -1, p)
        pivot_row = [x * inv % p for x in aug[col]]
        aug[col] = pivot_row
        for r in range(n):
            f = aug[r][col]
            if r != col and f:
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], pivot_row)]
    y = [aug[i][n] for i in range(n)]
    row_sums = [sum(row) for row in rows]
    k = det * sum(y) % p
    m = det * sum(yi * si for yi, si in zip(y, row_sums)) % p
    return det % p, k, m


def _degree(coeffs) -> int:
    """Degree of a coefficient list; -1 for the zero polynomial."""
    deg = len(coeffs) - 1
    while deg >= 0 and coeffs[deg] == 0:
        deg -= 1
    return deg


def euler_chi(d, k, n: int):
    """Series Euler characteristic from the degree defects of d and k,
    as the paper states it; None where it does not exist."""
    if n == 0:
        return Fraction(0)
    r = n - _degree(d)
    s = n - 1 - _degree(k)
    if s < r:
        return None
    if s > r:
        return Fraction(0)
    return -Fraction(k[n - 1 - s]) / Fraction(d[n - r])


def zeta_identity_holds(d, m, g, p: int = PRIME) -> bool:
    """g_0 = 1 and d g' = m g through z^(len(g) - 2), mod p."""
    if not g or to_mod(g[0], p) != 1:
        return False
    dm = [to_mod(c, p) for c in d]
    mm = [to_mod(c, p) for c in m]
    gm = [to_mod(c, p) for c in g]
    for t in range(len(g) - 1):
        lhs = sum(dm[i] * (t - i + 1) * gm[t - i + 1] for i in range(min(t, len(dm) - 1) + 1))
        rhs = sum(mm[i] * gm[t - i] for i in range(min(t, len(mm) - 1) + 1))
        if (lhs - rhs) % p:
            return False
    return True


def check_content(rows: list[list[int]], content: dict, z: int,
                  expected_path: str | None = None) -> list[str]:
    """Problems found in one item's exact results; empty when all hold.

    `content` is what `fingerprint` hashes: coefficient strings of d, k, m
    and of the zeta series, chi, path and the four verify flags.
    """
    d, k, m = ([Fraction(c) for c in content[key]] for key in ("d", "k", "m"))
    problems = []
    at = None
    while at is None:
        at = pencil_at(rows, z)
        z += 1
    if (poly_at(d, z - 1), poly_at(k, z - 1), poly_at(m, z - 1)) != at:
        problems.append("pencil polynomials disagree with det/adj evaluation")
    if not zeta_identity_holds(d, m, [Fraction(c) for c in content["zeta"]]):
        problems.append("zeta coefficients break d g' = m g")
    chi = euler_chi(d, k, len(rows))
    if content["chi"] != (None if chi is None else str(chi)):
        problems.append(f"chi {content['chi']} != {chi}")
    if expected_path is not None and content["path"] != expected_path:
        problems.append(f"path {content['path']} != {expected_path}")
    if False in content["flags"]:
        problems.append(f"verify flags {content['flags']}")
    return problems


def fingerprint(doc) -> str:
    """sha256 of a canonical JSON rendering."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- irrational-eigenvalue certificate ---------------------------------------

def charpoly_mod(rows: list[list[int]], p: int) -> list[int]:
    """det(x E - A) mod p, lowest degree first, via Hessenberg reduction."""
    n = len(rows)
    h = [[x % p for x in row] for row in rows]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[j + 1], h[piv] = h[piv], h[j + 1]
            for row in h:
                row[j + 1], row[piv] = row[piv], row[j + 1]
        inv = pow(h[j + 1][j], -1, p)
        for i in range(j + 2, n):
            f = h[i][j] * inv % p
            if f:
                h[i] = [(x - f * y) % p for x, y in zip(h[i], h[j + 1])]
                for row in h:
                    row[j + 1] = (row[j + 1] + f * row[i]) % p
    # chars[k] = charpoly of the leading k x k block of the Hessenberg form
    chars = [[1]]
    for k in range(1, n + 1):
        nxt = [0] + chars[k - 1]
        for t, c in enumerate(chars[k - 1]):
            nxt[t] = (nxt[t] - h[k - 1][k - 1] * c) % p
        sub = 1
        for i in range(k - 1, 0, -1):
            sub = sub * h[i][i - 1] % p
            f = h[i - 1][k - 1] * sub % p
            for t, c in enumerate(chars[i - 1]):
                nxt[t] = (nxt[t] - f * c) % p
        chars.append(nxt)
    return chars[n]


def roots_mod(coeffs: list[int], p: int) -> int:
    """Number of roots in F_p of a monic polynomial, with multiplicity."""
    count = 0
    poly = list(coeffs)
    for x in range(p):
        while len(poly) > 1:
            # synthetic division by (t - x); the remainder is poly(x)
            quot = [0] * (len(poly) - 1)
            acc = 0
            for i in range(len(poly) - 1, 0, -1):
                acc = (acc * x + poly[i]) % p
                quot[i - 1] = acc
            if (acc * x + poly[0]) % p:
                break
            poly = quot
            count += 1
    return count


def has_irrational_eigenvalue(rows: list[list[int]]) -> bool:
    """True when det(x E - A) fails to split mod one of a few small primes.

    An integer matrix whose eigenvalues are all rational has integer
    eigenvalues, and then its monic characteristic polynomial splits mod
    every prime.  False means no certificate was found, not that the
    spectrum is rational.
    """
    n = len(rows)
    return any(roots_mod(charpoly_mod(rows, p), p) < n for p in SPLIT_PRIMES)
