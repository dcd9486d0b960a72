"""Series Euler characteristic of a finite category.

The characteristic is read off the degree defects r = N - deg d and
s = N - 1 - deg k of the pencil polynomials:

    s < r : not defined
    s > r : defined, equal to 0
    s = r : defined, equal to -k_{N-1-s} / d_{N-r}

The empty category has d = 1 and k = 0; its characteristic is 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .category import IntMatrix
from .charpoly import CharPolyBundle, char_poly_bundle


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

