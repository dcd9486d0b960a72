"""
Anatomy of the closed form
==========================

Walk one matrix through the whole pipeline by hand: pencil polynomials,
root extraction, the division of m by d that the closed form starts
from, beta coefficients, and the final product-of-factors-times-exponential
shape.
"""

from fractions import Fraction

from catzeta import (
    IntMatrix,
    char_poly_bundle,
    closed_form,
    closed_form_taylor,
    factor_charpoly,
    zeta_series,
)


def coefficients(p):
    """p's coefficients, each as a Fraction (a RatPoly keeps ints as ints)."""
    return [Fraction(c) for c in p.coeffs]


# A Jordan block with eigenvalue 2: a repeated root forces an essential
# exponential part on top of the plain binomial factor.
a = IntMatrix([[2, 1], [0, 2]])
bundle = char_poly_bundle(a)
print("d(z) =", coefficients(bundle.d))   # (1 - 2z)^2
print("m(z) =", coefficients(bundle.m))

rootset = factor_charpoly(bundle.d)
for root in rootset.roots:
    print(f"root theta = {root.theta} with multiplicity {root.multiplicity}")

q, rem = divmod(bundle.m, bundle.d)
print("m/d = q + rem/d with q =", coefficients(q), "and rem =", coefficients(rem))

cf = closed_form(bundle.m, bundle.d, rootset)
(factor,) = cf.factors
print(f"zeta = (1 - {factor.alpha} z)^(-{factor.beta0}) "
      f"* exp({factor.betas[0]} z / (1 - {factor.alpha} z))")

taylor = closed_form_taylor(cf, 8)
series = zeta_series(a, 8)
assert taylor == list(series.coeffs)
print("first coefficients:", ", ".join(str(c) for c in taylor[:6]))
print()

# When the remainder division leaves a quotient, its antiderivative Q(z)
# joins the exponent.  A partly nilpotent matrix shows it.
b = IntMatrix([[0, 1, 0, 0],
               [0, 0, 1, 0],
               [0, 0, 0, 0],
               [0, 0, 0, 1]])
from catzeta import analyze_matrix
analysis = analyze_matrix(b)
print("Q(z) coefficients:", coefficients(analysis.closed.q_integral))
print("factors:", [(f.theta, f.beta0) for f in analysis.closed.factors])
assert closed_form_taylor(analysis.closed, 10) == list(zeta_series(b, 10).coeffs)
print("zeta = exp(2z + z^2/2) / (1 - z), checked through order 10")
