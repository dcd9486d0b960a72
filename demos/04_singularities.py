"""
Classifying the singularities of zeta
=====================================

Every root theta of d(z) is expected to be a genuine singularity of the
closed form: a pole when the exponent beta0 has positive real part, a
zero when negative, an essential singularity when only the inner
exponential coefficients survive.  The report also flags roots that
carry no exponent at all, which for a matrix outside the categorical
setting can actually happen.
"""

from catzeta import IntMatrix, analyze_matrix, singularity_report

CASES = [
    ("arrow category", [[1, 1], [0, 1]]),
    ("codiscrete pair", [[1, 1], [1, 1]]),
    ("Z/2 delooping", [[2]]),
    ("rotation by 90 degrees", [[0, 1], [-1, 0]]),
    # zeta = 1 - z exactly: the root is a zero, not a pole
    ("negative idempotent", [[1, 0], [-2, 0]]),
    # zeta = (1 - z)^(-2) although d = 1 - z^2: the root at -1 cancels
    # against the numerator, and the report refuses to classify it
    ("cancelling root", [[1, 2], [0, -1]]),
]

for label, rows in CASES:
    analysis = analyze_matrix(IntMatrix(rows))
    rep = singularity_report(analysis.closed)
    print(f"== {label} ==")
    if not rep.points:
        print("  d is constant; zeta is entire")
    for root, pt in zip(analysis.rootset.roots, rep.points):
        desc = pt.classification
        if pt.pole_order is not None:
            desc += f" of order {pt.pole_order}"
        if pt.essential and pt.classification == "pole":
            desc += " with essential part"
        print(f"  theta = {root.theta} ({root.kind}, mult {root.multiplicity}): {desc}")
    if rep.violations:
        print("  -> violation flagged: some root carries no singularity")
    print()
