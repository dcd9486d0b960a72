"""
When the spectrum is irrational
===============================

The matrix [[1, 2], [1, 1]] has eigenvalues 1 +/- sqrt(2), so the roots
of d(z) = 1 - 2z - z^2 are irrational and the pipeline switches to
certified multiprecision arithmetic.  The identities then hold to within
the working precision rather than exactly, and raising the precision
knob tightens the residuals.
"""

from mpmath import mp, nstr

from catzeta import IntMatrix, analyze_matrix, verify_matrix

a = IntMatrix([[1, 2], [1, 1]])

analysis = analyze_matrix(a)
print("path:", analysis.path)
for root in analysis.rootset.roots:
    print("  theta =", nstr(root.theta, 20))

for bits in (64, 128, 256):
    report = verify_matrix(a, order=20, precision_bits=bits)
    assert report.passed
    with mp.workprec(bits + 64):
        print(f"precision {bits:3d} bits: "
              f"series mismatch {nstr(report.c1['max_rel_err'], 3)}, "
              f"exponent-sum residual {nstr(abs(report.c2['residual']), 3)}")

# chi itself never floats: the degree-defect formula stays rational
print("chi =", report.chi)
