"""
Verifying the four identities on random posets
==============================================

Generates a reproducible batch of random posets, runs the full
verification (series agreement, exponent sum, eigenvalue check,
alternating sum) on each, and prints a summary.  Every poset takes the
exact rational path, so each check is an equality, not an approximation.
"""

import random

from catzeta import adjacency, poset_category, verify_matrix

rng = random.Random(7)
COUNT = 40


def random_relation(n):
    rel = [[i == j for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                rel[i][j] = True
    for k in range(n):
        for i in range(n):
            if rel[i][k]:
                for j in range(n):
                    if rel[k][j]:
                        rel[i][j] = True
    return [[int(x) for x in row] for row in rel]


checked = 0
chis = {}
for i in range(COUNT):
    c = poset_category(random_relation(rng.randint(2, 6)), name=f"poset{i}")
    report = verify_matrix(adjacency(c), order=25)
    assert report.passed and report.path == "exact", c.name
    assert report.c1["max_rel_err"] == 0
    checked += 1
    chis[report.chi] = chis.get(report.chi, 0) + 1

print(f"{checked} posets verified exactly through order 25")
print("Euler characteristics seen:")
for chi in sorted(chis):
    print(f"  chi = {chi}: {chis[chi]} posets")
