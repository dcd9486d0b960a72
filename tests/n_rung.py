"""Time exact verify as N grows: the N rung, a script and not a test.

For random posets (edge probability 0.1 above the diagonal of a linear
order, then transitive closure) at N = 100, 200 and 400, and for the
discrete category at N = 400 and 800, it prints the best of three
verify_matrix(order=30) times, the best of the same three times spent in
closed_form, the steps v <- A v that the chain sweeps took in one call,
and s = deg mu~, the pencil's path bound ("-" where a strongly connected
block is larger than 1 x 1).

A second table, the load rung, gives the best of three times of
category_from_dict, validate, adjacency and verify_matrix(order=30) on
the document category_to_dict writes for the discrete category at
N = 1000, 4000 and 10000 and for the category of a random poset (drawn as
in the N rung) at N = 50 and 100, and one run of each at N = 200, with
the table's composable pairs and the process's maxrss after each row;
then the best of three times of poset_category on the 40- and 60-point
chains.  adjacency counts the support from the morphisms and verify
reads only the support, so neither holds the N^2 dense ints.  validate
walks every composable triple, so on a poset it outgrows verify.

A third table, the K rung, gives for pell, rot90, jordan2 and block4 at
series order K = 30, 200 and 1000 the best of three times of
verify_matrix(order=K) and of the zeta --closed route (analyze_matrix,
then series_from_pair on the pencil's pair), and the first 12 hex digits
of the sha256 of that series' coefficients, so two trees can be seen to
give the same series.

A fourth table, the start-up rung, times fresh interpreters under
PYTHONDONTWRITEBYTECODE=1, so that every catzeta module they load is
compiled from source: `import catzeta`, building one poset category's
adjacency matrix, `import catzeta.cli`, and `python -m catzeta.cli
validate --json` and `verify --json` on fixtures/p2.json, beside a bare
interpreter.  Each row is
the median of 15 launches, the rows taken in turn, with the catzeta
modules the launch loads, read off one more launch under -X importtime.
The children import catzeta from the tree this script imported it from.

    PYTHONPATH=src python tests/n_rung.py

The start-up rung alone, against the catzeta on PYTHONPATH:

    cd tests && PYTHONPATH=../src python -c "import n_rung; n_rung.startup_rung()"

Each poset is seeded by its N, so a rerun on the same tree measures the
same inputs.
"""

from __future__ import annotations

import hashlib
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import catzeta.category
import catzeta.zeta
from catzeta import (IntMatrix, adjacency, category_from_dict, category_to_dict, discrete,
                     poset_category, validate, verify_matrix)
from catzeta.category import chain_vectors
from catzeta.charpoly import block_traces
from catzeta.zeta import analyze_matrix, series_from_pair
from conftest import load_fixture_matrix

ORDER = 30
REPEATS = 3
P = 0.1
LAUNCHES = 15
P2 = str(Path(__file__).resolve().parent.parent / "fixtures" / "p2.json")
LAUNCH_ROWS = (
    ("bare interpreter", ("-c", "pass")),
    ("import catzeta", ("-c", "import catzeta")),
    ("one poset category", ("-c", "from catzeta import adjacency, poset_category; "
                                  "adjacency(poset_category([[1, 1], [0, 1]]))")),
    ("import catzeta.cli", ("-c", "import catzeta.cli")),
    ("validate p2", ("-m", "catzeta.cli", "validate", "--json", P2)),
    ("verify p2", ("-m", "catzeta.cli", "verify", "--json", P2)),
)


def random_poset(n: int, p: float, seed: int) -> IntMatrix:
    """A random poset's relation matrix: each i < j related with
    probability p, drawn row by row, then closed transitively as bit sets
    from the last row up (every edge goes up the order)."""
    rng = random.Random(seed)
    edges = [[j for j in range(i + 1, n) if rng.random() < p] for i in range(n)]
    reach = [0] * n
    for i in reversed(range(n)):
        bits = 1 << i
        for j in edges[i]:
            bits |= reach[j]
        reach[i] = bits
    return IntMatrix([[(reach[i] >> j) & 1 for j in range(n)] for i in range(n)])


def sweep_steps(a: IntMatrix) -> int:
    """The steps v <- A v that one verify_matrix call takes, over every
    sweep it starts."""
    steps = []

    def counted(m):
        steps.append(-1)
        for v in chain_vectors(m):
            steps[-1] += 1
            yield v

    saved = [(module, module.chain_vectors) for module in (catzeta.category, catzeta.zeta)]
    for module, _ in saved:
        module.chain_vectors = counted
    try:
        verify_matrix(a, order=ORDER)
    finally:
        for module, real in saved:
            module.chain_vectors = real
    return sum(steps)


def best_times(a: IntMatrix) -> tuple[float, float]:
    """The best of three verify_matrix times, and the best of the three
    times its closed_form call took."""
    real, staged = catzeta.zeta.closed_form, []

    def timed(*args):
        start = perf_counter()
        try:
            return real(*args)
        finally:
            staged.append(perf_counter() - start)

    times = []
    catzeta.zeta.closed_form = timed
    try:
        for _ in range(REPEATS):
            start = perf_counter()
            report = verify_matrix(a, order=ORDER)
            times.append(perf_counter() - start)
            assert report.passed and report.path == "exact"
    finally:
        catzeta.zeta.closed_form = real
    return min(times), min(staged)


def best_of(fn, arg, repeats: int = REPEATS) -> float:
    """The best of repeats times of fn(arg); each result is dropped at once."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn(arg)
        times.append(perf_counter() - start)
    return min(times)


def load_rung() -> None:
    print(f"\n{'input':<14} {'N':>5} {'pairs':>7} {'from_dict (s)':>14} {'validate (s)':>13} "
          f"{'adjacency (s)':>14} {'verify (s)':>11} {'maxrss (MB)':>12}")
    rows = [("discrete", n, discrete(n), REPEATS) for n in (1000, 4000, 10000)]
    rows += [(f"poset p={P}", n, poset_category(random_poset(n, P, n).rows),
              REPEATS if n < 200 else 1) for n in (50, 100, 200)]
    for name, n, built, repeats in rows:
        doc = category_to_dict(built)
        c = category_from_dict(doc)
        times = [best_of(fn, arg, repeats) for fn, arg in
                 ((category_from_dict, doc), (validate, c), (adjacency, c),
                  (lambda a: verify_matrix(a, order=ORDER), adjacency(c)))]
        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{name:<14} {n:>5} {len(c.compose):>7} {times[0]:>14.3f} {times[1]:>13.3f} "
              f"{times[2]:>14.3f} {times[3]:>11.3f} {maxrss:>12.0f}", flush=True)
    print(f"\n{'input':<14} {'N':>5} {'poset_category (s)':>19}")
    for n in (40, 60):
        chain = [[int(i <= j) for j in range(n)] for i in range(n)]
        print(f"{'chain':<14} {n:>5} {best_of(poset_category, chain):>19.3f}", flush=True)


def closed_series(a: IntMatrix, order: int):
    """zeta through z**order as zeta --closed computes it: the analysis,
    then the series from the pencil's pair."""
    analysis = analyze_matrix(a)
    return series_from_pair(*(half.coeffs for half in analysis.bundle.pair), order)


def k_rung() -> None:
    print(f"\n{'input':<14} {'K':>5} {'verify (s)':>11} {'zeta --closed (s)':>18} "
          f"{'series sha256':>14}")
    for name in ("pell", "rot90", "jordan2", "block4"):
        a = load_fixture_matrix(name)
        for order in (30, 200, 1000):
            text = ",".join(map(str, closed_series(a, order).coeffs))
            digest = hashlib.sha256(text.encode()).hexdigest()[:12]
            verify = best_of(lambda m: verify_matrix(m, order=order), a)
            closed = best_of(lambda m: closed_series(m, order), a)
            print(f"{name:<14} {order:>5} {verify:>11.4f} {closed:>18.4f} {digest:>14}",
                  flush=True)


def startup_rung() -> None:
    src = str(Path(catzeta.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=src + (os.pathsep + path if path else ""))

    def launch(args, *flags) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *flags, *args], env=env, check=True,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)

    times = {name: [] for name, _ in LAUNCH_ROWS}
    for _ in range(LAUNCHES):
        for name, args in LAUNCH_ROWS:
            start = perf_counter()
            launch(args)
            times[name].append(perf_counter() - start)
    print(f"\n{'launch':<20} {'median of ' + str(LAUNCHES) + ' (s)':>19}  catzeta modules")
    for name, args in LAUNCH_ROWS:
        imported = [line.rsplit("|", 1)[1].strip()
                    for line in launch(args, "-X", "importtime").stderr.splitlines()
                    if line.startswith("import time:")]
        loaded = [m for m in imported if m.split(".")[0] == "catzeta"]
        print(f"{name:<20} {statistics.median(times[name]):>19.4f}  {', '.join(loaded) or '-'}",
              flush=True)


def main() -> None:
    rungs = [(f"poset p={P}", n, random_poset(n, P, n)) for n in (100, 200, 400)]
    rungs += [("discrete", n, adjacency(discrete(n))) for n in (400, 800)]
    print(f"{'input':<14} {'N':>5} {'best of 3 (s)':>14} {'closed_form (s)':>16} "
          f"{'sweep steps':>12} {'s':>5}")
    for name, n, a in rungs:
        bound = block_traces(a)[1]
        s = "-" if bound is None else str(sum(bound.values()))
        total, stage = best_times(a)
        print(f"{name:<14} {n:>5} {total:>14.3f} {stage:>16.4f} {sweep_steps(a):>12} {s:>5}",
              flush=True)
    load_rung()
    k_rung()
    startup_rung()


if __name__ == "__main__":
    main()
