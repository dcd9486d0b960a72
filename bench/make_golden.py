"""Write bench/golden.json: fingerprints of the exact results that every
benchmark run must reproduce.

    python3 bench/make_golden.py

- corpus: per matrix, the sha256 of d, k, m, the zeta coefficients
  through K = 30, chi, path and verify flags (run.item_content);
- cli: per fixture and order, the sha256 of `catzeta.cli verify --json`
  stdout.

Every entry is first checked against the modular oracle (corpus) or for
exit code 0 and "passed": true (cli); the script refuses to write a
golden file from results that fail those checks.
"""

from __future__ import annotations

import json
import sys

import run
from oracle import check_content, fingerprint
from workloads import ORDER, PRECISION, cli_items, corpus_items

GOLDEN_Z = 1234567


def main() -> int:
    corpus = {}
    for item in corpus_items():
        report = run.zeta.verify_matrix(item.matrix, order=ORDER, precision_bits=PRECISION)
        content = run.item_content(item.matrix, report)
        problems = check_content([list(r) for r in item.matrix.rows], content, GOLDEN_Z)
        if problems:
            print(f"{item.label}: {problems}", file=sys.stderr)
            return 1
        corpus[item.label] = fingerprint(content)
    cli = {}
    for item in cli_items():
        code, stdout = run.cli_subprocess_call(item)
        if code != 0 or json.loads(stdout)["passed"] is not True:
            print(f"{item.label}: exit {code}", file=sys.stderr)
            return 1
        cli[item.label] = run.sha256(stdout)
    with open(run.HERE / "golden.json", "w") as fh:
        json.dump({"corpus": corpus, "cli": cli}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
