"""Set-up probe: import catzeta, build one workload's inputs, say "ready".

    python3 bench/probe.py WORKLOAD SEED

run.py times this from launch to the "ready" line to get setup_s.
"""

import sys

from benchpath import require_catzeta

require_catzeta()

import workloads  # noqa: E402  (imports catzeta)

workloads.build(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
