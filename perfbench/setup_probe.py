"""Set-up probe: a fresh interpreter imports jfrac and builds one
workload's inputs, then says so on stdout.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402  (imports jfrac)

workloads.build(sys.argv[1], int(sys.argv[2]), ROOT, dict(os.environ))
print("ready", flush=True)
