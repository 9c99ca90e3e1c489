"""Traced ``jfrac`` process: installs the benchmark's span wrappers, then
calls ``jfrac.cli.main``; spans and totals go to the file named first.

    python3 perfbench/cli_launcher.py <spans.json> <jfrac arguments...>
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import tracing  # noqa: E402

if __name__ == "__main__":
    sys.exit(tracing.launch_cli(sys.argv[1], sys.argv[2:]))
