#!/usr/bin/env python3
"""Record the CLI outputs of the shipped configs that the classify workload checks.

Run from the root of a checkout:

    python3 perfbench/record_reference.py

It writes ``perfbench/reference/<config>.<command>.json`` for the
``classify`` and ``ppt2`` commands, with BLAS pinned to one thread as in
the benchmark.  Re-record only when a change to the CLI output is intended
and explained.
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from ebdyn import cli  # noqa: E402
from workloads import REFERENCE_DIR, SHIPPED_CONFIGS, shipped_config_path  # noqa: E402


def main():
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for name in SHIPPED_CONFIGS:
        for cmd in ("classify", "ppt2"):
            out = os.path.join(REFERENCE_DIR, f"{name}.{cmd}.json")
            code = cli.main([cmd, "--config", shipped_config_path(ROOT, name), "--out", out])
            if code != 0:
                print(f"{name} {cmd}: exit code {code}", file=sys.stderr)
                return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
