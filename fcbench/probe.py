"""Fresh-process set-up probe.

Usage: python3 fcbench/probe.py <workload> <scratch dir>

Imports the CLI module, builds the reference field map and runs the
workload's warm-up operations, then prints the timings and module counts as
one JSON line.  The package must be importable (PYTHONPATH=src).
"""

import sys
import time

start = time.perf_counter()
import fieldcycle.cli  # noqa: E402,F401

imported = time.perf_counter()
modules = len(sys.modules)
scipy_optimize = int("scipy.optimize" in sys.modules)

from fieldcycle import fieldmap  # noqa: E402

fieldmap.reference_map()
mapped = time.perf_counter()

import json  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

for i, op in enumerate(workloads.warmup_ops()[sys.argv[1]]):
    workloads.execute(op, Path(sys.argv[2]) / f"warm{i}")
done = time.perf_counter()

print(json.dumps({"import_s": imported - start, "map_s": mapped - imported,
                  "warmup_s": done - mapped, "modules": modules,
                  "scipy_optimize": scipy_optimize}))
