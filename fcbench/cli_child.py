"""One traced `fieldcycle` command in a fresh process (cold_cli workload).

Usage: python3 fcbench/cli_child.py <spans.json> <fieldcycle arguments...>

Times the import of the CLI module as a `cli.import` span, wraps the layer
functions, runs the command, writes the spans as JSON and exits with the
command's exit code.  The package must be importable (PYTHONPATH=src).
"""

import json
import sys
import time

from spans import Tracer

start = time.perf_counter()
import fieldcycle.cli  # noqa: E402

tracer = Tracer()
tracer.record("cli.import", start, time.perf_counter())
tracer.install()
try:
    code = fieldcycle.cli.main(sys.argv[2:])
finally:
    tracer.uninstall()
    with open(sys.argv[1], "w") as fh:
        json.dump(tracer.spans, fh)
sys.exit(code)
