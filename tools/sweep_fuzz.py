"""Outcome and time of ``spin.propagate_sweep`` on 59 random sweeps.

Usage: python3 tools/sweep_fuzz.py <src-dir>

Imports ``fieldcycle`` from <src-dir> (the directory that holds the
package) and integrates one upward chirp on each of 59 NV-13C systems drawn
from ``numpy.random.default_rng(20261018)``: hyperfine coupling uniform in
0.2-2 MHz, N-to-V angle uniform in 0.05-1.52 rad, sweep rate log-uniform
in 3e8-1e11 Hz/s and Rabi frequency log-uniform in 3-300 kHz, all at a
10 mT polarizing field.

Prints one line per sweep to stdout, ``<index> <polarization repr>
<n_steps> <error estimate repr>`` or ``<index> error <exception class>``,
and the total and median sweep time to stderr.  Run it on two source trees
and diff the outputs: the diff is empty exactly when every outcome is
bit-identical, and otherwise shows which sweeps a change moves.

    python3 tools/sweep_fuzz.py old/src > old.txt
    python3 tools/sweep_fuzz.py src > new.txt
    diff old.txt new.txt

It uses the standard library and numpy.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

N_SWEEPS = 59
B_POL_T = 0.010


def sweep_cases(spin, n=N_SWEEPS):
    """``n`` seeded (SpinSystem, SweepParams) pairs."""
    rng = np.random.default_rng(20261018)
    hyperfine = rng.uniform(0.2e6, 2e6, n)
    theta = rng.uniform(0.05, 1.52, n)
    rate = np.exp(rng.uniform(math.log(3e8), math.log(1e11), n))
    rabi = np.exp(rng.uniform(math.log(3e3), math.log(300e3), n))
    return [(spin.SpinSystem(float(a), float(t), B_POL_T),
             spin.SweepParams(float(r), float(w)))
            for a, t, r, w in zip(hyperfine, theta, rate, rabi)]


def main(argv) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "fieldcycle").is_dir():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(argv[0]).resolve()))
    from fieldcycle import spin

    times = []
    for i, (system, sweep) in enumerate(sweep_cases(spin)):
        start = time.perf_counter()
        try:
            res = spin.propagate_sweep(system, sweep, details=True)
            line = f"{res.polarization!r} {res.n_steps} {res.error_estimate!r}"
        except Exception as exc:  # the outcome is the error class
            line = f"error {type(exc).__name__}"
        times.append(time.perf_counter() - start)
        print(f"{i} {line}")
    print(f"total_s {sum(times):.2f}", file=sys.stderr)
    print(f"median_ms {statistics.median(times) * 1e3:.2f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
