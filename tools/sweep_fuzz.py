"""Outcome and time of ``spin.propagate_sweep`` on 59 random sweeps, then
on 24 random multi-sweep runs.

Usage: python3 tools/sweep_fuzz.py <src-dir>

Imports ``fieldcycle`` from <src-dir> (the directory that holds the
package) and integrates one upward chirp on each of 59 NV-13C systems drawn
from ``numpy.random.default_rng(20261018)``: hyperfine coupling uniform in
0.2-2 MHz, N-to-V angle uniform in 0.05-1.52 rad, sweep rate log-uniform
in 3e8-1e11 Hz/s and Rabi frequency log-uniform in 3-300 kHz, all at a
10 mT polarizing field.  The multi-sweep block draws 24 more systems and
sweeps from the same ranges with ``numpy.random.default_rng(20261019)``,
each repeated ``n_sweeps`` times, drawn from {2, 3, 8, 100}.

Prints one line per sweep to stdout, ``<index> <polarization repr>
<n_steps> <error estimate repr>`` or ``<index> error <exception class>``;
a multi-sweep line reads ``m<index> n_sweeps=<n> <polarization repr>
<n_steps> <error estimate repr> <norm drift repr>``.  The total and median
sweep time of the 59 go to stderr.  Run it on two source trees
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
N_MULTI = 24
MULTI_COUNTS = (2, 3, 8, 100)
B_POL_T = 0.010


def sweep_cases(spin, n=N_SWEEPS, seed=20261018, counts=(1,)):
    """``n`` seeded (SpinSystem, SweepParams) pairs; ``n_sweeps`` is drawn
    from ``counts`` after the other values."""
    rng = np.random.default_rng(seed)
    hyperfine = rng.uniform(0.2e6, 2e6, n)
    theta = rng.uniform(0.05, 1.52, n)
    rate = np.exp(rng.uniform(math.log(3e8), math.log(1e11), n))
    rabi = np.exp(rng.uniform(math.log(3e3), math.log(300e3), n))
    repeats = rng.choice(counts, n)
    return [(spin.SpinSystem(float(a), float(t), B_POL_T),
             spin.SweepParams(float(r), float(w), int(k)))
            for a, t, r, w, k in zip(hyperfine, theta, rate, rabi, repeats)]


def _outcome(spin, system, sweep, drift=False):
    """The line of one sweep: its result or its error class."""
    try:
        res = spin.propagate_sweep(system, sweep, details=True)
    except Exception as exc:  # the outcome is the error class
        return f"error {type(exc).__name__}"
    line = f"{res.polarization!r} {res.n_steps} {res.error_estimate!r}"
    return f"{line} {res.norm_drift!r}" if drift else line


def main(argv) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "fieldcycle").is_dir():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(argv[0]).resolve()))
    from fieldcycle import spin

    times = []
    for i, (system, sweep) in enumerate(sweep_cases(spin)):
        start = time.perf_counter()
        line = _outcome(spin, system, sweep)
        times.append(time.perf_counter() - start)
        print(f"{i} {line}")
    for i, (system, sweep) in enumerate(sweep_cases(
            spin, N_MULTI, 20261019, MULTI_COUNTS)):
        print(f"m{i} n_sweeps={sweep.n_sweeps} "
              f"{_outcome(spin, system, sweep, drift=True)}")
    print(f"total_s {sum(times):.2f}", file=sys.stderr)
    print(f"median_ms {statistics.median(times) * 1e3:.2f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
