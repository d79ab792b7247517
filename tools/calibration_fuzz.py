"""Outcome and time of field-map calibration on 801 anchor sets.

Usage: python3 tools/calibration_fuzz.py <src-dir>

Imports ``fieldcycle`` from <src-dir> (the directory that holds the
package) and calls ``fieldmap.calibrate`` in the default ``auto`` mode on
the reference anchors, then on 800 random sets drawn from
``numpy.random.default_rng(7)``.  Every random set has the 7 T center
anchor plus 1-4 anchors with fields log-uniform in 4 mT-3 T, strictly
decreasing along z, each a positioned field value, an unpositioned field
value or a gradient, with a tolerance of 0.01, 0.05 or 0.2.

Prints one line per set to stdout, ``<index> <model> <params repr>`` or
``<index> error <exception class>``, and two ``median_ms`` lines to stderr:
the median calibration time over the 801 sets and over 21 calls on the
reference anchors (after one warm-up call).  Run it on two source trees and
diff the outputs: the diff is empty exactly when every outcome is
bit-identical, and otherwise shows which outcomes a change moves.

    python3 tools/calibration_fuzz.py old/src > old.txt
    python3 tools/calibration_fuzz.py src > new.txt
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

N_RANDOM = 800
TOLERANCES = (0.01, 0.05, 0.2)


def anchor_sets(fm, n_random=N_RANDOM):
    """The reference anchors, then ``n_random`` seeded random sets."""
    rng = np.random.default_rng(7)
    sets = [fm.reference_anchors()]
    for _ in range(n_random):
        n = int(rng.integers(1, 5))
        fields = np.sort(np.exp(rng.uniform(math.log(4e-3), math.log(3.0), n)))
        positions = np.sort(rng.uniform(0.02, 1.6, n))
        kinds = rng.integers(0, 3, n)
        decay = np.exp(rng.uniform(math.log(0.02), math.log(0.6), n))  # m
        tols = rng.choice(TOLERANCES, n)
        anchors = [fm.FieldAnchor("field_value", 7.0, position_m=0.0,
                                  tolerance_rel=1e-6)]
        # the highest field sits nearest the center
        for b, z, kind, lam, tol in zip(fields[::-1], positions, kinds, decay,
                                        tols):
            b, tol = float(b), float(tol)
            if kind == 0:
                anchors.append(fm.FieldAnchor("field_value", b, position_m=float(z),
                                              tolerance_rel=tol))
            elif kind == 1:
                anchors.append(fm.FieldAnchor("field_value", b, tolerance_rel=tol))
            else:
                anchors.append(fm.FieldAnchor("gradient_at_field", b,
                                              gradient_T_per_m=-b / float(lam),
                                              tolerance_rel=tol))
        sets.append(anchors)
    return sets


def main(argv) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "fieldcycle").is_dir():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(argv[0]).resolve()))
    from fieldcycle import fieldmap as fm

    fm.calibrate(fm.reference_anchors())  # warm-up: lazy imports, caches
    times = []
    for i, anchors in enumerate(anchor_sets(fm)):
        start = time.perf_counter()
        try:
            fmap = fm.calibrate(anchors)
            line = f"{fmap.model} {dict(fmap.params)!r}"
        except Exception as exc:  # the outcome is the error class
            line = f"error {type(exc).__name__}"
        times.append(time.perf_counter() - start)
        print(f"{i} {line}")
    reference = []
    for _ in range(21):
        start = time.perf_counter()
        fm.calibrate(fm.reference_anchors())
        reference.append(time.perf_counter() - start)
    print(f"median_ms fuzz {statistics.median(times) * 1e3:.2f}", file=sys.stderr)
    print(f"median_ms reference {statistics.median(reference) * 1e3:.2f}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
