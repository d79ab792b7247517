"""Regenerate dnp_reference.json, the powder-average reference values the
powder_dnp workload checks its results against.

Run from the repository root:  python3 fcbench/make_dnp_reference.py

Each grid point is computed once per regime with the package's own
powder_average.  The file records the values the package produced when the
benchmark was defined; a later integrator must reproduce them to the
relative tolerance in workloads.DNP_REL_TOL.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from fieldcycle import spin as sp  # noqa: E402

from workloads import DNP_GRID, DNP_REGIMES  # noqa: E402


def main():
    entries = []
    for hyperfine, b_pol in DNP_GRID:
        for regime, (nodes, rate, rabi) in DNP_REGIMES.items():
            res = sp.powder_average(
                sp.SpinSystem(hyperfine, 0.0, b_pol),
                sp.SweepParams(sweep_rate_Hz_per_s=rate, mw_rabi_Hz=rabi),
                sp.PowderEnsemble.gauss_legendre(nodes))
            entries.append({"hyperfine_Hz": hyperfine, "B_pol_T": b_pol,
                            "regime": regime,
                            "mean_polarization": res.mean_polarization,
                            "signs_uniform": res.signs_uniform()})
            print(entries[-1], flush=True)
    text = json.dumps(entries, indent=1) + "\n"
    (HERE / "dnp_reference.json").write_text(text)


if __name__ == "__main__":
    main()
