"""Seeded workload inputs and result checks for the fieldcycle benchmark.

A workload is an endless sequence of cycles.  Every cycle of a workload
holds the same multiset of operation shapes (kind, sizes, field-map source);
the seed draws the parameter values and the order.  That keeps the cost mix,
and so the medians, the same from seed to seed while no two operations in a
run repeat their inputs.

The checks read only the files an operation wrote; they call no function the
trace wraps, so they add no spans.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("cold_cli", "powder_dnp", "t1_sequence")

# powder_dnp grid: hyperfine couplings and polarizing fields the seed draws
# from.  Kept narrow (cost scales with the coupling) so that the cost of a
# run does not depend on which points the seed picks.
DNP_GRID = tuple((a, b) for a in (0.98e6, 0.99e6, 1.00e6, 1.01e6, 1.02e6)
                 for b in (0.0095, 0.010, 0.0105))
# regime -> (nodes, sweep rate Hz/s, microwave Rabi Hz)
DNP_REGIMES = {
    "default16": (16, 6.0e9, 60e3),
    "default32": (32, 6.0e9, 60e3),
    "slow16": (16, 2.0e9, 15e3),
}
DNP_REL_TOL = 1e-6        # against dnp_reference.json
DNP_NODE_AGREEMENT = 0.01  # 16 vs 32 nodes (acceptance criterion 07)
T1_REL_TOL_NOISELESS = 1e-3  # acceptance criterion 08
T1_REL_TOL_NOISY = 0.05      # acceptance criterion 08
ESLAC_T, GSLAC_T = 0.051, 0.102
ESLAC_RESOLUTION_T = 0.114e-4  # 0.114 G at 50 um
ESLAC_RATE_T_PER_S = 0.456
HEADLINE_REL_TOL = 0.02        # acceptance criterion 01
SHUTTLE_DISTANCE_M = 1.1627
HEADLINE_MOVE_S = 0.648
HEADLINE_MOVE_ATOL_S = 0.5e-3  # acceptance criterion 02
SIM_RUNS = 1400
SHUTTLE_RUNS = 1400
SEQUENCE_EVENTS = 7  # program, pump, sweep, trigger, shuttle, done, acquire


class CheckFailed(Exception):
    """An operation's output misses its correctness check."""


@dataclass
class Op:
    """One closed-loop operation: a spec document plus any input files."""

    kind: str                 # spec kind, or "simulate_sequence"
    doc: dict
    files: dict = field(default_factory=dict)  # name -> text, beside the spec
    runs: int = 0             # simulate_sequence realizations
    regime: str = ""          # dnp regime key


# ---------------------------------------------------------------------------
# generators

def _seed(rng):
    return int(rng.integers(0, 2**31 - 1))


def _anchors_csv(rng):
    """Reference anchors with seeded perturbations inside their tolerances."""
    rows = [
        ("field_value", "0.0", "7.0", "", "1e-06"),
        ("gradient_at_field", "", repr(ESLAC_T),
         repr(-0.228 * (1 + rng.uniform(-0.004, 0.004))), "0.01"),
        ("gradient_at_field", "", repr(GSLAC_T),
         repr(-0.606 * (1 + rng.uniform(-0.004, 0.004))), "0.01"),
        ("field_value", "", "0.03", "", "0.2"),
        ("field_value", repr(SHUTTLE_DISTANCE_M + rng.uniform(-0.005, 0.005)),
         "0.008", "", "0.1"),
    ]
    lines = ["kind,position_m,field_T,gradient_T_per_m,tolerance_rel"]
    lines += [",".join(r) for r in rows]
    return "\n".join(lines) + "\n"


def _with_map(doc, source, rng, map_json):
    """Attach a field-map block: the built-in reference, a map file, or an
    anchor file the program calibrates on every operation."""
    files = {}
    if source == "file":
        doc["fieldmap"] = {"file": "map.json"}
        files["map.json"] = map_json
    elif source == "anchors":
        doc["fieldmap"] = {"anchors_file": "anchors.csv"}
        files["anchors.csv"] = _anchors_csv(rng)
    return doc, files


def lac_op(rng):
    other = float(np.exp(rng.uniform(math.log(0.02), math.log(1.0))))
    return Op("lac_plan", {"schema_version": 1, "kind": "lac_plan",
                           "seed": _seed(rng),
                           "lac": {"targets_T": [ESLAC_T, GSLAC_T, other]}})


def _sequence_block(rng):
    return {"t_pol_s": float(rng.uniform(2.0, 60.0)),
            "acquire_duration_s": float(rng.uniform(0.5, 2.0)),
            "trigger_pulse_s": float(rng.uniform(0.005, 0.02)),
            "jitter_sigma_s": float(rng.uniform(1.5e-3, 3.5e-3))}


def sequence_op(rng, source="reference", map_json="", runs=0):
    doc = {"schema_version": 1, "kind": "sequence_validation",
           "seed": _seed(rng), "sequence": _sequence_block(rng)}
    doc, files = _with_map(doc, source, rng, map_json)
    return Op("simulate_sequence" if runs else "sequence_validation", doc,
              files, runs=runs)


def shuttle_op(rng, n_velocities):
    others = sorted(float(v) for v in rng.uniform(0.3, 1.9, n_velocities - 1))
    return Op("shuttle_characterization", {
        "schema_version": 1, "kind": "shuttle_characterization",
        "seed": _seed(rng),
        "shuttle": {"runs": SHUTTLE_RUNS, "velocities": others + [2.0],
                    "jitter_sigma_s": float(rng.uniform(1.5e-3, 3.5e-3))}})


def t1_op(rng, n_fields, n_waits, noisy, source="reference", map_json=""):
    # one field per log-spaced stratum: distinct and spread over 10 mT..6.5 T
    edges = np.linspace(math.log(0.01), math.log(6.5), n_fields + 1)
    fields = [float(f"{math.exp(rng.uniform(lo, hi)):.5g}")
              for lo, hi in zip(edges[:-1], edges[1:])]
    blk = {"fields_T": fields, "n_waits": n_waits,
           "wait_span": [float(rng.uniform(0.15, 0.3)),
                         float(rng.uniform(1.5, 2.5))],
           "noise_sigma": float(rng.uniform(1e-3, 3e-3)) if noisy else 0.0}
    doc = {"schema_version": 1, "kind": "t1_field_map", "seed": _seed(rng),
           "t1": blk}
    doc, files = _with_map(doc, source, rng, map_json)
    return Op("t1_field_map", doc, files)


def dnp_op(regime, hyperfine, b_pol, rng):
    nodes, rate, rabi = DNP_REGIMES[regime]
    return Op("dnp_sweep", {
        "schema_version": 1, "kind": "dnp_sweep", "seed": _seed(rng),
        "dnp": {"hyperfine_Hz": hyperfine, "B_pol_T": b_pol, "nodes": nodes,
                "sweep_rate_Hz_per_s": rate, "mw_rabi_Hz": rabi}},
        regime=regime)


def _cold_cli_cycle(rng):
    # fixed order: one fresh process per kind
    return [lac_op(rng), sequence_op(rng), shuttle_op(rng, 4),
            t1_op(rng, 5, 16, noisy=True)]


def _t1_sequence_cycle(rng, map_json):
    # 13 cheap ops (1-7 ms) set the median, 7 heavy ops (20-60 ms) the tail
    ops = [lac_op(rng) for _ in range(7)]
    ops += [sequence_op(rng) for _ in range(3)]
    ops += [sequence_op(rng, "file", map_json),
            sequence_op(rng, "anchors", map_json),
            shuttle_op(rng, 2), shuttle_op(rng, 4),
            t1_op(rng, 5, 16, noisy=True),
            t1_op(rng, 6, 16, noisy=True, source="anchors"),
            t1_op(rng, 8, 32, noisy=True),
            t1_op(rng, 7, 16, noisy=False, source="file", map_json=map_json),
            sequence_op(rng, runs=SIM_RUNS),
            sequence_op(rng, "file", map_json, runs=SIM_RUNS)]
    return [ops[i] for i in rng.permutation(len(ops))]


def cycles(workload, seed, map_json=""):
    """Endless cycles of operations for ``workload``, drawn from ``seed``.

    ``map_json`` is the text of the map file that "file" field-map blocks
    point at.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    decks = {}  # powder_dnp: grid points left per regime, no repeats
    while True:
        if workload == "cold_cli":
            yield _cold_cli_cycle(rng)
        elif workload == "t1_sequence":
            yield _t1_sequence_cycle(rng, map_json)
        else:
            cycle = []
            for regime in DNP_REGIMES:
                if not decks.get(regime):
                    decks[regime] = [DNP_GRID[i]
                                     for i in rng.permutation(len(DNP_GRID))]
                cycle.append(dnp_op(regime, *decks[regime].pop(), rng))
            yield cycle


def warmup_ops():
    """Small fixed operations run before timing starts (seed independent)."""
    rng = np.random.default_rng(0)
    t1 = t1_op(rng, 2, 8, noisy=False)
    shuttle = shuttle_op(rng, 2)
    shuttle.doc["shuttle"]["runs"] = 10
    sim = sequence_op(rng, runs=10)
    # a fast 8-node sweep: no reference entry (regime ""), so it is checked
    # for sign uniformity and table consistency only
    dnp = dnp_op("default16", 1.0e6, 0.010, rng)
    dnp.doc["dnp"].update(nodes=8, sweep_rate_Hz_per_s=3.0e10)
    dnp.regime = ""
    return {"cold_cli": [],
            "t1_sequence": [lac_op(rng), sequence_op(rng), shuttle, t1, sim],
            "powder_dnp": [dnp]}


# ---------------------------------------------------------------------------
# checks

def _fail(cond, message):
    if not cond:
        raise CheckFailed(message)


def _rel(a, b):
    return abs(a - b) / abs(b)


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def load_dnp_reference(path):
    table = {}
    for e in json.loads(Path(path).read_text()):
        table[(e["hyperfine_Hz"], e["B_pol_T"], e["regime"])] = \
            e["mean_polarization"]
    return table


def check(op, out, dnp_reference=None):
    """Raise CheckFailed unless ``out`` holds correct results for ``op``.

    Returns diagnostics: files and bytes written (run record excluded, its
    timestamps vary), worst relative T1 and polarization errors, and fit
    failures.
    """
    out = Path(out)
    record = out / "runrecord.json"
    _fail(record.is_file(), "no runrecord.json")
    status = json.loads(record.read_text())["status"]
    _fail(status == "ok", f"run status {status!r}")
    diag = {"t1_rel_err": 0.0, "pol_err": 0.0, "fit_failures": 0}
    _CHECKS[op.kind](op, out, diag, dnp_reference)
    results = [p for p in out.iterdir() if p.name != "runrecord.json"]
    diag["files"] = len(results)
    diag["bytes"] = sum(p.stat().st_size for p in results)
    return diag


def _check_lac_plan(op, out, diag, ref):
    rows = _rows(out / "lac_plan.csv")
    targets = op.doc["lac"]["targets_T"]
    _fail([float(r["target_T"]) for r in rows] == targets, "targets differ")
    for r in rows:
        g = abs(float(r["gradient_T_per_m"]))
        _fail(_rel(float(r["resolution_T"]), g * 50e-6) < 1e-12,
              "resolution is not |gradient| x precision")
        _fail(_rel(float(r["max_sweep_rate_T_per_s"]), g * 2.0) < 1e-12,
              "sweep rate is not |gradient| x v_max")
    eslac = rows[0]
    _fail(_rel(float(eslac["resolution_T"]), ESLAC_RESOLUTION_T)
          <= HEADLINE_REL_TOL, "ESLAC resolution off the 0.114 G headline")
    _fail(_rel(float(eslac["max_sweep_rate_T_per_s"]), ESLAC_RATE_T_PER_S)
          <= HEADLINE_REL_TOL, "ESLAC sweep rate off the 0.456 T/s headline")


def _closed_form_duration(d, v, a=30.0):
    return d / v + v / a if d >= v * v / a else 2.0 * math.sqrt(d / a)


def _check_shuttle_characterization(op, out, diag, ref):
    from fieldcycle.orchestrator import derive_seed

    blk = op.doc["shuttle"]
    rows = _rows(out / "shuttle_durations.csv")
    vs = blk["velocities"]
    _fail(len(rows) == len(vs), "one row per velocity expected")
    runs, sigma = blk["runs"], blk["jitter_sigma_s"]
    draws = np.random.default_rng(derive_seed(op.doc["seed"], "motion")) \
        .normal(0.0, sigma, size=runs * len(vs))
    for i, (v, r) in enumerate(zip(vs, rows)):
        nominal = float(r["duration_s"])
        _fail(_rel(nominal, _closed_form_duration(SHUTTLE_DISTANCE_M, v))
              < 1e-12, f"duration at v={v} off the closed form")
        realized = nominal + draws[i * runs:(i + 1) * runs]
        _fail(_rel(float(r["mean_realized_s"]), float(np.mean(realized)))
              < 1e-12, "jitter mean differs from the seeded draws")
        _fail(_rel(float(r["std_realized_s"]), float(np.std(realized, ddof=1)))
              < 1e-9, "jitter spread differs from the seeded draws")
    _fail(abs(float(rows[-1]["duration_s"]) - HEADLINE_MOVE_S)
          <= HEADLINE_MOVE_ATOL_S, "full-speed move off the 648 ms headline")


def _check_sequence_validation(op, out, diag, ref):
    _fail(_rows(out / "validation_report.csv") == [], "timeline violations")
    rec = json.loads((out / "runrecord.json").read_text())
    _fail(rec["violations"] == 0, "run record counts violations")


def _check_simulate_sequence(op, out, diag, ref):
    from fieldcycle.orchestrator import derive_seed

    rows = _rows(out / "event_log.csv")
    _fail(len(rows) == op.runs * SEQUENCE_EVENTS, f"{len(rows)} event rows")
    sigma = op.doc["sequence"]["jitter_sigma_s"]
    draws = np.random.default_rng(derive_seed(op.doc["seed"], "sequencer")) \
        .normal(0.0, sigma, size=op.runs)
    by_event = {}
    for r in rows:
        by_event.setdefault(r["event"], []).append(r)
    shuttle = np.array([float(r["duration_s"]) for r in by_event["shuttle"]])
    _fail([int(r["run_id"]) for r in by_event["shuttle"]]
          == list(range(op.runs)), "runs missing or out of order")
    nominal = shuttle - draws
    _fail(float(np.ptp(nominal)) < 1e-12,
          "shuttle durations differ from nominal + seeded jitter")
    if "anchors_file" not in op.doc.get("fieldmap", {}):
        _fail(abs(float(nominal[0]) - HEADLINE_MOVE_S) <= HEADLINE_MOVE_ATOL_S,
              "8 mT -> 7 T move off the 648 ms headline")
    for done, acq in zip(by_event["done"], by_event["acquire"]):
        end = float(done["t_realized_s"]) + float(done["duration_s"])
        _fail(float(acq["t_realized_s"]) > end,
              "acquisition starts before the completion pulse ends")


def _check_t1_field_map(op, out, diag, ref):
    from fieldcycle.relaxometry import t1_of_field

    blk = op.doc["t1"]
    failures = out / "t1_failures.csv"
    if failures.exists():
        diag["fit_failures"] = len(_rows(failures))
    _fail(not diag["fit_failures"], "decay fits failed")
    rows = _rows(out / "t1_map.csv")
    fields = sorted(blk["fields_T"])
    _fail([float(r["B_T"]) for r in rows] == fields, "fields differ")
    _fail(len(list(out.glob("curve_B*T.csv"))) == len(fields),
          "one decay curve per field expected")
    tol = T1_REL_TOL_NOISY if blk["noise_sigma"] > 0 else T1_REL_TOL_NOISELESS
    for r in rows:
        err = _rel(float(r["T1_s"]), float(t1_of_field(float(r["B_T"]))))
        diag["t1_rel_err"] = max(diag["t1_rel_err"], err)
        _fail(err <= tol, f"T1 at {r['B_T']} T off by {err:.2e}")


def _check_dnp_sweep(op, out, diag, ref):
    blk = op.doc["dnp"]
    summary = json.loads((out / "dnp_summary.json").read_text())
    table = _rows(out / "dnp_sweep.csv")
    _fail(summary["nodes"] == blk["nodes"] == len(table), "node count")
    pols = [float(r["polarization"]) for r in table]
    weights = [float(r["weight"]) for r in table]
    _fail(summary["signs_uniform"] and len({p > 0 for p in pols}) == 1,
          "transfer sign depends on orientation")
    _fail(abs(sum(weights) - 1.0) < 1e-9, "weights do not sum to one")
    mean = summary["mean_polarization"]
    _fail(_rel(sum(w * p for w, p in zip(weights, pols)), mean) < 1e-9,
          "summary mean differs from the table")
    if not op.regime:
        return
    key = (blk["hyperfine_Hz"], blk["B_pol_T"])
    expect = ref[key + (op.regime,)]
    diag["pol_err"] = _rel(mean, expect)
    _fail(diag["pol_err"] <= DNP_REL_TOL,
          f"polarization off the reference by {diag['pol_err']:.2e}")
    if op.regime.startswith("default"):
        other = "default32" if op.regime == "default16" else "default16"
        _fail(_rel(mean, ref[key + (other,)]) < DNP_NODE_AGREEMENT,
              "16- and 32-node powder averages disagree by 1% or more")



_CHECKS = {
    "lac_plan": _check_lac_plan,
    "shuttle_characterization": _check_shuttle_characterization,
    "sequence_validation": _check_sequence_validation,
    "simulate_sequence": _check_simulate_sequence,
    "t1_field_map": _check_t1_field_map,
    "dnp_sweep": _check_dnp_sweep,
}

# ---------------------------------------------------------------------------
# execution

def prepare(op, op_dir):
    """Write the operation's input files; returns the results directory."""
    op_dir = Path(op_dir)
    op_dir.mkdir(parents=True, exist_ok=True)
    for name, text in op.files.items():
        (op_dir / name).write_text(text)
    return op_dir / "out"


def execute(op, op_dir):
    """Run ``op`` in this process as a library caller would; returns the
    wall time of parse_spec plus run (or simulate_sequence)."""
    from time import perf_counter

    from fieldcycle import orchestrator as orc

    out = prepare(op, op_dir)
    start = perf_counter()
    spec = orc.parse_spec(op.doc, base_dir=op_dir)
    if op.runs:
        orc.simulate_sequence(spec, runs=op.runs, out_dir=out, quiet=True)
    else:
        orc.run(spec, out_dir=out, quiet=True)
    return perf_counter() - start
