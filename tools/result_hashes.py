"""Exit codes and result-file hashes of a fixed set of fieldcycle commands.

Usage: python3 tools/result_hashes.py <src-dir>

Runs every command below as ``python3 -m fieldcycle.cli`` with <src-dir> (the
directory that holds the ``fieldcycle`` package) first on PYTHONPATH, each in
its own directory under a fresh temporary directory, without ``--quiet``.
Prints one ``exit`` line per command, with the line count and sha256 of the
command's stdout (its progress lines; stderr names temporary paths and is
left out), then one sha256 line per result file.  ``runrecord.json`` is
skipped: it carries timestamps.  Run it on two source trees and diff the
outputs to check that a change keeps result bytes and progress output:

    python3 tools/result_hashes.py old/src > old.txt
    python3 tools/result_hashes.py src > new.txt
    diff old.txt new.txt

The set covers the five spec kinds through ``run`` and through each typed
verb, shuttle specs with one run and with a zero-distance move,
``plan-lac`` with and without ``--map``, ``plan-motion``,
``calibrate-field`` with each model kind, custom map and anchor files,
cryo and latency sequence specs, simulations of one and of 1400 runs of
the default and the cryo sequence, a short move validated and simulated, a
spec with violations (exit 2), three numerical failures (exit 4: a T1
field below the map floor, a DNP Rabi frequency of 1e300 Hz, whose |H| T
sum overflows, and one of 1e14 Hz, whose run may exceed the step cap),
a T1 map and the default sequence on a map whose centre is 5 T, T1 maps
on a solenoid map file and with a steep T1 knee (exponent 50 at 0.3 T), a
spline map file whose knot fields rise, one with a NaN interior knot
field, and three map files whose field does not decrease over the domain
(exit 3 each): spline slopes that overshoot, a spline domain past the last
knot and a solenoid domain below z = 0; a spline calibration on the
centre anchor alone (exit 3); and a spec whose unread key holds NaN (exit 3:
``runrecord.json`` could not hold it as strict JSON).
It uses only the standard library.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REFERENCE_ANCHORS = """\
kind,position_m,field_T,gradient_T_per_m,tolerance_rel
field_value,0.0,7.0,,1e-06
gradient_at_field,,0.051,-0.228,0.01
gradient_at_field,,0.102,-0.606,0.01
field_value,,0.03,,0.2
field_value,1.1627,0.008,,0.1
"""
SOLENOID_ANCHORS = """\
kind,position_m,field_T,gradient_T_per_m,tolerance_rel
field_value,0.0,7.0,,1e-06
field_value,0.6,0.05,,0.05
"""
# written with the keys map files carried before they were dropped as
# unread (travel_range_m, center_separation_m): loading it reads past them
SOLENOID_MAP = {
    "schema": 1, "model": "finite_solenoid",
    "params": {"b0_T": 7.0, "half_length_m": 0.1, "radius_m": 0.12},
    "domain_m": [0.0, 1.6], "travel_range_m": 1.6,
    "center_separation_m": 0.83, "floor_T": 0.001,
}
# a magnet whose centre is 5 T: detection and the sequence's end move
# target the centre, not a 7 T point the map does not reach
CENTRE_5T_ANCHORS = """\
kind,position_m,field_T,gradient_T_per_m,tolerance_rel
field_value,0.0,5.0,,1e-06
field_value,1.1627,0.008,,0.1
"""
# the centre anchor alone: a spline has no anchor pair to continue from
CENTRE_ONLY_ANCHORS = """\
kind,position_m,field_T,gradient_T_per_m,tolerance_rel
field_value,0.0,7.0,,1e-06
"""
# knot fields rise from 0.05 T to 0.2 T: not a map, so a spec error
RISING_MAP = {
    "schema": 1, "model": "monotone_spline",
    "params": {"knots": [[0.0, 7.0, 0.0], [0.5, 0.05, -1.0],
                         [1.0, 0.2, 5.0], [1.6, 0.001, 0.0]]},
    "domain_m": [0.0, 1.6], "floor_T": 0.001,
}

# fields that do not decrease over the domain: the first spline falls to the
# floor past 0.5 m and climbs back to 2.9 T, the second's end cubic climbs
# back past its last knot, and the solenoid's field rises up to z = 0
NOT_DECREASING_MAPS = {
    "overshoot_map": dict(RISING_MAP, params={"knots": [
        [0.0, 7.0, 0.0], [0.5, 3.0, -100.0], [1.0, 2.9, 0.0],
        [1.6, 0.01, 0.0]]}),
    "short_knots_map": dict(RISING_MAP, params={"knots": [
        [0.0, 7.0, -1.0], [1.0, 0.5, -0.1]]}),
    "below_zero_map": dict(SOLENOID_MAP, domain_m=[-0.5, 1.6]),
}
# a spline whose interior knot field is NaN: not a map, so a spec error
NAN_KNOT_MAP = dict(RISING_MAP, params={"knots": [
    [0.0, 7.0, -1.0], [0.5, 5.0, -4.0], [1.0, float("nan"), -4.0],
    [1.3, 2.0, -4.0], [1.6, 0.5, -4.0]]})


def _spec(kind, block=None, **top):
    doc = {"schema_version": 1, "kind": kind, "seed": 1, **top}
    if block is not None:
        doc[{"shuttle_characterization": "shuttle", "lac_plan": "lac",
             "dnp_sweep": "dnp", "t1_field_map": "t1",
             "sequence_validation": "sequence"}[kind]] = block
    return doc


FAST_DNP = {"nodes": 8, "sweep_rate_Hz_per_s": 3e10}
CRYO_SEQ = {"t_pol_s": 2.0, "cryo": {"cold_delay_s": 3.0},
            "latencies": {"nmr_acquire": 0.002, "servo_trigger": 1e-4,
                          "cryo_eject_valve": 0.003}}
SPECS = {
    "shuttle": _spec("shuttle_characterization"),
    "shuttle_runs": _spec("shuttle_characterization",
                          {"velocities": [0.5, 1.25, 2.0], "runs": 20},
                          motion={"v_max": 2.0, "a_max": 25.0}),
    "shuttle_one": _spec("shuttle_characterization",
                         {"velocities": [2.0], "runs": 1}),
    "shuttle_zero": _spec("shuttle_characterization",
                          {"distance_m": 0.0, "velocities": [2.0], "runs": 3}),
    "lac": _spec("lac_plan"),
    "lac_anchors": _spec("lac_plan", {"targets_T": [0.051, 0.3]},
                         fieldmap={"anchors_file": "reference.csv"}),
    "lac_solenoid": _spec("lac_plan", fieldmap={
        "anchors_file": "solenoid.csv", "model_kind": "finite_solenoid"}),
    "dnp": _spec("dnp_sweep"),
    "dnp_fast": _spec("dnp_sweep", dict(FAST_DNP, n_sweeps=2)),
    "dnp_extreme": _spec("dnp_sweep", {"nodes": 8, "mw_rabi_Hz": 1e300}),
    "dnp_capped": _spec("dnp_sweep", {"nodes": 8, "mw_rabi_Hz": 1e14}),
    "t1": _spec("t1_field_map"),
    "t1_noise": _spec("t1_field_map", {"fields_T": [0.02, 0.5, 3.0],
                                       "n_waits": 8, "noise_sigma": 0.02},
                      seed=11),
    "t1_map": _spec("t1_field_map", {"fields_T": [0.01, 0.2]},
                    fieldmap={"file": "solenoid_map.json"}),
    "t1_failures": _spec("t1_field_map", {"fields_T": [0.1, 1.0],
                                          "n_waits": 3}),
    "t1_diverged": _spec("t1_field_map", {"fields_T": [1e-9]}),
    "seq": _spec("sequence_validation"),
    "seq_cryo": _spec("sequence_validation", CRYO_SEQ),
    "seq_cryo_default": _spec("sequence_validation", {"cryo": True}),
    "seq_reversed": _spec("sequence_validation",
                          {"B_start_T": 7.0, "B_end_T": 0.008}),
    "seq_short": _spec("sequence_validation",
                       {"t_pol_s": 1.0, "shuttle_distance_m": 0.499}),
    "seq_anchors": _spec("sequence_validation",
                         {"t_pol_s": 1.0, "shuttle_distance_m": 1.0},
                         fieldmap={"anchors_file": "reference.csv",
                                   "model_kind": "monotone_spline"}),
    "t1_centre_5T": _spec("t1_field_map", {"fields_T": [0.01, 0.1, 1.0]},
                          fieldmap={"anchors_file": "centre_5T.csv"}),
    "seq_centre_5T": _spec("sequence_validation",
                           fieldmap={"anchors_file": "centre_5T.csv"}),
    "lac_rising_map": _spec("lac_plan", {"targets_T": [0.1]},
                            fieldmap={"file": "rising_map.json"}),
    "t1_solenoid": _spec("t1_field_map", {"fields_T": [0.02, 0.3, 2.0, 5.0],
                                          "n_waits": 12, "noise_sigma": 0.01},
                         fieldmap={"file": "solenoid_map.json"}),
    "t1_steep_knee": _spec("t1_field_map", {"relaxation": {
        "exponent": 50, "B_knee_T": 0.3}}),
    "lac_nan_note": _spec("lac_plan", {"targets_T": [0.051]},
                          note=float("nan")),
}

# (name, arguments); input file names resolve against the input directory
COMMANDS = [(f"run-{name}", ["run", "--spec", f"{name}.json", "--out", "res"])
            for name in SPECS] + [
    ("dnp-sweep", ["dnp-sweep", "--config", "dnp_fast.json", "--nodes", "10",
                   "--seed", "2", "--out", "res"]),
    ("t1-map", ["t1-map", "--config", "t1_noise.json", "--seed", "3",
                "--out", "res"]),
    ("validate-sequence", ["validate-sequence", "--spec", "seq_cryo.json",
                           "--out", "res"]),
    ("validate-sequence-violations", ["validate-sequence", "--spec",
                                      "seq_reversed.json", "--out", "res"]),
    ("simulate-sequence", ["simulate-sequence", "--spec", "seq.json",
                           "--runs", "5", "--out", "res"]),
] + [(f"simulate-sequence-{name}-{runs}", ["simulate-sequence", "--spec",
                                          f"{name}.json", "--runs", str(runs),
                                          "--out", "res"])
     for name in ("seq", "seq_cryo") for runs in (1, 1400)] + [
    ("validate-sequence-short", ["validate-sequence", "--spec",
                                 "seq_short.json", "--out", "res"]),
    ("simulate-sequence-short", ["simulate-sequence", "--spec",
                                 "seq_short.json", "--runs", "3", "--out",
                                 "res"]),
    ("simulate-sequence-cryo", ["simulate-sequence", "--spec", "seq_cryo.json",
                                "--runs", "40", "--seed", "9", "--out", "res"]),
    ("plan-lac", ["plan-lac", "--target", "0.051", "--target", "0.102"]),
    ("plan-lac-map", ["plan-lac", "--target", "0.051", "--target", "1.5",
                      "--map", "solenoid_map.json", "--precision", "1e-4",
                      "--vmax", "1.5", "--out", "res"]),
    ("plan-motion", ["plan-motion", "--distance", "1.1627", "--out", "res"]),
    ("plan-motion-short", ["plan-motion", "--distance", "0.05", "--vmax", "1.0",
                           "--amax", "20", "--dt", "1e-3", "--out", "res"]),
    ("calibrate-field", ["calibrate-field", "--anchors", "reference.csv",
                         "--out", "res/map.json"]),
    ("calibrate-field-solenoid", ["calibrate-field", "--anchors",
                                  "solenoid.csv", "--model", "finite_solenoid",
                                  "--out", "res/map.json"]),
    ("calibrate-field-spline", ["calibrate-field", "--anchors", "solenoid.csv",
                                "--model", "monotone_spline",
                                "--out", "res/map.json"]),
    ("calibrate-field-centre_only", ["calibrate-field", "--anchors",
                                     "centre_only.csv", "--model",
                                     "monotone_spline",
                                     "--out", "res/map.json"]),
] + [(f"plan-lac-{name}", ["plan-lac", "--target", target, "--map",
                          f"{name}.json"])
     for name, target in (("overshoot_map", "2.5"), ("short_knots_map", "0.5"),
                          ("below_zero_map", "2.5"), ("nan_knot_map", "3.0"))]


def _write_inputs(folder: Path):
    folder.mkdir()
    (folder / "reference.csv").write_text(REFERENCE_ANCHORS)
    (folder / "solenoid.csv").write_text(SOLENOID_ANCHORS)
    (folder / "solenoid_map.json").write_text(json.dumps(SOLENOID_MAP))
    (folder / "centre_5T.csv").write_text(CENTRE_5T_ANCHORS)
    (folder / "centre_only.csv").write_text(CENTRE_ONLY_ANCHORS)
    (folder / "rising_map.json").write_text(json.dumps(RISING_MAP))
    (folder / "nan_knot_map.json").write_text(json.dumps(NAN_KNOT_MAP))
    for name, doc in NOT_DECREASING_MAPS.items():
        (folder / f"{name}.json").write_text(json.dumps(doc))
    for name, doc in SPECS.items():
        (folder / f"{name}.json").write_text(json.dumps(doc))


def main(argv) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "fieldcycle").is_dir():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src = str(Path(argv[0]).resolve())
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    with tempfile.TemporaryDirectory(prefix="result-hashes-") as tmp:
        inputs = Path(tmp) / "in"
        _write_inputs(inputs)
        for name, args in COMMANDS:
            cwd = Path(tmp) / "out" / name
            cwd.mkdir(parents=True)
            args = [str(inputs / a) if (inputs / a).is_file() else a
                    for a in args]
            proc = subprocess.run(
                [sys.executable, "-m", "fieldcycle.cli"] + args,
                cwd=cwd, env=env, capture_output=True)
            lines = proc.stdout.count(b"\n")
            digest = hashlib.sha256(proc.stdout).hexdigest()
            print(f"exit {proc.returncode}  stdout {lines} {digest}  {name}")
        out = Path(tmp) / "out"
        for path in sorted(out.rglob("*")):
            if path.is_file() and path.name != "runrecord.json":
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
