import ast
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import fieldcycle
from fieldcycle import relaxometry
from fieldcycle.cli import main
from fieldcycle.fieldmap import FieldMap
from fieldcycle.spin import MAX_RUN_STEPS


def write_spec(tmp_path, doc, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_plan_motion_prints_duration(capsys):
    assert main(["plan-motion", "--distance", "1.1627"]) == 0
    out = capsys.readouterr().out
    assert "trapezoidal" in out and "0.648" in out


def test_plan_motion_writes_trajectory(tmp_path, capsys):
    rc = main(["plan-motion", "--distance", "0.2", "--out", str(tmp_path),
               "--quiet"])
    assert rc == 0
    header = (tmp_path / "trajectory.csv").read_text().split("\n")[0]
    assert header == "t_s,z_m,v_mps,a_mps2,B_T"


def test_plan_lac_reference_map(tmp_path, capsys):
    rc = main(["plan-lac", "--target", "0.051", "--target", "0.102",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0.1140 G" in out and "0.3030 G" in out
    assert (tmp_path / "lac_plan.csv").exists()


def test_plan_lac_writes_run_outputs_by_default(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["plan-lac", "--target", "0.051", "--quiet"]) == 0
    out = tmp_path / "fieldcycle-out"
    record = json.loads((out / "runrecord.json").read_text())
    assert record["kind"] == "lac_plan" and record["manifest"] == ["lac_plan.csv"]


def test_calibrate_field_verb(tmp_path, capsys):
    from fieldcycle.fieldmap import anchors_to_csv, reference_anchors
    anchors = tmp_path / "anchors.csv"
    anchors.write_text(anchors_to_csv(reference_anchors()))
    out = tmp_path / "map.json"
    rc = main(["calibrate-field", "--anchors", str(anchors), "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["schema"] == 1


def test_validate_sequence_exit_codes(tmp_path):
    ok = write_spec(tmp_path, {"schema_version": 1, "kind": "sequence_validation",
                               "seed": 1, "sequence": {"t_pol_s": 5.0}})
    assert main(["validate-sequence", "--spec", ok, "--out",
                 str(tmp_path / "ok"), "--quiet"]) == 0


def test_simulate_sequence_runs(tmp_path):
    spec = write_spec(tmp_path, {"schema_version": 1, "kind": "sequence_validation",
                                 "seed": 1, "sequence": {"t_pol_s": 1.0}})
    rc = main(["simulate-sequence", "--spec", spec, "--runs", "2", "--seed", "9",
               "--out", str(tmp_path / "sim"), "--quiet"])
    assert rc == 0
    text = (tmp_path / "sim" / "event_log.csv").read_text()
    assert text.count("\n") == 2 * 7 + 1


def test_schema_error_exit_code(tmp_path, capsys):
    bad = write_spec(tmp_path, {"schema_version": 1, "kind": "nonsense"})
    assert main(["run", "--spec", bad]) == 3
    assert "spec error" in capsys.readouterr().err
    worse = tmp_path / "broken.json"
    worse.write_text("{not json")
    assert main(["run", "--spec", str(worse)]) == 3
    assert main(["run", "--spec", str(tmp_path / "missing.json")]) == 3


def test_numerical_failure_exit_code(tmp_path, capsys):
    spec = write_spec(tmp_path, {"schema_version": 1, "kind": "t1_field_map",
                                 "seed": 1, "t1": {"fields_T": [1e-9]}})
    assert main(["run", "--spec", spec, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 4
    assert "numerical failure" in capsys.readouterr().err


def test_a_non_finite_sweep_hamiltonian_is_a_numerical_failure(
        tmp_path, monkeypatch, capsys):
    from fieldcycle import spin
    monkeypatch.setattr(spin, "_envelope",
                        lambda x, seg: np.full_like(x, np.nan))
    spec = write_spec(tmp_path, {"schema_version": 1, "kind": "dnp_sweep",
                                 "seed": 1, "dnp": {"nodes": 8}})
    assert main(["run", "--spec", spec, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 4
    assert "numerical failure: sweep exponent 1-norm is nan" in \
        capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("mw_rabi_Hz", 1e300), ("hyperfine_Hz", 1e300), ("B_pol_T", 1e300),
    ("sweep_rate_Hz_per_s", 1e-300)])
def test_extreme_dnp_values_are_numerical_failures(tmp_path, key, value):
    # finite values whose |H| T sum over the chirp overflows to inf or NaN
    spec = write_spec(tmp_path, {"schema_version": 1, "kind": "dnp_sweep",
                                 "seed": 1, "dnp": {"nodes": 8, key: value}})
    src = str(Path(fieldcycle.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    out = subprocess.run(
        [sys.executable, "-m", "fieldcycle.cli", "run", "--quiet", "--spec",
         spec, "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 4
    assert "Traceback" not in out.stderr
    [line] = out.stderr.splitlines()  # no numpy warning either
    assert line.startswith("numerical failure: |H| T summed over the chirp is")
    record = json.loads((tmp_path / "o" / "runrecord.json").read_text())
    assert record["status"] == "failed"
    assert record["error"].startswith("NonFiniteHamiltonian")


@pytest.mark.parametrize("key, value", [
    ("mw_rabi_Hz", 1e14), ("mw_rabi_Hz", 1e20), ("sweep_rate_Hz_per_s", 1e5)])
def test_sweeps_past_the_first_pass_cap_fail_at_once(tmp_path, capsys, key,
                                                     value):
    # first passes of 2.4e20, 2.4e32 and 3.8e7 steps per node: each alone
    # is past the cap on the run's steps
    spec = write_spec(tmp_path, {"schema_version": 1, "kind": "dnp_sweep",
                                 "seed": 1, "dnp": {"nodes": 8, key: value}})
    _fails_at_the_run_cap(spec, tmp_path, capsys, 8)


def test_a_run_past_the_step_cap_fails_at_once(tmp_path, capsys):
    # 8.4M first-pass steps per node, under 10^7, but a 210M-step cap on
    # each node's passes: 16 nodes may take 3.5e9 steps
    spec = write_spec(tmp_path, {"schema_version": 1, "kind": "dnp_sweep",
                                 "seed": 1,
                                 "dnp": {"sweep_rate_Hz_per_s": 4e5}})
    _fails_at_the_run_cap(spec, tmp_path, capsys, 16)


def _fails_at_the_run_cap(spec, tmp_path, capsys, nodes):
    start = time.monotonic()
    assert main(["run", "--quiet", "--spec", spec, "--out",
                 str(tmp_path / "o")]) == 4
    assert time.monotonic() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure: the {nodes}-node run may take ")
    assert all(k in err for k in (f"{MAX_RUN_STEPS}-step cap", "nodes",
                                  "mw_rabi_Hz", "hyperfine_Hz",
                                  "sweep_rate_Hz_per_s"))
    record = json.loads((tmp_path / "o" / "runrecord.json").read_text())
    assert record["status"] == "failed"
    assert record["error"].startswith("StepTooCoarse")


@pytest.mark.parametrize("n_sweeps", [10 ** 12, 10 ** 400],
                         ids=["1e12", "1e400"])
def test_any_sweep_count_runs_at_once(tmp_path, n_sweeps):
    # 10**400 is past the float range: the build-up is summed in integers
    spec = write_spec(tmp_path, {"schema_version": 1, "kind": "dnp_sweep",
                                 "seed": 1,
                                 "dnp": {"nodes": 8, "n_sweeps": n_sweeps}})
    start = time.monotonic()
    assert main(["run", "--quiet", "--spec", spec, "--out",
                 str(tmp_path / "o")]) == 0
    assert time.monotonic() - start < 2.0
    record = json.loads((tmp_path / "o" / "runrecord.json").read_text())
    assert record["status"] == "ok"
    summary = json.loads((tmp_path / "o" / "dnp_summary.json").read_text())
    assert -1.0 <= summary["mean_polarization"] < 0.0


@pytest.mark.parametrize("nodes", [5000, 10 ** 12], ids=["5000", "1e12"])
@pytest.mark.parametrize("flag", [False, True], ids=["spec", "--nodes"])
def test_too_many_nodes_is_a_spec_error(tmp_path, monkeypatch, capsys, nodes,
                                        flag):
    def refuse(n):
        raise AssertionError(f"built a {n}-node quadrature")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    dnp = {} if flag else {"nodes": nodes}
    spec = write_spec(tmp_path, {"schema_version": 1, "kind": "dnp_sweep",
                                 "seed": 1, "dnp": dnp})
    argv = ["dnp-sweep", "--config", spec, "--out", str(tmp_path / "o")]
    start = time.monotonic()
    assert main(argv + (["--nodes", str(nodes)] if flag else [])) == 3
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("spec error: ") and "$.dnp.nodes" in err
    assert "need 8 to 1024 quadrature nodes" in err


PROGRESS_SPECS = {
    "shuttle": {"kind": "shuttle_characterization",
                "shuttle": {"velocities": [0.5, 2.0]}},
    "dnp": {"kind": "dnp_sweep",
            "dnp": {"nodes": 8, "sweep_rate_Hz_per_s": 3e10}},
    "t1": {"kind": "t1_field_map", "t1": {"fields_T": [0.1, 1.0], "n_waits": 6}},
    "seq": {"kind": "sequence_validation", "sequence": {"t_pol_s": 5.0}},
    "reversed": {"kind": "sequence_validation",
                 "sequence": {"B_start_T": 7.0, "B_end_T": 0.008}},
}
SHIELD = "above the low-field region start z=0.7997 m"


@pytest.mark.parametrize("argv, code, stdout", [
    (["run", "--spec", "shuttle.json", "--out", "o"], 0,
     ["v=0.5 m/s  duration=2.342067 s", "v=2 m/s  duration=0.648017 s"]),
    (["dnp-sweep", "--config", "dnp.json", "--out", "o"], 0,
     ["powder mean polarization -0.069592 (8 nodes)"]),
    (["t1-map", "--config", "t1.json", "--out", "o"], 0,
     ["B=0.1 T  T1=25.02 s", "B=1 T  T1=318.6 s"]),
    (["validate-sequence", "--spec", "seq.json", "--out", "o"], 0,
     ["timeline valid"]),
    (["validate-sequence", "--spec", "reversed.json", "--out", "o"], 2,
     [f"violation optical_outside_shield: {ch} active at t=0.000000 s with "
      f"sample at z=0.0000 m, {SHIELD}" for ch in ("laser", "mw_sweep")]),
    (["simulate-sequence", "--spec", "seq.json", "--runs", "3", "--out", "o"],
     0, ["simulated 3 runs, 21 events"]),
    (["plan-motion", "--distance", "0.2", "--out", "traj"], 0,
     ["shape trapezoidal  duration 0.166667 s",
      f"wrote {Path('traj') / 'trajectory.csv'}"]),
    (["plan-lac", "--target", "0.051", "--out", "o"], 0,
     ["B=0.051 T  z=0.6731 m  res=0.1140 G  rate=0.4560 T/s"]),
    (["plan-lac", "--target", "0.051", "--precision", "1e-4", "--vmax", "1.0",
      "--map", "map.json", "--out", "o"], 0,
     ["B=0.051 T  z=0.6731 m  res=0.2280 G  rate=0.2280 T/s"]),
], ids=["shuttle", "dnp-sweep", "t1-map", "valid", "violations",
        "simulate-sequence", "plan-motion", "plan-lac", "plan-lac-options"])
def test_progress_output(tmp_path, monkeypatch, capsys, argv, code, stdout):
    monkeypatch.chdir(tmp_path)
    for name, doc in PROGRESS_SPECS.items():
        write_spec(tmp_path, {"schema_version": 1, "seed": 1, **doc},
                   f"{name}.json")
    from fieldcycle.fieldmap import reference_map
    (tmp_path / "map.json").write_text(reference_map().to_json())
    assert main(argv) == code
    assert capsys.readouterr().out.splitlines() == stdout


def test_run_kind_mismatch_for_typed_verbs(tmp_path):
    spec = write_spec(tmp_path, {"schema_version": 1, "kind": "lac_plan", "seed": 1})
    assert main(["dnp-sweep", "--config", spec]) == 3


def test_seed_override_changes_outputs(tmp_path):
    doc = {"schema_version": 1, "kind": "t1_field_map", "seed": 1,
           "t1": {"fields_T": [0.1], "n_waits": 8, "noise_sigma": 0.05}}
    spec = write_spec(tmp_path, doc)
    main(["run", "--spec", spec, "--out", str(tmp_path / "a"), "--quiet"])
    main(["run", "--spec", spec, "--seed", "2", "--out", str(tmp_path / "b"),
          "--quiet"])
    main(["run", "--spec", spec, "--out", str(tmp_path / "c"), "--quiet"])
    a = (tmp_path / "a" / "curve_B0.1T.csv").read_bytes()
    b = (tmp_path / "b" / "curve_B0.1T.csv").read_bytes()
    c = (tmp_path / "c" / "curve_B0.1T.csv").read_bytes()
    assert a != b and a == c


@pytest.mark.parametrize("argv", [
    ["run", "--spec", "lac.json"],
    ["validate-sequence", "--spec", "seq.json"],
    ["simulate-sequence", "--spec", "seq.json", "--runs", "2"],
    ["dnp-sweep", "--config", "dnp.json"],
    ["t1-map", "--config", "t1.json"],
    ["plan-lac", "--target", "0.051"],
    ["plan-motion", "--distance", "0.2"],
    ["calibrate-field", "--anchors", "anchors.csv"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_an_output_path_that_cannot_be_made_is_a_spec_error(
        tmp_path, monkeypatch, capsys, argv, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("a file, not a directory")
    for name, kind in (("lac", "lac_plan"), ("seq", "sequence_validation"),
                       ("dnp", "dnp_sweep"), ("t1", "t1_field_map")):
        write_spec(tmp_path, {"schema_version": 1, "kind": kind}, f"{name}.json")
    from fieldcycle.fieldmap import anchors_to_csv, reference_anchors
    (tmp_path / "anchors.csv").write_text(anchors_to_csv(reference_anchors()))
    # calibrate-field's --out names the map file, in the directory ``out``
    suffix = "/map.json" if argv[0] == "calibrate-field" else ""
    assert main(["--quiet"] + argv + ["--out", out + suffix]) == 3
    err = capsys.readouterr().err
    assert err.startswith("spec error: ") and repr(out) in err


@pytest.mark.parametrize("doc", [
    {"kind": "shuttle_characterization", "shuttle": {"runs": 10 ** 16}},
    {"kind": "t1_field_map", "t1": {"n_waits": 10 ** 16}},
], ids=["shuttle-runs", "t1-n_waits"])
def test_impossible_sizes_are_numerical_failures(tmp_path, capsys, doc):
    # numpy refuses the 71 PiB array before it allocates anything
    spec = write_spec(tmp_path, {"schema_version": 1, **doc})
    out = tmp_path / "o"
    assert main(["run", "--spec", spec, "--out", str(out), "--quiet"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: Unable to allocate")
    if doc["kind"] == "shuttle_characterization":  # fails while running
        record = json.loads((out / "runrecord.json").read_text())
        assert record["status"] == "failed"
        assert record["error"].startswith("MemoryError")


def test_a_trajectory_too_fine_to_index_is_a_numerical_failure(tmp_path, capsys):
    # 6e299 samples: refused before anything is allocated or written
    out = tmp_path / "traj"
    assert main(["plan-motion", "--distance", "1.0", "--dt", "1e-300",
                 "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith("numerical failure: ")
    assert not out.exists()


ANCHOR_HEADER = "kind,position_m,field_T,gradient_T_per_m,tolerance_rel\n"


@pytest.mark.parametrize("argv,anchors,named", [
    (["plan-motion", "--distance", "1.0", "--vmax", "0"], None, "--vmax"),
    (["plan-motion", "--distance", "1.0", "--amax", "inf"], None, "--amax"),
    (["plan-motion", "--distance", "1.0", "--dt", "0", "--out", "traj"], None,
     "--dt"),
    (["plan-motion", "--distance", "nan", "--out", "traj"], None, "--distance"),
    (["plan-motion", "--distance", "-1", "--out", "traj"], None, "--distance"),
    (["plan-motion", "--distance", "1.7", "--out", "traj"], None, "--distance"),
    (["calibrate-field"], ANCHOR_HEADER + "field_value,0.0,abc,,1e-06\n",
     "anchors.csv"),
    (["calibrate-field"], "position_m,field_T,tolerance_rel\n0.0,7.0,1e-06\n",
     "anchors.csv"),
], ids=["vmax-zero", "amax-inf", "dt-zero", "distance-nan", "distance-negative",
        "distance-beyond-travel", "anchor-cell", "anchor-column"])
def test_non_spec_verbs_reject_bad_input(tmp_path, monkeypatch, capsys, argv,
                                         anchors, named):
    monkeypatch.chdir(tmp_path)
    if anchors is not None:
        (tmp_path / "anchors.csv").write_text(anchors)
        argv = argv + ["--anchors", "anchors.csv", "--out", "map.json"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("spec error: ") and named in err
    assert not (tmp_path / "traj").exists() and not (tmp_path / "map.json").exists()


@pytest.mark.parametrize("argv, name", [
    (["plan-motion", "--distance", "0.2", "--out", "out"], "trajectory.csv"),
    (["calibrate-field", "--anchors", "anchors.csv", "--out", "out/map.json"],
     "map.json"),
], ids=lambda v: v[0] if isinstance(v, list) else v)
def test_a_failed_write_leaves_no_partial_file(tmp_path, monkeypatch, capsys,
                                               argv, name):
    monkeypatch.chdir(tmp_path)
    from fieldcycle.fieldmap import anchors_to_csv, reference_anchors
    (tmp_path / "anchors.csv").write_text(anchors_to_csv(reference_anchors()))

    def crash(src, dst):
        raise OSError(f"cannot rename to {dst}")

    monkeypatch.setattr(os, "replace", crash)
    assert main(["--quiet"] + argv) == 3
    assert name in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []


def test_an_overflowing_calibration_cost_prints_no_warning(tmp_path):
    # a tolerance of 1e-300 squares residuals past the float range: the
    # cost is inf, and the exact spline is written without a numpy warning
    anchors = tmp_path / "anchors.csv"
    anchors.write_text(ANCHOR_HEADER + "field_value,0.0,7.0,,1e-06\n"
                       "field_value,0.5,0.1,,1e-300\n")
    src = str(Path(fieldcycle.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    out = subprocess.run(
        [sys.executable, "-m", "fieldcycle.cli", "calibrate-field", "--quiet",
         "--anchors", str(anchors), "--out", str(tmp_path / "map.json")],
        env=env, capture_output=True, text=True, timeout=300)
    assert (out.returncode, out.stderr) == (0, "")
    from fieldcycle.fieldmap import FieldMap
    fmap = FieldMap.from_json((tmp_path / "map.json").read_text())
    assert fmap.model == "monotone_spline" and fmap.field_at(0.5) == 0.1


def test_a_degenerate_solenoid_map_is_rejected_without_a_warning(tmp_path):
    # half-length and radius 0 made the solenoid formula divide 0 by 0
    (tmp_path / "map.json").write_text(json.dumps({
        "schema": 1, "model": "finite_solenoid",
        "params": {"b0_T": 7.0, "half_length_m": 0.0, "radius_m": 0.0},
        "domain_m": [0.0, 1.6], "floor_T": 0.001}))
    spec = write_spec(tmp_path, {"schema_version": 1, "kind": "lac_plan",
                                 "seed": 1, "fieldmap": {"file": "map.json"}})
    src = str(Path(fieldcycle.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    out = subprocess.run(
        [sys.executable, "-m", "fieldcycle.cli", "run", "--quiet", "--spec",
         spec, "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 3
    assert out.stderr.splitlines() == [
        "spec error: $.fieldmap.file: cannot load map.json (ValueError: "
        "finite_solenoid half_length_m must be finite and > 0, got 0.0)"]


def test_a_rising_spline_map_is_a_spec_error(tmp_path, capsys):
    # the field rises from 0.05 T at 0.5 m to 0.2 T at 1.0 m, so 0.1 T is
    # reached three times
    (tmp_path / "map.json").write_text(json.dumps({
        "schema": 1, "model": "monotone_spline",
        "params": {"knots": [[0.0, 7.0, 0.0], [0.5, 0.05, -1.0],
                             [1.0, 0.2, 5.0], [1.6, 0.001, 0.0]]},
        "domain_m": [0.0, 1.6], "floor_T": 0.001}))
    spec = write_spec(tmp_path, {"schema_version": 1, "kind": "lac_plan",
                                 "seed": 1, "fieldmap": {"file": "map.json"},
                                 "lac": {"targets_T": [0.1]}})
    assert main(["run", "--quiet", "--spec", spec, "--out",
                 str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith(
        "spec error: $.fieldmap.file: cannot load map.json (ValueError: ")
    record = json.loads((tmp_path / "o" / "runrecord.json").read_text())
    assert record["status"] == "failed"
    assert "$.fieldmap.file" in record["error"]
    assert not (tmp_path / "o" / "lac_plan.csv").exists()


# map files whose field does not decrease over their domain: overshooting
# spline slopes (the field falls to the floor past 0.5 m and climbs back to
# 2.9 T), a spline domain past the last knot (the end cubic climbs above
# 7 T) and a solenoid domain below z = 0 (the field rises towards z = 0)
@pytest.mark.parametrize("model, params, domain, target", [
    ("monotone_spline", {"knots": [[0.0, 7.0, 0.0], [0.5, 3.0, -100.0],
                                   [1.0, 2.9, 0.0], [1.6, 0.01, 0.0]]},
     [0.0, 1.6], 2.5),
    ("monotone_spline", {"knots": [[0.0, 7.0, -1.0], [1.0, 0.5, -0.1]]},
     [0.0, 1.6], 0.5),
    ("finite_solenoid", {"b0_T": 7.0, "half_length_m": 0.1, "radius_m": 0.12},
     [-0.5, 1.6], 2.5),
], ids=["overshooting-slopes", "domain-past-last-knot", "domain-below-zero"])
def test_a_map_whose_field_does_not_decrease_is_a_spec_error(
        tmp_path, capsys, model, params, domain, target):
    doc = {"schema": 1, "model": model, "params": params, "domain_m": domain,
           "floor_T": 0.001}
    with pytest.raises(ValueError, match="strictly decrease"):
        FieldMap.from_json(json.dumps(doc))
    (tmp_path / "map.json").write_text(json.dumps(doc))
    assert main(["plan-lac", "--quiet", "--target", str(target), "--map",
                 str(tmp_path / "map.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("spec error: $.fieldmap.file: cannot load ")
    assert "strictly decrease" in err


def test_a_map_with_a_nan_interior_knot_is_a_spec_error(tmp_path, capsys):
    # it used to load, and the inversion beside the knot failed (exit 4)
    (tmp_path / "map.json").write_text(json.dumps({
        "schema": 1, "model": "monotone_spline",
        "params": {"knots": [[0.0, 7.0, -1.0], [0.5, 5.0, -4.0],
                             [1.0, math.nan, -4.0], [1.3, 2.0, -4.0],
                             [1.6, 0.5, -4.0]]},
        "domain_m": [0.0, 1.6], "floor_T": 0.001}))
    assert main(["plan-lac", "--quiet", "--target", "3.0", "--map",
                 str(tmp_path / "map.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("spec error: $.fieldmap.file: cannot load ")
    assert "must be finite" in err


@pytest.mark.parametrize("verb", ["calibrate-field", "run"])
def test_a_spline_on_the_centre_anchor_alone_is_a_spec_error(
        tmp_path, monkeypatch, capsys, verb):
    # its shield continuation divided by dB/dz at the centre, which is
    # exactly 0: both verbs ended in a ZeroDivisionError traceback, exit 1
    monkeypatch.chdir(tmp_path)
    (tmp_path / "anchors.csv").write_text(
        ANCHOR_HEADER + "field_value,0.0,7.0,,1e-06\n")
    if verb == "run":
        spec = write_spec(tmp_path, {
            "schema_version": 1, "kind": "lac_plan", "seed": 1,
            "fieldmap": {"anchors_file": "anchors.csv",
                         "model_kind": "monotone_spline"}})
        argv, key = ["run", "--spec", spec, "--out", "o"], "$.fieldmap.anchors_file"
    else:
        argv = ["calibrate-field", "--anchors", "anchors.csv", "--model",
                "monotone_spline", "--out", "map.json"]
        key = "--anchors"
    assert main(["--quiet"] + argv) == 3
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"spec error: {key}: ")
    assert line.endswith("(ValueError: a monotone_spline calibration needs "
                         "an anchor besides the centre)")
    assert not (tmp_path / "map.json").exists()
    if verb == "run":
        record = json.loads((tmp_path / "o" / "runrecord.json").read_text())
        assert record["status"] == "failed" and key in record["error"]
        assert not (tmp_path / "o" / "lac_plan.csv").exists()


@pytest.mark.parametrize("t1, cap, error", [
    ({"relaxation": {"exponent": 50, "B_knee_T": 0.3}}, 0,
     "shuttle loss quadrature needs more than 0 bisections per move"),
    ({"relaxation": {"T1_max_s": 2e-320, "T1_min_s": 1e-320}}, None,
     "shuttle loss integrand is not finite"),
], ids=["split-cap", "non-finite"])
def test_a_loss_quadrature_that_cannot_converge_fails_at_once(
        tmp_path, monkeypatch, capsys, t1, cap, error):
    # a steep T1 knee needs bisections past a cap of 0; a T1 of 1e-320 s
    # gives an infinite loss rate, which no bisection can mend
    if cap is not None:
        monkeypatch.setattr(relaxometry, "_MAX_SPLITS", cap)
    spec = write_spec(tmp_path, {"schema_version": 1, "kind": "t1_field_map",
                                 "seed": 1, "t1": t1})
    start = time.monotonic()
    assert main(["run", "--quiet", "--spec", spec, "--out",
                 str(tmp_path / "o")]) == 4
    assert time.monotonic() - start < 5.0
    assert capsys.readouterr().err == f"numerical failure: {error}\n"
    record = json.loads((tmp_path / "o" / "runrecord.json").read_text())
    assert record["status"] == "failed"
    assert record["error"].startswith("NoConvergence")
    assert not list((tmp_path / "o").glob("curve_*.csv"))


@pytest.mark.parametrize("doc", [
    {"kind": "t1_field_map", "t1": {"fields_T": [0.01, 0.1, 1.0]}},
    {"kind": "t1_field_map"},
    {"kind": "sequence_validation"},
], ids=["t1", "t1_default_fields", "sequence"])
def test_specs_detect_at_the_centre_of_a_5T_map(tmp_path, doc):
    # the map's high-field end is 5 T: detection and the sequence's end
    # move go there, where a 7 T target was unreachable
    (tmp_path / "anchors.csv").write_text(
        ANCHOR_HEADER + "field_value,0.0,5.0,,1e-06\n"
        "field_value,1.1627,0.008,,0.1\n")
    spec = write_spec(tmp_path, {"schema_version": 1, "seed": 1, **doc,
                                 "fieldmap": {"anchors_file": "anchors.csv"}})
    out = tmp_path / "o"
    assert main(["run", "--quiet", "--spec", spec, "--out", str(out)]) == 0
    assert json.loads((out / "runrecord.json").read_text())["status"] == "ok"
    if doc["kind"] == "t1_field_map":
        rows = (out / "t1_map.csv").read_text().splitlines()
        fields = [r.split(",")[0] for r in rows[1:]]
        if "t1" in doc:
            assert fields == ["0.01", "0.1", "1.0"]
        else:  # the default fields end at the centre, not at 7 T
            assert fields[:4] == ["0.008", "0.1", "0.5", "1.0"]
            assert float(fields[4]) == pytest.approx(5.0, rel=1e-6)
    else:
        assert (out / "validation_report.csv").read_text().splitlines() == [
            "code,event_ids,detail"]


_SCIPY_PROBE = """
import json, sys
from fieldcycle.cli import main
from fieldcycle.spin import MAX_RUN_STEPS
from fieldcycle.fieldmap import anchors_to_csv, reference_anchors

tmp = sys.argv[1]
def spec(kind, **top):
    path = f"{tmp}/{kind}.json"
    with open(path, "w") as fh:
        json.dump({"schema_version": 1, "kind": kind, "seed": 1, **top}, fh)
    return path

def scipy_loaded():
    return any(m.split(".")[0] == "scipy" for m in sys.modules)

for kind in ("lac_plan", "sequence_validation", "shuttle_characterization"):
    assert main(["run", "--spec", spec(kind), "--out", f"{tmp}/{kind}",
                 "--quiet"]) == 0
assert main(["dnp-sweep", "--config", spec("dnp_sweep"), "--nodes", "8",
             "--out", f"{tmp}/dnp", "--quiet"]) == 0
assert main(["plan-motion", "--distance", "0.2", "--out", f"{tmp}/motion",
             "--quiet"]) == 0
print(scipy_loaded())
assert main(["run", "--spec", spec("t1_field_map"), "--out", f"{tmp}/t1",
             "--quiet"]) == 0
print(scipy_loaded())
with open(f"{tmp}/anchors.csv", "w") as fh:
    fh.write(anchors_to_csv(reference_anchors()))
assert main(["calibrate-field", "--anchors", f"{tmp}/anchors.csv",
             "--out", f"{tmp}/map.json", "--quiet"]) == 0
print(scipy_loaded())
assert main(["run", "--spec", spec("lac_plan", fieldmap={
    "anchors_file": "anchors.csv"}), "--out", f"{tmp}/lac_anchors",
             "--quiet"]) == 0
print(scipy_loaded())
"""


def _scipy_importers(node, where):
    """(module, function) of every scipy import under ``node``."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        names = [node.module or ""] if isinstance(node, ast.ImportFrom) else [
            a.name for a in node.names]
        if any(n.split(".")[0] == "scipy" for n in names):
            yield where
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = (where[0], node.name)
    for child in ast.iter_child_nodes(node):
        yield from _scipy_importers(child, where)


def test_only_fits_import_scipy_optimize(tmp_path):
    # the package imports no scipy: the T1 decay fit is a Brent root and
    # the solenoid fit of anchor calibration a numpy grid search and polish
    package = Path(fieldcycle.__file__).parent
    sites = {site for path in package.glob("*.py") for site in _scipy_importers(
        ast.parse(path.read_text()), (path.stem, None))}
    assert sites == set()
    # a fresh process: no verb loads any scipy module, T1 maps,
    # calibrate-field and an anchors-file spec included
    src = str(package.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    out = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"] * 4
