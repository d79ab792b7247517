import json

import pytest

from fieldcycle.cli import main


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
