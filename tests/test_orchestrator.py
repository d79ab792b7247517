import csv
import json

import numpy as np
import pytest

from fieldcycle.errors import (FieldCycleError, SchemaViolation, UnknownKind,
                               UnsupportedVersion)
from fieldcycle.orchestrator import (derive_seed, parse_spec, run,
                                     simulate_sequence, spec_hash)
from fieldcycle.relaxometry import RelaxationModel, t1_of_field


def minimal(kind, **extra):
    doc = {"schema_version": 1, "kind": kind, "seed": 42}
    doc.update(extra)
    return doc


def test_parse_minimal_specs():
    for kind in ("shuttle_characterization", "lac_plan", "dnp_sweep",
                 "t1_field_map", "sequence_validation"):
        spec = parse_spec(minimal(kind))
        assert spec.kind == kind
        assert spec.seed == 42


def test_parse_missing_kind_names_path():
    with pytest.raises(SchemaViolation) as err:
        parse_spec({"schema_version": 1})
    assert err.value.path == "$.kind"


def test_parse_unknown_kind():
    with pytest.raises(UnknownKind):
        parse_spec(minimal("time_travel"))


def test_parse_unsupported_version():
    with pytest.raises(UnsupportedVersion):
        parse_spec({"schema_version": 2, "kind": "lac_plan"})


def test_parse_type_errors_name_paths():
    with pytest.raises(SchemaViolation) as err:
        parse_spec(minimal("lac_plan", lac={"targets_T": [0.051, "x"]}))
    assert "targets_T" in err.value.path
    with pytest.raises(SchemaViolation) as err:
        parse_spec(minimal("dnp_sweep", dnp={"nodes": 4}))
    assert err.value.path == "$.dnp.nodes"


def test_spec_hash_stable_under_key_reordering():
    a = {"schema_version": 1, "kind": "lac_plan", "seed": 1,
         "lac": {"targets_T": [0.051], "v_max": 2.0}}
    b = {"lac": {"v_max": 2.0, "targets_T": [0.051]}, "seed": 1,
         "kind": "lac_plan", "schema_version": 1}
    assert spec_hash(a) == spec_hash(b)


def test_derive_seed_module_separation():
    assert derive_seed(42, "motion") != derive_seed(42, "relaxometry")
    assert derive_seed(42, "motion") == derive_seed(42, "motion")


def test_run_lac_plan_values(tmp_path):
    spec = parse_spec(minimal("lac_plan"))
    record = run(spec, out_dir=tmp_path, quiet=True)
    assert record.status == "ok"
    assert "lac_plan.csv" in record.manifest
    rows = (tmp_path / "lac_plan.csv").read_text().strip().split("\n")[1:]
    es, gs = (dict(zip(("target", "z", "g", "res", "rate"),
                       map(float, r.split(",")))) for r in rows)
    assert es["res"] == pytest.approx(0.114e-4, rel=0.02)
    assert es["rate"] == pytest.approx(0.456, rel=0.02)
    assert gs["res"] == pytest.approx(0.303e-4, rel=0.02)
    assert gs["rate"] == pytest.approx(1.212, rel=0.02)


def test_run_shuttle_characterization_monotone(tmp_path):
    spec = parse_spec(minimal("shuttle_characterization",
                              shuttle={"velocities": [0.5, 1.0, 1.5, 2.0]}))
    record = run(spec, out_dir=tmp_path, quiet=True)
    assert record.status == "ok"
    rows = (tmp_path / "shuttle_durations.csv").read_text().strip().split("\n")[1:]
    durations = [float(r.split(",")[1]) for r in rows]
    assert all(b < a for a, b in zip(durations, durations[1:]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_shuttle_with_one_run_leaves_std_empty(tmp_path):
    spec = parse_spec(minimal("shuttle_characterization",
                              shuttle={"velocities": [2.0], "runs": 1}))
    run(spec, out_dir=tmp_path, quiet=True)
    with open(tmp_path / "shuttle_durations.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["std_realized_s"] == ""
    assert float(row["mean_realized_s"]) > 0.0


def test_run_t1_map_golden_values(tmp_path):
    # noiseless pipeline lands on the generating model's T1 values
    spec = parse_spec(minimal("t1_field_map",
                              t1={"fields_T": [0.008, 0.5, 7.0], "n_waits": 12}))
    record = run(spec, out_dir=tmp_path, quiet=True)
    assert record.status == "ok"
    rows = (tmp_path / "t1_map.csv").read_text().strip().split("\n")[1:]
    model = RelaxationModel()
    for row in rows:
        b, t1, beta, rms = map(float, row.split(","))
        assert t1 == pytest.approx(float(t1_of_field(b, model)), rel=1e-3)
    for b in (0.008, 0.5, 7.0):
        assert f"curve_B{b:g}T.csv" in record.manifest


def test_run_t1_records_fit_diagnostics(tmp_path):
    spec = parse_spec(minimal("t1_field_map",
                              t1={"fields_T": [0.5, 0.008], "n_waits": 12,
                                  "noise_sigma": 0.01}))
    run(spec, out_dir=tmp_path, quiet=True)
    fits = json.loads((tmp_path / "runrecord.json").read_text())
    fits = fits["diagnostics"]["t1_fits"]
    assert [d["B_T"] for d in fits] == [0.008, 0.5]
    with open(tmp_path / "t1_map.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for d, row in zip(fits, rows):
        assert d["residual_rms"] == float(row["residual_rms"])
        assert 0 < d["amplitude_stderr"] < 0.1
        assert 0 < d["T1_stderr_s"] < 0.1 * float(row["T1_s"])
    # failed fields carry their error text; result CSVs carry no stderr
    spec = parse_spec(minimal("t1_field_map",
                              t1={"fields_T": [0.1], "n_waits": 3}))
    run(spec, out_dir=tmp_path / "short", quiet=True)
    doc = json.loads((tmp_path / "short" / "runrecord.json").read_text())
    assert doc["diagnostics"]["t1_fits"] == [
        {"B_T": 0.1, "error": "need >= 4 points, got 3"}]
    assert "stderr" not in (tmp_path / "t1_map.csv").read_text()


def test_run_rerun_byte_identical(tmp_path):
    spec = parse_spec(minimal("t1_field_map",
                              t1={"fields_T": [0.1, 1.0], "n_waits": 8,
                                  "noise_sigma": 0.01}))
    run(spec, out_dir=tmp_path / "a", quiet=True)
    run(spec, out_dir=tmp_path / "b", quiet=True)
    for name in ("t1_map.csv", "curve_B0.1T.csv", "curve_B1T.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()


def test_run_sequence_validation_clean(tmp_path):
    spec = parse_spec(minimal("sequence_validation", sequence={"t_pol_s": 40.0}))
    record = run(spec, out_dir=tmp_path, quiet=True)
    assert record.status == "ok"
    assert record.violations == 0
    report = (tmp_path / "validation_report.csv").read_text()
    assert report.strip() == "code,event_ids,detail"


def test_simulate_sequence_event_log(tmp_path):
    spec = parse_spec(minimal("sequence_validation", sequence={"t_pol_s": 1.0}))
    record = simulate_sequence(spec, runs=5, out_dir=tmp_path, quiet=True)
    assert record.status == "ok"
    lines = (tmp_path / "event_log.csv").read_text().strip().split("\n")
    assert lines[0].startswith("run_id,channel,event")
    run_ids = {line.split(",")[0] for line in lines[1:]}
    assert run_ids == {"0", "1", "2", "3", "4"}


def test_simulate_sequence_records_jitter_diagnostics(tmp_path):
    spec = parse_spec(minimal("sequence_validation", sequence={"t_pol_s": 1.0}))
    draws = np.random.default_rng(derive_seed(42, "sequencer")).normal(
        0.0, 2.6e-3, size=5)
    simulate_sequence(spec, runs=5, out_dir=tmp_path, quiet=True)
    doc = json.loads((tmp_path / "runrecord.json").read_text())
    assert doc["diagnostics"]["shuttle_jitter"] == {
        "runs": 5, "mean_s": float(np.mean(draws)),
        "std_s": float(np.std(draws, ddof=1)),
        "min_s": float(np.min(draws)), "max_s": float(np.max(draws))}
    for runs, nulls in ((1, ["std_s"]), (0, ["mean_s", "std_s", "min_s", "max_s"])):
        simulate_sequence(spec, runs=runs, out_dir=tmp_path / str(runs), quiet=True)
        doc = json.loads((tmp_path / str(runs) / "runrecord.json").read_text())
        stats = doc["diagnostics"]["shuttle_jitter"]
        assert stats["runs"] == runs
        assert sorted(k for k, v in stats.items() if v is None) == sorted(nulls)
    assert (tmp_path / "0" / "event_log.csv").read_text().count("\n") == 1
    with pytest.raises(SchemaViolation, match="--runs"):
        simulate_sequence(spec, runs=-1, out_dir=tmp_path / "neg", quiet=True)


def test_failed_run_leaves_clean_record(tmp_path):
    # 1 nT relaxation field is below the map floor: numerical failure
    spec = parse_spec(minimal("t1_field_map", t1={"fields_T": [1e-9]}))
    with pytest.raises(FieldCycleError):
        run(spec, out_dir=tmp_path, quiet=True)
    record = json.loads((tmp_path / "runrecord.json").read_text())
    assert record["status"] == "failed"
    assert record["error"]
    assert record["metrics"]["total_s"] >= record["metrics"]["fieldmap_s"] > 0
    for name in record["manifest"]:
        assert (tmp_path / name).exists()
    assert "t1_map.csv" not in record["manifest"]


def test_t1_failures_csv_reads_back(tmp_path):
    # fit errors contain commas; the CSV must quote them
    spec = parse_spec(minimal("t1_field_map",
                              t1={"fields_T": [0.1, 0.5], "n_waits": 3}))
    run(spec, out_dir=tmp_path, quiet=True)
    with open(tmp_path / "t1_failures.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(float(r["B_T"]), r["error"]) for r in rows] == \
        [(0.1, "need >= 4 points, got 3"), (0.5, "need >= 4 points, got 3")]
    assert all(None not in r for r in rows)


def test_any_exception_is_recorded(tmp_path, monkeypatch):
    from fieldcycle import motion

    def broken(*args, **kwargs):
        raise RuntimeError("planner down")

    monkeypatch.setattr(motion, "plan", broken)
    spec = parse_spec(minimal("shuttle_characterization"))
    with pytest.raises(RuntimeError):
        run(spec, out_dir=tmp_path, quiet=True)
    record = json.loads((tmp_path / "runrecord.json").read_text())
    assert record["status"] == "failed"
    assert record["error"] == "RuntimeError: planner down"
    assert not list(tmp_path.glob(".tmp-*"))


def test_run_record_contents(tmp_path):
    spec = parse_spec(minimal("lac_plan"))
    record = run(spec, out_dir=tmp_path, quiet=True)
    doc = json.loads((tmp_path / "runrecord.json").read_text())
    assert doc["spec_hash"] == spec_hash(spec.doc)
    assert doc["seed"] == 42
    assert doc["tool_version"]
    assert doc["started_at"] <= doc["finished_at"]
    assert set(doc["manifest"]) == {"lac_plan.csv"}
    # stage wall times: the map load, the result writes, the rest of the
    # runner, the whole run
    m = doc["metrics"]
    assert sorted(m) == ["fieldmap_s", "kernel_s", "total_s", "write_s"]
    assert 0 < m["fieldmap_s"] and 0 < m["write_s"] and 0 < m["kernel_s"]
    assert m["fieldmap_s"] + m["kernel_s"] + m["write_s"] <= m["total_s"]
    assert record.metrics == m


@pytest.mark.parametrize("kind, block", [
    ("shuttle_characterization", {}), ("lac_plan", {}),
    ("dnp_sweep", {"dnp": {"nodes": 8, "sweep_rate_Hz_per_s": 3e10}}),
    ("t1_field_map", {}), ("sequence_validation", {})])
def test_stage_times_fit_in_the_total(tmp_path, kind, block):
    run(parse_spec(minimal(kind, **block)), out_dir=tmp_path, quiet=True)
    m = json.loads((tmp_path / "runrecord.json").read_text())["metrics"]
    assert min(m.values()) >= 0 and m["kernel_s"] > 0
    assert m["fieldmap_s"] + m["kernel_s"] + m["write_s"] <= m["total_s"]


def test_fieldmap_block_from_files(tmp_path):
    from fieldcycle.fieldmap import anchors_to_csv, reference_anchors, reference_map
    (tmp_path / "anchors.csv").write_text(anchors_to_csv(reference_anchors()))
    (tmp_path / "map.json").write_text(reference_map().to_json())
    for blk in ({"anchors_file": "anchors.csv"}, {"file": "map.json"}):
        doc = minimal("lac_plan", fieldmap=blk)
        spec = parse_spec(doc, base_dir=tmp_path)
        fmap = spec.fieldmap()
        assert fmap.field_at(0.0) == pytest.approx(7.0, rel=1e-6)
    with pytest.raises(SchemaViolation):
        parse_spec(minimal("lac_plan", fieldmap={})).fieldmap()


def test_anchor_calibration_is_recorded(tmp_path):
    from fieldcycle.fieldmap import FieldAnchor, anchors_to_csv, reference_anchors
    solenoid = [FieldAnchor("field_value", 7.0, position_m=0.0, tolerance_rel=1e-6),
                FieldAnchor("field_value", 0.05, position_m=0.6)]
    for name, anchors, model in (("ref", reference_anchors(), "monotone_spline"),
                                 ("sol", solenoid, "finite_solenoid")):
        (tmp_path / f"{name}.csv").write_text(anchors_to_csv(anchors))
        spec = parse_spec(minimal("lac_plan", lac={"targets_T": [0.051]},
                                  fieldmap={"anchors_file": f"{name}.csv"}),
                          base_dir=tmp_path)
        run(spec, out_dir=tmp_path / name, quiet=True)
        doc = json.loads((tmp_path / name / "runrecord.json").read_text())
        cal = doc["diagnostics"]["calibration"]
        assert cal["model"] == model
        assert len(cal["anchor_residuals"]) == len(anchors)
        assert all(abs(r) <= 1 for r in cal["anchor_residuals"])
        backbone = cal["backbone"]
        assert sorted(backbone) == ["anchor_residuals", "half_length_m", "radius_m"]
        assert len(backbone["anchor_residuals"]) == len(anchors)
        assert cal["grid_evaluations"] == 24 * 24 + 1
        assert cal["polish_evaluations"] > 0
    # the solenoid the reference anchors over-constrain misses three of them
    assert doc["diagnostics"]["calibration"]["model"] == "finite_solenoid"
    ref = json.loads((tmp_path / "ref" / "runrecord.json").read_text())
    misses = ref["diagnostics"]["calibration"]["backbone"]["anchor_residuals"]
    assert sum(abs(r) > 1 for r in misses) == 3
    # maps not calibrated here record nothing
    run(parse_spec(minimal("lac_plan")), out_dir=tmp_path / "plain", quiet=True)
    doc = json.loads((tmp_path / "plain" / "runrecord.json").read_text())
    assert "calibration" not in doc["diagnostics"]


def test_powder_nodes_run_in_order_on_one_thread(monkeypatch):
    import threading

    from fieldcycle import spin
    from fieldcycle.util import THREADS_ENV, thread_count
    for value in ("2", "0", "junk", "4"):  # the old worker cap is not read
        monkeypatch.setenv(THREADS_ENV, value)
        assert thread_count() == 1
    seen, propagate = [], spin.propagate_sweep

    def spy(system, sweep, **kwargs):
        seen.append((system.theta_rad, threading.get_ident()))
        return propagate(system, sweep, **kwargs)

    monkeypatch.setattr(spin, "propagate_sweep", spy)
    ensemble = spin.PowderEnsemble.gauss_legendre(8)
    res = spin.powder_average(spin.SpinSystem(1e6, 0.0, 0.010),
                              spin.SweepParams(sweep_rate_Hz_per_s=3e10),
                              ensemble)
    assert seen == [(t, threading.get_ident()) for t in ensemble.thetas]
    assert [t for t, _, _ in res.table] == list(ensemble.thetas)


def test_dnp_sweep_run(tmp_path):
    spec = parse_spec(minimal("dnp_sweep", dnp={"nodes": 8}))
    record = run(spec, out_dir=tmp_path, quiet=True)
    assert record.status == "ok"
    rows = (tmp_path / "dnp_sweep.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 8
    pols = [float(r.split(",")[2]) for r in rows]
    assert all(p < 0 for p in pols)
    summary = json.loads((tmp_path / "dnp_summary.json").read_text())
    assert summary["signs_uniform"] is True
    assert summary["integrator_steps"] > 0
    assert 0 < summary["max_error_estimate"] <= 1e-8
    weights = [float(r.split(",")[1]) for r in rows]
    assert sum(w * p for w, p in zip(weights, pols)) == \
        pytest.approx(summary["mean_polarization"], rel=1e-9)


def test_dnp_run_records_per_node_diagnostics(tmp_path):
    spec = parse_spec(minimal("dnp_sweep", dnp={
        "nodes": 9, "sweep_rate_Hz_per_s": 3e10}))
    assert run(spec, out_dir=tmp_path, quiet=True).status == "ok"
    nodes = json.loads((tmp_path / "runrecord.json").read_text())[
        "diagnostics"]["dnp_nodes"]
    summary = json.loads((tmp_path / "dnp_summary.json").read_text())
    rows = (tmp_path / "dnp_sweep.csv").read_text().strip().split("\n")[1:]
    assert len(nodes) == summary["nodes"] == 9
    assert [d["theta_rad"] for d in nodes] == [float(r.split(",")[0])
                                               for r in rows]
    assert sum(d["n_steps"] for d in nodes) == summary["integrator_steps"]
    assert max(d["error_estimate"] for d in nodes) == \
        summary["max_error_estimate"]


def test_dnp_run_records_its_work(tmp_path):
    # the work of an 8-node default powder, in counts no machine changes:
    # a change that moves one says so (before the flat-top frame tables, the
    # same 18,829 steps took 5,814 exponentials)
    spec = parse_spec(minimal("dnp_sweep", dnp={"nodes": 8}))
    assert run(spec, out_dir=tmp_path, quiet=True).status == "ok"
    nodes = json.loads((tmp_path / "runrecord.json").read_text())[
        "diagnostics"]["dnp_nodes"]
    assert sum(d["n_steps"] for d in nodes) == 18829
    assert sum(d["exponentials"] for d in nodes) == 4386
    assert sum(d["exact_frames"] for d in nodes) == 0
