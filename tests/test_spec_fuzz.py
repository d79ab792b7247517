"""Seeded spec fuzzing: mutated specs end in a documented exit code, never in
an exception, and every run that got past parsing leaves a runrecord.json."""

import copy
import json
import random

import pytest

from fieldcycle.cli import main

BASES = [
    {"schema_version": 1, "kind": "shuttle_characterization", "seed": 3,
     "motion": {"v_max": 2.0, "a_max": 30.0},
     "shuttle": {"distance_m": 1.1627, "velocities": [0.5, 2.0],
                 "jitter_sigma_s": 0.0026, "runs": 20}},
    {"schema_version": 1, "kind": "lac_plan", "seed": 1,
     "lac": {"targets_T": [0.051, 0.102], "precision_m": 5e-5, "v_max": 2.0}},
    # 8 nodes at 3e10 Hz/s keep each DNP run near 0.1 s
    {"schema_version": 1, "kind": "dnp_sweep", "seed": 1,
     "dnp": {"hyperfine_Hz": 1e6, "B_pol_T": 0.01, "nodes": 8,
             "mw_rabi_Hz": 6e4, "sweep_rate_Hz_per_s": 3e10, "n_sweeps": 1}},
    {"schema_version": 1, "kind": "t1_field_map", "seed": 5,
     "t1": {"fields_T": [0.1, 1.0], "n_waits": 6, "wait_span": [0.2, 2.0],
            "noise_sigma": 0.01, "B_pol_T": 0.008,
            "relaxation": {"T1_max_s": 395.7, "T1_min_s": 10.19,
                           "B_knee_T": 0.5, "exponent": 2}}},
    {"schema_version": 1, "kind": "sequence_validation", "seed": 7,
     "fieldmap": "reference",
     "sequence": {"t_pol_s": 2.0, "B_start_T": 0.008, "B_end_T": 7.0,
                  "cryo": {"eject_duration_s": 1.0, "cold_delay_s": 3.5},
                  "latencies": {"nmr_acquire": 0.001},
                  "jitter_sigma_s": 0.0026}},
]
PER_BASE = 14

# (spec, JSON path the error must name); each exits 3.  A range check of a
# layer dataclass names the key that fails it alone, and the block only when
# keys fail together.
FIXED = [
    ({"kind": "shuttle_characterization", "motion": {"v_max": -1}},
     "$.motion.v_max"),
    ({"kind": "shuttle_characterization", "shuttle": {"runs": "x"}},
     "$.shuttle.runs"),
    ({"kind": "t1_field_map", "t1": {"wait_span": [1]}}, "$.t1.wait_span"),
    ({"kind": "dnp_sweep", "dnp": {"n_sweeps": 0}}, "$.dnp.n_sweeps"),
    ({"kind": "lac_plan", "lac": {"v_max": "fast"}}, "$.lac.v_max"),
    ({"kind": "t1_field_map", "t1": {"relaxation": {"T1_min_s": 500}}},
     "$.t1.relaxation.T1_min_s"),
    ({"kind": "sequence_validation", "sequence": {"jitter_sigma_s": -1e-3}},
     "$.sequence.jitter_sigma_s"),
    ({"kind": "shuttle_characterization", "shuttle": {"jitter_sigma_s": -1}},
     "$.shuttle.jitter_sigma_s"),
    ({"kind": "dnp_sweep", "dnp": {"B_pol_T": -0.01}}, "$.dnp.B_pol_T"),
    ({"kind": "lac_plan", "motion": {"a_max": 30.0, "precision_m": 2.0}},
     "$.motion.precision_m"),
    ({"kind": "t1_field_map",
      "t1": {"relaxation": {"T1_min_s": 300.0, "T1_max_s": 200.0}}},
     "$.t1.relaxation"),
    # move lengths and speeds, checked against the motion block's limits
    ({"kind": "shuttle_characterization", "shuttle": {"distance_m": -1}},
     "$.shuttle.distance_m"),
    ({"kind": "shuttle_characterization", "motion": {"travel_range_m": 1.0},
      "shuttle": {"distance_m": 1.1}}, "$.shuttle.distance_m"),
    ({"kind": "shuttle_characterization", "motion": {"travel_range_m": 1.0}},
     "$.shuttle.distance_m"),  # the default distance, 1.1627 m
    ({"kind": "shuttle_characterization", "shuttle": {"velocities": [1.0, 2.5]}},
     "$.shuttle.velocities[1]"),
    ({"kind": "shuttle_characterization", "motion": {"v_max": 1.0},
      "shuttle": {"velocities": [1.5]}}, "$.shuttle.velocities[0]"),
    ({"kind": "sequence_validation", "sequence": {"shuttle_distance_m": -0.1}},
     "$.sequence.shuttle_distance_m"),
    ({"kind": "sequence_validation", "sequence": {"shuttle_distance_m": 1.7}},
     "$.sequence.shuttle_distance_m"),
    ({"kind": "sequence_validation", "motion": {"travel_range_m": 1.0}},
     "$.sequence.shuttle_distance_m"),  # null: 1.1627 m between the fields
    # keys the schema does not read, which runrecord.json would copy as
    # non-standard JSON (json.dumps writes NaN and Infinity)
    ({"kind": "lac_plan", "note": float("nan"), "lac": {"targets_T": [0.051]}},
     "$"),
    ({"kind": "lac_plan", "lac": {"targets_T": [0.051], "note": float("inf")}},
     "$"),
]
# field-map files that cannot be loaded: exit 3 after a run record is opened
MAP_FIELDS = {"schema": 1, "domain_m": [0.0, 1.6], "travel_range_m": 1.6,
              "center_separation_m": 0.83, "floor_T": 0.001}
BAD_MAPS = [
    ("file", "missing.json", None),
    ("file", "schema2.json", {"schema": 2}),
    ("file", "schema1.json", {"schema": 1}),
    # schema 1 maps whose params do not evaluate
    ("file", "no_params.json",
     {**MAP_FIELDS, "model": "finite_solenoid", "params": {}}),
    ("file", "short_knots.json",
     {**MAP_FIELDS, "model": "monotone_spline", "params": {"knots": [[0.0, 7.0]]}}),
    ("file", "one_knot.json",
     {**MAP_FIELDS, "model": "monotone_spline", "params": {"knots": [[0.0, 7.0, -1.0]]}}),
    ("file", "unknown_model.json",
     {**MAP_FIELDS, "model": "dipole", "params": {"b0_T": 7.0}}),
    ("anchors_file", "anchors.csv",
     "kind,position_m,field_T,gradient_T_per_m,tolerance_rel\n"
     "field_value,0.0,abc,,1e-06\n"),
]


def _paths(doc, prefix=()):
    for key, val in doc.items():
        yield prefix + (key,)
        if isinstance(val, dict):
            yield from _paths(val, prefix + (key,))


def _mutations(doc):
    """Every (label, mutated document) pair for one valid base spec."""
    for path in _paths(doc):
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        val = parent[path[-1]]
        new = {"missing": None,
               "wrong_type": {} if isinstance(val, (str, list)) else "x"}
        if isinstance(val, (int, float)) and not isinstance(val, bool):
            new["negative"] = -abs(val) or -1
            new["bool_for_number"] = True
        if isinstance(val, list):
            new["short_list"] = val[:-1]
            new["negative"] = [-abs(v) for v in val]
        for label, value in new.items():
            mutated = copy.deepcopy(doc)
            target = mutated
            for key in path[:-1]:
                target = target[key]
            if label == "missing":
                del target[path[-1]]
            else:
                target[path[-1]] = value
            yield f"{'.'.join(path)}:{label}", mutated


def _cases():
    rng = random.Random(20261017)
    cases = []
    for base in BASES:
        muts = list(_mutations(base))
        cases += rng.sample(muts, min(PER_BASE, len(muts)))
    return cases


def _run(tmp_path, name, doc):
    spec = tmp_path / f"{name}.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / f"out-{name}"
    return main(["--quiet", "run", "--spec", str(spec), "--out", str(out)]), out


def test_fuzzed_specs_exit_cleanly_with_records(tmp_path):
    for i, (label, doc) in enumerate(_cases()):
        rc, out = _run(tmp_path, f"m{i}", doc)
        assert rc in (0, 2, 3, 4), label
        if rc != 3:
            assert (out / "runrecord.json").exists(), label


@pytest.mark.parametrize("doc,path", FIXED)
def test_reproduced_bad_specs_are_schema_errors(tmp_path, capsys, doc, path):
    rc, _ = _run(tmp_path, "bad", {"schema_version": 1, **doc})
    assert rc == 3
    assert f"{path}:" in capsys.readouterr().err


@pytest.mark.parametrize("key,name,content", BAD_MAPS)
def test_unloadable_map_files_are_schema_errors(tmp_path, capsys, key, name,
                                                content):
    if content is not None:
        text = content if isinstance(content, str) else json.dumps(content)
        (tmp_path / name).write_text(text)
    doc = {"schema_version": 1, "kind": "lac_plan", "fieldmap": {key: name}}
    rc, out = _run(tmp_path, "map", doc)
    assert rc == 3
    assert f"$.fieldmap.{key}:" in capsys.readouterr().err
    record = json.loads((out / "runrecord.json").read_text())
    assert record["status"] == "failed" and record["manifest"] == []
