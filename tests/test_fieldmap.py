import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

import fieldcycle.fieldmap as fm

from fieldcycle.errors import (FieldNotReachable, NoConvergence,
                               NonMonotonicModel, OutOfDomain)
from fieldcycle.fieldmap import (FieldAnchor, FieldMap, anchors_from_csv,
                                 anchors_to_csv, calibrate, reference_anchors)
from fieldcycle.fieldmap import _solenoid_field
from fieldcycle.util import _brentq


def known_solenoid(b0=7.0, half_length=0.3, radius=0.12):
    return {"b0_T": b0, "half_length_m": half_length, "radius_m": radius}


def test_calibrate_round_trip_recovers_solenoid_params():
    # oracle: generate anchors from a known model, refit, compare parameters
    p = known_solenoid()
    anchors = [
        FieldAnchor("field_value", _solenoid_field(z, **{
            "b0": p["b0_T"], "half_length": p["half_length_m"], "radius": p["radius_m"]}),
            position_m=z, tolerance_rel=1e-5)
        for z in (0.0, 0.2, 0.4, 0.6, 0.8)
    ]
    fmap = calibrate(anchors, model_kind="finite_solenoid")
    assert fmap.model == "finite_solenoid"
    assert fmap.params["b0_T"] == p["b0_T"]
    assert fmap.params["half_length_m"] == pytest.approx(p["half_length_m"], rel=1e-4)
    assert fmap.params["radius_m"] == pytest.approx(p["radius_m"], rel=1e-4)


def test_calibrate_single_center_anchor_forces_center_value():
    fmap = calibrate([FieldAnchor("field_value", 7.0, position_m=0.0,
                                  tolerance_rel=1e-6)],
                     model_kind="finite_solenoid")
    assert fmap.field_at(0.0) == 7.0


def test_calibrate_requires_center_anchor():
    with pytest.raises(ValueError):
        calibrate([FieldAnchor("field_value", 3.0, position_m=0.5)])


def test_reference_anchor_residuals_under_5_percent(ref_map):
    from fieldcycle.fieldmap import _anchor_residual
    for a in reference_anchors():
        assert abs(_anchor_residual(ref_map, a)) < 0.05


def test_reference_map_over_constrains_solenoid():
    with pytest.raises(NoConvergence):
        calibrate(reference_anchors(), model_kind="finite_solenoid")


def test_field_at_center_and_monotonicity(ref_map):
    assert ref_map.field_at(0.0) == pytest.approx(7.0, rel=1e-6)
    z = np.linspace(*ref_map.domain_m, 20001)
    b = ref_map.field_at(z)
    assert np.all(np.diff(b) < 0)
    assert np.all(b > 0)


def test_field_between_spline_knots_brackets_by_knot_values(ref_map):
    knots = ref_map.params["knots"]
    for (z1, b1, _), (z2, b2, _) in zip(knots[:20], knots[1:21]):
        zs = np.linspace(z1, z2, 50)[1:-1]
        bs = ref_map.field_at(zs)
        assert np.all(bs < b1) and np.all(bs > b2)


def test_gradient_matches_central_finite_difference_solenoid():
    fmap = calibrate([FieldAnchor("field_value", 7.0, position_m=0.0,
                                  tolerance_rel=1e-6)],
                     model_kind="finite_solenoid")
    h = 1e-5
    for z in (0.05, 0.2, 0.5, 0.9, 1.3):
        fd = (fmap.field_at(z + h) - fmap.field_at(z - h)) / (2 * h)
        assert fmap.gradient_at(z) == pytest.approx(fd, rel=1e-6)


def test_gradient_sign_constant(ref_map):
    z = np.linspace(0.01, ref_map.domain_m[1] - 0.01, 2000)
    g = ref_map.gradient_at(z)
    assert np.all(g < 0)


def test_inversion_identities(ref_map):
    z51 = ref_map.position_of_field(0.051)
    assert ref_map.field_at(z51) == pytest.approx(0.051, rel=1e-9)
    assert ref_map.position_of_field(7.0) == pytest.approx(0.0, abs=1e-9)
    # round trip over a dense grid
    for z in np.linspace(0.0, ref_map.domain_m[1], 300):
        zr = ref_map.position_of_field(float(ref_map.field_at(z)))
        assert abs(zr - z) <= 1e-9 * (1 + abs(z))


def test_dnp_point_inside_shield_region(ref_map):
    z8 = ref_map.position_of_field(0.008)
    z_low = ref_map.position_of_field(0.030)
    assert z8 > z_low  # beyond the 30 mT shield entry


def test_out_of_domain_and_unreachable(ref_map):
    with pytest.raises(OutOfDomain):
        ref_map.field_at(ref_map.domain_m[1] + 0.1)
    with pytest.raises(OutOfDomain):
        ref_map.gradient_at(-0.5)
    with pytest.raises(FieldNotReachable):
        ref_map.position_of_field(8.0)
    with pytest.raises(FieldNotReachable):
        ref_map.position_of_field(1e-5)


def test_lac_plan_values_and_identity(ref_map):
    es = ref_map.plan_lac_access(0.051, precision_m=50e-6, v_max=2.0)
    assert es.resolution_T == pytest.approx(0.114e-4, rel=0.02)
    assert es.max_sweep_rate_T_per_s == pytest.approx(0.458, rel=0.02)
    gs = ref_map.plan_lac_access(0.102, precision_m=50e-6, v_max=2.0)
    assert gs.resolution_T == pytest.approx(0.303e-4, rel=0.02)
    assert gs.max_sweep_rate_T_per_s == pytest.approx(1.21, rel=0.02)
    # algebraic identity between the two definitions
    for p in (es, gs):
        assert p.max_sweep_rate_T_per_s == pytest.approx(
            p.resolution_T / 50e-6 * 2.0, rel=1e-12)
    zero = ref_map.plan_lac_access(0.051, v_max=0.0)
    assert zero.max_sweep_rate_T_per_s == 0.0


def test_calibration_deterministic():
    m1 = calibrate(reference_anchors())
    m2 = calibrate(reference_anchors())
    assert m1.params == m2.params


def test_json_round_trip(ref_map):
    text = ref_map.to_json()
    doc = json.loads(text)
    assert doc["schema"] == 1
    clone = FieldMap.from_json(text)
    z = np.linspace(0.0, 1.6, 500)
    assert np.array_equal(clone.field_at(z), ref_map.field_at(z))
    assert clone.domain_m == ref_map.domain_m


def test_params_are_read_only(ref_map):
    text = ref_map.to_json()
    with pytest.raises(TypeError):
        ref_map.params["knots"][0][1] = 99.0
    with pytest.raises(TypeError):
        ref_map.params["knots"] = []
    assert ref_map.to_json() == text
    assert FieldMap.from_json(text).field_at(0.0) == 7.0


def test_json_rejects_unknown_schema(ref_map):
    doc = json.loads(ref_map.to_json())
    doc["schema"] = 99
    with pytest.raises(ValueError):
        FieldMap.from_json(json.dumps(doc))


def test_anchor_csv_round_trip():
    anchors = reference_anchors()
    text = anchors_to_csv(anchors)
    back = anchors_from_csv(text)
    assert back == anchors


def test_anchor_csv_bytes():
    # the anchor file format, byte for byte: empty cells for None, repr floats
    assert anchors_to_csv(reference_anchors()) == (
        "kind,position_m,field_T,gradient_T_per_m,tolerance_rel\n"
        "field_value,0.0,7.0,,1e-06\n"
        "gradient_at_field,,0.051,-0.228,0.01\n"
        "gradient_at_field,,0.102,-0.606,0.01\n"
        "field_value,,0.03,,0.2\n"
        "field_value,1.1627,0.008,,0.1\n")
    bare = FieldAnchor("field_value", 0.03, tolerance_rel=0.2)
    assert anchors_to_csv([bare]) == (
        "kind,position_m,field_T,gradient_T_per_m,tolerance_rel\n"
        "field_value,,0.03,,0.2\n")


def test_anchor_csv_empty_cells():
    text = ("kind,position_m,field_T,gradient_T_per_m,tolerance_rel\n"
            "field_value,,0.03,,0.2\n")
    (a,) = anchors_from_csv(text)
    assert a.position_m is None and a.gradient_T_per_m is None


def test_anchor_validation():
    with pytest.raises(ValueError):
        FieldAnchor("field_value", -1.0)
    with pytest.raises(ValueError):
        FieldAnchor("gradient_at_field", 0.05)  # gradient missing
    with pytest.raises(ValueError):
        FieldAnchor("bogus", 0.05)


def test_non_monotone_anchors_rejected():
    anchors = [
        FieldAnchor("field_value", 7.0, position_m=0.0, tolerance_rel=1e-6),
        FieldAnchor("field_value", 0.5, position_m=0.4, tolerance_rel=1e-6),
        FieldAnchor("field_value", 2.0, position_m=0.8, tolerance_rel=1e-6),
    ]
    with pytest.raises((NonMonotonicModel, NoConvergence)):
        calibrate(anchors, model_kind="monotone_spline")


def test_floor_clamp_and_shield_flag():
    # hand-built spline dipping below the floor inside the domain
    knots = [[0.0, 7.0, -20.0], [0.5, 0.05, -0.3], [1.0, 0.002, -0.004],
             [1.5, 0.0002, -0.0002]]
    fmap = FieldMap(model="monotone_spline", params={"knots": knots},
                    domain_m=(0.0, 1.5), floor_T=1e-3)
    assert fmap.field_at(1.5) == 1e-3  # clamped
    assert fmap.field_at(1.45) == 1e-3 and fmap.gradient_at(1.45) == 0.0
    assert fmap.field_at(0.2) > 1e-3 and fmap.gradient_at(0.2) < 0.0
    with pytest.raises(FieldNotReachable):
        fmap.position_of_field(5e-4)


@pytest.mark.parametrize("knots", [
    [[0.0, 7.0, -1.0]],
    [[0.0, 7.0, -1.0], [0.0, 1.0, -1.0]],
    [[0.5, 7.0, -1.0], [0.2, 1.0, -1.0]],
], ids=["one-knot", "repeated-z", "decreasing-z"])
def test_spline_rejects_bad_knots_before_evaluating(knots):
    with pytest.raises(ValueError, match="strictly increasing knots"):
        FieldMap(model="monotone_spline", params={"knots": knots})


def test_frozen_reference_map_matches_calibration():
    # the shipped map is the calibration of the reference anchors, byte for
    # byte: regenerate it when the anchors, the fit or scipy change
    frozen = Path(fm.__file__).with_name("reference_map.json").read_text()
    assert frozen == calibrate(reference_anchors()).to_json()


def test_reference_map_rejects_a_frozen_map_that_misses_anchors(monkeypatch,
                                                                 tmp_path):
    doc = json.loads(fm.reference_map().to_json())
    doc["params"]["knots"][0][1] = 7.1  # the center anchor is 7 T
    bad = tmp_path / "reference_map.json"
    bad.write_text(json.dumps(doc))
    monkeypatch.setattr(fm, "_REFERENCE_MAP_FILE", bad)
    fm.reference_map.cache_clear()
    try:
        with pytest.raises(NoConvergence, match="frozen reference"):
            fm.reference_map()
    finally:
        fm.reference_map.cache_clear()


def test_brentq_port_is_bit_identical_to_scipy(ref_map):
    rng = np.random.default_rng(5)
    bmin, bmax = ref_map.field_range()
    lo = float(_solenoid_field(1.6, 7.0, 0.3, 0.12))
    cases = [(lambda z, b=float(b): ref_map._model_field(z) - b)
             for b in np.exp(rng.uniform(np.log(bmin), np.log(bmax), 600))]
    cases += [(lambda z, b=float(b): _solenoid_field(z, 7.0, 0.3, 0.12) - b)
              for b in np.exp(rng.uniform(np.log(lo), np.log(7.0), 600))]
    for f in cases:
        assert _brentq(f, 0.0, 1.6) == brentq(f, 0.0, 1.6, xtol=1e-14, rtol=8.9e-16)


def test_brentq_raises_without_a_bracket_or_convergence():
    with pytest.raises(ValueError):
        _brentq(lambda z: z + 1.0, 0.0, 1.0)
    with pytest.raises(NoConvergence):
        _brentq(lambda z: float("nan") if 0 < z < 1 else z - 0.5, 0.0, 1.0)


def test_replaced_map_evaluates_its_own_knots(ref_map):
    ref_map.position_of_field(0.051)  # the shared map's memo is warm
    doubled = replace(ref_map, params={
        "knots": [[z, 2 * b, 2 * m] for z, b, m in ref_map.params["knots"]]})
    assert doubled._positions == {}
    assert doubled._spline is not ref_map._spline
    assert float(doubled.field_at(0.5)) == 2 * float(ref_map.field_at(0.5))
    # the doubled field crosses 0.102 T where the reference crosses 0.051 T
    assert doubled.position_of_field(0.102) == ref_map.position_of_field(0.051)
    assert replace(doubled, params=ref_map.params).field_at(0.5) == \
        ref_map.field_at(0.5)


def test_position_memo_is_bit_identical_and_skips_failures(ref_map, monkeypatch):
    targets = [0.008, 0.03, 0.051, 0.102, 1.5, 7.0]
    fresh = lambda: FieldMap.from_json(ref_map.to_json())  # noqa: E731
    cold = [fresh().position_of_field(b) for b in targets]
    fmap = fresh()
    first = [fmap.position_of_field(b) for b in targets]
    assert list(fmap._positions) == targets
    warm = [fmap.position_of_field(b) for b in targets]
    assert cold == first == warm
    for bad in (8.0, 5e-4, float("nan")):
        with pytest.raises(FieldNotReachable):
            fmap.position_of_field(bad)
    assert list(fmap._positions) == targets
    monkeypatch.setattr(fm, "_MEMO_SIZE", 4)
    small = fresh()
    assert [small.position_of_field(b) for b in targets] == cold
    assert list(small._positions) == targets[2:]
