import hashlib
import importlib.util
import json
import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq, least_squares

import fieldcycle.fieldmap as fm

from fieldcycle.errors import (FieldNotReachable, NoConvergence,
                               NonMonotonicModel, OutOfDomain)
from fieldcycle.fieldmap import (FieldAnchor, FieldMap, anchors_from_csv,
                                 anchors_to_csv, calibrate, reference_anchors)
from fieldcycle.fieldmap import _HermiteSpline, _Solenoid
from fieldcycle.util import _brentq


def known_solenoid(b0=7.0, half_length=0.3, radius=0.12):
    return {"b0_T": b0, "half_length_m": half_length, "radius_m": radius}


def test_calibrate_round_trip_recovers_solenoid_params():
    # oracle: generate anchors from a known model, refit, compare parameters
    p = known_solenoid()
    anchors = [
        FieldAnchor("field_value", _Solenoid(
            p["b0_T"], p["half_length_m"], p["radius_m"])(z),
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


def _fuzz_sets(n):
    """The reference anchors and the first ``n`` random sets of
    tools/calibration_fuzz.py."""
    path = Path(__file__).parents[1] / "tools" / "calibration_fuzz.py"
    spec = importlib.util.spec_from_file_location("calibration_fuzz", path)
    fuzz = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fuzz)
    return fuzz.anchor_sets(fm, n)


def test_calibration_is_bit_identical_across_calls():
    for anchors in _fuzz_sets(30):
        try:
            first = calibrate(anchors)
        except (NoConvergence, NonMonotonicModel, FieldNotReachable) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                calibrate(anchors)
            continue
        again = calibrate(anchors)
        assert again.to_json() == first.to_json()
        assert again.calibration == first.calibration


def _trf_cost(fit):
    """Weighted cost of the solenoid scipy's bounded TRF fits from the
    far-field (dipole) start and with the tolerances the solenoid fit used
    before its grid search."""
    anchors, b0 = fit.anchors, fit.b0
    x0 = (0.12, 0.12)
    for a in anchors:
        if a.kind == "field_value" and a.position_m and a.position_m > 0:
            c = (a.field_T * a.position_m ** 3 / (math.sqrt(2.0) * b0)) ** (1 / 3)
            x0 = (min(max(c, 2e-3), 1.5),) * 2
            break
    resid = lambda x: fit._residuals(x[0], x[1])[0]  # noqa: E731
    sol = least_squares(resid, x0, bounds=fm._PARAM_BOUNDS, max_nfev=500,
                        xtol=1e-10, ftol=1e-10, gtol=1e-10)
    r = resid(sol.x)
    return 0.5 * float(r @ r)


def test_solenoid_fit_costs_no_more_than_scipy_trf():
    # the backbone is the lowest-cost geometry: never costlier than TRF's
    # local fit, but for rounding (an exact fit costs at most 1e-18,
    # residuals of 1e-9 of the tolerances)
    for anchors in _fuzz_sets(50):
        fit = fm._SolenoidFit(anchors, 7.0)
        res = fit.residuals[0]
        cost = 0.5 * float(res @ res)
        assert cost <= max(_trf_cost(fit) * (1 + 1e-9), 1e-18)


def test_fit_and_map_evaluate_one_solenoid():
    # the fit scores a geometry by the map it becomes: positioned field
    # residuals bit for bit, and gradient anchors' positions within the
    # inversion's stopping tolerance (the field's rounding over the slope)
    # plus _brentq's absolute tolerance
    rows = 0
    for anchors in _fuzz_sets(100):
        fit = fm._SolenoidFit(anchors, 7.0)
        sloped = [a for a in anchors if a.kind == "gradient_at_field"]
        for i, (h, r) in enumerate(fit.geometries.tolist()):
            fmap = fit.map(i)
            for a, row in zip(anchors, fit.residuals[i].tolist()):
                if a.kind == "field_value" and a.position_m is not None:
                    assert row == fm._anchor_residual(fmap, a) / a.tolerance_rel
                    rows += 1
            _, pos = fit._residuals(np.array([h]), np.array([r]))
            noise = 4 * np.finfo(float).eps * 7.0 / fmap._model.s0
            for a, z in zip(sloped, pos[:, 0].tolist()):
                if math.isnan(z):  # out of the solenoid's reach
                    continue
                expected = fmap.position_of_field(a.field_T)
                slope = abs(float(fmap._model.derivative(expected)))
                assert abs(z - expected) <= noise / slope + 1e-14
    assert rows > 200


@pytest.mark.parametrize("index, backbone", [(331, 2), (782, 1)])
def test_spline_falls_back_to_a_costlier_backbone(index, backbone):
    # the lowest-cost solenoid places these anchors out of order; the
    # spline is built on the first fitted geometry that meets every anchor
    anchors = _fuzz_sets(800)[index]
    fit = fm._SolenoidFit(anchors, 7.0)
    with pytest.raises(NonMonotonicModel):
        fm._spline_from_anchors(anchors, fit.map(0))
    fmap = calibrate(anchors)
    assert fmap.model == "monotone_spline"
    assert fm._misfit(fmap, anchors, "spline") is None
    used = fmap.calibration["backbone"]
    assert [used["half_length_m"], used["radius_m"]] == \
        fit.geometries[backbone].tolist()
    assert used["anchor_residuals"] == fit.residuals[backbone].tolist()


def test_json_round_trip(ref_map):
    text = ref_map.to_json()
    doc = json.loads(text)
    assert doc["schema"] == 1
    clone = FieldMap.from_json(text)
    z = np.linspace(0.0, 1.6, 500)
    assert np.array_equal(clone.field_at(z), ref_map.field_at(z))
    assert clone.domain_m == ref_map.domain_m


def test_map_files_with_the_old_unread_keys_load_unchanged():
    # the reference map as written while maps still carried travel_range_m
    # and center_separation_m: the same map, bit for bit
    text = Path(fm.__file__).with_name("reference_map.json").read_text()
    doc = json.loads(text)
    assert "travel_range_m" not in doc and "center_separation_m" not in doc
    old_text = json.dumps({**doc, "travel_range_m": 1.6,
                           "center_separation_m": 0.83}, indent=2, sort_keys=True)
    assert hashlib.sha256(old_text.encode()).hexdigest() == (
        "7fa18ebefbf89c273098c533aa8d720199c88c4c049ec313884c1b448789868e")
    old, new = FieldMap.from_json(old_text), FieldMap.from_json(text)
    assert old == new and old.to_json() == text
    z = np.linspace(0.0, 1.6, 2001)
    assert np.array_equal(old.field_at(z), new.field_at(z))
    for b in np.geomspace(*new.field_range(), 300):
        assert old.position_of_field(float(b)) == new.position_of_field(float(b))


def test_params_are_read_only(ref_map):
    text = ref_map.to_json()
    with pytest.raises(TypeError):
        ref_map.params["knots"][0][1] = 99.0
    with pytest.raises(TypeError):
        ref_map.params["knots"] = []
    assert ref_map.to_json() == text
    assert FieldMap.from_json(text).field_at(0.0) == 7.0
    # the spline's knot arrays, which its float path copies, are read-only too
    spline = ref_map._model
    for knots in (spline.z, spline.b, spline.m):
        with pytest.raises(ValueError, match="read-only"):
            knots[0] = 99.0
    assert ref_map.to_json() == text


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
    # an anchor file may spell nan or inf; none reaches the fit
    for bad in ({"field_T": math.nan}, {"field_T": math.inf},
                {"position_m": math.nan}, {"gradient_T_per_m": -math.inf},
                {"tolerance_rel": math.nan}):
        with pytest.raises(ValueError, match="finite"):
            FieldAnchor(**{"kind": "gradient_at_field", "field_T": 0.1,
                           "gradient_T_per_m": -1.0, **bad})
    # nor does a position off the map (1e300 m overflowed the spline build)
    for z in (-0.5, 1.7, 1e300):
        with pytest.raises(ValueError, match="domain"):
            calibrate([FieldAnchor("field_value", 7.0, position_m=0.0),
                       FieldAnchor("field_value", 0.1, position_m=z)])


def test_non_monotone_anchors_rejected():
    anchors = [
        FieldAnchor("field_value", 7.0, position_m=0.0, tolerance_rel=1e-6),
        FieldAnchor("field_value", 0.5, position_m=0.4, tolerance_rel=1e-6),
        FieldAnchor("field_value", 2.0, position_m=0.8, tolerance_rel=1e-6),
    ]
    with pytest.raises((NonMonotonicModel, NoConvergence)):
        calibrate(anchors, model_kind="monotone_spline")


@pytest.mark.parametrize("kind", ["reference", "two-knot", "calibrated"])
def test_float_spline_value_is_bit_identical_to_the_array_path(kind, ref_map):
    spline = {"reference": lambda: ref_map._model,
              "two-knot": lambda: _HermiteSpline([0.0, 1.6], [7.0, 1e-3],
                                                 [-20.0, -1e-3]),
              "calibrated": lambda: calibrate(reference_anchors())._model}[kind]()
    rng = np.random.default_rng(2026)
    lo, hi = ref_map.domain_m
    x = [*spline.z.tolist(), lo, hi, -0.25, 2.0,
         *rng.uniform(lo, hi, 20000).tolist()]
    assert [spline.value(v) for v in x] == [float(spline(v)) for v in x]


def test_field_at_an_array_is_bit_identical_to_point_by_point(ref_map):
    # a position gets the same field alone as inside an array, so the B_T
    # column of trajectory.csv agrees with position_of_field's map
    rng = np.random.default_rng(2026)
    lo, hi = ref_map.domain_m
    z = rng.uniform(lo, hi, 20000)
    assert ref_map.field_at(z).tolist() == [float(ref_map.field_at(v))
                                            for v in z.tolist()]


def test_float_solenoid_value_is_bit_identical_to_the_array_path():
    # math.sqrt and np.sqrt both round correctly, so the float path that
    # inverts solenoid maps gives the array path's bits
    rng = np.random.default_rng(2027)
    for h, r in np.exp(rng.uniform(np.log(1e-3), np.log(2.0), (40, 2))).tolist():
        fmap = FieldMap(model="finite_solenoid",
                        params=known_solenoid(half_length=h, radius=r))
        z = [0.0, 1.6, h, *rng.uniform(0.0, 1.6, 500).tolist()]
        assert [fmap._model.value(v) for v in z] == [
            float(fmap._model(v)) for v in z]


@pytest.mark.parametrize("key", ["half_length_m", "radius_m"])
@pytest.mark.parametrize("bad", [0.0, -0.1, math.nan, math.inf])
def test_a_degenerate_solenoid_geometry_is_rejected_by_key(key, bad):
    params = {**known_solenoid(), key: bad}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any arithmetic
        with pytest.raises(ValueError, match=f"finite_solenoid {key} must"):
            FieldMap(model="finite_solenoid", params=params)


def _bracket(fmap, b):
    """The domain, or on a spline the knot segment whose fields straddle
    ``b``, clipped to the domain."""
    lo, hi = fmap.domain_m
    if fmap.model == "finite_solenoid":
        return lo, hi
    z, fields = fmap._model.z, fmap._model.b
    i = int(np.clip(np.searchsorted(-fields, -b, side="right"), 1, len(z) - 1))
    return max(float(z[i - 1]), lo), min(float(z[i]), hi)


def test_inversion_matches_brent_on_the_array_model(ref_map):
    # the float-only inversion finds the root _brentq finds on the vector
    # model over the same bracket, and targets at or below the floor still fail
    knots = [[0.0, 7.0, -20.0], [0.5, 0.05, -0.3], [1.0, 0.002, -0.004],
             [1.5, 0.0002, -0.0002]]
    clamped = FieldMap(model="monotone_spline", params={"knots": knots},
                       domain_m=(0.0, 1.5), floor_T=1e-3)
    solenoid = FieldMap(model="finite_solenoid", params=known_solenoid())
    rng = np.random.default_rng(77)
    for fmap in (FieldMap.from_json(ref_map.to_json()), clamped, solenoid):
        lo, hi = fmap.domain_m
        bmin, bmax = fmap.field_range()
        assert (bmin, bmax) == (float(fmap.field_at(hi)), float(fmap.field_at(lo)))
        targets = np.exp(rng.uniform(np.log(bmin), np.log(bmax), 300)).tolist()
        for b in targets + [bmax]:
            if b <= fmap.floor_T:
                continue
            f = lambda z: fmap._model(z) - b  # noqa: E731
            za, zb = _bracket(fmap, b)
            root = za if f(za) <= 0 else zb if f(zb) >= 0 else _brentq(f, za, zb)
            assert fmap.position_of_field(b) == root
        for b in (fmap.floor_T, 0.9 * fmap.floor_T, 0.0, -1.0):
            with pytest.raises(FieldNotReachable):
                fmap.position_of_field(b)


@pytest.mark.parametrize("knot_field, floor", [
    (7.0, 1e-3), (7.0, 10.0), (7.0, float("nan"))])
def test_field_range_clamps_like_field_at(knot_field, floor):
    fmap = FieldMap(model="monotone_spline",
                    params={"knots": [[0.0, knot_field, -1.0], [1.6, 0.5, -0.1]]},
                    floor_T=floor)
    expected = [float(fmap.field_at(z)) for z in (1.6, 0.0)]
    assert np.array_equal(fmap.field_range(), expected, equal_nan=True)


@pytest.mark.parametrize("model, key, index, value", [
    ("monotone_spline", "knots", (0, 1), float("nan")),
    ("monotone_spline", "knots", (1, 1), float("nan")),
    ("monotone_spline", "knots", (1, 0), float("nan")),
    ("monotone_spline", "knots", (1, 2), float("nan")),
    ("monotone_spline", "knots", (2, 2), -math.inf),
    ("finite_solenoid", "b0_T", None, float("nan")),
    ("finite_solenoid", "b0_T", None, math.inf),
    ("finite_solenoid", "half_length_m", None, float("nan")),
    ("finite_solenoid", "radius_m", None, math.inf),
], ids=["knot-field-nan", "interior-knot-field-nan", "knot-position-nan",
        "knot-slope-nan", "knot-slope-inf", "b0-nan", "b0-inf",
        "half-length-nan", "radius-inf"])
def test_a_non_finite_map_parameter_is_rejected(model, key, index, value):
    if model == "monotone_spline":
        knots = [[0.0, 7.0, -1.0], [0.8, 0.5, -0.5], [1.6, 0.01, -0.01]]
        knots[index[0]][index[1]] = value
        params = {"knots": knots}
    else:
        params = dict(known_solenoid(), **{key: value})
    with pytest.raises(ValueError, match="finite"):
        FieldMap(model=model, params=params)


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


@pytest.mark.parametrize("knots", [
    [[0.0, 7.0, 0.0], [0.5, 0.05, -1.0], [1.0, 0.2, 5.0], [1.6, 0.001, 0.0]],
    [[0.0, 7.0, -1.0], [0.8, 7.0, -1.0], [1.6, 0.5, -0.1]],
    [[0.0, 7.0, -1.0], [0.8, 1.0, 0.5], [1.6, 0.5, -0.1]],
], ids=["rising-field", "flat-field", "rising-slope"])
def test_spline_rejects_knots_that_are_not_decreasing(knots):
    with pytest.raises(ValueError, match="strictly decrease"):
        FieldMap(model="monotone_spline", params={"knots": knots})
    doc = {"schema": 1, "model": "monotone_spline", "params": {"knots": knots},
           "domain_m": [0.0, 1.6], "floor_T": 1e-3}
    with pytest.raises(ValueError, match="strictly decrease"):
        FieldMap.from_json(json.dumps(doc))


# Fritsch-Carlson pairs (a, b): each knot slope over the secant
@pytest.mark.parametrize("a, b, monotone", [
    (0.0, 0.0, True), (2.0, 0.0, True), (1.5, 3.0, True), (3.0, 3.0, True),
    (4.0, 1.0, True), (1.0, 4.0, True), (3.1, 3.1, False), (5.0, 0.0, False),
    (0.5, 4.0, False), (4.1, 1.0, False), (-0.1, 1.0, False)])
def test_spline_accepts_exactly_the_monotone_region(a, b, monotone):
    # secant -1 over [0, 1]: the slopes are -a and -b; the sampled cubic
    # rises somewhere exactly when the check refuses it
    knots = [[0.0, 7.0, -a], [1.0, 6.0, -b]]
    field = _HermiteSpline(*zip(*knots))(np.linspace(0.0, 1.0, 100001))
    assert bool(np.all(np.diff(field) < 0)) == monotone
    doc = {"schema": 1, "model": "monotone_spline", "params": {"knots": knots},
           "domain_m": [0.0, 1.0], "floor_T": 1e-3}
    if monotone:
        FieldMap.from_json(json.dumps(doc))
    else:
        with pytest.raises(ValueError, match="strictly decrease"):
            FieldMap.from_json(json.dumps(doc))


# the CLI tests hold a spline domain past the last knot and a solenoid
# domain below z = 0
@pytest.mark.parametrize("model, params, domain", [
    ("monotone_spline", {"knots": [[0.1, 7.0, -1.0], [1.6, 0.5, -0.1]]},
     (0.0, 1.6)),
    ("finite_solenoid", known_solenoid(), (0.0, math.inf)),
    ("finite_solenoid", known_solenoid(), (0.0, float("nan"))),
    ("finite_solenoid", known_solenoid(), (0.8, 0.8)),
    ("finite_solenoid", known_solenoid(), (1.6, 0.0)),
], ids=["before-first-knot", "infinite", "nan", "empty", "reversed"])
def test_domain_must_lie_where_the_field_decreases(model, params, domain):
    with pytest.raises(ValueError, match="strictly decrease"):
        FieldMap(model=model, params=params, domain_m=domain)


def test_calibrated_maps_pass_the_map_check():
    # every map calibrate returns loads again, and its field does not rise
    # over the domain (the floor clamp may hold it level)
    maps = 0
    for anchors in _fuzz_sets(50):
        try:
            fmap = calibrate(anchors)
        except (NoConvergence, NonMonotonicModel):
            continue
        loaded = FieldMap.from_json(fmap.to_json())
        assert np.all(np.diff(loaded.field_at(np.linspace(0.0, 1.6, 20001))) <= 0)
        maps += 1
    assert maps > 40


def test_segment_root_is_the_whole_domain_root(ref_map):
    # bracketing the knot segment moves a position within _brentq's
    # absolute tolerance, 1e-14 m (at most 5.1e-15 m seen)
    lo, hi = ref_map.domain_m
    bmin, bmax = ref_map.field_range()
    rng = np.random.default_rng(25)
    for b in np.exp(rng.uniform(np.log(bmin), np.log(bmax), 2000)).tolist():
        whole = _brentq(lambda z: ref_map._model.value(z) - b, lo, hi)
        assert abs(ref_map.position_of_field(b) - whole) <= 1e-14


def test_frozen_reference_map_matches_calibration():
    # the shipped map is the calibration of the reference anchors, byte for
    # byte: regenerate it when the anchors or the fit change
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
    lo = float(_Solenoid(7.0, 0.3, 0.12)(1.6))
    cases = [(lambda z, b=float(b): ref_map._model(z) - b)
             for b in np.exp(rng.uniform(np.log(bmin), np.log(bmax), 600))]
    cases += [(lambda z, b=float(b): _Solenoid(7.0, 0.3, 0.12)(z) - b)
              for b in np.exp(rng.uniform(np.log(lo), np.log(7.0), 600))]
    for f in cases:
        assert _brentq(f, 0.0, 1.6) == brentq(f, 0.0, 1.6, xtol=1e-14, rtol=8.9e-16)


def test_brentq_raises_without_a_bracket_or_convergence():
    with pytest.raises(ValueError):
        _brentq(lambda z: z + 1.0, 0.0, 1.0)
    with pytest.raises(NoConvergence):
        _brentq(lambda z: float("nan") if 0 < z < 1 else z - 0.5, 0.0, 1.0)


def test_replaced_map_evaluates_its_own_knots(ref_map):
    ref_map.position_of_field(0.051)
    doubled = replace(ref_map, params={
        "knots": [[z, 2 * b, 2 * m] for z, b, m in ref_map.params["knots"]]})
    assert doubled._model is not ref_map._model
    assert float(doubled.field_at(0.5)) == 2 * float(ref_map.field_at(0.5))
    # the doubled field crosses 0.102 T where the reference crosses 0.051 T
    assert doubled.position_of_field(0.102) == ref_map.position_of_field(0.051)
    assert replace(doubled, params=ref_map.params).field_at(0.5) == \
        ref_map.field_at(0.5)


def test_position_of_field_is_repeatable_and_keeps_no_state(ref_map):
    # a map holds only what it was built from: a query, answered or
    # refused, leaves it as it was and gives the same float again
    targets = [0.008, 0.03, 0.051, 0.102, 1.5, 7.0]
    fmap = FieldMap.from_json(ref_map.to_json())
    before = dict(vars(fmap))
    first = [fmap.position_of_field(b) for b in targets]
    for bad in (8.0, 5e-4, float("nan")):
        with pytest.raises(FieldNotReachable):
            fmap.position_of_field(bad)
    assert [fmap.position_of_field(b) for b in targets] == first
    assert all(vars(fmap)[k] is v for k, v in before.items())
    assert vars(fmap).keys() == before.keys()
