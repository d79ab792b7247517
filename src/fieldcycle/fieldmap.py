"""On-axis field map of the shuttling path between the 7 T center and the shield.

The axial coordinate z is measured in meters from the high-field magnet
center, increasing toward the low-field shield, so B(z) is strictly
decreasing over the map domain.  Two model forms are supported: an ideal
finite-solenoid fringe profile, and a monotone cubic Hermite spline used
when anchors over-constrain the solenoid (the shield steepens the low-field
gradients beyond what any bare solenoid shape can reproduce).
"""

from __future__ import annotations

import csv
import io
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from types import MappingProxyType
from typing import Optional, Sequence

import numpy as np

from .errors import FieldNotReachable, NoConvergence, NonMonotonicModel, OutOfDomain
from .motion import MotionLimits
from .util import _brentq, csv_text

__all__ = [
    "FieldAnchor",
    "FieldMap",
    "LacPlan",
    "calibrate",
    "reference_anchors",
    "reference_map",
    "anchors_from_csv",
    "anchors_to_csv",
]

DEFAULT_MODEL_KIND = "auto"
MODEL_KINDS = (DEFAULT_MODEL_KIND, "finite_solenoid", "monotone_spline")

_PARAM_BOUNDS = ([1e-3, 1e-3], [2.0, 2.0])  # half-length, radius (m)
_MAX_ITER = 500
_LSQ_TOL = 1e-10
_REFERENCE_MAP_FILE = Path(__file__).with_name("reference_map.json")
_MEMO_SIZE = 1024  # field inversions kept per map
_FILL_PER_DECADE = 14  # backbone fill knots per decade of field between anchors


@dataclass(frozen=True)
class FieldAnchor:
    """One calibration constraint: a field value or a gradient at a field."""

    kind: str  # "field_value" | "gradient_at_field"
    field_T: float
    position_m: Optional[float] = None
    gradient_T_per_m: Optional[float] = None
    tolerance_rel: float = 0.05

    def __post_init__(self):
        if self.kind not in ("field_value", "gradient_at_field"):
            raise ValueError(f"unknown anchor kind {self.kind!r}")
        if self.field_T <= 0:
            raise ValueError("anchor field_T must be positive")
        if self.kind == "gradient_at_field":
            if self.gradient_T_per_m is None or self.gradient_T_per_m == 0:
                raise ValueError("gradient anchor needs a nonzero gradient_T_per_m")
        if self.tolerance_rel <= 0:
            raise ValueError("tolerance_rel must be positive")


@dataclass(frozen=True)
class LacPlan:
    """Access plan for one level anti-crossing target field."""

    target_field_T: float
    position_m: float
    gradient_T_per_m: float
    resolution_T: float
    max_sweep_rate_T_per_s: float


# ---------------------------------------------------------------------------
# finite solenoid on-axis profile

def _solenoid_shape(z, half_length, radius):
    zp = half_length + z
    zm = half_length - z
    return zp / np.sqrt(zp * zp + radius * radius) + zm / np.sqrt(zm * zm + radius * radius)


def _solenoid_field(z, b0, half_length, radius):
    # ratio first so B(0) == b0 exactly
    return b0 * (_solenoid_shape(z, half_length, radius)
                 / _solenoid_shape(0.0, half_length, radius))


def _solenoid_gradient(z, b0, half_length, radius):
    zp = half_length + z
    zm = half_length - z
    r2 = radius * radius
    fp = r2 * ((zp * zp + r2) ** -1.5 - (zm * zm + r2) ** -1.5)
    return b0 * fp / _solenoid_shape(0.0, half_length, radius)


def _solenoid_invert(target, b0, half_length, radius, z_max):
    if not (_solenoid_field(z_max, b0, half_length, radius) <= target <= b0):
        return None
    return _brentq(lambda z: _solenoid_field(z, b0, half_length, radius) - target,
                   0.0, z_max)


# ---------------------------------------------------------------------------
# monotone cubic Hermite spline (decreasing), optional prescribed slopes

def _pchip_slopes(z, b):
    """Shape-preserving slopes (Fritsch-Carlson weighted harmonic means)."""
    h = np.diff(z)
    sec = np.diff(b) / h
    m = np.zeros_like(b)
    for i in range(1, len(b) - 1):
        if sec[i - 1] * sec[i] <= 0:
            m[i] = 0.0
        else:
            w1 = 2 * h[i] + h[i - 1]
            w2 = h[i] + 2 * h[i - 1]
            m[i] = (w1 + w2) / (w1 / sec[i - 1] + w2 / sec[i])
    # one-sided ends, limited to preserve shape
    m[0] = ((2 * h[0] + h[1]) * sec[0] - h[0] * sec[1]) / (h[0] + h[1]) if len(b) > 2 else sec[0]
    m[-1] = ((2 * h[-1] + h[-2]) * sec[-1] - h[-1] * sec[-2]) / (h[-1] + h[-2]) if len(b) > 2 else sec[-1]
    for idx, s in ((0, sec[0]), (len(b) - 1, sec[-1])):
        if m[idx] * s <= 0:
            m[idx] = 0.0
        elif abs(m[idx]) > 3 * abs(s):
            m[idx] = 3 * s
    return m


def _check_monotone_slopes(z, b, m):
    sec = np.diff(b) / np.diff(z)
    for i in range(len(sec)):
        s = sec[i]
        if s >= 0:
            raise NonMonotonicModel(f"knot fields not strictly decreasing near z={z[i]:.4f}")
        for mm in (m[i], m[i + 1]):
            if mm > 0 or abs(mm) > 3 * abs(s):
                raise NonMonotonicModel(
                    f"prescribed slope {mm:.4g} at z~{z[i]:.4f} breaks monotonicity"
                )


def _hermite(t, h, b0, b1, m0, m1):
    """Cubic Hermite value at local coordinate t of a segment of width h;
    the same operations, in the same order, on arrays and on floats."""
    h00 = (1 + 2 * t) * (1 - t) ** 2
    h10 = t * (1 - t) ** 2
    h01 = t * t * (3 - 2 * t)
    h11 = t * t * (t - 1)
    return h00 * b0 + h10 * h * m0 + h01 * b1 + h11 * h * m1


class _HermiteSpline:
    """Cubic Hermite evaluation on strictly increasing knots.  The knot
    arrays are read-only, and ``value`` reads tuple copies of them."""

    def __init__(self, z, b, m):
        self.z, self.b, self.m = (np.array(v, float) for v in (z, b, m))
        if len(self.z) < 2 or not np.all(np.diff(self.z) > 0):
            raise ValueError("spline needs two or more strictly increasing knots")
        for v in (self.z, self.b, self.m):
            v.setflags(write=False)
        self._knots = tuple(tuple(v.tolist()) for v in (self.z, self.b, self.m))

    def _segment(self, x):
        """Knot index, segment width and local coordinate t in [0, 1]."""
        x = np.asarray(x, float)
        i = np.clip(np.searchsorted(self.z, x, side="right") - 1, 0, len(self.z) - 2)
        h = self.z[i + 1] - self.z[i]
        return i, h, (x - self.z[i]) / h

    def __call__(self, x):
        i, h, t = self._segment(x)
        return _hermite(t, h, self.b[i], self.b[i + 1], self.m[i], self.m[i + 1])

    def value(self, x: float) -> float:
        """``float(self(x))`` for one float, without numpy: the knot index
        by ``bisect``, then the same arithmetic on Python floats."""
        z, b, m = self._knots
        i = min(max(bisect_right(z, x) - 1, 0), len(z) - 2)
        h = z[i + 1] - z[i]
        return _hermite((x - z[i]) / h, h, b[i], b[i + 1], m[i], m[i + 1])

    def derivative(self, x):
        i, h, t = self._segment(x)
        d00 = (6 * t * t - 6 * t) / h
        d10 = 3 * t * t - 4 * t + 1
        d01 = (6 * t - 6 * t * t) / h
        d11 = 3 * t * t - 2 * t
        return d00 * self.b[i] + d10 * self.m[i] + d01 * self.b[i + 1] + d11 * self.m[i + 1]


# ---------------------------------------------------------------------------
# field map

@dataclass(frozen=True)
class FieldMap:
    """Calibrated on-axis B(z), strictly decreasing over ``domain_m``.

    Below ``floor_T`` (inside the shield) the map clamps instead of
    extrapolating.  ``params`` is read-only: a mapping proxy, with the
    spline knots stored as tuples.
    """

    model: str  # "finite_solenoid" | "monotone_spline"
    params: MappingProxyType
    domain_m: tuple[float, float] = (0.0, MotionLimits.travel_range_m)
    floor_T: float = 1.0e-3
    # per-instance derived state; not init fields, so dataclasses.replace
    # rebuilds the spline from the new params and starts an empty memo
    _spline: Optional[_HermiteSpline] = field(init=False, default=None,
                                              repr=False, compare=False)
    _positions: dict = field(init=False, default_factory=dict, repr=False,
                             compare=False)  # position_of_field memo

    def __post_init__(self):
        if self.model not in MODEL_KINDS[1:]:
            raise ValueError(f"unknown model {self.model!r}")
        object.__setattr__(self, "params", MappingProxyType({
            k: tuple(map(tuple, v)) if isinstance(v, list) else v
            for k, v in self.params.items()}))
        if self.model == "monotone_spline":
            knots = self.params["knots"]
            z = np.array([k[0] for k in knots])
            b = np.array([k[1] for k in knots])
            m = np.array([k[2] for k in knots])
            object.__setattr__(self, "_spline", _HermiteSpline(z, b, m))

    # --- raw model value, no floor clamp
    def _model_field(self, z):
        if self.model == "finite_solenoid":
            p = self.params
            return _solenoid_field(z, p["b0_T"], p["half_length_m"], p["radius_m"])
        return self._spline(z)

    def _model_value(self, z: float) -> float:
        """``float(self._model_field(z))`` for one float position."""
        if self._spline is None:
            return float(self._model_field(z))
        return self._spline.value(z)

    def _model_gradient(self, z):
        if self.model == "finite_solenoid":
            p = self.params
            return _solenoid_gradient(z, p["b0_T"], p["half_length_m"], p["radius_m"])
        return self._spline.derivative(z)

    _DOMAIN_ATOL = 1e-9  # meters; well below the actuator precision

    def _check_domain(self, z):
        """Validate and return z clamped to the domain (float-noise margin)."""
        lo, hi = self.domain_m
        z = np.asarray(z, float)
        if np.any(z < lo - self._DOMAIN_ATOL) or np.any(z > hi + self._DOMAIN_ATOL):
            raise OutOfDomain(f"z outside domain [{lo}, {hi}] m")
        return np.clip(z, lo, hi)[()]

    # --- queries
    def field_at(self, z):
        """Longitudinal field (T) at axial position z (m)."""
        z = self._check_domain(z)
        return np.maximum(self._model_field(z), self.floor_T)

    def gradient_at(self, z):
        """dB/dz (T/m); zero inside the clamped shield region."""
        z = self._check_domain(z)
        g = self._model_gradient(z)
        return np.where(self._model_field(z) <= self.floor_T, 0.0, g)[()]

    def field_range(self):
        lo, hi = self.domain_m
        return tuple(float(np.maximum(self._model_value(z), self.floor_T))
                     for z in (hi, lo))

    def position_of_field(self, b_target):
        """Unique axial position where B equals ``b_target`` (monotonicity).

        Memoized per map: the ``_MEMO_SIZE`` targets found last are kept; a
        target that raises is not."""
        z = self._positions.get(b_target)
        if z is None:
            z = self._positions[b_target] = self._invert(b_target)
            if len(self._positions) > _MEMO_SIZE:
                self._positions.pop(next(iter(self._positions)), None)
        return z

    def _invert(self, b_target):
        bmin, bmax = self.field_range()
        if not (bmin <= b_target <= bmax):
            raise FieldNotReachable(
                f"B={b_target} T outside reachable range [{bmin:.4g}, {bmax:.4g}] T"
            )
        lo, hi = self.domain_m
        if b_target <= self.floor_T:
            raise FieldNotReachable(f"B={b_target} T is at or below the shield floor")
        f = lambda z: self._model_value(z) - b_target
        if f(lo) <= 0:
            return lo
        if f(hi) >= 0:
            return hi
        return _brentq(f, lo, hi)

    def plan_lac_access(self, target_field_T, precision_m=MotionLimits.precision_m,
                        v_max=MotionLimits.v_max):
        """Resolution and sweep-rate budget for parking at / sweeping a LAC."""
        z = self.position_of_field(target_field_T)
        g = float(self.gradient_at(z))
        return LacPlan(
            target_field_T=float(target_field_T),
            position_m=float(z),
            gradient_T_per_m=g,
            resolution_T=abs(g) * precision_m,
            max_sweep_rate_T_per_s=abs(g) * v_max,
        )

    # --- persistence
    def to_json(self):
        doc = {
            "schema": 1,
            "model": self.model,
            "params": dict(self.params),
            "domain_m": list(self.domain_m),
            "floor_T": self.floor_T,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        """Load a schema 1 map, evaluated once: bad params raise ValueError.
        Unread keys, such as older files' ``travel_range_m``, are ignored."""
        doc = json.loads(text)
        if not isinstance(doc, dict) or doc.get("schema") != 1:
            raise ValueError("not a schema 1 field map")
        try:
            fmap = cls(
                model=doc["model"],
                params=doc["params"],
                domain_m=tuple(doc["domain_m"]),
                floor_T=doc["floor_T"],
            )
            if not all(map(math.isfinite, fmap.field_range())):
                raise ValueError("map field is not finite")
        except (KeyError, IndexError, TypeError, AttributeError) as exc:
            raise ValueError(f"map does not evaluate ({type(exc).__name__}: "
                             f"{exc})") from None
        return fmap


# ---------------------------------------------------------------------------
# calibration

def _center_anchor(anchors):
    for a in anchors:
        if a.kind == "field_value" and a.position_m is not None and a.position_m == 0.0:
            return a
    raise ValueError("calibration needs a field_value anchor at the magnet center (z=0)")


def _initial_geometry(anchors, b0):
    """Deterministic init: equal half-length and radius from the far-field
    (dipole) magnitude of the first positioned off-center anchor."""
    for a in anchors:
        if a.kind == "field_value" and a.position_m and a.position_m > 0:
            c = (a.field_T * a.position_m ** 3 / (math.sqrt(2.0) * b0)) ** (1.0 / 3.0)
            c = min(max(c, 2e-3), 1.5)
            return c, c
    return 0.12, 0.12


def _solenoid_residuals(params, anchors, b0, z_max):
    half_length, radius = params
    res = []
    for a in anchors:
        if a.kind == "field_value":
            if a.position_m is None:
                # unpositioned field anchors only require reachability
                lo = _solenoid_field(z_max, b0, half_length, radius)
                res.append(0.0 if lo <= a.field_T <= b0 else (lo - a.field_T) / a.field_T)
            else:
                bz = _solenoid_field(a.position_m, b0, half_length, radius)
                res.append((bz - a.field_T) / a.field_T / a.tolerance_rel)
        else:
            z = _solenoid_invert(a.field_T, b0, half_length, radius, z_max)
            if z is None:
                res.append(1e3)
                continue
            g = _solenoid_gradient(z, b0, half_length, radius)
            res.append((abs(g) - abs(a.gradient_T_per_m)) / abs(a.gradient_T_per_m)
                       / a.tolerance_rel)
    return res


def _anchor_residual(fmap: FieldMap, a: FieldAnchor):
    try:
        if a.kind == "field_value":
            if a.position_m is None:
                fmap.position_of_field(a.field_T)  # raises when unreachable
                return 0.0
            return (fmap._model_value(a.position_m) - a.field_T) / a.field_T
        z = fmap.position_of_field(a.field_T)
        g = float(fmap.gradient_at(z))
        return (abs(g) - abs(a.gradient_T_per_m)) / abs(a.gradient_T_per_m)
    except (FieldNotReachable, OutOfDomain):
        return math.inf


def _fit_solenoid(anchors, b0):
    from scipy.optimize import least_squares

    x0 = _initial_geometry(anchors, b0)
    sol = least_squares(
        _solenoid_residuals, x0, args=(anchors, b0, FieldMap.domain_m[1]),
        bounds=_PARAM_BOUNDS, max_nfev=_MAX_ITER,
        xtol=_LSQ_TOL, ftol=_LSQ_TOL, gtol=_LSQ_TOL,
    )
    params = {"b0_T": b0, "half_length_m": float(sol.x[0]), "radius_m": float(sol.x[1])}
    return FieldMap(model="finite_solenoid", params=params)


def _spline_from_anchors(anchors, backbone: FieldMap):
    """Monotone Hermite spline interpolating every anchor exactly.

    Positions for unpositioned anchors come from inverting the backbone
    solenoid; segments between anchors are filled with backbone samples
    log-blended to match the anchor endpoints; past the last anchor the
    profile continues as an exponential with the decay length set by the
    last anchor pair (shield attenuation region).
    """
    b0 = _center_anchor(anchors).field_T
    placed = []  # (z, B, slope or None)
    for a in anchors:
        if a.position_m is not None:
            z = float(a.position_m)
        else:
            try:
                z = float(backbone.position_of_field(a.field_T))
            except FieldNotReachable:
                raise NoConvergence(
                    f"anchor B={a.field_T} T unreachable on the backbone model")
        slope = None
        if a.kind == "gradient_at_field":
            slope = -abs(a.gradient_T_per_m)  # field decreases with z
        placed.append((z, a.field_T, slope))
    placed.sort(key=lambda t: t[0])
    zs = [p[0] for p in placed]
    if len(set(zs)) != len(zs):
        raise NoConvergence("two anchors resolved to the same axial position")
    bs = [p[1] for p in placed]
    if any(b2 >= b1 for b1, b2 in zip(bs, bs[1:])):
        raise NonMonotonicModel("anchor fields are not strictly decreasing along z")

    knot_z, knot_b, knot_slope = [], [], []

    def add(z, b, slope=None):
        knot_z.append(float(z))
        knot_b.append(float(b))
        knot_slope.append(slope)

    for (za, ba, sa), (zb, bb, sb) in zip(placed, placed[1:]):
        add(za, ba, sa)
        ra = math.log(ba / backbone._model_value(za))
        rb = math.log(bb / backbone._model_value(zb))
        n_fill = max(2, int(_FILL_PER_DECADE * abs(math.log10(ba / bb))))
        for bq in np.geomspace(ba, bb, n_fill + 2)[1:-1]:
            zq = backbone.position_of_field(bq)
            if not (za < zq < zb):
                zq = za + (zb - za) * (math.log(ba / bq) / math.log(ba / bb))
            w = (zq - za) / (zb - za)
            bfill = backbone._model_value(zq) * math.exp((1 - w) * ra + w * rb)
            if bfill < knot_b[-1] and bfill > bb:
                add(zq, bfill)
    z_last, b_last, s_last = placed[-1]
    add(z_last, b_last, s_last)

    # exponential continuation beyond the last anchor (shield interior)
    z_end = backbone.domain_m[1]
    if z_last < z_end:
        if len(placed) >= 2:
            z_prev, b_prev, _ = placed[-2]
            lam = (z_last - z_prev) / math.log(b_prev / b_last)
        else:
            lam = -b_last / float(backbone._model_gradient(z_last))
        z_floor = z_last + lam * math.log(b_last / backbone.floor_T)
        z_stop = min(z_end, z_floor)
        for zq in np.linspace(z_last, z_stop, 12)[1:]:
            add(zq, b_last * math.exp(-(zq - z_last) / lam))
        if z_stop < z_end:
            for zq in np.linspace(z_stop, z_end, 4)[1:]:
                add(zq, backbone.floor_T * math.exp(-(zq - z_stop) / lam))

    z = np.array(knot_z)
    b = np.array(knot_b)
    if np.any(np.diff(z) <= 0) or np.any(np.diff(b) >= 0):
        raise NonMonotonicModel("constructed knot table is not strictly monotone")
    m = _pchip_slopes(z, b)
    for i, s in enumerate(knot_slope):
        if s is not None:
            m[i] = s
    _check_monotone_slopes(z, b, m)

    params = {"knots": [[float(a), float(c), float(d)] for a, c, d in zip(z, b, m)]}
    return FieldMap(model="monotone_spline", params=params)


def _misfit(fmap: FieldMap, anchors, fit: str) -> Optional[NoConvergence]:
    """The error naming the anchors ``fmap`` misses, or None when it fits."""
    residuals = [abs(_anchor_residual(fmap, a)) for a in anchors]
    bad = [r for r, a in zip(residuals, anchors) if r > a.tolerance_rel]
    if not bad:
        return None
    return NoConvergence(f"{len(bad)} anchor(s) outside tolerance after {fit} "
                         f"fit (worst relative residual {max(bad):.3g})")


def calibrate(anchors: Sequence[FieldAnchor],
              model_kind: str = DEFAULT_MODEL_KIND) -> FieldMap:
    """Fit a field map to anchors; every anchor must land within its tolerance.

    ``model_kind`` is "finite_solenoid", "monotone_spline", or "auto" (try the
    solenoid first, fall back to the spline when the anchors over-constrain
    it).  Deterministic: identical anchors give bit-identical parameters.
    """
    anchors = list(anchors)
    if not anchors:
        raise ValueError("need at least one anchor")
    if model_kind not in MODEL_KINDS:
        raise ValueError(f"unknown model_kind {model_kind!r}")
    b0 = _center_anchor(anchors).field_T

    solenoid = _fit_solenoid(anchors, b0)
    if model_kind in ("auto", "finite_solenoid"):
        error = _misfit(solenoid, anchors, "solenoid")
        if error is None:
            return solenoid
        if model_kind == "finite_solenoid":
            raise error

    spline = _spline_from_anchors(anchors, solenoid)
    error = _misfit(spline, anchors, "spline")
    if error is not None:
        raise error
    return spline


# ---------------------------------------------------------------------------
# reference instrument map

def reference_anchors() -> list[FieldAnchor]:
    """Anchor set for the as-built instrument.

    Center field 7 T; fringe gradients at the NV ESLAC (510 G) and GSLAC
    (1020 G) implied by the measured 0.114 G / 0.303 G resolutions at 50 um
    positional precision; ~300 G at the shield entry; 8 mT at the optical
    excitation point, placed at the effective shuttle distance implied by
    the measured 648 ms full-speed transit.
    """
    return [
        FieldAnchor("field_value", 7.0, position_m=0.0, tolerance_rel=1e-6),
        FieldAnchor("gradient_at_field", 0.051, gradient_T_per_m=-0.228,
                    tolerance_rel=0.01),
        FieldAnchor("gradient_at_field", 0.102, gradient_T_per_m=-0.606,
                    tolerance_rel=0.01),
        FieldAnchor("field_value", 0.030, tolerance_rel=0.20),
        FieldAnchor("field_value", 0.008, position_m=1.1627, tolerance_rel=0.10),
    ]


@lru_cache(maxsize=1)
def reference_map() -> FieldMap:
    """Calibrated map of the reference instrument (memoized; immutable).

    Loaded from the frozen ``reference_map.json``, which holds
    ``calibrate(reference_anchors()).to_json()``, and checked against the
    reference anchors: NoConvergence if it misses any of them.
    """
    fmap = FieldMap.from_json(_REFERENCE_MAP_FILE.read_text())
    error = _misfit(fmap, reference_anchors(), "frozen reference")
    if error is not None:
        raise error
    return fmap


# ---------------------------------------------------------------------------
# anchor file I/O: kind,position_m,field_T,gradient_T_per_m,tolerance_rel

_CSV_HEADER = ["kind", "position_m", "field_T", "gradient_T_per_m", "tolerance_rel"]


def anchors_from_csv(text: str) -> list[FieldAnchor]:
    rows = list(csv.DictReader(io.StringIO(text), restval=""))
    if not rows:
        raise ValueError("empty anchor file")
    anchors = []
    for row in rows:
        anchors.append(FieldAnchor(
            kind=row["kind"].strip(),
            position_m=float(row["position_m"]) if row.get("position_m", "").strip() else None,
            field_T=float(row["field_T"]),
            gradient_T_per_m=(float(row["gradient_T_per_m"])
                              if row.get("gradient_T_per_m", "").strip() else None),
            tolerance_rel=float(row["tolerance_rel"]),
        ))
    return anchors


def anchors_to_csv(anchors: Sequence[FieldAnchor]) -> str:
    return csv_text(_CSV_HEADER, [[getattr(a, name) for a in anchors]
                                  for name in _CSV_HEADER])
