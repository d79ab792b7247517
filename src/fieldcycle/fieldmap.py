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
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (FieldCycleError, FieldNotReachable, NoConvergence,
                     NonMonotonicModel, OutOfDomain)
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
_DEFAULT_GEOMETRY = (0.12, 0.12)  # m; kept where anchors leave the shape free
_GRID = 24  # solenoid search: log-spaced geometries per parameter
_POLISH_STARTS = 3  # lowest grid minima polished at most
_DOMINANCE = 10.0  # no polish starts this many times costlier than the best
_POLISH_TOL = 1e-12  # a polish ends on a smaller relative step or cost gain
_REACH_MARGIN = 1e-10  # relative field a polish aims inside an anchor's reach
_MAX_STEPS = 100  # cap on inversion and polish iterations
_FD_STEP = math.sqrt(np.finfo(float).eps)  # forward differences, as scipy's
_REFERENCE_MAP_FILE = Path(__file__).with_name("reference_map.json")
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
        if not all(math.isfinite(v) for v in (self.field_T, self.position_m,
                                              self.gradient_T_per_m,
                                              self.tolerance_rel) if v is not None):
            raise ValueError("anchor values must be finite")
        if self.field_T <= 0:
            raise ValueError("anchor field_T must be positive")
        if self.kind == "gradient_at_field":
            if self.gradient_T_per_m is None or self.gradient_T_per_m == 0:
                raise ValueError("gradient anchor needs a nonzero gradient_T_per_m")
        if self.tolerance_rel <= 0:
            raise ValueError("tolerance_rel must be positive")


class LacPlan(NamedTuple):
    """Access plan for one level anti-crossing target field."""

    target_field_T: float
    position_m: float
    gradient_T_per_m: float
    resolution_T: float
    max_sweep_rate_T_per_s: float


# ---------------------------------------------------------------------------
# finite solenoid on-axis profile

class _Solenoid:
    """Finite-solenoid on-axis field B(z) = b0 shape(z) / shape(0), the
    ratio taken first so that B(0) == b0 exactly.  The half-length ``h``
    and radius ``r`` are floats, or arrays of geometries that broadcast
    against the positions."""

    def __init__(self, b0, h, r):
        self.b0, self.h, self.r = b0, h, r
        self.s0 = 2 * (h / np.sqrt(h * h + r * r))  # shape(0): equal terms

    def _shape(self, z, sqrt=np.sqrt):
        zp, zm, r2 = self.h + z, self.h - z, self.r * self.r
        return zp / sqrt(zp * zp + r2) + zm / sqrt(zm * zm + r2)

    def __call__(self, z):
        return self.b0 * (self._shape(z) / self.s0)

    def value(self, z: float) -> float:
        """``float(self(z))`` for one float position, on Python floats:
        ``math.sqrt`` rounds as ``np.sqrt`` does."""
        try:
            return self.b0 * (self._shape(z, math.sqrt) / float(self.s0))
        except ZeroDivisionError:  # numpy gives NaN or inf there
            return float(self(z))

    def derivative(self, z):
        zp, zm, r2 = self.h + z, self.h - z, self.r * self.r
        return self.b0 * (r2 * ((zp * zp + r2) ** -1.5 - (zm * zm + r2) ** -1.5)) / self.s0

    def invert(self, target, z_max, z, live):
        """Positions in [0, z_max] where the fields equal ``target``, for
        arrays that broadcast to the shape of ``z``, where each solve starts
        (a start outside (0, z_max) means mid-domain).  Newton steps on
        B**(-1/3), close to linear in the dipole far field, are kept inside
        a bisection bracket.  A solve ends when its Newton step is below the
        field's rounding error over the slope, or its bracket is down to
        adjacent floats; only the ``live`` solves, whose targets lie in
        [B(z_max), b0], are waited for.  Returns the positions and dB/dz at
        the last Newton point, within rounding of the position."""
        b0, h, s0 = self.b0, self.h, self.s0
        # the shape sums two terms of magnitude <= 1: its rounding, in tesla
        noise = 4 * np.finfo(float).eps * b0 / s0
        r2 = self.r * self.r
        dscale = b0 * r2 / s0
        lo, hi, step = np.zeros(z.shape), np.full(z.shape, float(z_max)), z_max
        z = np.where((z > 0) & (z < z_max), z, z_max / 2)
        # in-place masked copies below: np.where costs several times more per
        # call on these small arrays, and a polish makes thousands of calls
        for _ in range(_MAX_STEPS):
            zp, zm = h + z, h - z
            ap, am = zp * zp, zm * zm
            ap += r2
            am += r2
            sp, sm = np.sqrt(ap), np.sqrt(am)
            b = b0 * ((zp / sp + zm / sm) / s0)  # self(z), op for op
            # kept below zero where it underflows, so the step leaves the bracket
            slope = np.minimum(dscale * (1 / (ap * sp) - 1 / (am * sm)), -1e-300)
            above = b > target
            np.copyto(lo, z, where=above)
            np.copyto(hi, z, where=~above)
            newton = z + 3 * b * (1 - np.cbrt(b / target)) / slope
            z_next = (lo + hi) / 2
            move = abs(newton - z)
            last = move * slope >= -noise
            # a Newton step must stay inside the bracket and halve the last one
            np.copyto(z_next, newton, where=last | (
                (lo < newton) & (newton < hi) & (move + move <= step)))
            if not (live & ~last & (lo < z_next) & (z_next < hi)).any():
                break
            step, z = abs(z_next - z), z_next
        return z_next, slope


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
    """Every slope within 3x its segment's secant: the knot table is
    strictly decreasing and the slopes are <= 0 by construction."""
    sec = np.diff(b) / np.diff(z)
    for i in range(len(sec)):
        for mm in (m[i], m[i + 1]):
            if abs(mm) > 3 * abs(sec[i]):
                raise NonMonotonicModel(
                    f"prescribed slope {mm:.4g} at z~{z[i]:.4f} breaks monotonicity"
                )


def _hermite(t, h, b0, b1, m0, m1):
    """Cubic Hermite value at local coordinate t of a segment of width h;
    the same operations, in the same order, on arrays and on floats.  The
    square is a product: numpy squares arrays by multiplying, but Python
    and numpy scalars by ``pow``, which differs in the last bit."""
    u = 1 - t
    h00 = (1 + 2 * t) * (u * u)
    h10 = t * (u * u)
    h01 = t * t * (3 - 2 * t)
    h11 = t * t * (t - 1)
    return h00 * b0 + h10 * h * m0 + h01 * b1 + h11 * h * m1


class _HermiteSpline:
    """Cubic Hermite evaluation on strictly increasing knots.  The knot
    arrays are read-only, and ``value`` reads tuple copies of them."""

    def __init__(self, z, b, m):
        self.z, self.b, self.m = (np.array(v, float) for v in (z, b, m))
        if not all(np.isfinite(v).all() for v in (self.z, self.b, self.m)):
            raise ValueError("spline knot positions, fields and slopes must be finite")
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
    # derived from params; not an init field, so dataclasses.replace
    # rebuilds the model from the new params
    _model: _Solenoid | _HermiteSpline = field(init=False, default=None,
                                               repr=False, compare=False)
    # how ``calibrate`` made the map (None for a map made otherwise): the
    # model, the solenoid geometry it was built from, each anchor's residual in
    # tolerance units and the fit's evaluation counts; not in ``to_json``
    calibration: Optional[MappingProxyType] = field(init=False, default=None,
                                                    repr=False, compare=False)

    def __post_init__(self):
        if self.model not in MODEL_KINDS[1:]:
            raise ValueError(f"unknown model {self.model!r}")
        object.__setattr__(self, "params", MappingProxyType({
            k: tuple(map(tuple, v)) if isinstance(v, list) else v
            for k, v in self.params.items()}))
        p = self.params
        if self.model == "monotone_spline":
            model = _HermiteSpline(*([k[i] for k in p["knots"]] for i in range(3)))
            # each cubic decreases where its slopes over the secant, a and c,
            # lie in the Fritsch-Carlson region (SIAM J. Numer. Anal. 17, 238
            # (1980)); a phi that overflows to NaN lies outside it
            sec = np.diff(model.b) / np.diff(model.z)
            with np.errstate(all="ignore"):
                a, c = model.m[:-1] / sec, model.m[1:] / sec
                phi = a - (2 * a + c - 3) ** 2 / (3 * (a + c - 2))
                if np.any((sec >= 0) | (a < 0) | (c < 0) | (
                        (a + c > 2) & (2 * a + c > 3) & (a + 2 * c > 3) & ~(phi >= 0))):
                    raise ValueError("spline knot fields must strictly decrease, "
                                     "with slopes that keep each segment monotone")
            span = model.z[0], model.z[-1]
        else:
            if not math.isfinite(p["b0_T"]):
                raise ValueError(f"finite_solenoid b0_T must be finite, "
                                 f"got {p['b0_T']!r}")
            for key in ("half_length_m", "radius_m"):
                if not (math.isfinite(p[key]) and p[key] > 0):
                    raise ValueError(f"finite_solenoid {key} must be finite "
                                     f"and > 0, got {p[key]!r}")
            model = _Solenoid(p["b0_T"], p["half_length_m"], p["radius_m"])
            span = 0.0, math.inf
        lo, hi = self.domain_m
        if not (span[0] <= lo < hi <= span[1] and math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"domain_m must be finite, increase and lie in [{span[0]:g}, "
                             f"{span[1]:g}] m, where the field strictly decreases")
        object.__setattr__(self, "_model", model)

    _DOMAIN_ATOL = 1e-9  # meters; well below the actuator precision

    def _check_domain(self, z):
        """Validate and return z clamped to the domain (float-noise margin);
        z itself when it is already inside."""
        lo, hi = self.domain_m
        z = np.asarray(z, float)
        if np.any(z < lo) or np.any(z > hi):
            if np.any(z < lo - self._DOMAIN_ATOL) or np.any(z > hi + self._DOMAIN_ATOL):
                raise OutOfDomain(f"z outside domain [{lo}, {hi}] m")
            z = np.clip(z, lo, hi)
        return z[()]

    # --- queries
    def field_at(self, z):
        """Longitudinal field (T) at axial position z (m)."""
        b = np.asarray(self._model(self._check_domain(z)))
        return np.maximum(b, self.floor_T, out=b)[()]  # b is the model's own

    def gradient_at(self, z):
        """dB/dz (T/m); zero inside the clamped shield region."""
        z = self._check_domain(z)
        g = self._model.derivative(z)
        return np.where(self._model(z) <= self.floor_T, 0.0, g)[()]

    def field_range(self):
        lo, hi = self.domain_m
        return tuple(float(np.maximum(self._model.value(z), self.floor_T))
                     for z in (hi, lo))

    def position_of_field(self, b_target):
        """Unique axial position where B equals ``b_target`` (monotonicity):
        the root in the domain, or on a spline in the knot segment whose
        fields straddle the target."""
        bmin, bmax = self.field_range()
        if not (bmin <= b_target <= bmax):
            raise FieldNotReachable(
                f"B={b_target} T outside reachable range [{bmin:.4g}, {bmax:.4g}] T"
            )
        lo, hi = self.domain_m
        if b_target <= self.floor_T:
            raise FieldNotReachable(f"B={b_target} T is at or below the shield floor")
        if self.model == "monotone_spline":  # knot fields decrease: bisect -b
            z, b, _ = self._model._knots
            i = min(max(bisect_right(b, -b_target, key=float.__neg__), 1), len(b) - 1)
            lo, hi = max(z[i - 1], lo), min(z[i], hi)
        return _brentq(lambda x: self._model.value(x) - b_target, lo, hi)

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


def _anchor_residual(fmap: FieldMap, a: FieldAnchor):
    try:
        if a.kind == "field_value":
            if a.position_m is None:
                fmap.position_of_field(a.field_T)  # raises when unreachable
                return 0.0
            return (fmap._model.value(a.position_m) - a.field_T) / a.field_T
        z = fmap.position_of_field(a.field_T)
        g = float(fmap.gradient_at(z))
        return (abs(g) - abs(a.gradient_T_per_m)) / abs(a.gradient_T_per_m)
    except (FieldNotReachable, OutOfDomain):
        return math.inf


def _grid_minima(cost):
    """Flat indices of the grid points no higher than their 8 neighbours,
    lowest cost first (ties in index order)."""
    padded = np.pad(cost, 1, constant_values=np.inf)
    rows, cols = cost.shape
    low = np.ones(cost.shape, bool)
    for di in (0, 1, 2):
        for dj in (0, 1, 2):
            low &= cost <= padded[di:di + rows, dj:dj + cols]
    idx = np.flatnonzero(low)
    return idx[np.argsort(cost.ravel()[idx], kind="stable")]


class _SolenoidFit:
    """Solenoid geometries for ``anchors``, lowest weighted cost first, and
    their residuals.

    The default geometry and a log grid of ``_GRID``**2 geometries inside
    ``_PARAM_BOUNDS`` are scored in one numpy pass.  Unless the default fits
    exactly, the lowest grid minima are polished in turn by Levenberg-
    Marquardt (forward-difference Jacobians, 2x2 solves, steps projected
    onto the bounds, Nielsen's damping update), up to ``_POLISH_STARTS`` of
    them and none that starts ``_DOMINANCE`` times costlier than the best
    polished so far.  ``counts`` holds how many geometries the grid and the
    polish evaluated."""

    def __init__(self, anchors, b0):
        self.anchors, self.b0 = anchors, b0
        # per-anchor columns: field, tolerance, |gradient|, where the field is read
        # (its position, else the domain end), masks of gradient and free anchors
        table = np.array([(a.field_T, a.tolerance_rel, abs(a.gradient_T_per_m or 1.0),
                           FieldMap.domain_m[1] if a.position_m is None else a.position_m,
                           a.kind == "gradient_at_field",
                           a.kind == "field_value" and a.position_m is None)
                          for a in anchors]).T
        self.columns = (*table[:4], table[4] == 1, table[5] == 1)
        axis = np.geomspace(_PARAM_BOUNDS[0][0], _PARAM_BOUNDS[1][0], _GRID)
        h, r = (np.append(v.ravel(), d) for v, d in zip(
            np.meshgrid(axis, axis, indexing="ij"), _DEFAULT_GEOMETRY))
        grid, _ = self._residuals(h, r)
        with np.errstate(over="ignore"):  # a cost past the float range is inf
            cost = 0.5 * (grid * grid).sum(0)
        self.counts = {"grid_evaluations": len(cost), "polish_evaluations": 0}
        if cost[-1] == 0:  # the anchors leave the shape free
            self.geometries, self.residuals = np.array([_DEFAULT_GEOMETRY]), grid[:, -1:].T
            return
        fits = []
        for i in _grid_minima(cost[:-1].reshape(_GRID, _GRID))[:_POLISH_STARTS]:
            if fits and cost[i] > _DOMINANCE * min(c for c, _, _ in fits):
                break
            fits.append(self._polish(np.array([h[i], r[i]])))
        fits.sort(key=lambda fit: fit[0])  # stable: ties keep grid order
        self.geometries = np.array([x for _, x, _ in fits])
        self.residuals = np.array([res for _, _, res in fits])

    def _residuals(self, half_length, radius, z=None):
        """Anchor residuals, one row per anchor, of the solenoids whose
        geometries are the entries of ``half_length`` and ``radius`` (arrays
        that broadcast together), and the positions of the gradient anchors'
        fields, one row per gradient anchor (NaN where out of reach; ``z`` is
        where their solves start).  Field and gradient misfits are in
        tolerance units; an unpositioned field out of reach costs a graded
        penalty, a gradient anchor's field 1e3."""
        h, r = np.asarray(half_length, float), np.asarray(radius, float)
        column = (-1,) + (1,) * max(h.ndim, r.ndim)
        field_T, tol, grad, at, sloped, free = (v.reshape(column) for v in self.columns)
        solenoid = _Solenoid(self.b0, h, r)
        b = solenoid(at)
        rel = (b - field_T) / field_T
        # a gradient anchor's field is read at z_max too: is it reachable?
        reach = (b <= field_T) & (field_T <= self.b0)
        res = np.where(free, np.where(reach, 0.0, rel), rel / tol)
        rows = sloped.ravel()
        live = reach[rows]
        if not len(live):  # no gradient anchors
            return res, np.zeros(live.shape)
        start = np.zeros(live.shape) + (0.0 if z is None else z)  # 0: mid-domain
        pos, slope = solenoid.invert(field_T[rows], FieldMap.domain_m[1], start, live)
        grad, tol = grad[rows], tol[rows]
        res[rows] = np.where(live, (np.abs(slope) - grad) / grad / tol, 1e3)
        return res, np.where(live, pos, np.nan)

    def _linearize(self, x, z):
        """Cost, residuals, their Jacobian, gradient-anchor positions and
        theirs, at geometry ``x``.  Forward differences step inward at the
        upper bound; the position solves start at ``z``."""
        d = _FD_STEP * np.maximum(1.0, x)
        d = np.where(x + d > _PARAM_BOUNDS[1], -d, d)
        points = np.vstack([x, x + np.diag(d)])  # x, then each parameter moved
        res, pos = self._residuals(points[:, 0], points[:, 1],
                                   None if z is None else z[:, None])
        self.counts["polish_evaluations"] += len(points)
        with np.errstate(over="ignore"):  # a cost past the float range is inf
            cost = 0.5 * float(res[:, 0] @ res[:, 0])
        return (cost, res[:, 0], (res[:, 1:] - res[:, :1]) / d,
                pos[:, 0], (pos[:, 1:] - pos[:, :1]) / d)

    def _polish(self, x):
        """(cost, geometry, residuals) of the Levenberg-Marquardt polish that
        starts at geometry ``x``."""
        lo, hi = np.array(_PARAM_BOUNDS)
        cost, res, jac, z, jz = self._linearize(x, None)
        mu, nu = 1e-3, 2.0
        for _ in range(_MAX_STEPS):
            if not (jac.any() and math.isfinite(cost)):
                break  # stationary, or no step can lower an overflowed cost
            # an unpositioned field out of reach is aimed just inside, so a
            # fit does not stop on the edge of its graded penalty
            grad = (res + _REACH_MARGIN * (self.columns[5] & (res > 0))) @ jac
            jtj = jac.T @ jac
            # a parameter at a bound its descent points past stays there
            held = np.where(grad > 0, x <= lo, x >= hi)
            a = jtj + mu * jtj.diagonal().max() * np.eye(2)
            a[held], a[:, held], grad[held] = 0.0, 0.0, 0.0
            a[held, held] = 1.0
            step = np.minimum(np.maximum(x + np.linalg.solve(a, -grad), lo), hi) - x
            if (abs(step) <= _POLISH_TOL * x).all():
                break
            model = -float(step @ (grad + 0.5 * (jtj @ step)))
            t_cost, t_res, t_jac, t_z, t_jz = self._linearize(x + step, z + jz @ step)
            gain = cost - t_cost
            if not (gain > 0 and model > 0):
                mu, nu = mu * nu, 2 * nu
                continue
            # Nielsen's update, floored so a rank-one Jacobian stays solvable
            mu, nu = max(mu * max(1 / 3, 1 - (2 * gain / model - 1) ** 3), 1e-12), 2.0
            x, res, jac, z, jz = x + step, t_res, t_jac, t_z, t_jz
            cost, done = t_cost, gain <= _POLISH_TOL * cost
            if done:
                break
        return cost, x, res

    def map(self, i):
        """Fitted geometry ``i`` (0: the lowest cost) as a solenoid map."""
        h, r = self.geometries[i].tolist()
        return FieldMap(model="finite_solenoid", params={
            "b0_T": self.b0, "half_length_m": h, "radius_m": r})


def _spline_from_anchors(anchors, backbone: FieldMap):
    """Monotone Hermite spline interpolating every anchor exactly.

    Positions for unpositioned anchors come from inverting the backbone
    solenoid; segments between anchors are filled with backbone samples
    log-blended to match the anchor endpoints; past the last anchor the
    profile continues as an exponential with the decay length set by the
    last anchor pair (shield attenuation region).
    """
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
        ra = math.log(ba / backbone._model.value(za))
        rb = math.log(bb / backbone._model.value(zb))
        n_fill = max(2, int(_FILL_PER_DECADE * abs(math.log10(ba / bb))))
        for bq in np.geomspace(ba, bb, n_fill + 2)[1:-1]:
            zq = backbone.position_of_field(bq)
            if not (za < zq < zb):
                zq = za + (zb - za) * (math.log(ba / bq) / math.log(ba / bb))
            w = (zq - za) / (zb - za)
            bfill = backbone._model.value(zq) * math.exp((1 - w) * ra + w * rb)
            if bfill < knot_b[-1] and bfill > bb:
                add(zq, bfill)
    z_last, b_last, s_last = placed[-1]
    add(z_last, b_last, s_last)

    # exponential continuation beyond the last anchor (shield interior)
    z_end = backbone.domain_m[1]
    if z_last < z_end:
        z_prev, b_prev, _ = placed[-2]
        lam = (z_last - z_prev) / math.log(b_prev / b_last)
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


def _first_fit(anchors, fit: _SolenoidFit, kind: str):
    """(index, map) of the first fitted geometry, in cost order, whose map
    meets every tolerance: the solenoid itself, or for ``kind`` "spline" the
    spline built on it as backbone; else the lowest-cost one's error."""
    errors = []
    for i in range(len(fit.geometries)):
        try:
            fmap = fit.map(i)
            if kind == "spline":
                fmap = _spline_from_anchors(anchors, fmap)
            errors.append(_misfit(fmap, anchors, kind))
        except FieldCycleError as exc:
            errors.append(exc)
        if errors[-1] is None:
            return i, fmap
    raise errors[0]


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
    it).  A solenoid result is the lowest-cost fitted geometry that meets
    every tolerance; a spline is built on the lowest-cost one on which it
    meets every tolerance, its backbone.  The map's ``calibration`` records
    how it was made.  Identical anchors give bit-identical parameters.
    """
    anchors = list(anchors)
    if model_kind not in MODEL_KINDS:
        raise ValueError(f"unknown model_kind {model_kind!r}")
    b0 = _center_anchor(anchors).field_T
    if model_kind == "monotone_spline" and len(anchors) < 2:
        raise ValueError("a monotone_spline calibration needs an anchor "
                         "besides the centre")
    lo, hi = FieldMap.domain_m
    if not all(lo <= a.position_m <= hi for a in anchors if a.position_m is not None):
        raise ValueError(f"anchor positions must lie in the map domain [{lo}, {hi}] m")

    fit = _SolenoidFit(anchors, b0)
    first = "spline" if model_kind == "monotone_spline" else "solenoid"
    try:
        i, fmap = _first_fit(anchors, fit, first)
    except NoConvergence:
        if model_kind != "auto":
            raise
        i, fmap = _first_fit(anchors, fit, "spline")
    half_length, radius = fit.geometries[i].tolist()
    object.__setattr__(fmap, "calibration", MappingProxyType({
        "model": fmap.model,
        "anchor_residuals": [_anchor_residual(fmap, a) / a.tolerance_rel
                             for a in anchors],
        "backbone": {"half_length_m": half_length, "radius_m": radius,
                     "anchor_residuals": fit.residuals[i].tolist()},
        **fit.counts}))
    return fmap


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
