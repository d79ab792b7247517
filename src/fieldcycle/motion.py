"""Trapezoidal shuttle-motion planning along the magnet axis.

Profiles are time-optimal under velocity and acceleration caps, start and
end at rest, and use piecewise-constant acceleration (the actuator spec
gives no jerk limit).  Positions are axis coordinates compatible with the
field map, so a shuttle toward the magnet runs in the -z direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DistanceExceedsTravel, InvalidTarget
from .util import csv_text

__all__ = [
    "MotionLimits",
    "MotionProfile",
    "JitterModel",
    "Segment",
    "plan",
    "duration",
    "duration_closed_form",
    "sample_trajectory",
    "apply_jitter",
    "Trajectory",
]

_POSITION_ATOL = 1e-12


@dataclass(frozen=True)
class MotionLimits:
    v_max: float = 2.0
    a_max: float = 30.0
    precision_m: float = 50e-6
    travel_range_m: float = 1.600

    def __post_init__(self):
        for name in ("v_max", "a_max", "precision_m", "travel_range_m"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.precision_m >= self.travel_range_m:
            raise ValueError("precision_m must be smaller than travel_range_m")


@dataclass(frozen=True)
class Segment:
    duration_s: float
    accel_m_s2: float
    v_start_m_s: float
    z_start_m: float


@dataclass(frozen=True)
class MotionProfile:
    segments: tuple[Segment, ...]
    total_duration_s: float
    shape: str  # "trapezoidal" | "triangular" | "null"
    z_start_m: float = 0.0

    @property
    def z_end_m(self) -> float:
        if not self.segments:
            return self.z_start_m
        s = self.segments[-1]
        return s.z_start_m + s.v_start_m_s * s.duration_s \
            + 0.5 * s.accel_m_s2 * s.duration_s ** 2

    def boundary_times(self) -> list[float]:
        out, acc = [0.0], 0.0
        for seg in self.segments:
            acc += seg.duration_s
            out.append(acc)
        return out


@dataclass
class JitterModel:
    """Gaussian timing jitter; draws advance a seed-determined stream."""

    sigma_s: float = 2.6e-3
    seed: int = 0
    _rng: Optional[np.random.Generator] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.sigma_s < 0:
            raise ValueError("sigma_s must be non-negative")

    def draw(self, size=None):
        """One draw, or an array of ``size`` draws that equals as many
        scalar draws bit for bit; sigma 0 draws nothing and gives zeros."""
        if self._rng is None:
            self._rng = np.random.default_rng(self.seed)
        if self.sigma_s == 0.0:
            return 0.0 if size is None else np.zeros(size)
        return self._rng.normal(0.0, self.sigma_s, size)


def duration_closed_form(distance: float, v: float, a: float) -> float:
    """Time-optimal duration: d/v + v/a when a cruise exists, 2*sqrt(d/a) else."""
    if distance == 0.0:
        return 0.0
    if distance >= v * v / a:
        return distance / v + v / a
    return 2.0 * math.sqrt(distance / a)


def plan(distance: float, limits: MotionLimits = MotionLimits(),
         v_target: Optional[float] = None, z_start: float = 0.0,
         direction: float = 1.0) -> MotionProfile:
    """Time-optimal rest-to-rest profile covering ``distance`` meters.

    ``v_target`` caps the cruise speed (defaults to the limit); ``direction``
    (+1/-1) selects which way along the axis the move runs.
    """
    if not 0 <= distance <= limits.travel_range_m:  # also rejects NaN
        raise DistanceExceedsTravel(
            f"distance {distance} m outside [0, {limits.travel_range_m}] m")
    if v_target is None:
        v_target = limits.v_max
    if not (0 < v_target <= limits.v_max):
        raise InvalidTarget(f"v_target {v_target} not in (0, {limits.v_max}]")
    if direction not in (1.0, -1.0, 1, -1):
        raise InvalidTarget("direction must be +1 or -1")
    sgn = float(direction)
    a = limits.a_max

    if distance == 0.0:
        return MotionProfile((), 0.0, "null", z_start)

    if distance >= v_target * v_target / a:
        t_ramp = v_target / a
        t_cruise = distance / v_target - v_target / a
        d_ramp = 0.5 * a * t_ramp ** 2
        segments = (
            Segment(t_ramp, sgn * a, 0.0, z_start),
            Segment(t_cruise, 0.0, sgn * v_target, z_start + sgn * d_ramp),
            Segment(t_ramp, -sgn * a, sgn * v_target,
                    z_start + sgn * (distance - d_ramp)),
        )
        shape = "trapezoidal"
        total = 2 * t_ramp + t_cruise
    else:
        t_ramp = math.sqrt(distance / a)
        v_peak = a * t_ramp
        segments = (
            Segment(t_ramp, sgn * a, 0.0, z_start),
            Segment(t_ramp, -sgn * a, sgn * v_peak, z_start + sgn * distance / 2.0),
        )
        shape = "triangular"
        total = 2 * t_ramp

    prof = MotionProfile(segments, total, shape, z_start)
    assert abs(abs(prof.z_end_m - z_start) - distance) < _POSITION_ATOL
    return prof


def duration(profile: MotionProfile) -> float:
    """Total move time, the sum of segment durations."""
    return sum((s.duration_s for s in profile.segments), 0.0)


@dataclass(frozen=True)
class Trajectory:
    """Sampled (t, z, v, a); segment boundaries appear twice, once with the
    left-limit and once with the right-limit acceleration, so integrating
    the samples reproduces v and z exactly."""

    t: np.ndarray
    z: np.ndarray
    v: np.ndarray
    a: np.ndarray

    def to_csv(self, fmap) -> str:
        """Samples with the field ``fmap`` gives at each position."""
        cols = [self.t, self.z, self.v, self.a, fmap.field_at(self.z)]
        return csv_text(["t_s", "z_m", "v_mps", "a_mps2", "B_T"],
                        zip(*(c.tolist() for c in cols)))


def _segment_states(seg: Segment, tau: np.ndarray):
    z = seg.z_start_m + seg.v_start_m_s * tau + 0.5 * seg.accel_m_s2 * tau ** 2
    v = seg.v_start_m_s + seg.accel_m_s2 * tau
    return z, v


def sample_trajectory(profile: MotionProfile, dt: float) -> Trajectory:
    """Sample the profile on a uniform grid plus exact segment boundaries."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not profile.segments:
        z0 = profile.z_start_m
        return Trajectory(np.array([0.0]), np.array([z0]),
                          np.array([0.0]), np.array([0.0]))
    T = profile.total_duration_s
    grid = np.arange(0.0, T + 0.5 * dt, dt)
    bounds = profile.boundary_times()
    times, zs, vs, accs = [], [], [], []
    for k, seg in enumerate(profile.segments):
        t0, t1 = bounds[k], bounds[k + 1]
        inner = grid[(grid > t0) & (grid < t1)]
        tk = np.concatenate([[t0], inner, [t1]])
        z, v = _segment_states(seg, tk - t0)
        times.append(tk)
        zs.append(z)
        vs.append(v)
        accs.append(np.full_like(tk, seg.accel_m_s2))
    return Trajectory(np.concatenate(times), np.concatenate(zs),
                      np.concatenate(vs), np.concatenate(accs))


def states_at(profile: MotionProfile, times: np.ndarray):
    """Vectorized (z, v, a) at arbitrary times, right-continuous in a."""
    times = np.asarray(times, float)
    z = np.full_like(times, profile.z_start_m)
    v = np.zeros_like(times)
    a = np.zeros_like(times)
    if not profile.segments:
        return z, v, a
    bounds = profile.boundary_times()
    for k, seg in enumerate(profile.segments):
        if k < len(profile.segments) - 1:
            sel = (times >= bounds[k]) & (times < bounds[k + 1])
        else:
            sel = (times >= bounds[k]) & (times <= bounds[k + 1])
        zk, vk = _segment_states(seg, times[sel] - bounds[k])
        z[sel] = zk
        v[sel] = vk
        a[sel] = seg.accel_m_s2
    after = times > bounds[-1]
    z[after] = profile.z_end_m
    v[after] = 0.0
    a[after] = 0.0
    return z, v, a


def apply_jitter(duration_s, jm: JitterModel):
    """Realized duration with one draw of actuator timing jitter per element
    of ``duration_s``, a float or an array; a move takes no less than 0 s."""
    d = np.asarray(duration_s, float)
    if np.any(d < 0):
        raise ValueError("duration must be non-negative")
    r = d + jm.draw(d.shape or None)
    return np.where(r > 0.0, r, 0.0)[()]  # max(0.0, r), as sequencer.simulate
