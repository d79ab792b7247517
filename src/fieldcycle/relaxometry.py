"""Field-cycled T1 measurement: hyperpolarize at low field, shuttle to a
relaxation field, wait, shuttle to the magnet centre, detect; fit the decays.

Polarization decays as dP/dt = -P / T1(B(z(t))) along the shuttle
trajectories and exponentially during the wait.  The T1(B) model is a
phenomenological saturating knee pinned to the measured anchors (395.7 s
at 7 T, 10.19 s at 8 mT, knee near 0.5 T).  Every decay is generated and
fitted as a single exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import FitDiverged, InsufficientPoints, NoConvergence
from .motion import MotionLimits, plan, sample_trajectory
from .util import _brentq, csv_text

__all__ = [
    "RelaxationModel",
    "RelaxometryProtocol",
    "DecayCurve",
    "FitResult",
    "T1Map",
    "t1_of_field",
    "invert_t1",
    "simulate_protocol",
    "synthetic_decay",
    "fit_decay",
    "build_t1_map",
]

_MIN_POINTS = 4
# fit bounds: T1 in [_T1_MIN_S, _T1_MAX_SPANS * wait span]; a curve that
# decays by less than 1 ppm over its waits does not resolve T1
_T1_MIN_S = 1e-9
_T1_MAX_SPANS = 1e6
_LOG_FLOAT_MAX = 709.0  # exp() of anything larger overflows a float
_DT_S = 1e-4  # shuttle trajectory sampling step for the loss integral


@dataclass(frozen=True)
class RelaxationModel:
    """T1(B) = T1_min + (T1_max - T1_min) * B^p / (B^p + B_knee^p)."""

    T1_max_s: float = 395.7
    T1_min_s: float = 10.19
    B_knee_T: float = 0.5
    exponent: float = 2.0

    def __post_init__(self):
        if not 0 < self.T1_min_s < self.T1_max_s:
            raise ValueError("need 0 < T1_min_s < T1_max_s")
        if self.B_knee_T <= 0 or self.exponent <= 0:
            raise ValueError("B_knee_T and exponent must be positive")


def t1_of_field(B_T, model: RelaxationModel = RelaxationModel()):
    """Longitudinal relaxation time (s) at field B (T); monotone in B."""
    b = np.asarray(B_T, float)
    if np.any(b < 0):
        raise ValueError("B must be non-negative")
    bp = b ** model.exponent
    return (model.T1_min_s
            + (model.T1_max_s - model.T1_min_s) * bp / (bp + model.B_knee_T ** model.exponent))[()]


def invert_t1(T1_s: float, model: RelaxationModel = RelaxationModel()) -> float:
    """Field at which the model attains T1_s (between the asymptotes)."""
    if not model.T1_min_s < T1_s < model.T1_max_s:
        raise ValueError("T1 outside the model's open range")
    frac = (T1_s - model.T1_min_s) / (model.T1_max_s - T1_s)
    return model.B_knee_T * frac ** (1.0 / model.exponent)


@dataclass(frozen=True)
class RelaxometryProtocol:
    B_pol_T: float = 0.008
    B_relax_T: float = 0.008
    T_relax_list_s: tuple[float, ...] = (5.0, 10.0, 20.0, 40.0)

    def __post_init__(self):
        waits = self.T_relax_list_s
        if any(b <= a for a, b in zip(waits, waits[1:])):
            raise ValueError("wait times must be strictly increasing")
        if any(w < 0 for w in waits):
            raise ValueError("wait times must be non-negative")


@dataclass(frozen=True)
class DecayCurve:
    points: tuple[tuple[float, float], ...]  # (T_relax_s, signal a.u.)

    @property
    def waits(self):
        return np.array([p[0] for p in self.points])

    @property
    def signals(self):
        return np.array([p[1] for p in self.points])

    def to_csv(self) -> str:
        return csv_text(["T_relax_s", "signal_au"], zip(*self.points))


def _shuttle_log_loss(z_from, z_to, fmap, limits, model):
    """Integral of 1/T1 along one shuttle move (trapezoid on the sampled
    trajectory; boundary samples are duplicated so the rule is exact per
    segment)."""
    dist = abs(z_to - z_from)
    if dist == 0.0:
        return 0.0
    prof = plan(dist, limits, z_start=z_from, direction=1.0 if z_to > z_from else -1.0)
    traj = sample_trajectory(prof, _DT_S)
    rate = 1.0 / t1_of_field(fmap.field_at(traj.z), model)
    return float(np.trapezoid(rate, traj.t))


def simulate_protocol(protocol: RelaxometryProtocol, fmap,
                      limits: MotionLimits = MotionLimits(),
                      model: RelaxationModel = RelaxationModel(),
                      seed: Optional[int] = None,
                      noise_sigma: float = 0.0) -> DecayCurve:
    """Detected signal versus wait time for one relaxation field, detected at
    the magnet centre: a monoexponential decay at T1(B_relax) whose amplitude
    carries the anti-aligned start and the loss along both shuttle moves."""
    z_pol = fmap.position_of_field(protocol.B_pol_T)
    z_relax = fmap.position_of_field(protocol.B_relax_T)
    t1_relax = float(t1_of_field(protocol.B_relax_T, model))

    loss = (_shuttle_log_loss(z_pol, z_relax, fmap, limits, model)
            + _shuttle_log_loss(z_relax, fmap.domain_m[0], fmap, limits, model))
    return synthetic_decay(t1_relax, protocol.T_relax_list_s,
                           amplitude=-math.exp(-loss),
                           noise_sigma=noise_sigma, seed=seed)


def synthetic_decay(T1_s: float, waits: Sequence[float],
                    amplitude: float = 1.0, noise_sigma: float = 0.0,
                    seed: Optional[int] = None) -> DecayCurve:
    """A exp(-t/T1) at each wait, plus Gaussian noise of ``noise_sigma``
    drawn in wait order."""
    rng = np.random.default_rng(seed)
    pts = []
    for t in waits:
        s = amplitude * math.exp(-t / T1_s)
        if noise_sigma > 0:
            s += rng.normal(0.0, noise_sigma)
        pts.append((float(t), float(s)))
    return DecayCurve(tuple(pts))


@dataclass(frozen=True)
class FitResult:
    T1_s: float
    amplitude: float
    param_stderr: tuple[float, ...]
    residual_rms: float

    def __post_init__(self):
        if self.T1_s <= 0:
            raise FitDiverged(f"non-physical T1 {self.T1_s}")


def _log_linear_init(t, y):
    """Starting T1 from a line through log y."""
    pos = y > 0
    if np.count_nonzero(pos) < 2:
        raise FitDiverged("too few positive signals for log-linear initialization")
    slope, _ = np.polyfit(t[pos], np.log(y[pos]), 1)
    t1 = -1.0 / slope if slope < 0 else float(t[-1])
    return float(max(t1, _T1_MIN_S))


def _fit_mono(t, y, t1_start):
    """Variable projection (Golub & Pereyra 1973) for A exp(-t/T1): for a
    rate k the best amplitude is (e.y)/(e.e), e = exp(-k t), and the
    projected cost is stationary where D = (e.y)(te.e) - (te.y)(e.e) = 0.
    D rises through zero in u = log T1 at a cost minimum; Brent finds it.
    Shifting t to start at 0 and scaling y to unit peak multiply D by a
    positive factor and keep every exponential in (0, 1], so nothing
    overflows and tiny signals do not underflow.
    """
    t0 = float(t.min())
    tau, scale = t - t0, float(np.max(np.abs(y)))
    yn = y / scale

    def slope(u):
        e = np.exp(-tau * math.exp(-u))
        te = tau * e
        return float((e @ yn) * (te @ e) - (te @ yn) * (e @ e))

    lo = math.log(_T1_MIN_S)
    hi = math.log(_T1_MAX_SPANS * max(float(np.ptp(t)), _T1_MIN_S))
    a = min(max(math.log(t1_start), lo), hi)
    side = 1.0 if slope(a) < 0 else -1.0  # step toward the sign change
    step = 0.5
    while True:
        b = min(max(a + side * step, lo), hi)
        d = side * slope(b)
        if d > 0:
            break
        if b in (lo, hi):
            raise FitDiverged(
                "projected cost has no interior stationary point for T1 in "
                f"[{_T1_MIN_S:g}, {math.exp(hi):.3g}] s: flat, increasing "
                "or unresolved decay")
        if d < 0:
            a = b
        step *= 2
    try:
        u = _brentq(slope, min(a, b), max(a, b))
    except NoConvergence as exc:
        raise FitDiverged(str(exc)) from exc
    t1, k = math.exp(u), math.exp(-u)
    e = np.exp(-tau * k)
    c = float(e @ yn) / float(e @ e) * scale  # amplitude at t0
    if not c > 0:
        raise FitDiverged("stationary point has a non-positive amplitude")
    if math.log(c) + k * t0 > _LOG_FLOAT_MAX:
        raise FitDiverged(f"amplitude at t = 0 overflows for T1 {t1!r}")
    amplitude = c * math.exp(k * t0)  # back to t = 0
    fitted = c * e
    jac = np.column_stack([fitted / amplitude, fitted * t / (t1 * t1)])
    return t1, amplitude, fitted - y, jac


def _median(y):
    """``np.median`` of finite values by the same arithmetic, the mean of
    the two middle values for an even length, without the NaN check that
    imports ``numpy.ma``."""
    s, n = np.sort(y), len(y)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


def fit_decay(curve: DecayCurve) -> FitResult:
    """Least-squares A exp(-t/T1); anti-aligned curves fit on magnitude.

    Initialization is a deterministic log-linear regression, so identical
    curves give identical fits.  The fit is a one-dimensional root (see
    ``_fit_mono``); flat, increasing, unresolved and overflowing decays are
    FitDiverged.
    """
    if len(curve.points) < _MIN_POINTS:
        raise InsufficientPoints(f"need >= {_MIN_POINTS} points, got {len(curve.points)}")
    t = curve.waits
    y = curve.signals
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
        raise FitDiverged("non-finite wait or signal")
    sign = 1.0
    if _median(y) < 0:  # anti-aligned curves fit on magnitude
        sign, y = -1.0, -y
    t1, amplitude, r, jac = _fit_mono(t, y, _log_linear_init(t, y))
    dof = max(1, len(t) - jac.shape[1])
    try:
        cov = np.linalg.inv(jac.T @ jac) * (r @ r / dof)
        stderr = tuple(float(v) for v in np.sqrt(np.maximum(np.diag(cov), 0.0)))
    except np.linalg.LinAlgError:
        stderr = (float("nan"),) * jac.shape[1]
    return FitResult(
        T1_s=t1,
        amplitude=sign * amplitude,
        param_stderr=stderr,
        residual_rms=float(np.sqrt(np.mean(r ** 2))),
    )


@dataclass(frozen=True)
class T1Map:
    entries: tuple[tuple[float, FitResult], ...]  # sorted by B
    failures: tuple[tuple[float, str], ...] = ()

    def t1_values(self):
        return np.array([f.T1_s for _, f in self.entries])

    def to_csv(self) -> str:
        # beta, the stretch exponent, is 1.0 for every monoexponential fit;
        # the column stays so result files keep their format
        return csv_text(["B_T", "T1_s", "beta", "residual_rms"],
                        zip(*((b, f.T1_s, 1.0, f.residual_rms)
                              for b, f in self.entries)))


def build_t1_map(fields: Sequence[float], curves: Sequence[DecayCurve]) -> T1Map:
    """Fit every per-field curve monoexponentially; failures are reported
    alongside the successful entries rather than aborting the map."""
    if len(fields) != len(curves):
        raise ValueError("fields and curves must pair up")
    entries, failures = [], []
    for b, curve in sorted(zip(fields, curves), key=lambda p: p[0]):
        try:
            entries.append((float(b), fit_decay(curve)))
        except (FitDiverged, InsufficientPoints) as exc:
            failures.append((float(b), str(exc)))
    return T1Map(tuple(entries), tuple(failures))
