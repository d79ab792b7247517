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
from .motion import MotionLimits, plan
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
_RTOL = 1e-10  # a loss piece is done when |K15 - G7| is this share of K15
_MAX_SPLITS = 64  # loss piece bisections allowed per move, pooled over a map
# Gauss-Kronrod 7/15 on [-1, 1] (QUADPACK qk15), mirrored about 0: the
# Kronrod nodes and weights, and the Gauss weights on every other node
_GK_NODES = np.array([0.991455371120812639206854697526329,
                      0.949107912342758524526189684047851,
                      0.864864423359769072789712788640926,
                      0.741531185599394439863864773280788,
                      0.586087235467691130294144845693013,
                      0.405845151377397166906606412076961,
                      0.207784955007898467600689403773245, 0.0])
_GK_WEIGHTS = np.array([0.022935322010529224963732008058970,
                        0.063092092629978553290700663189204,
                        0.104790010322250183839876322541518,
                        0.140653259715525918745189590510238,
                        0.169004726639267902826583426598550,
                        0.190350578064785409913256402421014,
                        0.204432940075298892414161999234649,
                        0.209482141084727828012999174891714])
_G7_WEIGHTS = np.array([0.0, 0.129484966168869693270611432679082,
                        0.0, 0.279705391489276667901467771423780,
                        0.0, 0.381830050505118944950369775488975,
                        0.0, 0.417959183673469387755102040816327])
_GK_NODES = np.concatenate([-_GK_NODES, _GK_NODES[-2::-1]])
_GK_WEIGHTS, _G7_WEIGHTS = (np.concatenate([w, w[-2::-1]])
                            for w in (_GK_WEIGHTS, _G7_WEIGHTS))


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


def _shuttle_losses(moves, fmap, limits, model):
    """Integral of 1/T1 along each (z_from, z_to) move, for every move at
    once, by adaptive Gauss-Kronrod 7/15 quadrature (QUADPACK qk15,
    Piessens et al. 1983).  Each motion segment is cut where it crosses a
    spline knot, so every piece's integrand is smooth; a piece whose
    |K15 - G7| exceeds ``_RTOL`` of K15 is bisected, in rounds that share
    one ``field_at`` call.  A non-finite piece, or more than ``_MAX_SPLITS``
    bisections per move, is NoConvergence."""
    segs = [(i, seg) for i, (a, b) in enumerate(moves) if a != b
            for seg in plan(abs(b - a), limits, z_start=a,
                            direction=1.0 if b > a else -1.0).segments]
    losses = np.zeros(len(moves))
    if not segs:
        return losses
    move = np.array([i for i, _ in segs])
    dur, acc, v0, z0 = np.array([(s.duration_s, s.accel_m_s2, s.v_start_m_s,
                                  s.z_start_m) for _, s in segs]).T
    # knot crossings strictly inside each segment: z(t) - z0 = s solved in
    # the form without cancellation (v0 and the root share the move's sign)
    z1 = z0 + dur * (v0 + 0.5 * acc * dur)
    knots = np.array([k[0] for k in fmap.params.get("knots", ())])
    first = np.searchsorted(knots, np.minimum(z0, z1), side="right")
    count = np.maximum(np.searchsorted(knots, np.maximum(z0, z1)) - first, 0)
    sid = np.repeat(np.arange(len(segs)), count)
    k = first[sid] + np.arange(len(sid)) - (np.cumsum(count) - count)[sid]
    shift = knots[k] - z0[sid]
    root = np.copysign(np.sqrt(np.maximum(v0[sid] ** 2 + 2 * acc[sid] * shift, 0.0)),
                       shift)
    cuts = np.clip(2 * shift / (v0[sid] + root), 0.0, dur[sid])
    # breakpoints per segment in time order: 0, the crossings, the duration
    at = np.arange(len(segs))
    owner = np.concatenate([at, sid, at])
    times = np.concatenate([np.zeros(len(segs)), cuts, dur])
    order = np.lexsort((times, owner))
    owner, times = owner[order], times[order]
    inner = owner[1:] == owner[:-1]
    seg, lo, hi = owner[:-1][inner], times[:-1][inner], times[1:][inner]
    budget = _MAX_SPLITS * len(moves)
    while seg.size:
        half = 0.5 * (hi - lo)
        tau = (lo + half)[:, None] + half[:, None] * _GK_NODES
        z = z0[seg, None] + tau * (v0[seg, None] + 0.5 * acc[seg, None] * tau)
        b = fmap.field_at(z)
        with np.errstate(over="ignore", invalid="ignore"):  # caught below
            rate = 1.0 / t1_of_field(b, model)
            k15, g7 = half * (rate @ _GK_WEIGHTS), half * (rate @ _G7_WEIGHTS)
        if not np.all(np.isfinite(k15)):
            raise NoConvergence("shuttle loss integrand is not finite")
        done = abs(k15 - g7) <= _RTOL * k15
        losses += np.bincount(move[seg[done]], k15[done], minlength=len(moves))
        split = ~done
        budget -= np.count_nonzero(split)
        if budget < 0:
            raise NoConvergence(f"shuttle loss quadrature needs more than "
                                f"{_MAX_SPLITS} bisections per move")
        mid = lo[split] + half[split]
        seg = np.concatenate([seg[split], seg[split]])
        lo, hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
    return losses


def simulate_protocol(protocols: Sequence[RelaxometryProtocol], fmap,
                      limits: MotionLimits = MotionLimits(),
                      model: RelaxationModel = RelaxationModel(),
                      seed: Optional[int] = None,
                      noise_sigma: float = 0.0) -> list[DecayCurve]:
    """Detected signal versus wait time for each protocol's relaxation field,
    detected at the magnet centre: a monoexponential decay at T1(B_relax)
    whose amplitude carries the anti-aligned start and the loss along both
    shuttle moves.  Curve i draws its noise from ``seed + i``."""
    z_pol = {b: fmap.position_of_field(b) for b in {p.B_pol_T for p in protocols}}
    moves = []
    for prot in protocols:
        z_relax = fmap.position_of_field(prot.B_relax_T)
        moves += [(z_pol[prot.B_pol_T], z_relax), (z_relax, fmap.domain_m[0])]
    losses = _shuttle_losses(moves, fmap, limits, model)
    loss = losses[0::2] + losses[1::2]
    return [synthetic_decay(float(t1_of_field(prot.B_relax_T, model)),
                            prot.T_relax_list_s, amplitude=-math.exp(-loss[i]),
                            noise_sigma=noise_sigma,
                            seed=None if seed is None else seed + i)
            for i, prot in enumerate(protocols)]


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
