"""NV-13C spin model at low field: shifted nuclear Larmor frequency,
chirped-microwave Landau-Zener polarization transfer, and powder averaging.

The working model is four levels: the m_s=0 electron sublevel and one
driven m_s=+/-1 sublevel, each carrying a carbon spin-1/2.  In m_s=0 the
nuclear quantization is set by the (second-order hyperfine corrected)
Zeeman interaction; in the driven sublevel it is set by the hyperfine
coupling, tilted by the N-to-V axis angle.  Sweeping the microwave
frequency through the transition ladder drives sequential avoided
crossings that pump the nuclear spin in a fixed direction irrespective of
crystallite orientation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import (NearDivergence, NonFiniteHamiltonian, NonlinearRegime,
                     StepTooCoarse)

__all__ = [
    "SpinSystem",
    "SweepParams",
    "PowderEnsemble",
    "SweepResult",
    "PowderResult",
    "Crossing",
    "shifted_larmor",
    "manifold_blocks",
    "static_hamiltonian",
    "crossing_table",
    "lz_probability",
    "propagate_sweep",
    "powder_average",
    "boltzmann_polarization",
    "enhancement_to_equivalent_field",
]

GAMMA_E = 28.024e9  # electron gyromagnetic ratio (Hz/T)
GAMMA_N = 10.7084e6  # 13C gyromagnetic ratio (Hz/T)
D_ZFS = 2.87e9  # NV zero-field splitting (Hz)
H = 6.62607015e-34  # Planck constant (J s, exact SI)
K_B = 1.380649e-23  # Boltzmann constant (J/K, exact SI)
ROOM_T_K = 298.0  # sample temperature of the equivalent-field conversion

GUARD_BAND_HZ = 1.0e6
POL_TOL = 1e-8  # step-doubling estimate of the polarization error to reach
START_HDT = 0.5  # |H| * dt of the first, coarsest pass
MIN_SEGMENT_STEPS = 32  # first-pass floor per segment: fewer steps can sit
                        # outside the fourth-order regime, where the
                        # step-doubling estimate undershoots the error
CAP_HDT = 1e-2  # step cap: all passes together stay within the exponentials
                # of fixed steps of this |H| * dt
EDGE_FRACTION = 0.12  # cos^2 drive apodization at the window edges
MAX_RUN_STEPS = 10_000_000  # summed max_steps of a run's sweeps, checked
                            # before any pass: 21x the acceptance suite's
                            # heaviest run, 20.8x fcbench's
MAX_NODES = 1024  # powder nodes: 32x the acceptance suite's and fcbench's

_CHUNK_STEPS = 4096  # steps per batch of frames (2 MB of 8x8 forms)
_CHUNK_POINTS = 2048  # evaluation points per batch, about: _cos_sin's
                      # (2, 2) by (2, 64n) product for n = 4096 exponentials
                      # runs on one OpenBLAS thread (the bundled SkylakeX
                      # build threads it from about n = 10,000)
_SEGMENTS = ((0.0, EDGE_FRACTION), (EDGE_FRACTION, 1.0 - EDGE_FRACTION),
             (1.0 - EDGE_FRACTION, 1.0))
_LO = np.array([a for a, _ in _SEGMENTS])
_WIDTHS = np.array([b - a for a, b in _SEGMENTS])
_RAMP = np.array([1.0, 0.0, 1.0])  # segments under the sin^2 ramps
# Chebyshev interpolation of a frame's exponentials (see _Chirp)
_DEGREE = 14  # even: the frame centre is a node
_FRAME_STEPS = 256  # the longest ramp frame and exact frame, and the rows of
                    # one interpolation product: a (256, 16) by (16, 64)
                    # product runs on one OpenBLAS thread, while a longer
                    # one can take milliseconds as the build threads it
_COUPLINGS = np.zeros((2, 16))  # the detuning's and the drive's 4x4 patterns
_COUPLINGS[0, [10, 15]] = 1.0  # (2, 2) and (3, 3)
_COUPLINGS[1, [2, 7, 8, 13]] = 1.0  # (0, 2), (1, 3), (2, 0) and (3, 1)
_TRUNC_TOL = 1e-16  # bound on the interpolation error in exact arithmetic
_MATCH_TOL = 2e-15  # an interpolant further than this from the exact step
                    # at a check point is not used; the largest rounding
                    # gap seen, on 83 fuzzed sweeps and 960 powder nodes,
                    # was 1.9e-15 (a miss costs time, not accuracy)
_RHO = np.geomspace(1.5, 64.0, 32)  # Bernstein ellipses the bound tries
_LOG_M = np.log(_TRUNC_TOL * (_RHO - 1.0) / 4.0) + _DEGREE * np.log(_RHO)
# CF4: Gauss nodes c of a step, and the weights of H(c_0), H(c_1) in its
# first (row 0) and second (row 1) exponential
_CF4_C = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
_CF4_W = np.array([[0.25 + math.sqrt(3.0) / 6.0, 0.25 - math.sqrt(3.0) / 6.0],
                   [0.25 - math.sqrt(3.0) / 6.0, 0.25 + math.sqrt(3.0) / 6.0]])

_SX = np.array([[0.0, 0.5], [0.5, 0.0]])
_SZ = np.array([[0.5, 0.0], [0.0, -0.5]])
_I2 = np.eye(2)


@dataclass(frozen=True)
class SpinSystem:
    """One NV-13C pair: hyperfine coupling A (Hz), N-to-V axis angle with
    respect to the external field (rad), and the polarizing field (T)."""

    hyperfine_Hz: float
    theta_rad: float
    B_pol_T: float

    def __post_init__(self):
        if not 0.0 <= self.theta_rad <= math.pi:
            raise ValueError("theta_rad must lie in [0, pi]")
        if self.B_pol_T <= 0:
            raise ValueError("B_pol_T must be positive")

    def low_field(self) -> bool:
        """True when the nuclear Larmor frequency is below the hyperfine."""
        return GAMMA_N * self.B_pol_T <= abs(self.hyperfine_Hz)


@dataclass(frozen=True)
class SweepParams:
    """Chirped microwave drive.

    ``band_center_Hz=None`` selects, per system, the two-crossing ladder
    into the lower hyperfine branch (the canonical transfer window); an
    explicit center/width addresses an absolute frequency band instead.
    ``sweep_rate_Hz_per_s`` > 0 sweeps the frequency upward.
    """

    sweep_rate_Hz_per_s: float = 6.0e9
    mw_rabi_Hz: float = 60e3
    n_sweeps: int = 1
    band_center_Hz: Optional[float] = None
    band_width_Hz: float = 400e6

    def __post_init__(self):
        if self.sweep_rate_Hz_per_s == 0:
            raise ValueError("sweep_rate_Hz_per_s must be nonzero")
        if self.band_width_Hz <= 0:
            raise ValueError("band_width_Hz must be positive")
        if self.mw_rabi_Hz <= 0:
            raise ValueError("mw_rabi_Hz must be positive")
        if self.n_sweeps < 1:
            raise ValueError("n_sweeps must be at least 1")


# ---------------------------------------------------------------------------
# static structure

def shifted_larmor(sys: SpinSystem) -> float:
    """Second-order hyperfine-corrected nuclear frequency in m_s=0 (Hz)."""
    denom = electron_gap(sys)
    if abs(denom) < GUARD_BAND_HZ:
        raise NearDivergence(
            f"electron gap {denom:.3g} Hz inside the {GUARD_BAND_HZ:.0e} Hz guard band")
    w_l = GAMMA_N * sys.B_pol_T
    return w_l + GAMMA_E * sys.B_pol_T * sys.hyperfine_Hz * math.sin(sys.theta_rad) / denom


def electron_gap(sys: SpinSystem) -> float:
    """Rotating-frame reference: driven-sublevel energy above m_s=0 (Hz)."""
    return D_ZFS - GAMMA_E * sys.B_pol_T * math.cos(sys.theta_rad)


def manifold_blocks(sys: SpinSystem):
    """Nuclear Hamiltonians (Hz) of the two electron manifolds.

    m_s=0 carries the corrected Zeeman splitting along the field axis;
    the driven manifold carries the bare Zeeman plus the hyperfine field
    tilted by theta.
    """
    h_g = shifted_larmor(sys) * _SZ
    w_l = GAMMA_N * sys.B_pol_T
    a = sys.hyperfine_Hz
    h_e = w_l * _SZ - a * (math.cos(sys.theta_rad) * _SZ + math.sin(sys.theta_rad) * _SX)
    return h_g, h_e


def static_hamiltonian(sys: SpinSystem) -> np.ndarray:
    """4x4 lab-frame Hamiltonian (Hz), basis (0,up),(0,dn),(e,up),(e,dn)."""
    h_g, h_e = manifold_blocks(sys)
    gap = electron_gap(sys)
    h = np.zeros((4, 4))
    h[:2, :2] = h_g
    h[2:, 2:] = h_e + gap * _I2
    return h


@dataclass(frozen=True)
class Crossing:
    """One avoided crossing of the swept ladder."""

    detuning_Hz: float       # rotating-frame detuning where the levels meet
    g_level: int             # 0 = lower m_s=0 nuclear level, 1 = upper
    e_level: int             # 0 = lower driven-manifold level, 1 = upper
    coupling_Hz: float       # off-diagonal element (half the minimum gap)


def _eigh2(h):
    """``np.linalg.eigh`` of a real symmetric traceless 2x2 block
    [[c, d], [d, -c]] in closed form: the eigenvalues -r and r, r =
    hypot(c, d), ascending, and as columns the eigenvectors (-sin a, cos a)
    and (cos a, sin a), where 2a is the angle of (c, d); the zero block
    gives I.  Python floats: a NaN or infinite block gives NaNs, and no
    warning."""
    c, d = float(h[0, 0]), float(h[0, 1])
    r = math.hypot(c, d)
    if r == 0.0:
        return (0.0, 0.0), ((1.0, 0.0), (0.0, 1.0))
    if c >= 0.0:  # the half-angle cosine and sine, each from its stable side
        cos = math.sqrt(0.5 + 0.5 * (c / r))
        sin = 0.5 * (d / r) / cos
    else:
        sin = math.copysign(math.sqrt(0.5 - 0.5 * (c / r)), d)
        cos = 0.5 * (d / r) / sin
    return (-r, r), ((-sin, cos), (cos, sin))


def crossing_table(sys: SpinSystem, sweep: SweepParams) -> list[Crossing]:
    """The four ladder crossings, ordered as the upward sweep meets them
    (decreasing detuning)."""
    (wg, qg), (we, qe) = map(_eigh2, manifold_blocks(sys))
    out = []
    for i in range(2):
        for j in range(2):
            overlap = qe[0][j] * qg[0][i] + qe[1][j] * qg[1][i]
            out.append(Crossing(wg[i] - we[j], i, j,
                                sweep.mw_rabi_Hz / 2 * abs(overlap)))
    out.sort(key=lambda x: -x.detuning_Hz)
    return out


def lz_probability(gap_Hz: float, rate_Hz_per_s: float) -> float:
    """Diabatic passage probability exp(-2 pi gap^2 / |rate|) for one
    avoided crossing, with gap and rate in angular-consistent units."""
    if rate_Hz_per_s == 0:
        raise ValueError("rate must be nonzero")
    if gap_Hz == 0.0:
        return 1.0
    return float(np.exp(-2.0 * np.pi * gap_Hz ** 2 / abs(rate_Hz_per_s)))


# ---------------------------------------------------------------------------
# sweep propagation

def _detuning_window(sys, sweep):
    """Detuning interval (d_hi -> d_lo) the integrator covers."""
    table = crossing_table(sys, sweep)
    dets = [x.detuning_Hz for x in table]
    rate = abs(sweep.sweep_rate_Hz_per_s)
    margin = max(12.0 * math.sqrt(rate) / (2 * math.pi), 8.0 * sweep.mw_rabi_Hz,
                 0.35 * (dets[0] - dets[1]))
    if sweep.band_center_Hz is None:
        # canonical ladder: both crossings into the lower hyperfine branch
        d_hi = dets[0] + margin
        d_lo = 0.5 * (dets[1] + dets[2])
    else:
        gap = electron_gap(sys)
        d_hi = gap - (sweep.band_center_Hz - sweep.band_width_Hz / 2)
        d_lo = gap - (sweep.band_center_Hz + sweep.band_width_Hz / 2)
        # integrate only where the structure lives
        d_hi = min(d_hi, dets[0] + margin)
        d_lo = max(d_lo, dets[-1] - margin)
    if sweep.sweep_rate_Hz_per_s < 0:
        d_hi, d_lo = d_lo, d_hi
    return d_hi, d_lo


class _Chirp:
    """One chirp over the detuning window, integrated by the fourth-order
    commutator-free Magnus scheme (CF4: two exponentials per step, at the
    Gauss nodes).  The step grid breaks at the drive-envelope kinks, so no
    step straddles the switch from the cos^2 ramps to the flat top.

    Within a segment each CF4 row's exponent x = 2 pi dt H is an entire
    function of the step position, and so is a step's propagator E1 E0,
    E_r = exp(-i x_r).  A pass splits each segment into frames and
    interpolates E1 E0 on each frame from its exact value, ``_cos_sin`` and
    one product, at ``_DEGREE`` + 1 Chebyshev points.  The interpolant is
    the exact centre value plus the interpolated deviation from it, and
    comes out as the real 8x8 form [[C, S], [-S, C]] of C - i S, which
    multiplies as the complex 4x4 does.  A frame's length is the longest
    one the Bernstein-ellipse bound keeps within ``_TRUNC_TOL``
    (``_frame_tables``), up to ``_FRAME_STEPS`` steps on a ramp.  On the
    flat top it is a power of two, up to ``_CHUNK_STEPS``, and the
    segment's last frame takes the first rows of the same table: its nodes
    run past the segment's end, where the flat top's own formula still
    holds (``_envelope``).  A frame is checked at two more points against
    the exact step and taken exactly, step by step, where the check misses
    ``_MATCH_TOL`` or the frame is too short to gain.  ``frames`` holds
    each pass's frame table, filled on first use or for a whole powder at
    once; ``exponentials`` and ``exact_frames`` count the work done."""

    def __init__(self, sys, sweep):
        with np.errstate(invalid="ignore"):  # a NaN fails the check below
            h_g, h_e = manifold_blocks(sys)
            self.d_hi, d_lo = _detuning_window(sys, sweep)
        self.span = self.d_hi - d_lo
        self.omega = sweep.mw_rabi_Hz
        self.total_t = abs(self.span / sweep.sweep_rate_Hz_per_s)
        self.h_base = np.zeros((4, 4))
        self.h_base[:2, :2] = h_g
        self.h_base[2:, 2:] = h_e
        # 1-norm of the exponents' constant part, 0.5 h_base
        self.base_norm = float(np.abs(0.5 * self.h_base).sum(axis=0).max())
        hmax_t = self.total_t * (  # |H| dt summed over the chirp
            max(abs(self.d_hi), abs(d_lo)) + self.omega
            + _eigh2(h_g)[0][1] + _eigh2(h_e)[0][1])
        if not math.isfinite(hmax_t):
            raise NonFiniteHamiltonian(
                f"|H| T summed over the chirp is {hmax_t}: the spin system or "
                "sweep values overflow double precision")
        if self.span * sweep.sweep_rate_Hz_per_s <= 0:  # band misses the ladder
            self.n0 = [0] * len(_SEGMENTS)
            hmax_t = 0.0
        else:
            self.n0 = [max(MIN_SEGMENT_STEPS, math.ceil((b - a) * hmax_t / START_HDT))
                       for a, b in _SEGMENTS]
        # all passes together cost at most the exponentials of fixed steps
        # of |H| dt = CAP_HDT; the first two passes always run (Python ints:
        # no overflow)
        self.max_steps = max(math.ceil(hmax_t / CAP_HDT) // 2, 3 * sum(self.n0))
        self.frames = {}  # level -> _frame_tables columns
        self.exponentials = self.exact_frames = 0

    def exponents(self, seg, width, phase, t):
        """CF4 exponents at the continuous step positions ``t``, each in
        segment ``seg``, whose steps take ``width`` of the chirp and a 2 pi
        dt of ``phase`` (all four per position): (hb, bound) with hb the
        (2m, 4, 4) batch x = 2 pi dt H, rows 0 and 1 of position j at 2j and
        2j + 1, and bound[i] a bound on the 1-norm of hb[i]."""
        x = _LO[seg][:, None] + width[:, None] * (t[:, None] + _CF4_C)
        # x[j] holds the Gauss nodes of position j.  H is affine in the
        # detuning and the envelope, so exponents 2j and 2j + 1 take them
        # weighted by rows 0 and 1 of _CF4_W; each row sums to 1/2, the
        # weight of h_base
        det = ((self.d_hi - self.span * x) @ _CF4_W.T).ravel()
        env = (_envelope(x, seg[:, None]) @ _CF4_W.T).ravel()
        # hb = 2 pi dt (h_base / 2 + det P_e + drive X): one product
        coef = np.empty((len(det), 3))
        coef[:, 0] = np.repeat(phase, 2)
        np.multiply(coef[:, 0], det, out=coef[:, 1])
        np.multiply(coef[:, 0], 0.5 * self.omega * env, out=coef[:, 2])
        hb = coef @ np.concatenate([0.5 * self.h_base.reshape(1, 16), _COUPLINGS])
        # each column of hb sums to at most this in absolute value (|env|,
        # since a CF4 weight is negative), up to the rounding of the sums,
        # which the factor covers
        bound = np.abs(coef) @ np.array([self.base_norm, 1.0, 1.0]) * (1.0 + 1e-12)
        return hb.reshape(-1, 4, 4), bound

    def unitary(self, levels):
        """Total unitary and step count of each pass in ``levels``, the pass
        at ``level`` taking every segment's first-pass step count doubled
        ``level`` times.  The passes' frames run in one sequence of batches,
        and each batch's steps of a pass go to that pass's product."""
        if not sum(self.n0):
            return [(np.eye(4, dtype=complex), 0)] * len(levels)
        missing = [level for level in levels if level not in self.frames]
        if missing:
            _frame_tables([self], missing)
        frames = [self.frames[level] for level in levels]
        which = np.repeat(np.arange(len(levels)), [len(f[0]) for f in frames])
        frames = [np.concatenate(a) for a in zip(*frames)]
        size, interp = frames[2], frames[3]
        points = np.where(interp, _DEGREE + 3, size)  # where x is evaluated
        # a batch starts at the frame that crosses a multiple of _CHUNK_STEPS
        # steps or of _CHUNK_POINTS evaluation points
        key = ((np.cumsum(size) - size) // _CHUNK_STEPS * (points.sum() + 1)
               + (np.cumsum(points) - points) // _CHUNK_POINTS)
        u_total = np.eye(8)[None].repeat(len(levels), axis=0)
        for lo, hi in _runs(key):
            e = self._batch(*(a[lo:hi] for a in frames),
                            passes=which[lo:hi]).reshape(-1, 8, 8)
            row = 0
            for a, b in _runs(which[lo:hi]):  # one product per pass
                k, n = which[lo + a], int(size[lo + a:lo + b].sum())
                # _product overwrites e
                u_total[k] = _product(e[row:row + n]) @ u_total[k]
                row += n
        u = u_total[:, :4, :4] - 1j * u_total[:, :4, 4:]
        return [(u[k], sum(self.n0) << level) for k, level in enumerate(levels)]

    def _batch(self, seg, first, size, interp, width, phase, table, passes):
        """The step propagators E1 E0 of consecutive frames (columns of
        ``_frame_tables``), in time order as (steps, 64) 8x8 forms.  The
        exponentials of each run of frames of one pass in ``passes`` are
        scaled by that run's own bound."""
        degree = _DEGREE
        idx, exact = np.flatnonzero(interp), np.flatnonzero(~interp)
        half = 0.5 * (table - 1)[idx, None]
        # the nodes and then the two check points of each interpolated
        # frame, followed by the steps of each exact frame
        at = [(first[idx, None] + half + half * _points(degree)).ravel()]
        at += [first[j] + np.arange(size[j]) for j in exact]
        order = np.concatenate([idx, exact])
        counts = np.where(interp, degree + 3, size)[order]
        hb, bound = self.exponents(
            *(np.repeat(a[order], counts) for a in (seg, width, phase)),
            np.concatenate(at))
        starts = (2 * (np.cumsum(counts) - counts))[
            [lo for lo, _ in _runs(passes[order])]]
        e = _step_forms(_cos_sin(hb, np.maximum.reduceat(bound, starts), starts))
        self.exponentials += len(hb)
        self.exact_frames += len(exact)
        out = np.empty((int(size.sum()), 64))
        ends = np.cumsum(size)
        rows = e[:len(idx) * (degree + 3)].reshape(len(idx), degree + 3, 64)
        # the deviations from the centre value, which comes last: the
        # weights' last column of ones adds it back within the product
        dev = np.empty((len(idx), degree + 2, 64))
        dev[:, -1] = rows[:, degree // 2]
        np.subtract(rows[:, :degree + 1], dev[:, -1:], out=dev[:, :-1])
        # the check points sit at the same place in every frame, so their
        # weights are one table's last two rows: one product checks them all
        check = _weights(_FRAME_STEPS, degree)[_FRAME_STEPS:]
        miss = np.abs(check @ dev - rows[:, degree + 1:]).max(axis=(1, 2))
        # frames of one length and table that no exact frame parts: one
        # product per piece of at most _FRAME_STEPS rows
        parted = idx - np.arange(len(idx))  # exact frames before each
        key = size[idx] * (len(size) + 1) + parted
        key = key * (_CHUNK_STEPS + 1) + table[idx]
        for lo, hi in _runs(key):
            n, w = int(size[idx[lo]]), _weights(int(table[idx[lo]]), degree)
            view = out[ends[idx[lo]] - n:ends[idx[hi - 1]]].reshape(hi - lo, n, 64)
            for r in range(0, n, _FRAME_STEPS):
                np.matmul(w[r:min(r + _FRAME_STEPS, n)], dev[lo:hi],
                          out=view[:, r:r + _FRAME_STEPS])
        row = len(idx) * (degree + 3)
        for j in exact:
            out[ends[j] - size[j]:ends[j]] = e[row:row + size[j]]
            row += size[j]
        for j in idx[miss > _MATCH_TOL]:  # take the frame exactly
            hb, bound = self.exponents(
                *(np.full(size[j], a[j]) for a in (seg, width, phase)),
                first[j] + np.arange(size[j]))
            out[ends[j] - size[j]:ends[j]] = _step_forms(_cos_sin(hb, bound.max()))
            self.exponentials += len(hb)
            self.exact_frames += 1
        return out


def _frame_tables(chirps, levels):
    """Fill ``frames[level]`` of each chirp with steps, for each of
    ``levels``: the frames of that pass in time order as the columns
    segment, first step, steps, whether the frame is interpolated, the
    normalized time per step, 2 pi dt and the steps of its ``_weights``
    table.  One vectorized pass over chirps x levels x segments.

    A frame's steps are the most on which the degree ``_DEGREE`` interpolant
    is within ``_TRUNC_TOL`` of the step propagator E1 E0.  Trefethen,
    Approximation Theory and Approximation Practice, Thm 8.2: the error is
    at most 4 M rho^-p / (rho - 1) if E1 E0 is bounded by M on the
    Bernstein ellipse E_rho of the frame, which reaches tau = (L - 1)(rho -
    1/rho) / 4 steps off the real axis.  There |E1 E0| <= exp(|Im x0| +
    |Im x1|), and each |Im x_r| is at most a tau from the detuning plus, on
    a ramp, b sinh(c tau) from sin^2 of the envelope (a CF4 row's weights
    sum to 1/sqrt(3) in absolute value).  Each term of the two rows gets
    half of its share of the allowed ln M, ``_LOG_M``: a half off the
    ramps, a quarter on them.

    A ramp splits into equal frames (to one step) of at most
    ``_FRAME_STEPS``, each its own table.  The flat top's frames take F
    steps, the largest power of two within the bound and ``_CHUNK_STEPS``
    but no larger than the one that holds the segment, and start at
    multiples of F: the last one is short and takes the first rows of the
    F-step table.  So ``_weights`` holds the ramp lengths (at most
    ``_FRAME_STEPS``) and a few powers of two.  A frame of at most
    ``_DEGREE`` + 3 steps is taken exactly, and where the bound allows no
    more, so is every frame of the cell, at ``_FRAME_STEPS`` each."""
    chirps = [chirp for chirp in chirps if sum(chirp.n0)]
    if not chirps:
        return
    n = np.array([chirp.n0 for chirp in chirps])[:, None] << np.array(levels)[:, None]
    total_t, span, omega = np.array(
        [(chirp.total_t, abs(chirp.span), chirp.omega) for chirp in chirps]
    ).T[:, :, None, None]
    width = _WIDTHS / np.maximum(n, 1)
    phase = 2.0 * np.pi * total_t * width
    a = phase * span * width / 2.0
    b = phase * omega * _RAMP / (4.0 * math.sqrt(3.0))
    c = np.pi / EDGE_FRACTION * width
    share = np.where(_RAMP > 0, 0.25, 0.5)[:, None] * _LOG_M
    with np.errstate(divide="ignore"):  # b = 0 off the ramps
        tau = np.divide(share, b[..., None])
        np.arcsinh(tau, out=tau)
        tau /= c[..., None]
        np.minimum(share / a[..., None], tau, out=tau)
    tau *= 4.0
    tau /= _RHO - 1.0 / _RHO
    most = 1.0 + np.floor(tau, out=tau).max(axis=-1)
    flat = np.minimum(_floor_pow2(np.minimum(most, _CHUNK_STEPS)),
                      _floor_pow2(2 * n - 1))
    ramp = np.broadcast_to(_RAMP > 0, n.shape)
    most = np.where(ramp, np.clip(most, 1, _FRAME_STEPS), flat).astype(int)
    fine = most > _DEGREE + 3  # else every frame is exact
    most[~fine] = _FRAME_STEPS
    # the frames of every (chirp, level, segment) cell, in that order
    n, most, ramp = n.ravel(), most.ravel(), ramp.ravel()
    count = -(-n // most)
    size, extra = np.divmod(n, np.maximum(count, 1))
    size, extra = np.where(ramp, size, most), np.where(ramp, extra, 0)
    cell = np.repeat(np.arange(len(count)), count)
    k = np.arange(len(cell)) - np.repeat(np.cumsum(count) - count, count)
    first = k * size[cell] + np.minimum(k, extra[cell])
    steps = np.minimum(size[cell] + (k < extra[cell]), n[cell] - first)
    # _DEGREE + 3 exponentials interpolate a frame: a shorter one, such as
    # the last of a flat top, costs more than it saves
    interp = fine.ravel()[cell] & (steps > _DEGREE + 3)
    columns = (cell % len(_SEGMENTS), first, steps, interp,
               width.ravel()[cell], phase.ravel()[cell],
               np.where(ramp[cell], steps, size[cell]))
    cuts = np.cumsum(count.reshape(-1, len(_SEGMENTS)).sum(axis=1)).tolist()
    for i, (lo, hi) in enumerate(zip([0] + cuts, cuts)):
        frames = chirps[i // len(levels)].frames
        frames[levels[i % len(levels)]] = tuple(a[lo:hi] for a in columns)


def _floor_pow2(v):
    """The largest power of two at most ``v`` (>= 1), exactly."""
    return np.ldexp(1.0, np.frexp(v)[1] - 1)


def _runs(keys):
    """(start, end) of each run of equal values in ``keys``."""
    cuts = [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist(), len(keys)]
    return zip(cuts[:-1], cuts[1:])


def _points(degree):
    """The ``degree`` + 1 Chebyshev points of the second kind on [-1, 1],
    ascending (the centre is 0 exactly when ``degree`` is even), then the
    two check points: the extrema of the nodes' polynomial, where the
    error peaks, next to the centre."""
    j = np.concatenate([np.arange(degree + 1), [0.5 * degree - 0.5,
                                                 0.5 * degree + 0.5]])
    return np.sin(np.pi * (2 * j - degree) / (2 * degree))


@functools.lru_cache(maxsize=None)  # ramp lengths <= _FRAME_STEPS and a few
                                    # powers of two (_frame_tables)
def _weights(steps, degree):
    """(steps + 2, degree + 2) weights of the interpolant in the nodes at
    a frame's equispaced steps and then at its two check points
    (barycentric form; a point on a node takes it), with a last column of
    ones that adds back the centre value."""
    at = np.concatenate([np.linspace(-1.0, 1.0, steps),
                         _points(degree)[degree + 1:]])
    w = (-1.0) ** np.arange(degree + 1)
    w[[0, -1]] *= 0.5
    d = at[:, None] - _points(degree)[:degree + 1]
    hit = d == 0.0
    d[hit] = 1.0
    q = w / d
    q[hit.any(axis=1)] = hit[hit.any(axis=1)]
    return np.column_stack([q / q.sum(axis=1, keepdims=True), np.ones(len(at))])


def _step_forms(cs):
    """The real 8x8 forms of E1 E0, with E = C - i S as [[C, S], [-S, C]],
    of each step's cos and sin pair, rows 0 and 1 of step j at 2j and
    2j + 1, as (steps, 64): one stacked product."""
    n = cs.shape[1]
    e = np.empty((n, 8, 8))
    e[:, :4, :4] = e[:, 4:, 4:] = cs[0]
    e[:, :4, 4:] = cs[1]
    np.negative(cs[1], out=e[:, 4:, :4])
    return np.matmul(e[1::2], e[::2]).reshape(-1, 64)


def _product(e):
    """e[-1] ... e[1] e[0] of a stack of 8x8 forms: a pairwise tree, one
    stacked product per level, the levels written alternately into a
    half-size array and over ``e``."""
    n, src, dst = len(e), e, np.empty(((len(e) + 1) // 2, 8, 8))
    while n > 1:
        half = n // 2
        np.matmul(src[1:2 * half:2], src[0:2 * half:2], out=dst[:half])
        if n % 2:
            dst[half] = src[n - 1]
        n, src, dst = half + n % 2, dst, src
    return src[0]


# cos x = sum_k (-1)^k y^k / (2k)! and sin x = x sum_k (-1)^k y^k / (2k+1)!
# in y = x^2, through x^16 and x^17, grouped for Paterson-Stockmeyer in
# y^4: _PS[f, j, i] multiplies y^i in block j of function f (0 cos, 1 sin),
# and _PS_TOP[f] multiplies y^8
_PS = np.array([[[(-1) ** k / math.factorial(2 * k + f) for k in range(j, j + 4)]
                 for j in (0, 4)] for f in (0, 1)])
_PS_TOP = np.array([1.0 / math.factorial(16 + f) for f in (0, 1)])[:, None, None, None]


def _cos_sin(x, norm, starts=(0,)):
    """cos x and sin x, stacked on a new first axis, of a batch of real
    symmetric 4x4 matrices: exp(-i x) = cos x - i sin x.  ``norm[i]``
    bounds the largest 1-norm of the rows from ``starts[i]`` up to the next
    start (a float: of every row).

    Scaling and squaring (Moler & Van Loan, SIAM Rev. 45, 3 (2003)): each
    run of rows is scaled by 2**-s so that its bound is at most 1, where the
    Taylor series above are within 1/18! of cos and sin.  Each series is
    B_0 + y^4 (B_1 + c y^4) with B_j a combination of I, y, y^2 and y^3
    (Paterson & Stockmeyer, SIAM J. Comput. 2, 60 (1973)): seven 4x4
    products for both.  s double-angle
    steps, cos 2x = 2 cos^2 x - I and sin 2x = 2 sin x cos x, undo the
    scaling.  A NaN or infinite bound raises NonFiniteHamiltonian.
    """
    norm = np.atleast_1d(norm).tolist()
    for bound in norm:
        if not math.isfinite(bound):
            raise NonFiniteHamiltonian(f"sweep exponent 1-norm is {bound}")
    n = len(x)
    runs = [(a, b, math.ceil(math.log2(v)) if v > 1.0 else 0)
            for a, b, v in zip(starts, [*starts[1:], n], norm)]
    y = np.empty((3, n, 4, 4))  # y, y^2, y^3 of the scaled 2**-s x
    np.matmul(x, x, out=y[0])
    for a, b, s in runs:  # a power of two scales exactly: no scaled copy of x
        if s:
            y[0, a:b] *= 4.0 ** -s
    np.matmul(y[0], y[0], out=y[1])
    np.matmul(y[1], y[0], out=y[2])
    y4 = y[1] @ y[1]

    def block(j):
        """B_j of cos and sin: one BLAS product for the y, y^2, y^3 terms."""
        b = (_PS[:, j, 1:] @ y.reshape(3, -1)).reshape(2, n, 4, 4)
        b.reshape(2, n, 16)[..., ::5] += _PS[:, j, :1, None]  # the I term
        return b

    cs = block(1)
    cs += _PS_TOP * y4
    cs = y4 @ cs
    cs += block(0)
    cs[1] = x @ cs[1]
    for a, b, s in runs:
        if not s:
            continue
        cs[1, a:b] *= 2.0 ** -s
        for _ in range(s):  # cos and sin commute: one product gives C^2 and SC
            cs[:, a:b] = cs[:, a:b] @ cs[0, a:b]
            cs[:, a:b] *= 2.0
            cs[0, a:b].reshape(b - a, 16)[:, ::5] -= 1.0
    return cs


def _envelope(x, seg):
    """cos^2 drive apodization over ``EDGE_FRACTION`` at both window ends,
    at positions ``x`` in segments ``seg`` (broadcast against ``x``), each
    by its segment's own formula: the flat top is 1 also past its end."""
    edge = np.where(seg == 0, x, 1.0 - x)  # the distance from the window end
    return np.where(_RAMP[seg] > 0,
                    np.sin(0.5 * np.pi * edge / EDGE_FRACTION) ** 2, 1.0)


def _sweeps(u, n):
    """Polarization after ``n`` chirps of unitary ``u`` from m_s=0 and an
    unpolarized nucleus, the electron repumped to m_s=0 after each (Ajoy et
    al., Sci. Adv. 4, eaar5492 (2018)): that leaves diag(p_up, p_dn, 0, 0),
    so a chirp maps the populations by [[1 - a, b], [a, 1 - b]], a = |u_10|^2
    + |u_30|^2 (up to down), b = |u_01|^2 + |u_21|^2 (down to up), and n
    sweeps build up P = (b - a)(1 - (1 - s)^n) / s, s = a + b."""
    w = np.abs(u[:, :2]) ** 2
    a = min(float(w[1, 0] + w[3, 0]), 1.0)  # probabilities: no rounding
    b = min(float(w[0, 1] + w[2, 1]), 1.0)  # past 1, so |1 - s| <= 1
    s = a + b
    if s == 0.0:  # U = I: the band misses the ladder
        return 0.0
    # |1 - s|^n = exp(-n x), x from log1p where s is small; n x in exact
    # integers, capped where exp(-n x) no longer moves the sum: any n
    x = -math.log1p(-s) if s < 1.0 else -math.log(s - 1.0) if s > 1.0 else 64.0
    p, q = x.as_integer_ratio()
    nx = min(n * p, 64 * q) / q
    if s > 1.0 and n % 2:  # 1 - s < 0: its odd powers are negative
        return (b - a) / s * (1.0 + math.exp(-nx))
    return (b - a) / s * -math.expm1(-nx)


@dataclass(frozen=True)
class SweepResult:
    polarization: float
    norm_drift: float      # diagnostic: max |U^H U - I| of the accepted pass
    n_steps: int           # integrator steps of every pass, coarse ones included
    error_estimate: float  # step-doubling estimate of the polarization error
    exponentials: int      # 4x4 exponentials of every pass, by _cos_sin
    exact_frames: int      # frames taken step by step: too short, or missed


def _within_run_cap(chirps):
    """StepTooCoarse unless the most steps all passes of ``chirps`` can
    take stay within MAX_RUN_STEPS: checked before any pass runs."""
    work = sum(c.max_steps for c in chirps)  # Python ints: no overflow
    if work > MAX_RUN_STEPS:
        raise StepTooCoarse(
            f"the {len(chirps)}-node run may take {work} steps, above the "
            f"{MAX_RUN_STEPS}-step cap: lower nodes, mw_rabi_Hz or "
            "hyperfine_Hz, or raise sweep_rate_Hz_per_s", math.inf)


def propagate_sweep(sys: SpinSystem, sweep: SweepParams,
                    details: bool = False, *, chirp: Optional[_Chirp] = None):
    """Net nuclear polarization after ``n_sweeps`` chirps with electron
    repolarization between sweeps; starts in m_s=0 with an unpolarized
    nucleus.  Returns the polarization, or a SweepResult when ``details``.
    ``chirp`` is the sweep's chirp when the caller has built it and checked
    the run cap (``powder_average``).

    The step count doubles from |H| dt ~ ``START_HDT`` until the Richardson
    estimate |P(2n) - P(n)| / 15 of the fourth-order scheme is within
    ``POL_TOL``; StepTooCoarse if the step cap comes first.  The first two
    passes always run (``_Chirp.max_steps``), in one call.
    """
    if chirp is None:
        chirp = _Chirp(sys, sweep)
        _within_run_cap([chirp])
    work = chirp.exponentials, chirp.exact_frames
    (u0, steps), (u, n) = chirp.unitary((0, 1))
    level, steps = 1, steps + n
    pol = _sweeps(u, sweep.n_sweeps)
    estimate = abs(pol - _sweeps(u0, sweep.n_sweeps)) / 15.0
    while estimate > POL_TOL:
        level += 1
        if steps + (sum(chirp.n0) << level) > chirp.max_steps:
            raise StepTooCoarse(
                f"polarization error estimate {estimate:.3e} above {POL_TOL:.0e} "
                f"at the {chirp.max_steps}-step cap", estimate)
        coarse = pol
        [(u, n)] = chirp.unitary((level,))
        steps += n
        pol = _sweeps(u, sweep.n_sweeps)
        estimate = abs(pol - coarse) / 15.0
    if details:
        drift = float(np.abs(u.conj().T @ u - np.eye(4)).max())
        return SweepResult(pol, drift, steps, estimate,
                           chirp.exponentials - work[0],
                           chirp.exact_frames - work[1])
    return pol


# ---------------------------------------------------------------------------
# powder averaging

@dataclass(frozen=True)
class PowderEnsemble:
    """Orientation quadrature: nodes theta_k with sin-theta weights that
    sum to one over the hemisphere."""

    thetas: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if not len(self.thetas) == len(self.weights) > 0:
            raise ValueError("thetas and weights must have equal, non-zero lengths")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")

    @classmethod
    def gauss_legendre(cls, n: int) -> "PowderEnsemble":
        """n-node Gauss-Legendre rule in cos(theta) over the hemisphere."""
        u, w = np.polynomial.legendre.leggauss(n)
        cosu = 0.5 * (u + 1.0)
        return cls(tuple(float(t) for t in np.arccos(cosu)),
                   tuple(float(x) for x in 0.5 * w))


@dataclass(frozen=True)
class PowderResult:
    mean_polarization: float
    table: tuple[tuple[float, float, float], ...]  # (theta, weight, polarization)
    nodes: tuple[SweepResult, ...]  # each node's sweep, in table order

    def signs_uniform(self) -> bool:
        signs = {p > 0 for _, _, p in self.table}
        return len(signs) == 1


def powder_average(sys_template: SpinSystem, sweep: SweepParams,
                   ensemble: PowderEnsemble) -> PowderResult:
    """Orientation-averaged transfer; per-node results reduce in node order."""
    systems = [replace(sys_template, theta_rad=t) for t in ensemble.thetas]
    chirps = [_Chirp(s, sweep) for s in systems]
    _within_run_cap(chirps)
    _frame_tables(chirps, (0, 1, 2))  # level 2: the default sweep's last pass
    results = [propagate_sweep(s, sweep, details=True, chirp=c)
               for s, c in zip(systems, chirps)]
    pols = [r.polarization for r in results]
    mean = float(sum(w * p for w, p in zip(ensemble.weights, pols)))
    table = tuple((t, w, p) for t, w, p in zip(ensemble.thetas, ensemble.weights, pols))
    return PowderResult(mean, table, tuple(results))


# ---------------------------------------------------------------------------
# polarization bookkeeping

def boltzmann_polarization(B_T: float, T_K: float) -> float:
    """Thermal nuclear polarization tanh(h gamma B / 2 k T); odd in B."""
    if T_K <= 0:
        raise ValueError("T must be positive")
    return math.tanh(H * GAMMA_N * B_T / (2.0 * K_B * T_K))


def enhancement_to_equivalent_field(epsilon: float, B_ref_T: float) -> float:
    """Field whose thermal polarization at ``ROOM_T_K`` matches an
    enhancement ``epsilon`` over the reference field; valid only in the
    linear tanh regime."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    b_eq = epsilon * B_ref_T
    for b in (B_ref_T, b_eq):
        if H * GAMMA_N * b / (2.0 * K_B * ROOM_T_K) > 0.1:
            raise NonlinearRegime(
                f"tanh argument at B={b:.3g} T exceeds 0.1; product rule invalid")
    return b_eq
