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

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import NearDivergence, NonlinearRegime, StepTooCoarse
from .util import parallel_map

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

GUARD_BAND_HZ = 1.0e6
POL_TOL = 1e-8  # step-doubling estimate of the polarization error to reach
START_HDT = 0.5  # |H| * dt of the first, coarsest pass
MIN_SEGMENT_STEPS = 32  # first-pass floor per segment: fewer steps can sit
                        # outside the fourth-order regime, where the
                        # step-doubling estimate undershoots the error
CAP_HDT = 1e-2  # step cap: all passes together stay within the exponentials
                # of fixed steps of this |H| * dt
EDGE_FRACTION = 0.12  # cos^2 drive apodization at the window edges

_CHUNK_STEPS = 16384  # steps per batched eigh (32,768 exponentials)
_SEGMENTS = ((0.0, EDGE_FRACTION), (EDGE_FRACTION, 1.0 - EDGE_FRACTION),
             (1.0 - EDGE_FRACTION, 1.0))
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
    reset_fidelity: float = 1.0

    def __post_init__(self):
        if self.sweep_rate_Hz_per_s == 0:
            raise ValueError("sweep_rate_Hz_per_s must be nonzero")
        if self.band_width_Hz <= 0:
            raise ValueError("band_width_Hz must be positive")
        if self.mw_rabi_Hz <= 0:
            raise ValueError("mw_rabi_Hz must be positive")
        if self.n_sweeps < 1:
            raise ValueError("n_sweeps must be at least 1")
        if not 0.0 <= self.reset_fidelity <= 1.0:
            raise ValueError("reset_fidelity must lie in [0, 1]")


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


def crossing_table(sys: SpinSystem, sweep: SweepParams) -> list[Crossing]:
    """The four ladder crossings, ordered as the upward sweep meets them
    (decreasing detuning)."""
    h_g, h_e = manifold_blocks(sys)
    wg, qg = np.linalg.eigh(h_g)
    we, qe = np.linalg.eigh(h_e)
    out = []
    for i in range(2):
        for j in range(2):
            coupling = sweep.mw_rabi_Hz / 2 * abs(np.vdot(qe[:, j], qg[:, i]))
            det = float(wg[i] - we[j])
            out.append(Crossing(det, i, j, float(coupling)))
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
    commutator-free Magnus scheme (CF4: two exact exponentials per step, at
    the Gauss nodes).  The step grid breaks at the drive-envelope kinks, so
    no step straddles the switch from the cos^2 ramps to the flat top."""

    def __init__(self, sys, sweep):
        h_g, h_e = manifold_blocks(sys)
        self.d_hi, d_lo = _detuning_window(sys, sweep)
        self.span = self.d_hi - d_lo
        self.omega = sweep.mw_rabi_Hz
        self.total_t = abs(self.span / sweep.sweep_rate_Hz_per_s)
        self.h_base = np.zeros((4, 4))
        self.h_base[:2, :2] = h_g
        self.h_base[2:, 2:] = h_e
        hmax_t = self.total_t * (  # |H| dt summed over the chirp
            max(abs(self.d_hi), abs(d_lo)) + self.omega
            + float(abs(np.linalg.eigvalsh(h_g)).max())
            + float(abs(np.linalg.eigvalsh(h_e)).max()))
        if self.span * sweep.sweep_rate_Hz_per_s <= 0:  # band misses the ladder
            self.n0 = [0] * len(_SEGMENTS)
        else:
            self.n0 = [max(MIN_SEGMENT_STEPS, math.ceil((b - a) * hmax_t / START_HDT))
                       for a, b in _SEGMENTS]
        # all passes together cost at most the exponentials of fixed steps
        # of |H| dt = CAP_HDT; the first two passes always run
        self.max_steps = max(math.ceil(hmax_t / CAP_HDT) // 2, 3 * sum(self.n0))

    def unitary(self, level):
        """Total unitary and step count with every segment's first-pass
        step count doubled ``level`` times."""
        u_total = np.eye(4, dtype=complex)
        n_total = 0
        for (a, b), n0 in zip(_SEGMENTS, self.n0):
            n = n0 << level
            if n == 0:  # empty window
                continue
            n_total += n
            h = (b - a) / n
            dt = self.total_t * h
            for s0 in range(0, n, _CHUNK_STEPS):
                steps = np.arange(s0, min(s0 + _CHUNK_STEPS, n))
                x = a + h * (steps[:, None] + _CF4_C)
                # x[j] holds the Gauss nodes of step j.  H is affine in the
                # detuning and the envelope, so exponents 2j (applied first)
                # and 2j + 1 take them weighted by rows 0 and 1 of _CF4_W;
                # each row sums to 1/2, the weight of h_base
                det = ((self.d_hi - self.span * x) @ _CF4_W.T).ravel()
                env = (_envelope(x) @ _CF4_W.T).ravel()
                hb = np.empty((len(det), 4, 4))
                hb[:] = 0.5 * self.h_base
                hb[:, 2, 2] += det
                hb[:, 3, 3] += det
                hb[:, 0, 2] = hb[:, 1, 3] = hb[:, 2, 0] = hb[:, 3, 1] = \
                    0.5 * self.omega * env
                w, q = np.linalg.eigh(hb)
                ub = np.matmul(q * np.exp(-2j * np.pi * dt * w)[:, None, :],
                               q.transpose(0, 2, 1))
                while ub.shape[0] > 1:
                    m = ub.shape[0]
                    if m % 2:
                        tail = ub[-1]
                        ub = np.matmul(ub[1:m:2], ub[0:m - 1:2])
                        ub = np.concatenate([ub, tail[None]])
                    else:
                        ub = np.matmul(ub[1::2], ub[0::2])
                u_total = ub[0] @ u_total
        return u_total, n_total


def _envelope(x):
    """cos^2 drive apodization over ``EDGE_FRACTION`` at both window ends."""
    env = np.ones_like(x)
    lo = x < EDGE_FRACTION
    hi = x > 1.0 - EDGE_FRACTION
    env[lo] = np.sin(0.5 * np.pi * x[lo] / EDGE_FRACTION) ** 2
    env[hi] = np.sin(0.5 * np.pi * (1.0 - x[hi]) / EDGE_FRACTION) ** 2
    return env


def _reset_electron(rho: np.ndarray, fidelity: float) -> np.ndarray:
    """Optical repolarization: project the electron back to m_s=0 keeping
    the nuclear populations; ``fidelity`` < 1 leaves part of the state
    untouched.  The sweep retrace and repumping take many nuclear Larmor
    periods, so nuclear coherences dephase between sweeps."""
    rho_n = rho[:2, :2] + rho[2:, 2:]
    reset = np.zeros_like(rho)
    reset[0, 0] = rho_n[0, 0]
    reset[1, 1] = rho_n[1, 1]
    return fidelity * reset + (1.0 - fidelity) * rho


def _sweeps(u, sweep):
    """Polarization and worst norm drift after ``n_sweeps`` chirps of
    unitary ``u`` with electron resets, from m_s=0 and an unpolarized
    nucleus."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[1, 1] = 0.5
    worst_drift = 0.0
    for _ in range(sweep.n_sweeps):
        rho = u @ rho @ u.conj().T
        worst_drift = max(worst_drift, abs(float(np.trace(rho).real) - 1.0))
        rho = _reset_electron(rho, sweep.reset_fidelity)
    return float((rho[0, 0] - rho[1, 1]).real
                 + (rho[2, 2] - rho[3, 3]).real), worst_drift


@dataclass(frozen=True)
class SweepResult:
    polarization: float
    norm_drift: float      # diagnostic: every step is unitary by construction
    n_steps: int           # integrator steps of every pass, coarse ones included
    error_estimate: float  # step-doubling estimate of the polarization error


def propagate_sweep(sys: SpinSystem, sweep: SweepParams,
                    details: bool = False):
    """Net nuclear polarization after ``n_sweeps`` chirps with electron
    repolarization between sweeps; starts in m_s=0 with an unpolarized
    nucleus.  Returns the polarization, or a SweepResult when ``details``.

    The step count doubles from |H| dt ~ ``START_HDT`` until the Richardson
    estimate |P(2n) - P(n)| / 15 of the fourth-order scheme is within
    ``POL_TOL``; StepTooCoarse if the step cap comes first.
    """
    chirp = _Chirp(sys, sweep)
    u, steps = chirp.unitary(0)
    pol, drift = _sweeps(u, sweep)
    level, estimate = 0, math.inf if steps else 0.0
    while estimate > POL_TOL:
        level += 1
        if steps + (sum(chirp.n0) << level) > chirp.max_steps:
            raise StepTooCoarse(
                f"polarization error estimate {estimate:.3e} above {POL_TOL:.0e} "
                f"at the {chirp.max_steps}-step cap", estimate)
        coarse = pol
        u, n = chirp.unitary(level)
        steps += n
        pol, drift = _sweeps(u, sweep)
        estimate = abs(pol - coarse) / 15.0
    if details:
        return SweepResult(pol, drift, steps, estimate)
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
    diagnostics: tuple[tuple[int, float], ...]  # (n_steps, error_estimate)

    def signs_uniform(self) -> bool:
        signs = {p > 0 for _, _, p in self.table}
        return len(signs) == 1


def powder_average(sys_template: SpinSystem, sweep: SweepParams,
                   ensemble: PowderEnsemble) -> PowderResult:
    """Orientation-averaged transfer; per-node results reduce in node order."""
    if len(ensemble.thetas) < 1:
        raise ValueError("empty ensemble")

    def one(theta):
        return propagate_sweep(replace(sys_template, theta_rad=theta), sweep,
                               details=True)

    results = parallel_map(one, ensemble.thetas)
    pols = [r.polarization for r in results]
    mean = float(sum(w * p for w, p in zip(ensemble.weights, pols)))
    table = tuple((t, w, p) for t, w, p in zip(ensemble.thetas, ensemble.weights, pols))
    return PowderResult(mean, table,
                        tuple((r.n_steps, r.error_estimate) for r in results))


# ---------------------------------------------------------------------------
# polarization bookkeeping

def boltzmann_polarization(B_T: float, T_K: float) -> float:
    """Thermal nuclear polarization tanh(h gamma B / 2 k T); odd in B."""
    if T_K <= 0:
        raise ValueError("T must be positive")
    return math.tanh(H * GAMMA_N * B_T / (2.0 * K_B * T_K))


def enhancement_to_equivalent_field(epsilon: float, B_ref_T: float,
                                    T_K: float = 298.0) -> float:
    """Field whose thermal polarization matches an enhancement ``epsilon``
    over the reference field; valid only in the linear tanh regime."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    b_eq = epsilon * B_ref_T
    for b in (B_ref_T, b_eq):
        if H * GAMMA_N * b / (2.0 * K_B * T_K) > 0.1:
            raise NonlinearRegime(
                f"tanh argument at B={b:.3g} T exceeds 0.1; product rule invalid")
    return b_eq
