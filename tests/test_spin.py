import importlib.util
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import constants as const

from oracles import (eigh_crossings, ladder_band, lz_composition,
                     repumped_sweeps)

from fieldcycle import spin
from fieldcycle.errors import (NearDivergence, NonFiniteHamiltonian,
                              NonlinearRegime, StepTooCoarse)
from fieldcycle.spin import (D_ZFS, GAMMA_E, GAMMA_N, PowderEnsemble,
                             SpinSystem, SweepParams, boltzmann_polarization,
                             electron_gap, enhancement_to_equivalent_field,
                             lz_probability, powder_average, propagate_sweep,
                             shifted_larmor, static_hamiltonian)


def ms0_splitting(h):
    """Oracle: eigensplitting of the m_s=0 manifold of the static model."""
    w, q = np.linalg.eigh(h)
    weight_ms0 = np.sum(np.abs(q[:2, :]) ** 2, axis=0)
    idx = np.argsort(weight_ms0)[-2:]
    return abs(w[idx[0]] - w[idx[1]])


# ---------------------------------------------------------------------------
# shifted Larmor frequency

def test_shifted_larmor_theta_zero_is_bare_larmor():
    s = SpinSystem(1e6, 0.0, 0.010)
    assert shifted_larmor(s) == GAMMA_N * 0.010


def test_shifted_larmor_zero_hyperfine():
    for deg in (0, 25, 60, 90):
        s = SpinSystem(0.0, math.radians(deg), 0.010)
        assert shifted_larmor(s) == pytest.approx(GAMMA_N * 0.010, rel=1e-12)


def test_shifted_larmor_worked_example():
    # B=10 mT, A=1 MHz, theta=90 deg: independent arithmetic of both terms
    s = SpinSystem(1e6, math.pi / 2, 0.010)
    w_l = 10.7084e6 * 0.010
    shift = (28.024e9 * 0.010) * 1e6 / 2.87e9
    assert w_l == pytest.approx(107.08e3, rel=1e-3)
    assert shift == pytest.approx(97.6e3, rel=1e-2)
    assert shifted_larmor(s) == pytest.approx(w_l + shift, rel=1e-12)
    assert shifted_larmor(s) == pytest.approx(204.7e3, rel=1e-3)


def test_shifted_larmor_guard_band():
    b_res = D_ZFS / GAMMA_E  # denominator zero at theta=0
    with pytest.raises(NearDivergence):
        shifted_larmor(SpinSystem(1e6, 0.0, b_res))


def test_shifted_larmor_vs_diagonalization_grid():
    # 1% agreement over the operating grid, guard band excluded
    for b in (1e-3, 5e-3, 10e-3, 30e-3):
        for a in (0.1e6, 0.5e6, 1e6, 5e6):
            for deg in (0, 30, 60, 90):
                s = SpinSystem(a, math.radians(deg), b)
                split = ms0_splitting(static_hamiltonian(s))
                assert split == pytest.approx(shifted_larmor(s), rel=0.01)


def test_static_hamiltonian_is_hermitian_and_gapped():
    s = SpinSystem(1e6, math.radians(40), 0.010)
    h = static_hamiltonian(s)
    assert np.allclose(h, h.T.conj())
    w = np.linalg.eigvalsh(h)
    assert w[2] - w[1] > 1e9  # electron gap dominates


def test_low_field_flag():
    assert SpinSystem(1e6, 0.0, 0.010).low_field()       # 107 kHz <= 1 MHz
    assert not SpinSystem(1e4, 0.0, 0.010).low_field()   # 107 kHz > 10 kHz


def test_closed_form_eigensystems_match_eigh():
    # traceless real symmetric blocks: random ones, diagonal ones of both
    # signs (h_g), a near-diagonal one and the zero block
    rng = np.random.default_rng(20261020)
    blocks = [np.array([[c, d], [d, -c]]) for c, d in rng.normal(size=(40, 2))]
    blocks += [np.diag([c, -c]) for c in (3.0, -3.0, 1e-300)]
    blocks += [np.array([[-2.0, 1e-9], [1e-9, 2.0]]), np.zeros((2, 2))]
    for h in blocks:
        w, q = spin._eigh2(h)
        w_ref, q_ref = np.linalg.eigh(h)
        scale = max(abs(w_ref).max(), 1e-300)
        assert np.abs(np.array(w) - w_ref).max() <= 1e-15 * scale
        assert w[0] <= w[1]  # eigh's ascending order
        q = np.array(q)
        assert np.abs(abs(q.T @ q_ref) - np.eye(2)).max() <= 1e-15  # up to sign
        assert np.abs(h @ q - q * w).max() <= 4e-16 * scale


def test_crossing_table_matches_the_eigh_crossings():
    sweep = SweepParams()
    for a in (-2e6, 0.1e6, 1e6, 5e6):
        for deg in (0, 10, 45, 90, 135, 180):
            for b in (1e-3, 0.010, 0.050):
                s = SpinSystem(a, math.radians(deg), b)
                got = spin.crossing_table(s, sweep)
                want = eigh_crossings(s, sweep)
                assert [(x.g_level, x.e_level) for x in got] == \
                    [(g, e) for _, g, e, _ in want]
                scale = max(abs(w[0]) for w in want)
                for x, (det, _, _, coupling) in zip(got, want):
                    assert x.detuning_Hz == pytest.approx(det, abs=1e-14 * scale)
                    assert x.coupling_Hz == pytest.approx(coupling, abs=1e-15 * 60e3)


# ---------------------------------------------------------------------------
# Landau-Zener

def test_lz_probability_trivial_points():
    assert lz_probability(0.0, 1e9) == 1.0
    assert lz_probability(1e5, 1e18) == pytest.approx(1.0, abs=1e-6)
    assert lz_probability(1e5, 1e3) == pytest.approx(0.0, abs=1e-12)


def test_lz_probability_half_point():
    rate = 1e9
    gap = math.sqrt(math.log(2.0) / (2 * math.pi) * rate)
    assert lz_probability(gap, rate) == pytest.approx(0.5, rel=1e-12)


def test_lz_probability_monotonicity():
    gaps = np.linspace(0, 2e5, 30)
    ps = [lz_probability(g, 1e9) for g in gaps]
    assert all(b < a for a, b in zip(ps, ps[1:]))
    rates = np.geomspace(1e8, 1e12, 30)
    ps = [lz_probability(1e4, r) for r in rates]
    assert all(b > a for a, b in zip(ps, ps[1:]))
    assert lz_probability(1e4, -1e9) == lz_probability(1e4, 1e9)


def test_lz_probability_zero_rate_rejected():
    with pytest.raises(ValueError):
        lz_probability(1e4, 0.0)


# ---------------------------------------------------------------------------
# sweep propagation

def test_fast_sweep_transfers_nothing():
    s = SpinSystem(1e6, math.radians(45), 0.010)
    pol = propagate_sweep(s, SweepParams(sweep_rate_Hz_per_s=1e14))
    assert abs(pol) < 1e-3


def test_sweep_composition_matches_propagation():
    sweep0 = SweepParams(sweep_rate_Hz_per_s=2e9, mw_rabi_Hz=15e3)
    for deg in (20, 50, 80):
        s = SpinSystem(2e6, math.radians(deg), 0.030)
        center, width = ladder_band(s, sweep0)
        sweep = SweepParams(sweep_rate_Hz_per_s=2e9, mw_rabi_Hz=15e3,
                            band_center_Hz=center, band_width_Hz=width)
        pol = propagate_sweep(s, sweep)
        assert abs(pol - lz_composition(s, sweep)) <= 1e-3


def test_sweep_norm_drift_within_tolerance():
    s = SpinSystem(1e6, math.radians(45), 0.010)
    res = propagate_sweep(s, SweepParams(), details=True)
    assert res.norm_drift < 1e-9
    # the drift of the accepted pass: passes of n, 2n, ... 2^k n steps, the
    # first two in one call
    chirp = spin._Chirp(s, SweepParams())
    level = (res.n_steps // sum(chirp.n0) + 1).bit_length() - 2
    levels = (0, 1) if level < 2 else (level,)
    u, _ = chirp.unitary(levels)[levels.index(level)]
    assert res.norm_drift == np.abs(u.conj().T @ u - np.eye(4)).max()


def random_unitaries(count):
    """Seeded Haar-random 4x4 unitaries (QR of complex Gaussians)."""
    rng = np.random.default_rng(20261019)
    for _ in range(count):
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, r = np.linalg.qr(z)
        yield q * (r.diagonal() / abs(r.diagonal()))


def test_repeated_sweeps_match_the_density_matrix_loop():
    # the per-sweep transfer s = a + b falls on both sides of 1, so both
    # signs of 1 - s are covered
    sums = []
    for u in random_unitaries(40):
        w = abs(u) ** 2
        sums.append(w[1, 0] + w[3, 0] + w[0, 1] + w[2, 1])
        for n in (1, 2, 3, 8, 100):
            assert spin._sweeps(u, n) == pytest.approx(repumped_sweeps(u, n),
                                                       abs=1e-15 * (n + 1))
    assert min(sums) < 1.0 < max(sums)


def test_repeated_chirps_match_the_density_matrix_loop():
    s = SpinSystem(1e6, math.radians(45), 0.010)
    [(u, _)] = spin._Chirp(s, SweepParams(sweep_rate_Hz_per_s=2e10)).unitary((2,))
    drift = np.abs(u.conj().T @ u - np.eye(4)).max()
    for n in (1, 2, 3, 8, 100):
        assert abs(spin._sweeps(u, n) - repumped_sweeps(u, n)) \
            <= n * drift + 1e-15


def test_repeated_sweeps_at_the_extremes():
    # a tiny transfer b = sin^2(1e-9) per sweep: 1 - b rounds to 1, yet n
    # sweeps build up n b to rounding until n b nears 1, then saturate
    u = np.eye(4, dtype=complex)
    c, s = math.cos(1e-9), math.sin(1e-9)
    u[1, 1], u[2, 1], u[1, 2], u[2, 2] = c, s, -s, c
    b = abs(u[2, 1]) ** 2
    assert spin._sweeps(u, 10 ** 6) == pytest.approx(10 ** 6 * b, rel=1e-11)
    assert spin._sweeps(u, 10 ** 400) == 1.0  # past the float range
    assert spin._sweeps(np.eye(4), 10 ** 400) == 0.0  # s = 0: U = I
    # s = 1: a full flip down in one sweep; s = 2: up and down swap
    flip = np.eye(4)[[2, 1, 3, 0]]  # up to (e, down)
    swap = np.eye(4)[[1, 0, 3, 2]]
    for n in (1, 2, 10 ** 400, 10 ** 400 + 1):
        assert spin._sweeps(flip, n) == -1.0
        assert spin._sweeps(swap, n) == 0.0


def test_sweep_regression_value_and_repeatability():
    s = SpinSystem(1e6, math.radians(45), 0.010)
    p1 = propagate_sweep(s, SweepParams())
    p2 = propagate_sweep(s, SweepParams())
    assert p1 == p2  # bit-exact per configuration
    assert p1 == pytest.approx(-0.17114135908920947, rel=1e-6)
    assert -1.0 <= p1 <= 1.0


def test_sweep_direction_flips_pumping_sign():
    s = SpinSystem(1e6, math.radians(45), 0.010)
    up = propagate_sweep(s, SweepParams())
    down = propagate_sweep(s, SweepParams(sweep_rate_Hz_per_s=-6e9))
    assert up < 0 < down


def test_multi_sweep_accumulates_toward_fixed_point():
    # gentle per-sweep transfer: repeated sweeps build polarization of a
    # stable sign
    s = SpinSystem(1e6, math.radians(45), 0.010)
    pols = [propagate_sweep(s, SweepParams(sweep_rate_Hz_per_s=2e10, n_sweeps=n))
            for n in (1, 2, 4, 8)]
    assert all(p < 0 for p in pols)
    assert all(abs(b) > abs(a) for a, b in zip(pols, pols[1:]))


def test_band_missing_resonance_gives_zero():
    s = SpinSystem(1e6, math.radians(45), 0.010)
    sweep = SweepParams(band_center_Hz=electron_gap(s) + 1e9, band_width_Hz=100e6)
    assert propagate_sweep(s, sweep) == 0.0


SLOW = dict(sweep_rate_Hz_per_s=2e9, mw_rabi_Hz=15e3)


@pytest.mark.parametrize("regime", [{}, SLOW], ids=["default", "slow"])
@pytest.mark.parametrize("deg", [10, 45, 80])
def test_error_estimate_bounds_true_error(monkeypatch, regime, deg):
    s = SpinSystem(1e6, math.radians(deg), 0.010)
    res = propagate_sweep(s, SweepParams(**regime), details=True)
    assert 0 < res.error_estimate <= spin.POL_TOL
    # reference: the second of the two CF4 passes that always run, at 8x
    # the steps of the old fixed |H| dt = 1e-2
    monkeypatch.setattr(spin, "START_HDT", spin.CAP_HDT / 4)
    monkeypatch.setattr(spin, "POL_TOL", math.inf)
    ref = propagate_sweep(s, SweepParams(**regime), details=True)
    assert ref.n_steps > 10 * res.n_steps
    assert abs(res.polarization - ref.polarization) <= res.error_estimate


def test_error_estimate_bounds_true_error_on_a_coarse_first_pass(monkeypatch):
    # a fast sweep whose ramps started at 16 steps each: the first doubling
    # was not yet fourth order, and the estimate (6.2e-9) read below the
    # true error (2.7e-8)
    s = SpinSystem(786376.1414845478, 1.316538536400009, 0.0074053039656357495)
    sweep = SweepParams(15732694357.241776, 42878.720156439274)
    assert min(spin._Chirp(s, sweep).n0) == spin.MIN_SEGMENT_STEPS
    res = propagate_sweep(s, sweep, details=True)
    tol = spin.POL_TOL
    monkeypatch.setattr(spin, "START_HDT", spin.START_HDT / 2 ** 7)
    monkeypatch.setattr(spin, "POL_TOL", math.inf)
    ref = propagate_sweep(s, sweep, details=True)
    assert abs(res.polarization - ref.polarization) <= tol


def test_step_cap_raises_with_estimate(monkeypatch):
    s = SpinSystem(1e6, math.radians(45), 0.010)
    monkeypatch.setattr(spin, "POL_TOL", 1e-16)
    with pytest.raises(StepTooCoarse) as exc:
        propagate_sweep(s, SweepParams())
    assert 1e-16 < exc.value.estimate < 1e-8


def test_run_step_cap_is_checked_before_any_step(monkeypatch):
    s = SpinSystem(1e6, math.radians(45), 0.010)
    first = spin._Chirp(s, SweepParams())
    monkeypatch.setattr(spin, "MAX_RUN_STEPS", first.max_steps)
    propagate_sweep(s, SweepParams())  # a sweep whose cap is the run cap runs
    ensemble = PowderEnsemble.gauss_legendre(8)
    work = sum(spin._Chirp(replace(s, theta_rad=t), SweepParams()).max_steps
               for t in ensemble.thetas)
    monkeypatch.setattr(spin, "MAX_RUN_STEPS", work)
    powder_average(s, SweepParams(), ensemble)  # a powder at the cap runs
    monkeypatch.setattr(spin, "MAX_RUN_STEPS", work - 1)
    monkeypatch.setattr(spin._Chirp, "unitary", None)  # never reached
    with pytest.raises(StepTooCoarse, match=f"8-node run may take {work} steps"):
        powder_average(s, SweepParams(), ensemble)
    monkeypatch.setattr(spin, "MAX_RUN_STEPS", first.max_steps - 1)
    with pytest.raises(StepTooCoarse,
                       match=f"1-node run may take {first.max_steps} steps"):
        propagate_sweep(s, SweepParams())
    with pytest.raises(StepTooCoarse) as exc:  # 2.4e32 steps: no int64 left
        propagate_sweep(s, SweepParams(mw_rabi_Hz=1e20))
    assert exc.value.estimate == math.inf


def test_step_count_includes_coarse_passes(monkeypatch):
    s = SpinSystem(1e6, math.radians(45), 0.010)
    res = propagate_sweep(s, SweepParams(), details=True)
    n = sum(spin._Chirp(s, SweepParams()).n0)
    # passes of n, 2n, 4n, ... steps, at least two of them
    assert res.n_steps in {n * (2 ** k - 1) for k in (2, 3, 4)}
    monkeypatch.setattr(spin, "POL_TOL", math.inf)  # the first two passes
    assert propagate_sweep(s, SweepParams(), details=True).n_steps == 3 * n


def test_sweep_result_counts_exponentials_and_exact_frames(monkeypatch):
    rows, cos_sin = [], spin._cos_sin
    monkeypatch.setattr(spin, "_cos_sin",
                        lambda x, *args: rows.append(len(x)) or cos_sin(x, *args))
    s = SpinSystem(1e6, math.radians(45), 0.010)
    res = propagate_sweep(s, SweepParams(), details=True)
    assert res.exponentials == sum(rows) < 2 * res.n_steps
    assert res.exact_frames == 0
    # every check missed: each frame of each pass is taken step by step too
    rows.clear()
    monkeypatch.setattr(spin, "_MATCH_TOL", -1.0)
    chirp = spin._Chirp(s, SweepParams())
    res = propagate_sweep(s, SweepParams(), details=True, chirp=chirp)
    frames = sum(len(f[0]) for f in chirp.frames.values())
    assert res.exact_frames == chirp.exact_frames == frames
    assert res.exponentials == sum(rows) == \
        2 * (res.n_steps + frames * (spin._DEGREE + 3))


def test_sweep_params_validation():
    with pytest.raises(ValueError):
        SweepParams(sweep_rate_Hz_per_s=0.0)
    with pytest.raises(ValueError):
        SweepParams(band_width_Hz=-1.0)
    with pytest.raises(ValueError):
        SweepParams(n_sweeps=0)


# ---------------------------------------------------------------------------
# CF4 exponentials: exp(-i x) = cos x - i sin x in real arithmetic

def kernel_batch(max_norm):
    """Seeded real symmetric 4x4s: the zero matrix, then 1-norms log-spaced
    from 1e-3 to ``max_norm``, with distinct, doubly and fourfold repeated
    eigenvalues."""
    rng = np.random.default_rng(20261018)
    out = [np.zeros((4, 4))]
    for i, target in enumerate(np.geomspace(1e-3, max_norm, 60)):
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        w = rng.uniform(-1.0, 1.0, 4)
        w = (w, w[[0, 0, 1, 1]], w[[0, 0, 0, 0]])[i % 3]
        x = (q * w) @ q.T
        x = 0.5 * (x + x.T)
        out.append(x * (target / np.abs(x).sum(axis=0).max()))
    return np.array(out)


def eigh_cos_sin(x):
    w, q = np.linalg.eigh(x)
    qt = q.transpose(0, 2, 1)
    return (q * np.cos(w)[:, None, :]) @ qt, (q * np.sin(w)[:, None, :]) @ qt


@pytest.mark.parametrize("max_norm", [1.0, 2.0, 4.0],
                         ids=["unscaled", "one-halving", "two-halvings"])
def test_cos_sin_matches_eigh_and_is_unitary(max_norm):
    x = kernel_batch(max_norm)
    norm = np.abs(x).sum(axis=1).max()
    assert math.ceil(math.log2(norm)) == math.log2(max_norm)  # the halvings
    c, s = spin._cos_sin(x, norm)
    c_ref, s_ref = eigh_cos_sin(x)
    assert np.abs(c - c_ref).max() <= 1e-14
    assert np.abs(s - s_ref).max() <= 1e-14
    assert np.array_equal(c[0], np.eye(4)) and not s[0].any()  # x = 0
    u = c - 1j * s
    assert np.abs(u @ u.conj().transpose(0, 2, 1) - np.eye(4)).max() <= 1e-14


def test_cos_sin_scales_each_run_of_rows_by_its_own_bound():
    # two runs, two and zero halvings: each as if on its own
    big, small = kernel_batch(4.0), kernel_batch(1.0)
    x = np.concatenate([big, small])
    norms = [np.abs(a).sum(axis=1).max() for a in (big, small)]
    c, s = spin._cos_sin(x, norms, [0, len(big)])
    for rows, a, norm in ((slice(0, len(big)), big, norms[0]),
                          (slice(len(big), None), small, norms[1])):
        c_own, s_own = spin._cos_sin(a, norm)
        assert np.abs(c[rows] - c_own).max() <= 1e-15
        assert np.abs(s[rows] - s_own).max() <= 1e-15
    c_ref, s_ref = eigh_cos_sin(x)
    assert np.abs(c - c_ref).max() <= 1e-14 and np.abs(s - s_ref).max() <= 1e-14


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cos_sin_rejects_a_non_finite_exponent(bad):
    x = kernel_batch(1.0)
    x[3, 1, 2] = x[3, 2, 1] = bad
    with pytest.raises(NonFiniteHamiltonian):
        spin._cos_sin(x, np.abs(x).sum(axis=1).max())


def chirps():
    """The default, slow and band-limited sweeps of one system."""
    s = SpinSystem(1e6, math.radians(45), 0.010)
    band = SweepParams(band_center_Hz=electron_gap(s), band_width_Hz=2e6)
    return [spin._Chirp(s, sweep)
            for sweep in (SweepParams(), SweepParams(**SLOW), band)]


@pytest.mark.parametrize("chirp", chirps(), ids=["default", "slow", "band"])
def test_chunk_norm_bound_holds_on_every_chunk(monkeypatch, chirp):
    # every batch that reaches _cos_sin: the frames' nodes and check points,
    # and with every check missed, every step of every frame; each run of
    # rows within its own bound, one run per pass
    cos_sin, exponents, runs = spin._cos_sin, [], []

    def checked(x, norm, starts=(0,)):
        bounds = np.atleast_1d(norm)
        assert len(bounds) == len(starts) and starts[0] == 0
        for a, b, bound in zip(starts, [*starts[1:], len(x)], bounds):
            assert a < b and bound >= np.abs(x[a:b]).sum(axis=1).max()
        exponents.append(len(x))
        runs.append(len(bounds))
        return cos_sin(x, norm, starts)

    monkeypatch.setattr(spin, "_cos_sin", checked)
    for tol in (spin._MATCH_TOL, -1.0):
        monkeypatch.setattr(spin, "_MATCH_TOL", tol)
        for levels in ((0,), (1,), (2,), (0, 1)):
            exponents.clear()
            runs.clear()
            chirp.unitary(levels)
            steps = sum(sum(chirp.n0) << level for level in levels)
            assert (sum(exponents) > 2 * steps) == (tol < 0)
            assert max(runs) == len(levels)


@pytest.mark.parametrize("chirp", chirps(), ids=["default", "slow", "band"])
def test_pass_unitaries_stay_unitary_to_the_measured_drift(chirp):
    # frames of up to _CHUNK_STEPS interpolated steps: the worst |U U^H - I|
    # of passes 0-2 over the three chirps measured 3.3e-13 (slow, pass 2);
    # longer or less accurate frames would show here first
    for level in (0, 1, 2):
        [(u, _)] = chirp.unitary((level,))
        assert np.abs(u @ u.conj().T - np.eye(4)).max() < 4e-13


def segment_unitary(chirp, level):
    """Oracle: each envelope segment's CF4 exponentials on their own, from
    ``_cos_sin`` at the exact norm, multiplied one by one in time order."""
    u = np.eye(4, dtype=complex)
    for seg, ((a, b), n0) in enumerate(zip(spin._SEGMENTS, chirp.n0)):
        n = n0 << level
        h = (b - a) / n
        x = a + h * (np.arange(n)[:, None] + spin._CF4_C)
        det = ((chirp.d_hi - chirp.span * x) @ spin._CF4_W.T).ravel()
        env = (spin._envelope(x, seg) @ spin._CF4_W.T).ravel()
        hb = np.zeros((2 * n, 4, 4))
        hb[:] = 0.5 * chirp.h_base
        hb[:, 2, 2] += det
        hb[:, 3, 3] += det
        hb[:, 0, 2] = hb[:, 1, 3] = hb[:, 2, 0] = hb[:, 3, 1] = \
            0.5 * chirp.omega * env
        hb *= 2.0 * np.pi * chirp.total_t * h
        c, s = spin._cos_sin(hb, np.abs(hb).sum(axis=1).max())
        for ck, sk in zip(c, s):
            u = (ck - 1j * sk) @ u
    return u


@pytest.mark.parametrize("chunk", [spin._CHUNK_STEPS, 97])
@pytest.mark.parametrize("chirp", chirps(), ids=["default", "slow", "band"])
def test_fused_pass_equals_the_per_segment_product(monkeypatch, chirp, chunk):
    # 97 steps per chunk: chunks straddle the segment boundaries, and in
    # the (0, 1) call the boundary between the passes
    monkeypatch.setattr(spin, "_CHUNK_STEPS", chunk)
    oracle = [segment_unitary(chirp, level) for level in (0, 1)]
    for levels in ((0,), (1,), (0, 1)):
        passes = chirp.unitary(levels)
        assert len(passes) == len(levels)
        for level, (u, n) in zip(levels, passes):
            assert n == sum(chirp.n0) << level
            assert np.abs(u - oracle[level]).max() <= 1e-13


def exact_steps(chirp, level, seg, first, size):
    """Oracle: the 8x8 form of each step's E1 E0 of the frames, from
    ``_cos_sin`` at the exact norm, as (steps, 8, 8)."""
    steps = np.concatenate([f + np.arange(n) for f, n in zip(first, size)])
    seg = np.repeat(seg, size)
    width = spin._WIDTHS[seg] / (np.array(chirp.n0)[seg] << level)
    x, _ = chirp.exponents(seg, width, 2.0 * np.pi * chirp.total_t * width,
                           steps)
    c, s = spin._cos_sin(x, np.abs(x).sum(axis=1).max())
    u = (c[1::2] - 1j * s[1::2]) @ (c[::2] - 1j * s[::2])
    return np.block([[u.real, -u.imag], [u.imag, u.real]])


@pytest.mark.parametrize("chirp", chirps(), ids=["default", "slow", "band"])
def test_interpolated_exponentials_match_cos_sin_on_every_frame(monkeypatch,
                                                                 chirp):
    # the interpolated step forms E1 E0 against the exact products
    tol = spin._MATCH_TOL
    monkeypatch.setattr(spin, "_MATCH_TOL", math.inf)  # no exact fallback
    spin._frame_tables([chirp], (0, 1, 2))
    for level in range(3):
        frames = chirp.frames[level]
        seg, first, size, interp = frames[:4]
        assert interp.any() and size.sum() == sum(chirp.n0) << level
        got = chirp._batch(*frames, np.zeros_like(seg)).reshape(-1, 8, 8)
        want = exact_steps(chirp, level, seg, first, size)
        assert np.abs(got - want).max() <= tol


def test_an_exact_frame_parts_runs_of_equal_frames():
    # interpolated frames of one length on both sides of an exact frame:
    # each side is its own product; the flat top's short last frame, on
    # the same table, is one more
    chirp = chirps()[2]
    spin._frame_tables([chirp], (0,))
    j = np.flatnonzero(chirp.frames[0][0] == 1)
    seg, first, size, interp, width, phase, table = (a[j] for a in
                                                     chirp.frames[0])
    assert interp.all() and len(set(size[:3])) == 1 and size[3] < size[0]
    assert len(j) == 4 and len(set(table)) == 1
    interp = np.array([True, False, True, True])
    got = chirp._batch(seg, first, size, interp, width, phase, table,
                       np.zeros_like(seg))
    want = exact_steps(chirp, 0, seg, first, size)
    assert np.abs(got.reshape(-1, 8, 8) - want).max() <= spin._MATCH_TOL


def fuzz_chirps():
    """The chirps of the default, slow and band sweeps and of the sweeps
    of tools/sweep_fuzz.py, single and multi-sweep."""
    path = Path(__file__).parents[1] / "tools" / "sweep_fuzz.py"
    loader = importlib.util.spec_from_file_location("sweep_fuzz", path)
    fuzz = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(fuzz)
    cases = fuzz.sweep_cases(spin) + fuzz.sweep_cases(
        spin, fuzz.N_MULTI, 20261019, fuzz.MULTI_COUNTS)
    return chirps() + [spin._Chirp(*case) for case in cases]


def test_frame_tables_built_together_equal_each_built_alone():
    together, levels = fuzz_chirps(), (0, 1, 2, 3)
    spin._frame_tables(together, levels)
    for chirp in fuzz_chirps():
        for level in levels:
            spin._frame_tables([chirp], (level,))
        mate = together.pop(0)
        assert chirp.frames.keys() == mate.frames.keys() == set(levels)
        for level in levels:
            for a, b in zip(chirp.frames[level], mate.frames[level]):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            seg, first, size = chirp.frames[level][:3]
            assert size.sum() == sum(chirp.n0) << level
            assert np.array_equal(first[1:], np.where(
                seg[1:] == seg[:-1], (first + size)[:-1], 0))


def test_check_weights_are_the_same_for_every_frame_length():
    # every ramp length and every power-of-two flat-top table
    powers = [2 ** k for k in range(spin._CHUNK_STEPS.bit_length())]
    for degree in (6, spin._DEGREE):
        check = spin._weights(spin._FRAME_STEPS, degree)[-2:]
        for n in sorted({*range(1, spin._FRAME_STEPS), *powers}):
            assert np.array_equal(spin._weights(n, degree)[n:], check)


def test_a_flat_top_cell_is_tiled_by_power_of_two_frames():
    # F steps per frame from step 0, only the last frame short, all on the
    # F-step table; ramp frames on their own length's table; a frame of at
    # most _DEGREE + 3 steps taken exactly, also the short last one of an
    # interpolated flat top
    chirp_list, levels = fuzz_chirps(), (0, 1, 2, 3)
    spin._frame_tables(chirp_list, levels)
    short_last = 0
    for chirp in chirp_list:
        for level in levels:
            seg, first, size, interp, _, _, table = chirp.frames[level]
            assert (size[interp] > spin._DEGREE + 3).all()
            ramp = seg != 1
            assert np.array_equal(table[ramp], size[ramp])
            assert size[ramp].max() <= spin._FRAME_STEPS
            n = chirp.n0[1] << level
            flat = np.flatnonzero(~ramp)
            f = int(table[flat[0]])
            assert (table[flat] == f).all() and f & (f - 1) == 0
            if interp[flat].any():  # at most twice the segment
                assert f <= spin._CHUNK_STEPS and f < 2 * n
                assert np.array_equal(interp[flat],
                                      size[flat] > spin._DEGREE + 3)
                short_last += not interp[flat[-1]]
            else:  # exact frames
                assert f == spin._FRAME_STEPS
            assert np.array_equal(first[flat], f * np.arange(len(flat)))
            assert (size[flat[:-1]] == f).all()
            assert 0 < size[flat[-1]] <= f and size[flat].sum() == n
    assert short_last  # the fuzz systems reach the case


def test_no_interpolation_product_takes_more_than_frame_steps_rows(
        monkeypatch):
    # flat-top frames longer than _FRAME_STEPS are interpolated in pieces
    # of at most _FRAME_STEPS rows each
    chirp, rows, matmul = chirps()[0], [], np.matmul

    def recorded(a, b, **kw):
        if np.ndim(a) == 2 and np.ndim(b) == 3:  # weights @ deviations
            rows.append(len(a))
        return matmul(a, b, **kw)

    monkeypatch.setattr(np, "matmul", recorded)
    for level in (0, 1, 2):
        chirp.unitary((level,))
    assert max(chirp.frames[2][2]) > spin._FRAME_STEPS
    assert rows and max(rows) <= spin._FRAME_STEPS


def test_the_weights_cache_stays_bounded_over_the_benchmark_powders():
    # the 45 (grid point, regime) powders of fcbench: ramp lengths up to
    # _FRAME_STEPS and the powers of two above it up to _CHUNK_STEPS
    regimes = {"default16": (16, {}), "default32": (32, {}), "slow16": (16, SLOW)}
    spin._weights.cache_clear()
    for e in json.loads(REFERENCE.read_text()):
        nodes, sweep = regimes[e["regime"]]
        powder_average(SpinSystem(e["hyperfine_Hz"], 0.0, e["B_pol_T"]),
                       SweepParams(**sweep), PowderEnsemble.gauss_legendre(nodes))
    longer = (spin._CHUNK_STEPS // spin._FRAME_STEPS).bit_length() - 1
    assert spin._weights.cache_info().currsize <= spin._FRAME_STEPS + longer


def frame_gaps(chirp, frames):
    """Oracle: per interpolated frame, the largest gap between the
    interpolant and the exact step at the two check points, each frame
    checked by the check rows of its own length's table."""
    degree = spin._DEGREE
    gaps = {}
    for seg, first, size, interp, width, phase, table in zip(*frames):
        if not interp:
            continue
        half = 0.5 * (table - 1)
        at = first + half + half * spin._points(degree)
        x, bound = chirp.exponents(*(np.full(len(at), v)
                                     for v in (seg, width, phase)), at)
        rows = spin._step_forms(spin._cos_sin(x, bound.max()))
        dev = np.vstack([rows[:degree + 1] - rows[degree // 2],
                         rows[degree // 2]])
        w = spin._weights(int(table), degree)[table:]
        gaps[int(first), int(seg)] = np.abs(w @ dev - rows[degree + 1:]).max()
    return gaps


@pytest.mark.parametrize("chirp", chirps(), ids=["default", "slow", "band"])
def test_the_batch_check_flags_the_frames_each_frame_check_flags(monkeypatch,
                                                                 chirp):
    # degree 6 on frames sized for degree 14: the gaps spread over decades,
    # and a tolerance between two of them splits the frames
    monkeypatch.setattr(spin, "_DEGREE", 6)
    spin._frame_tables([chirp], (1,))
    frames = chirp.frames[1]
    gaps = frame_gaps(chirp, frames)
    # the widest split between two neighbouring gaps
    cut = sorted(gaps.values())
    low, high = max(zip(cut, cut[1:]), key=lambda pair: pair[1] / pair[0])
    assert high > 2.0 * low
    monkeypatch.setattr(spin, "_MATCH_TOL", math.sqrt(low * high))
    calls, exponents = [], chirp.exponents

    def recorded(seg, width, phase, t):
        calls.append((int(t[0]), int(seg[0])))
        return exponents(seg, width, phase, t)

    monkeypatch.setattr(chirp, "exponents", recorded)
    chirp._batch(*frames, np.zeros_like(frames[0]))
    # the first call is the batch's nodes; each later one takes a frame
    taken = {(first, seg) for (first, seg), gap in gaps.items() if gap >= high}
    assert 0 < len(taken) < len(gaps)
    assert sorted(calls[1:]) == sorted(taken)


@pytest.mark.parametrize("chirp", chirps(), ids=["default", "slow", "band"])
def test_a_missed_check_takes_the_frame_exactly(monkeypatch, chirp):
    # degree 6 on frames sized for degree 14: the interpolants miss
    monkeypatch.setattr(spin, "_DEGREE", 6)
    for level in (0, 1):
        oracle = segment_unitary(chirp, level)
        [(u, _)] = chirp.unitary((level,))
        assert np.abs(u - oracle).max() <= 1e-13
        with monkeypatch.context() as m:
            m.setattr(spin, "_MATCH_TOL", math.inf)
            [(u, _)] = chirp.unitary((level,))
        assert np.abs(u - oracle).max() > 1e-10


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_hamiltonian_raises(bad):
    with pytest.raises(NonFiniteHamiltonian):
        propagate_sweep(SpinSystem(bad, math.radians(45), 0.010), SweepParams())
    # past the chirp's own check, the exponent reaches _cos_sin as a node
    chirp = chirps()[0]
    chirp.h_base[2, 3] = chirp.h_base[3, 2] = bad
    chirp.base_norm = float(np.abs(0.5 * chirp.h_base).sum(axis=0).max())
    with pytest.raises(NonFiniteHamiltonian):
        chirp.unitary((0,))


def test_an_empty_window_gives_the_identity():
    s = SpinSystem(1e6, math.radians(45), 0.010)
    chirp = spin._Chirp(s, SweepParams(band_center_Hz=electron_gap(s) + 1e9,
                                       band_width_Hz=100e6))
    [(u, n)] = chirp.unitary((0,))
    assert n == 0 and np.array_equal(u, np.eye(4))


# ---------------------------------------------------------------------------
# powder averaging

def test_powder_single_node_equals_single_orientation():
    s = SpinSystem(1e6, 0.0, 0.010)
    theta = math.radians(37.0)
    res = powder_average(s, SweepParams(), PowderEnsemble((theta,), (1.0,)))
    direct = propagate_sweep(SpinSystem(1e6, theta, 0.010), SweepParams())
    assert res.mean_polarization == direct


def test_powder_builds_each_chirp_once(monkeypatch):
    built, init = [], spin._Chirp.__init__
    tabled, tables = [], spin._frame_tables

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    def counted_tables(chirps, levels):
        tabled.append((len(chirps), tuple(levels)))
        tables(chirps, levels)

    monkeypatch.setattr(spin._Chirp, "__init__", counted)
    monkeypatch.setattr(spin, "_frame_tables", counted_tables)
    powder_average(SpinSystem(1e6, 0.0, 0.010),
                   SweepParams(sweep_rate_Hz_per_s=3e10),
                   PowderEnsemble.gauss_legendre(8))
    assert len(built) == 8
    assert tabled == [(8, (0, 1, 2))]  # one frame-table pass per powder


def test_powder_sign_uniform_low_field():
    s = SpinSystem(1e6, 0.0, 0.010)
    res = powder_average(s, SweepParams(), PowderEnsemble.gauss_legendre(16))
    assert res.signs_uniform()
    degs = [math.degrees(t) for t, _, _ in res.table]
    assert min(degs) > 5.0 and max(degs) < 90.0


def test_powder_quadrature_converges():
    s = SpinSystem(1e6, 0.0, 0.010)
    m16 = powder_average(s, SweepParams(), PowderEnsemble.gauss_legendre(16))
    m32 = powder_average(s, SweepParams(), PowderEnsemble.gauss_legendre(32))
    rel = abs(m32.mean_polarization - m16.mean_polarization) / abs(m16.mean_polarization)
    assert rel < 0.01


REFERENCE = Path(__file__).resolve().parent.parent / "fcbench" / "dnp_reference.json"


@pytest.mark.parametrize("regime,nodes,sweep", [
    ("default16", 16, {}), ("default32", 32, {}), ("slow16", 16, SLOW)],
    ids=["default16", "default32", "slow16"])
def test_powder_matches_benchmark_reference(regime, nodes, sweep):
    expect = next(e["mean_polarization"] for e in json.loads(REFERENCE.read_text())
                  if (e["hyperfine_Hz"], e["B_pol_T"], e["regime"])
                  == (1.0e6, 0.010, regime))
    res = powder_average(SpinSystem(1.0e6, 0.0, 0.010), SweepParams(**sweep),
                         PowderEnsemble.gauss_legendre(nodes))
    assert res.mean_polarization == pytest.approx(expect, rel=1e-6)
    assert len(res.nodes) == nodes
    assert all(r.n_steps > 0 and 0 <= r.error_estimate <= spin.POL_TOL
               for r in res.nodes)


def test_powder_ensemble_validation():
    with pytest.raises(ValueError):
        PowderEnsemble((0.1, 0.2), (0.5, 0.6))  # weights do not sum to 1
    with pytest.raises(ValueError, match="equal, non-zero lengths"):
        PowderEnsemble((0.1, 0.2), (1.0,))  # one weight for two nodes
    with pytest.raises(ValueError, match="equal, non-zero lengths"):
        PowderEnsemble((), ())
    with pytest.raises(ValueError):
        PowderEnsemble((0.1,), (-1.0,))
    ens = PowderEnsemble.gauss_legendre(8)
    assert sum(ens.weights) == pytest.approx(1.0, abs=1e-12)
    assert all(w > 0 for w in ens.weights)


# ---------------------------------------------------------------------------
# polarization bookkeeping

def test_boltzmann_zero_field():
    assert boltzmann_polarization(0.0, 298.0) == 0.0


def test_boltzmann_13c_7t_room_temperature():
    # independent hand calculation from CODATA constants
    expect = math.tanh(const.h * 10.7084e6 * 7.0 / (2 * const.k * 298.0))
    got = boltzmann_polarization(7.0, 298.0)
    assert got == pytest.approx(expect, rel=1e-12)
    assert got == pytest.approx(6.0e-6, rel=0.05)


def test_boltzmann_linear_scaling_small_field():
    p1 = boltzmann_polarization(1e-4, 298.0)
    p2 = boltzmann_polarization(2e-4, 298.0)
    assert p2 / p1 == pytest.approx(2.0, rel=1e-6)


def test_boltzmann_monotone():
    bs = np.linspace(0, 20, 50)
    ps = [boltzmann_polarization(float(b), 4.2) for b in bs]
    assert all(b > a for a, b in zip(ps, ps[1:]))


def test_boltzmann_odd_in_field():
    for b in (0.1, 1.0, 20.0):
        assert boltzmann_polarization(-b, 298.0) == -boltzmann_polarization(b, 298.0)


def test_boltzmann_validation():
    with pytest.raises(ValueError):
        boltzmann_polarization(1.0, 0.0)


def test_enhancement_examples():
    assert enhancement_to_equivalent_field(277, 7.0) == pytest.approx(1939.0)
    assert enhancement_to_equivalent_field(277, 7.0) > 1900.0
    assert enhancement_to_equivalent_field(1.0, 7.0) == 7.0
    assert enhancement_to_equivalent_field(0.5, 7.0) == 3.5


def test_enhancement_nonlinear_regime_guard():
    with pytest.raises(NonlinearRegime):
        enhancement_to_equivalent_field(2e4, 7.0)
    with pytest.raises(ValueError):
        enhancement_to_equivalent_field(-1.0, 7.0)


def test_constants_validation():
    with pytest.raises(ValueError):
        SpinSystem(1e6, -0.1, 0.010)
    with pytest.raises(ValueError):
        SpinSystem(1e6, 0.1, 0.0)
