import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import constants as const

from oracles import ladder_band, lz_composition

from fieldcycle import spin
from fieldcycle.errors import NearDivergence, NonlinearRegime, StepTooCoarse
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


def test_reset_fidelity_partial():
    s = SpinSystem(1e6, math.radians(45), 0.010)
    pol = propagate_sweep(s, SweepParams(reset_fidelity=0.8, n_sweeps=2))
    assert -1.0 <= pol <= 1.0


SLOW = dict(sweep_rate_Hz_per_s=2e9, mw_rabi_Hz=15e3)


@pytest.mark.parametrize("regime", [{}, SLOW], ids=["default", "slow"])
@pytest.mark.parametrize("deg", [10, 45, 80])
def test_error_estimate_bounds_true_error(monkeypatch, regime, deg):
    s = SpinSystem(1e6, math.radians(deg), 0.010)
    res = propagate_sweep(s, SweepParams(**regime), details=True)
    assert 0 < res.error_estimate <= spin.POL_TOL
    # reference: one CF4 pass at 4x the steps of the old fixed |H| dt = 1e-2
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


def test_step_count_includes_coarse_passes(monkeypatch):
    s = SpinSystem(1e6, math.radians(45), 0.010)
    res = propagate_sweep(s, SweepParams(), details=True)
    monkeypatch.setattr(spin, "POL_TOL", math.inf)  # first pass only
    first = propagate_sweep(s, SweepParams(), details=True)
    # passes of n, 2n, 4n, ... steps, at least two of them
    assert res.n_steps in {first.n_steps * (2 ** k - 1) for k in (2, 3, 4)}


def test_sweep_params_validation():
    with pytest.raises(ValueError):
        SweepParams(sweep_rate_Hz_per_s=0.0)
    with pytest.raises(ValueError):
        SweepParams(band_width_Hz=-1.0)
    with pytest.raises(ValueError):
        SweepParams(n_sweeps=0)


# ---------------------------------------------------------------------------
# powder averaging

def test_powder_single_node_equals_single_orientation():
    s = SpinSystem(1e6, 0.0, 0.010)
    theta = math.radians(37.0)
    res = powder_average(s, SweepParams(), PowderEnsemble((theta,), (1.0,)))
    direct = propagate_sweep(SpinSystem(1e6, theta, 0.010), SweepParams())
    assert res.mean_polarization == direct


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
    assert len(res.diagnostics) == nodes
    assert all(n > 0 and 0 <= e <= spin.POL_TOL for n, e in res.diagnostics)


def test_powder_ensemble_validation():
    with pytest.raises(ValueError):
        PowderEnsemble((0.1, 0.2), (0.5, 0.6))  # weights do not sum to 1
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
