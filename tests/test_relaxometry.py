import csv
import io
import math

import numpy as np
import pytest

from fieldcycle.errors import FitDiverged, InsufficientPoints
from fieldcycle.fieldmap import reference_map
from fieldcycle.motion import MotionLimits
from fieldcycle.relaxometry import (DecayCurve, RelaxationModel,
                                    RelaxometryProtocol, _shuttle_log_loss,
                                    build_t1_map, fit_decay, invert_t1,
                                    simulate_protocol, synthetic_decay,
                                    t1_of_field)

MODEL = RelaxationModel()


def test_t1_anchor_values():
    assert t1_of_field(7.0, MODEL) == pytest.approx(395.7, rel=0.01)
    assert t1_of_field(0.008, MODEL) == pytest.approx(10.19, rel=0.05)


def test_t1_knee_midpoint_identity():
    mid = MODEL.T1_min_s + (MODEL.T1_max_s - MODEL.T1_min_s) / 2
    assert t1_of_field(MODEL.B_knee_T, MODEL) == pytest.approx(mid, rel=1e-12)


def test_t1_monotone_in_field():
    bs = np.linspace(0.0, 8.0, 400)
    t1 = t1_of_field(bs, MODEL)
    assert np.all(np.diff(t1) > 0)


def test_invert_t1_round_trip():
    for target in (12.0, 50.0, 200.0, 390.0):
        b = invert_t1(target, MODEL)
        assert t1_of_field(b, MODEL) == pytest.approx(target, rel=1e-12)
    with pytest.raises(ValueError):
        invert_t1(1.0, MODEL)


def test_instant_shuttle_matches_closed_form(ref_map):
    prot = RelaxometryProtocol(B_relax_T=0.008,
                               T_relax_list_s=(5.0, 10.0, 20.0, 40.0))
    curve = simulate_protocol(prot, ref_map, instant_shuttle=True)
    t1r = float(t1_of_field(0.008, MODEL))
    sig = np.abs(curve.signals)
    expect = np.exp(-curve.waits / t1r)
    assert np.max(np.abs(sig / sig[0] - expect / expect[0])) < 1e-6


def test_infinite_t1_gives_flat_curve(ref_map):
    calm = RelaxationModel(T1_max_s=1e12, T1_min_s=1e11)
    prot = RelaxometryProtocol(B_relax_T=0.008, T_relax_list_s=(1.0, 2.0, 4.0))
    curve = simulate_protocol(prot, ref_map, model=calm)
    assert np.max(np.abs(curve.signals - curve.signals[0])) < 1e-9


def test_real_shuttles_cost_signal_with_bound(ref_map):
    prot = RelaxometryProtocol(B_relax_T=0.008,
                               T_relax_list_s=(5.0, 10.0, 20.0, 40.0))
    instant = simulate_protocol(prot, ref_map, instant_shuttle=True)
    real = simulate_protocol(prot, ref_map)
    ratio = np.abs(real.signals) / np.abs(instant.signals)
    assert np.all(ratio < 1.0)
    # two moves, each 648 ms, never relaxing faster than T1_min
    t_transit = 2 * 0.6481
    assert np.all(ratio >= math.exp(-t_transit / MODEL.T1_min_s))


def test_integrator_convergence_on_dt(ref_map):
    prot = RelaxometryProtocol(B_relax_T=0.05, T_relax_list_s=(2.0, 5.0, 9.0, 14.0))
    c1 = simulate_protocol(prot, ref_map, dt=1e-4)
    c2 = simulate_protocol(prot, ref_map, dt=5e-5)
    assert np.max(np.abs(c1.signals - c2.signals) / np.abs(c1.signals)) < 1e-6


def test_polarization_positive_and_decaying(ref_map):
    prot = RelaxometryProtocol(B_relax_T=0.1, initial_polarization_sign="aligned",
                               T_relax_list_s=tuple(np.linspace(1, 60, 12)))
    curve = simulate_protocol(prot, ref_map)
    assert np.all(curve.signals > 0)
    assert np.all(np.diff(curve.signals) < 0)


def test_anti_aligned_sign_flag(ref_map):
    prot = RelaxometryProtocol(B_relax_T=0.1, T_relax_list_s=(1.0, 2.0, 4.0, 8.0))
    curve = simulate_protocol(prot, ref_map)
    assert np.all(curve.signals < 0)
    fit = fit_decay(curve)
    assert fit.amplitude < 0
    assert fit.T1_s > 0


@pytest.mark.parametrize("sign", ["aligned", "anti_aligned"])
def test_protocol_curve_equals_the_per_wait_loop(ref_map, sign):
    """Bit for bit against the loop simulate_protocol ran before it called
    synthetic_decay: sign * (exp(-loss) * exp(-wait / T1)), then one noise
    draw per wait."""
    prot = RelaxometryProtocol(B_relax_T=0.1, initial_polarization_sign=sign,
                               T_relax_list_s=tuple(np.linspace(1, 60, 12)))
    curve = simulate_protocol(prot, ref_map, seed=3, noise_sigma=0.01)
    z_pol, z_relax, z_det = (ref_map.position_of_field(b) for b in (
        prot.B_pol_T, prot.B_relax_T, prot.detect_field_T))
    loss = sum(_shuttle_log_loss(a, b, ref_map, MotionLimits(), MODEL, 1e-4)
               for a, b in ((z_pol, z_relax), (z_relax, z_det)))
    t1 = float(t1_of_field(prot.B_relax_T, MODEL))
    rng = np.random.default_rng(3)
    expected = []
    for wait in prot.T_relax_list_s:
        signal = (1.0 if sign == "aligned" else -1.0) * (
            math.exp(-loss) * math.exp(-wait / t1))
        expected.append((float(wait), float(signal + rng.normal(0.0, 0.01))))
    assert curve.points == tuple(expected)


def test_fit_round_trip_noiseless_grid():
    for t1 in (5.0, 20.0, 120.0, 500.0):
        waits = tuple(np.linspace(0.2 * t1, 2.0 * t1, 24))
        fit = fit_decay(synthetic_decay(t1, waits))
        assert fit.T1_s == pytest.approx(t1, rel=1e-3)
        assert fit.beta == 1.0


def test_fit_round_trip_stretched():
    waits = tuple(np.linspace(5, 120, 24))
    fit = fit_decay(synthetic_decay(50.0, waits, beta=1.3), "stretched")
    assert fit.beta == pytest.approx(1.3, rel=0.02)
    assert fit.T1_s == pytest.approx(50.0, rel=0.02)


def test_super_exponential_detectable_by_residuals():
    waits = tuple(np.linspace(5, 120, 24))
    curve = synthetic_decay(50.0, waits, beta=1.4)
    mono = fit_decay(curve, "monoexponential")
    stretched = fit_decay(curve, "stretched")
    assert mono.residual_rms > stretched.residual_rms


def test_fit_noise_robustness_snr20():
    t1 = 50.0
    waits = tuple(np.linspace(0.2 * t1, 2.0 * t1, 200))
    bad = 0
    for trial in range(100):
        curve = synthetic_decay(t1, waits, noise_sigma=1.0 / 20.0,
                                seed=1000 + trial)
        fit = fit_decay(curve)
        if abs(fit.T1_s - t1) / t1 > 0.05:
            bad += 1
    assert bad <= 5  # 95% of trials within 5%


def test_fit_input_validation():
    with pytest.raises(InsufficientPoints):
        fit_decay(DecayCurve(((1.0, 1.0), (2.0, 0.5), (3.0, 0.2))))
    with pytest.raises(ValueError):
        fit_decay(synthetic_decay(10.0, (1.0, 2.0, 3.0, 4.0)), "bogus")
    zeros = DecayCurve(((1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (4.0, 0.0)))
    with pytest.raises(FitDiverged):
        fit_decay(zeros)


def _trf_mono_fit(curve):
    """The monoexponential fit as scipy's bounded TRF solves it, from the
    same log-linear start: the oracle for the variable-projection fit."""
    from scipy.optimize import least_squares

    t, y = curve.waits, curve.signals
    sign = -1.0 if np.median(y) < 0 else 1.0
    y = sign * y
    pos = y > 0
    if np.count_nonzero(pos) < 2:
        raise FitDiverged("too few positive signals")
    slope, intercept = np.polyfit(t[pos], np.log(y[pos]), 1)
    t10 = max(-1.0 / slope if slope < 0 else float(t[-1]), 1e-9)
    sol = least_squares(lambda p: p[0] * np.exp(-t / p[1]) - y,
                        [float(np.exp(intercept)), t10],
                        bounds=([0.0, 1e-9], [np.inf, np.inf]), method="trf",
                        xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=2000)
    if not sol.success or not np.all(np.isfinite(sol.x)):
        raise FitDiverged(sol.message)
    cov = (np.linalg.inv(sol.jac.T @ sol.jac)
           * (sol.fun @ sol.fun / max(1, len(t) - 2)))
    return sol.x[1], sign * sol.x[0], np.sqrt(np.maximum(np.diag(cov), 0.0))


def _oracle_curves():
    """304 seeded curves: noiseless grids, SNR-20 trials and reference-map
    protocol curves of both signs, half of them noisy."""
    curves = [synthetic_decay(t1, tuple(np.linspace(0.2 * t1, 2.0 * t1, 24)))
              for t1 in (5.0, 20.0, 120.0, 500.0)]
    curves += [synthetic_decay(50.0, tuple(np.linspace(10.0, 100.0, 200)),
                               noise_sigma=0.05, seed=1000 + trial)
               for trial in range(100)]
    fmap = reference_map()
    rng = np.random.default_rng(11)
    for i in range(200):
        b = float(10 ** rng.uniform(math.log10(0.008), math.log10(7.0)))
        t1b = float(t1_of_field(b, MODEL))
        waits = tuple(np.linspace(0.2 * t1b, 2.0 * t1b, int(rng.integers(4, 25))))
        prot = RelaxometryProtocol(
            B_relax_T=b, T_relax_list_s=waits,
            initial_polarization_sign=("aligned", "anti_aligned")[i % 2])
        curves.append(simulate_protocol(prot, fmap, seed=i,
                                        noise_sigma=0.01 if i % 4 < 2 else 0.0))
    return curves


def test_mono_fit_matches_scipy_trf():
    curves = _oracle_curves()
    assert len(curves) >= 300
    for curve in curves:
        try:
            t1, amp, stderr = _trf_mono_fit(curve)
        except FitDiverged:
            with pytest.raises(FitDiverged):
                fit_decay(curve)
            continue
        fit = fit_decay(curve)
        assert fit.T1_s == pytest.approx(t1, rel=1e-7)
        assert fit.amplitude == pytest.approx(amp, rel=1e-7)
        for got, want in zip(fit.param_stderr, stderr):
            if want > 1e-9:
                assert got == pytest.approx(want, rel=1e-6)


def test_mono_fit_edge_curves():
    waits = (1.0, 2.0, 3.0, 4.0)
    # flat and increasing curves: the projected cost falls all the way to
    # T1 -> infinity (scipy's TRF wandered off to 6.8e8 s and 1.1e9 s)
    for signals in ((0.5, 0.5, 0.5, 0.5), (0.5, 0.6, 0.7, 0.8)):
        with pytest.raises(FitDiverged, match="no interior stationary point"):
            fit_decay(DecayCurve(tuple(zip(waits, signals))))
    # a decay of 3e-7 over the waits is not resolved (TRF: T1 = 1e7 s)
    with pytest.raises(FitDiverged, match="no interior stationary point"):
        fit_decay(synthetic_decay(1e7, waits))
    # signals down to exp(-400): products underflow unless t is shifted
    # and y scaled
    fit = fit_decay(synthetic_decay(0.01, waits))
    assert fit.T1_s == pytest.approx(0.01, rel=1e-12)
    assert fit.amplitude == pytest.approx(1.0, rel=1e-12)
    # pure noise with a spurious fast decay (TRF: 0.317941542622832 s)
    noise = synthetic_decay(1.0, waits + (5.0,), amplitude=0.0,
                            noise_sigma=0.01, seed=4)
    fit = fit_decay(noise)
    assert fit.T1_s == pytest.approx(0.317941542622832, rel=1e-6)
    assert fit.amplitude == pytest.approx(-0.15211633145440348, rel=1e-6)
    # the same noise on four waits rises (TRF: T1 = 4.8e-5 s, A = 9e-6)
    with pytest.raises(FitDiverged, match="no interior stationary point"):
        fit_decay(synthetic_decay(1.0, waits, amplitude=0.0, noise_sigma=0.01,
                                  seed=4))
    # the only stationary point wants a negative amplitude (TRF: A -> 0)
    with pytest.raises(FitDiverged, match="non-positive amplitude"):
        fit_decay(DecayCurve(tuple(zip(waits + (5.0,),
                                       (0.35, -0.6, -0.35, -0.5, 2.1)))))
    # one positive point: no log-linear start
    with pytest.raises(FitDiverged, match="too few positive"):
        fit_decay(DecayCurve(tuple(zip(waits, (0.5, 0.0, -0.001, 0.0)))))
    # curves on which TRF raised ValueError (non-finite residuals)
    with pytest.raises(FitDiverged, match="non-finite"):
        fit_decay(DecayCurve(tuple(zip(waits, (1.0, 0.5, float("nan"), 0.1)))))
    with pytest.raises(FitDiverged, match="overflows"):
        fit_decay(DecayCurve(tuple(zip((10.0, 11.0, 12.0, 13.0),
                                       (1e300, 1e200, 1e100, 1.0)))))


def test_stretched_fit_edge_curves():
    waits = (1.0, 2.0, 3.0, 4.0)
    # scipy raised ValueError (residuals not finite at the initial point)
    with pytest.raises(FitDiverged, match="overflows"):
        fit_decay(DecayCurve(tuple(zip((10.0, 11.0, 12.0, 13.0),
                                       (1e300, 1e200, 1e100, 1.0)))),
                  "stretched")
    # a flat curve returned T1 of about 4e4 s with NaN standard errors
    with pytest.raises(FitDiverged, match="no interior stationary point"):
        fit_decay(DecayCurve(tuple(zip(waits, (0.5,) * 4))), "stretched")
    # the mono fit resolves T1 = 1.4e5 s; the stretched one runs off to 2e9 s
    curve = DecayCurve(tuple(zip(waits, (0.99999, 0.99998, 0.99997, 0.999969))))
    assert fit_decay(curve).T1_s == pytest.approx(1.37e5, rel=0.01)
    with pytest.raises(FitDiverged, match="exceeds 1e\\+06 wait spans"):
        fit_decay(curve, "stretched")


def test_fit_deterministic():
    waits = tuple(np.linspace(2, 60, 16))
    curve = synthetic_decay(23.0, waits, noise_sigma=0.02, seed=5)
    f1, f2 = fit_decay(curve), fit_decay(curve)
    assert f1 == f2


def test_decay_curve_csv_round_trip():
    curve = synthetic_decay(10.0, (1.0, 2.0, 4.0, 8.0), noise_sigma=0.01, seed=1)
    rows = list(csv.reader(io.StringIO(curve.to_csv())))
    assert rows[0] == ["T_relax_s", "signal_au"]
    back = DecayCurve(tuple((float(t), float(y)) for t, y in rows[1:]))
    assert back == curve


def test_protocol_validation():
    with pytest.raises(ValueError):
        RelaxometryProtocol(T_relax_list_s=(5.0, 4.0))
    with pytest.raises(ValueError):
        RelaxometryProtocol(initial_polarization_sign="sideways")


def test_t1_map_round_trip_and_knee(ref_map):
    fields = [0.008, 0.1, 0.5, 1.0, 7.0]
    curves = []
    for b in fields:
        t1b = float(t1_of_field(b, MODEL))
        prot = RelaxometryProtocol(
            B_relax_T=b, T_relax_list_s=tuple(np.linspace(0.2 * t1b, 2 * t1b, 16)))
        curves.append(simulate_protocol(prot, ref_map))
    t1map = build_t1_map(fields, curves)
    assert not t1map.failures
    values = t1map.t1_values()
    assert np.all(np.diff(values) > 0)  # monotone in B
    mid = (MODEL.T1_min_s + MODEL.T1_max_s) / 2
    assert values[1] < mid < values[3]  # knee between 0.1 and 1 T
    rates = 1.0 / values
    assert np.all(np.diff(np.log(rates)) < 0)  # 1/T1 decreasing on log scale
    # fitted values match the generating model through the full pipeline
    for b, fit in t1map.entries:
        assert fit.T1_s == pytest.approx(float(t1_of_field(b, MODEL)), rel=1e-3)


def test_t1_map_single_field(ref_map):
    prot = RelaxometryProtocol(B_relax_T=0.1,
                               T_relax_list_s=tuple(np.linspace(2, 50, 8)))
    t1map = build_t1_map([0.1], [simulate_protocol(prot, ref_map)])
    assert len(t1map.entries) == 1


def test_t1_map_partial_failures(ref_map):
    good_prot = RelaxometryProtocol(B_relax_T=0.1,
                                    T_relax_list_s=tuple(np.linspace(2, 50, 8)))
    good = simulate_protocol(good_prot, ref_map)
    too_short = DecayCurve(((1.0, 1.0), (2.0, 0.9)))
    t1map = build_t1_map([0.1, 0.2], [good, too_short])
    assert len(t1map.entries) == 1
    assert len(t1map.failures) == 1
    assert t1map.failures[0][0] == 0.2


def test_relaxation_model_validation():
    with pytest.raises(ValueError):
        RelaxationModel(T1_min_s=100.0, T1_max_s=10.0)
    with pytest.raises(ValueError):
        RelaxationModel(B_knee_T=-1.0)
