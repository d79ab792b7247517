"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its runtime budget.  Run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines."""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import constants as const

from fieldcycle import fieldmap as fm
from fieldcycle import motion as mo
from fieldcycle import relaxometry as rx
from fieldcycle import sequencer as sq
from fieldcycle import spin as sp
from fieldcycle.cli import main as cli_main


@contextmanager
def criterion(num, name, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - t0
    if elapsed >= budget_s:
        print(f"\nACCEPTANCE {num:02d} {name}: FAIL "
              f"(runtime {elapsed:.2f} s over the {budget_s:.0f} s budget)")
        raise AssertionError(f"runtime {elapsed:.2f} s >= {budget_s} s")
    print(f"\nACCEPTANCE {num:02d} {name}: PASS ({elapsed:.2f} s)")


def test_criterion_01_lac_consistency(ref_map):
    with criterion(1, "lac-consistency", 1.0):
        es = ref_map.plan_lac_access(0.051, precision_m=50e-6, v_max=2.0)
        gs = ref_map.plan_lac_access(0.102, precision_m=50e-6, v_max=2.0)
        assert es.resolution_T == pytest.approx(0.114e-4, rel=0.02)
        assert es.max_sweep_rate_T_per_s == pytest.approx(0.458, rel=0.02)
        assert gs.resolution_T == pytest.approx(0.303e-4, rel=0.02)
        assert gs.max_sweep_rate_T_per_s == pytest.approx(1.21, rel=0.02)


def test_criterion_02_shuttle_timing(limits):
    with criterion(2, "shuttle-timing", 5.0):
        prof = mo.plan(1.1627, limits)
        assert mo.duration(prof) == pytest.approx(0.648, abs=0.5e-3)

        rng = np.random.default_rng(20260810)
        for _ in range(100):
            d = rng.uniform(0.001, 1.6)
            v = rng.uniform(0.1, 2.0)
            a = rng.uniform(1.0, 30.0)
            p = mo.plan(d, mo.MotionLimits(v_max=v, a_max=a))
            traj = mo.sample_trajectory(p, 1e-3)
            dt = np.diff(traj.t)
            v_int = np.concatenate(
                [[0.0], np.cumsum(0.5 * (traj.a[1:] + traj.a[:-1]) * dt)])
            z_int = np.concatenate(
                [[traj.z[0]], traj.z[0] + np.cumsum(0.5 * (v_int[1:] + v_int[:-1]) * dt)])
            assert abs(traj.t[-1] - mo.duration_closed_form(d, v, a)) <= 1e-6
            assert abs(abs(z_int[-1] - z_int[0]) - d) <= 1e-6

        durations = [mo.duration(mo.plan(1.1627, limits, v_target=float(v)))
                     for v in np.linspace(0.5, 2.0, 7)]
        assert all(b < a for a, b in zip(durations, durations[1:]))


def test_criterion_03_jitter_statistics():
    with criterion(3, "jitter-statistics", 5.0):
        jm = mo.JitterModel(sigma_s=2.6e-3, seed=20260810)
        draws = np.array([mo.apply_jitter(0.648, jm) for _ in range(1400)])
        sd = float(np.std(draws - 0.648, ddof=1))
        assert 2.4e-3 <= sd <= 2.8e-3


def test_criterion_04_enhancement_arithmetic():
    with criterion(4, "enhancement-arithmetic", 1.0):
        b_eq = sp.enhancement_to_equivalent_field(277.0, 7.0)
        assert b_eq == pytest.approx(1939.0)
        assert b_eq > 1900.0
        # independent hand calculation of the thermal polarization
        oracle = math.tanh(const.h * 10.7084e6 * 7.0 / (2 * const.k * 298.0))
        got = sp.boltzmann_polarization(7.0, 298.0)
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(6.0e-6, rel=0.05)


def test_criterion_05_shifted_larmor_oracle():
    with criterion(5, "shifted-larmor-oracle", 10.0):
        for b in (1e-3, 5e-3, 10e-3, 30e-3):
            for a in (0.1e6, 0.5e6, 1e6, 5e6):
                for deg in (0, 30, 60, 90):
                    s = sp.SpinSystem(a, math.radians(deg), b)
                    h = sp.static_hamiltonian(s)
                    w, q = np.linalg.eigh(h)
                    weight = np.sum(np.abs(q[:2, :]) ** 2, axis=0)
                    idx = np.argsort(weight)[-2:]
                    split = abs(w[idx[0]] - w[idx[1]])
                    assert split == pytest.approx(sp.shifted_larmor(s), rel=0.01)
        s0 = sp.SpinSystem(5e6, 0.0, 0.010)
        assert sp.shifted_larmor(s0) == sp.GAMMA_N * 0.010


def test_criterion_06_lz_suite():
    from oracles import ladder_band, lz_composition

    with criterion(6, "lz-suite", 60.0):
        assert sp.lz_probability(0.0, 1e9) == 1.0
        gaps = np.linspace(0.0, 3e5, 40)
        ps = [sp.lz_probability(g, 1e9) for g in gaps]
        assert all(b < a for a, b in zip(ps, ps[1:]))
        rates = np.geomspace(1e8, 1e12, 40)
        pr = [sp.lz_probability(2e4, r) for r in rates]
        assert all(b > a for a, b in zip(pr, pr[1:]))

        base = sp.SweepParams(sweep_rate_Hz_per_s=2e9, mw_rabi_Hz=15e3)
        for deg in (20, 50, 80):
            s = sp.SpinSystem(2e6, math.radians(deg), 0.030)
            center, width = ladder_band(s, base)
            sweep = sp.SweepParams(sweep_rate_Hz_per_s=2e9, mw_rabi_Hz=15e3,
                                   band_center_Hz=center, band_width_Hz=width)
            pol = sp.propagate_sweep(s, sweep)
            assert abs(pol - lz_composition(s, sweep)) <= 1e-3

        res = sp.propagate_sweep(sp.SpinSystem(1e6, math.radians(45), 0.010),
                                 sp.SweepParams(n_sweeps=2), details=True)
        assert res.norm_drift < 1e-9


def test_criterion_07_orientation_independence():
    with criterion(7, "orientation-independence", 120.0):
        template = sp.SpinSystem(1e6, 0.0, 0.010)
        assert template.low_field()
        sweep = sp.SweepParams()
        r16 = sp.powder_average(template, sweep, sp.PowderEnsemble.gauss_legendre(16))
        assert r16.signs_uniform()
        r32 = sp.powder_average(template, sweep, sp.PowderEnsemble.gauss_legendre(32))
        change = abs(r32.mean_polarization - r16.mean_polarization) \
            / abs(r16.mean_polarization)
        assert change < 0.01


def test_criterion_08_relaxometry_round_trip(ref_map):
    with criterion(8, "relaxometry-round-trip", 120.0):
        base = rx.RelaxationModel()

        def exact_model_and_field(target):
            """Model variant whose T1 equals the target exactly at a
            reachable relaxation field."""
            if base.T1_min_s < target < base.T1_max_s:
                return base, rx.invert_t1(target, base)
            if target <= base.T1_min_s:
                b = 0.008
                w = b ** 2 / (b ** 2 + base.B_knee_T ** 2)
                t1_min = (target - base.T1_max_s * w) / (1 - w)
                return rx.RelaxationModel(T1_min_s=t1_min), b
            b = 7.0
            w = b ** 2 / (b ** 2 + base.B_knee_T ** 2)
            t1_max = (target - base.T1_min_s * (1 - w)) / w
            return rx.RelaxationModel(T1_max_s=t1_max), b

        for target in (10.19, 50.0, 395.7):
            model, b_relax = exact_model_and_field(target)
            assert float(rx.t1_of_field(b_relax, model)) == pytest.approx(
                target, rel=1e-12)
            waits = tuple(np.linspace(0.2 * target, 2.0 * target, 200))
            prot = rx.RelaxometryProtocol(B_relax_T=b_relax, T_relax_list_s=waits)
            clean, = rx.simulate_protocol([prot], ref_map, model=model)
            fit = rx.fit_decay(clean)
            assert fit.T1_s == pytest.approx(target, rel=1e-3)  # 0.1% noiseless

            sigma = abs(clean.signals[0]) / 20.0  # SNR 20 at the first point
            bad = 0
            for noisy in rx.simulate_protocol([prot] * 200, ref_map, model=model,
                                              seed=900, noise_sigma=sigma):
                f = rx.fit_decay(noisy)
                if abs(f.T1_s - target) / target > 0.05:
                    bad += 1
            assert bad <= 10  # within 5% in at least 95% of 200 seeded trials

        # synthetic field map: monotone, knee between 0.1 and 1 T, anchors
        fields = [0.008, 0.1, 0.5, 1.0, 7.0]
        protocols = []
        for b in fields:
            t1b = float(rx.t1_of_field(b, base))
            protocols.append(rx.RelaxometryProtocol(
                B_relax_T=b, T_relax_list_s=tuple(np.linspace(0.2 * t1b, 2 * t1b, 16))))
        curves = rx.simulate_protocol(protocols, ref_map, model=base)
        t1map = rx.build_t1_map(fields, curves)
        values = t1map.t1_values()
        assert np.all(np.diff(values) > 0)
        mid = (base.T1_min_s + base.T1_max_s) / 2
        assert values[1] < mid < values[3]
        assert float(rx.t1_of_field(7.0, base)) == pytest.approx(395.7, rel=0.01)
        assert float(rx.t1_of_field(0.008, base)) == pytest.approx(10.19, rel=0.05)


def test_criterion_09_sequencer(ref_map, limits):
    with criterion(9, "sequencer", 5.0):
        z8 = ref_map.position_of_field(0.008)
        prof = mo.plan(z8, limits, z_start=z8, direction=-1)
        timeline = sq.build_timeline(sq.SequenceSpec(t_pol_s=40.0,
                                                     shuttle_profile=prof))
        assert sq.validate(timeline, prof, ref_map).ok

        shuttle = timeline.find("shuttle")
        done = timeline.find("done")
        cases = {
            "acquire_during_motion": sq.Timeline(
                timeline.events + (sq.Event("a2", "nmr_acquire",
                                            shuttle.t_start_s + 0.1, 0.5),),
                timeline.latencies, timeline.low_field_max_T),
            "acquire_before_completion": sq.Timeline(
                tuple(e for e in timeline.events if e.id != "acquire")
                + (sq.Event("acquire", "nmr_acquire", done.t_end_s, 1.0),),
                timeline.latencies, timeline.low_field_max_T),
            "optical_outside_shield": sq.Timeline(
                timeline.events + (sq.Event("p2", "laser",
                                            shuttle.t_start_s + 0.3, 0.3),),
                timeline.latencies, timeline.low_field_max_T),
        }
        for code, bad in cases.items():
            assert code in sq.validate(bad, prof, ref_map).codes()

        cryo_tl = sq.build_timeline(sq.SequenceSpec(
            t_pol_s=10.0, shuttle_profile=prof, cryo=sq.CryoSpec()))
        assert cryo_tl.find("eject").duration_s == pytest.approx(1.0)
        log = sq.simulate(cryo_tl, mo.JitterModel(sigma_s=0.0, seed=0))
        delay = log.metadata["sample_cold_s"] - log.realized("eject").t_realized_s
        assert 3.0 <= delay <= 4.0


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "cli-determinism", 60.0):
        specs = {
            "lac.json": {"schema_version": 1, "kind": "lac_plan", "seed": 5},
            "shuttle.json": {"schema_version": 1, "kind": "shuttle_characterization",
                             "seed": 5, "shuttle": {"runs": 50}},
            "dnp.json": {"schema_version": 1, "kind": "dnp_sweep", "seed": 5,
                         "dnp": {"nodes": 8}},
            "t1.json": {"schema_version": 1, "kind": "t1_field_map", "seed": 5,
                        "t1": {"fields_T": [0.1, 1.0], "n_waits": 8,
                               "noise_sigma": 0.02}},
            "seq.json": {"schema_version": 1, "kind": "sequence_validation",
                         "seed": 5, "sequence": {"t_pol_s": 2.0}},
        }
        for name, doc in specs.items():
            (tmp_path / name).write_text(json.dumps(doc))
        anchors = tmp_path / "anchors.csv"
        anchors.write_text(fm.anchors_to_csv(fm.reference_anchors()))

        invocations = [
            ["plan-motion", "--distance", "1.1627", "--out", "{out}"],
            ["calibrate-field", "--anchors", str(anchors),
             "--out", "{out}/map.json"],
            ["plan-lac", "--target", "0.051", "--target", "0.102",
             "--out", "{out}"],
            ["run", "--spec", str(tmp_path / "lac.json"), "--out", "{out}"],
            ["run", "--spec", str(tmp_path / "shuttle.json"), "--out", "{out}"],
            ["dnp-sweep", "--config", str(tmp_path / "dnp.json"), "--out", "{out}"],
            ["t1-map", "--config", str(tmp_path / "t1.json"), "--out", "{out}"],
            ["validate-sequence", "--spec", str(tmp_path / "seq.json"),
             "--out", "{out}"],
            ["simulate-sequence", "--spec", str(tmp_path / "seq.json"),
             "--runs", "5", "--seed", "3", "--out", "{out}"],
        ]
        for i, argv in enumerate(invocations):
            outs = []
            for rep in ("a", "b"):
                out = tmp_path / f"v{i}{rep}"
                rendered = [a.replace("{out}", str(out)) for a in argv]
                assert cli_main(["--quiet"] + rendered) == 0
                outs.append(out)
            a_dir, b_dir = outs
            files = sorted(p.name for p in a_dir.iterdir()
                           if p.name != "runrecord.json")
            assert files, f"no outputs for {argv[0]}"
            assert files == sorted(p.name for p in b_dir.iterdir()
                                   if p.name != "runrecord.json")
            for name in files:
                assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes(), \
                    f"{argv[0]} output {name} differs between reruns"
