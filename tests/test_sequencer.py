import csv
import io

import numpy as np
import pytest

from fieldcycle.errors import SpecInvalid
from fieldcycle.motion import JitterModel, duration, plan
from fieldcycle.sequencer import (DEFAULT_LATENCIES, CryoSpec, Event,
                                  SequenceSpec, Timeline, build_timeline,
                                  simulate, validate)


def _per_run(log, name):
    """{event id: the event's ``name`` column value in every run}."""
    return {ev.id: np.broadcast_to(x, log.runs)
            for ev, x in zip(log.events, getattr(log, name))}


@pytest.fixture()
def shuttle_profile(ref_map, limits):
    z8 = ref_map.position_of_field(0.008)
    return plan(z8, limits, z_start=z8, direction=-1)


@pytest.fixture()
def dnp_timeline(shuttle_profile):
    return build_timeline(SequenceSpec(t_pol_s=40.0, shuttle_profile=shuttle_profile))


def test_canonical_event_order(dnp_timeline):
    ids = [e.id for e in dnp_timeline.events]
    for earlier, later in (("pump", "trigger"), ("sweep", "trigger"),
                           ("trigger", "shuttle"), ("shuttle", "done"),
                           ("done", "acquire")):
        assert ids.index(earlier) < ids.index(later)
    assert dnp_timeline.events[0].t_start_s == 0.0


def test_acquire_after_pol_trigger_and_shuttle(dnp_timeline):
    acq = dnp_timeline.find("acquire")
    assert acq.t_start_s >= 40.0 + 0.010 + 0.648


def test_zero_pumping_drops_optical_events(shuttle_profile):
    tl = build_timeline(SequenceSpec(t_pol_s=0.0, shuttle_profile=shuttle_profile))
    assert not tl.by_channel("laser")
    assert not tl.by_channel("mw_sweep")


def test_canonical_timeline_validates_clean(dnp_timeline, shuttle_profile, ref_map):
    report = validate(dnp_timeline, shuttle_profile, ref_map)
    assert report.ok
    assert report.violations == ()


def test_cryo_event_placement(shuttle_profile, ref_map):
    tl = build_timeline(SequenceSpec(t_pol_s=40.0, shuttle_profile=shuttle_profile,
                                     cryo=CryoSpec()))
    eject = tl.find("eject")
    pump = tl.find("pump")
    assert eject.duration_s == 1.0
    assert eject.t_start_s < pump.t_start_s
    assert tl.latencies["cryo_eject_valve"] <= 1e-3
    assert validate(tl, shuttle_profile, ref_map).ok


def test_cryo_cold_flag_3_to_4_seconds(shuttle_profile):
    tl = build_timeline(SequenceSpec(t_pol_s=10.0, shuttle_profile=shuttle_profile,
                                     cryo=CryoSpec()))
    log = simulate(tl, JitterModel(sigma_s=0.0, seed=0))
    eject_start = log.realized("eject").t_realized_s
    assert 3.0 <= log.metadata["sample_cold_s"] - eject_start <= 4.0


def test_missing_profile_rejected():
    with pytest.raises(SpecInvalid):
        build_timeline(SequenceSpec(shuttle_profile=None))


def test_negative_duration_rejected():
    with pytest.raises(SpecInvalid):
        Event("x", "laser", 0.0, -1.0)


def test_unknown_channel_rejected():
    with pytest.raises(SpecInvalid):
        Event("x", "phaser", 0.0, 1.0)


def test_violation_acquire_during_motion(dnp_timeline, shuttle_profile, ref_map):
    shuttle = dnp_timeline.find("shuttle")
    bad = Timeline(
        dnp_timeline.events + (Event("acquire2", "nmr_acquire",
                                     shuttle.t_start_s + 0.1, 0.5),),
        dnp_timeline.latencies, dnp_timeline.low_field_max_T)
    codes = validate(bad, shuttle_profile, ref_map).codes()
    assert "acquire_during_motion" in codes


def test_violation_acquire_before_completion(dnp_timeline, shuttle_profile, ref_map):
    done = dnp_timeline.find("done")
    bad = Timeline(
        tuple(e for e in dnp_timeline.events if e.id != "acquire")
        + (Event("acquire", "nmr_acquire", done.t_end_s, 1.0),),
        dnp_timeline.latencies, dnp_timeline.low_field_max_T)
    codes = validate(bad, shuttle_profile, ref_map).codes()
    assert "acquire_before_completion" in codes


def test_violation_optical_outside_shield(dnp_timeline, shuttle_profile, ref_map):
    shuttle = dnp_timeline.find("shuttle")
    bad = Timeline(
        dnp_timeline.events + (Event("pump2", "laser",
                                     shuttle.t_start_s + 0.3, 0.3),),
        dnp_timeline.latencies, dnp_timeline.low_field_max_T)
    codes = validate(bad, shuttle_profile, ref_map).codes()
    assert "optical_outside_shield" in codes


def test_optical_events_without_a_move_see_the_start_position(
        dnp_timeline, shuttle_profile, ref_map):
    # no motion event: the sample stays at the profile's start, in the shield
    still = Timeline(
        tuple(e for e in dnp_timeline.events if e.id != "shuttle")
        + (Event("pump2", "laser", 45.0, 1.0),),
        dnp_timeline.latencies, dnp_timeline.low_field_max_T)
    codes = validate(still, shuttle_profile, ref_map).codes()
    assert codes == ["missing_dependency"]  # "done" depends on the shuttle


def test_simulate_zero_jitter_is_nominal_plus_latency(dnp_timeline):
    log = simulate(dnp_timeline, JitterModel(sigma_s=0.0, seed=0))
    starts = _per_run(log, "t_realized_s")
    for ev in log.events:
        lat = dnp_timeline.latencies[ev.channel]
        for start in starts[ev.id]:
            assert start == pytest.approx(ev.t_start_s + lat, abs=1e-12)


def test_simulate_jitter_shifts_downstream(dnp_timeline):
    jm = JitterModel(sigma_s=2.6e-3, seed=5)
    log = simulate(dnp_timeline, jm)
    (j,) = log.metadata["shuttle_jitter_s"]  # one entry per run
    assert j != 0.0
    shuttle = log.realized("shuttle")
    assert shuttle.duration_s == pytest.approx(
        dnp_timeline.find("shuttle").duration_s + j)
    acq = log.realized("acquire")
    assert acq.t_realized_s == pytest.approx(
        dnp_timeline.find("acquire").t_start_s + j, abs=1e-12)
    # upstream events unmoved
    assert log.realized("trigger").t_realized_s == pytest.approx(
        dnp_timeline.find("trigger").t_start_s, abs=1e-12)


def test_simulate_completion_minus_trigger_statistics(dnp_timeline):
    log = simulate(dnp_timeline, JitterModel(sigma_s=2.6e-3, seed=7), 1400)
    starts = _per_run(log, "t_realized_s")
    diffs = np.subtract(starts["done"], starts["trigger"])
    assert len(diffs) == 1400
    sd = np.std(diffs, ddof=1)
    assert sd == pytest.approx(2.6e-3, rel=0.10)


def test_simulate_deterministic_per_seed(dnp_timeline):
    log1 = simulate(dnp_timeline, JitterModel(sigma_s=2.6e-3, seed=3))
    log2 = simulate(dnp_timeline, JitterModel(sigma_s=2.6e-3, seed=3))
    assert log1.events == log2.events
    for name in ("t_realized_s", "duration_s"):
        one, two = _per_run(log1, name), _per_run(log2, name)
        for ev in log1.events:
            assert np.array_equal(one[ev.id], two[ev.id])


def test_partial_latencies_merge_with_defaults(shuttle_profile):
    lat = {"servo_trigger": 2e-3, "nmr_acquire": 1e-3}
    tl = build_timeline(SequenceSpec(t_pol_s=1.0, shuttle_profile=shuttle_profile,
                                     latencies=lat))
    # the given channels override, the rest (valves 1 ms each) keep defaults
    assert tl.latencies == {**DEFAULT_LATENCIES, **lat}
    assert sum(tl.latencies.values()) == pytest.approx(2e-3 + 1e-3 + 2e-3)
    assert DEFAULT_LATENCIES["servo_trigger"] == 0.0  # not mutated


def test_shuttle_event_lasts_the_profile_duration(limits):
    # the timeline's shuttle duration is the segment sum, bit for bit
    rng = np.random.default_rng(20261018)
    for d, v in zip(rng.uniform(0.0, 1.6, 2000), rng.uniform(0.01, 2.0, 2000)):
        prof = plan(float(d), limits, v_target=float(v))
        tl = build_timeline(SequenceSpec(t_pol_s=1.0, shuttle_profile=prof))
        assert tl.find("shuttle").duration_s == duration(prof)


def test_causality_under_jitter(dnp_timeline):
    log = simulate(dnp_timeline, JitterModel(sigma_s=5e-3, seed=13), 200)
    starts, durations = _per_run(log, "t_realized_s"), _per_run(log, "duration_s")
    assert all(len(s) == 200 for s in starts.values())
    for ev in dnp_timeline.events:
        if ev.depends_on:
            dep = ev.depends_on
            assert np.all(starts[ev.id] >= starts[dep] + durations[dep] - 1e-12)


def test_event_log_csv_shape(dnp_timeline):
    log = simulate(dnp_timeline, JitterModel(sigma_s=0.0, seed=0))
    text = log.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "run_id,channel,event,t_nominal_s,t_realized_s,duration_s"
    assert len(lines) == len(dnp_timeline.events) + 1


def _reference_csv(timeline, jitter, runs):
    """event_log.csv of ``runs`` runs realized one at a time with Python
    scalars, the per-run loop that ``simulate`` vectorizes, written row by
    row with ``csv.writer``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["run_id", "channel", "event", "t_nominal_s", "t_realized_s",
                   "duration_s"])
    for run_id in range(runs):
        shift, realized = {}, {}
        for ev in timeline.events:
            inherited = shift.get(ev.depends_on, 0.0) if ev.depends_on else 0.0
            start = ev.t_start_s + timeline.latencies.get(ev.channel, 0.0) + inherited
            if ev.depends_on in realized:
                start = max(start, realized[ev.depends_on])
            dur = ev.duration_s
            if ev.channel == "actuator_motion":
                dur = max(0.0, dur + float(jitter.draw()))
                shift[ev.id] = inherited + (dur - ev.duration_s)
            else:
                shift[ev.id] = inherited
            realized[ev.id] = start + dur
            writer.writerow((run_id, ev.channel, ev.id, ev.t_start_s, start, dur))
    return out.getvalue()


CASES = ["default", "cryo", "latency", "two_moves", "quoted"]


# ids without a run count are the 300-run cases
@pytest.mark.parametrize("case, sigma, runs", [
    pytest.param(case, sigma, runs, id=f"{sigma}-{case}" + (
        "" if runs == 300 else f"-{runs}runs"))
    for sigma in (0.0, 2.6e-3, 0.5) for case in CASES for runs in (300, 1, 2)])
def test_simulate_matches_per_run_loop_bytes(shuttle_profile, case, sigma, runs):
    spec = {"default": SequenceSpec(shuttle_profile=shuttle_profile),
            # integer cryo durations must stay integers in the CSV
            "cryo": SequenceSpec(t_pol_s=10.0, shuttle_profile=shuttle_profile,
                                 cryo=CryoSpec(eject_duration_s=1,
                                               fill_duration_s=2)),
            "latency": SequenceSpec(t_pol_s=2.0, shuttle_profile=shuttle_profile,
                                    latencies={"servo_trigger": 1e-4,
                                               "actuator_motion": 3e-3,
                                               "completion_pulse": 2e-3,
                                               "nmr_acquire": 2e-3})}
    if case == "two_moves":  # a second move, dependants listed before and after it
        tl = build_timeline(spec["default"])
        shuttle = tl.find("shuttle")
        timeline = Timeline(tl.events + (
            Event("early", "nmr_acquire", 0.5, 0.1, depends_on="back"),
            Event("back", "actuator_motion", shuttle.t_end_s + 5.0,
                  shuttle.duration_s, depends_on="acquire"),
            Event("late", "nmr_acquire", shuttle.t_end_s + 5.5, 0.1,
                  depends_on="back")),
            tl.latencies, tl.low_field_max_T)
    elif case == "quoted":  # ids that csv.writer quotes, shared and per run
        move = duration(shuttle_profile)
        timeline = Timeline((
            Event('pro,gram', "pulse_gen", 0.0, 0.0),
            Event('move "up"', "actuator_motion", 0.01, move,
                  depends_on="pro,gram"),
            Event("acq\nuire", "nmr_acquire", move + 0.02, 1.0,
                  depends_on='move "up"'),
            Event("", "laser", 0.0, 2)), DEFAULT_LATENCIES, 0.03)
    else:
        timeline = build_timeline(spec[case])
    log = simulate(timeline, JitterModel(sigma_s=sigma, seed=21), runs)
    expected = _reference_csv(timeline, JitterModel(sigma_s=sigma, seed=21), runs)
    assert log.to_csv() == expected
    assert log.runs == runs and len(log.metadata["shuttle_jitter_s"]) == runs
    if sigma == 0.5 and runs == 300:  # draws below minus the move time clamp it
        move_id = timeline.by_channel("actuator_motion")[0].id
        assert np.min(_per_run(log, "duration_s")[move_id]) == 0.0


def test_simulate_runs_do_not_depend_on_run_count(dnp_timeline):
    many = simulate(dnp_timeline, JitterModel(sigma_s=2.6e-3, seed=4), 50)
    one = simulate(dnp_timeline, JitterModel(sigma_s=2.6e-3, seed=4))
    for name in ("t_realized_s", "duration_s"):
        first, only = _per_run(many, name), _per_run(one, name)
        assert all(first[ev.id][0] == only[ev.id][0] for ev in one.events)
    # rows run by run: the last row is the last run's last event
    assert many.to_csv().splitlines()[-1].startswith("49,nmr_acquire,acquire,")
    assert simulate(dnp_timeline, JitterModel(seed=4), 0).to_csv() == \
        "run_id,channel,event,t_nominal_s,t_realized_s,duration_s\n"
