"""Discrete-event trigger timeline across the instrument channels.

Models the pulse-generator-driven chain: optical pumping and microwave
sweep at the low-field center, the 24 V / 10 ms servo trigger, the shuttle
move, the actuator completion pulse, and NMR acquisition, plus the cryogen
valve events for in-situ sample freezing.  Electrical stages are pure
latency elements; timing is the modeled contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby, repeat
from typing import NamedTuple, Optional

import numpy as np

from .errors import SpecInvalid
from .motion import JitterModel, MotionProfile, duration, states_at
from .util import _cells, csv_text

__all__ = [
    "CHANNELS",
    "Event",
    "Timeline",
    "SequenceSpec",
    "CryoSpec",
    "ValidationReport",
    "Violation",
    "EventLog",
    "build_timeline",
    "validate",
    "simulate",
]

CHANNELS = (
    "pulse_gen",
    "servo_trigger",
    "actuator_motion",
    "completion_pulse",
    "nmr_acquire",
    "laser",
    "mw_sweep",
    "cryo_fill_valve",
    "cryo_eject_valve",
)

# inverter -> MOSFET switch -> voltage divider stages are not quantified;
# they default to zero and are configurable per channel
DEFAULT_LATENCIES = {name: 0.0 for name in CHANNELS}
DEFAULT_LATENCIES["cryo_fill_valve"] = 1.0e-3
DEFAULT_LATENCIES["cryo_eject_valve"] = 1.0e-3
COMPLETION_PULSE_S = 0.010  # actuator completion pulse width
ACQUIRE_DELAY_S = 1.0e-3  # acquisition start after the completion pulse


@dataclass(frozen=True)
class Event:
    id: str
    channel: str
    t_start_s: float
    duration_s: float
    depends_on: Optional[str] = None

    def __post_init__(self):
        if self.channel not in CHANNELS:
            raise SpecInvalid(f"unknown channel {self.channel!r}")
        if self.duration_s < 0:
            raise SpecInvalid(f"event {self.id}: negative duration")

    @property
    def t_end_s(self) -> float:
        return self.t_start_s + self.duration_s


@dataclass(frozen=True)
class CryoSpec:
    eject_duration_s: float = 1.0
    fill_duration_s: float = 2.0
    cold_delay_s: float = 3.5  # sample reaches 77 K within 3-4 s of eject start


@dataclass(frozen=True)
class SequenceSpec:
    """Inputs for the canonical polarize-shuttle-detect sequence."""

    t_pol_s: float = 40.0
    shuttle_profile: Optional[MotionProfile] = None
    trigger_pulse_s: float = 0.010
    acquire_duration_s: float = 1.0
    latencies: dict = field(default_factory=lambda: dict(DEFAULT_LATENCIES))
    cryo: Optional[CryoSpec] = None
    low_field_max_T: float = 0.030


class Timeline(NamedTuple):
    """Events ordered by nominal start; t=0 is the first pulse-generator edge."""

    events: tuple[Event, ...]
    latencies: dict
    low_field_max_T: float
    sample_cold_s: Optional[float] = None

    def by_channel(self, channel):
        return [e for e in self.events if e.channel == channel]

    def find(self, event_id):
        for e in self.events:
            if e.id == event_id:
                return e
        raise KeyError(event_id)


def build_timeline(spec: SequenceSpec) -> Timeline:
    """Assemble the canonical DNP field-cycling sequence from a spec."""
    if spec.shuttle_profile is None:
        raise SpecInvalid("sequence spec references no shuttle motion profile")
    if spec.t_pol_s < 0:
        raise SpecInvalid("negative optical pumping time")
    lat = dict(DEFAULT_LATENCIES)
    lat.update(spec.latencies)
    shuttle_s = duration(spec.shuttle_profile)

    events = []
    t_optical = 0.0
    cold_at = None
    if spec.cryo is not None:
        events.append(Event("eject", "cryo_eject_valve", 0.0,
                            spec.cryo.eject_duration_s))
        events.append(Event("refill", "cryo_fill_valve",
                            spec.cryo.eject_duration_s, spec.cryo.fill_duration_s,
                            depends_on="eject"))
        cold_at = 0.0 + spec.cryo.cold_delay_s
        t_optical = cold_at

    events.append(Event("program", "pulse_gen", 0.0, 0.0))
    if spec.t_pol_s > 0:
        events.append(Event("pump", "laser", t_optical, spec.t_pol_s))
        events.append(Event("sweep", "mw_sweep", t_optical, spec.t_pol_s))
    t_trigger = t_optical + spec.t_pol_s
    events.append(Event("trigger", "servo_trigger", t_trigger,
                        spec.trigger_pulse_s,
                        depends_on="sweep" if spec.t_pol_s > 0 else "program"))
    t_motion = t_trigger + spec.trigger_pulse_s
    events.append(Event("shuttle", "actuator_motion", t_motion, shuttle_s,
                        depends_on="trigger"))
    t_done = t_motion + shuttle_s
    events.append(Event("done", "completion_pulse", t_done,
                        COMPLETION_PULSE_S, depends_on="shuttle"))
    t_acq = t_done + COMPLETION_PULSE_S + lat["nmr_acquire"] + ACQUIRE_DELAY_S
    events.append(Event("acquire", "nmr_acquire", t_acq, spec.acquire_duration_s,
                        depends_on="done"))

    events.sort(key=lambda e: (e.t_start_s, e.id))
    return Timeline(tuple(events), lat, spec.low_field_max_T, cold_at)


# ---------------------------------------------------------------------------
# validation

class Violation(NamedTuple):
    code: str
    event_ids: tuple[str, ...]
    detail: str


class ValidationReport(NamedTuple):
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_csv(self) -> str:
        return csv_text(["code", "event_ids", "detail"],
                        zip(*((v.code, ";".join(v.event_ids), v.detail)
                              for v in self.violations)))


def _overlaps(a: Event, b: Event) -> bool:
    return a.t_start_s < b.t_end_s and b.t_start_s < a.t_end_s


def validate(timeline: Timeline, motion_profile: MotionProfile,
             fieldmap) -> ValidationReport:
    """Check the timeline invariants; violations are data, not exceptions."""
    out = []

    completions = timeline.by_channel("completion_pulse")
    lat_acq = timeline.latencies.get("nmr_acquire", 0.0)
    for acq in timeline.by_channel("nmr_acquire"):
        for done in completions:
            if acq.t_start_s <= done.t_end_s + lat_acq:
                out.append(Violation(
                    "acquire_before_completion", (acq.id, done.id),
                    f"acquire at {acq.t_start_s:.6f} s not strictly after "
                    f"completion end {done.t_end_s:.6f} s + latency {lat_acq:.6f} s"))

    for acq in timeline.by_channel("nmr_acquire"):
        for mot in timeline.by_channel("actuator_motion"):
            if _overlaps(acq, mot):
                out.append(Violation(
                    "acquire_during_motion", (acq.id, mot.id),
                    "acquisition overlaps shuttle motion"))

    z_low = fieldmap.position_of_field(timeline.low_field_max_T)
    # states_at gives z_start_m before the move, and always when there is none
    motions = timeline.by_channel("actuator_motion")
    t_move = motions[0].t_start_s if motions else np.inf
    for ev in timeline.events:
        if ev.channel not in ("laser", "mw_sweep"):
            continue
        t = np.linspace(ev.t_start_s, ev.t_end_s, 33)
        z = states_at(motion_profile, t - t_move)[0]
        outside = np.flatnonzero(z < z_low - 1e-12)
        if outside.size:
            k = outside[0]
            out.append(Violation(
                "optical_outside_shield", (ev.id,),
                f"{ev.channel} active at t={t[k]:.6f} s with sample at "
                f"z={z[k]:.4f} m, above the low-field region start "
                f"z={z_low:.4f} m"))

    by_id = {e.id: e for e in timeline.events}
    for ev in timeline.events:
        if ev.depends_on is None:
            continue
        dep = by_id.get(ev.depends_on)
        if dep is None:
            out.append(Violation("missing_dependency", (ev.id,),
                                 f"depends on unknown event {ev.depends_on!r}"))
        elif ev.t_start_s < dep.t_end_s:
            out.append(Violation("causality", (ev.id, dep.id),
                                 "event starts before its dependency ends"))

    return ValidationReport(tuple(out))


# ---------------------------------------------------------------------------
# simulation

class EventLog(NamedTuple):
    """Realized runs of one timeline, stored per event: entry k of
    ``t_realized_s`` and ``duration_s`` is event k's value, either an array
    over the runs or one value that every run shares."""

    events: tuple[Event, ...]
    runs: int
    t_realized_s: tuple
    duration_s: tuple
    metadata: dict

    def to_csv(self) -> str:
        """A row per run and event, run by run, as ``csv.writer`` writes
        them.  Each event's channel, id and nominal time, and each value
        that every run shares, is rendered once; a run adds its id and its
        own values, whose ``str`` needs no quoting."""
        n, k = self.runs, len(self.events)
        run_ids = list(map(str, range(n)))
        rows = [""] * (n * k)
        for j, ev in enumerate(self.events):
            cols = [run_ids]
            cells = (ev.channel, ev.id, ev.t_start_s, self.t_realized_s[j],
                     self.duration_s[j])
            for shared, group in groupby(map(np.asarray, cells),
                                         key=lambda x: x.ndim == 0):
                if shared:  # Python scalars: an integer stays an integer
                    cols.append(repeat(",".join(_cells([x.item() for x in group]))))
                else:
                    cols.extend(map(str, x.tolist()) for x in group)
            rows[j::k] = map(",".join, zip(*cols))
        header = "run_id,channel,event,t_nominal_s,t_realized_s,duration_s"
        return "\n".join([header, *rows, ""])


def simulate(timeline: Timeline, jitter: JitterModel, runs: int = 1) -> EventLog:
    """``runs`` realized runs: nominal times + channel latencies + shuttle
    jitter, realized for all runs at once, event by event.

    Each run draws once per actuator-motion event, in event order, and the
    draw perturbs that event's duration; every event that (transitively)
    depends on the motion inherits the shift.  The arithmetic is that of a
    loop over runs, so each run's values do not depend on ``runs``, and
    ``np.where(b > a, b, a)`` is Python's ``max(a, b)``, ties included.
    Deterministic for a given jitter stream state.

    ``metadata["shuttle_jitter_s"]`` is an array with one entry per run:
    the run's draw for the last motion event, 0 when there is none.
    """
    n_motions = sum(ev.channel == "actuator_motion" for ev in timeline.events)
    draws = iter(jitter.draw((runs, n_motions)).T)
    shift = {}
    realized = {}
    starts, durations = [], []
    jitter_amount = np.zeros(runs)
    for ev in timeline.events:
        inherited = shift.get(ev.depends_on, 0.0) if ev.depends_on else 0.0
        start = ev.t_start_s + timeline.latencies.get(ev.channel, 0.0) + inherited
        if ev.depends_on in realized:
            dep_end = realized[ev.depends_on]
            start = np.where(dep_end > start, dep_end, start)
        dur = ev.duration_s
        if ev.channel == "actuator_motion":
            jitter_amount = next(draws)
            dur = dur + jitter_amount
            dur = np.where(dur > 0.0, dur, 0.0)  # max(0.0, dur)
            shift[ev.id] = inherited + (dur - ev.duration_s)
        else:
            shift[ev.id] = inherited
        realized[ev.id] = start + dur
        starts.append(start)
        durations.append(dur)

    meta = {"shuttle_jitter_s": jitter_amount}
    if timeline.sample_cold_s is not None:
        lat = timeline.latencies.get("cryo_eject_valve", 0.0)
        meta["sample_cold_s"] = timeline.sample_cold_s + lat
    return EventLog(timeline.events, runs, tuple(starts), tuple(durations), meta)
