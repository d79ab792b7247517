"""Declarative experiment runner.

Parses JSON experiment specs, wires the field map, motion, sequencer, spin,
and relaxometry layers into runnable experiments, and persists result CSVs
plus a RunRecord.  All randomness derives from the single spec seed via a
per-module tag (seed XOR crc32(module name)), so identical (spec, seed)
pairs produce byte-identical result files.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import math
import time
import zlib
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import fieldmap as fm
from . import motion as mo
from . import relaxometry as rx
from . import sequencer as sq
from . import spin as sp
from .errors import SchemaViolation, UnknownKind, UnsupportedVersion
from .util import csv_text, write_atomic

__all__ = ["ExperimentSpec", "RunRecord", "parse_spec", "run",
           "simulate_sequence", "derive_seed"]

TOOL_VERSION = "0.1.0"
SCHEMA_VERSION = 1


def derive_seed(seed: int, module: str) -> int:
    """Per-module stream seed: spec seed XOR crc32 of the module tag."""
    return (int(seed) ^ zlib.crc32(module.encode())) & 0xFFFFFFFFFFFFFFFF


def spec_hash(doc: dict) -> str:
    """Content hash, stable under key reordering."""
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# ---------------------------------------------------------------------------
# schema: each key's JSON type, default and range, resolved once

_REQUIRED = object()
_NUM = (int, float)
_TYPES = {float: _NUM, int: (int,), str: (str,), list: (list,), dict: (dict,)}
_POSITIVE = (lambda v: v is None or v > 0, "must be positive")  # None: nullable keys
_NON_NEGATIVE = (lambda v: v >= 0, "must be non-negative")


def _expect(cond, message, path):
    if not cond:
        raise SchemaViolation(message, path)


def _check(val, types, path, check=None):
    if not isinstance(val, types) or (isinstance(val, bool) and bool not in types):
        names = "/".join(t.__name__ for t in types)
        raise SchemaViolation(f"expected {names}, got {type(val).__name__}", path)
    _expect(not isinstance(val, float) or math.isfinite(val),
            "expected a finite number", path)
    if check is not None:
        _expect(check[0](val), check[1], path)


def _get(obj, key, path, default=_REQUIRED, types=None, check=None):
    """``obj[key]``, checked to be of ``types`` (by default the type of
    ``default``) and to pass ``check``; ``default`` when the key is absent."""
    path = f"{path}.{key}"
    if key not in obj:
        _expect(default is not _REQUIRED, "missing required key", path)
        return default
    _check(obj[key], types or _TYPES[type(default)], path, check)
    return obj[key]


def _numbers(obj, key, path, default, check=_POSITIVE, length=None):
    vals = _get(obj, key, path, default)
    for i, v in enumerate(vals):
        _check(v, _NUM, f"{path}.{key}[{i}]", check)
    _expect(length is None or len(vals) == length,
            f"expected {length} values, got {len(vals)}", f"{path}.{key}")
    return vals


def _call(fn, path, *args, **kwargs):
    """``fn(...)``, with a layer's ValueError reported as a SchemaViolation."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise SchemaViolation(str(exc), path) from None


def _layer(base, blk, path, keys=None, **fixed):
    """Copy of the layer dataclass instance ``base`` with each field in
    ``keys`` (default: all) read from ``blk``, defaulting to ``base``'s
    value: the layer class owns the default and the range check.  A range
    error names the first key that fails it alone, else the block."""
    keys = keys or [f.name for f in fields(base)]
    values = {k: _get(blk, k, path, getattr(base, k)) for k in keys}
    try:
        return replace(base, **values, **fixed)
    except ValueError as exc:
        for k, v in values.items():
            _call(replace, f"{path}.{k}", base, **{k: v})
        raise SchemaViolation(str(exc), path) from None


def _jitter(blk, path):
    return _call(mo.JitterModel, f"{path}.jitter_sigma_s", sigma_s=_get(
        blk, "jitter_sigma_s", path, mo.JitterModel.sigma_s))


def _travel(limits):  # range check of a move length, null or within travel
    hi = limits.travel_range_m
    return lambda d: d is None or 0 <= d <= hi, f"must lie in [0, {hi}] m"


def _shuttle_params(blk, path, limits):
    distance = _get(blk, "distance_m", path, 1.1627)
    _check(distance, _NUM, f"{path}.distance_m", _travel(limits))  # default too
    return {"distance_m": distance,
            "velocities": _numbers(blk, "velocities", path, [0.5, 1.0, 1.5, 2.0],
                                   (lambda v: 0 < v <= limits.v_max,
                                    f"must lie in (0, {limits.v_max}] m/s")),
            "jitter": _jitter(blk, path),
            "runs": _get(blk, "runs", path, 0, check=_NON_NEGATIVE)}


def _lac_params(blk, path, limits):
    return {"targets_T": _numbers(blk, "targets_T", path, [0.051, 0.102]),
            "limits": _layer(limits, blk, path, ("precision_m", "v_max"))}


def _dnp_params(blk, path, limits):
    system = _call(sp.SpinSystem, f"{path}.B_pol_T", theta_rad=0.0,
                   hyperfine_Hz=_get(blk, "hyperfine_Hz", path, 1e6,
                                     check=_POSITIVE),
                   B_pol_T=_get(blk, "B_pol_T", path, 0.010))
    return {"system": system,
            "sweep": _layer(sp.SweepParams(), blk, path, (
                "sweep_rate_Hz_per_s", "mw_rabi_Hz", "n_sweeps")),
            "nodes": _get(blk, "nodes", path, 16, check=(
                lambda n: 8 <= n <= sp.MAX_NODES,
                f"need 8 to {sp.MAX_NODES} quadrature nodes"))}


def _t1_params(blk, path, limits):
    model = _layer(rx.RelaxationModel(), _get(blk, "relaxation", path, {}),
                   f"{path}.relaxation")
    # without fields_T, the last field is the map centre (see _run_t1)
    fields_T = _numbers(blk, "fields_T", path, [0.008, 0.1, 0.5, 1.0])
    p = {"model": model, "centre": "fields_T" not in blk,
         "n_waits": _get(blk, "n_waits", path, 16, check=_POSITIVE),
         "wait_span": _numbers(blk, "wait_span", path, [0.2, 2.0], check=None,
                               length=2),
         "B_pol_T": _get(blk, "B_pol_T", path, rx.RelaxometryProtocol.B_pol_T,
                         check=_POSITIVE),
         "noise_sigma": _get(blk, "noise_sigma", path, 0.0,
                             check=_NON_NEGATIVE)}
    p["protocols"] = [_t1_protocol(p, b) for b in fields_T]
    return p


def _t1_protocol(p, b):
    """The T1 protocol at relaxation field ``b``: its waits span
    ``wait_span`` times T1 at that field."""
    t1b = float(rx.t1_of_field(float(b), p["model"]))
    lo, hi = p["wait_span"]
    waits = tuple(np.linspace(lo * t1b, hi * t1b, p["n_waits"]))
    return _call(rx.RelaxometryProtocol, "$.t1.wait_span", B_pol_T=p["B_pol_T"],
                 B_relax_T=float(b), T_relax_list_s=waits)


def _sequence_params(blk, path, limits):
    cryo = _get(blk, "cryo", path, False, types=(bool, dict))
    if cryo:
        cryo = _layer(sq.CryoSpec(), cryo if isinstance(cryo, dict) else {},
                      f"{path}.cryo")
    lat = _get(blk, "latencies", path, {})
    latencies = {ch: _get(lat, ch, f"{path}.latencies", d, check=_NON_NEGATIVE)
                 for ch, d in sq.DEFAULT_LATENCIES.items()}
    # event times and durations reach event_log.csv, which writes floats
    timing = {k: float(_get(blk, k, path, getattr(sq.SequenceSpec, k)))
              for k in ("t_pol_s", "trigger_pulse_s", "acquire_duration_s")}
    return {
        "B_start_T": _get(blk, "B_start_T", path, 0.008, check=_POSITIVE),
        "B_end_T": _get(blk, "B_end_T", path, None, types=_NUM + (type(None),),
                        check=_POSITIVE),  # null: the magnet centre
        "shuttle_distance_m": _get(blk, "shuttle_distance_m", path, None,
                                   types=_NUM + (type(None),),
                                   check=_travel(limits)),
        "sequence": _layer(sq.SequenceSpec(), blk, path, ("low_field_max_T",),
                           latencies=latencies, cryo=cryo or None, **timing),
        "jitter": _jitter(blk, path),
    }


def _map_source(doc):
    """(key, file name, model kind) of a map file block; None for the
    built-in reference map."""
    blk = doc.get("fieldmap", "reference")
    if blk == "reference":
        return None
    path = "$.fieldmap"
    _expect(isinstance(blk, dict), "expected 'reference' or an object", path)
    if "file" in blk:
        return "file", _get(blk, "file", path, ""), None
    _expect("anchors_file" in blk, "needs 'file' or 'anchors_file'", path)
    return ("anchors_file", _get(blk, "anchors_file", path, ""),
            _get(blk, "model_kind", path, fm.DEFAULT_MODEL_KIND, check=(
                lambda m: m in fm.MODEL_KINDS,
                f"expected one of {', '.join(fm.MODEL_KINDS)}")))


@dataclass(frozen=True)
class ExperimentSpec:
    """A parsed spec: ``limits`` and ``params`` (the kind block) hold every
    value resolved, defaults included."""

    kind: str
    seed: int
    output_dir: Optional[str]
    doc: dict
    base_dir: Path
    limits: mo.MotionLimits
    params: dict
    map_source: Optional[tuple]

    def fieldmap(self) -> fm.FieldMap:
        """The spec's field map; a map or anchor file that cannot be read
        is a SchemaViolation at its key."""
        if self.map_source is None:
            return fm.reference_map()
        key, name, model_kind = self.map_source
        try:
            text = (self.base_dir / name).read_text()
            if key == "file":
                return fm.FieldMap.from_json(text)
            return fm.calibrate(fm.anchors_from_csv(text), model_kind)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise SchemaViolation(f"cannot load {name} ({type(exc).__name__}: "
                                  f"{exc})", f"$.fieldmap.{key}") from None


def parse_spec(document, base_dir=".") -> ExperimentSpec:
    """Validate a spec document (JSON text or dict) into an ExperimentSpec.

    This is the spec schema: every key is type- and range-checked here and
    every absent key takes its default, so runners read resolved values.
    Keys the schema does not know are ignored; NaN or inf in one is an error.
    """
    if isinstance(document, (str, bytes)):
        try:
            doc = json.loads(document)
        except ValueError as exc:
            raise SchemaViolation(f"not valid JSON: {exc}", "$") from None
    else:
        doc = document
    _expect(isinstance(doc, dict), "top level must be an object", "$")
    version = _get(doc, "schema_version", "$", types=(int,))
    if version != SCHEMA_VERSION:
        raise UnsupportedVersion(f"schema_version {version} not supported "
                                 f"(this tool reads {SCHEMA_VERSION})")
    kind = _get(doc, "kind", "$", types=(str,))
    if kind not in _KINDS:
        raise UnknownKind(f"kind {kind!r}; known kinds: {', '.join(_KINDS)}")
    limits = _layer(mo.MotionLimits(), _get(doc, "motion", "$", {}), "$.motion")
    block, resolve, _ = _KINDS[kind]
    spec = ExperimentSpec(
        kind=kind,
        seed=_get(doc, "seed", "$", 0),
        output_dir=_get(doc, "output_dir", "$", None, types=(str,)),
        doc=doc,
        base_dir=Path(base_dir),
        limits=limits,
        params=resolve(_get(doc, block, "$", {}), f"$.{block}", limits),
        map_source=_map_source(doc),
    )
    _call(json.dumps, "$", doc, allow_nan=False)  # after the keys it reads
    return spec


# ---------------------------------------------------------------------------
# execution

@dataclass
class RunRecord:
    spec_hash: str
    tool_version: str
    seed: int
    kind: str
    started_at: str
    finished_at: Optional[str] = None
    status: str = "running"
    config: dict = field(default_factory=dict)
    manifest: list = field(default_factory=list)
    violations: int = 0
    error: Optional[str] = None
    diagnostics: dict = field(default_factory=dict)  # solver details
    metrics: dict = field(default_factory=dict)  # stage wall times (s)

    def to_json(self) -> str:
        doc = dict(self.__dict__)
        doc["schema"] = 1
        return json.dumps(doc, indent=2, sort_keys=True)


class _Workspace:
    """Atomic result writing; only fully written files reach the manifest.
    Stage wall times add up in ``record.metrics``, never in a result file."""

    def __init__(self, out_dir: Path, record: RunRecord, quiet: bool):
        self.out_dir = out_dir
        self.record = record
        self.quiet = quiet
        record.metrics.update(fieldmap_s=0.0, write_s=0.0)
        out_dir.mkdir(parents=True, exist_ok=True)

    def timed(self, stage: str, fn, *args):
        """``fn(*args)``, its wall time added to metric ``stage``."""
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.record.metrics[stage] += time.perf_counter() - start

    def fieldmap(self, spec: ExperimentSpec) -> fm.FieldMap:
        """The spec's field map, its load timed; how a map calibrated from
        anchors was fitted goes to ``diagnostics.calibration``."""
        fmap = self.timed("fieldmap_s", spec.fieldmap)
        if fmap.calibration is not None:
            self.record.diagnostics["calibration"] = dict(fmap.calibration)
        return fmap

    def write(self, name: str, text: str):
        self.timed("write_s", write_atomic, self.out_dir / name, text)
        self.record.manifest.append(name)

    def say(self, line: str):
        """Print a progress line to stdout, unless the run is quiet."""
        if not self.quiet:
            print(line)


def _run_shuttle(spec: ExperimentSpec, ws: _Workspace):
    p = spec.params
    jm = replace(p["jitter"], seed=derive_seed(spec.seed, "motion"))
    rows = []
    for v in p["velocities"]:
        prof = mo.plan(p["distance_m"], spec.limits, v_target=float(v))
        nominal = mo.duration(prof)
        if p["runs"] > 0:
            realized = mo.apply_jitter(np.full(p["runs"], nominal), jm)
            std = float(np.std(realized, ddof=1)) if p["runs"] > 1 else None
            rows.append([float(v), nominal, float(np.mean(realized)), std])
        else:
            rows.append([float(v), nominal, nominal, 0.0])
    header = ["v_mps", "duration_s", "mean_realized_s", "std_realized_s"]
    ws.write("shuttle_durations.csv", csv_text(header, zip(*rows)))
    for r in rows:
        ws.say(f"v={r[0]:.3g} m/s  duration={r[1]:.6f} s")


def _run_lac(spec: ExperimentSpec, ws: _Workspace):
    fmap = ws.fieldmap(spec)
    limits = spec.params["limits"]
    rows = []
    for t in spec.params["targets_T"]:
        p = fmap.plan_lac_access(float(t), precision_m=limits.precision_m,
                                 v_max=limits.v_max)
        rows.append([p.target_field_T, p.position_m, p.gradient_T_per_m,
                     p.resolution_T, p.max_sweep_rate_T_per_s])
        ws.say(f"B={p.target_field_T:.4g} T  z={p.position_m:.4f} m  "
               f"res={p.resolution_T * 1e4:.4f} G  "
               f"rate={p.max_sweep_rate_T_per_s:.4f} T/s")
    header = ["target_T", "position_m", "gradient_T_per_m", "resolution_T",
              "max_sweep_rate_T_per_s"]
    ws.write("lac_plan.csv", csv_text(header, zip(*rows)))


def _run_dnp(spec: ExperimentSpec, ws: _Workspace):
    p = spec.params
    ensemble = sp.PowderEnsemble.gauss_legendre(p["nodes"])
    result = sp.powder_average(p["system"], p["sweep"], ensemble)
    ws.write("dnp_sweep.csv", csv_text(["theta_rad", "weight", "polarization"],
                                       zip(*result.table)))
    summary = {
        "mean_polarization": result.mean_polarization,
        "signs_uniform": result.signs_uniform(),
        "nodes": len(result.table),
        "integrator_steps": sum(r.n_steps for r in result.nodes),
        "max_error_estimate": max(r.error_estimate for r in result.nodes),
    }
    ws.write("dnp_summary.json", json.dumps(summary, indent=2, sort_keys=True))
    ws.record.diagnostics["dnp_nodes"] = [dict(
        theta_rad=t, n_steps=r.n_steps, error_estimate=r.error_estimate,
        exponentials=r.exponentials, exact_frames=r.exact_frames)
        for t, r in zip(ensemble.thetas, result.nodes)]
    ws.say(f"powder mean polarization {result.mean_polarization:+.6f} "
           f"({len(result.table)} nodes)")


def _finite(x: float) -> Optional[float]:
    """``x``, or None (JSON null) when it is NaN or infinite."""
    return x if math.isfinite(x) else None


def _run_t1(spec: ExperimentSpec, ws: _Workspace):
    p = spec.params
    fmap = ws.fieldmap(spec)
    protocols = p["protocols"]
    if p["centre"]:  # the default fields end at the magnet centre
        protocols = protocols + [_t1_protocol(p, fmap.field_at(fmap.domain_m[0]))]
    curves = rx.simulate_protocol(protocols, fmap, spec.limits, p["model"],
                                  seed=derive_seed(spec.seed, "relaxometry"),
                                  noise_sigma=p["noise_sigma"])
    fields = [prot.B_relax_T for prot in protocols]
    for b, curve in zip(fields, curves):
        ws.write(f"curve_B{b:g}T.csv", curve.to_csv())
    t1map = rx.build_t1_map(fields, curves)
    fits = [{"B_T": b, "amplitude_stderr": _finite(f.param_stderr[0]),
             "T1_stderr_s": _finite(f.param_stderr[1]),
             "residual_rms": f.residual_rms} for b, f in t1map.entries]
    fits += [{"B_T": b, "error": err} for b, err in t1map.failures]
    ws.record.diagnostics["t1_fits"] = sorted(fits, key=lambda d: d["B_T"])
    ws.write("t1_map.csv", t1map.to_csv())
    for b, f in t1map.entries:
        ws.say(f"B={b:.4g} T  T1={f.T1_s:.4g} s")
    if t1map.failures:
        ws.write("t1_failures.csv", csv_text(["B_T", "error"],
                                             zip(*t1map.failures)))


def _sequence_parts(spec: ExperimentSpec, ws: _Workspace):
    p = spec.params
    fmap = ws.fieldmap(spec)
    z_start = fmap.position_of_field(p["B_start_T"])
    z_end = (fmap.domain_m[0] if p["B_end_T"] is None  # the magnet centre
             else fmap.position_of_field(p["B_end_T"]))
    distance = p["shuttle_distance_m"]
    if distance is None:  # the move between the two fields on the map
        distance = abs(z_start - z_end)
        hi = spec.limits.travel_range_m
        _expect(distance <= hi, f"null, and the map puts B_start_T and B_end_T "
                f"{distance!r} m apart, outside [0, {hi}] m",
                "$.sequence.shuttle_distance_m")
    direction = 1.0 if z_end > z_start else -1.0
    prof = mo.plan(float(distance), spec.limits, z_start=z_start,
                   direction=direction)
    seq = replace(p["sequence"], shuttle_profile=prof)
    return sq.build_timeline(seq), prof, fmap


def _run_sequence(spec: ExperimentSpec, ws: _Workspace):
    timeline, prof, fmap = _sequence_parts(spec, ws)
    report = sq.validate(timeline, prof, fmap)
    ws.write("validation_report.csv", report.to_csv())
    ws.record.violations = len(report.violations)
    if report.ok:
        ws.say("timeline valid")
    for v in report.violations:
        ws.say(f"violation {v.code}: {v.detail}")


# kind -> (spec block, resolver of that block, runner)
_KINDS = {
    "shuttle_characterization": ("shuttle", _shuttle_params, _run_shuttle),
    "lac_plan": ("lac", _lac_params, _run_lac),
    "dnp_sweep": ("dnp", _dnp_params, _run_dnp),
    "t1_field_map": ("t1", _t1_params, _run_t1),
    "sequence_validation": ("sequence", _sequence_params, _run_sequence),
}


def _now() -> str:
    return _dt.datetime.now(_dt.timezone.utc).isoformat()


def _execute(spec: ExperimentSpec, out_dir, quiet, runner) -> RunRecord:
    """Run ``runner(spec, workspace)`` and write the RunRecord atomically,
    also when ``runner`` raises; ``runner`` sets the violation count."""
    start = time.perf_counter()
    record = RunRecord(
        spec_hash=spec_hash(spec.doc),
        tool_version=TOOL_VERSION,
        seed=spec.seed,
        kind=spec.kind,
        started_at=_now(),
        config={k: v for k, v in spec.doc.items() if k != "schema_version"},
    )
    ws = _Workspace(Path(out_dir or spec.output_dir or "fieldcycle-out"),
                    record, quiet)
    run_start = time.perf_counter()
    try:
        runner(spec, ws)
        record.status = "ok" if record.violations == 0 else "violations"
    except BaseException as exc:  # recorded, then re-raised
        record.status = "failed"
        record.error = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        record.finished_at = _now()
        end = time.perf_counter()
        m = record.metrics  # kernel_s: the runner outside map loads and writes
        m["kernel_s"] = end - run_start - m["fieldmap_s"] - m["write_s"]
        m["total_s"] = end - start
        write_atomic(ws.out_dir / "runrecord.json", record.to_json())
    return record


def run(spec: ExperimentSpec, out_dir=None, quiet: bool = False) -> RunRecord:
    """Execute the experiment; writes result files and a RunRecord JSON."""
    return _execute(spec, out_dir, quiet, _KINDS[spec.kind][2])


def simulate_sequence(spec: ExperimentSpec, runs: int, out_dir,
                      quiet: bool = False) -> RunRecord:
    """Realize ``runs`` jittered executions of the spec's timeline;
    ``out_dir`` None falls back as in ``run``."""
    _expect(spec.kind == "sequence_validation",
            f"expected kind 'sequence_validation', got {spec.kind!r}", "$.kind")
    _expect(runs >= 0, "must be non-negative", "--runs")

    def body(spec, ws):
        timeline, _, _ = _sequence_parts(spec, ws)
        jm = replace(spec.params["jitter"],
                     seed=derive_seed(spec.seed, "sequencer"))
        log = sq.simulate(timeline, jm, runs)
        j = log.metadata["shuttle_jitter_s"]
        ws.record.diagnostics["shuttle_jitter"] = {
            "runs": runs,
            "mean_s": float(np.mean(j)) if runs else None,
            "std_s": float(np.std(j, ddof=1)) if runs > 1 else None,
            "min_s": float(np.min(j)) if runs else None,
            "max_s": float(np.max(j)) if runs else None,
        }
        ws.write("event_log.csv", log.to_csv())
        ws.say(f"simulated {runs} runs, {runs * len(timeline.events)} events")

    return _execute(spec, out_dir, quiet, body)
