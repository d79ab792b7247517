"""Benchmark of the fieldcycle package.

Usage, from the repository root:

    python3 fcbench/run.py --workload t1_sequence --seed 1 --seconds 30 \
        --trace 0

One client drives the package as a closed loop: it starts the next
operation when the previous one has returned and its results have been
checked.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs
one cycle of the workload repeatedly, alternating untraced and traced
passes, and reports the per-layer metrics.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from spans import Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 120

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_s": "s",
              "peak_rss_mb": "MB"}

# name -> unit; times are per pass over one workload cycle
PER_LAYER = {
    "cli.import_s": "s", "cli.modules_loaded": "count",
    "cli.scipy_optimize_loaded": "count", "cli.self_s": "s",
    "fieldmap.self_s": "s", "fieldmap.calibrate.calls": "count",
    "fieldmap.calibrate.self_s": "s",
    "fieldmap.position_of_field.calls": "count",
    "fieldmap.position_of_field.self_s": "s",
    "fieldmap.field_at.points": "count", "fieldmap.field_at.self_s": "s",
    "motion.self_s": "s", "motion.plan.calls": "count",
    "motion.sample_trajectory.samples": "count",
    "motion.sample_trajectory.self_s": "s",
    "motion.apply_jitter.calls": "count", "motion.apply_jitter.self_s": "s",
    "sequencer.self_s": "s", "sequencer.build_timeline.self_s": "s",
    "sequencer.validate.self_s": "s", "sequencer.simulate.calls": "count",
    "sequencer.simulate.self_s": "s",
    "spin.self_s": "s", "spin.propagate_sweep.calls": "count",
    "spin.propagate_sweep.busy_s": "s", "spin.steps": "count",
    "spin.steps_per_s": "1/s", "spin.powder_average.self_s": "s",
    "spin.pool_util": "ratio", "spin.pol_err_max": "ratio",
    "relaxometry.self_s": "s", "relaxometry.simulate_protocol.calls": "count",
    "relaxometry.simulate_protocol.self_s": "s",
    "relaxometry.fit_decay.calls": "count",
    "relaxometry.fit_decay.self_s": "s", "relaxometry.fit_failures": "count",
    "relaxometry.t1_rel_err_max": "ratio",
    "orchestrator.self_s": "s", "orchestrator.parse_spec.self_s": "s",
    "orchestrator.run.self_s": "s", "orchestrator.files_written": "count",
    "orchestrator.bytes_written": "bytes",
    "trace.ops": "count", "trace.op_wall_s": "s",
    "trace.unattributed_s": "s", "trace.spans": "count",
    "trace.ops_per_s_untraced": "1/s", "trace.ops_per_s_traced": "1/s",
    "trace.overhead": "ratio",
}
LAYERS = ("cli", "fieldmap", "motion", "sequencer", "spin", "relaxometry",
          "orchestrator")


class OpFailed(Exception):
    """The program raised or exited non-zero."""


def _log(*parts):
    print(*parts, flush=True)


# ---------------------------------------------------------------------------
# environment

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


def machine_block(workload, seed, seconds):
    import numpy as np
    import scipy

    from fieldcycle.util import THREADS_ENV, thread_count

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        THREADS_ENV: os.environ.get(THREADS_ENV, "unset"),
        "threads": thread_count(),
    }


def probe(workload, work, i):
    """Set-up cost of one fresh process (see probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload,
         str(work / f"probe{i}")],
        env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


# ---------------------------------------------------------------------------
# one operation

class Runner:
    """Executes and checks operations; one op directory at a time."""

    def __init__(self, workload, work, dnp_reference):
        self.workload = workload
        self.work = work
        self.dnp_reference = dnp_reference
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self._n = 0

    def _cli(self, op, op_dir, tracer):
        out = workloads.prepare(op, op_dir)
        spec = op_dir / "spec.json"
        spec.write_text(json.dumps(op.doc))
        args = ["run", "--spec", str(spec), "--out", str(out), "--quiet"]
        if tracer is None:
            cmd = [sys.executable, "-m", "fieldcycle.cli"] + args
        else:
            cmd = [sys.executable, str(HERE / "cli_child.py"),
                   str(op_dir / "spans.json")] + args
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        latency = time.perf_counter() - start
        if proc.returncode != 0:
            raise OpFailed(f"exit {proc.returncode}: {proc.stderr[-300:]}")
        return latency

    def run(self, op, tracer=None):
        """Returns (latency or None when failed, check diagnostics)."""
        self._n += 1
        self.attempted += 1
        op_dir = self.work / f"op{self._n}"
        root = tracer.open("bench.op") if tracer else None
        try:
            if self.workload == "cold_cli":
                latency = self._cli(op, op_dir, tracer)
            else:
                latency = workloads.execute(op, op_dir)
        except Exception as exc:  # any failure of the program is counted
            latency, diag, error = None, None, exc
        finally:
            if tracer:
                tracer.close(root)
        if latency is not None:
            try:
                if tracer and self.workload == "cold_cli":
                    _merge_child_spans(tracer, root[0], op_dir / "spans.json")
                diag = workloads.check(op, op_dir / "out", self.dnp_reference)
            except Exception as exc:  # malformed output fails its check
                latency, diag, error = None, None, exc
        if latency is None:
            self.failed += 1
            self.failures.append(f"{op.kind}: {type(error).__name__}: {error}")
        shutil.rmtree(op_dir, ignore_errors=True)
        return latency, diag


def _merge_child_spans(tracer, root_id, path):
    """Re-number a child's spans into the tracer, under the op span.  Both
    processes read the same monotonic clock.  A parent opens before its
    children, so it has the smaller id and is re-numbered first."""
    ids = {0: root_id}
    for sid, name, start, end, parent, _, count in sorted(
            json.loads(path.read_text())):
        ids[sid] = tracer.record(name, start, end, ids[parent], count)


# ---------------------------------------------------------------------------
# metrics

def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(cycles, setup_s, workload):
    """cycles: per cycle, the latencies of its operations (None = failed).
    Whole cycles only, so every run has the workload's mix of shapes."""
    latencies = [x for c in cycles for x in c if x is not None]
    who = resource.RUSAGE_CHILDREN if workload == "cold_cli" \
        else resource.RUSAGE_SELF
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / sum(latencies) if latencies else 0.0,
        "latency_p50_s": _median(latencies),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    extra = {"samples": len(latencies), "cycles": len(cycles)}
    if len(latencies) >= 100:  # fewer cannot leave 10 beyond the p90
        p90 = statistics.quantiles(latencies, n=10)[-1]
        beyond = sum(x > p90 for x in latencies)
        if beyond >= 10:
            extra["latency_p90_s"] = p90
            extra["latency_p90_beyond"] = beyond
    return metrics, extra


def layer_metrics(agg, diags, probes, threads):
    def get(name, key="self_s"):
        return agg.get(name, {}).get(key, 0)

    m = {f"{layer}.self_s": sum(v["self_s"] for k, v in agg.items()
                                if k.split(".")[0] == layer)
         for layer in LAYERS}
    m.update({
        "cli.import_s": _median([p["import_s"] for p in probes]),
        "cli.modules_loaded": probes[0]["modules"],
        "cli.scipy_optimize_loaded": probes[0]["scipy_optimize"],
        "fieldmap.calibrate.calls": get("fieldmap.calibrate", "calls"),
        "fieldmap.calibrate.self_s": get("fieldmap.calibrate"),
        "fieldmap.position_of_field.calls":
            get("fieldmap.position_of_field", "calls"),
        "fieldmap.position_of_field.self_s":
            get("fieldmap.position_of_field"),
        "fieldmap.field_at.points": get("fieldmap.field_at", "count"),
        "fieldmap.field_at.self_s": get("fieldmap.field_at"),
        "motion.plan.calls": get("motion.plan", "calls"),
        "motion.sample_trajectory.samples":
            get("motion.sample_trajectory", "count"),
        "motion.sample_trajectory.self_s": get("motion.sample_trajectory"),
        "motion.apply_jitter.calls": get("motion.apply_jitter", "calls"),
        "motion.apply_jitter.self_s": get("motion.apply_jitter"),
        "sequencer.build_timeline.self_s": get("sequencer.build_timeline"),
        "sequencer.validate.self_s": get("sequencer.validate"),
        "sequencer.simulate.calls": get("sequencer.simulate", "calls"),
        "sequencer.simulate.self_s": get("sequencer.simulate"),
        "spin.propagate_sweep.calls": get("spin.propagate_sweep", "calls"),
        "spin.propagate_sweep.busy_s": get("spin.propagate_sweep", "busy_s"),
        "spin.steps": get("spin.propagate_sweep", "count"),
        "spin.powder_average.self_s": get("spin.powder_average"),
        "spin.pol_err_max": max((d["pol_err"] for d in diags), default=0.0),
        "relaxometry.simulate_protocol.calls":
            get("relaxometry.simulate_protocol", "calls"),
        "relaxometry.simulate_protocol.self_s":
            get("relaxometry.simulate_protocol"),
        "relaxometry.fit_decay.calls": get("relaxometry.fit_decay", "calls"),
        "relaxometry.fit_decay.self_s": get("relaxometry.fit_decay"),
        "relaxometry.fit_failures": sum(d["fit_failures"] for d in diags),
        "relaxometry.t1_rel_err_max":
            max((d["t1_rel_err"] for d in diags), default=0.0),
        "orchestrator.parse_spec.self_s": get("orchestrator.parse_spec"),
        "orchestrator.run.self_s": get("orchestrator.run")
        + get("orchestrator.simulate_sequence"),
        "orchestrator.files_written": sum(d["files"] for d in diags),
        "orchestrator.bytes_written": sum(d["bytes"] for d in diags),
        "trace.op_wall_s": get("bench.op", "busy_s"),
        "trace.unattributed_s": get("bench.op"),
    })
    busy = m["spin.propagate_sweep.busy_s"]
    powder_wall = get("spin.powder_average", "busy_s")
    m["spin.steps_per_s"] = m["spin.steps"] / busy if busy else 0.0
    m["spin.pool_util"] = (busy / (powder_wall * threads) if powder_wall
                           else 0.0)
    return m


# ---------------------------------------------------------------------------
# phases

def timed_phase(runner, gen, seconds):
    cycles, first_diags = [], None
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        results = [runner.run(op) for op in next(gen)]
        cycles.append([lat for lat, _ in results])
        if first_diags is None:
            first_diags = [d for _, d in results if d]
    return cycles, first_diags


def trace_phase(runner, gen, seconds, work):
    """Alternate untraced and traced passes over one cycle until time is
    up; per-layer times are medians over traced passes, counts come from
    the first traced pass (every pass runs the same inputs)."""
    deck = next(gen)
    tracer = Tracer()
    rates = {"untraced": [], "traced": []}
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        for mode in ("untraced", "traced"):
            first_span = len(tracer.spans)
            if mode == "traced":
                tracer.install()
            results = []
            try:
                for op in deck:
                    tracer.op += 1
                    results.append(runner.run(
                        op, tracer if mode == "traced" else None))
            finally:
                tracer.uninstall()
            ok = [lat for lat, _ in results if lat is not None]
            if ok:
                rates[mode].append(len(ok) / sum(ok))
            if mode == "traced":
                passes.append((summarize(tracer.spans[first_span:]),
                               [d for _, d in results if d],
                               len(tracer.spans) - first_span))
    path = work / "spans.json.gz"
    with gzip.open(path, "wt", compresslevel=1) as fh:
        json.dump({"columns": ["id", "name", "start", "end", "parent", "op",
                               "count"], "spans": tracer.spans}, fh)
    return deck, passes, rates, path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "fieldcycle" / "__init__.py").is_file():
        print(f"fcbench: no package source at {SRC}/fieldcycle",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    # set-up: fresh-process probes, then the same steps in this process
    probes = [probe(args.workload, work, i) for i in range(SETUP_PROBES)]
    setup_s = _median([p["import_s"] + p["map_s"] + p["warmup_s"]
                       for p in probes])
    for i in range(SETUP_PROBES):
        shutil.rmtree(work / f"probe{i}", ignore_errors=True)
    import fieldcycle
    from fieldcycle import fieldmap

    if Path(fieldcycle.__file__).resolve().parent != SRC / "fieldcycle":
        print(f"fcbench: imported {fieldcycle.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    map_json = fieldmap.reference_map().to_json()
    runner = Runner(args.workload, work, workloads.load_dnp_reference(
        HERE / "dnp_reference.json"))
    for op in workloads.warmup_ops()[args.workload]:
        runner.run(op)
    gen = workloads.cycles(args.workload, args.seed, map_json)
    machine = machine_block(args.workload, args.seed, args.seconds)

    counts = {"cli.modules_loaded": probes[0]["modules"]}
    if args.trace:
        from fieldcycle.util import thread_count

        deck, passes, rates, path = trace_phase(runner, gen, args.seconds,
                                                work)
        per_pass = [layer_metrics(agg, diags, probes, thread_count())
                    for agg, diags, _ in passes]
        metrics = {}
        for name in per_pass[0]:
            values = [p[name] for p in per_pass]
            exact = PER_LAYER[name] in ("count", "bytes")
            metrics[name] = values[0] if exact else _median(values)
        metrics["trace.ops"] = len(deck)
        metrics["trace.spans"] = passes[0][2]
        metrics["trace.ops_per_s_untraced"] = _median(rates["untraced"])
        metrics["trace.ops_per_s_traced"] = _median(rates["traced"])
        metrics["trace.overhead"] = (1.0 - metrics["trace.ops_per_s_traced"]
                                     / metrics["trace.ops_per_s_untraced"]
                                     if rates["untraced"] else 0.0)
        metrics = {name: metrics[name] for name in PER_LAYER}
        counts.update({k: metrics[k] for k in (
            "spin.steps", "orchestrator.bytes_written")})
        units = PER_LAYER
        _log(f"# traced passes: {len(passes)} of {len(deck)} ops; "
             f"spans written to {path}")
        wall = metrics["trace.op_wall_s"]
        lost = metrics["trace.unattributed_s"]
        _log(f"# op wall {wall:.6f} s per pass; layer spans account for "
             f"{1 - lost / wall:.2%}, unattributed {lost / wall:.2%}")
    else:
        cycles, first_diags = timed_phase(runner, gen, args.seconds)
        metrics, extra = end_to_end(cycles, setup_s, args.workload)
        counts["orchestrator.bytes_written(first cycle)"] = sum(
            d["bytes"] for d in first_diags or [])
        counts["spin.steps"] = None  # counted by the traced run only
        units = END_TO_END
        attempted = runner.attempted
        _log(f"# error_rate {runner.failed / attempted:.6g} "
             f"({runner.failed} of {attempted} ops)")
        if "latency_p90_s" in extra:
            _log(f"# latency_p90_s {extra['latency_p90_s']:.6g} s "
                 f"({extra['samples']} samples, "
                 f"{extra['latency_p90_beyond']} beyond)")
        else:
            _log(f"# latency_p90_s not reported: {extra['samples']} samples, "
                 "fewer than 10 would lie beyond it")
        _log(f"# {extra['samples']} timed ops in {extra['cycles']} cycles")
    for failure in runner.failures[:20]:
        _log(f"# FAILED {failure}")
    _log("# machine " + json.dumps(machine))
    _log("# counts " + json.dumps(counts))
    for name, value in metrics.items():
        _log(f"# {name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
