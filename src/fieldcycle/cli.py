"""Command-line interface.

Exit codes: 0 success, 2 validation violations, 3 spec/schema error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import fieldmap as fm
from . import motion as mo
from . import orchestrator as orc
from .errors import (FieldCycleError, SchemaViolation, SpecInvalid,
                     UnknownKind, UnsupportedVersion)
from .util import write_atomic

EXIT_OK = 0
EXIT_VIOLATIONS = 2
EXIT_SPEC_ERROR = 3
EXIT_NUMERICAL = 4


def _run_doc(doc, base_dir, args, kind=None):
    """Parse ``doc`` once, check it is ``kind``, and run it (simulate it for
    ``simulate-sequence``, the one verb with ``--runs``)."""
    spec = orc.parse_spec(doc, base_dir=base_dir)
    if kind and spec.kind != kind:
        raise SchemaViolation(f"expected kind {kind!r}, got {spec.kind!r}",
                              "$.kind")
    if args.runs is not None:
        record = orc.simulate_sequence(spec, runs=args.runs, out_dir=args.out,
                                       quiet=args.quiet)
    else:
        record = orc.run(spec, out_dir=args.out, quiet=args.quiet)
    return EXIT_OK if record.violations == 0 else EXIT_VIOLATIONS


def _cmd_spec(args):
    """The spec verbs: ``--seed``/``--nodes`` edit the document before the
    one parse."""
    path = Path(args.spec)
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, not JSON
        raise SchemaViolation(f"cannot read spec {path}: {exc}", "$") from None
    if isinstance(doc, dict):
        if args.seed is not None:
            doc["seed"] = args.seed
        dnp = doc.get("dnp", {})
        if args.nodes is not None and isinstance(dnp, dict):
            doc["dnp"] = {**dnp, "nodes": args.nodes}
    return _run_doc(doc, path.parent, args, args.kind)


def _cmd_plan_lac(args):
    lac = {"targets_T": args.target}
    if args.precision is not None:
        lac["precision_m"] = args.precision
    if args.vmax is not None:
        lac["v_max"] = args.vmax
    doc = {"schema_version": orc.SCHEMA_VERSION, "kind": "lac_plan", "lac": lac}
    if args.map:
        doc["fieldmap"] = {"file": args.map}
    return _run_doc(doc, ".", args)


def _cmd_plan_motion(args):
    for flag in ("vmax", "amax", "dt"):
        if not 0 < getattr(args, flag) < float("inf"):
            raise SchemaViolation("must be a positive finite number", f"--{flag}")
    limits = mo.MotionLimits(v_max=args.vmax, a_max=args.amax)
    if not 0 <= args.distance <= limits.travel_range_m:  # also rejects NaN
        raise SchemaViolation(f"must lie in [0, {limits.travel_range_m}] m",
                              "--distance")
    prof = mo.plan(args.distance, limits)
    if not args.quiet:
        print(f"shape {prof.shape}  duration {mo.duration(prof):.6f} s")
    if args.out:
        traj = mo.sample_trajectory(prof, args.dt)
        Path(args.out).mkdir(parents=True, exist_ok=True)
        path = Path(args.out) / "trajectory.csv"
        write_atomic(path, traj.to_csv(fm.reference_map()))
        if not args.quiet:
            print(f"wrote {path}")
    return EXIT_OK


def _cmd_calibrate_field(args):
    try:
        anchors = fm.anchors_from_csv(Path(args.anchors).read_text())
        fmap = fm.calibrate(anchors, model_kind=args.model)
    except (OSError, ValueError, KeyError) as exc:  # KeyError: missing column
        raise SchemaViolation(f"cannot use {args.anchors} ({type(exc).__name__}: "
                              f"{exc})", "--anchors") from None
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(out, fmap.to_json())
    if not args.quiet:
        print(f"calibrated {fmap.model} map -> {out}")
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="fieldcycle",
        description="Field-cycling NMR instrument digital twin",
    )
    ap.add_argument("--quiet", action="store_true", help="suppress progress output")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                        help="suppress progress output")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan-motion", help="plan a shuttle move", parents=[common])
    p.add_argument("--distance", type=float, required=True, help="move length (m)")
    p.add_argument("--vmax", type=float, default=mo.MotionLimits.v_max)
    p.add_argument("--amax", type=float, default=mo.MotionLimits.a_max)
    p.add_argument("--dt", type=float, default=1e-4)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_plan_motion)

    p = sub.add_parser("calibrate-field", help="fit a field map to anchors",
                       parents=[common])
    p.add_argument("--anchors", required=True, help="anchor CSV file")
    p.add_argument("--model", default=fm.DEFAULT_MODEL_KIND, choices=fm.MODEL_KINDS)
    p.add_argument("--out", required=True, help="output map JSON")
    p.set_defaults(fn=_cmd_calibrate_field)

    p = sub.add_parser("plan-lac", help="level anti-crossing access budget",
                       parents=[common])
    p.add_argument("--target", type=float, action="append", required=True,
                   help="target field (T); repeatable")
    p.add_argument("--map", default=None, help="field map JSON (default: reference)")
    p.add_argument("--precision", type=float, default=None,
                   help=f"positioning precision (m; default {mo.MotionLimits.precision_m})")
    p.add_argument("--vmax", type=float, default=None,
                   help=f"shuttle speed limit (m/s; default {mo.MotionLimits.v_max})")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_plan_lac, runs=None)

    # the spec verbs share _cmd_spec; flags a verb lacks default to None
    for verb, kind in (("dnp-sweep", "dnp_sweep"), ("t1-map", "t1_field_map")):
        p = sub.add_parser(verb, help=f"run a {kind} experiment spec",
                           parents=[common])
        p.add_argument("--config", dest="spec", required=True)
        p.add_argument("--seed", type=int, default=None)
        if kind == "dnp_sweep":
            p.add_argument("--nodes", type=int, default=None)
        p.add_argument("--out", default=None)
        p.set_defaults(fn=_cmd_spec, kind=kind, nodes=None, runs=None)

    p = sub.add_parser("validate-sequence", help="check a trigger timeline",
                       parents=[common])
    p.add_argument("--spec", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_spec, kind="sequence_validation", seed=None,
                   nodes=None, runs=None)

    p = sub.add_parser("simulate-sequence", help="jittered timeline realizations",
                       parents=[common])
    p.add_argument("--spec", required=True)
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_spec, kind="sequence_validation", nodes=None)

    p = sub.add_parser("run", help="run any experiment spec", parents=[common])
    p.add_argument("--spec", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_spec, kind=None, nodes=None, runs=None)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (SchemaViolation, SpecInvalid, UnknownKind, UnsupportedVersion,
            OSError) as exc:  # OSError: a path that cannot be read or made
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    except (FieldCycleError, MemoryError) as exc:  # MemoryError: sizes too big
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
