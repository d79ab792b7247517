"""Alternating benchmark runs on a parent commit and on a change, written
as one BENCH_<PR>.json file.

Usage: python3 tools/bench_pairs.py --parent <rev> --out <file>
           [--change <rev>] [--pairs 10] [--seconds 30] [--seed 1]
           [--workloads <name> ...] [--scratch <dir>]

The parent is checked out with ``git worktree add --detach`` under
<scratch> (by default a new temporary directory), and the worktree is
removed at the end.  The change is the working tree this script belongs to,
or a second worktree when ``--change`` names a revision.  For each workload
(by default every one that BENCHMARK.json declares), ``fcbench/run.py
--trace 0`` runs ``--pairs`` times on each tree, the two alternating: the
parent runs first in odd pairs (1, 3, ...) and second in even ones.  Then
``--trace 1`` runs once on each tree for the per-layer figures.  Each run's
last line of standard output is its JSON result.

The file holds the commands, the machine block of the first run, the runs
themselves (``untraced``, ``traced_<workload>``), and per workload and
end-to-end metric of BENCHMARK.json a ``summary``: medians and quartiles of
both trees, ``pairs_change_better`` and ``change_over_parent``, and the
median change/parent ratio of the pairs where the parent ran first
(``ratio_parent_first``) and of those where the change ran first
(``ratio_change_first``): a gap between the two shows that a pair's second
run reads differently from its first.  ``ratio_quartet`` is the median, over
the couples of consecutive pairs (1 and 2, 3 and 4, ...), of the geometric
mean of a couple's two change/parent ratios: one ratio has the parent
first and the other the change, so a constant second-run penalty cancels.
``unresolved`` lists every metric whose quartile spread, (q3 - q1) / median,
reaches its bound in BENCHMARK.json on either tree: such a metric cannot be
told apart from noise.  BENCHMARK.json is only read.

A smoke run, HEAD against HEAD:

    python3 tools/bench_pairs.py --parent HEAD --change HEAD --pairs 1 \\
        --seconds 2 --workloads powder_dnp --out /tmp/bench_smoke.json

It uses only the standard library and imports nothing from src/.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "fcbench/run.py"]


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def fcbench(tree, workload, seed, seconds, trace):
    """One run's JSON result, its machine block (None if it printed none)
    and its command; a run that fails or prints no result is an error."""
    cmd = RUN + ["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=10 * seconds + 600)
    lines = proc.stdout.splitlines()
    machine = next((json.loads(ln[len("# machine "):]) for ln in lines
                    if ln.startswith("# machine ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"error": f"exit {proc.returncode}: {proc.stderr[-300:]}"}
    if "metrics" in result:
        result.update({k: v["value"] for k, v in result.pop("metrics").items()})
    return result, machine, " ".join(cmd)


def _quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]] if values else [None, None]
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


def parent_first(pair):
    """Whether the parent runs first in pair ``pair`` (0-based)."""
    return pair % 2 == 0


def summarize(runs, end_to_end):
    """Per metric: medians, quartiles, pairs the change wins, the ratio of
    medians, the median pair ratio by run order and over pair couples; and
    the metrics whose spread reaches their bound."""
    summary, unresolved = {}, []
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {tree: [r[name] for r in runs[tree] if name in r]
                  for tree in ("parent", "change")}
        pairs = [(p[name], c[name], p["pair"])
                 for p, c in zip(runs["parent"], runs["change"])
                 if name in p and name in c]
        wins = sum((c > p) if higher else (c < p) for p, c, _ in pairs)
        ratio = {pair: c / p for p, c, pair in pairs if p}
        entry = {}
        for key, first in (("ratio_parent_first", True),
                           ("ratio_change_first", False)):
            ratios = [r for pair, r in ratio.items() if parent_first(pair) == first]
            entry[key] = statistics.median(ratios) if ratios else None
        quartets = [math.sqrt(r * ratio[pair + 1]) for pair, r in ratio.items()
                    if pair % 2 == 0 and pair + 1 in ratio]
        entry["ratio_quartet"] = statistics.median(quartets) if quartets else None
        for tree, vals in values.items():
            med = statistics.median(vals) if vals else None
            q = _quartiles(vals)
            entry[f"{tree}_median"], entry[f"{tree}_q1_q3"] = med, q
            if med and q[0] is not None and (q[1] - q[0]) / med >= metric["bound"]:
                unresolved.append({"metric": name, "tree": tree,
                                   "iqr_over_median": (q[1] - q[0]) / med,
                                   "bound": metric["bound"]})
        entry["pairs_change_better"] = f"{wins}/{len(pairs)}"
        entry["change_over_parent"] = (
            entry["change_median"] / entry["parent_median"]
            if entry["change_median"] is not None and entry["parent_median"]
            else None)
        summary[name] = entry
    return summary, unresolved


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", default=None,
                    help="a revision; default: this working tree")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="+", default=None)
    ap.add_argument("--scratch", type=Path, default=None)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs-", dir=args.scratch))
    trees = {"parent": scratch / "parent", "change": ROOT}
    revs = {"parent": _git("rev-parse", args.parent)}
    if args.change:
        trees["change"] = scratch / "change"
        revs["change"] = _git("rev-parse", args.change)
    # a terminated run still removes its worktrees (SIGTERM skips finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    out = {"what": (
        f"fcbench/run.py on parent {revs['parent'][:12]} and on change "
        f"{revs.get('change', 'working tree')[:12]}, alternating, the parent "
        f"first in odd pairs; seed {args.seed}, {args.seconds:g} s per run"),
        "commands": [], "machine": None, "untraced": {}}
    try:
        for tree, rev in revs.items():
            _git("worktree", "add", "--detach", str(trees[tree]), rev)
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for pair in range(args.pairs):
                order = ("parent", "change") if parent_first(pair) \
                    else ("change", "parent")
                for tree in order:
                    result, machine, cmd = fcbench(
                        trees[tree], workload, args.seed, args.seconds, 0)
                    runs[tree].append({"pair": pair, **result})
                    out["machine"] = out["machine"] or machine
                    print(f"{workload} pair {pair + 1} {tree}: "
                          f"{result.get('ops_per_s', result.get('error'))}",
                          file=sys.stderr, flush=True)
            out["commands"].append(cmd.replace(f"--workload {workload}",
                                               "--workload <w>"))
            out["untraced"][workload] = runs
            out.setdefault("summary", {})[workload], unresolved = summarize(
                runs, bench["end_to_end"])
            out.setdefault("unresolved", []).extend(
                {"workload": workload, **u} for u in unresolved)
            traced = {}
            for tree in ("parent", "change"):
                result, _, cmd = fcbench(trees[tree], workload, args.seed,
                                         args.seconds, 1)
                traced[tree] = [result]
            out["commands"].append(cmd)
            out[f"traced_{workload}"] = traced
    finally:
        for tree in revs:
            subprocess.run(["git", "worktree", "remove", "--force",
                            str(trees[tree])], cwd=ROOT, capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT,
                       capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)
    out["commands"] = list(dict.fromkeys(out["commands"]))
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
