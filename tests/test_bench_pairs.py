import importlib.util
from pathlib import Path

import pytest


def _bench_pairs():
    path = Path(__file__).parents[1] / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_summarize_splits_the_pair_ratio_by_run_order():
    # both trees are equally fast, but a pair's second run takes 25% longer
    # and runs 20% fewer ops: the split shows it, the medians and the
    # quartets cancel it
    tool = _bench_pairs()
    runs = {"parent": [], "change": []}
    for pair in range(10):
        first = "parent" if tool.parent_first(pair) else "change"
        for tree in runs:
            slow = tree != first
            runs[tree].append({"pair": pair, "ops_per_s": 8.0 if slow else 10.0,
                               "latency_p50_s": 0.125 if slow else 0.1})
    metrics = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
               {"name": "latency_p50_s", "better": "lower", "bound": 0.25}]
    summary, unresolved = tool.summarize(runs, metrics)
    ops, latency = summary["ops_per_s"], summary["latency_p50_s"]
    assert ops["ratio_parent_first"] == 0.8
    assert ops["ratio_change_first"] == 1.25
    assert latency["ratio_parent_first"] == 1.25
    assert latency["ratio_change_first"] == 0.8
    assert ops["change_over_parent"] == latency["change_over_parent"] == 1.0
    assert ops["ratio_quartet"] == latency["ratio_quartet"] == 1.0
    assert ops["pairs_change_better"] == "5/10"
    assert unresolved == []


def test_summarize_leaves_an_empty_order_group_unset():
    tool = _bench_pairs()
    runs = {"parent": [{"pair": 0, "ops_per_s": 10.0}],
            "change": [{"pair": 0, "ops_per_s": 11.0}]}
    summary, _ = tool.summarize(
        runs, [{"name": "ops_per_s", "better": "higher", "bound": 0.25}])
    assert summary["ops_per_s"]["ratio_parent_first"] == pytest.approx(1.1)
    assert summary["ops_per_s"]["ratio_change_first"] is None
    assert summary["ops_per_s"]["ratio_quartet"] is None


SYNTHETIC_PROBE = """import json, os, sys
from pathlib import Path
tree = Path.cwd().name
assert Path(sys.argv[2]).is_dir() and sys.argv[1] == "powder_dnp"
assert os.environ["PYTHONPATH"].split(os.pathsep)[0] == str(Path.cwd() / "src")
with open(os.environ["PROBE_LOG"], "a") as log:
    log.write(tree + "\\n")
print("# a line before the result")
print(json.dumps({"import_s": 0.2 if tree == "parent" else 0.15,
                  "map_s": 0.01, "warmup_s": 0.05, "modules": 234,
                  "scipy_optimize": 0}))
"""


def test_probes_alternate_between_the_trees(tmp_path, monkeypatch):
    # a synthetic probe whose change imports 50 ms faster: each tree is
    # probed in the pairs' order, with its own src first on PYTHONPATH
    tool = _bench_pairs()
    trees = {}
    for tree in ("parent", "change"):
        (tmp_path / tree / "fcbench").mkdir(parents=True)
        (tmp_path / tree / "fcbench" / "probe.py").write_text(SYNTHETIC_PROBE)
        trees[tree] = tmp_path / tree
    monkeypatch.setenv("PROBE_LOG", str(tmp_path / "log"))
    runs = tool.probe_pairs(trees, "powder_dnp", 4, tmp_path)
    order = (tmp_path / "log").read_text().split()
    assert order == ["parent", "change", "change", "parent"] * 2
    assert [r["pair"] for r in runs["parent"]] == [0, 1, 2, 3]
    assert runs["change"][0]["setup_s"] == pytest.approx(0.21)
    metrics = [{"name": name, "better": "lower", "bound": 0.25}
               for name in (*tool.PROBE_METRICS, "setup_s")]
    summary, unresolved = tool.summarize(runs, metrics)
    assert summary["import_s"]["pairs_change_better"] == "4/4"
    assert summary["import_s"]["change_over_parent"] == pytest.approx(0.75)
    assert summary["map_s"]["pairs_change_better"] == "0/4"
    assert summary["setup_s"]["parent_median"] == pytest.approx(0.26)
    assert unresolved == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["change", "log",
                                                          "parent"]


def test_a_failed_probe_is_an_error(tmp_path):
    tool = _bench_pairs()
    (tmp_path / "fcbench").mkdir()
    (tmp_path / "fcbench" / "probe.py").write_text("raise SystemExit(3)\n")
    result = tool.probe(tmp_path, "powder_dnp", tmp_path)
    assert list(result) == ["error"] and result["error"].startswith("exit 3")
