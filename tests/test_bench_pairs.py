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
