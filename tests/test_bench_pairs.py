"""The summary that tools/bench_pairs.py writes into BENCH files."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "verdicts_per_s", "unit": "1/s", "better": "higher",
            "bound": 0.25},
           {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BOUNDS = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}


def record(per_s, setup, failed=0):
    return {"correct": not failed, "attempted": 5, "failed": failed,
            "metrics": {"verdicts_per_s": {"value": per_s, "unit": "1/s"},
                        "setup_s": {"value": setup, "unit": "s"}}}


def test_summary_of_fabricated_pairs():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [2.0, 1.0, 6.0, 8.0, 5.0]
    setups = [0.1, 0.2, 0.3, 0.4, 0.5]
    pairs = [{"seed": 100 + i, "first": "parent" if i % 2 == 0 else "change",
              "parent": record(p, 0.3),
              "change": record(c, setups[i], failed=i == 4)}
             for i, (p, c) in enumerate(zip(parent, change))]
    block = bench_pairs.summarize(pairs, METRICS)
    assert block["seeds"] == [100, 101, 102, 103, 104]
    assert block["first_side"] == ["parent", "change"] * 2 + ["parent"]
    assert block["all_correct"] is False
    assert block["failed"] == {"parent": 0, "change": 1}
    assert block["attempted"] == {"parent": 25, "change": 25}
    per_s = block["metrics"]["verdicts_per_s"]
    assert per_s["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert per_s["change"] == {"median": 5.0, "q1": 2.0, "q3": 6.0}
    assert per_s["change_over_parent"] == pytest.approx(5 / 3)
    # higher is better: pairs 0, 2 and 3 (pair 4 is a tie)
    assert per_s["change_better_pairs"] == 3
    assert per_s["parent_runs"] == parent and per_s["change_runs"] == change
    setup = block["metrics"]["setup_s"]
    # lower is better: 0.1 and 0.2 beat 0.3, a tie and worse do not
    assert setup["change_better_pairs"] == 2
    assert setup["unit"] == "s" and setup["better"] == "lower"


def summarize_written(old, workload, name):
    """Summarize again the runs of one metric of a written BENCH file."""
    block = old["workloads"][workload]
    entry = block["metrics"][name]
    pairs = [{"seed": s, "first": first,
              "parent": record(0, 0), "change": record(0, 0)}
             for s, first in zip(block["seeds"], block["first_side"])]
    for pair, p, c in zip(pairs, entry["parent_runs"], entry["change_runs"]):
        pair["parent"]["metrics"][name] = {"value": p}
        pair["change"]["metrics"][name] = {"value": c}
    claim = old.get("claim", {})
    return bench_pairs.summarize(
        pairs, [{"name": name, "unit": entry["unit"],
                 "better": entry["better"], "bound": BOUNDS[name]}],
        claim.get("metric") if claim.get("workload") == workload else None,
    )["metrics"][name]


def test_summary_reproduces_a_written_bench_file():
    with open(os.path.join(ROOT, "BENCH_6.json")) as f:
        old = json.load(f)
    for workload, block in old["workloads"].items():
        for name, entry in block["metrics"].items():
            got = summarize_written(old, workload, name)
            assert {k: got[k] for k in entry} == entry, (workload, name)


def test_verdicts_follow_the_rule():
    parent = [100.0 + i for i in range(10)]  # median 104.5, IQR 4.5
    cases = {
        # claimed, higher is better: 10 wins by 5 > IQR
        ("verdicts_per_s", "verdicts_per_s"): ([p + 5 for p in parent],
                                               "met"),
        # 8 wins of 10 are too few, however large the gain
        ("verdicts_per_s", "verdicts_per_s", 8): (
            [p + (9 if i < 8 else -1) for i, p in enumerate(parent)],
            "not met"),
        # 10 wins, but the median gain 4 is within the IQR
        ("verdicts_per_s", "verdicts_per_s", 4): ([p + 4 for p in parent],
                                                  "not met"),
        # not claimed, lower is better: 30% worse is past the 0.25 bound
        ("setup_s", None): ([p * 1.3 for p in parent], "worse"),
        ("setup_s", None, 20): ([p * 1.2 for p in parent], "within"),
        ("verdicts_per_s", None): ([p * 0.8 for p in parent], "within"),
        ("verdicts_per_s", None, 70): ([p * 0.7 for p in parent], "worse"),
    }
    for key, (change, want) in cases.items():
        name, claimed = key[:2]
        metric = next(m for m in METRICS if m["name"] == name)
        pairs = [{"seed": i, "first": "parent", "parent": record(p, p),
                  "change": record(c, c)}
                 for i, (p, c) in enumerate(zip(parent, change))]
        got = bench_pairs.summarize(pairs, [metric], claimed)
        assert got["metrics"][name]["verdict"] == want, key
    # a parent whose quartiles span more than the bound cannot tell
    wide = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0]
    pairs = [{"seed": i, "first": "parent", "parent": record(p, p),
              "change": record(p, p)} for i, p in enumerate(wide)]
    got = bench_pairs.summarize(pairs, METRICS)["metrics"]
    assert {m: e["verdict"] for m, e in got.items()} == \
        {"verdicts_per_s": "unresolved", "setup_s": "unresolved"}
    # BENCH_6's claim, 3x eval-mix throughput, was met
    with open(os.path.join(ROOT, "BENCH_6.json")) as f:
        old = json.load(f)
    assert summarize_written(old, "eval-mix", "verdicts_per_s")[
        "verdict"] == "met"
