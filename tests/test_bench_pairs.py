import json
import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import bench_pairs  # noqa: E402

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _run(tps, p50, failed=0, correct=True):
    # the final JSON line of perfbench/run.py, with made-up figures
    values = {"tensors_per_s": tps, "call_p50_ms": p50, "call_tail_ms": 2.0 * p50,
              "setup_s": 0.5, "peak_rss_mb": 40.0}
    units = {m["name"]: m["unit"] for m in METRICS}
    return {"correct": correct, "attempted": 1000, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}


def test_pairs_alternate_the_side_that_runs_first():
    assert [bench_pairs.run_order(i)[0] for i in range(4)] == ["parent", "change"] * 2
    assert all(sorted(bench_pairs.run_order(i)) == ["change", "parent"] for i in range(4))


def test_aggregate_takes_medians_quartiles_and_pairs_won():
    parent = [_run(100.0, 3.0), _run(110.0, 2.0), _run(90.0, 4.0), _run(105.0, 2.5)]
    change = [_run(120.0, 2.5), _run(100.0, 2.0), _run(130.0, 3.0, failed=1), _run(125.0, 2.0)]
    out = bench_pairs.aggregate({"mc-pxp2": {"parent": parent, "change": change}},
                                [1, 2, 3, 4], METRICS)["mc-pxp2"]
    assert out["seeds"] == [1, 2, 3, 4]
    assert out["failed"] == {"parent": [0, 0, 0, 0], "change": [0, 0, 1, 0]}
    assert out["correct"]["change"] == [True] * 4
    tps = out["metrics"]["tensors_per_s"]
    assert tps["parent"] == [100.0, 110.0, 90.0, 105.0]
    assert tps["parent_median"] == 102.5 and tps["change_median"] == 122.5
    assert tps["parent_quartiles"] == [97.5, 106.25]
    assert tps["change_vs_parent"] == pytest.approx(122.5 / 102.5 - 1.0)
    assert tps["pairs_won_by_change"] == 3
    assert (tps["unit"], tps["better"], tps["bound"]) == ("1/s", "higher", 0.13)
    # lower is better for times; an equal pair is not won
    assert out["metrics"]["call_p50_ms"]["pairs_won_by_change"] == 3
    assert out["metrics"]["peak_rss_mb"]["pairs_won_by_change"] == 0


def test_aggregate_reproduces_a_committed_bench_file():
    bench = json.loads((ROOT / "BENCH_17.json").read_text())
    for workload, entry in bench["workloads"].items():
        runs = {side: [{"correct": entry["correct"][side][i], "failed": entry["failed"][side][i],
                        "attempted": entry["attempted"][side][i],
                        "metrics": {name: {"value": m[side][i], "unit": m["unit"]}
                                    for name, m in entry["metrics"].items()}}
                       for i in range(len(entry["seeds"]))]
                for side in bench_pairs.SIDES}
        out = bench_pairs.aggregate({workload: runs}, entry["seeds"], METRICS)[workload]
        assert out == entry


def test_quartiles_are_inclusive():
    values = [1.0, 2.0, 3.0, 4.0, 10.0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    assert bench_pairs.quartiles(values) == [q[0], q[2]] == [2.0, 4.0]
