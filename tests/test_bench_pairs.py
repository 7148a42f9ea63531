import json
import shutil
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
        # the file predates "beyond_bound", which summarize adds to each metric
        for metric in out["metrics"].values():
            gain = metric["change_vs_parent"] * (1.0 if metric["better"] == "higher" else -1.0)
            assert metric.pop("beyond_bound") == (
                "worse" if gain < -metric["bound"] else "better" if gain > metric["bound"] else None)
        assert out == entry


def test_quartiles_are_inclusive():
    values = [1.0, 2.0, 3.0, 4.0, 10.0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    assert bench_pairs.quartiles(values) == [q[0], q[2]] == [2.0, 4.0]


# the last lines perfbench/run.py prints, as a run of mc-pxp2 printed them
STDOUT = """\
# 200 calls in 0.38 s, tail = p95; as measured, before host-speed scaling: \
tensors_per_s 5610.83, call_p50_ms 1.66743, call_tail_ms 2.61197, setup_s 0.20468
# 0 tensors left out by the residual screen
tensors_per_s = 4116.63 1/s
call_p50_ms = 2.28324 ms
call_tail_ms = 3.4855 ms
setup_s = 0.209686 s
peak_rss_mb = 42.6172 MB
{"correct": true, "attempted": 2000, "failed": 0, "metrics": {"tensors_per_s": \
{"value": 4116.628565801556, "unit": "1/s"}, "call_p50_ms": {"value": 2.2832366616307347, \
"unit": "ms"}, "call_tail_ms": {"value": 3.485495279053344, "unit": "ms"}, "setup_s": \
{"value": 0.2096863395911271, "unit": "s"}, "peak_rss_mb": {"value": 42.6171875, "unit": "MB"}}}
"""


# the last lines perfbench/run.py --trace 1 prints, cut to three layers
TRACED = """\
rank1.stationary_points_222.calls = 1000 count
rank1.stationary_points_222.self_ms = 351.2 ms
trace.overhead_pct = 0.0262 %
{"correct": true, "attempted": 1000, "failed": 0, "metrics": {\
"rank1.stationary_points_222.calls": {"value": 1000, "unit": "count"}, \
"rank1.stationary_points_222.self_ms": {"value": 351.2, "unit": "ms"}, \
"trace.overhead_pct": {"value": 0.0262, "unit": "%"}}}
"""


def test_traced_runs_are_kept_per_layer_as_medians():
    traced = bench_pairs.read_run(TRACED)
    assert "raw" not in traced

    def run(self_ms):
        out = json.loads(json.dumps(traced))
        out["metrics"]["rank1.stationary_points_222.self_ms"]["value"] = self_ms
        return out

    results = {"mc-generic": {"parent": [_run(100.0, 3.0)] * 3, "change": [_run(120.0, 2.5)] * 3,
                              "traced": {"parent": [run(351.2), run(402.0), run(340.0)],
                                         "change": [run(270.5), run(260.0), run(300.0)]}}}
    out = bench_pairs.aggregate(results, [7, 8, 9], METRICS)["mc-generic"]
    assert out["per_layer"] == {
        "parent": {"rank1.stationary_points_222.calls": 1000,
                   "rank1.stationary_points_222.self_ms": 351.2, "trace.overhead_pct": 0.0262},
        "change": {"rank1.stationary_points_222.calls": 1000,
                   "rank1.stationary_points_222.self_ms": 270.5, "trace.overhead_pct": 0.0262}}
    assert out["metrics"]["tensors_per_s"]["change_median"] == 120.0


def test_read_run_keeps_the_figures_before_host_speed_scaling():
    run = bench_pairs.read_run(STDOUT)
    assert run["raw"] == {"tensors_per_s": 5610.83, "call_p50_ms": 1.66743,
                          "call_tail_ms": 2.61197, "setup_s": 0.20468}
    assert run["attempted"] == 2000 and run["correct"] is True
    assert run["metrics"]["tensors_per_s"]["value"] == 4116.628565801556


def test_read_run_keeps_the_call_count():
    # peak_rss_mb grows with the calls a run records, so each run keeps its count
    run = bench_pairs.read_run(STDOUT)
    assert run["calls"] == 200
    assert "calls" not in bench_pairs.read_run(TRACED)
    out = bench_pairs.aggregate({"mc-pxp2": {"parent": [dict(run, calls=200)] * 2,
                                             "change": [dict(run, calls=260)] * 2}},
                                [1, 2], METRICS)["mc-pxp2"]
    assert out["calls"] == {"parent": [200, 200], "change": [260, 260]}


def test_each_metric_says_whether_its_change_is_beyond_its_bound():
    # bounds: tensors_per_s 13%, call_p50_ms 11%, call_tail_ms 22%, setup_s
    # 25%, peak_rss_mb 2%; call_tail_ms is twice call_p50_ms in `_run`
    def run(tps, p50, rss):
        out = _run(tps, p50)
        out["metrics"]["peak_rss_mb"]["value"] = rss
        return out

    parent = [run(100.0, 2.0, 40.0)] * 3
    change = [run(115.0, 2.3, 40.9)] * 3
    metrics = bench_pairs.aggregate({"requests": {"parent": parent, "change": change}},
                                    [1, 2, 3], METRICS)["requests"]["metrics"]
    assert {name: m["beyond_bound"] for name, m in metrics.items()} == {
        "tensors_per_s": "better", "call_p50_ms": "worse", "call_tail_ms": None,
        "setup_s": None, "peak_rss_mb": "worse"}
    # a lower time beyond its bound is better, a higher rate within it is neither
    change = [run(110.0, 1.7, 40.0)] * 3
    metrics = bench_pairs.aggregate({"requests": {"parent": parent, "change": change}},
                                    [1, 2, 3], METRICS)["requests"]["metrics"]
    assert [metrics[name]["beyond_bound"] for name in ("tensors_per_s", "call_p50_ms")] == [
        None, "better"]


def _offline(monkeypatch, runs):
    # export copies this BENCHMARK.json, run_once is canned, and no
    # subprocess may start
    def export(ref, dest):
        dest.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", dest)
        return dest

    def run_once(checkout, workload, seed, seconds):
        runs.append((checkout.name, workload, seed))
        return dict(_run(100.0, 2.0), raw={"tensors_per_s": 150.0})

    def no_subprocess(*args, **kwargs):
        raise AssertionError("a subprocess was started")

    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "trace_once", lambda *args: bench_pairs.read_run(TRACED))
    monkeypatch.setattr(bench_pairs, "_rev", lambda ref: ref)
    monkeypatch.setattr(bench_pairs.subprocess, "run", no_subprocess)


@pytest.mark.parametrize("names", [
    ["--workloads", "mc-pxp2,mc-pxp3"],
    ["--claim", "mc-pxp2:tensor_per_s"],
    ["--claim", "requests:tensors_per_s", "--workloads", "mc-pxp2"],
    ["--claim", "mc-pxp2"],
])
def test_unknown_names_stop_before_the_first_run(monkeypatch, tmp_path, capsys, names):
    runs = []
    _offline(monkeypatch, runs)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main(["--parent", "HEAD~1", "--seeds", "1-2", "--out", str(out), *names])
    # the option named first is the one at fault
    assert stop.value.code == 2 and names[0] in capsys.readouterr().err
    assert runs == [] and not out.exists()


def test_known_names_run_and_are_written(monkeypatch, tmp_path):
    runs = []
    _offline(monkeypatch, runs)
    out = tmp_path / "bench.json"
    bench_pairs.main(["--parent", "HEAD~1", "--seeds", "1-2", "--out", str(out),
                      "--workloads", "mc-pxp2", "--claim", "mc-pxp2:call_p50_ms"])
    assert runs == [("parent", "mc-pxp2", 1), ("change", "mc-pxp2", 1),
                    ("change", "mc-pxp2", 2), ("parent", "mc-pxp2", 2)]
    bench = json.loads(out.read_text())
    assert bench["claimed"] == {"workload": "mc-pxp2", "metric": "call_p50_ms"}
    assert list(bench["workloads"]) == ["mc-pxp2"]
    assert bench["workloads"]["mc-pxp2"]["raw"]["change"] == [{"tensors_per_s": 150.0}] * 2


def test_each_pair_is_followed_by_a_traced_run_of_each_side(monkeypatch, tmp_path):
    traced = []
    _offline(monkeypatch, [])
    monkeypatch.setattr(bench_pairs, "trace_once", lambda checkout, workload, seed, seconds: (
        traced.append((checkout.name, workload, seed)) or bench_pairs.read_run(TRACED)))
    out = tmp_path / "bench.json"
    bench_pairs.main(["--parent", "HEAD~1", "--seeds", "3-4", "--out", str(out),
                      "--workloads", "mc-pxp2,requests"])
    assert traced == [(side, workload, seed) for workload in ("mc-pxp2", "requests")
                      for seed, order in ((3, ("parent", "change")), (4, ("change", "parent")))
                      for side in order]
    per_layer = json.loads(out.read_text())["workloads"]["requests"]["per_layer"]
    assert per_layer["change"]["rank1.stationary_points_222.self_ms"] == 351.2


def test_src_lines_are_the_wc_total_of_each_sides_python_sources(monkeypatch, tmp_path):
    # each canned export holds Python files at two depths of src/, and
    # files that do not count: a non-Python one and one outside src/
    _offline(monkeypatch, [])
    sources = {"parent": {"src/pkg/a.py": "x = 1\ny = 2\n", "src/pkg/sub/b.py": "z = 3\n"},
               "change": {"src/pkg/a.py": "x = 1\n", "src/pkg/sub/b.py": "z = 3\nw = 4"}}

    def export(ref, dest):
        dest.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", dest)
        for name, text in {**sources[dest.name], "src/pkg/notes.txt": "a\nb\n",
                           "tools/c.py": "c = 5\n"}.items():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            (dest / name).write_text(text)
        return dest

    monkeypatch.setattr(bench_pairs, "export", export)
    out = tmp_path / "bench.json"
    bench_pairs.main(["--parent", "HEAD~1", "--seeds", "1-2", "--out", str(out),
                      "--workloads", "mc-pxp2"])
    # wc -l counts newlines, so an unterminated last line adds none
    assert json.loads(out.read_text())["src_lines"] == {"parent": 3, "change": 2}


@pytest.mark.parametrize("differ", [False, True])
def test_both_sides_run_the_changes_benchmark(monkeypatch, tmp_path, differ):
    # the canned exports hold a perfbench/ tree; where it or BENCHMARK.json
    # differ, the parent's export runs with the change's copies
    _offline(monkeypatch, [])
    spec = (ROOT / "BENCHMARK.json").read_text()
    trees = {"parent": {"BENCHMARK.json": spec, "perfbench/run.py": "old = 1\n",
                        "perfbench/tests/gone.py": "gone = 1\n"},
             "change": {"BENCHMARK.json": spec.replace('"run_seconds": 20', '"run_seconds": 21'),
                        "perfbench/run.py": "new = 1\n", "perfbench/tests/added.py": "added = 1\n"}}
    if not differ:
        trees["change"] = dict(trees["parent"])

    def export(ref, dest):
        for name, text in trees[dest.name].items():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            (dest / name).write_text(text)
        return dest

    seen = {}

    def run_once(checkout, workload, seed, seconds):
        seen[checkout.name] = {str(p.relative_to(checkout)): p.read_text()
                               for p in sorted(checkout.rglob("*")) if p.is_file()}
        return _run(100.0, 2.0)

    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    bench_pairs.main(["--parent", "HEAD~1", "--seeds", "1-2", "--out", str(out),
                      "--workloads", "mc-pxp2"])
    assert seen["parent"] == seen["change"] == trees["change"]
    assert json.loads(out.read_text())["benchmark_copied_to_parent"] is differ
