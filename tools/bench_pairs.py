"""Paired benchmark runs of two commits, written as one BENCH_<n>.json file.

    python3 tools/bench_pairs.py --parent REF --seeds 421-430 \
        [--workloads mc-pxp2,requests] [--claim mc-pxp2:tensors_per_s] \
        --out BENCH_<n>.json

Run it from the root of a git checkout; the change is its HEAD.  Each
side is a fresh export of its commit (`git archive`), so only committed
files take part, and `perfbench/run.py` runs unchanged in it: once per
seed and workload, one pair per seed, the parent first on even pair
indices and the change first on odd ones.  Before each run the side's `__pycache__` directories and
`perfbench/results` are removed, so every run byte-compiles afresh.  The
workloads (all by default), the run length and the end-to-end metrics
with their units, directions and bounds come from the change's
BENCHMARK.json, and the names given to --workloads and --claim are
checked against it before the first run.  Each run's figures as
measured, before `perfbench/run.py` scales them to the reference host
speed, are kept beside it as "raw", so the file shows the host's drift,
and the number of calls it timed as "calls", which peak RSS grows with.
Each end-to-end metric says whether its change of median is beyond its
bound in BENCHMARK.json ("beyond_bound": "worse", "better" or null).
Each pair is followed by one traced run (`--trace 1`) of each side, in the
same order, and the medians of their per-layer figures over the seeds are
kept as "per_layer": a traced run times a fixed number of rounds, as short
as one round, so one run alone drifts with the host.  "src_lines" gives
the size of each side's library, the `wc -l` total of its src/**/*.py.
Both sides run one benchmark: where `perfbench/` or BENCHMARK.json differ
between the exports, the change's are copied over the parent's before the
first run, and "benchmark_copied_to_parent" records whether they were.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

SIDES = ("parent", "change")
# perfbench/run.py prints its unscaled figures after this
RAW_MARK = "as measured, before host-speed scaling:"


def run_order(pair: int) -> tuple:
    """The sides of pair ``pair`` in the order they run."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def quartiles(values) -> list:
    """[Q1, Q3] by statistics.quantiles(n=4, method='inclusive')."""
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(metric: dict, parent: list, change: list) -> dict:
    """The per-run values of one metric on both sides, their medians and
    quartiles, the change's median relative to the parent's, the number of
    pairs the change wins (strictly better in the metric's direction), and
    whether that relative change is beyond the metric's bound: "worse",
    "better", or None within it."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    out = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
           "parent": parent, "change": change}
    for side, values in (("parent", parent), ("change", change)):
        out[f"{side}_median"] = statistics.median(values)
        out[f"{side}_quartiles"] = quartiles(values)
    out["change_vs_parent"] = out["change_median"] / out["parent_median"] - 1.0
    out["pairs_won_by_change"] = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    gain = sign * out["change_vs_parent"]
    out["beyond_bound"] = ("worse" if gain < -metric["bound"] else
                           "better" if gain > metric["bound"] else None)
    return out


def aggregate(results: dict, seeds: list, metrics: list) -> dict:
    """The "workloads" section of a BENCH file.

    ``results[workload][side]`` lists the `read_run` of each seed in
    order, whose "raw" figures are kept when every run has them;
    ``results[workload]["traced"][side]``, if present, lists the traced
    runs, whose per-layer medians are kept as "per_layer";
    ``metrics`` is the "end_to_end" list of BENCHMARK.json.
    """
    out = {}
    for workload, sides in results.items():
        entry = {"seeds": list(seeds)}
        for key in ("correct", "failed", "attempted", "calls", "raw"):
            if all(key in run for side in SIDES for run in sides[side]):
                entry[key] = {side: [run[key] for run in sides[side]] for side in SIDES}
        entry["metrics"] = {
            m["name"]: summarize(m, *([run["metrics"][m["name"]]["value"] for run in sides[side]]
                                      for side in SIDES))
            for m in metrics}
        if "traced" in sides:
            entry["per_layer"] = {side: {name: statistics.median(run["metrics"][name]["value"]
                                                                 for run in sides["traced"][side])
                                         for name in sides["traced"][side][0]["metrics"]}
                                  for side in SIDES}
        out[workload] = entry
    return out


def export(ref: str, dest: Path) -> Path:
    """The committed files of ``ref``, extracted into the new directory dest."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", ref], check=True,
                             stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def src_lines(checkout: Path) -> int:
    """The `wc -l` total of the src/**/*.py files in checkout."""
    return sum(path.read_bytes().count(b"\n") for path in checkout.glob("src/**/*.py"))


def _benchmark_files(checkout: Path) -> dict:
    """{relative path: bytes} of BENCHMARK.json and the files under perfbench/."""
    paths = [checkout / "BENCHMARK.json", *(checkout / "perfbench").rglob("*")]
    return {str(path.relative_to(checkout)): path.read_bytes() for path in paths if path.is_file()}


def share_benchmark(parent: Path, change: Path) -> bool:
    """Copy the change's perfbench/ and BENCHMARK.json over the parent's
    export where they differ, so both sides run one benchmark; whether they
    differed."""
    if _benchmark_files(parent) == _benchmark_files(change):
        return False
    shutil.rmtree(parent / "perfbench", ignore_errors=True)
    shutil.copytree(change / "perfbench", parent / "perfbench")
    shutil.copy(change / "BENCHMARK.json", parent / "BENCHMARK.json")
    return True


def clean(checkout: Path) -> None:
    """Remove what an earlier run left: byte-code and perfbench results."""
    for cache in list(checkout.rglob("__pycache__")):
        shutil.rmtree(cache)
    shutil.rmtree(checkout / "perfbench" / "results", ignore_errors=True)


def read_run(stdout: str) -> dict:
    """The final JSON line of a `perfbench/run.py` run, with its figures as
    measured, before host-speed scaling, as "raw" ({metric: value}), and the
    number of calls it timed as "calls": each call leaves a record, so peak
    RSS grows with it."""
    lines = stdout.strip().splitlines()
    run = json.loads(lines[-1])
    for line in lines:
        if RAW_MARK in line:
            run["calls"] = int(line.split()[1])
            pairs = (item.split() for item in line.split(RAW_MARK, 1)[1].split(","))
            run["raw"] = {name: float(value) for name, value in pairs}
    return run


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One `perfbench/run.py` run in checkout, traced if ``trace``; `read_run`
    of its output."""
    clean(checkout)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=checkout, check=True, stdout=subprocess.PIPE, text=True)
    return read_run(done.stdout)


def trace_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """`run_once` with --trace 1: the per-layer figures of a fixed number of
    rounds."""
    return run_once(checkout, workload, seed, seconds, trace=1)


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def _rev(ref: str) -> str:
    return subprocess.run(["git", "rev-parse", "--short", ref], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--seeds", required=True, type=_seeds, help="a range A-B or a list")
    parser.add_argument("--workloads", default=None, help="a subset, comma-separated")
    parser.add_argument("--claim", default=None, help="WORKLOAD:METRIC of a claimed gain")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")

    results = {}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: export(ref, Path(tmp) / side)
                 for side, ref in zip(SIDES, (args.parent, "HEAD"))}
        copied = share_benchmark(trees["parent"], trees["change"])
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        known = [w["name"] for w in spec["workloads"]]
        workloads = args.workloads.split(",") if args.workloads else known
        unknown = sorted(set(workloads) - set(known))
        if unknown:
            parser.error(f"--workloads: {', '.join(unknown)} not in BENCHMARK.json "
                         f"(known: {', '.join(known)})")
        claimed = None
        if args.claim:
            workload, _, metric = args.claim.partition(":")
            metrics = [m["name"] for m in spec["end_to_end"]]
            if workload not in workloads or metric not in metrics:
                parser.error(f"--claim must be WORKLOAD:METRIC with WORKLOAD one of "
                             f"{', '.join(workloads)} and METRIC one of {', '.join(metrics)}")
            claimed = {"workload": workload, "metric": metric}
        seconds = spec["run_seconds"]
        bench = {
            "parent": _rev(args.parent),
            "change": _rev("HEAD"),
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds}",
            "host": (f"{os.cpu_count()}-core {platform.system()} host, Python "
                     f"{platform.python_version()}, numpy {numpy.__version__}, one BLAS "
                     "thread; __pycache__ and perfbench/results removed before each run"),
            "pairing": "one pair per seed; the parent runs first on even pair indices, "
                       "the change first on odd ones",
            "quartiles": "statistics.quantiles(n=4, method='inclusive'), [Q1, Q3]",
            "per_layer": "medians of one --trace 1 run per side and seed, after the pair",
            "src_lines": {side: src_lines(trees[side]) for side in SIDES},
            "benchmark_copied_to_parent": copied,
        }
        if claimed:
            bench["claimed"] = claimed
        for workload in workloads:
            results[workload] = {side: [] for side in SIDES}
            traced = results[workload]["traced"] = {side: [] for side in SIDES}
            for pair, seed in enumerate(args.seeds):
                for side in run_order(pair):
                    run = run_once(trees[side], workload, seed, seconds)
                    results[workload][side].append(run)
                    value = run["metrics"]["tensors_per_s"]["value"]
                    print(f"{workload} seed {seed} {side}: tensors_per_s {value:.6g}", flush=True)
                for side in run_order(pair):
                    traced[side].append(trace_once(trees[side], workload, seed, seconds))
            # written after each workload, so a cut run keeps what it finished
            bench["workloads"] = aggregate(results, args.seeds, spec["end_to_end"])
            args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
