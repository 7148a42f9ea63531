"""tensorbit benchmark: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; it imports tensorbit from ./src.
With --trace 0 it times whole rounds of the workload's public calls for at
least S seconds and prints the end-to-end metrics; with --trace 1 it runs a
fixed number of rounds untraced and then traced, and prints the per-layer
metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import os

# one BLAS thread, before numpy loads; inherited by the set-up interpreters
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402

from hostspeed import HostClock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_RUNS = 7      # fresh interpreters per run; setup_s is their median


def _import_tensorbit():
    """Import tensorbit from this checkout's src, and nowhere else."""
    if not (SRC / "tensorbit" / "__init__.py").is_file():
        sys.exit(f"error: no tensorbit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tensorbit
    if Path(tensorbit.__file__).resolve().parent != SRC / "tensorbit":
        sys.exit(f"error: imported tensorbit from {tensorbit.__file__}, not {SRC}")


def _setup_seconds(code: str) -> tuple:
    """Median time for a fresh interpreter to import tensorbit and make the
    workload's first call: (at the reference host speed, as measured)."""
    script = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{code}"
    clock = HostClock()
    raw = []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-E", "-s", "-c", script], check=True,
                       stdout=subprocess.DEVNULL, cwd=ROOT)
        raw.append(perf_counter() - t0)
        clock.tick(force=True)
    scaled = [t * clock.factor(i) for i, t in enumerate(raw)]
    return statistics.median(scaled), statistics.median(raw)


class Tally:
    """Call times and operation outcomes of one pass over whole rounds."""

    def __init__(self):
        self.times_ns = []
        self.segments = []
        self.attempted = 0
        self.reasons = Counter()
        self.clock = HostClock()

    def run_call(self, call, tracer=None):
        if tracer is not None:
            tracer.op = len(self.times_ns)
        t0 = perf_counter_ns()
        out = call.run()
        t1 = perf_counter_ns()
        self.times_ns.append(t1 - t0)
        self.segments.append(self.clock.segment)
        self.attempted += call.ops
        self.reasons.update(call.check(out))
        self.clock.tick()

    def run_round(self, calls):
        for call in calls:
            self.run_call(call)

    def scaled_ms(self) -> list:
        """Call times in ms at the reference host speed."""
        self.clock.finish()
        return [t / 1e6 * self.clock.factor(s) for t, s in zip(self.times_ns, self.segments)]

    @property
    def failed(self) -> int:
        return sum(self.reasons.values())


def _tail(times, pct):
    """Nearest-rank percentile."""
    ordered = sorted(times)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def _warm_up(work):
    Tally().run_round(work.calls)
    gc.collect()


def measure(work, seconds: float) -> tuple:
    setup, setup_raw = _setup_seconds(work.first_call)
    _warm_up(work)
    tally = Tally()
    start = perf_counter()
    while len(tally.times_ns) < work.min_calls or perf_counter() - start < seconds:
        tally.run_round(work.calls)
    wall = perf_counter() - start
    ms = tally.scaled_ms()
    raw = [t / 1e6 for t in tally.times_ns]
    metrics = {
        "tensors_per_s": (tally.attempted * 1e3 / sum(ms), "1/s"),
        "call_p50_ms": (statistics.median(ms), "ms"),
        "call_tail_ms": (_tail(ms, work.tail_pct), "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"# {len(ms)} calls in {wall:.2f} s, tail = p{work.tail_pct}; as measured, "
          f"before host-speed scaling: tensors_per_s {tally.attempted * 1e3 / sum(raw):.6g}, "
          f"call_p50_ms {statistics.median(raw):.6g}, "
          f"call_tail_ms {_tail(raw, work.tail_pct):.6g}, setup_s {setup_raw:.6g}")
    return tally, metrics


def trace(work, name: str, seed: int) -> tuple:
    """Each call twice, back to back, untraced and traced (alternating which
    goes first), for a fixed number of rounds, so that the counts repeat
    and host-speed drift cancels from the overhead."""
    from tracing import Tracer
    _warm_up(work)
    tracer = Tracer()
    plain, tally = Tally(), Tally()
    for _ in range(work.trace_rounds):
        for i, call in enumerate(work.calls):
            if i % 2:
                plain.run_call(call)
            with tracer:
                tally.run_call(call, tracer)
            if not i % 2:
                plain.run_call(call)
    metrics = {}
    for key, value in tracer.per_layer().items():
        metrics[key] = (value, "ms" if key.endswith("_ms") else "count")
    traced_ms = sum(tally.times_ns) / 1e6
    metrics["trace.traced_call_ms"] = (traced_ms, "ms")
    metrics["trace.unattributed_ms"] = (traced_ms - tracer.root_ns() / 1e6, "ms")
    metrics["trace.overhead_pct"] = (100.0 * (sum(tally.times_ns) / sum(plain.times_ns) - 1.0), "%")
    RESULTS.mkdir(exist_ok=True)
    tracer.dump(RESULTS / f"spans-{name}-seed{seed}.json")
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    _import_tensorbit()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    work = WORKLOADS[args.workload](args.seed)

    if args.trace:
        tally, metrics = trace(work, args.workload, args.seed)
    else:
        tally, metrics = measure(work, args.seconds)

    print(f"# {work.left_out} tensors left out by the residual screen")
    for reason, count in sorted(tally.reasons.items()):
        print(f"# failed: {count} x {reason}")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    result = {
        "correct": set(tally.reasons) <= set(work.known_faults),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
