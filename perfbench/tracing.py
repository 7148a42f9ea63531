"""Span tracing around tensorbit's public functions, from outside the package.

Inside ``with tracer:`` each traced function is rebound in every tensorbit
module that holds a reference to it (``orbits.classify``,
``deflation.classify``, ``cli.classify`` ...), so calls made inside the
package are traced too; leaving the block puts the originals back.  Spans
stay in memory until the run ends.  Counters read from returned results sit
beside the spans.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from time import perf_counter_ns

TRACED = (
    "cli.main", "cli.build_parser",
    "document.parse_document",
    "deflation.experiment_generic", "deflation.experiment_pxpx2", "deflation.deflate_once",
    "rank1.best_rank1_222", "rank1.stationary_points_222", "rank1.hopm",
    "rank1.best_rank1_sym", "rank1.stationary_points_sym",
    "decomp.sylvester_rank", "decomp.sym_rank2_decompose", "decomp.sym_rank3_decompose",
    "orbits.classify", "orbits.classify_sym", "orbits.hyperdet", "orbits.pencil_eigs",
    "smallalg.roots", "smallalg.common_root", "smallalg.eig2", "smallalg.spectrum_small",
    "tensors.multilinear_rank",
)

# counters read from results, and the calls whose raised exceptions are counted
RESULT_COUNTERS = (
    "rank1.hopm.iterations",
    "rank1.best_rank1_222.fallbacks",
    "rank1.stationary_points_222.real_points",
    "rank1.stationary_points_222.complex_points",
    "rank1.stationary_points_222.degenerate_points",
    "rank1.stationary_points_222.raised",
    "smallalg.roots.raised",
)


def _observe_hopm(counts, result):
    counts["rank1.hopm.iterations"] += result.iterations


def _observe_best_222(counts, result):
    counts["rank1.best_rank1_222.fallbacks"] += result.method == "hopm"


def _observe_points_222(counts, result):
    degenerate = sum(1 for p in result.points if p.degenerate)
    counts["rank1.stationary_points_222.real_points"] += len(result.points) - degenerate
    counts["rank1.stationary_points_222.degenerate_points"] += degenerate
    counts["rank1.stationary_points_222.complex_points"] += result.n_complex


OBSERVERS = {
    "rank1.hopm": _observe_hopm,
    "rank1.best_rank1_222": _observe_best_222,
    "rank1.stationary_points_222": _observe_points_222,
}


class Tracer:
    """Records one span per traced call: (name, start_ns, end_ns, parent, op)."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = -1
        self._stack = []
        self._rebind = None

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".raised"] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if observe is not None:
                observe(counts, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _plan(self):
        """(module, name, original, wrapper) for every reference to a traced
        function held by a loaded tensorbit module."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "tensorbit" or key.startswith("tensorbit."))]
        plan = []
        for qualified in TRACED:
            module, attr = qualified.split(".")
            original = getattr(importlib.import_module("tensorbit." + module), attr)
            wrapper = self._wrap(qualified, original)
            for mod in modules:
                plan += [(mod, key, original, wrapper)
                         for key, value in vars(mod).items() if value is original]
        return plan

    def __enter__(self):
        if self._rebind is None:
            self._rebind = self._plan()
        for mod, key, _, wrapper in self._rebind:
            setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, key, original, _ in self._rebind:
            setattr(mod, key, original)

    def per_layer(self) -> dict:
        """calls and self time (span minus its direct children) per traced name,
        plus the result counters."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = Counter()
        self_ns = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
        out = {}
        for name in TRACED:
            out[name + ".calls"] = calls[name]
            out[name + ".self_ms"] = self_ns[name] / 1e6
        for name in RESULT_COUNTERS:
            out[name] = self.counts[name]
        return out

    def root_ns(self) -> int:
        """Total time of spans without a traced parent."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": self.spans}, fh)
