"""Rank-1 deflation with orbit transition reports and seeded experiments.

The central empirical fact exercised here: subtracting a best rank-1
approximation from a generic 2x2x2 tensor (symmetric or not) lands the
residual on the rank-2/rank-3 boundary orbit D3, i.e. the residual slab
pencil acquires a defective double eigenvalue and the hyperdeterminant of
the residual vanishes.

Each experiment is a sampler and a per-trial solver run by one trial
loop.  Trial t draws its input from its own counter-based RNG stream
(Philox keyed on the run seed and t), so results are bit-identical for a
fixed (seed, trials).  A trial that raises becomes an error
row with a failure reason and does not stop the run.  Per-trial rows can
be dumped as CSV; summaries are plain dicts ready for JSON.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field

import numpy as np

from . import rank1
from .decomp import DomainError
from .orbits import (OrbitLabel, SymTensor222, _entry_scale, canonical_form, classify,
                     classify_sym, hyperdet, hyperdet_sym, slab_pencil)
from .smallalg import spectrum_small
from .tensors import MultilinearRank, Tensor222, TensorPxPx2, frobenius_norm_sq, \
    multilinear_rank, multilinear_transform

__all__ = [
    "DeflationReport",
    "ExperimentStats",
    "deflate_once",
    "experiment_generic",
    "experiment_symmetric",
    "experiment_d3_closure",
    "experiment_pxpx2",
    "check_degenerate_props",
    "write_trial_csv",
]

GAP_BUCKETS = (1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0)
# band for pairing pxpx2 pencil eigenvalues, wider than the library's 1e-6:
# an error e in the HOPM term splits a defective double eigenvalue by ~sqrt(e)
PAIRING_BAND = 1e-4


@dataclass(frozen=True)
class DeflationReport:
    """Orbit transition data for one deflation step."""

    orbit_before: OrbitLabel
    orbit_after: OrbitLabel
    delta_before: float
    delta_after: float
    pencil_before: object
    pencil_after: object
    residual_mlrank: MultilinearRank
    psi: float
    ties: int
    warnings: tuple = field(default_factory=tuple)


@dataclass(frozen=True)
class ExperimentStats:
    """Aggregate of a seeded deflation experiment."""

    kind: str
    trials: int
    seed: int
    counts: tuple            # ((orbit, count), ...) in fixed orbit order
    fraction_d3: float
    max_abs_delta_after: float
    eigen_gap_histogram: tuple   # ((bucket_label, count), ...)
    failures: int
    failure_reasons: tuple
    extras: tuple = field(default_factory=tuple)   # ((key, value), ...)
    rows: tuple = field(default_factory=tuple)

    def summary_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "trials": self.trials,
            "seed": self.seed,
            "counts": {k: v for k, v in self.counts},
            "fraction_d3": self.fraction_d3,
            "max_abs_delta_after": self.max_abs_delta_after,
            "eigen_gap_histogram": {k: v for k, v in self.eigen_gap_histogram},
            "failures": self.failures,
            "failure_reasons": list(self.failure_reasons),
        }
        for k, v in self.extras:
            out[k] = v
        return out


def _pencil_gap(pencil):
    if pencil is None:
        return None
    lam = max(abs(v) for v in np.atleast_1d(np.asarray(pencil.values, float)).ravel())
    return float(pencil.gap / (1.0 + lam))


def _report(X, residual, psi: float, ties: int, warnings, tol: float,
            coincidence_tol: float) -> DeflationReport:
    """Orbits, hyperdeterminants and slab pencils of the input X and the
    residual of one deflation step, plus the residual's multilinear rank.

    The residual is classified with the Delta band max(tol, 1e-6): it
    reaches the boundary only up to root-solver accuracy.
    """
    if isinstance(X, SymTensor222):
        label = functools.partial(classify_sym, coincidence_tol=coincidence_tol)
        delta, full = hyperdet_sym, residual.tensor()
    else:
        label, delta, full = classify, hyperdet, residual
    return DeflationReport(
        orbit_before=label(X, tol),
        orbit_after=label(residual, max(tol, 1e-6), zero_scale=_entry_scale(X)),
        delta_before=float(delta(X)), delta_after=float(delta(residual)),
        pencil_before=slab_pencil(X, coincidence_tol),
        pencil_after=slab_pencil(residual, coincidence_tol),
        residual_mlrank=multilinear_rank(full, max(tol, 1e-9)),
        psi=float(psi), ties=ties, warnings=tuple(warnings))


def deflate_once(X, tol: float = 1e-9, coincidence_tol: float = 1e-6):
    """Subtract a best rank-1 approximation and report the orbit transition.

    Symmetric input follows the symmetric route (term y (x) y (x) y and
    symmetric classification); the residual keeps the input's type.
    Returns (residual, DeflationReport).
    """
    if isinstance(X, TensorPxPx2):
        raise ValueError("deflate_once handles 2x2x2 tensors; use hopm plus "
                         "spectrum_small (or experiment_pxpx2) for pxpx2 input")
    if isinstance(X, SymTensor222):
        result = rank1.best_rank1_sym(X)
        residual = X.rank1_update(result.term.y, -1.0)
    else:
        X = X if isinstance(X, Tensor222) else Tensor222(X)
        result = rank1.best_rank1_222(X, cross_check=False)
        residual = Tensor222(X.array - result.term.tensor())
    return residual, _report(X, residual, result.psi, result.multiplicity, result.warnings,
                             tol, coincidence_tol)


# ---------------------------------------------------------------------------
# experiments: one trial loop, one sampler and one solver per kind
# ---------------------------------------------------------------------------

def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    key = np.array([np.uint64(seed), np.uint64(trial)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _bucket_label(i: int) -> str:
    lo = "0" if i == 0 else f"{GAP_BUCKETS[i - 1]:.0e}"
    hi = f"{GAP_BUCKETS[i]:.0e}" if i < len(GAP_BUCKETS) else "inf"
    return f"{lo}..{hi}"


def _histogram(gaps) -> tuple:
    counts = [0] * (len(GAP_BUCKETS) + 1)
    for g in gaps:
        if g is None or not np.isfinite(g):
            continue
        counts[int(np.searchsorted(GAP_BUCKETS, g))] += 1
    return tuple((_bucket_label(i), c) for i, c in enumerate(counts) if c)


_ORBIT_ORDER = ("D0", "D1", "D2", "D2p", "D2pp", "G2", "D3", "G3", "error")


def _aggregate(kind, trials, seed, rows, reasons, extras=()):
    counts = {k: 0 for k in _ORBIT_ORDER}
    gaps = []
    max_delta = 0.0
    for row in rows:
        counts[row["orbit_after"]] = counts.get(row["orbit_after"], 0) + 1
        gap = row.get("eigen_gap")
        if gap is not None and np.isfinite(gap):
            gaps.append(gap)
        scaled = row.get("delta_after_scaled")
        if scaled is not None and np.isfinite(scaled):
            max_delta = max(max_delta, abs(scaled))
    return ExperimentStats(
        kind=kind, trials=trials, seed=seed,
        counts=tuple((k, v) for k, v in counts.items() if v),
        fraction_d3=counts["D3"] / max(1, trials - counts["error"]),
        max_abs_delta_after=max_delta,
        eigen_gap_histogram=_histogram(gaps),
        failures=counts["error"], failure_reasons=tuple(reasons),
        extras=tuple(extras), rows=tuple(rows))


def _error_row(trial: int) -> dict:
    return {"trial": trial, "orbit_before": "error", "orbit_after": "error",
            "delta_before": None, "delta_after": None, "delta_after_scaled": None,
            "psi": None, "eigen_gap": None, "mlrank": ""}


def _run(trials: int, seed: int, sample, solve):
    """Run every trial of an experiment; returns (rows, failure reasons).

    Trial t draws its input with ``sample`` from its own Philox stream
    keyed on (seed, t), and ``solve(X, t)`` turns it into the row.
    An exception fails that trial only: it gets an error row and a reason.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rows, reasons = [], []
    for trial in range(trials):
        try:
            rows.append({"trial": trial, **solve(sample(_trial_rng(seed, trial)), trial)})
        except Exception as exc:
            reasons.append(f"trial {trial}: {exc}")
            rows.append(_error_row(trial))
    return rows, reasons


def _report_row(X, report: DeflationReport) -> dict:
    """The experiment row of one deflation report of input X."""
    return {
        "orbit_before": report.orbit_before.orbit,
        "orbit_after": report.orbit_after.orbit,
        "delta_before": report.delta_before,
        "delta_after": report.delta_after,
        "delta_after_scaled": abs(report.delta_after) / _entry_scale(X) ** 4,
        "psi": report.psi,
        "eigen_gap": _pencil_gap(report.pencil_after),
        "mlrank": "x".join(str(r) for r in report.residual_mlrank.as_tuple()),
    }


def _deflation_row(X, trial: int) -> dict:
    return _report_row(X, deflate_once(X)[1])


def _mlrank_extras(rows) -> tuple:
    ok = [r for r in rows if r["orbit_after"] != "error"]
    return (("fraction_mlrank_222", sum(r["mlrank"] == "2x2x2" for r in ok) / max(1, len(ok))),)


def _solve_generic(X: Tensor222, trial: int) -> dict:
    # the chart-(0,0) optimum: best_rank1_222 would solve four charts, at
    # about four times the cost, for the measure-zero y1 = 0 or z1 = 0 case
    usable = [p for p in rank1.stationary_points_222(X, hessian=False) if not p.degenerate]
    if not usable:
        raise RuntimeError("no usable stationary point")
    best = min(usable, key=lambda p: p.psi)
    residual = Tensor222(X.array - best.term().tensor())
    return _report_row(X, _report(X, residual, best.psi, 1, (), tol=1e-9, coincidence_tol=1e-6))


def experiment_generic(trials: int, seed: int = 0) -> ExperimentStats:
    """Deflate i.i.d. standard-normal 2x2x2 tensors and classify residuals."""
    rows, reasons = _run(trials, seed, lambda rng: Tensor222.from_flat(rng.standard_normal(8)),
                         _solve_generic)
    return _aggregate("generic", trials, seed, rows, reasons, _mlrank_extras(rows))


def experiment_symmetric(trials: int, seed: int = 0) -> ExperimentStats:
    """Symmetric analogue: (a, b, c, d) i.i.d. normal, symmetric deflation."""
    rows, reasons = _run(trials, seed, lambda rng: SymTensor222(*rng.standard_normal(4)),
                         _deflation_row)
    return _aggregate("symmetric", trials, seed, rows, reasons, _mlrank_extras(rows))


def _random_invertible(rng: np.random.Generator, cond_cap: float = 1e3) -> np.ndarray:
    while True:
        M = rng.standard_normal((2, 2))
        if np.linalg.cond(M) <= cond_cap:
            return M


def _sample_d3(rng: np.random.Generator) -> Tensor222:
    S, T, U = (_random_invertible(rng) for _ in range(3))
    return multilinear_transform(canonical_form("D3"), S, T, U)


def experiment_d3_closure(trials: int, seed: int = 0) -> ExperimentStats:
    """Deflate random orbit-D3 tensors (random transforms of the canonical
    form) and tally the residual orbits; supports, not asserts, closure."""
    # the input is D3 by construction, whatever its classification reads
    rows, reasons = _run(trials, seed, _sample_d3,
                         lambda X, t: {**_deflation_row(X, t), "orbit_before": "D3"})
    return _aggregate("d3", trials, seed, rows, reasons)


def experiment_pxpx2(p: int, trials: int, seed: int = 0) -> ExperimentStats:
    """pxpx2 deflation via alternating least squares; spectra comparison.

    For each trial the slab-pencil spectrum of the residual is compared
    with the input's: conjecture-consistent means exactly one coincident
    pair appears and the complex-pair count drops from n to max(0, n - 1).
    """
    if not 2 <= p <= 8:
        raise ValueError("p must be between 2 and 8")

    def solve(X, trial):
        result = rank1.hopm(X, max_iter=1500, tol=1e-14, restarts=6,
                            seed=seed * 1000003 + trial)
        Z = X.array - result.term.tensor()
        spec_x = spectrum_small(np.linalg.solve(X.slab1.T, X.slab2.T).T, PAIRING_BAND)
        spec_z = spectrum_small(np.linalg.solve(Z[:, :, 0].T, Z[:, :, 1].T).T, PAIRING_BAND)
        n = spec_x.n_complex_pairs
        consistent = (spec_z.n_coincident_real_pairs == 1
                      and spec_z.n_complex_pairs == max(0, n - 1))
        return {
            "orbit_before": f"ncomplex={n}",
            "orbit_after": "D3" if consistent else "other",
            "delta_before": None,
            "delta_after": None,
            "delta_after_scaled": None,
            "psi": result.psi,
            "eigen_gap": None,
            "mlrank": "",
            "converged": result.converged,
            "coincident_pairs": spec_z.n_coincident_real_pairs,
            "complex_before": n,
            "complex_after": spec_z.n_complex_pairs,
        }

    rows, reasons = _run(trials, seed, lambda rng: TensorPxPx2(rng.standard_normal((p, p, 2))),
                         solve)
    reasons += [f"trial {r['trial']}: alternating least squares did not converge"
                for r in rows if "converged" in r and not r["converged"]]
    done = [r for r in rows if r.get("converged")]
    n_conv = max(1, len(done))
    extras = (
        ("p", p),
        ("converged", len(done)),
        ("coincident_pair_fraction", sum(r["coincident_pairs"] == 1 for r in done) / n_conv),
        ("complex_decrement_fraction",
         sum(r["complex_after"] == max(0, r["complex_before"] - 1) for r in done) / n_conv),
        ("consistent_fraction", sum(r["orbit_after"] == "D3" for r in done) / n_conv),
    )
    return _aggregate("pxp2", trials, seed, rows, reasons, extras)


def write_trial_csv(stats: ExperimentStats, path) -> None:
    """Dump per-trial rows: trial, seed, orbits, deltas, psi, gap, mlrank."""
    fields = ["trial", "seed", "orbit_before", "orbit_after", "delta_before",
              "delta_after", "psi", "eigen_gap", "mlrank"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in stats.rows:
            writer.writerow([row.get("trial"), stats.seed, row.get("orbit_before"),
                             row.get("orbit_after"), repr(row.get("delta_before")),
                             repr(row.get("delta_after")), repr(row.get("psi")),
                             repr(row.get("eigen_gap")), row.get("mlrank")])


# ---------------------------------------------------------------------------
# deterministic checks for the degenerate-orbit propositions
# ---------------------------------------------------------------------------

def _diagonal_slab_entries(t: Tensor222, tol: float):
    a_, b_, c_, d_, e_, f_, g_, h_ = t.entries
    scale = max(abs(v) for v in t.entries)
    if scale == 0.0:
        return None
    if max(abs(b_), abs(c_), abs(f_), abs(g_)) > tol * scale:
        return None
    return a_, d_, e_, h_


def check_degenerate_props(X, tol: float = 1e-9) -> DeflationReport:
    """Verify the deterministic deflation statements for degenerate inputs.

    D1 deflates to D0; the D2 family deflates to D1; diagonal-slab rank-2
    tensors deflate to D1, with the tie multiplicity reported when both
    diagonal pairs carry equal weight (and the extra closed-form family
    counted when ah = de).
    """
    t = X if isinstance(X, Tensor222) else Tensor222(X)
    label = classify(t, tol)
    diag = _diagonal_slab_entries(t, tol)
    if label.orbit == "D1" or (diag is None and label.orbit in ("D2", "D2p", "D2pp")):
        residual, report = deflate_once(t, tol)
        expected = "D0" if label.orbit == "D1" else "D1"
        if report.orbit_after.orbit != expected:
            raise RuntimeError(
                f"{label.orbit} input deflated to {report.orbit_after.orbit}, "
                f"expected {expected}")
        return report
    if diag is None:
        raise DomainError(
            f"check_degenerate_props applies to D1, the D2 family, or "
            f"diagonal-slab rank-2 input; got orbit {label.orbit}")
    a_, d_, e_, h_ = diag
    lead = a_ * a_ + e_ * e_
    tail = d_ * d_ + h_ * h_
    scale_sq = max(lead, tail)
    candidates = [
        Tensor222.from_entries(0, 0, 0, d_, 0, 0, 0, h_),   # keep the (d, h) pair
        Tensor222.from_entries(a_, 0, 0, 0, e_, 0, 0, 0),   # keep the (a, e) pair
    ]
    psis = [frobenius_norm_sq(Tensor222(t.array - c.array)) for c in candidates]
    family = abs(lead - tail) <= tol * max(1.0, scale_sq) and \
        abs(a_ * h_ - d_ * e_) <= tol * max(1.0, np.sqrt(scale_sq)) ** 2
    if family:
        y1, y2 = 1.0, 1.0
        nf = y1 * y1 + y2 * y2
        fam = Tensor222.from_entries(y1 * y1 * a_, y1 * y2 * a_, y1 * y2 * d_, y2 * y2 * d_,
                                     y1 * y1 * e_, y1 * y2 * e_, y1 * y2 * h_, y2 * y2 * h_)
        fam = Tensor222(fam.array / nf)
        candidates.append(fam)
        psis.append(frobenius_norm_sq(Tensor222(t.array - fam.array)))
    best_idx = int(np.argmin(psis))
    best_psi = psis[best_idx]
    ties = sum(1 for p in psis if p <= best_psi + 1e-9 * (1.0 + best_psi))
    residual = Tensor222(t.array - candidates[best_idx].array)
    scale = float(np.max(np.abs(t.array)))
    after = classify(residual, max(tol, 1e-9), zero_scale=scale)
    if after.orbit != "D1":
        raise RuntimeError(f"diagonal-slab input deflated to {after.orbit}, expected D1")
    return DeflationReport(
        orbit_before=label, orbit_after=after,
        delta_before=hyperdet(t), delta_after=hyperdet(residual),
        pencil_before=slab_pencil(t),
        pencil_after=slab_pencil(residual),
        residual_mlrank=multilinear_rank(residual.array, tol),
        psi=float(best_psi), ties=int(ties))
