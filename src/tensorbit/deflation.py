"""Rank-1 deflation with orbit transition reports and seeded experiments.

The central empirical fact exercised here: subtracting a best rank-1
approximation from a generic 2x2x2 tensor (symmetric or not) lands the
residual on the rank-2/rank-3 boundary orbit D3, i.e. the residual slab
pencil acquires a defective double eigenvalue and the hyperdeterminant of
the residual vanishes.

A `DeflationReport` holds two `classify` labels, the input's and the
residual's, which carry the Delta values and the residual's multilinear
rank, and the `slab_pencil` of each.  It and the experiment rows are
the one-step and N-step calls of `_steps`.

Each experiment is a sampler and a solver run by one harness.  Trial t
draws its input from its own counter-based RNG stream (Philox keyed on the
run seed and t), so results are bit-identical for a fixed (seed, trials).
The solver then takes every trial's input at once.  The D3-closure,
symmetric and pxpx2 kinds solve the whole stack in one theta-grid kernel
call (`_theta_step`): each row holds ``converged`` and ``theta_steps``,
unconverged trials are named in the failure reasons, and the summary
counts both.  The generic kind solves trial by trial, one enumeration
each.  The 2x2x2 kinds report all their steps as one stack, and the pxpx2
kind counts its input and residual spectra with one eigenvalue call each.
A trial that raises or has a singular or non-finite slab quotient becomes
an error row with a failure reason.  Rows can be dumped as CSV; summaries
are plain dicts ready for JSON.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import rank1
from .decomp import DomainError
from .orbits import (OrbitLabel, _labels, _ldexp, _quotient, _slab_pencils, canonical_form,
                     classify)
from .smallalg import DEFAULT_COINCIDENCE_TOL, EigenPair2, spectra_small
from .tensors import (_SYM_INDEX, MultilinearRank, SymTensor222, Tensor222, TensorPxPx2, _as_array,
                      _entries, _prescale, _slab_major, frobenius_norm_sq, multilinear_transform,
                      unit_scaled)

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
# the Delta band of a residual, which reaches the boundary only up to
# root-solver accuracy
RESIDUAL_BAND = 1e-6
# band for pairing pxpx2 pencil eigenvalues, wider than the library's 1e-6:
# an error e in the rank-1 term splits a defective double eigenvalue by ~sqrt(e)
PAIRING_BAND = 1e-4
# largest condition number of a transform of the canonical D3 form in the d3 kind
D3_COND_CAP = 1e3
# the relative band of every decision of check_degenerate_props, its labels included
PROPS_TOL = 1e-9


@dataclass(frozen=True)
class DeflationReport:
    """Orbit transition data for one deflation step."""

    orbit_before: OrbitLabel
    orbit_after: OrbitLabel
    delta_before: float
    delta_after: float
    pencil_before: EigenPair2 | None
    pencil_after: EigenPair2 | None
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


def _steps(X, R, tol: float, coincidence_tol: float, inputs: bool = True) -> tuple:
    """(labels, pencils, scales) of N deflation steps, the inputs X
    (N, 2, 2, 2) deflated to the residuals R: the `orbits._labels` of the
    2N tensors [X; R], X[n] at ``tol`` and R[n] at the residual band
    relative to max|X[n]|; the `orbits._slab_pencils` of [X; R], or of R
    alone without ``inputs``; and the scales max|X[n]|."""
    n = len(X)
    A = np.concatenate([X, R])
    scales = np.abs(X).max(axis=(1, 2, 3)).tolist()
    labels = _labels(A, [tol] * n + [max(tol, RESIDUAL_BAND)] * n, [None] * n + scales)
    return labels, _slab_pencils(A if inputs else R, coincidence_tol), scales


def _step_report(X, R, psi: float, ties: int, warnings, tol: float,
                 coincidence_tol: float) -> DeflationReport:
    """The report of the 2x2x2 tensor X deflated to the residual R with
    criterion psi: the one-step case of `_steps`."""
    labels, pencils, _ = _steps(_as_array(X)[None], _as_array(R)[None], tol, coincidence_tol)
    before, after = (OrbitLabel(o, m, d, MultilinearRank(*r)) for o, m, d, r in labels)
    return DeflationReport(before, after, before.delta, after.delta,
                           *(None if p is None else EigenPair2(*p) for p in pencils),
                           after.mlrank, float(psi), ties, tuple(warnings))


def _report_rows(X, R, psi) -> list:
    """The experiment rows of N deflation steps, the input X[n] (N, 2, 2, 2)
    deflated to the residual R[n] with criterion psi[n]: the `_steps` of
    the default Delta band, without the inputs' pencils.  A row's
    ``eigen_gap`` is its residual pencil's gap over 1 + its largest
    |value|, None without a pencil."""
    n = len(X)
    if not n:
        return []
    unit, exponents = _prescale(X, 1)
    labels, pencils, scales = _steps(unit, np.ldexp(R, -exponents[:, None, None, None]), 1e-9,
                                     DEFAULT_COINCIDENCE_TOL, inputs=False)
    return [{
        "orbit_before": b[0],
        "orbit_after": a[0],
        "delta_before": _ldexp(b[2], 4 * e),
        "delta_after": _ldexp(a[2], 4 * e),
        "delta_after_scaled": abs(a[2]) / s ** 4,
        "psi": p,
        "eigen_gap": None if g is None else g[3] / (1.0 + max(map(abs, g[1]))),
        "mlrank": "x".join(map(str, a[3])),
    } for b, a, s, e, p, g in zip(labels[:n], labels[n:], scales, exponents.tolist(),
                                  psi.tolist(), pencils)]


def deflate_once(X, tol: float = 1e-9, coincidence_tol: float = DEFAULT_COINCIDENCE_TOL):
    """Subtract a best rank-1 approximation and report the orbit transition.

    Symmetric input follows the symmetric route (term y (x) y (x) y and
    symmetric classification); the residual keeps the input's type.  Full
    input takes the `best_rank1_222` term, which the theta-grid solver
    cross-checks unless the enumeration certifies it.
    Returns (residual, DeflationReport).
    """
    if isinstance(X, TensorPxPx2):
        raise ValueError("deflate_once handles 2x2x2 tensors; use best_rank1_pxpx2 "
                         "plus spectrum_small (or experiment_pxpx2) for pxpx2 input")
    if isinstance(X, SymTensor222):
        result = rank1.best_rank1_sym(X)
        residual = X.rank1_update(result.term.y, -1.0)
    else:
        # a raw array is checked once, here
        X = X if isinstance(X, Tensor222) else Tensor222(X)
        result = rank1.best_rank1_222(X)
        residual = Tensor222(X.array - result.term.tensor())
    return residual, _step_report(X, residual, result.psi, result.multiplicity,
                                  result.warnings, tol, coincidence_tol)


# ---------------------------------------------------------------------------
# experiments: one harness, one sampler and one solver per kind
# ---------------------------------------------------------------------------

def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The generator of trial ``trial``: Philox keyed on (seed, trial)."""
    key = np.array([np.uint64(seed), np.uint64(trial)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _trial_rngs(seed: int, trials: int):
    """The generator of each trial in turn, drawing what `_trial_rng` draws:
    one Philox generator, re-keyed on (seed, t) with its counter and buffer
    reset, instead of a new generator per trial."""
    bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    rng = np.random.Generator(bits)
    state = bits.state
    for trial in range(trials):
        state["state"]["key"] = np.array([seed, trial], dtype=np.uint64)
        state["state"]["counter"] = np.zeros(4, dtype=np.uint64)
        state.update(buffer_pos=4, has_uint32=0, uinteger=0)
        bits.state = state
        yield rng


def _bucket_label(i: int) -> str:
    lo = "0" if i == 0 else f"{GAP_BUCKETS[i - 1]:.0e}"
    hi = f"{GAP_BUCKETS[i]:.0e}" if i < len(GAP_BUCKETS) else "inf"
    return f"{lo}..{hi}"


def _histogram(gaps) -> tuple:
    counts = np.bincount(np.searchsorted(GAP_BUCKETS, gaps), minlength=len(GAP_BUCKETS) + 1)
    return tuple((_bucket_label(i), c) for i, c in enumerate(counts.tolist()) if c)


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


def _error_row() -> dict:
    return {"orbit_before": "error", "orbit_after": "error",
            "delta_before": None, "delta_after": None, "delta_after_scaled": None,
            "psi": None, "eigen_gap": None, "mlrank": ""}


def _run(trials: int, seed: int, sample, solve):
    """Run every trial of an experiment; returns (rows, failure reasons).

    Trial t draws its input with ``sample`` from its own Philox stream
    keyed on (seed, t), and ``solve`` turns the list of all inputs into
    (rows, reasons), a row per trial.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rows, reasons = solve([sample(rng) for rng in _trial_rngs(seed, trials)])
    return [{"trial": trial, **row} for trial, row in enumerate(rows)], reasons


def _theta_steps(rows) -> tuple:
    """The extra ("theta_steps", {refinement steps: trials}) of the rows."""
    return "theta_steps", dict(sorted(Counter(r["theta_steps"] for r in rows).items()))


def _mlrank_extras(rows) -> tuple:
    ok = [r for r in rows if r["orbit_after"] != "error"]
    return (("fraction_mlrank_222", sum(r["mlrank"] == "2x2x2" for r in ok) / max(1, len(ok))),)


def _theta_step(X, report=_report_rows) -> tuple:
    """(rows, reasons) of the stack X (N, p, p, 2) deflated by its
    `rank1._best_rank1_stack` terms: ``report`` makes the rows from X, the
    residuals and psi, each row gains ``converged`` and ``theta_steps``,
    and the reasons name the unconverged trials."""
    psi, x, y, z, converged, steps = rank1._best_rank1_stack(X)
    rows = report(X, X - np.einsum("ni,nj,nk->nijk", x, y, z), psi)
    for row, ok, k in zip(rows, converged.tolist(), steps.tolist()):
        row.update(converged=ok, theta_steps=k)
    return rows, [f"trial {t}: {rank1.NOT_CONVERGED}" for t in np.flatnonzero(~converged)]


def _report_each(arrays, tally) -> tuple:
    """(rows, reasons) of the 2x2x2 arrays (N, 2, 2, 2) deflated one at a
    time by `_enumerated_step`, which counts each table in ``tally``.  A
    trial whose step raises becomes an error row with a reason; the other
    steps are reported as one stack."""
    psi, R = np.zeros(len(arrays)), np.zeros_like(arrays)
    ok, reasons = np.ones(len(arrays), dtype=bool), []
    for trial, A in enumerate(arrays):
        try:
            psi[trial], _, R[trial] = _enumerated_step(A, tally)
        except Exception as exc:
            ok[trial] = False
            reasons.append(f"trial {trial}: {exc}")
    rows = iter(_report_rows(arrays[ok], R[ok], psi[ok]))
    return [next(rows) if good else _error_row() for good in ok.tolist()], reasons


def _enumerated_step(A, tally=None):
    """The deflation of the 2x2x2 array A by the best usable point of one
    `rank1.stationary_points_222` enumeration, whose points are sorted by
    psi: (psi, A, residual); the table is counted in ``tally`` if given."""
    enum = rank1.stationary_points_222(A)
    rec = enum.record
    if tally is not None and rec:
        tally["certified_tables"] += rec.certified
        tally["root_count_mismatches"] += len(enum) + max(rec.cluster_roots - 1, 0) != rec.real_roots
    best = next((p for p in enum if not p.degenerate), None)
    if best is None:
        raise RuntimeError("no usable stationary point")
    # x (x) y (x) z with y = (1, y2) and z = (1, z2), as `StationaryPoint.term`
    return best.psi, A, A - np.array([[[x, x * best.z2], [x * best.y2, x * best.y2 * best.z2]]
                                      for x in best.x.tolist()])


def experiment_generic(trials: int, seed: int = 0) -> ExperimentStats:
    """Deflate i.i.d. standard-normal 2x2x2 tensors and classify residuals.

    Each trial's term is the best usable point of one stationary-point
    enumeration, with no theta-grid cross-check; a trial with no usable
    point is an error row.  The residuals are then reported as one stack.
    The extras count certified tables, and tables whose point count is not
    the number of real roots of F, a triple root counted as one.
    """
    tally = {"certified_tables": 0, "root_count_mismatches": 0}
    rows, reasons = _run(trials, seed, lambda rng: rng.standard_normal(8),
                         lambda flat: _report_each(_slab_major(np.array(flat)), tally))
    return _aggregate("generic", trials, seed, rows, reasons,
                      _mlrank_extras(rows) + tuple(tally.items()))


def experiment_symmetric(trials: int, seed: int = 0) -> ExperimentStats:
    """Symmetric analogue: (a, b, c, d) i.i.d. normal, expanded to 2x2x2
    and deflated by their theta-grid terms.  By Banach's theorem the best
    rank-1 term of a symmetric tensor is symmetric, so it is the
    `best_rank1_sym` term of `deflate_once` up to round-off."""
    rows, reasons = _run(trials, seed, lambda rng: rng.standard_normal(4),
                         lambda abcd: _theta_step(np.array(abcd)[:, _SYM_INDEX]))
    return _aggregate("symmetric", trials, seed, rows, reasons,
                      _mlrank_extras(rows) + (("converged", sum(r["converged"] for r in rows)),
                                              _theta_steps(rows)))


def _sample_d3(rng: np.random.Generator) -> Tensor222:
    """(S, T, U) . D3 of the canonical form: the trial's first three 2x2
    draws with condition number at most D3_COND_CAP."""
    mats = []
    while len(mats) < 3:
        M = rng.standard_normal((2, 2))
        if np.linalg.cond(M) <= D3_COND_CAP:
            mats.append(M)
    return multilinear_transform(canonical_form("D3"), *mats)


def experiment_d3_closure(trials: int, seed: int = 0) -> ExperimentStats:
    """Deflate random orbit-D3 tensors (random transforms of the canonical
    form) by their theta-grid terms and tally the residual orbits;
    supports, not asserts, closure."""
    def solve(blocks):
        # `_sample_d3` of every trial, from its first three draws: a trial
        # with a draw above the cap draws on from its own stream
        blocks = np.array(blocks)
        X = np.einsum("nip,njq,nkr,pqr->nijk", *blocks.swapaxes(0, 1), canonical_form("D3").array)
        for trial in np.flatnonzero(~(np.linalg.cond(blocks) <= D3_COND_CAP).all(axis=1)):
            X[trial] = _sample_d3(_trial_rng(seed, trial)).array
        rows, reasons = _theta_step(X)
        for row in rows:
            # the input is D3 by construction, whatever its classification reads
            row["orbit_before"] = "D3"
        return rows, reasons

    rows, reasons = _run(trials, seed, lambda rng: rng.standard_normal((3, 2, 2)), solve)
    return _aggregate("d3", trials, seed, rows, reasons,
                      (("converged", sum(r["converged"] for r in rows)), _theta_steps(rows)))


def experiment_pxpx2(p: int, trials: int, seed: int = 0) -> ExperimentStats:
    """pxpx2 deflation by the theta-grid best rank-1 term; spectra comparison.

    Each trial subtracts the term of `rank1.best_rank1_pxpx2`, which is
    deterministic (no restarts, so ``seed`` only draws the inputs).  The
    slab-pencil spectrum of the residual is compared with the input's:
    conjecture-consistent means exactly one coincident pair appears and
    the complex-pair count drops from n to max(0, n - 1).  The spectra are
    counted as a stack, the inputs' and the residuals' with one
    `smallalg.spectra_small` call each; a trial whose slab quotient is
    singular or not finite is an error row.  The fractions and
    ``converged`` count the converged trials that are not error rows.
    """
    if not 2 <= p <= 8:
        raise ValueError("p must be between 2 and 8")

    def report(X, Z, psi):
        _, before, _, ok_x = spectra_small(_quotient(X[..., 1], X[..., 0]), PAIRING_BAND)
        _, after, pairs, ok_z = spectra_small(_quotient(Z[..., 1], Z[..., 0]), PAIRING_BAND)
        # no Delta, gap or mlrank here: those fields keep the error row's blanks
        return [dict(_error_row(), orbit_before=f"ncomplex={n}", psi=v,
                     orbit_after="D3" if c == 1 and m == max(0, n - 1) else "other",
                     coincident_pairs=c, complex_before=n, complex_after=m)
                if good else _error_row()
                for n, m, c, good, v in zip(*(a.tolist() for a in (
                    before, after, pairs, ok_x & ok_z, psi)))]

    def solve(inputs):
        rows, unconverged = _theta_step(np.stack(inputs), report)
        return rows, [f"trial {t}: a slab quotient is singular or not finite"
                      for t, r in enumerate(rows) if r["orbit_after"] == "error"] + unconverged

    rows, reasons = _run(trials, seed, lambda rng: rng.standard_normal((p, p, 2)), solve)
    done = [r for r in rows if r["converged"] and r["orbit_after"] != "error"]
    n_conv = max(1, len(done))
    extras = (
        ("p", p),
        ("converged", len(done)),
        ("coincident_pair_fraction", sum(r["coincident_pairs"] == 1 for r in done) / n_conv),
        ("complex_decrement_fraction",
         sum(r["complex_after"] == max(0, r["complex_before"] - 1) for r in done) / n_conv),
        ("consistent_fraction", sum(r["orbit_after"] == "D3" for r in done) / n_conv),
        _theta_steps(rows),
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

def check_degenerate_props(X) -> DeflationReport:
    """Verify the deterministic deflation statements for degenerate inputs.

    D1 deflates to D0; the D2 family deflates to D1; diagonal-slab rank-2
    tensors deflate to D1, with the tie multiplicity reported when both
    diagonal pairs carry equal weight (and the extra closed-form family
    counted when ah = de).  Every band is PROPS_TOL relative to the input's
    scale, and the candidates' psis and tie bound are taken on X / 2^e
    (exact), where no square saturates, so 2^k X gets the verdicts of X.
    """
    # a raw array is checked once, here
    X = X if isinstance(X, (Tensor222, SymTensor222)) else Tensor222(X)
    A = _as_array(X)
    label = classify(X, PROPS_TOL)
    unit, exponent = unit_scaled(X)
    a_, b_, c_, d_, e_, f_, g_, h_ = _entries(unit)
    scale = max(map(abs, (a_, b_, c_, d_, e_, f_, g_, h_)))
    diagonal = scale > 0.0 and max(abs(b_), abs(c_), abs(f_), abs(g_)) <= PROPS_TOL * scale
    expected = "D0" if label.orbit == "D1" else "D1"
    if label.orbit == "D1" or (not diagonal and label.orbit in ("D2", "D2p", "D2pp")):
        report = deflate_once(X, PROPS_TOL)[1]
    elif not diagonal:
        raise DomainError(
            f"check_degenerate_props applies to D1, the D2 family, or "
            f"diagonal-slab rank-2 input; got orbit {label.orbit}")
    else:
        # keep the (d, h) pair or the (a, e) pair; with a^2 + e^2 = d^2 + h^2
        # and ah = de also the closed-form family member at y = (1, 1) / sqrt(2)
        candidates = [Tensor222.from_entries(0, 0, 0, d_, 0, 0, 0, h_),
                      Tensor222.from_entries(a_, 0, 0, 0, e_, 0, 0, 0)]
        lead, tail = a_ * a_ + e_ * e_, d_ * d_ + h_ * h_
        band = PROPS_TOL * max(lead, tail)
        if abs(lead - tail) <= band and abs(a_ * h_ - d_ * e_) <= band:
            family = Tensor222.from_entries(a_, a_, d_, d_, e_, e_, h_, h_)
            candidates.append(Tensor222(family.array / 2.0))
        psis = [frobenius_norm_sq(unit - c.array) for c in candidates]
        best = int(np.argmin(psis))
        report = _step_report(X, A - np.ldexp(candidates[best].array, exponent),
                              _ldexp(psis[best], 2 * exponent),
                              rank1._ties(psis, psis[best], frobenius_norm_sq(unit)), (),
                              PROPS_TOL, DEFAULT_COINCIDENCE_TOL)
    if report.orbit_after.orbit != expected:
        raise RuntimeError(f"{label.orbit} input deflated to {report.orbit_after.orbit}, "
                           f"expected {expected}")
    return report
