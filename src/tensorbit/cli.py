"""Command-line front end: tensorbit classify|rank1|deflate|decompose|experiment.

All structured output is JSON on stdout with a fixed field order; floats
are printed with 17 significant digits so identical commands and seeds
give byte-identical output.  Only rank1 takes --json (without it, it
prints a table).  Exit codes: 0 success, 2 input error, 3 numerical
failure, 4 infeasible request.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import deflation, rank1
from .decomp import DomainError, sylvester_rank
from .document import TensorDocument, parse_document
from .orbits import classify, hyperdet, slab_pencil
from .smallalg import DEFAULT_COINCIDENCE_TOL, EigenPair2, NumericalFailure
from .tensors import SymTensor222, Tensor222, _as_array, frobenius_norm_sq, unit_scaled

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_INFEASIBLE = 4


# ---------------------------------------------------------------------------
# deterministic JSON with 17-significant-digit floats
# ---------------------------------------------------------------------------

def _to_json(obj) -> str:
    kind = type(obj)
    if kind is float or isinstance(obj, np.floating):
        v = float(obj)
        if math.isfinite(v):
            return format(v, ".17g")
        return '"nan"' if math.isnan(v) else '"inf"' if v > 0 else '"-inf"'
    if kind is dict:
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_to_json(v)}" for k, v in obj.items()) + "}"
    if kind is list or kind is tuple:
        return "[" + ", ".join(map(_to_json, obj)) + "]"
    if kind is int or isinstance(obj, np.integer):
        return str(int(obj))
    # str, bool and None
    return json.dumps(obj)


def _emit(payload: dict):
    sys.stdout.write(_to_json(payload) + "\n")


def _pencil_dict(pencil: EigenPair2 | None):
    if pencil is None:
        return None
    return {"kind": pencil.kind,
            "values": [float(v) for v in pencil.values],
            "eigenvector_count": pencil.eigenvector_count}


# ---------------------------------------------------------------------------
# input handling
# ---------------------------------------------------------------------------

def _load_document(args) -> TensorDocument:
    if args.data is not None:
        values = [float(v) for v in args.data.replace(",", " ").split()]
        return parse_document(values, kind=args.kind)
    if args.input is None:
        raise ValueError("provide a document file or --data values")
    with open(args.input) as fh:
        obj = json.load(fh)
    return parse_document(obj, kind=args.kind)


def _seed_from(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("TENSORBIT_SEED")
    return int(env) if env else 0


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_classify(args) -> int:
    doc = _load_document(args)
    tensor = doc.to_tensor()
    if not isinstance(tensor, (Tensor222, SymTensor222)):
        raise ValueError("classify handles full222 and sym222 documents")
    label = classify(tensor, args.tol)
    _emit({
        "command": "classify",
        "kind": doc.kind,
        "label": doc.label,
        "orbit": label.orbit,
        "delta": label.delta,
        "multilinear_rank": list(label.mlrank.as_tuple()),
        "pencil": _pencil_dict(slab_pencil(tensor, args.coincidence_tol)),
        "boundary_margin": label.boundary_margin,
    })
    return EXIT_OK


def _point_rows(points):
    return [{"y2": pt.y2, "z2": pt.z2, "psi": pt.psi, "delta_residual": pt.delta_residual,
             "hessian_pd": pt.hessian_pd, "degenerate": pt.degenerate} for pt in points]


def _sym_point_rows(points):
    return [{"z": pt.z, "y1": float(pt.y[0]), "y2": float(pt.y[1]),
             "y2_cubed": pt.y2_cubed, "psi": pt.psi,
             "delta_residual": pt.delta_residual} for pt in points]


def _term_row(tensor: Tensor222, result) -> dict:
    """Synthesize a table row from the winning term when the enumeration
    itself was degenerate (exact rank-1 input, orthogonal pencils)."""
    y, z = result.term.y, result.term.z
    y2 = float(y[1] / y[0]) if abs(y[0]) > 1e-12 * np.linalg.norm(y) else None
    z2 = float(z[1] / z[0]) if abs(z[0]) > 1e-12 * np.linalg.norm(z) else None
    return {"y2": y2, "z2": z2, "psi": result.psi,
            "delta_residual": hyperdet(tensor.array - result.term.tensor()), "hessian_pd": None,
            "degenerate": False}


def cmd_rank1(args) -> int:
    doc = _load_document(args)
    tensor = doc.to_tensor()
    if isinstance(tensor, SymTensor222):
        if args.method == "hopm":
            raise ValueError("rank1 --method hopm handles full222 and pxpx2 documents")
        result = rank1.best_rank1_sym(tensor)
        rows = _sym_point_rows(result.all_points)
        table_cols = ("z", "y2", "psi", "delta_residual")
    else:
        if args.method == "hopm":
            result = rank1.hopm(tensor, seed=_seed_from(args))
            rows = []
        elif isinstance(tensor, Tensor222):
            result = rank1.best_rank1_222(tensor)
            rows = _point_rows(result.all_points)
        else:
            result = rank1.best_rank1_pxpx2(tensor)
            rows = []
        if not rows and isinstance(tensor, Tensor222):
            rows = [_term_row(tensor, result)]
        table_cols = ("y2", "z2", "psi", "delta_residual", "hessian_pd", "degenerate")
    payload = {
        "command": "rank1",
        "kind": doc.kind,
        "label": doc.label,
        "method": result.method,
        "psi": result.psi,
        "term": {"x": list(result.term.x), "y": list(result.term.y),
                 "z": list(result.term.z)},
        "multiplicity": result.multiplicity,
        "n_complex_points": result.n_complex,
        "converged": result.converged,
        "warnings": list(result.warnings),
        "stationary_points": rows,
    }
    if args.json:
        _emit(payload)
    else:
        print(f"best psi = {result.psi!r}  (method {result.method}, "
              f"multiplicity {result.multiplicity})")
        if rows:
            print("  ".join(f"{c:>14}" for c in table_cols))
            for row in rows:
                print("  ".join(f"{v:14.6g}" if isinstance(v, float) else f"{str(v):>14}"
                                for v in (row[c] for c in table_cols)))
    return EXIT_OK


def cmd_deflate(args) -> int:
    doc = _load_document(args)
    tensor = doc.to_tensor()
    if args.steps < 1:
        raise ValueError("--steps must be at least 1")
    # the stop test runs on X / 2^e (exact), where no norm overflows or underflows
    unit, exponent = unit_scaled(tensor)
    start_norm = frobenius_norm_sq(unit)
    reports = []
    current = tensor
    for step in range(args.steps):
        residual, report = deflation.deflate_once(current, args.tol,
                                                  coincidence_tol=args.coincidence_tol)
        reports.append({
            "step": step + 1,
            "orbit_before": report.orbit_before.orbit,
            "orbit_after": report.orbit_after.orbit,
            "delta_before": report.delta_before,
            "delta_after": report.delta_after,
            "psi": report.psi,
            "ties": report.ties,
            "pencil_before": _pencil_dict(report.pencil_before),
            "pencil_after": _pencil_dict(report.pencil_after),
            "residual_mlrank": list(report.residual_mlrank.as_tuple()),
            "warnings": list(report.warnings),
        })
        current = residual
        if frobenius_norm_sq(np.ldexp(_as_array(current), -exponent)) <= 1e-12 * start_norm:
            break
    _emit({"command": "deflate", "kind": doc.kind, "label": doc.label,
           "steps": reports})
    return EXIT_OK


def cmd_decompose(args) -> int:
    doc = _load_document(args)
    tensor = doc.to_tensor()
    if not isinstance(tensor, SymTensor222):
        raise ValueError("decompose requires a sym222 document")
    rank, dec = sylvester_rank(tensor, args.tol)
    if args.rank != "auto":
        wanted = int(args.rank)
        if wanted < rank:
            raise DomainError(f"tensor has symmetric rank {rank}; rank {wanted} infeasible")
        if wanted != rank:
            raise DomainError(
                f"tensor has symmetric rank {rank}; exact rank-{wanted} output unsupported")
    _emit({
        "command": "decompose",
        "label": doc.label,
        "rank": rank,
        "vectors": [list(map(float, v)) for v in dec.vectors],
        "reconstruction_error": dec.reconstruction_error,
    })
    return EXIT_OK


def cmd_experiment(args) -> int:
    seed = _seed_from(args)
    if args.experiment_kind == "generic":
        stats = deflation.experiment_generic(args.trials, seed)
    elif args.experiment_kind == "symmetric":
        stats = deflation.experiment_symmetric(args.trials, seed)
    elif args.experiment_kind == "d3":
        stats = deflation.experiment_d3_closure(args.trials, seed)
    elif args.experiment_kind == "pxp2":
        stats = deflation.experiment_pxpx2(args.p, args.trials, seed)
    else:
        raise ValueError(f"unknown experiment kind {args.experiment_kind!r}")
    if args.csv:
        deflation.write_trial_csv(stats, args.csv)
    _emit({"command": "experiment", **stats.summary_dict()})
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_input_args(p, tol=False, coincidence_tol=False):
    p.add_argument("input", nargs="?", help="JSON tensor document file")
    p.add_argument("--data", help="inline values, e.g. 'a,b,c,d,e,f,g,h'")
    p.add_argument("--kind", choices=("full222", "sym222", "pxpx2"))
    if tol:
        p.add_argument("--tol", type=float, default=1e-9)
    if coincidence_tol:
        p.add_argument("--coincidence-tol", type=float, default=DEFAULT_COINCIDENCE_TOL,
                       dest="coincidence_tol",
                       help="band for calling two eigenvalues identical")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tensorbit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="orbit classification report")
    _add_input_args(p, tol=True, coincidence_tol=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("rank1", help="best rank-1 approximation + stationary table")
    _add_input_args(p)
    p.add_argument("--method", choices=("enumerate", "hopm"), default="enumerate",
                   help="enumerate: stationary points (full222, sym222) or the "
                        "theta-grid solver (pxpx2); hopm: alternating least squares "
                        "(full222, pxpx2)")
    p.add_argument("--seed", type=int)
    p.add_argument("--json", action="store_true", help="JSON instead of a table")
    p.set_defaults(func=cmd_rank1)

    p = sub.add_parser("deflate", help="chained rank-1 deflation reports")
    _add_input_args(p, tol=True, coincidence_tol=True)
    p.add_argument("--steps", type=int, default=1)
    p.set_defaults(func=cmd_deflate)

    p = sub.add_parser("decompose", help="symmetric decomposition")
    _add_input_args(p, tol=True)
    p.add_argument("--rank", choices=("auto", "1", "2", "3"), default="auto")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("experiment", help="seeded Monte Carlo experiments")
    p.add_argument("experiment_kind", choices=("generic", "symmetric", "d3", "pxp2"))
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int)
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--csv")
    p.set_defaults(func=cmd_experiment)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser unchanged, so one instance serves every call
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
