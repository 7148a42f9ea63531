"""The benchmark's workloads: seeded inputs, the public calls that process
them, and the checks of every output against `reference`.

A workload is a class built from the seed.  Its `calls` are one round of
`Call`s; each call returns what the public function returned, and `check`
turns that into one failure reason per failed operation (a trial or a
request).  References are computed once, when the workload is built,
outside any timed part.  run.py also reads these class attributes:

* `tail_pct`: the percentile of call times that `call_tail_ms` reports;
* `min_calls`: the fewest calls a measured run makes, so that the tail has
  at least ten calls beyond it;
* `trace_rounds`: the rounds a traced run makes;
* `first_call`: the code a fresh interpreter runs for `setup_s`;
* `known_faults`: failure reasons that come from a known program fault;
* `left_out`: the tensors the residual screen left out (see RANK_SCREEN).
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref

PSI_RTOL = 1e-8        # |psi - psi*| <= PSI_RTOL ||X||^2
DELTA_RTOL = 1e-9      # |Delta_program - Delta_Cayley| <= DELTA_RTOL max|x|^4
BOUNDARY_BAND = 1e-6   # the residual's |Delta| / max|x|^4 the program calls D3
RECON_RTOL = 1e-8      # ||sum v (x) v (x) v - X|| <= RECON_RTOL ||X||
THEOREM_BAND = 1e-9    # the reference residual's own |Delta| / max|x|^4
CHUNK = 32             # tensors per ref.best_rank1 call

# A generic input whose reference residual is within about 1e-6 (relative
# sigma_2 / sigma_1 of an unfolding) of a lower multilinear rank is labelled
# D1 by the program's deflate, although the residual is exactly D3.  That
# happens on some seeds only (about 1 in 4000 symmetric and 1 in 400 000
# full Gaussian inputs), so such inputs are left out: an input whose
# reference residual has a ratio below RANK_SCREEN is redrawn (requests) or
# its experiment seed skipped (mc-generic).
RANK_SCREEN = 1e-5

# the known fault kept in mc-pxp2: spectrum_small pairs coincident
# eigenvalues only among real ones
PAIRING_FAULT = "residual double eigenvalue split into a complex pair; labelled other"


@dataclass
class Call:
    run: Callable[[], object]
    ops: int
    check: Callable[[object], list]


def _philox(seed: int, trial: int) -> np.random.Generator:
    # the experiments' documented input stream: one Philox key (seed, trial)
    return np.random.Generator(np.random.Philox(key=np.array([seed, trial], dtype=np.uint64)))


def _chunked_best_rank1(stack):
    """ref.best_rank1 in chunks of CHUNK tensors, so its temporaries stay
    below the program's own memory high-water mark."""
    psi, term = zip(*(ref.best_rank1(stack[i:i + CHUNK]) for i in range(0, len(stack), CHUNK)))
    return np.concatenate(psi), np.concatenate(term)


def _scale4(A) -> float:
    return float(np.max(np.abs(A))) ** 4


def _psi_ok(value, psi_star, A) -> bool:
    return value is not None and abs(value - psi_star) <= PSI_RTOL * float((A ** 2).sum())


def _check_theorem(X, term):
    """Stop if a reference residual is off the Delta = 0 boundary: the
    reference itself would then be wrong."""
    margin = np.abs(ref.cayley_hyperdet(X - term)) / np.max(np.abs(X), axis=(1, 2, 3)) ** 4
    if np.any(margin > THEOREM_BAND):
        raise RuntimeError(f"reference residual off the Delta = 0 boundary ({margin.max():.2e})")


# ---------------------------------------------------------------------------
# mc-generic: deflation.experiment_generic on i.i.d. Gaussian 2x2x2 tensors
# ---------------------------------------------------------------------------

class MCGeneric:
    """20 calls of experiment_generic(50 trials) on experiment seeds
    100 * seed, 100 * seed + 1, ..., skipping a seed any of whose tensors
    the residual screen leaves out, so the 1000 tensors depend on --seed
    only."""

    calls_per_round = 20
    seed_stride = 100
    trials = 50
    tail_pct = 90
    min_calls = 100
    trace_rounds = 1
    known_faults = ()
    first_call = ("from tensorbit import deflation\n"
                  "deflation.experiment_generic(1, 0)\n")

    def __init__(self, seed: int):
        from tensorbit import deflation
        self.calls = []
        self.left_out = 0
        for s in range(self.seed_stride * seed, self.seed_stride * (seed + 1)):
            if len(self.calls) == self.calls_per_round:
                break
            X = np.stack([ref.gaussian_222(_philox(s, t)) for t in range(self.trials)])
            psi, term = _chunked_best_rank1(X)
            _check_theorem(X, term)
            if np.any(ref.mode_sigma_ratio(X - term) < RANK_SCREEN):
                self.left_out += self.trials
                continue
            self.calls.append(Call(
                run=lambda s=s: deflation.experiment_generic(self.trials, s),
                ops=self.trials,
                check=lambda stats, X=X, psi=psi: self._check(stats, X, psi)))

    def _check(self, stats, X, psi):
        if len(stats.rows) != self.trials:
            return ["wrong row count"] * self.trials
        reasons = []
        for row, A, psi_star in zip(stats.rows, X, psi):
            s4 = _scale4(A)
            delta = float(ref.cayley_hyperdet(A))
            if row["orbit_after"] == "error":
                reasons.append("trial raised")
            elif not _psi_ok(row["psi"], psi_star, A):
                reasons.append("psi differs from the global optimum")
            elif row["orbit_after"] != "D3" or abs(row["delta_after"]) > BOUNDARY_BAND * s4:
                reasons.append("residual not on the D3 boundary")
            elif abs(row["delta_before"] - delta) > DELTA_RTOL * s4:
                reasons.append("input hyperdeterminant differs from Cayley's")
            elif ref.orbit_by_sign(A) not in (None, row["orbit_before"]):
                reasons.append("input orbit differs from the hyperdeterminant sign")
        return reasons


# ---------------------------------------------------------------------------
# mc-pxp2: deflation.experiment_pxpx2 with p = 3
# ---------------------------------------------------------------------------

class MCPxP2:
    """10 calls of experiment_pxpx2(p=3, 10 trials), experiment seeds 1..10.

    The inputs do not depend on --seed: some of these trials fail through
    the known pairing fault, and the failed share must be the same in
    every run.  With Gaussian inputs drawn from --seed, about one trial in
    twenty hits it, and the count would change with the seed.
    """

    p = 3
    experiment_seeds = tuple(range(1, 11))
    trials = 10
    tail_pct = 95
    min_calls = 200
    trace_rounds = 4
    known_faults = (PAIRING_FAULT,)
    left_out = 0
    first_call = ("from tensorbit import deflation\n"
                  "deflation.experiment_pxpx2(3, 1, 1)\n")

    def __init__(self, seed: int):
        from tensorbit import deflation
        self.calls = []
        for s in self.experiment_seeds:
            X = np.stack([_philox(s, t).standard_normal((self.p, self.p, 2))
                          for t in range(self.trials)])
            psi, term = _chunked_best_rank1(X)
            before = [ref.pencil_pairs(A) for A in X]
            after = [ref.pencil_pairs(A) for A in X - term]
            expected = [b[0] == 0 and a == (1, max(0, b[1] - 1)) for b, a in zip(before, after)]
            self.calls.append(Call(
                run=lambda s=s: deflation.experiment_pxpx2(self.p, self.trials, s),
                ops=self.trials,
                check=lambda stats, X=X, psi=psi, b=before, e=expected:
                    self._check(stats, X, psi, b, e)))

    def _check(self, stats, X, psi, before, expected):
        if len(stats.rows) != self.trials:
            return ["wrong row count"] * self.trials
        reasons = []
        for row, A, psi_star, b, consistent in zip(stats.rows, X, psi, before, expected):
            if row["orbit_after"] == "error":
                reasons.append("trial raised")
            elif not _psi_ok(row["psi"], psi_star, A):
                reasons.append("psi differs from the global optimum")
            elif row["complex_before"] != b[1]:
                reasons.append("input complex-pair count differs")
            elif (row["orbit_after"] == "D3") != consistent:
                if consistent and row["complex_after"] == 1 and row["coincident_pairs"] == 0:
                    reasons.append(PAIRING_FAULT)
                else:
                    reasons.append("residual spectrum verdict differs")
        return reasons


# ---------------------------------------------------------------------------
# requests: single-tensor cli.main calls, in process
# ---------------------------------------------------------------------------

# (command, document kind): every request kind the CLI serves on one tensor,
# in equal numbers; there is no usage record to weight them by
KINDS = (
    ("classify", "full222"),
    ("classify", "sym222"),
    ("rank1", "full222"),
    ("rank1", "sym222"),
    ("deflate", "full222"),
    ("deflate", "sym222"),
    ("decompose", "sym222"),
)
DEFLATE_STEPS = 2


def _tensor(kind, flat):
    return ref.full_from_flat(flat) if kind == "full222" else ref.expand_sym(flat)


def _data_arg(values) -> str:
    return "--data=" + ",".join(repr(float(v)) for v in values)


class Requests:
    """700 cli.main requests per round (each of the KINDS 100 times), with
    tensors and order drawn from --seed."""

    copies = 100
    tail_pct = 99
    min_calls = 1000
    trace_rounds = 1
    known_faults = ()
    first_call = ("import contextlib, io\n"
                  "from tensorbit import cli\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  "    cli.main(['classify', '--data=1,0,0,1,0,1,1,0'])\n")

    def __init__(self, seed: int):
        from tensorbit import cli
        rng = np.random.default_rng(seed)
        specs = [spec for spec in KINDS for _ in range(self.copies)]
        specs = [specs[i] for i in rng.permutation(len(specs))]
        flats = [rng.standard_normal(8 if kind == "full222" else 4) for _, kind in specs]
        A = np.stack([_tensor(kind, f) for (_, kind), f in zip(specs, flats)])
        psi, term = _chunked_best_rank1(A)
        self.left_out = 0
        while (bad := np.flatnonzero(ref.mode_sigma_ratio(A - term) < RANK_SCREEN)).size:
            self.left_out += bad.size
            for i in bad:
                flats[i] = rng.standard_normal(flats[i].size)
                A[i] = _tensor(specs[i][1], flats[i])
            psi[bad], term[bad] = _chunked_best_rank1(A[bad])
        _check_theorem(A, term)
        self.calls = []
        for (cmd, kind), flat, A_i, psi_i in zip(specs, flats, A, psi):
            argv = [cmd, _data_arg(flat)]
            if cmd == "rank1":
                argv.append("--json")
            if cmd == "deflate":
                argv += ["--steps", str(DEFLATE_STEPS)]

            def run(argv=argv):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                return code, out.getvalue()

            self.calls.append(Call(
                run=run, ops=1,
                check=lambda result, cmd=cmd, kind=kind, flat=flat, A=A_i, psi=psi_i:
                    _check_request(result, cmd, kind, flat, A, psi)))


def _check_request(result, cmd, kind, flat, A, psi_star):
    code, text = result
    if code != 0:
        return [f"{cmd} exited with {code}"]
    try:
        reason = _request_reason(json.loads(text.strip().splitlines()[-1]), cmd, kind, flat,
                                 A, psi_star)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        reason = f"{cmd} output malformed: {type(exc).__name__}"
    return [reason] if reason else []


def _request_reason(out, cmd, kind, flat, A, psi_star):
    s4 = _scale4(A)
    if cmd == "classify":
        want = ref.orbit_by_sign(A) if kind == "full222" else \
            {3: "G3", 2: "G2", None: None}[ref.sym_rank(flat)]
        if want is not None and out["orbit"] != want:
            return "orbit differs from the reference sign test"
        if abs(out["delta"] - float(ref.cayley_hyperdet(A))) > DELTA_RTOL * s4:
            return "hyperdeterminant differs from Cayley's"
        if out["multilinear_rank"] != [2, 2, 2]:
            return "multilinear rank of a generic tensor is not 2x2x2"
        return None
    if cmd == "rank1":
        x, y, z = (np.asarray(out["term"][k], float) for k in "xyz")
        resid = A - np.einsum("i,j,k->ijk", x, y, z)
        if not _psi_ok(out["psi"], psi_star, A):
            return "psi differs from the global optimum"
        if not _psi_ok(float((resid ** 2).sum()), out["psi"], A):
            return "returned term does not give the returned psi"
        return None
    if cmd == "deflate":
        steps = out["steps"]
        first = steps[0]
        if not _psi_ok(first["psi"], psi_star, A):
            return "first-step psi differs from the global optimum"
        if first["orbit_after"] != "D3" or abs(first["delta_after"]) > BOUNDARY_BAND * s4:
            return "first residual not on the D3 boundary"
        norm = float((A ** 2).sum())
        if any(b["psi"] > a["psi"] + PSI_RTOL * norm for a, b in zip(steps, steps[1:])):
            return "psi increased along the deflation chain"
        return None
    if cmd == "decompose":
        want = ref.sym_rank(flat)
        vectors = out["vectors"]
        if want is not None and out["rank"] != want:
            return "rank differs from the cubic discriminant"
        if len(vectors) != out["rank"]:
            return "vector count differs from the rank"
        err = np.sqrt(((ref.sym_cube_sum(vectors) - A) ** 2).sum() / (A ** 2).sum())
        if err > RECON_RTOL:
            return "vectors do not reconstruct the tensor"
        return None
    raise ValueError(cmd)


WORKLOADS = {"mc-generic": MCGeneric, "mc-pxp2": MCPxP2, "requests": Requests}
