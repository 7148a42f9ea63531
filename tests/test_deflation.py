import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorbit import deflation, rank1
from tensorbit import (DomainError, SymTensor222, Tensor222, canonical_form,
                       check_degenerate_props, classify, deflate_once, experiment_d3_closure,
                       experiment_generic, experiment_pxpx2, experiment_symmetric,
                       frobenius_norm_sq, hyperdet, multilinear_rank, multilinear_transform,
                       slab_pencil)
from tensorbit.deflation import (_deflation_report, _pencil_gap, _sample_d3, _trial_rng,
                                 _trial_rngs, write_trial_csv)
from tensorbit.orbits import ORBITS, _ldexp, _quotient, _rank_tol, _reports, _slab_pencils
from tensorbit.tensors import _slab_major
from tensorbit.rank1 import best_rank1_222, best_rank1_pxpx2
from tensorbit.smallalg import DEFAULT_COINCIDENCE_TOL, spectrum_small
from tensorbit.cli import main
from conftest import BOUNDARY_TO_D2


def test_deflate_example_one(ex_a1):
    residual, report = deflate_once(ex_a1)
    assert report.orbit_before.orbit == "G2"
    assert report.orbit_after.orbit == "D3"
    assert report.pencil_after.kind == "DoubleRealDefective"
    assert abs(report.pencil_after.values[0] - 0.9185) < 5e-4
    assert report.residual_mlrank == (2, 2, 2)
    assert abs(report.psi - 2.6863) < 5e-5 * 2.6863


def test_deflate_example_two(ex_a2):
    _, report = deflate_once(ex_a2)
    assert report.orbit_before.orbit == "G3"
    assert report.orbit_after.orbit == "D3"
    assert report.pencil_after.kind == "DoubleRealDefective"
    assert abs(report.pencil_after.values[0] - 1.6712) < 5e-4


def test_deflate_symmetric_worked(sym_g3):
    residual, report = deflate_once(sym_g3)
    assert report.orbit_after.orbit == "D3"
    # residual pencil is exactly [0 1; -1 -2]
    a, b, c, d = residual.as_tuple()
    M = np.array([[b, c], [c, d]]) @ np.linalg.inv(np.array([[a, b], [b, c]]))
    np.testing.assert_allclose(M, [[0.0, 1.0], [-1.0, -2.0]], atol=1e-9)


def test_deflate_boundary_examples_drop_to_d2_family():
    for flat, expected in BOUNDARY_TO_D2:
        t = Tensor222.from_flat(flat)
        _, report = deflate_once(t)
        assert report.orbit_before.orbit == "D3"
        assert report.orbit_after.orbit == expected


def test_deflate_canonical_d3_stays_d3():
    _, report = deflate_once(canonical_form("D3"))
    assert report.orbit_after.orbit == "D3"


def _direction_search_psi(t: Tensor222) -> float:
    # psi over unit y = (cos a, sin a), z = (cos b, sin b): a 400x400 grid,
    # then Nelder-Mead from the best grid point
    angles = np.linspace(0.0, np.pi, 400, endpoint=False)
    Y = np.stack([np.cos(angles), np.sin(angles)])
    V = np.einsum("ijk,jn,km->inm", t.array, Y, Y)
    ia, ib = np.unravel_index(np.argmax((V ** 2).sum(axis=0)), (400, 400))

    def unit_psi(u):
        v = np.einsum("ijk,j,k->i", t.array, [np.cos(u[0]), np.sin(u[0])],
                      [np.cos(u[1]), np.sin(u[1])])
        return frobenius_norm_sq(t) - float(v @ v)

    return scipy.optimize.minimize(
        unit_psi, [angles[ia], angles[ib]], method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000}).fun


@pytest.mark.parametrize("seed, trial", [(0, 189), (1, 85), (1, 173), (4, 15), (4, 38)])
def test_deflate_once_subtracts_the_global_term_on_d3_inputs(seed, trial):
    # inputs on which the four-chart enumeration alone returns a
    # non-optimal term (psi 37.57 against 3.02e-4 for seed 4, trial 38)
    t = _sample_d3(_trial_rng(seed, trial))
    _, report = deflate_once(t)
    assert abs(report.psi - _direction_search_psi(t)) <= 1e-9 * frobenius_norm_sq(t)
    # the enumeration without the theta-grid cross-check finds it too
    enumerated = best_rank1_222(t, cross_check=False)
    assert abs(enumerated.psi - report.psi) <= 1e-12 * frobenius_norm_sq(t)


def _decisions(report):
    return (report.orbit_before.orbit, report.orbit_after.orbit, report.ties,
            tuple(report.residual_mlrank), report.pencil_before.kind, report.pencil_after.kind,
            report.warnings)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(-500, 500))
def test_deflate_once_decisions_do_not_change_with_scale(k):
    # every band is relative to the input's scale: 2^k X gets the labels,
    # ties, residual rank and pencil kinds of X, psi scales by 4^k, and
    # Delta by 16^k wherever that is finite.  The symmetric residual
    # subtracts y (x) y (x) y with y ~ 2^(k/3), which is not an exact
    # scaling, so its Delta, zero to round-off, is only checked for size.
    for seed in (3, 11):
        rng = np.random.default_rng(seed)
        x, s = rng.standard_normal(8), rng.standard_normal(4)
        for X, scaled in ((Tensor222.from_flat(x), Tensor222.from_flat(np.ldexp(x, k))),
                          (SymTensor222(*s), SymTensor222(*np.ldexp(s, k)))):
            _, ref = deflate_once(X)
            _, report = deflate_once(scaled)
            assert _decisions(report) == _decisions(ref)
            assert report.psi == math.ldexp(ref.psi, 2 * k)
            full = isinstance(X, Tensor222)
            for got, want in ((report.delta_before, ref.delta_before),
                              (report.delta_after, ref.delta_after if full else None)):
                if not math.isfinite(got):
                    continue
                if want is None:
                    assert abs(math.ldexp(got, -4 * k)) <= 1e-12 * max(abs(s)) ** 4
                else:
                    assert got == math.ldexp(want, 4 * k)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def test_experiment_generic_statistics():
    stats = experiment_generic(300, seed=123)
    assert stats.failures == 0
    assert stats.fraction_d3 >= 0.99
    assert stats.max_abs_delta_after <= 1e-6
    extras = dict(stats.extras)
    assert extras["fraction_mlrank_222"] >= 0.99


def test_experiment_generic_counts_certified_tables():
    # every Gaussian table is certified, and lists one point per real root of F
    stats = experiment_generic(200, seed=16)
    extras = dict(stats.extras)
    assert extras["certified_tables"] == 200 and extras["root_count_mismatches"] == 0
    assert stats.summary_dict()["certified_tables"] == 200


@pytest.mark.parametrize("experiment, sample", [
    (experiment_generic, lambda rng: Tensor222.from_flat(rng.standard_normal(8))),
    (experiment_symmetric, lambda rng: SymTensor222(*rng.standard_normal(4)))],
    ids=["generic", "symmetric"])
def test_experiment_rows_match_deflate_once(experiment, sample):
    # the stacked rows against the N = 1 reports of deflate_once, whose
    # term also comes from the enumeration (generic) or best_rank1_sym
    stats = experiment(200, seed=4)
    for trial, row in enumerate(stats.rows):
        t = sample(_trial_rng(4, trial))
        _, report = deflate_once(t)
        assert row["orbit_before"] == report.orbit_before.orbit
        assert row["orbit_after"] == report.orbit_after.orbit
        assert row["mlrank"] == "x".join(map(str, report.residual_mlrank))
        assert abs(row["psi"] - report.psi) <= 1e-12 * frobenius_norm_sq(t)


def test_trial_rngs_draw_what_trial_rng_draws(monkeypatch):
    for shape in (8, (2, 2, 2), (3, 3, 2)):
        for trial, rng in enumerate(_trial_rngs(5, 200)):
            np.testing.assert_array_equal(rng.standard_normal(shape),
                                          _trial_rng(5, trial).standard_normal(shape))
    # the D3 sampler draws a varying number of values per trial
    for trial, rng in enumerate(_trial_rngs(2, 50)):
        np.testing.assert_array_equal(_sample_d3(rng).array,
                                      _sample_d3(_trial_rng(2, trial)).array)
    # the d3 kind's stacked inputs, from each trial's first three draws, are
    # the sampler's, also for the trials with a draw above the cap
    blocks = np.array([rng.standard_normal((3, 2, 2)) for rng in _trial_rngs(0, 300)])
    assert not (np.linalg.cond(blocks) <= deflation.D3_COND_CAP).all()
    solved, stack = [], rank1._best_rank1_stack
    monkeypatch.setattr(rank1, "_best_rank1_stack", lambda X: solved.append(X) or stack(X))
    experiment_d3_closure(300, seed=0)
    np.testing.assert_array_equal(solved[0], [_sample_d3(_trial_rng(0, t)).array
                                              for t in range(300)])


def _orbit_representatives():
    rng = np.random.default_rng(12)
    tensors = []
    for orbit in ORBITS:
        tensors.append(canonical_form(orbit).array)
        for _ in range(6):
            S, T, U = rng.standard_normal((3, 2, 2))
            tensors.append(multilinear_transform(canonical_form(orbit), S, T, U).array)
    return np.stack(tensors)


def _same_pencil(got, want):
    # slab_pencil gives None for a singular pencil, and an EigenPair2 else
    if want is None:
        return got is None
    return (got.kind, got.values, got.eigenvector_count, got.gap) == \
        (want.kind, want.values, want.eigenvector_count, want.gap)


@pytest.mark.parametrize("tol, zero_scale", [(1e-9, None), (1e-6, 1e7)])
def test_stacked_report_matches_the_scalar_functions(tol, zero_scale):
    # the representatives A are the residuals; the inputs X are A itself or
    # constant tensors whose max|entry| is the zero scale of the residuals
    A = _orbit_representatives()
    X = A if zero_scale is None else np.full_like(A, zero_scale)
    band = max(tol, deflation.RESIDUAL_BAND)
    labels, margins, deltas, ranks = _reports(X, A, tol, band)
    pencils = _slab_pencils(A, 1e-6)
    n = len(A)
    for i, (x, arr) in enumerate(zip(X, A)):
        t = Tensor222(arr)
        before = classify(Tensor222(x), tol)
        after = classify(t, band, zero_scale=np.abs(x).max())
        report = _deflation_report(x, arr, 0.0, 1, (), tol, 1e-6)
        assert (labels[i], margins[i]) == (before.orbit, before.boundary_margin)
        assert (labels[n + i], margins[n + i]) == (after.orbit, after.boundary_margin)
        assert (deltas[i], deltas[n + i]) == (hyperdet(Tensor222(x)), hyperdet(t))
        assert tuple(ranks[i]) == multilinear_rank(Tensor222(x), _rank_tol(tol)).as_tuple()
        assert tuple(ranks[n + i]) == multilinear_rank(t, _rank_tol(band)).as_tuple()
        # each label carries the Delta and the rank it was decided from
        assert (before.delta, after.delta) == (deltas[i], deltas[n + i])
        assert (before.mlrank.as_tuple(), after.mlrank.as_tuple()) == \
            (tuple(ranks[i]), tuple(ranks[n + i]))
        assert _same_pencil(pencils[i], slab_pencil(t, 1e-6))
        # the N = 1 report is the stack's own case
        assert (report.orbit_before.orbit, report.orbit_before.boundary_margin) == \
            (before.orbit, before.boundary_margin)
        assert (report.orbit_after.orbit, report.orbit_after.boundary_margin) == \
            (after.orbit, after.boundary_margin)
        assert (report.delta_before, report.delta_after) == (deltas[i], deltas[n + i])
        assert report.residual_mlrank.as_tuple() == tuple(ranks[n + i])
        assert _same_pencil(report.pencil_before, slab_pencil(Tensor222(x), 1e-6))
        assert _same_pencil(report.pencil_after, slab_pencil(t, 1e-6))
    assert len(pencils) == n
    assert None in pencils and len(set(p.kind for p in pencils if p is not None)) == 4
    if zero_scale is not None:
        assert "D0" in labels[n + 1:]


def test_stacked_pencils_take_slab_pencils_order():
    # X2 X1^-1 overflows for the first tensor, and X1 is singular for the
    # second: slab_pencil takes X1 X2^-1 for both, and None without a slab
    slabs = [(1e-300 * np.eye(2), 1e300 * np.array([[1.0, 2.0], [3.0, 4.0]])),
             (np.zeros((2, 2)), np.array([[1.0, 2.0], [3.0, 4.0]])),
             (np.zeros((2, 2)), np.zeros((2, 2))),
             (np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]))]
    tensors = [Tensor222.from_slabs(*pair) for pair in slabs]
    pencils = _slab_pencils(np.stack([t.array for t in tensors]), DEFAULT_COINCIDENCE_TOL)
    for t, pencil in zip(tensors, pencils):
        assert _same_pencil(pencil, slab_pencil(t))
    assert pencils[2] is None and pencils[3].kind == "DoubleRealDefective"


def test_reports_validate_tol(capsys):
    # a deflation report checks tol through classify, on the library and CLI paths
    with pytest.raises(ValueError, match="tol must be positive"):
        deflate_once(Tensor222.from_flat([1, 2, 3, 4, 5, 6, 7, 9]), tol=0)
    assert main(["deflate", "--data=1,2,3,4,5,6,7,9", "--tol", "0"]) == 2
    assert "tol must be positive" in capsys.readouterr().err


def test_experiment_generic_reproducible():
    s1 = experiment_generic(50, seed=9)
    s2 = experiment_generic(50, seed=9)
    assert s1 == s2
    s3 = experiment_generic(50, seed=10)
    assert s3.rows != s1.rows


def test_experiment_generic_keeps_trials_whose_enumeration_raises(monkeypatch):
    enumerate_points = rank1.stationary_points_222

    def fails_on_trial_1(X):
        if np.array_equal(X, _slab_major(_trial_rng(0, 1).standard_normal(8))):
            raise ValueError("no stationary points")
        return enumerate_points(X)

    monkeypatch.setattr(rank1, "stationary_points_222", fails_on_trial_1)
    stats = experiment_generic(3, seed=0)
    assert stats.failure_reasons == ("trial 1: no stationary points",)
    assert [row["orbit_after"] for row in stats.rows] == ["D3", "error", "D3"]
    monkeypatch.setattr(rank1, "stationary_points_222",
                        lambda X: rank1.EnumerationResult((), 8))
    stats = experiment_generic(2, seed=0)
    assert stats.failures == 2 and stats.counts == (("error", 2),)


@pytest.mark.parametrize("experiment", [experiment_d3_closure, experiment_symmetric])
def test_stacked_experiments_name_the_unconverged_trial(monkeypatch, experiment):
    # a trial whose theta-grid refinement stops unconverged is named and
    # kept; the other rows are those of an unpatched run
    whole = experiment(4, seed=0)
    stack = rank1._best_rank1_stack

    def trial_2_unconverged(X):
        psi, x, y, z, converged, steps = stack(X)
        converged[2] = False
        return psi, x, y, z, converged, steps

    monkeypatch.setattr(rank1, "_best_rank1_stack", trial_2_unconverged)
    stats = experiment(4, seed=0)
    assert stats.failure_reasons == (f"trial 2: {rank1.NOT_CONVERGED}",)
    assert stats.rows[2] == dict(whole.rows[2], converged=False)
    assert dict(stats.extras)["converged"] == 3
    assert [r for n, r in enumerate(stats.rows) if n != 2] == \
        [r for n, r in enumerate(whole.rows) if n != 2]


def test_experiment_counts_sum_to_trials():
    for stats in (experiment_generic(30, seed=1), experiment_symmetric(30, seed=1),
                  experiment_d3_closure(30, seed=1), experiment_pxpx2(2, 30, seed=1)):
        assert sum(v for _, v in stats.counts) == stats.trials
        assert len(stats.rows) == stats.trials


def test_experiment_symmetric_statistics():
    stats = experiment_symmetric(300, seed=123)
    assert stats.failures == 0
    assert stats.fraction_d3 >= 0.99


def test_experiment_single_trial_worked_examples(sym_g3, sym_g2):
    for s in (sym_g3, sym_g2):
        _, report = deflate_once(s)
        assert report.orbit_after.orbit == "D3"
        assert abs(report.pencil_after.values[0] - (-1.0)) < 1e-8


def test_experiment_trials_validation():
    with pytest.raises(ValueError):
        experiment_generic(0)
    with pytest.raises(ValueError):
        experiment_symmetric(0, seed=1)
    with pytest.raises(ValueError):
        experiment_pxpx2(9, 10)


def test_experiment_d3_closure():
    stats = experiment_d3_closure(1000, seed=5)
    counts = dict(stats.counts)
    assert counts.get("D3", 0) >= 990  # supports, does not assert, closure


def test_experiment_pxpx2_p2_consistency():
    stats = experiment_pxpx2(2, 100, seed=21)
    extras = dict(stats.extras)
    assert extras["consistent_fraction"] >= 0.9


def test_experiment_pxpx2_p3():
    stats = experiment_pxpx2(3, 120, seed=31)
    extras = dict(stats.extras)
    assert extras["converged"] >= 110
    assert extras["coincident_pair_fraction"] >= 0.9
    assert extras["consistent_fraction"] >= 0.9


@pytest.mark.parametrize("p", [2, 3, 5])
def test_experiment_pxpx2_rows_match_each_trial_alone(p):
    stats = experiment_pxpx2(p, 12, seed=4)
    for trial, row in enumerate(stats.rows):
        X = _trial_rng(4, trial).standard_normal((p, p, 2))
        res = best_rank1_pxpx2(X)
        Z = X - res.term.tensor()
        before = spectrum_small(_quotient(X[..., 1], X[..., 0]), deflation.PAIRING_BAND)
        after = spectrum_small(_quotient(Z[..., 1], Z[..., 0]), deflation.PAIRING_BAND)
        assert row["psi"] == res.psi and row["converged"] == res.converged
        assert (row["complex_before"], row["complex_after"], row["coincident_pairs"]) == (
            before.n_complex_pairs, after.n_complex_pairs, after.n_coincident_real_pairs)


def test_theta_experiments_tally_their_refinement_steps():
    # every row holds its step count, the same as the trial solved alone,
    # and the summary tallies them; on the benchmark's pxpx2 inputs
    # (p = 3, seeds 1..10, 10 trials each) no trial needs more than 5 steps
    tally = {}
    for seed in range(1, 11):
        stats = experiment_pxpx2(3, 10, seed=seed)
        hist = stats.summary_dict()["theta_steps"]
        assert sum(hist.values()) == 10
        for trial, row in enumerate(stats.rows):
            X = _trial_rng(seed, trial).standard_normal((3, 3, 2))
            assert row["theta_steps"] == best_rank1_pxpx2(X).iterations
        for k, v in hist.items():
            tally[k] = tally.get(k, 0) + v
    assert max(tally) <= 5
    d3 = dict(experiment_d3_closure(40, seed=2).extras)["theta_steps"]
    assert sum(d3.values()) == 40 and min(d3) >= 1


def test_experiment_pxpx2_fails_only_the_trial_with_a_singular_slab(monkeypatch):
    whole = experiment_pxpx2(3, 6, seed=1)

    def singular_third(num, den):
        den = den.copy()
        den[2] = 0.0
        return _quotient(num, den)

    monkeypatch.setattr(deflation, "_quotient", singular_third)
    stats = experiment_pxpx2(3, 6, seed=1)
    assert stats.failures == 1
    assert [r.split(":")[0] for r in stats.failure_reasons] == ["trial 2"]
    assert stats.rows[2]["orbit_after"] == "error"
    assert [r for n, r in enumerate(stats.rows) if n != 2] == \
        [r for n, r in enumerate(whole.rows) if n != 2]


def test_experiment_pxpx2_solves_and_counts_as_stacks(monkeypatch):
    # one stacked solve and one eigenvalue call per spectrum stack (input
    # and residual) for the whole experiment, not one per trial
    calls = {"stack": 0, "eigvals": 0}
    stack, eigvals = rank1._best_rank1_stack, np.linalg.eigvals

    def counted(name, fn):
        def run(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return run

    monkeypatch.setattr(rank1, "_best_rank1_stack", counted("stack", stack))
    monkeypatch.setattr(np.linalg, "eigvals", counted("eigvals", eigvals))
    stats = experiment_pxpx2(3, 40)
    assert len(stats.rows) == 40
    assert calls == {"stack": 1, "eigvals": 2}


def test_experiment_gap_statistics():
    # the residual pencil gap collapses while the input pencil gap stays wide
    stats = experiment_generic(200, seed=77)
    gaps = [row["eigen_gap"] for row in stats.rows if row["eigen_gap"] is not None]
    frac_tight = np.mean([g <= 1e-4 for g in gaps])
    assert frac_tight >= 0.99
    before = []
    for trial in range(200):
        t = Tensor222.from_flat(_trial_rng(77, trial).standard_normal(8))
        g = _pencil_gap(slab_pencil(t, 1e-4))
        if g is not None:
            before.append(g)
    assert np.mean([g > 1e-2 for g in before]) >= 0.95


def test_trial_csv_round_trip(tmp_path):
    stats = experiment_generic(10, seed=3)
    path = tmp_path / "rows.csv"
    write_trial_csv(stats, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",")[:4] == ["trial", "seed", "orbit_before", "orbit_after"]
    assert len(lines) == 11


# ---------------------------------------------------------------------------
# deterministic degenerate-orbit checks
# ---------------------------------------------------------------------------

def test_check_d1_input():
    t = Tensor222.from_entries(2.5, 0, 0, 0, 0, 0, 0, 0)
    report = check_degenerate_props(t)
    assert report.orbit_before.orbit == "D1"
    assert report.orbit_after.orbit == "D0"
    assert report.psi < 1e-20


def test_check_d2_scaled_input():
    t = Tensor222.from_entries(3.0, 0, 0, 1.5, 0, 0, 0, 0)
    report = check_degenerate_props(t)
    assert report.orbit_before.orbit == "D2"
    assert report.orbit_after.orbit == "D1"
    assert abs(report.psi - 1.5 ** 2) < 1e-10


def test_check_d2_rotated_input():
    rng = np.random.default_rng(8)
    Q = [np.linalg.qr(rng.standard_normal((2, 2)))[0] for _ in range(3)]
    t = multilinear_transform(canonical_form("D2p"), *Q)
    report = check_degenerate_props(t)
    assert report.orbit_before.orbit == "D2p"
    assert report.orbit_after.orbit == "D1"


def test_check_diagonal_slab_unequal():
    t = Tensor222.from_entries(1, 0, 0, 3, 2, 0, 0, 4)
    report = check_degenerate_props(t)
    assert report.orbit_after.orbit == "D1"
    assert abs(report.psi - 5.0) < 1e-12   # a^2 + e^2 = 1 + 4
    assert report.ties == 1


def test_check_diagonal_slab_tied_family():
    # a^2 + e^2 = d^2 + h^2 with ah = de: three closed-form optima tie
    t = Tensor222.from_entries(1, 0, 0, 1, 2, 0, 0, 2)
    report = check_degenerate_props(t)
    assert report.orbit_after.orbit == "D1"
    assert report.ties == 3


@settings(max_examples=60, deadline=None)
@given(k=st.integers(-500, 500))
def test_check_degenerate_props_does_not_change_with_scale(k):
    # the family, tie and rank bands are relative to the input's scale
    for entries, ties in (((1, 0, 0, 2, 0.5, 0, 0, 0.3), 1), ((1, 0, 0, 1, 2, 0, 0, 2), 3),
                          ((3.0, 0, 0, 1.5, 0, 0, 0, 0), 1), ((2.5, 0, 0, 0, 0, 0, 0, 0), 1)):
        ref = check_degenerate_props(Tensor222.from_flat(entries))
        report = check_degenerate_props(Tensor222.from_flat(np.ldexp(entries, k)))
        assert report.ties == ref.ties == ties
        assert (report.orbit_before.orbit, report.orbit_after.orbit, report.residual_mlrank) == \
            (ref.orbit_before.orbit, ref.orbit_after.orbit, ref.residual_mlrank)
        assert report.psi == math.ldexp(ref.psi, 2 * k)


@pytest.mark.parametrize("k", [-600, -520, 520, 600])
def test_check_degenerate_props_where_psi_saturates(k):
    # the candidates' psis and the tie bound are taken on X / 2^e, so one
    # best candidate stays one tie where psi reads inf or 0
    entries = (1, 0, 0, 0, 0, 0, 0, 2)
    ref = check_degenerate_props(Tensor222.from_flat(entries))
    report = check_degenerate_props(Tensor222.from_flat(np.ldexp(entries, k)))
    assert report.ties == ref.ties == 1
    assert report.orbit_after.orbit == "D1"
    assert report.psi == _ldexp(ref.psi, 2 * k)


def test_check_inapplicable_input(ex_a1):
    with pytest.raises(DomainError):
        check_degenerate_props(ex_a1)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_experiment_pxpx2_counts_the_real_eigenvalues_of_a_gaussian_pencil(p):
    # E[#real eigenvalues] of a p x p Gaussian pencil is
    # sqrt(pi) Gamma((p + 1)/2) / Gamma(p/2) (Edelman, Kostlan & Shub 1994),
    # here p - 2 complex_before, within 5 standard errors
    rows = experiment_pxpx2(p, 2000, seed=7).rows
    real = np.array([p - 2 * r["complex_before"] for r in rows])
    expected = math.sqrt(math.pi) * math.gamma((p + 1) / 2) / math.gamma(p / 2)
    assert abs(real.mean() - expected) <= 5.0 * real.std(ddof=1) / math.sqrt(len(real))


def test_experiment_generic_labels_a_share_pi_over_4_of_gaussian_tensors_g2():
    # a Gaussian 2x2x2 tensor has Delta > 0, orbit G2, with probability pi/4
    # (De Silva & Lim 2008), here within 5 standard errors
    rows = experiment_generic(3000, seed=7).rows
    share = sum(r["orbit_before"] == "G2" for r in rows) / len(rows)
    expected = math.pi / 4.0
    assert abs(share - expected) <= 5.0 * math.sqrt(expected * (1.0 - expected) / len(rows))
