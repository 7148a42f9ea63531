"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines as the
criteria execute.  Tolerances are pinned here and nowhere else.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import scipy.optimize

import tensorbit as tb
from tensorbit.cli import main as cli_main
from tensorbit.deflation import _trial_rng
from tensorbit.rank1 import (boundary_match_poly, boundary_only_quadratic,
                             chart_consistency_poly, stationary_poly,
                             stationarity_quadratics, zero_factor_quadratic)
from conftest import (BOUNDARY_TO_D2, EXAMPLE_A1, EXAMPLE_A2, KHL, SYM_G2, SYM_G3,
                      TABLE_A1, TABLE_A2, WORKED_G2, WORKED_G3)

pv = np.polynomial.polynomial.polyval

# psi values in the reference tables are truncated to four decimals, so
# the psi comparison is relative; coordinates are compared absolutely as
# printed
PSI_RTOL = 5e-5
COORD_ATOL = 5e-4


@contextmanager
def criterion(num, text):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:02d} FAIL: {text}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def _rank1_json(flat):
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    data = ",".join(repr(float(v)) for v in flat)
    with redirect_stdout(buf):
        code = cli_main(["rank1", f"--data={data}", "--method", "enumerate", "--json"])
    assert code == 0
    return json.loads(buf.getvalue())


def _check_table(payload, table, norm_sq, delta):
    rows = payload["stationary_points"]
    for y2, z2, value, pd, degen in table:
        row = min(rows, key=lambda r: abs(r["y2"] - y2) + abs(r["z2"] - z2))
        assert abs(row["y2"] - y2) <= COORD_ATOL and abs(row["z2"] - z2) <= COORD_ATOL
        assert abs(row["psi"] - value) <= PSI_RTOL * max(1.0, abs(value))
        assert row["hessian_pd"] == pd
        assert row["degenerate"] == degen
        if degen:
            assert abs(row["delta_residual"] - delta) <= 5e-4
        else:
            assert abs(row["delta_residual"]) <= 1e-9


def test_criterion_01_example_one_table():
    with criterion(1, "first reference stationary-point table reproduced"):
        t = tb.Tensor222.from_flat(EXAMPLE_A1)
        start = time.perf_counter()
        enum = tb.stationary_points_222(t)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.1, f"enumeration took {elapsed:.3f}s"
        payload = _rank1_json(EXAMPLE_A1)
        assert len(payload["stationary_points"]) == 6
        _check_table(payload, TABLE_A1, tb.frobenius_norm_sq(t), 2.7668)
        pd_rows = [r for r in payload["stationary_points"] if r["hessian_pd"]]
        assert len(pd_rows) == 1
        assert abs(pd_rows[0]["psi"] - 2.6863) <= PSI_RTOL * 2.6863


def test_criterion_02_example_two_table():
    with criterion(2, "second reference stationary-point table reproduced"):
        payload = _rank1_json(EXAMPLE_A2)
        assert len(payload["stationary_points"]) == 4
        t = tb.Tensor222.from_flat(EXAMPLE_A2)
        _check_table(payload, TABLE_A2, tb.frobenius_norm_sq(t), None)
        assert abs(payload["psi"] - 3.1185) <= PSI_RTOL * 3.1185
        assert abs(tb.hyperdet(t) - (-2.7309)) <= 5e-4
        global_row = min(payload["stationary_points"], key=lambda r: r["psi"])
        assert global_row["hessian_pd"]
        assert abs(global_row["y2"] - 0.995675) <= COORD_ATOL
        assert abs(global_row["z2"] - (-0.598339)) <= COORD_ATOL


def test_criterion_03_deflation_double_eigenvalues():
    with criterion(3, "residual pencils acquire the reference double eigenvalues"):
        for flat, value in ((EXAMPLE_A1, 0.9185), (EXAMPLE_A2, 1.6712)):
            _, report = tb.deflate_once(tb.Tensor222.from_flat(flat))
            pencil = report.pencil_after
            assert pencil.kind == "DoubleRealDefective"
            assert pencil.eigenvector_count == 1
            assert abs(pencil.values[0] - value) <= 5e-4


def test_criterion_04_symmetric_examples():
    with criterion(4, "symmetric worked examples: psi, residuals, eigenvalues"):
        s3 = tb.SymTensor222(*SYM_G3)
        res3 = tb.best_rank1_sym(s3)
        assert abs(res3.psi - 1.5) <= 1e-10
        resid3 = s3.rank1_update(res3.term.y, -1.0)
        np.testing.assert_allclose(resid3.as_tuple(),
                                   (-0.75, 0.25, 0.25, -0.75), atol=1e-10)
        _, rep3 = tb.deflate_once(s3)
        assert rep3.pencil_after.kind == "DoubleRealDefective"
        assert abs(rep3.pencil_after.values[0] - (-1.0)) <= 1e-8

        s2 = tb.SymTensor222(*SYM_G2)
        res2 = tb.best_rank1_sym(s2)
        np.testing.assert_allclose(res2.term.y, np.cbrt(1.5) * np.ones(2), atol=1e-10)
        _, rep2 = tb.deflate_once(s2)
        assert rep2.pencil_after.kind == "DoubleRealDefective"
        assert abs(rep2.pencil_after.values[0] - (-1.0)) <= 1e-8


def test_criterion_05_worked_deflations():
    with criterion(5, "worked deflations land on the reference residuals/orbits"):
        t = tb.Tensor222.from_flat(WORKED_G2[0])
        res = tb.best_rank1_222(t)
        np.testing.assert_allclose(t.array - res.term.tensor(),
                                   tb.Tensor222.from_flat(WORKED_G2[1]).array, atol=1e-8)
        np.testing.assert_allclose(t.array - res.term.tensor(),
                                   tb.canonical_form("D3").array, atol=1e-8)
        t = tb.Tensor222.from_flat(WORKED_G3[0])
        res = tb.best_rank1_222(t)
        np.testing.assert_allclose(t.array - res.term.tensor(),
                                   tb.Tensor222.from_flat(WORKED_G3[1]).array, atol=1e-8)
        for flat, orbit in BOUNDARY_TO_D2:
            _, report = tb.deflate_once(tb.Tensor222.from_flat(flat))
            assert report.orbit_after.orbit == orbit
        for entries in ((1, 3, 2, 4), (1, 2, 2, 1.5), (-2, 1, 0.5, 3)):
            a_, d_, e_, h_ = entries
            t = tb.Tensor222.from_entries(a_, 0, 0, d_, e_, 0, 0, h_)
            report = tb.check_degenerate_props(t)
            assert report.orbit_after.orbit == "D1"


def test_criterion_06_monte_carlo_theorems():
    with criterion(6, "1000-trial experiments: >=99% D3 residuals inside 10 s"):
        start = time.perf_counter()
        gen = tb.experiment_generic(1000, seed=2024)
        sym = tb.experiment_symmetric(1000, seed=2024)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"experiments took {elapsed:.1f}s"
        for stats in (gen, sym):
            assert stats.fraction_d3 >= 0.99
            d3_rows = [r for r in stats.rows if r["orbit_after"] == "D3"]
            frac_delta = np.mean([abs(r["delta_after_scaled"]) <= 1e-6 for r in d3_rows])
            frac_mlr = np.mean([r["mlrank"] == "2x2x2" for r in d3_rows])
            assert frac_delta >= 0.99 and frac_mlr >= 0.99


def test_criterion_07_oracle_equivalence():
    with criterion(7, "enumeration agrees with iterative and grid oracles"):
        for seed in range(100):
            t = tb.Tensor222.from_flat(_trial_rng(909, seed).standard_normal(8))
            res_e = tb.best_rank1_222(t, cross_check=False)
            res_h = tb.hopm(t, max_iter=3000, tol=1e-15)
            assert abs(res_e.psi - res_h.psi) <= 1e-6 * max(1.0, res_e.psi)
        # grid over factor directions (angles cover every chart, including
        # optima with large chart coordinates)
        alphas = np.linspace(0.0, np.pi, 400, endpoint=False)
        betas = np.linspace(0.0, np.pi, 400, endpoint=False)
        Y = np.stack([np.cos(alphas), np.sin(alphas)])
        Z = np.stack([np.cos(betas), np.sin(betas)])
        for seed in range(10):
            t = tb.Tensor222.from_flat(_trial_rng(707, seed).standard_normal(8))
            res_e = tb.best_rank1_222(t, cross_check=False)
            V = np.einsum("ijk,jn,km->inm", t.array, Y, Z)
            grid = tb.frobenius_norm_sq(t) - (V ** 2).sum(axis=0)
            ia, ib = np.unravel_index(np.argmin(grid), grid.shape)
            assert grid[ia, ib] >= res_e.psi - 1e-9
            assert grid[ia, ib] - res_e.psi <= 1e-2

            def unit_psi(u):
                yv = np.array([np.cos(u[0]), np.sin(u[0])])
                zv = np.array([np.cos(u[1]), np.sin(u[1])])
                v = np.einsum("ijk,j,k->i", t.array, yv, zv)
                return tb.frobenius_norm_sq(t) - float(v @ v)

            refined = scipy.optimize.minimize(
                unit_psi, [alphas[ia], betas[ib]], method="Nelder-Mead",
                options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000})
            assert abs(refined.fun - res_e.psi) <= 1e-6


def test_criterion_08_identity_spot_checks():
    with criterion(8, "resultant quotient identities and the cubic discriminant"):
        for seed in range(20):
            t = tb.Tensor222.from_flat(_trial_rng(808, seed).standard_normal(8))
            p_stat_z = stationary_poly(t, "z")
            p_eig1_z = boundary_match_poly(t, 1, "z")
            p_eig2_z = boundary_match_poly(t, 2, "z")
            p_stat_y = stationary_poly(t, "y")
            p_eig1_y = boundary_match_poly(t, 1, "y")
            p_eig2_y = boundary_match_poly(t, 2, "y")
            p_com = chart_consistency_poly(t)
            nz, dz = zero_factor_quadratic(t, "z"), boundary_only_quadratic(t, "z")
            ny, dy = zero_factor_quadratic(t, "y"), boundary_only_quadratic(t, "y")
            (A1z, _, _), _ = stationarity_quadratics(t, "z")
            pts = _trial_rng(809, seed).standard_normal(50) * 2.0
            for u in pts:
                def close(x, y_):
                    return abs(x - y_) <= 1e-8 * max(1.0, abs(x), abs(y_))
                assert close(pv(u, p_stat_z), pv(u, p_eig1_z))
                assert close(pv(u, p_stat_z) * pv(u, dz), pv(u, p_eig2_z) * pv(u, nz))
                assert close(pv(u, p_stat_y), pv(u, p_eig2_y))
                assert close(pv(u, p_stat_y) * pv(u, dy), pv(u, p_eig1_y) * pv(u, ny))
                assert close(pv(u, p_stat_z) * pv(u, A1z), pv(u, p_com) * pv(u, nz))
        checked = 0
        seed = 0
        while checked < 100:
            seed += 1
            s = tb.SymTensor222(*_trial_rng(811, seed).standard_normal(4))
            if tb.classify_sym(s).orbit != "G3":
                continue
            form = tb.canonicalize_sym_form(s)
            if not form.normalizable:
                continue
            checked += 1
            c3, c2, c1, c0 = form.d, -3.0, 3.0, -form.a
            disc = (18 * c3 * c2 * c1 * c0 - 4 * c2 ** 3 * c0 + c2 ** 2 * c1 ** 2
                    - 4 * c3 * c1 ** 3 - 27 * c3 ** 2 * c0 ** 2)
            delta = tb.hyperdet_sym(tb.SymTensor222(form.a, 1, 1, form.d))
            assert abs(disc - (-27.0) * delta) <= 1e-8 * max(1.0, abs(disc))


def test_criterion_09_canonical_transform_round_trips():
    with criterion(9, "canonical-form transforms reach 500 G3 and 500 boundary inputs"):
        shear = tb.transform_from_canonical_D3(0.0, 0.75)
        np.testing.assert_allclose(shear.S, [[1.0, 0.0], [0.5, 1.0]], atol=1e-12)

        done = 0
        seed = 0
        while done < 500:
            seed += 1
            s = tb.SymTensor222(*_trial_rng(901, seed).standard_normal(4))
            if tb.classify_sym(s).orbit != "G3":
                continue
            done += 1
            tr = tb.canonical_transform(s)
            scale = max(abs(v) for v in s.as_tuple())
            assert tr.residual <= 1e-6 * max(1.0, scale)
            assert abs(np.linalg.det(tr.S)) > 1e-10

        done = 0
        seed = 0
        skipped = 0
        while done < 500:
            seed += 1
            s = tb.SymTensor222(*_trial_rng(902, seed).standard_normal(4))
            enum = tb.stationary_points_sym(s)
            best = enum[0]
            z = s.rank1_update(best.y, -1.0)
            if tb.classify_sym(z, 1e-6).orbit != "D3":
                skipped += 1
                continue
            done += 1
            tr = tb.canonical_transform(z)
            scale = max(abs(v) for v in z.as_tuple())
            assert tr.residual <= 1e-6 * max(1.0, scale)
            assert abs(np.linalg.det(tr.S)) > 1e-10
        assert skipped <= 20


def test_criterion_10_sylvester_agreement_and_infinite_best():
    with criterion(10, "Sylvester rank matches the pencil; orthogonal-pencil tensor"):
        rank_of = {"D0": 0, "D1": 1, "G2": 2, "D3": 3, "G3": 3}
        for seed in range(1000):
            s = tb.SymTensor222(*_trial_rng(1001, seed).standard_normal(4))
            rank, _ = tb.sylvester_rank(s)
            assert rank == rank_of[tb.classify_sym(s).orbit]
        khl = tb.Tensor222.from_flat(KHL)
        assert tb.detect_infinite_best(khl)
        rng = np.random.default_rng(5)
        for _ in range(20):
            y, z = rng.standard_normal((2, 2))
            x = tb.optimal_x(khl, y, z)
            assert abs(tb.psi(khl, tb.Rank1Term(x, y, z)) - 3.0) <= 1e-10


def test_criterion_11_pxpx2_conjecture_support():
    with criterion(11, "pxpx2 deflation spectra support the eigenvalue conjecture"):
        stats = tb.experiment_pxpx2(3, 500, seed=888)
        again = tb.experiment_pxpx2(3, 500, seed=888)
        assert stats == again  # deterministic harness
        extras = dict(stats.extras)
        assert extras["converged"] >= 450
        assert extras["coincident_pair_fraction"] >= 0.99
        assert extras["complex_decrement_fraction"] >= 0.99
        assert extras["consistent_fraction"] >= 0.99
        # failures, if any, are itemized one line per trial
        assert len(stats.failure_reasons) == (stats.failures
                                              + (500 - extras["converged"]))
        print(f"  coincident-pair fraction: {extras['coincident_pair_fraction']:.3f}, "
              f"complex-decrement fraction: {extras['complex_decrement_fraction']:.3f}, "
              f"converged: {extras['converged']}/500")
