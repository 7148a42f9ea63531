import io
import itertools
import math
import sys
import warnings
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorbit import (Rank1Term, Tensor222, TensorPxPx2, best_rank1_222, best_rank1_pxpx2,
                       canonical_form, detect_infinite_best, frobenius_norm_sq, hopm,
                       hyperdet, multilinear_transform, optimal_x, psi, psi_surface,
                       stationary_points_222, stationary_points_sym)
from tensorbit import deflation, rank1, smallalg
from tensorbit.rank1 import NOT_CONVERGED, _best_rank1_stack
from tensorbit.tensors import unit_scaled
from conftest import (BOUNDARY_TO_D2, KHL, TABLE_A1, TABLE_A2, WORKED_G2, WORKED_G3,
                      random_sym, random_tensor, run_at_baseline_dispatch)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import reference  # noqa: E402  (the benchmark's independent SVD bisection solver)


# ---------------------------------------------------------------------------
# criterion and the closed-form mode-1 factor
# ---------------------------------------------------------------------------

def test_psi_zero_term_is_norm():
    t = random_tensor(0)
    zero = Rank1Term(np.zeros(2), np.zeros(2), np.zeros(2))
    assert abs(psi(t, zero) - frobenius_norm_sq(t)) < 1e-14


def test_psi_matches_entrywise_residual():
    rng = np.random.default_rng(1)
    for _ in range(20):
        t = Tensor222.from_flat(rng.standard_normal(8))
        term = Rank1Term(*rng.standard_normal((3, 2)))
        direct = float(((t.array - term.tensor()) ** 2).sum())
        assert abs(psi(t, term) - direct) < 1e-12 * (1 + direct)


def test_psi_constant_for_orthogonal_pencil_tensor(khl):
    rng = np.random.default_rng(2)
    for _ in range(10):
        y, z = rng.standard_normal((2, 2))
        x = optimal_x(khl, y, z)
        assert abs(psi(khl, Rank1Term(x, y, z)) - 3.0) < 1e-10


def test_optimal_x_recovers_rank1():
    u = np.array([2.0, -1.0])
    v = np.array([0.5, 1.5])
    w = np.array([-1.0, 0.25])
    t = Tensor222(Rank1Term(u, v, w).tensor())
    np.testing.assert_allclose(optimal_x(t, v, w), u, atol=1e-12)


def test_optimal_x_zero_vector_rejected():
    t = random_tensor(3)
    with pytest.raises(ValueError):
        optimal_x(t, np.zeros(2), np.ones(2))


def test_optimal_x_vanishes_at_degenerate_points(ex_a1):
    x = optimal_x(ex_a1, [1.0, 1.17156], [1.0, 1.15843])
    assert np.linalg.norm(x) < 1e-4  # reference digits only carry 6 figures


@pytest.mark.parametrize("seed", range(10))
def test_optimal_x_is_stationary_in_x(seed):
    rng = np.random.default_rng(seed)
    t = random_tensor(seed + 40)
    y, z = rng.standard_normal((2, 2))
    x = optimal_x(t, y, z)
    h = 1e-6
    for i in range(2):
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        deriv = (psi(t, Rank1Term(xp, y, z)) - psi(t, Rank1Term(xm, y, z))) / (2 * h)
        assert abs(deriv) < 1e-6


# ---------------------------------------------------------------------------
# stationary point enumeration against the reference tables
# ---------------------------------------------------------------------------

def _match_row(points, y2, z2):
    return min(points, key=lambda p: abs(p.y2 - y2) + abs(p.z2 - z2))


def test_enumeration_example_one(ex_a1):
    enum = stationary_points_222(ex_a1)
    assert len(enum) == 6
    assert enum.n_complex == 2
    for y2, z2, value, pd, degen in TABLE_A1:
        pt = _match_row(enum.points, y2, z2)
        assert abs(pt.y2 - y2) < 5e-4 and abs(pt.z2 - z2) < 5e-4
        assert abs(pt.psi - value) < 5e-5 * max(1.0, abs(value))
        assert pt.hessian_pd == pd
        assert pt.degenerate == degen
        if degen:
            assert abs(pt.delta_residual - 2.7668) < 5e-4
            assert abs(pt.psi - frobenius_norm_sq(ex_a1)) < 1e-10
        else:
            assert abs(pt.delta_residual) < 1e-9


def test_enumeration_example_two(ex_a2):
    enum = stationary_points_222(ex_a2)
    assert len(enum) == 4
    assert enum.n_complex == 4
    for y2, z2, value, pd, degen in TABLE_A2:
        pt = _match_row(enum.points, y2, z2)
        assert abs(pt.y2 - y2) < 5e-4 and abs(pt.z2 - z2) < 5e-4
        assert abs(pt.psi - value) < 5e-5 * max(1.0, abs(value))
        assert pt.hessian_pd == pd
        assert not pt.degenerate
        assert abs(pt.delta_residual) < 1e-9


def test_enumeration_near_rank1_matches_grid(ex_a1):
    rng = np.random.default_rng(7)
    e1 = np.array([1.0, 0.0])
    t = Tensor222(Rank1Term(e1, e1, e1).tensor() + 1e-3 * rng.standard_normal((2, 2, 2)))
    enum = stationary_points_222(t)
    best = min((p for p in enum.points if not p.degenerate), key=lambda p: p.psi)
    assert best.psi < 1e-5
    # dense grid oracle over the chart
    ys = np.linspace(-4, 4, 161)
    zs = np.linspace(-4, 4, 161)
    grid = psi_surface(t, ys[:, None], zs[None, :])
    assert grid.min() >= best.psi - 1e-10
    iy, iz = np.unravel_index(np.argmin(grid), grid.shape)
    assert abs(ys[iy] - best.y2) < 0.1 and abs(zs[iz] - best.z2) < 0.1
    # rank 1 plus a relative perturbation: at 1e-7 the stationarity
    # polynomial is well above round-off and the optimum is listed; at 1e-9
    # it is round-off, and the enumeration refuses
    rng = np.random.default_rng(2)
    base = Rank1Term(*rng.standard_normal((3, 2))).tensor()
    noise = np.linalg.norm(base) * rng.standard_normal((2, 2, 2))
    near = Tensor222(base + 1e-7 * noise)
    grid = best_rank1_pxpx2(near).psi
    best = min(p.psi for p in stationary_points_222(near) if not p.degenerate)
    assert abs(best - grid) <= 1e-12 * frobenius_norm_sq(near)
    res = best_rank1_222(near, cross_check=False)
    assert res.method == "enumerate" and not res.warnings
    closer = Tensor222(base + 1e-9 * noise)
    with pytest.raises(ValueError, match="round-off"):
        stationary_points_222(closer)
    res = best_rank1_222(closer, cross_check=False)
    assert res.method == "theta"
    assert abs(res.psi - best_rank1_pxpx2(closer).psi) <= 1e-12 * frobenius_norm_sq(closer)


def test_resultant_roots_match_table_column(ex_a1):
    # the z-side resultant's real roots are exactly the table's z2 column
    from tensorbit.rank1 import stationary_poly
    from tensorbit.smallalg import is_real_root
    rs = np.roots(stationary_poly(ex_a1, "z")[::-1])
    reals = np.sort(rs.real[is_real_root(rs)])
    expected = sorted([-1.08855, 0.621735, 0.452035, -2.88759, -0.05296, 1.15843])
    assert len(reals) == 6
    np.testing.assert_allclose(reals, expected, atol=5e-4)


def test_enumeration_satisfies_first_order_conditions(ex_a1):
    from tensorbit.rank1 import stationarity_quadratics
    (A1, B1, C1), (A2, B2, C2) = stationarity_quadratics(ex_a1, "z")
    pv = np.polynomial.polynomial.polyval
    for pt in stationary_points_222(ex_a1).points:
        f1 = pv(pt.z2, A1) * pt.y2 ** 2 + pv(pt.z2, B1) * pt.y2 + pv(pt.z2, C1)
        f2 = pv(pt.z2, A2) * pt.y2 ** 2 + pv(pt.z2, B2) * pt.y2 + pv(pt.z2, C2)
        assert abs(f1) < 1e-8 and abs(f2) < 1e-8


@pytest.mark.parametrize("seed", range(50))
def test_six_dimensional_gradient_vanishes(seed):
    t = random_tensor(seed + 500)
    scale = frobenius_norm_sq(t)
    for pt in stationary_points_222(t).points:
        term = pt.term()
        vecs = [term.x.copy(), np.array([1.0, pt.y2]), np.array([1.0, pt.z2])]
        h = 1e-6
        for vi in range(3):
            for ci in range(2):
                vp = [v.copy() for v in vecs]
                vm = [v.copy() for v in vecs]
                vp[vi][ci] += h
                vm[vi][ci] -= h
                d = (psi(t, Rank1Term(*vp)) - psi(t, Rank1Term(*vm))) / (2 * h)
                assert abs(d) < 1e-5 * (1.0 + scale)


@pytest.mark.parametrize("block", range(10))
def test_boundary_and_degenerate_structure_random(block):
    # non-degenerate stationary points sit on the Delta(X - Y) = 0 locus;
    # degenerate ones exist iff Delta(X) > 0 and carry psi = ||X||^2
    # (1000 tensors in ten blocks)
    rng = np.random.default_rng(700 + block)
    for _ in range(100):
        t = Tensor222.from_flat(rng.standard_normal(8))
        delta = hyperdet(t)
        norm_sq = frobenius_norm_sq(t)
        scale = max(abs(v) for v in t.entries) ** 4
        enum = stationary_points_222(t)
        degen = [p for p in enum.points if p.degenerate]
        for p in enum.points:
            if p.degenerate:
                assert np.linalg.norm(p.x) <= 1e-8 * (1 + np.sqrt(norm_sq))
                assert abs(p.psi - norm_sq) <= 1e-8 * (1 + norm_sq)
            else:
                assert abs(p.delta_residual) <= 1e-8 * max(1.0, scale)
        if delta > 1e-6:
            assert len(degen) == 2
        elif delta < -1e-6:
            assert not degen


@pytest.mark.parametrize("seed", [299, 704, 931])
def test_hessian_flag_at_a_minimum_far_out_in_the_chart(seed):
    # the global minimum sits at |y2| ~ 600 or |z2| ~ 1000, where a
    # finite-difference Hessian test in the chart reads it as indefinite
    t = Tensor222.from_flat(np.random.default_rng(seed).standard_normal(8))
    best = min(stationary_points_222(t).points, key=lambda p: p.psi)
    assert max(abs(best.y2), abs(best.z2)) > 500
    assert abs(best.psi - best_rank1_pxpx2(t).psi) <= 1e-12 * frobenius_norm_sq(t)
    assert best.hessian_pd


def test_global_optimum_components_nonzero():
    # the optimum generically keeps every factor component away from zero
    worst = np.inf
    for seed in range(200):
        t = random_tensor(seed + 900)
        res = best_rank1_222(t, cross_check=False)
        comps = np.concatenate([res.term.x, res.term.y, res.term.z])
        worst = min(worst, np.min(np.abs(comps)))
    assert worst > 1e-8


# ---------------------------------------------------------------------------
# global best, worked deflations, covariance
# ---------------------------------------------------------------------------

def test_best_rank1_example_one(ex_a1):
    res = best_rank1_222(ex_a1)
    assert abs(res.psi - 2.6863) < 5e-5 * 2.6863
    assert res.multiplicity == 1
    assert res.method == "enumerate"


def test_best_rank1_worked_g2():
    t = Tensor222.from_flat(WORKED_G2[0])
    res = best_rank1_222(t)
    residual = t.array - res.term.tensor()
    np.testing.assert_allclose(residual.ravel(),
                               Tensor222.from_flat(WORKED_G2[1]).array.ravel(), atol=1e-8)
    # the optimum y = z = e_2 is a flat maximum of lambda (a triple root of
    # lambda'), which the enumeration lists by itself
    assert min(abs(p.psi - 3.0) for p in stationary_points_222(t)) <= 1e-12
    alone = best_rank1_222(t, cross_check=False)
    assert abs(alone.psi - 3.0) <= 1e-12 and alone.method == "enumerate"


def test_best_rank1_worked_g3():
    t = Tensor222.from_flat(WORKED_G3[0])
    res = best_rank1_222(t)
    residual = t.array - res.term.tensor()
    np.testing.assert_allclose(residual.ravel(),
                               Tensor222.from_flat(WORKED_G3[1]).array.ravel(), atol=1e-8)


def test_best_rank1_boundary_examples_replace_the_two():
    for flat, _ in BOUNDARY_TO_D2:
        t = Tensor222.from_flat(flat)
        res = best_rank1_222(t)
        residual = t.array - res.term.tensor()
        expected = np.where(np.abs(t.array) > 1.5, 0.0, t.array)
        np.testing.assert_allclose(residual, expected, atol=1e-8)


@pytest.mark.parametrize("k", [0, 1])
def test_best_rank1_zero_mode3_slab(k):
    # for X = M (x) e_k both stationarity quadratics share both partner
    # roots in one chart; the optimum keeps sigma_1 of M, psi = sigma_2^2
    rng = np.random.default_rng(11)
    for _ in range(20):
        arr = np.zeros((2, 2, 2))
        arr[:, :, k] = rng.standard_normal((2, 2))
        sigma = np.linalg.svd(arr[:, :, k], compute_uv=False)
        res = best_rank1_222(Tensor222(arr), cross_check=False)
        assert abs(res.psi - sigma[1] ** 2) <= 1e-9 * sigma[0] ** 2


def test_enumeration_lists_each_point_once():
    # X = M (x) e_1: the resultant has the exact double root z2 = 0, and the
    # two stationary points are the singular pairs of M
    arr = np.zeros((2, 2, 2))
    arr[:, :, 0] = np.random.default_rng(3).standard_normal((2, 2))
    sigma = np.linalg.svd(arr[:, :, 0], compute_uv=False)
    points = stationary_points_222(Tensor222(arr))
    np.testing.assert_allclose([p.psi for p in points], [sigma[1] ** 2, sigma[0] ** 2],
                               rtol=0, atol=1e-12 * sigma[0] ** 2)


def _near_rank1(seed, eps):
    rng = np.random.default_rng(seed)
    base = Rank1Term(*rng.standard_normal((3, 2))).tensor()
    return Tensor222(base + eps * np.linalg.norm(base) * rng.standard_normal((2, 2, 2)))


def _hard_corpora():
    """Inputs whose roots of F crowd together or coincide: near rank 1, the
    residuals of Gaussian deflations (on Delta = 0, orbit D3), and the
    nonzero integer tensors with entries in -1..1 up to sign, as X and -X
    have one table."""
    near = [_near_rank1(seed, eps).array for seed in range(400) for eps in (1e-6, 1e-5, 1e-4, 1e-3)]
    rng = np.random.default_rng(77)
    residuals = [deflation._enumerated_step(rng.standard_normal((2, 2, 2)))[2] for _ in range(300)]
    grid = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=8)))
    first = grid[np.arange(len(grid)), (grid != 0.0).argmax(axis=1)]
    integer = grid[first > 0.0].reshape(-1, 2, 2, 2)
    return {"near": np.array(near), "residual": np.array(residuals), "integer": integer}


def _hard_inputs():
    """The `_hard_corpora` as one stack."""
    return np.concatenate(list(_hard_corpora().values()))


def _separation(enum):
    """The smallest distance between two points of a table as unit pairs
    y (x) z up to sign."""
    yz = np.array([np.outer([1.0, p.y2], [1.0, p.z2]).ravel() for p in enum])
    yz /= np.linalg.norm(yz, axis=1, keepdims=True)
    apart = np.minimum(np.linalg.norm(yz[:, None] - yz, axis=-1),
                       np.linalg.norm(yz[:, None] + yz, axis=-1))
    return (apart + 2.0 * np.eye(len(enum))).min()


def test_enumeration_lists_each_point_once_near_rank1():
    # where roots of F crowd together or coincide, lanes reach the same point
    # a step apart; the merge band is the acceptance band, so no table lists
    # more than the 8 roots of F, and no two points are closer than STEP_TOL
    # as unit pairs, which would put their phi within the band with one y
    X = _hard_inputs()
    grid_psi = _best_rank1_stack(X)[0]
    for A, best in zip(X, grid_psi):
        try:
            enum = stationary_points_222(A)
        except ValueError:
            continue    # F vanishes to round-off: best_rank1_222 takes the grid's term
        assert len(enum) <= 8
        assert len(enum) < 2 or _separation(enum) > rank1.STEP_TOL
        usable = [p.psi for p in enum if not p.degenerate]
        assert abs(usable[0] - best) <= 1e-12 * (A * A).sum()
    # a Gaussian table lists one point per real root of F: an even count,
    # of distinct unit pairs y (x) z up to sign
    rng = np.random.default_rng(2024)
    for _ in range(300):
        enum = stationary_points_222(Tensor222(rng.standard_normal((2, 2, 2))))
        assert len(enum) in (4, 6, 8) and enum.n_complex == 8 - len(enum)
        assert _separation(enum) > 1e-6


def _table(A):
    enum = stationary_points_222(A)
    return enum.n_complex, [(p.hessian_pd, p.degenerate) for p in enum], [p.psi for p in enum]


def test_polish_stops_without_changing_the_table(monkeypatch):
    # the circle polish stops once every root of F is accounted for; with no
    # root ever accounted for, every lane takes all CIRCLE_STEPS steps, and
    # the tables agree but for round-off in psi
    rng = np.random.default_rng(8)
    X = np.concatenate([rng.standard_normal((300, 2, 2, 2)), _hard_inputs()[::3]])
    early = []
    for A in X:
        try:
            early.append(_table(A))
        except ValueError:
            early.append(None)
    monkeypatch.setattr(rank1, "_accounted", lambda *lanes: False)
    for A, stop in zip(X, early):
        if stop is None:
            with pytest.raises(ValueError):
                stationary_points_222(A)
            continue
        full = _table(A)
        assert full[:2] == stop[:2]
        np.testing.assert_allclose(full[2], stop[2], rtol=0, atol=1e-14 * (A * A).sum())


def _circle_rows(t):
    """The rows (a, b, c) of m, D and E, each a + b cos(phi) + c sin(phi), of
    the enumeration of t, from the Gram pencil."""
    arr, _ = unit_scaled(t)
    S = rank1._gram_pencil(arr)
    return np.stack([(S[:, 0, 0] + S[:, 1, 1]) / 2.0, (S[:, 0, 0] - S[:, 1, 1]) / 2.0, S[:, 0, 1]])


def _row_inputs(seed):
    rng = np.random.default_rng(seed)
    inputs = [Tensor222(rng.standard_normal((2, 2, 2))) for _ in range(200)]
    inputs += [_near_rank1(seed, eps) for seed in range(40) for eps in (1e-6, 1e-3)]
    inputs += [Tensor222(np.ldexp(rng.standard_normal((2, 2, 2)), k))
               for k in (-500, 500) for _ in range(20)]
    return inputs


def test_constant_form_matches_the_gram_pencil_rows():
    # the rows from one constant quadratic form in the 8 entries are those
    # of the Gram pencil to a few ulp of the largest
    for t in _row_inputs(6):
        T, reference = rank1._mde_rows(unit_scaled(t)[0]), _circle_rows(t)
        assert np.abs(T - reference).max() <= 4.0 * np.finfo(float).eps * np.abs(reference).max()


def _product_form(T, phi0):
    """The ascending coefficients in s of (1 + s^2)^4 F(phi0 + theta), with
    s = tan(theta/2), as polynomial products of the shifted rows m', D, E,
    D', E' times (1 + s^2); and the largest coefficient of the same products
    of their magnitudes, the scale of their round-off."""
    c0, s0 = math.cos(phi0), math.sin(phi0)
    T = np.concatenate([T, np.stack([np.zeros(3), T[:, 2], -T[:, 1]], axis=1)])
    b = T[:, 1] * c0 + T[:, 2] * s0
    c = T[:, 2] * c0 - T[:, 1] * s0
    rows = np.stack([T[:, 0] + b, 2.0 * c, T[:, 0] - b], axis=1)

    def terms(rows):
        _, D, E, m1, D1, E1 = rows
        h = np.convolve(D, D1) + np.convolve(E, E1)
        return (np.convolve(np.convolve(m1, m1), np.convolve(D, D) + np.convolve(E, E)),
                np.convolve(h, h))

    mq, hh = terms(rows)
    return mq - hh, float(sum(terms(np.abs(rows))).max())


def test_sample_map_matches_the_product_form():
    # the coefficients from the 16 grid samples of F are those of the
    # polynomial products, to round-off
    grid = np.arange(16) * (np.pi / 8.0)
    for t in _row_inputs(5):
        T = rank1._mde_rows(unit_scaled(t)[0])
        (_, D, E), (m1, D1, E1) = (T[:, :1] + T[:, 1:2] * np.cos(grid) + T[:, 2:] * np.sin(grid),
                                   T[:, 2:] * np.cos(grid) - T[:, 1:2] * np.sin(grid))
        F = m1 * m1 * (D * D + E * E) - (D * D1 + E * E1) ** 2
        j = int(np.argmax(np.abs(F)))
        reference, scale = _product_form(T, grid[j] - np.pi)
        assert np.abs(rank1._SAMPLE_MAPS[j] @ F - reference).max() <= 1e-14 * scale


@pytest.mark.parametrize("enumerate_points, tensor, minimum", [
    (stationary_points_222, random_tensor(4), 4), (stationary_points_sym, random_sym(4), 1)],
    ids=["full222", "sym222"])
def test_enumeration_makes_one_eigenvalue_call(monkeypatch, enumerate_points, tensor, minimum):
    # the 2x2x2 polynomial comes from a constant map of samples of F, not from
    # products; each enumeration takes its roots from one smallalg.roots call,
    # the package's one companion eigenvalue call, looked up on the module
    calls = {"smallalg.roots": 0, "eigvals": 0, "np.roots": 0, "convolve": 0}

    def counted(name, fn):
        def run(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return run

    monkeypatch.setattr(smallalg, "roots", counted("smallalg.roots", smallalg.roots))
    monkeypatch.setattr(np.linalg, "eigvals", counted("eigvals", np.linalg.eigvals))
    monkeypatch.setattr(np, "roots", counted("np.roots", np.roots))
    monkeypatch.setattr(np, "convolve", counted("convolve", np.convolve))
    assert len(enumerate_points(tensor)) >= minimum
    assert calls == {"smallalg.roots": 1, "eigvals": 1, "np.roots": 0, "convolve": 0}


@pytest.mark.parametrize("mode", [1, 2])
def test_best_rank1_optimum_outside_the_first_chart(mode):
    # rotating mode 2 (or 3) so the optimal y (or z) is e_2 puts the optimum
    # at y1 = 0 (or z1 = 0), which only a flipped normalization chart holds
    for seed in range(20):
        t = random_tensor(seed + 1300)
        res = best_rank1_222(t, cross_check=False)
        v = (res.term.y, res.term.z)[mode - 1]
        v = v / np.linalg.norm(v)
        mats = [np.eye(2)] * 3
        mats[mode] = np.array([[v[1], -v[0]], [v[0], v[1]]])
        rotated = best_rank1_222(multilinear_transform(t, *mats), cross_check=False)
        assert abs(rotated.psi - res.psi) <= 1e-12 * (1 + res.psi)
        points = stationary_points_222(multilinear_transform(t, *mats))
        assert min(abs(p.psi - res.psi) for p in points) <= 1e-12 * (1 + res.psi)


@pytest.mark.parametrize("seed", range(20))
def test_orthonormal_covariance(seed):
    # best rank-1 approximation commutes with orthonormal transforms
    rng = np.random.default_rng(seed)
    t = random_tensor(seed + 1100)
    mats = [np.linalg.qr(rng.standard_normal((2, 2)))[0] for _ in range(3)]
    res = best_rank1_222(t, cross_check=False)
    res_t = best_rank1_222(multilinear_transform(t, *mats), cross_check=False)
    moved = np.einsum("ip,jq,kr,pqr->ijk", *mats, res.term.tensor())
    assert abs(res.psi - res_t.psi) < 1e-6 * (1 + res.psi)
    np.testing.assert_allclose(res_t.term.tensor(), moved, atol=1e-6)


def test_canonical_g2_ties():
    res = best_rank1_222(canonical_form("G2"))
    assert abs(res.psi - 1.0) < 1e-10
    assert res.multiplicity == 2  # either unit entry may be removed


def test_best_rank1_small_scale_fallback_is_global(monkeypatch):
    # the fallback at 2^-66, taken when the enumeration yields no usable
    # point (forced here, since the zero-factor band is relative to ||X||),
    # must be global
    x = np.random.default_rng(3).standard_normal(8)
    ref = best_rank1_222(Tensor222.from_flat(x))

    def degenerate(X):
        raise ValueError("the stationarity polynomial vanishes to round-off")

    monkeypatch.setattr(rank1, "stationary_points_222", degenerate)
    res = best_rank1_222(Tensor222.from_flat(np.ldexp(x, -66)))
    assert res.method == "theta"
    assert abs(math.ldexp(res.psi, 132) - ref.psi) <= 1e-12 * ref.psi


# ---------------------------------------------------------------------------
# the certificate: a certified table skips the theta-grid cross-check
# ---------------------------------------------------------------------------

def _counted_grid(monkeypatch):
    """Patch `best_rank1_222`'s theta-grid solver to count its calls."""
    calls = []
    solve = rank1.best_rank1_pxpx2

    def counted(X):
        calls.append(X)
        return solve(X)

    monkeypatch.setattr(rank1, "best_rank1_pxpx2", counted)
    return calls


def _fields(result):
    """Every field of a BestRank1Result, arrays as lists."""
    points = [(p.y2, p.z2, p.x.tolist(), p.psi, p.delta_residual, p.hessian_pd, p.degenerate)
              for p in result.all_points]
    return ([v.tolist() for v in (result.term.x, result.term.y, result.term.z)], result.psi,
            points, result.multiplicity, result.n_complex, result.converged, result.iterations,
            result.method, result.warnings)


def test_certified_table_skips_the_cross_check(monkeypatch):
    t = random_tensor(11)
    assert stationary_points_222(t).certified
    calls = _counted_grid(monkeypatch)
    checked = best_rank1_222(t)
    assert not calls
    assert _fields(checked) == _fields(best_rank1_222(t, cross_check=False))


def test_uncertified_table_runs_the_cross_check(monkeypatch):
    # near rank 1 the companion roots of F are 4 real and 4 non-real, and the
    # table is not certified (`test_near_rank1_table_is_not_certified`)
    near = _near_rank1(0, 1e-5)
    assert not stationary_points_222(near).certified
    calls = _counted_grid(monkeypatch)
    best_rank1_222(near)
    assert len(calls) == 1
    # the same table, declared accounted for, is certified and not cross-checked
    monkeypatch.setattr(rank1, "_accounted", lambda *lanes: True)
    assert stationary_points_222(near).certified
    res = best_rank1_222(near)
    assert len(calls) == 1 and res.method == "enumerate"


@pytest.mark.parametrize("k", [0, 500, 520, 600, -600])
def test_cross_check_compares_the_terms_where_psi_saturates(monkeypatch, k):
    # an uncertified table without its best point: the theta-grid term must
    # replace the enumeration's also where psi and ||X||^2 read inf or 0,
    # and with no overflow warning from numpy
    enumerate_ = rank1.stationary_points_222

    def worse(t):
        enum = enumerate_(t)
        return rank1.EnumerationResult(enum.points[1:], enum.n_complex, None, 1)

    monkeypatch.setattr(rank1, "stationary_points_222", worse)
    X = np.random.default_rng(1).standard_normal((2, 2, 2))
    ref = best_rank1_222(X)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = best_rank1_222(np.ldexp(X, k))
    assert res.method == ref.method == "theta"
    assert res.warnings == ref.warnings
    assert "non-generic input: the theta-grid solver beat the enumeration" in res.warnings
    np.testing.assert_array_equal(res.term.x, np.ldexp(ref.term.x, k))
    np.testing.assert_array_equal(res.term.y, ref.term.y)
    np.testing.assert_array_equal(res.term.z, ref.term.z)


def test_certified_tables_list_the_optimum():
    # on every certified table the best usable point is the theta-grid
    # solver's optimum, on Gaussian input, D3 residuals, near-rank-1 input
    # and every 4th of the nonzero tensors with entries in -1..1 before zero
    rng = np.random.default_rng(16)
    gaussian = rng.standard_normal((300, 2, 2, 2))
    residuals = [deflation._enumerated_step(rng.standard_normal((2, 2, 2)))[2] for _ in range(200)]
    near = [_near_rank1(seed, eps).array for seed in range(50) for eps in (1e-6, 1e-5, 1e-4, 1e-3)]
    integer = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=8))[:3280:4])
    X = np.concatenate([gaussian, residuals, near, integer.reshape(-1, 2, 2, 2)])
    grid_psi = _best_rank1_stack(X)[0]
    certified = 0
    for A, best in zip(X, grid_psi):
        try:
            enum = stationary_points_222(A)
        except ValueError:
            continue
        if enum.certified:
            certified += 1
            usable = [p.psi for p in enum if not p.degenerate]
            assert usable[0] <= best + 1e-12 * (A * A).sum()
    assert certified >= 400


def test_near_rank1_table_is_not_certified(monkeypatch):
    # the companion roots of F are 4 real and 4 non-real, and the table lists
    # 7 points: the record says so, and the theta grid checks the result
    rng = np.random.default_rng(0)
    u, v, w = rng.standard_normal((3, 2))
    base = Rank1Term(u, v, w).tensor()
    X = Tensor222(base + 1e-5 * np.linalg.norm(base) * rng.standard_normal((2, 2, 2)))
    enum = stationary_points_222(X)
    assert (enum.record.real_roots, enum.record.nonreal_roots) == (4, 4)
    assert not enum.certified and len(enum) != enum.record.real_roots
    calls = _counted_grid(monkeypatch)
    res = best_rank1_222(X)
    assert len(calls) == 1
    assert abs(res.psi - best_rank1_pxpx2(X).psi) <= 1e-12 * frobenius_norm_sq(X)


def test_tables_count_the_nonreal_roots_of_f():
    # n_complex is the number of clearly non-real companion roots of F, which
    # come in conjugate pairs, not 8 minus the points listed
    for A in _hard_inputs():
        try:
            enum = stationary_points_222(A)
        except ValueError:
            continue
        assert enum.n_complex % 2 == 0 and enum.n_complex == enum.record.nonreal_roots


@pytest.mark.parametrize("corpus, counts", [("residual", (0, 291, 1228, 301, 296, 295)),
                                            ("integer", (400, 896, 18416, 4224, 4848, 256))])
def test_hard_corpora_keep_their_table_counts(corpus, counts):
    # the crossing, stall and triple-root paths, which Gaussian input never
    # reaches: tables that raise, certified tables, points, hessian_pd points,
    # degenerate points and tables with a triple root of F.  The near-rank-1
    # corpus is left out, since its point counts move under a one-ulp change
    # of one entry.  So does the table of residual 285, which is not
    # certified (3 points, or 4 with one degenerate), so the residual counts
    # hold for the residuals that this deflation makes
    raised = certified = points = pd = degenerate = triple = 0
    for A in _hard_corpora()[corpus]:
        try:
            enum = stationary_points_222(A)
        except ValueError:
            raised += 1
            continue
        certified += enum.certified
        points += len(enum)
        pd += sum(p.hessian_pd for p in enum)
        degenerate += sum(p.degenerate for p in enum)
        triple += enum.record.cluster_roots == 3
    assert (raised, certified, points, pd, degenerate, triple) == counts


def test_lane_division_by_zero_is_numpys():
    # the lanes run in Python floats, which raise where numpy divides by zero
    values = [1.0, -2.5, 0.0, -0.0, math.inf, -math.inf, math.nan]
    with np.errstate(divide="ignore", invalid="ignore"):
        for a, b in itertools.product(values, [0.0, -0.0]):
            want, got = np.float64(a) / np.float64(b), rank1._divide(a, b)
            assert (math.isnan(got) and math.isnan(want)) or got == want
            assert math.isnan(got) or math.copysign(1.0, got) == math.copysign(1.0, want)


@pytest.mark.parametrize("flat, table", [
    # sqrt(Q) = 0 at some lanes, lambda'' = 0 at a seed, and crossing points
    ((0, 0, 0, 1, -1, -1, 0, 0), [(1.0, True, False), (2.8, False, False), (2.8, False, False),
                                  (3.0, False, True), (3.0, False, True)]),
    # S'(phi) = 0 at the seeds of the crossing lanes, and lambda'' = 0 at four
    ((0, 0, 0, 1, -1, 0, 0, 0), [(1.0, True, False)] * 2 + [(1.5, False, False)] * 4
                                + [(2.0, False, True)] * 2),
])
def test_integer_tables_through_zero_divisions_and_crossings(monkeypatch, flat, table):
    # tables of the integer corpus whose lanes divide by zero: the lanes take
    # numpy's inf or nan and go on, to these (psi, hessian_pd, degenerate)
    divided = []
    divide = rank1._divide
    monkeypatch.setattr(rank1, "_divide", lambda a, b: divided.append(b) or divide(a, b))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        enum = stationary_points_222(np.array(flat, float).reshape(2, 2, 2))
    assert divided
    record = enum.record
    assert (record.certified, record.steps, record.real_roots, enum.n_complex) == (False, 4, 8, 0)
    assert [(p.hessian_pd, p.degenerate) for p in enum] == [row[1:] for row in table]
    np.testing.assert_allclose([p.psi for p in enum], [row[0] for row in table], rtol=0, atol=1e-12)


def _branch_slopes(A, enum):
    """|lambda'| over the acceptance band scale (1 + scale / sqrt(Q)) of each
    non-degenerate point of the table enum of A, recomputed on the branch
    whose eigenvector is the point's y, at phi = 2 atan(z2)."""
    T = rank1._mde_rows(unit_scaled(A)[0])
    rows, scale = T.tolist(), float(np.abs(T).max())
    slopes = []
    for point in (p for p in enum if not p.degenerate):
        phi, alpha = 2.0 * math.atan(point.z2), math.atan(point.y2)
        (top, on_top), (bottom, on_bottom) = [
            (abs(math.cos(beta - alpha)), abs(lam[0]) / (scale * (1.0 + scale / r)))
            for r, beta, lam in (rank1._lambda_derivatives(rows, phi, sign) for sign in (1.0, -1.0))]
        slopes.append(on_top if top >= bottom else on_bottom)
    return np.array(slopes)


def test_certified_points_are_converged(d3_corpora):
    # however its lane was accepted (at the seeds or after a step), each
    # usable point of a certified table is a root of lambda' to round-off: on
    # the 1,000 Gaussian tables of experiment_generic's seed 0 and on the
    # D3 residuals
    gaussian = deflation._slab_major(np.array([rng.standard_normal(8)
                                               for rng in deflation._trial_rngs(0, 1000)]))
    worst = 0.0
    for A in np.concatenate([gaussian, d3_corpora["residual"]]):
        enum = stationary_points_222(A)
        if enum.certified:
            worst = max(worst, _branch_slopes(A, enum).max())
    assert worst <= 1e-13


def _lambda_derivatives_by_the_complex_wave(T, phi, sign):
    """sqrt(Q), the eigenvector angle and the first four derivatives of the
    branch sign at the angles phi, in numpy: (m, D, E) minus their constants
    are the imaginary part of (i b + c) e^(i phi) for the rows (a, b, c) of T."""
    wave = (1j * T[:, 1:2] + T[:, 2:]) * np.exp(1j * np.asarray(phi))
    (m1, D1, E1), (m2, D2, E2) = wave.real, -wave.imag
    D, E = T[1, 0] - D2, T[2, 0] - E2
    r, h, g = np.hypot(D, E), D * D1 + E * E1, D1 * D1 + E1 * E1
    h1 = g + D * D2 + E * E2
    r1 = h / r
    r2 = (h1 - r1 * r1) / r
    r3 = (3.0 * (D1 * D2 + E1 * E2) - h - 3.0 * r1 * r2) / r
    r4 = (3.0 * (D2 * D2 + E2 * E2 - g) - h1 - 3.0 * r2 * r2 - 4.0 * r1 * r3) / r
    return r, np.arctan2(sign * E, sign * D) / 2.0, (m1 + sign * r1, m2 + sign * r2,
                                                     sign * r3 - m1, sign * r4 - m2)


def test_lambda_derivatives_match_the_complex_wave():
    # the Python-float derivatives of the stalled lanes against numpy's
    # complex form, and numpy's nan where sqrt(Q) = 0 makes them 0 / 0
    rng = np.random.default_rng(31)
    for _ in range(50):
        T = rank1._mde_rows(rng.standard_normal((2, 2, 2)))
        phi = rng.uniform(-4.0, 4.0, 5)
        for sign in (1.0, -1.0):
            want = _lambda_derivatives_by_the_complex_wave(T, phi, sign)
            got = [rank1._lambda_derivatives(T.tolist(), p, sign) for p in phi.tolist()]
            np.testing.assert_allclose([g[0] for g in got], want[0], rtol=1e-14)
            np.testing.assert_allclose([g[1] for g in got], want[1], rtol=1e-12, atol=1e-15)
            for n in range(4):
                np.testing.assert_allclose([g[2][n] for g in got], want[2][n], rtol=1e-9,
                                           atol=1e-9 * np.abs(want[2][n]).max())
    # D = a + b cos(phi) + c sin(phi) and E vanish at phi = 0
    rows = [[0.5, 1.0, -2.0], [-1.0, 1.0, 0.5], [2.0, -2.0, 1.0]]
    with np.errstate(divide="ignore", invalid="ignore"):
        want = _lambda_derivatives_by_the_complex_wave(np.array(rows), [0.0], 1.0)
    r, _, lam = rank1._lambda_derivatives(rows, 0.0, 1.0)
    assert r == want[0][0] == 0.0
    assert all(math.isnan(v) for v in lam) and np.isnan(want[2]).all()


_POINT_HEXES = """
import numpy as np
from tensorbit import stationary_points_222
for v in INPUTS:
    for k in (0, 600, -600):
        try:
            A = np.array([float.fromhex(x) for x in v]).reshape(2, 2, 2)
            enum = stationary_points_222(np.ldexp(A, k))
        except ValueError as exc:
            print(exc)
            continue
        print(enum.n_complex, enum.ties, enum.record, *(x.hex() for p in enum for x in (
            p.y2, p.z2, *p.x.tolist(), p.psi, p.delta_residual)),
            *((p.hessian_pd, p.degenerate) for p in enum))
"""


def test_points_are_the_same_at_numpy_baseline_dispatch(d3_corpora):
    # the points are built in Python floats around one LAPACK call: on
    # Gaussian input, on D3 residuals and transforms, and on the two corpus
    # calls that took numpy's arctan and its complex stalled-lane
    # derivatives, whose output moved with numpy's SIMD kernels
    gaussian = np.random.default_rng(3001).standard_normal((200, 8))
    corpus = [Tensor222.from_flat(v).array.ravel() for v in
              [(0, 3, 3, -1, -1, 3, -3, -2), (2, 3, -2, 3, -3, 1, -3, -3)]]
    inputs = np.concatenate([gaussian, d3_corpora["residual"][:200].reshape(-1, 8),
                             d3_corpora["d3"][:100].reshape(-1, 8), corpus])
    script = _POINT_HEXES.replace("INPUTS", repr([[float(x).hex() for x in v] for v in inputs]))
    here = io.StringIO()
    with redirect_stdout(here):
        exec(script, {})
    assert len(here.getvalue().splitlines()) == 3 * len(inputs)
    assert run_at_baseline_dispatch(script) == here.getvalue()


# ---------------------------------------------------------------------------
# D3: the triple root of F at the double zero of det M is one point
# ---------------------------------------------------------------------------

def _double_zero(A):
    """phi = 2t at which det(cos t X1 + sin t X2) of the array A, a + b cos(phi)
    + c sin(phi), turns towards zero: its double zero on Delta = 0."""
    d1, d2 = np.linalg.det(A[..., 0]), np.linalg.det(A[..., 1])
    mix = np.linalg.det(A[..., 0] + A[..., 1]) - d1 - d2     # the cos t sin t coefficient
    return math.atan2(mix, d1 - d2) + (math.pi if d1 + d2 > 0.0 else 0.0)


@pytest.fixture(scope="module")
def d3_corpora():
    """1,000 residuals of Gaussian deflations and 1,000 random transforms of
    the canonical D3 form, both on Delta = 0."""
    rng = np.random.default_rng(17)
    residuals = [deflation._enumerated_step(rng.standard_normal((2, 2, 2)))[2] for _ in range(1000)]
    rng = np.random.default_rng(17)
    return {"residual": np.array(residuals),
            "d3": np.array([deflation._sample_d3(rng).array for _ in range(1000)])}


def _cluster_rows(enum, A):
    """The points of a table within CLUSTER_BAND of the double zero of det M,
    in |sin((phi - phi_d) / 2)| with phi = 2 atan(z2)."""
    half = _double_zero(A) / 2.0
    return [p for p in enum if abs(math.sin(math.atan(p.z2) - half)) <= rank1.CLUSTER_BAND]


@pytest.mark.parametrize("corpus, floor", [("residual", 960), ("d3", 925)])
def test_d3_tables_certify_with_one_point_at_the_triple_root(d3_corpora, corpus, floor):
    # 968 of the 1,000 residual tables and 932 of the 1,000 d3 ones certify,
    # all but 2 of them after one step; a table whose triple root is
    # accounted for lists one point within the band, with x = 0 and psi =
    # ||X||^2, where the parent listed two on about half the residual tables
    X = d3_corpora[corpus]
    grid_psi = _best_rank1_stack(X)[0]
    certified = one_step = 0
    for A, best in zip(X, grid_psi):
        enum = stationary_points_222(A)
        norm_sq = (A * A).sum()
        if enum.certified:
            certified += 1
            one_step += enum.record.steps == 1
            usable = [p.psi for p in enum if not p.degenerate]
            assert usable[0] <= best + 1e-12 * norm_sq
        rows = _cluster_rows(enum, A)
        if enum.record.cluster_roots == 3:
            assert len(rows) == 1
            assert not rows[0].hessian_pd and abs(rows[0].psi - norm_sq) <= 1e-12 * norm_sq
        elif corpus == "residual":
            # no table lists one point twice: points of the two branches there
            # have orthogonal y
            y = [np.array([1.0, p.y2]) / math.hypot(1.0, p.y2) for p in rows]
            assert all(abs(u @ v) < 0.5 for i, u in enumerate(y) for v in y[:i])
    assert certified >= floor and one_step >= certified - 5


# ---------------------------------------------------------------------------
# pxpx2: the theta-grid solver
# ---------------------------------------------------------------------------

def test_theta_solver_matches_the_enumeration():
    for seed in range(200):
        t = random_tensor(seed + 2000)
        res = best_rank1_pxpx2(t)
        assert res.method == "theta" and res.converged
        enum = best_rank1_222(t, cross_check=False)
        assert abs(res.psi - enum.psi) <= 1e-12 * frobenius_norm_sq(t)
        assert abs(psi(t, res.term) - res.psi) <= 1e-12 * frobenius_norm_sq(t)


@pytest.mark.parametrize("p", range(3, 9))
def test_theta_solver_no_worse_than_hopm(p):
    rng = np.random.default_rng(p)
    for _ in range(8):
        t = TensorPxPx2(rng.standard_normal((p, p, 2)))
        res = best_rank1_pxpx2(t)
        assert res.converged
        norm_sq = float((t.array ** 2).sum())
        assert res.psi <= hopm(t).psi + 1e-12 * norm_sq
        assert abs(psi(t, res.term) - res.psi) <= 1e-12 * norm_sq


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), p=st.integers(2, 5), k=st.integers(-500, 500))
def test_theta_solver_scale_equivariant(seed, p, k):
    arr = np.random.default_rng(seed).standard_normal((p, p, 2))
    res = best_rank1_pxpx2(arr)
    scaled = best_rank1_pxpx2(np.ldexp(arr, k))
    assert scaled.psi == math.ldexp(res.psi, 2 * k)
    np.testing.assert_array_equal(scaled.term.tensor(), np.ldexp(res.term.tensor(), k))


@pytest.mark.parametrize("p", [2, 3])
def test_theta_solver_zero_tensor(p):
    res = best_rank1_pxpx2(np.zeros((p, p, 2)))
    assert res.psi == 0.0
    assert res.converged


def test_theta_solver_constant_criterion(khl):
    res = best_rank1_pxpx2(khl)
    assert abs(res.psi - 3.0) <= 1e-12
    assert res.converged


@pytest.mark.parametrize("p", [2, 3, 4])
def test_theta_stack_solves_each_tensor_as_alone(p, khl):
    # mixed scales, the zero tensor and (for p = 2) the orthogonal-slab
    # tensor, whose criterion is constant, in one stack
    rng = np.random.default_rng(40 + p)
    stack = [np.ldexp(rng.standard_normal((p, p, 2)), k) for k in (0, 500, -500, 3, -7)]
    stack.append(np.zeros((p, p, 2)))
    stack += list(rng.standard_normal((20, p, p, 2)))
    if p == 2:
        stack.append(khl.array)
    psis, x, y, z, converged, steps = _best_rank1_stack(np.stack(stack))
    for n, arr in enumerate(stack):
        alone = best_rank1_pxpx2(arr)
        assert abs(psis[n] - alone.psi) <= 1e-15 * float((arr ** 2).sum())
        assert converged[n] == alone.converged and steps[n] == alone.iterations
        warnings = () if converged[n] else (NOT_CONVERGED,)
        assert warnings == alone.warnings
        term = np.einsum("i,j,k->ijk", x[n], y[n], z[n])
        np.testing.assert_array_equal(term, alone.term.tensor())


@pytest.mark.parametrize("p", [2, 3, 4])
def test_theta_eigh_matches_the_svd_on_the_grid(p):
    # lambda from eigh of the Gram pencil, at the grid angles and in the
    # refinement's evaluator, is sigma_max^2 of the slab combination
    h = 2.0 * math.pi / (rank1.THETA_GRID_PER_P * p)
    phi = np.arange(rank1.THETA_GRID_PER_P * p) * h
    for seed in range(20):
        arr = np.random.default_rng(seed).standard_normal((p, p, 2))
        S = rank1._gram_pencil(arr)
        svd = np.linalg.svd(rank1._slab_combination(arr, phi), compute_uv=False)[:, 0] ** 2
        grid = np.linalg.eigvalsh(rank1._pencil(S, phi))[:, -1]
        lam, _, _, x, y = rank1._theta_eval(arr, S, phi)
        np.testing.assert_allclose(grid, svd, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(lam, svd, rtol=1e-14, atol=0.0)
        # x = M y is the top left singular vector times sigma_max
        np.testing.assert_allclose((x ** 2).sum(axis=1), svd, rtol=1e-13, atol=0.0)


def test_theta_stack_matches_the_reference_solver():
    for seed in range(5):
        X = np.random.default_rng(seed).standard_normal((40, 2, 2, 2))
        psis = _best_rank1_stack(X)[0]
        ref_psi, _ = reference.best_rank1(X)
        assert np.all(np.abs(psis - ref_psi) <= 1e-12 * (X ** 2).sum(axis=(1, 2, 3)))


@pytest.mark.parametrize("seed, trial", [(6, 2), (9, 8), (10, 8)])
def test_theta_stack_lanes_beyond_their_half_cell_retire(seed, trial):
    # two lanes start on either side of the peak; the far one bisects
    # towards its bracket edge, and without the half-cell rule it would run
    # to THETA_MAX_STEPS after the near one is done
    X = deflation._trial_rng(seed, trial).standard_normal((3, 3, 2))
    res = best_rank1_pxpx2(X)
    assert res.converged and res.iterations < rank1.THETA_MAX_STEPS
    ref_psi, _ = reference.best_rank1(X[None])
    assert abs(res.psi - ref_psi[0]) <= 1e-12 * (X ** 2).sum()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_theta_stack_keeps_two_far_maxima_of_near_equal_height(p):
    # sigma_max(cos t X1 + sin t X2) = max(a |cos(t - t1)|, b |cos(t - t2)|)
    # for orthonormal factors: two peaks 1.4 apart in t whose heights differ
    # by 1e-9 relative.  psi = min(a, b)^2 only at the higher peak, and
    # swapping a and b swaps the peaks, so both coarse cells must be kept
    Q = np.linalg.qr(np.random.default_rng(p).standard_normal((p, p)))[0]
    z1, z2 = (np.array([math.cos(t), math.sin(t)]) for t in (0.3, 1.7))
    for a, b in ((1.0 + 1e-9, 1.0), (1.0, 1.0 + 1e-9)):
        X = (a * np.einsum("i,j,k->ijk", Q[:, 0], Q[:, 1], z1)
             + b * np.einsum("i,j,k->ijk", Q[:, 1], Q[:, 0], z2))
        res = best_rank1_pxpx2(X)
        assert res.converged
        assert abs(res.psi - min(a, b) ** 2) <= 1e-12 * (X ** 2).sum()
        assert abs(res.term.z @ (z1 if a > b else z2)) >= 1.0 - 1e-12


def _constant_criterion(p):
    # the KHL slabs on 2x2 diagonal blocks: M(t)^T M(t) does not depend on t
    X = np.zeros((p, p, 2))
    for k in range(0, p - 1, 2):
        X[k:k + 2, k:k + 2] = Tensor222.from_flat(KHL).array
    return X


@pytest.mark.parametrize("p", range(2, 9))
def test_theta_stack_matches_the_reference_on_a_corpus(p):
    rng = np.random.default_rng(100 + p)
    stack = list(rng.standard_normal((30, p, p, 2)))
    stack += [np.zeros((p, p, 2)), _constant_criterion(p)]
    for eps in (1e-9, 1e-6, 1e-3):
        u, v, w = rng.standard_normal((3, p))
        stack.append(np.einsum("i,j,k->ijk", u, v, w[:2]) + eps * rng.standard_normal((p, p, 2)))
    X = np.stack(stack)
    psis, _, _, _, converged, _ = _best_rank1_stack(X)
    ref_psi, _ = reference.best_rank1(X)
    assert converged.all()
    assert np.all(np.abs(psis - ref_psi) <= 1e-12 * (X ** 2).sum(axis=(1, 2, 3)))


def test_theta_stack_in_chunks_matches_one_call(monkeypatch):
    X = np.random.default_rng(7).standard_normal((8, 3, 3, 2))
    whole = _best_rank1_stack(X)
    monkeypatch.setattr(rank1, "THETA_STACK_CHUNK", 3)
    for chunked, one in zip(_best_rank1_stack(X), whole):
        np.testing.assert_array_equal(chunked, one)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_theta_stack_rejects_non_finite_entries(p, bad):
    # at the parent a NaN tensor raised LinAlgError (p = 3) or IndexError (p = 2)
    X = np.random.default_rng(p).standard_normal((4, p, p, 2))
    X[2, 0, 1, 1] = bad
    with pytest.raises(ValueError, match="tensor entries must be finite"):
        _best_rank1_stack(X)
    with pytest.raises(ValueError, match="tensor entries must be finite"):
        best_rank1_pxpx2(X[2])


def test_theta_stack_starts_lanes_only_where_the_certificate_allows(monkeypatch):
    # each lane starts at a grid angle phi_j with lambda_j + L (1 - cos(h/2))
    # at least the grid maximum, lambda from the SVD and L from the slabs
    p = 3
    h = 2.0 * math.pi / (rank1.THETA_GRID_PER_P * p)
    phi = np.arange(rank1.THETA_GRID_PER_P * p) * h
    starts, evaluate = [], rank1._theta_eval
    monkeypatch.setattr(rank1, "_theta_eval",
                        lambda arr, S, phi: starts.append(phi) or evaluate(arr, S, phi))
    for X in np.random.default_rng(12).standard_normal((100, p, p, 2)):
        starts.clear()
        best_rank1_pxpx2(X)
        X1, X2 = X[..., 0], X[..., 1]
        S1, B = (X1.T @ X1 - X2.T @ X2) / 2.0, X1.T @ X2
        L = math.sqrt((S1 ** 2).sum() + (((B + B.T) / 2.0) ** 2).sum())
        lam = np.linalg.svd(rank1._slab_combination(X, phi), compute_uv=False)[:, 0] ** 2
        j = np.rint(starts[0] / h).astype(int)
        assert np.all(lam[j] + L * (1.0 - math.cos(0.5 * h)) >= lam.max() * (1.0 - 1e-12))


def test_theta_stack_lanes_leave_one_by_one(monkeypatch):
    # two lanes, one over a step before the other: it is not evaluated again
    X = np.random.default_rng(9).standard_normal((3, 3, 2))
    sizes, evaluate = [], rank1._theta_eval
    monkeypatch.setattr(rank1, "_theta_eval",
                        lambda arr, S, phi: sizes.append(np.size(phi)) or evaluate(arr, S, phi))
    res = best_rank1_pxpx2(X)
    assert sizes == [2, 2, 2, 1] and res.iterations == 4
    assert res.converged
    ref_psi, _ = reference.best_rank1(X[None])
    assert abs(res.psi - ref_psi[0]) <= 1e-12 * (X ** 2).sum()


@pytest.mark.parametrize("diagonals, psi_best", [(([1.0, 0.0], [0.0, 1.0]), 1.0),
                                                 (([2.0, 1.0, 0.0], [0.0, 1.0, 2.0]), 6.0)])
def test_theta_stack_breaks_exact_ties_by_the_first_lane(diagonals, psi_best):
    # lambda(phi) has two equal maxima, at phi = 0 and pi, and both lanes are
    # done at the first step: the first lane, phi = 0, gives the term
    # X[0, 0, 0] e1 x e1 x e1, alone and in a stack
    X = np.stack([np.diag(d) for d in diagonals], axis=-1)
    best = np.zeros_like(X)
    best[0, 0, 0] = X[0, 0, 0]
    res = best_rank1_pxpx2(X)
    assert res.converged and res.iterations == 1
    assert res.psi == psi_best
    np.testing.assert_array_equal(res.term.z, [1.0, 0.0])
    np.testing.assert_array_equal(res.term.tensor(), best)
    rng = np.random.default_rng(3)
    stack = np.concatenate([rng.standard_normal((2,) + X.shape), X[None],
                            np.ldexp(X, 9)[None], rng.standard_normal((3,) + X.shape)])
    psis, x, y, z, converged, steps = _best_rank1_stack(stack)
    for n, k in ((2, 0), (3, 9)):
        assert psis[n] == math.ldexp(psi_best, 2 * k) and steps[n] == 1 and converged[n]
        np.testing.assert_array_equal(z[n], [1.0, 0.0])
        np.testing.assert_array_equal(np.einsum("i,j,k->ijk", x[n], y[n], z[n]),
                                      np.ldexp(best, k))


# ---------------------------------------------------------------------------
# alternating least squares
# ---------------------------------------------------------------------------

def test_hopm_exact_rank1():
    term = Rank1Term([1.0, 2.0], [0.5, -1.0], [2.0, 1.0])
    t = Tensor222(term.tensor())
    res = hopm(t, max_iter=50)
    assert res.psi <= 1e-20
    assert res.converged


def test_hopm_example_one(ex_a1):
    res = hopm(ex_a1, max_iter=2000, tol=1e-15)
    assert abs(res.psi - 2.6863) < 5e-5 * 2.6863


def test_hopm_agrees_with_enumeration():
    for seed in range(100):
        t = random_tensor(seed + 1300)
        res_e = best_rank1_222(t, cross_check=False)
        res_h = hopm(t, max_iter=3000, tol=1e-15)
        assert res_h.psi >= res_e.psi - 1e-9 * (1 + res_e.psi)
        assert abs(res_e.psi - res_h.psi) < 1e-6 * (1 + res_e.psi)


def test_hopm_validation():
    with pytest.raises(ValueError):
        hopm(canonical_form("G2"), max_iter=0)
    with pytest.raises(ValueError):
        hopm(canonical_form("G2"), tol=0.0)


# ---------------------------------------------------------------------------
# infinitely many best approximations
# ---------------------------------------------------------------------------

def test_infinite_best_khl(khl):
    assert detect_infinite_best(khl)
    res = best_rank1_222(khl)
    assert abs(res.psi - 3.0) < 1e-10
    assert res.method == "theta"
    assert any("degenerate" in w or "fallback" in w for w in res.warnings)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(-500, 500))
def test_scale_does_not_change_the_decisions(k):
    # every band is relative to the input's scale, so 2^k X gets the same
    # verdicts as X, and psi scales exactly
    khl = np.asarray(KHL)
    assert detect_infinite_best(Tensor222.from_flat(np.ldexp(khl, k)))
    for seed in (3, 11):
        x = np.random.default_rng(seed).standard_normal(8)
        assert not detect_infinite_best(Tensor222.from_flat(np.ldexp(x, k)))
        ref = best_rank1_222(Tensor222.from_flat(x))
        res = best_rank1_222(Tensor222.from_flat(np.ldexp(x, k)))
        assert (res.method, res.multiplicity, res.warnings) == \
            (ref.method, ref.multiplicity, ref.warnings) == ("enumerate", 1, ())
        assert [p.degenerate for p in res.all_points] == [p.degenerate for p in ref.all_points]
        assert res.psi == math.ldexp(ref.psi, 2 * k)


def test_infinite_best_negative_cases():
    assert not detect_infinite_best(canonical_form("G2"))
    assert not detect_infinite_best(Tensor222.from_flat(np.zeros(8)))
