import numpy as np
import pytest

from tensorbit import (Rank1Term, Tensor222, best_rank1_222, canonical_form,
                       detect_infinite_best, frobenius_norm_sq, hopm, hyperdet,
                       multilinear_transform, optimal_x, psi, psi_surface,
                       stationary_points_222)
from conftest import (BOUNDARY_TO_D2, TABLE_A1, TABLE_A2, WORKED_G2, WORKED_G3,
                      random_tensor)


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


def test_resultant_roots_match_table_column(ex_a1):
    # the z-side resultant's real roots are exactly the table's z2 column
    from tensorbit import Polynomial, roots
    from tensorbit.rank1 import stationary_poly
    from tensorbit.smallalg import is_real_root
    rs = roots(Polynomial(stationary_poly(ex_a1, "z")))
    reals = sorted(r.real for r in rs if is_real_root(r))
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
        enum = stationary_points_222(t, hessian=False)
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
    assert res.method == "hopm"
    assert any("degenerate" in w or "fallback" in w for w in res.warnings)


def test_infinite_best_negative_cases():
    assert not detect_infinite_best(canonical_form("G2"))
    assert not detect_infinite_best(Tensor222.from_flat(np.zeros(8)))
