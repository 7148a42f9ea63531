import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorbit import (SymTensor222, Tensor222, canonical_form, classify, classify_sym,
                       hyperdet, hyperdet_sym, multilinear_rank, multilinear_transform, pencil_eigs,
                       sylvester_rank, sym_rank2_decompose, sym_rank3_decompose)
from tensorbit.orbits import ORBITS, PENCIL_COND_CAP, _invertible
from conftest import EXAMPLE_A1, EXAMPLE_A2, SYM_G2, SYM_G3, random_sym, random_tensor


def test_hyperdet_reference_values():
    assert abs(hyperdet(Tensor222.from_flat(EXAMPLE_A1)) - 2.7668) < 5e-4
    assert abs(hyperdet(Tensor222.from_flat(EXAMPLE_A2)) - (-2.7309)) < 5e-4


def test_hyperdet_canonical_g3():
    assert abs(hyperdet(canonical_form("G3")) - (-4.0)) < 1e-14


def test_hyperdet_zero_tensor():
    assert hyperdet(Tensor222.from_flat(np.zeros(8))) == 0.0


def test_hyperdet_at_extreme_scales():
    # Delta ~ max|entry|^4: at 1e150 only its sign is representable, and at
    # 2^-262 it is subnormal, which the products of slab entries would
    # round more than once
    x = np.random.default_rng(3).standard_normal(8)
    delta = hyperdet(Tensor222.from_flat(x))
    assert hyperdet(Tensor222.from_flat(x * 1e150)) == math.copysign(math.inf, delta)
    assert hyperdet(Tensor222.from_flat(np.ldexp(x, -262))) == math.ldexp(delta, -1048)
    delta = hyperdet_sym(SymTensor222(*x[:4]))
    assert hyperdet_sym(SymTensor222(*np.ldexp(x[:4], -262))) == math.ldexp(delta, -1048)


def test_hyperdet_sym_matches_full_expansion():
    for seed in range(50):
        s = random_sym(seed)
        assert abs(hyperdet_sym(s) - hyperdet(s.tensor())) < 1e-12 * (
            1 + max(abs(v) for v in s.as_tuple()) ** 4)


@pytest.mark.parametrize("orbit", ORBITS)
def test_classify_canonical_forms(orbit):
    assert classify(canonical_form(orbit)).orbit == orbit


def test_classify_worked_examples():
    assert classify(Tensor222.from_entries(0, 1, 1, 0, 1, 0, 0, 2)).orbit == "G2"
    assert classify(Tensor222.from_entries(1, 0, 0, 1, 0, -2, 1, 0)).orbit == "G3"


def test_classify_sym_examples():
    assert classify_sym(SymTensor222(*SYM_G3)).orbit == "G3"
    assert classify_sym(SymTensor222(*SYM_G2)).orbit == "G2"
    assert classify_sym(SymTensor222(1, 0, 0, 0)).orbit == "D1"
    assert classify_sym(SymTensor222(0, 0, 0, 0)).orbit == "D0"
    assert classify_sym(SymTensor222(1, 0, 0, 1)).orbit == "G2"  # both slabs singular


def test_classify_tol_validation():
    with pytest.raises(ValueError):
        classify(canonical_form("G2"), tol=0.0)


def test_classify_at_extreme_scales():
    # max|entry|^4 overflows a float at 1e80 and underflows to zero at 1e-160
    x = np.random.default_rng(3).standard_normal(8)
    base = classify(Tensor222.from_flat(x))
    base_sym = classify_sym(SymTensor222(*x[:4]))
    for factor in (1e80, 1e-160, 1e300, 1e-300):
        assert classify(Tensor222.from_flat(x * factor)) == base
        assert classify_sym(SymTensor222(*(x[:4] * factor))) == base_sym


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), orbit=st.sampled_from(ORBITS),
       k=st.integers(-500, 500))
def test_classify_power_of_two_scale_invariant(seed, orbit, k):
    mats = np.random.default_rng(seed).standard_normal((3, 2, 2))
    t = multilinear_transform(canonical_form(orbit), *mats)
    label = classify(t)
    scaled = classify(Tensor222(np.ldexp(t.array, k)))
    assert scaled == label
    assert scaled.boundary_margin == label.boundary_margin
    sym = SymTensor222(*np.random.default_rng(seed).standard_normal(4))
    label = classify_sym(sym)
    scaled = classify_sym(SymTensor222(*np.ldexp(sym.as_tuple(), k)))
    assert scaled == label
    assert scaled.boundary_margin == label.boundary_margin


def _inverted(slabs):
    return np.array([_invertible(*m) for m in np.reshape(slabs, (-1, 4)).tolist()])


def test_invertible_matches_the_svd_condition_number():
    # the closed-form 2x2 condition number takes the decisions of
    # np.linalg.cond at the cap, on random slabs, on slabs at 1e8 (1 +- 1e-3)
    # and on both scaled by 2^+-500
    rng = np.random.default_rng(12)
    random = rng.standard_normal((2000, 2, 2))
    U, V = np.linalg.qr(rng.standard_normal((2, 2000, 2, 2)))[0]
    cond = PENCIL_COND_CAP * (1.0 + rng.choice([-1e-3, 1e-3], 2000))
    at_cap = U @ (np.eye(2) * np.stack([np.ones(2000), 1.0 / cond], axis=1)[:, None]) @ V
    for slabs in (random, at_cap):
        for k in (0, -500, 500):
            scaled = np.ldexp(slabs, k)
            np.testing.assert_array_equal(_inverted(scaled),
                                          np.linalg.cond(scaled) <= PENCIL_COND_CAP)
    assert 0.3 < _inverted(at_cap).mean() < 0.7
    singular = np.array([[[0.0, 0.0], [0.0, 0.0]], [[1.0, 2.0], [2.0, 4.0]]])
    assert not _inverted(singular).any()
    # entries whose hypot overflows give an infinite condition number
    assert not _inverted([[1.5e308, 1.5e308], [-1.5e308, 1.5e308]]).any()


def test_pencil_eigs_worked_examples():
    m = pencil_eigs(SymTensor222(*SYM_G3), "21")
    assert m.kind == "ComplexPair"
    m2 = pencil_eigs(SymTensor222(*SYM_G2), "21")
    assert m2.kind == "DistinctReal"
    np.testing.assert_allclose(sorted(m2.values), [2 - np.sqrt(3), 2 + np.sqrt(3)],
                               atol=1e-12)


def test_pencil_matrix_closed_form():
    # X2 X1^-1 = [0 1; x y] with x = (c^2-bd)/(ac-b^2), y = (ad-bc)/(ac-b^2)
    for seed in range(20):
        s = random_sym(seed)
        a, b, c, d = s.as_tuple()
        det1 = a * c - b * b
        if abs(det1) < 1e-3:
            continue
        M = np.array([[b, c], [c, d]]) @ np.linalg.inv(np.array([[a, b], [b, c]]))
        np.testing.assert_allclose(M[0], [0.0, 1.0], atol=1e-10)
        assert abs(M[1, 0] - (c * c - b * d) / det1) < 1e-9
        assert abs(M[1, 1] - (a * d - b * c) / det1) < 1e-9


def test_pencil_identity_slabs():
    t = Tensor222.from_slabs(np.eye(2), np.eye(2))
    pair = pencil_eigs(t, "21")
    assert pair.kind == "DoubleRealDiagonalizable"
    assert abs(pair.values[0] - 1.0) < 1e-14


def test_pencil_singular_slab_directs_to_other_order():
    t = Tensor222.from_slabs(np.zeros((2, 2)), np.eye(2))
    with pytest.raises(ValueError, match="12"):
        pencil_eigs(t, "21")
    assert pencil_eigs(t, "12").kind == "DoubleRealDiagonalizable"


@pytest.mark.parametrize("seed", range(25))
def test_hyperdet_sign_invariance(seed):
    rng = np.random.default_rng(seed)
    t = random_tensor(seed + 1000)
    base = np.sign(hyperdet(t))
    trials = 0
    while trials < 8:
        mats = rng.standard_normal((3, 2, 2))
        if min(abs(np.linalg.det(m)) for m in mats) < 5e-2:
            continue
        trials += 1
        out = multilinear_transform(t, *mats)
        assert np.sign(hyperdet(out)) == base


@pytest.mark.parametrize("seed", range(30))
def test_hyperdet_is_pencil_charpoly_discriminant(seed):
    t = random_tensor(seed + 2000)
    X1, X2 = t.slab1, t.slab2
    if abs(np.linalg.det(X1)) < 1e-3:
        return
    M = np.linalg.det(X1) * (X2 @ np.linalg.inv(X1))
    tr = np.trace(M)
    disc = tr * tr - 4.0 * np.linalg.det(M)
    assert abs(disc - hyperdet(t)) < 1e-8 * (1 + abs(disc))


@pytest.mark.parametrize("seed", range(10))
def test_classify_invariance_interior_orbits(seed):
    rng = np.random.default_rng(seed + 3000)
    for base_orbit in ("G2", "G3"):
        t = canonical_form(base_orbit)
        for _ in range(10):
            mats = rng.standard_normal((3, 2, 2))
            if min(abs(np.linalg.det(m)) for m in mats) < 5e-2:
                continue
            out = multilinear_transform(t, *mats)
            assert classify(out).orbit == base_orbit


def test_classify_sym_labels_a_share_of_kostlan_cubics_g3():
    # a Kostlan binary cubic, coefficients of x^3, x^2 y, x y^2, y^3 with
    # variances 1, 3, 3, 1, has sqrt(3) real roots on average, so three of
    # them with probability (sqrt(3) - 1) / 2 (Edelman & Kostlan 1995); its
    # symmetric tensor has entry variances (1, 1/3, 1/3, 1) and is G3 then,
    # here within 5 standard errors
    draws = np.random.default_rng(5).standard_normal((20000, 4)) * np.sqrt([1, 1 / 3, 1 / 3, 1])
    share = sum(classify_sym(SymTensor222(*s)).orbit == "G3" for s in draws) / len(draws)
    expected = (math.sqrt(3.0) - 1.0) / 2.0
    assert abs(share - expected) <= 5.0 * math.sqrt(expected * (1.0 - expected) / len(draws))


def test_classify_sym_agrees_with_sylvester_rank():
    rank_of = {"D0": 0, "D1": 1, "G2": 2, "D3": 3, "G3": 3}
    for seed in range(1000):
        s = random_sym(seed)
        label = classify_sym(s)
        rank, _ = sylvester_rank(s)
        assert rank == rank_of[label.orbit], (seed, label.orbit, rank)


def test_boundary_margin_diagnostic():
    lab = classify(canonical_form("G3"))
    assert lab.boundary_margin == pytest.approx(4.0)
    lab0 = classify(Tensor222.from_flat(np.zeros(8)))
    assert lab0.boundary_margin == 0.0


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, -math.inf])
def test_a_nan_or_non_positive_tol_is_rejected(tol):
    d3 = canonical_form("D3")
    for call in (lambda: classify(d3, tol), lambda: classify_sym(SymTensor222(0, 1, 0, 0), tol),
                 lambda: multilinear_rank(d3, tol),
                 lambda: sylvester_rank(SymTensor222(1, 0, 0, 1), tol),
                 lambda: sym_rank2_decompose(SymTensor222(1, 0, 0, 1), tol),
                 lambda: sym_rank3_decompose(SymTensor222(*SYM_G3), tol)):
        with pytest.raises(ValueError, match="tol must be positive"):
            call()
