import re

import numpy as np
import pytest

import tensorbit
from tensorbit import (MultilinearRank, Rank1Term, SymDecomposition, SymTensor222, Tensor222,
                       TensorPxPx2, best_rank1_222, best_rank1_pxpx2, best_rank1_sym,
                       canonical_form, canonical_transform, canonicalize_sym_form,
                       check_degenerate_props, classify, classify_sym, contract_mode,
                       deflate_once, detect_infinite_best, frobenius_norm_sq, hopm, hyperdet,
                       hyperdet_sym, multilinear_rank, multilinear_transform, optimal_x, orbits,
                       pencil_eigs, psi, psi_surface, slab_pencil, stationary_points_222,
                       stationary_points_sym, sylvester_rank, sym_rank2_decompose,
                       sym_rank3_decompose)
from tensorbit.decomp import _apply_sym
from tensorbit.rank1 import stationary_poly, sym_stationarity_cubic
from tensorbit.tensors import _SYM_FIRST, _SYM_INDEX, _as_array, _cubes, _entries, _slab_major, \
    unit_scaled
from conftest import EXAMPLE_A1, KHL, SYM_G2, SYM_G3, random_tensor


def test_entry_slab_round_trip():
    t = Tensor222.from_entries(1, 2, 3, 4, 5, 6, 7, 8)
    assert t.entries == (1, 2, 3, 4, 5, 6, 7, 8)
    np.testing.assert_array_equal(t.slab1, [[1, 2], [3, 4]])
    np.testing.assert_array_equal(t.slab2, [[5, 6], [7, 8]])
    again = Tensor222.from_slabs(t.slab1, t.slab2)
    np.testing.assert_array_equal(again.array, t.array)


def test_entries_immutable():
    t = Tensor222.from_entries(*range(8))
    with pytest.raises(ValueError):
        t.array[0, 0, 0] = 9.0


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        Tensor222.from_entries(np.nan, 0, 0, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        TensorPxPx2(np.full((3, 3, 2), np.inf))


def test_contract_mode3_selects_slab():
    g2 = canonical_form("G2")
    np.testing.assert_allclose(contract_mode(g2, [1.0, 0.0], 3), [[1, 0], [0, 0]])


def test_contract_mode3_khl_rotation():
    # every mode-3 contraction of this tensor is orthogonal up to scale
    t = Tensor222.from_flat(KHL)
    for z in ([1.0, 0.0], [0.3, -0.8], [2.0, 1.0]):
        M = contract_mode(t, z, 3)
        np.testing.assert_allclose(M.T @ M, (z[0] ** 2 + z[1] ** 2) * np.eye(2), atol=1e-12)


def test_contract_mode3_matches_slab_combination():
    t = random_tensor(0)
    alpha, beta = 0.7, -1.3
    expected = alpha * t.slab1 + beta * t.slab2
    np.testing.assert_allclose(contract_mode(t, [alpha, beta], 3), expected, atol=1e-14)


def test_contract_dimension_mismatch():
    t = random_tensor(1)
    with pytest.raises(ValueError):
        contract_mode(t, [1.0, 0.0, 0.0], 2)


@pytest.mark.parametrize("seed", range(5))
def test_contract_linearity(seed):
    t = random_tensor(seed)
    rng = np.random.default_rng(seed + 100)
    u, v = rng.standard_normal((2, 2))
    a, b = rng.standard_normal(2)
    for mode in (1, 2, 3):
        lhs = contract_mode(t, a * u + b * v, mode)
        rhs = a * contract_mode(t, u, mode) + b * contract_mode(t, v, mode)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_multilinear_identity():
    t = random_tensor(2)
    eye = np.eye(2)
    np.testing.assert_allclose(multilinear_transform(t, eye, eye, eye).array, t.array)


def test_multilinear_matches_triple_sum():
    rng = np.random.default_rng(3)
    t = random_tensor(3)
    S, T, U = rng.standard_normal((3, 2, 2))
    out = multilinear_transform(t, S, T, U).array
    brute = np.zeros((2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                brute[i, j, k] = sum(S[i, p] * T[j, q] * U[k, r] * t.array[p, q, r]
                                     for p in range(2) for q in range(2) for r in range(2))
    np.testing.assert_allclose(out, brute, atol=1e-12)


def test_transform_d3_shear_gives_normal_form():
    # shear applied to the boundary canonical form lands on the (0, 3/4)
    # symmetric normal form
    S = np.array([[1.0, 0.0], [0.5, 1.0]])
    out = multilinear_transform(canonical_form("D3"), S, S, S).array
    assert abs(out[0, 0, 0]) < 1e-14
    assert abs(out[1, 1, 1] - 0.75) < 1e-14
    for idx in ((0, 1, 0), (1, 0, 0), (0, 0, 1)):
        assert abs(out[idx] - 1.0) < 1e-14


@pytest.mark.parametrize("seed", range(5))
def test_composition_rule(seed):
    rng = np.random.default_rng(seed + 50)
    t = random_tensor(seed)
    S, T = rng.standard_normal((2, 2, 2))
    eye = np.eye(2)
    for mode in range(3):
        mats_t = [eye, eye, eye]
        mats_s = [eye, eye, eye]
        mats_st = [eye, eye, eye]
        mats_t[mode] = T
        mats_s[mode] = S
        mats_st[mode] = S @ T
        chained = multilinear_transform(multilinear_transform(t, *mats_t), *mats_s)
        direct = multilinear_transform(t, *mats_st)
        np.testing.assert_allclose(chained.array, direct.array, atol=1e-12)


def test_frobenius_norm_values():
    assert frobenius_norm_sq(Tensor222.from_flat(np.zeros(8))) == 0.0
    assert abs(frobenius_norm_sq(Tensor222.from_flat(KHL)) - 4.0) < 1e-15
    # reference squared norm of the first numerical example (4 decimals)
    assert abs(frobenius_norm_sq(Tensor222.from_flat(EXAMPLE_A1)) - 7.2081) < 1e-4


def test_multilinear_rank_canonical_forms():
    assert multilinear_rank(canonical_form("D2")) == (2, 2, 1)
    assert multilinear_rank(canonical_form("D2p")) == (1, 2, 2)
    assert multilinear_rank(canonical_form("D2pp")) == (2, 1, 2)
    assert multilinear_rank(canonical_form("D3")) == (2, 2, 2)
    e1 = np.array([1.0, 0.0])
    rank1 = Rank1Term(e1, e1, e1).tensor()
    assert multilinear_rank(Tensor222(rank1)) == MultilinearRank(1, 1, 1)


def test_rank1_has_multilinear_rank_111():
    rng = np.random.default_rng(9)
    for _ in range(20):
        x, y, z = rng.standard_normal((3, 2))
        t = Tensor222(Rank1Term(x, y, z).tensor())
        assert multilinear_rank(t) == (1, 1, 1)


@pytest.mark.parametrize("seed", range(20))
def test_multilinear_rank_invariant_under_invertible_transforms(seed):
    rng = np.random.default_rng(seed)
    t = random_tensor(seed)
    base = multilinear_rank(t)
    for _ in range(5):
        mats = rng.standard_normal((3, 2, 2))
        if min(abs(np.linalg.det(m)) for m in mats) < 1e-2:
            continue
        out = multilinear_transform(t, *mats)
        assert multilinear_rank(out) == base


@pytest.mark.parametrize("p", [3, 5])
def test_multilinear_rank_of_pxpx2_tensors_counts_each_unfolding(p):
    # the unfoldings p x 2p, p x 2p and 2 x p^2 take one SVD call each
    rng = np.random.default_rng(p)
    low = np.einsum("ir,jr,kr->ijk", *(rng.standard_normal((n, 2)) for n in (p, p, 2)))
    for arr in (rng.standard_normal((p, p, 2)), low):
        want = [np.linalg.matrix_rank(np.moveaxis(arr, m, 0).reshape(arr.shape[m], -1))
                for m in range(3)]
        assert multilinear_rank(TensorPxPx2(arr)) == want


@pytest.mark.parametrize("seed", range(10))
def test_frobenius_invariant_under_orthonormal_transforms(seed):
    rng = np.random.default_rng(seed)
    t = random_tensor(seed + 300)
    mats = [np.linalg.qr(rng.standard_normal((2, 2)))[0] for _ in range(3)]
    out = multilinear_transform(t, *mats)
    assert abs(frobenius_norm_sq(out) - frobenius_norm_sq(t)) < 1e-10


def test_pxpx2_shape_checks():
    with pytest.raises(ValueError):
        TensorPxPx2(np.zeros((1, 1, 2)))
    with pytest.raises(ValueError):
        TensorPxPx2(np.zeros((3, 2, 2)))
    t = TensorPxPx2(np.arange(18.0).reshape(3, 3, 2))
    assert t.p == 3
    np.testing.assert_array_equal(t.slab1, t.array[:, :, 0])


def test_symmetric_tensors_live_in_tensors():
    assert tensorbit.SymTensor222 is orbits.SymTensor222 is SymTensor222
    assert SymTensor222.__module__ == "tensorbit.tensors"


def test_symmetric_expansion_takes_coefficient_i_plus_j_plus_k():
    coeffs = (1.5, -2.0, 0.25, 3.0)
    full = SymTensor222(*coeffs).tensor().array
    for i, j, k in np.ndindex(2, 2, 2):
        assert full[i, j, k] == coeffs[i + j + k] == coeffs[_SYM_INDEX[i, j, k]]
    assert SymTensor222(*coeffs).tensor().entries == (1.5, -2.0, -2.0, 0.25, -2.0, 0.25, 0.25, 3.0)
    # _SYM_FIRST reads each coefficient back from the expansion
    assert _entries(np.array(coeffs)[_SYM_INDEX])[_SYM_FIRST].tolist() == list(coeffs)
    assert _SYM_FIRST.tolist() == [0, 1, 3, 7]


def test_every_symmetric_rank1_map_is_the_expansion_of_y_y_y():
    # the shared cube map, through each function that writes y (x) y (x) y in
    # the symmetric layout, against the full outer product
    for y in np.random.default_rng(27).standard_normal((20, 2)) * [[1.0, 3.0]]:
        want = Rank1Term(y, y, y).tensor()
        scale = np.abs(want).max()
        for got in (np.array(_cubes(*y))[_SYM_INDEX],
                    _as_array(SymTensor222(0.0, 0.0, 0.0, 0.0).rank1_update(y)),
                    _as_array(SymDecomposition(1, (y,), 0.0).reconstruct()),
                    _apply_sym(np.column_stack([y, [0.5, -2.0]]), "D1")[_SYM_INDEX]):
            np.testing.assert_allclose(got, want, rtol=0, atol=4e-16 * scale)
    # products round alike on a stack, its rows and their Python floats
    Y = np.random.default_rng(28).standard_normal((5, 2))
    np.testing.assert_array_equal(np.transpose(_cubes(*Y.T)), [_cubes(*y) for y in Y])
    np.testing.assert_array_equal(np.transpose(_cubes(*Y.T)), [_cubes(*y) for y in Y.tolist()])


def test_slab_major_order_round_trips_on_stacks():
    flat = np.arange(24.0).reshape(3, 8)
    arrays = _slab_major(flat)
    assert arrays.shape == (3, 2, 2, 2)
    np.testing.assert_array_equal(arrays[1], Tensor222.from_flat(flat[1]).array)
    np.testing.assert_array_equal(_entries(arrays), flat)


def test_containers_are_c_ordered_however_they_are_built():
    for t in (Tensor222.from_entries(*range(8)), Tensor222.from_flat(range(8)),
              Tensor222(np.arange(8.0).reshape(2, 2, 2).transpose(2, 1, 0)),
              SymTensor222(1, 2, 3, 4).tensor()):
        assert t.array.flags.c_contiguous


_EYE = np.eye(2)
# every public function that takes a tensor, called on a raw 2x2x2 array, and
# hyperdet_sym on four of its entries
_RAW_ARRAY_CALLS = {
    "hyperdet_sym": lambda X: hyperdet_sym(np.ravel(X)[4:]),
    "classify": classify,
    "hyperdet": hyperdet,
    "multilinear_rank": multilinear_rank,
    "slab_pencil": slab_pencil,
    "pencil_eigs": pencil_eigs,
    "hopm": hopm,
    "optimal_x": lambda X: optimal_x(X, [1.0, 0.0], [0.6, 0.8]),
    "psi": lambda X: psi(X, Rank1Term(_EYE[0], _EYE[0], _EYE[1])),
    "psi_surface": lambda X: psi_surface(X, 0.5, -0.25),
    "best_rank1_222": best_rank1_222,
    "best_rank1_pxpx2": best_rank1_pxpx2,
    "stationary_points_222": stationary_points_222,
    "stationary_poly": stationary_poly,
    "detect_infinite_best": detect_infinite_best,
    "deflate_once": deflate_once,
    "check_degenerate_props": check_degenerate_props,
    "frobenius_norm_sq": frobenius_norm_sq,
    "unit_scaled": unit_scaled,
    "contract_mode": lambda X: contract_mode(X, [1.0, 0.0], 3),
    "multilinear_transform": lambda X: multilinear_transform(X, _EYE, _EYE, _EYE),
}


@pytest.mark.parametrize("name", sorted(_RAW_ARRAY_CALLS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_raw_arrays_with_a_non_finite_entry_are_rejected(name, bad):
    # unchecked, classify raises LinAlgError on NaN, hyperdet returns nan and
    # slab_pencil None
    X = random_tensor(0).array.copy()
    X[1, 0, 1] = bad
    with pytest.raises(ValueError, match="^tensor entries must be finite$"):
        _RAW_ARRAY_CALLS[name](X)
    # the same entries as a nested list
    with pytest.raises(ValueError, match="^tensor entries must be finite$"):
        _RAW_ARRAY_CALLS[name](X.tolist())


# the public functions that also take a pxpx2 tensor, with arguments for p = 3
_E3 = np.eye(3)
_PXPX2_CALLS = {
    "multilinear_rank": multilinear_rank,
    "hopm": hopm,
    "optimal_x": lambda X: optimal_x(X, [1.0, 0.0, 0.0], [0.6, 0.8]),
    "psi": lambda X: psi(X, Rank1Term(_E3[0], _E3[1], _EYE[1])),
    "best_rank1_pxpx2": best_rank1_pxpx2,
    "frobenius_norm_sq": frobenius_norm_sq,
    "unit_scaled": unit_scaled,
    "contract_mode": lambda X: contract_mode(X, [1.0, 0.0], 3),
    "multilinear_transform": lambda X: multilinear_transform(X, _E3, _E3, _EYE),
}


@pytest.mark.parametrize("name", sorted(set(_RAW_ARRAY_CALLS) - {"hyperdet_sym"}))
def test_raw_arrays_of_the_wrong_shape_are_rejected(name):
    # unchecked, stationary_points_222 and best_rank1_222 read a flat list in
    # C order, not slab-major, and classify, hyperdet, slab_pencil and hopm
    # raise numpy's own errors
    want = "(p, p, 2)" if name in _PXPX2_CALLS else "(2, 2, 2)"
    for bad in ([1, 2, 3, 4, 5, 6, 7, 9], np.zeros((2, 2, 3)), np.zeros((1, 1, 2)),
                np.zeros((2, 2, 2, 1)), np.zeros((3, 2, 2))):
        message = re.escape(f"expected shape {want}, got {np.shape(bad)}")
        with pytest.raises(ValueError, match=message):
            _RAW_ARRAY_CALLS[name](bad)
    X = np.random.default_rng(5).standard_normal((3, 3, 2))
    if name in _PXPX2_CALLS:
        assert repr(_PXPX2_CALLS[name](X.tolist())) == repr(_PXPX2_CALLS[name](X))
    else:
        with pytest.raises(ValueError, match=re.escape("expected shape (2, 2, 2), got (3, 3, 2)")):
            _RAW_ARRAY_CALLS[name](X)


# every public function that takes a symmetric tensor
_SYM_CALLS = {
    "hyperdet_sym": hyperdet_sym,
    "classify_sym": classify_sym,
    "sym_stationarity_cubic": sym_stationarity_cubic,
    "stationary_points_sym": stationary_points_sym,
    "best_rank1_sym": best_rank1_sym,
    "sylvester_rank": sylvester_rank,
    "sym_rank2_decompose": sym_rank2_decompose,
    "sym_rank3_decompose": sym_rank3_decompose,
    "canonicalize_sym_form": canonicalize_sym_form,
    "canonical_transform": canonical_transform,
}


@pytest.mark.parametrize("name", sorted(_SYM_CALLS))
@pytest.mark.parametrize("bad,message", [
    ([0.5, np.nan, 1.0, -2.0], "^tensor entries must be finite$"),
    ((0.5, 1.0, np.inf, -2.0), "^tensor entries must be finite$"),
    (np.array([-np.inf, 1.0, 1.0, 0.0]), "^tensor entries must be finite$"),
    ([0.5, 1.0, -2.0], "^expected 4 entries, got 3$"),
    (np.zeros(8), "^expected 4 entries, got 8$"),
    (Tensor222.from_flat(SYM_G3 * 2), "^expected 4 coefficients, got Tensor222$"),
])
def test_symmetric_functions_reject_anything_but_four_finite_coefficients(name, bad, message):
    # unchecked, most of them raised AttributeError or numpy's AxisError, and
    # hyperdet_sym returned nan
    with pytest.raises(ValueError, match=message):
        _SYM_CALLS[name](bad)


@pytest.mark.parametrize("name", sorted(_SYM_CALLS))
def test_four_raw_coefficients_give_what_a_symmetric_tensor_gives(name):
    coeffs = SYM_G2 if name == "sym_rank2_decompose" else (0.25, 1.0, 1.5, -0.5)
    assert repr(_SYM_CALLS[name](list(coeffs))) == repr(_SYM_CALLS[name](SymTensor222(*coeffs)))


def test_raw_arrays_give_what_their_containers_give():
    t = random_tensor(4)
    raw = t.array.copy()
    assert classify(raw) == classify(t) and hyperdet(raw) == hyperdet(t)
    assert multilinear_rank(raw) == multilinear_rank(t)
    assert best_rank1_222(raw).psi == best_rank1_222(t).psi


@pytest.mark.parametrize("build,message", [
    (lambda: Tensor222.from_flat(range(7)), "expected 8 entries, got 7"),
    (lambda: SymTensor222.from_flat(range(5)), "expected 4 entries, got 5"),
    (lambda: SymTensor222(0.0, np.inf, 0.0, 0.0), "tensor entries must be finite"),
    (lambda: Rank1Term([[1.0, 0.0]], [1.0, 0.0], [1.0, 0.0]), "factor x must be a vector"),
    (lambda: contract_mode(random_tensor(1), [1.0, 0.0], 4), "mode must be 1, 2 or 3, got 4"),
    (lambda: contract_mode(random_tensor(1), [np.nan, 0.0], 3),
     "contraction vector must be finite"),
    (lambda: multilinear_transform(random_tensor(1), _EYE, np.eye(3), _EYE),
     r"matrix T must be 2x2, got \(3, 3\)"),
    (lambda: pencil_eigs(random_tensor(1), "13"), "slab_order must be '21' or '12'"),
    (lambda: deflate_once(TensorPxPx2(np.ones((3, 3, 2)))), "deflate_once handles 2x2x2 tensors"),
    # a flat list is not read in some order other than the slab-major one
    (lambda: Tensor222(np.arange(8.0)), r"expected shape \(2, 2, 2\), got \(8,\)"),
    (lambda: deflate_once(list(range(8))), r"expected shape \(2, 2, 2\), got \(8,\)"),
])
def test_argument_checks(build, message):
    with pytest.raises(ValueError, match=message):
        build()
