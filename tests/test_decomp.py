import numpy as np
import pytest

from tensorbit import (DomainError, SymTensor222, canonical_transform,
                       canonicalize_sym_form, classify_sym, hyperdet_sym, multilinear_transform,
                       sylvester_rank, sym_rank2_decompose, sym_rank3_decompose,
                       transform_from_canonical_D3, transform_from_canonical_G3)
from tensorbit.decomp import _apply_sym
from conftest import SYM_G3, random_sym


def _max_err(s: SymTensor222, t: SymTensor222) -> float:
    return max(abs(u - v) for u, v in zip(s.as_tuple(), t.as_tuple()))


# ---------------------------------------------------------------------------
# Sylvester rank
# ---------------------------------------------------------------------------

def test_sylvester_rank_examples():
    rank, dec = sylvester_rank(SymTensor222(1, 0, 0, 1))
    assert rank == 2 and dec.reconstruction_error < 1e-12
    # the kernel quadratic for this tensor is -u1 u2: root directions e1, e2
    vecs = sorted(np.abs(np.asarray(v)).tolist() for v in dec.vectors)
    np.testing.assert_allclose(vecs, [[0, 1], [1, 0]], atol=1e-12)

    rank3, _ = sylvester_rank(SymTensor222(*SYM_G3))
    assert rank3 == 3
    g = np.array([-1.0, 1.0, -1.0])   # (ac - b^2, bc - ad, bd - c^2)
    assert g[1] ** 2 - 4 * g[0] * g[2] == -3  # negative discriminant forces rank 3

    rank1_, dec1 = sylvester_rank(SymTensor222(1, 0, 0, 0))
    assert rank1_ == 1
    np.testing.assert_allclose(dec1.vectors[0], [1.0, 0.0], atol=1e-12)

    assert sylvester_rank(SymTensor222(0, 0, 0, 0))[0] == 0


def test_sylvester_rank_matches_pencil_classification():
    rank_of = {"D0": 0, "D1": 1, "G2": 2, "D3": 3, "G3": 3}
    for seed in range(1000):
        s = random_sym(seed + 5000)
        rank, dec = sylvester_rank(s)
        assert rank == rank_of[classify_sym(s).orbit]
        if dec is not None:
            scale = max(1.0, max(abs(v) for v in s.as_tuple()))
            assert dec.reconstruction_error <= 1e-8 * scale


# ---------------------------------------------------------------------------
# rank-2 construction
# ---------------------------------------------------------------------------

def test_rank2_decompose_diagonal():
    dec = sym_rank2_decompose(SymTensor222(1, 0, 0, 1))
    assert dec.reconstruction_error < 1e-12
    vecs = sorted(np.abs(np.asarray(v)).tolist() for v in dec.vectors)
    np.testing.assert_allclose(vecs, [[0, 1], [1, 0]], atol=1e-12)


def test_rank2_decompose_worked_g2(sym_g2):
    dec = sym_rank2_decompose(sym_g2)
    assert dec.rank == 2
    assert dec.reconstruction_error < 1e-10
    # pencil eigenvalue relations: a l1 l2 - b (l1 + l2) + c = 0 and the
    # shifted (b, c, d) version
    a, b, c, d = sym_g2.as_tuple()
    lams = [v[1] / v[0] for v in dec.vectors]
    s_, p_ = lams[0] + lams[1], lams[0] * lams[1]
    assert abs(a * p_ - b * s_ + c) < 1e-10
    assert abs(b * p_ - c * s_ + d) < 1e-10


def test_rank2_construct_then_recover():
    rng = np.random.default_rng(42)
    found = 0
    for _ in range(200):
        a1, a2 = rng.standard_normal((2, 2))
        s = SymTensor222(0, 0, 0, 0).rank1_update(a1).rank1_update(a2)
        if classify_sym(s).orbit != "G2":
            continue
        found += 1
        dec = sym_rank2_decompose(s)
        assert dec.reconstruction_error < 1e-8 * max(1.0, *np.abs(s.as_tuple()))
        got = sorted(np.round(np.asarray(v) * np.sign(v[np.argmax(np.abs(v))]), 6).tolist()
                     for v in dec.vectors)
        want = sorted(np.round(np.asarray(v) * np.sign(v[np.argmax(np.abs(v))]), 6).tolist()
                      for v in (a1, a2))
        np.testing.assert_allclose(got, want, atol=1e-4)
    assert found > 100


@pytest.mark.parametrize("entries", [
    # kernel coefficient g2 = bd - c^2 small against g1: the textbook root
    # formula cancels
    (-9.379801539813561, -0.0013975774248260503, 0.10560578244887422, -8.165825929871872),
    # g0 = ac - b^2 small against g1: the first slab is nearly singular
    (-4.126380022164158, 0.5616749478583076, -0.07627749766114014, 6.7536705554405145),
])
def test_rank2_reconstruction_to_round_off(entries):
    s = SymTensor222(*entries)
    bound = 1e-12 * max(abs(v) for v in entries)
    rank, dec = sylvester_rank(s)
    assert rank == 2 and dec.reconstruction_error <= bound
    assert sym_rank2_decompose(s).reconstruction_error <= bound


def test_rank2_rejects_rank3_input(sym_g3):
    with pytest.raises(DomainError):
        sym_rank2_decompose(sym_g3)


# ---------------------------------------------------------------------------
# rank-3 construction
# ---------------------------------------------------------------------------

def test_rank3_decompose_worked_g3(sym_g3):
    dec = sym_rank3_decompose(sym_g3)
    assert dec.rank == 3
    assert dec.reconstruction_error < 1e-10


def test_rank3_decompose_b_zero_branch():
    s = SymTensor222(1.0, 0.0, -1.0, 0.5)
    assert classify_sym(s).orbit in ("D3", "G3")
    dec = sym_rank3_decompose(s)
    assert dec.reconstruction_error < 1e-8
    # head cube was chosen so the remainder has a distinct-real pencil
    head = dec.vectors[0]
    remainder = s.rank1_update(head, -1.0)
    assert classify_sym(remainder).orbit == "G2"


def test_rank3_decompose_distinct_case():
    s = SymTensor222(1.0, 1.0, 1.0, 0.0)
    if classify_sym(s).orbit in ("D3", "G3"):
        dec = sym_rank3_decompose(s)
        assert dec.reconstruction_error < 1e-8


def test_rank3_rejects_rank2_input(sym_g2):
    with pytest.raises(DomainError):
        sym_rank3_decompose(sym_g2)


def test_rank3_random_g3_tensors():
    count = 0
    for seed in range(400):
        s = random_sym(seed + 6000)
        if classify_sym(s).orbit != "G3":
            continue
        count += 1
        dec = sym_rank3_decompose(s)
        scale = max(1.0, max(abs(v) for v in s.as_tuple()))
        assert dec.reconstruction_error <= 1e-8 * scale
    assert count > 50


# ---------------------------------------------------------------------------
# normal form and canonical transforms
# ---------------------------------------------------------------------------

def test_canonicalize_identity_on_normal_form():
    form = canonicalize_sym_form(SymTensor222(0.3, 1.0, 1.0, -0.7))
    assert form.normalizable
    np.testing.assert_allclose(form.transform, np.eye(2), atol=1e-12)
    assert abs(form.a - 0.3) < 1e-12 and abs(form.d - (-0.7)) < 1e-12


def test_canonicalize_worked_g3(sym_g3):
    form = canonicalize_sym_form(sym_g3)
    assert form.normalizable
    assert abs(form.a) < 1e-12 and abs(form.d) < 1e-12


def test_canonicalize_branch_flags():
    assert canonicalize_sym_form(SymTensor222(1, 0, 1, 1)).branch == "b_zero"
    assert canonicalize_sym_form(SymTensor222(1, 1, 0, 1)).branch == "c_zero"


def test_canonicalize_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(100):
        s = SymTensor222(*rng.standard_normal(4))
        form = canonicalize_sym_form(s)
        if not form.normalizable:
            continue
        P = form.transform
        moved = multilinear_transform(s.tensor(), P, P, P).array
        np.testing.assert_allclose(
            [moved[0, 0, 0], moved[0, 1, 0], moved[1, 1, 0], moved[1, 1, 1]],
            [form.a, 1.0, 1.0, form.d], atol=1e-10 * max(1, abs(form.a), abs(form.d)))


def test_d3_transform_shear_case():
    tr = transform_from_canonical_D3(0.0, 0.75)
    np.testing.assert_allclose(tr.S, [[1.0, 0.0], [0.5, 1.0]], atol=1e-12)
    assert tr.residual < 1e-12


def test_d3_transform_boundary_curve():
    # build d from the boundary curve at a = 1/2 and verify the transform
    a = 0.5
    d = (3 * a - 2 + 2 * (1 - a) * np.sqrt(1 - a)) / a ** 2
    tr = transform_from_canonical_D3(a, d)
    assert tr.residual < 1e-8
    assert abs(np.linalg.det(tr.S)) > 1e-6


def test_d3_transform_round_trip():
    rng = np.random.default_rng(11)
    done = 0
    while done < 50:
        S0 = rng.standard_normal((2, 2))
        if abs(np.linalg.det(S0)) < 0.3 or np.linalg.cond(S0) > 20:
            continue
        moved = _apply_sym(S0, "D3")
        form = canonicalize_sym_form(moved)
        if not form.normalizable or form.a >= 1 - 1e-6 or form.d >= 1 - 1e-6:
            continue
        done += 1
        tr = transform_from_canonical_D3(form.a, form.d)
        got = _apply_sym(np.linalg.inv(form.transform) @ tr.S, "D3")
        scale = max(1.0, max(abs(v) for v in moved.as_tuple()))
        assert _max_err(got, moved) < 1e-7 * scale


def test_d3_transform_rejects_off_boundary():
    with pytest.raises(DomainError):
        transform_from_canonical_D3(0.0, 0.5)


def test_g3_transform_special_branch():
    tr = transform_from_canonical_G3(0.0, 0.5)
    assert abs(tr.S[0, 0]) < 1e-14
    assert abs(tr.S[1, 0] ** 3 - 0.25) < 1e-12
    assert tr.residual < 1e-8


def test_g3_transform_worked_example(sym_g3):
    # normalized (0, 0): the canonical-form transform exists and det < 0
    tr = transform_from_canonical_G3(0.0, 0.0)
    assert tr.residual < 1e-8
    full = canonical_transform(sym_g3)
    assert full.orbit == "G3"
    assert full.residual < 1e-8
    assert abs(np.linalg.det(full.S)) > 1e-8


def test_g3_transform_round_trip():
    rng = np.random.default_rng(13)
    done = 0
    while done < 50:
        S0 = rng.standard_normal((2, 2))
        if abs(np.linalg.det(S0)) < 0.3 or np.linalg.cond(S0) > 20:
            continue
        moved = _apply_sym(S0, "G3")
        if classify_sym(moved).orbit != "G3":
            continue
        form = canonicalize_sym_form(moved)
        if not form.normalizable:
            continue
        done += 1
        tr = transform_from_canonical_G3(form.a, form.d)
        got = _apply_sym(np.linalg.inv(form.transform) @ tr.S, "G3")
        scale = max(1.0, max(abs(v) for v in moved.as_tuple()))
        assert _max_err(got, moved) < 1e-7 * scale


def test_g3_transform_rejects_positive_delta():
    assert hyperdet_sym(SymTensor222(0.5, 1, 1, -20.0)) > 0
    with pytest.raises(DomainError):
        transform_from_canonical_G3(0.5, -20.0)


def test_g3_cubic_discriminant_is_minus_27_delta():
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(300):
        s = SymTensor222(*rng.standard_normal(4))
        if classify_sym(s).orbit != "G3":
            continue
        form = canonicalize_sym_form(s)
        if not form.normalizable:
            continue
        checked += 1
        a, d = form.a, form.d
        # cubic d t^3 - 3 t^2 + 3 t - a
        coeffs = (d, -3.0, 3.0, -a)
        c3, c2, c1, c0 = coeffs
        disc = (18 * c3 * c2 * c1 * c0 - 4 * c2 ** 3 * c0 + c2 ** 2 * c1 ** 2
                - 4 * c3 * c1 ** 3 - 27 * c3 ** 2 * c0 ** 2)
        delta = hyperdet_sym(_form := SymTensor222(a, 1, 1, d))
        assert abs(disc - (-27.0) * delta) < 1e-8 * max(1.0, abs(disc))
        assert disc > 0  # three distinct real roots
    assert checked > 100


def test_canonical_transform_rejects_g2(sym_g2):
    with pytest.raises(DomainError):
        canonical_transform(sym_g2)
