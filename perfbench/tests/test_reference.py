"""Tests of the benchmark's reference computations and its tracer.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import reference as ref  # noqa: E402
from tracing import TRACED, Tracer  # noqa: E402

# the worked example tensors of the test suite's conftest, slab-major
EXAMPLE_A1 = (-0.4326, 0.1253, -1.6656, 0.2877, -1.1465, 1.1892, 1.1909, -0.0376)
EXAMPLE_A2 = (-1.6041, -1.0565, 0.2573, 1.4151, 0.8156, 1.2902, 0.7119, 0.6686)


@pytest.mark.parametrize("X, psi, tol", [
    (ref.full_from_flat(EXAMPLE_A1), 2.6863, 1e-4),
    (ref.full_from_flat(EXAMPLE_A2), 3.1185, 1e-4),
    (ref.expand_sym((0.0, 1.0, 1.0, 0.0)), 1.5, 1e-12),
    (ref.expand_sym((3.0, 1.0, 1.0, 3.0)), 6.0, 1e-12),
])
def test_worked_psi(X, psi, tol):
    got, term = ref.best_rank1(X[None])
    assert got[0] == pytest.approx(psi, abs=tol)
    assert ((X - term[0]) ** 2).sum() == pytest.approx(got[0], abs=1e-12)


@pytest.mark.parametrize("p", [2, 3])
def test_best_rank1_matches_dense_search(p):
    rng = np.random.default_rng(7)
    X = rng.standard_normal((6, p, p, 2))
    psi, _ = ref.best_rank1(X)
    theta = np.linspace(0.0, np.pi, 200001)
    for A, got in zip(X, psi):
        M = np.cos(theta)[:, None, None] * A[:, :, 0] + np.sin(theta)[:, None, None] * A[:, :, 1]
        dense = (A ** 2).sum() - np.linalg.svd(M, compute_uv=False)[:, 0].max() ** 2
        # the dense grid can only overestimate psi, and by O(step^2)
        assert got <= dense + 1e-12
        assert dense - got < 1e-8


def test_generic_residual_lies_on_boundary():
    rng = np.random.default_rng(11)
    X = np.stack([ref.gaussian_222(rng) for _ in range(50)])
    _, term = ref.best_rank1(X)
    scale4 = np.max(np.abs(X), axis=(1, 2, 3)) ** 4
    assert np.all(np.abs(ref.cayley_hyperdet(X)) / scale4 > 1e-6)
    assert np.all(np.abs(ref.cayley_hyperdet(X - term)) / scale4 < 1e-12)


@pytest.mark.parametrize("flat, sign", [
    ((1, 0, 0, 0, 0, 0, 0, 1), 1),      # G2 canonical form
    ((-1, 0, 0, 1, 0, 1, 1, 0), -1),    # G3 canonical form
    ((0, 1, 1, 0, 1, 0, 0, 0), 0),      # D3 canonical form
])
def test_cayley_sign_on_canonical_forms(flat, sign):
    assert np.sign(ref.cayley_hyperdet(ref.full_from_flat(flat))) == sign


def test_hyperdet_is_a_multiple_of_the_cubic_discriminant():
    rng = np.random.default_rng(3)
    for abcd in rng.standard_normal((20, 4)):
        delta = ref.cayley_hyperdet(ref.expand_sym(abcd))
        assert delta == pytest.approx(-ref.cubic_discriminant(abcd) / 27.0, rel=1e-9, abs=1e-12)


def test_sym_rank_of_worked_examples():
    assert ref.sym_rank((0.0, 1.0, 1.0, 0.0)) == 3
    assert ref.sym_rank((3.0, 1.0, 1.0, 3.0)) == 2
    assert ref.sym_rank((1.0, 0.0, 0.0, 0.0)) is None


def test_sym_cube_sum():
    v, w = np.array([1.0, 2.0]), np.array([-0.5, 0.3])
    want = np.einsum("i,j,k->ijk", v, v, v) + np.einsum("i,j,k->ijk", w, w, w)
    assert np.allclose(ref.sym_cube_sum([v, w]), want)


def test_pencil_pairs_pairs_a_split_double_eigenvalue():
    R = np.zeros((3, 3, 2))
    R[:, :, 0] = np.eye(3)
    R[:, :, 1] = [[2.0, 1e-7, 0.0], [-1e-7, 2.0, 0.0], [0.0, 0.0, 5.0]]
    assert ref.pencil_pairs(R) == (1, 0)
    R[:, :, 1] = [[2.0, 1.0, 0.0], [-1.0, 2.0, 0.0], [0.0, 0.0, 5.0]]
    assert ref.pencil_pairs(R) == (0, 1)


def test_tracer_rebinds_and_restores():
    from tensorbit import cli, deflation, orbits
    original = orbits.classify
    tracer = Tracer()
    with tracer:
        assert deflation.classify is not original and cli.classify is not original
        deflation.experiment_generic(3, 0)
    assert orbits.classify is original and deflation.classify is original
    layer = tracer.per_layer()
    assert layer["deflation.experiment_generic.calls"] == 1
    assert layer["rank1.stationary_points_222.calls"] == 3
    points = sum(layer[f"rank1.stationary_points_222.{k}_points"]
                 for k in ("real", "complex", "degenerate"))
    assert points == 3 * 8
    # self times partition the root span
    total_self = sum(layer[f"{name}.self_ms"] for name in TRACED)
    assert total_self == pytest.approx(tracer.root_ns() / 1e6, rel=1e-9)


def test_mode_sigma_ratio_measures_nearness_to_lower_rank():
    rank1 = np.einsum("i,j,k->ijk", [1.0, 2.0], [0.5, -1.0], [3.0, 1.0])
    generic = ref.full_from_flat(EXAMPLE_A1)
    ratio = ref.mode_sigma_ratio(np.stack([rank1, generic]))
    assert ratio[0] < 1e-15
    assert ratio[1] > 0.1
    # a symmetric input whose best rank-1 residual is within 2e-7 of rank 1
    X = ref.expand_sym((1.4046058249188424, -0.35844521370669874,
                        1.5310752312805849, -0.8948617269467041))
    _, term = ref.best_rank1(X[None])
    assert 1e-8 < ref.mode_sigma_ratio(X[None] - term)[0] < 1e-6
