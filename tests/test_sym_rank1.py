import io
import itertools
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorbit import (Rank1Term, SymTensor222, best_rank1_pxpx2, best_rank1_sym, deflate_once,
                       frobenius_norm_sq, psi, stationary_points_sym)
from tensorbit.rank1 import sym_stationarity_cubic
from conftest import SYM_G3, random_sym, run_at_baseline_dispatch

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import cli_corpus  # noqa: E402

# every nonzero symmetric tensor with integer entries in -2..2
INTEGER_SYM = [SymTensor222(*t) for t in itertools.product(range(-2, 3), repeat=4) if any(t)]


def test_cubic_coefficients_worked_example():
    np.testing.assert_allclose(sym_stationarity_cubic(SymTensor222(*SYM_G3)),
                               [1.0, 2.0, -2.0, -1.0])


def test_stationary_points_worked_g3(sym_g3):
    enum = stationary_points_sym(sym_g3)
    assert len(enum) == 3
    best = enum[0]
    assert abs(best.z - 1.0) < 1e-10
    assert abs(best.y2_cubed - 0.75) < 1e-12
    np.testing.assert_allclose(best.y, np.cbrt(0.75) * np.ones(2), atol=1e-12)
    assert abs(best.psi - 1.5) < 1e-10


def test_stationary_points_worked_g2(sym_g2):
    enum = stationary_points_sym(sym_g2)
    assert len(enum) == 1
    assert enum.n_complex == 2
    best = enum[0]
    assert abs(best.y2_cubed - 1.5) < 1e-12
    assert abs(best.psi - 6.0) < 1e-10


def test_both_closed_form_expressions_agree():
    for seed in range(200):
        s = random_sym(seed)
        a, b, c, d = s.as_tuple()
        for pt in stationary_points_sym(s).points:
            z = pt.z
            den1 = z ** 5 + 2 * z ** 3 + z
            if abs(den1) < 1e-6:
                continue
            w1 = (a * z * z + 2 * b * z + c) / den1
            assert abs(w1 - pt.y2_cubed) < 1e-8 * (1 + abs(pt.y2_cubed))


def _sym_gradient(Xs: SymTensor222, y) -> np.ndarray:
    """Gradient in y of ||Xs - y (x) y (x) y||^2: -6 (X y y - |y|^4 y)."""
    y = np.asarray(y, float)
    return -6.0 * (np.einsum("ijk,j,k->i", Xs.tensor().array, y, y) - float(y @ y) ** 2 * y)


def test_cubic_residual_and_gradient_at_points():
    pv = np.polynomial.polynomial.polyval
    for seed in range(200):
        s = random_sym(seed + 300)
        cubic = sym_stationarity_cubic(s)
        scale = max(abs(v) for v in s.as_tuple())
        for pt in stationary_points_sym(s).points:
            assert abs(pv(pt.z, cubic)) < 1e-10 * (1 + abs(pt.z)) ** 3 * (1 + scale)
            grad = _sym_gradient(s, pt.y)
            assert np.max(np.abs(grad)) < 1e-8 * (1 + scale) ** 2


def test_residual_on_boundary_at_every_point():
    # the residual hyperdeterminant vanishes at all stationary points
    for seed in range(300):
        s = random_sym(seed + 600)
        scale = max(abs(v) for v in s.as_tuple()) ** 4
        for pt in stationary_points_sym(s).points:
            assert abs(pt.delta_residual) < 1e-8 * max(1.0, scale)


def test_best_rank1_sym_worked_g3(sym_g3):
    res = best_rank1_sym(sym_g3)
    assert abs(res.psi - 1.5) < 1e-10
    residual = sym_g3.rank1_update(res.term.y, -1.0)
    np.testing.assert_allclose(residual.as_tuple(), (-0.75, 0.25, 0.25, -0.75),
                               atol=1e-10)


def test_best_rank1_sym_worked_g2(sym_g2):
    res = best_rank1_sym(sym_g2)
    np.testing.assert_allclose(res.term.y, np.cbrt(1.5) * np.ones(2), atol=1e-10)
    residual = sym_g2.rank1_update(res.term.y, -1.0)
    np.testing.assert_allclose(residual.as_tuple(), (1.5, -0.5, -0.5, 1.5), atol=1e-10)


def test_best_rank1_sym_recovers_pure_cube():
    a = np.array([0.8, -1.7])
    s = SymTensor222(0, 0, 0, 0).rank1_update(a)
    res = best_rank1_sym(s)
    assert res.psi < 1e-18
    np.testing.assert_allclose(res.term.y, a, atol=1e-9)


def test_sym_deflation_pencils(sym_g3, sym_g2):
    for s in (sym_g3, sym_g2):
        residual, report = deflate_once(s)
        assert report.orbit_after.orbit == "D3"
        assert report.pencil_after.kind == "DoubleRealDefective"
        assert abs(report.pencil_after.values[0] - (-1.0)) < 1e-8


@pytest.mark.parametrize("inputs", [[random_sym(seed + 900) for seed in range(50)], INTEGER_SYM],
                         ids=["gaussian", "integers"])
def test_sym_term_matches_full_criterion(inputs):
    # by Banach's theorem the symmetric optimum is the best rank-1 term of
    # the expansion, which the theta-grid solver finds independently
    for s in inputs:
        res = best_rank1_sym(s)
        y = res.term.y
        norm_sq = frobenius_norm_sq(s.tensor())
        direct = psi(s.tensor(), Rank1Term(y, y, y))
        assert abs(direct - res.psi) < 1e-10 * (1 + abs(res.psi))
        assert res.psi <= norm_sq + 1e-12
        assert res.psi <= best_rank1_pxpx2(s.tensor()).psi + 1e-12 * norm_sq


def test_best_rank1_sym_when_b_is_zero():
    # the optimum y is parallel to e1, the direction at y2 = 0
    cube = best_rank1_sym(SymTensor222(1, 0, 0, 0))
    assert cube.psi <= 1e-15
    np.testing.assert_allclose(np.abs(cube.term.y), [1.0, 0.0], atol=1e-12)
    res = best_rank1_sym(SymTensor222(2, 0, 1, 0))
    assert abs(res.psi - 3.0) <= 1e-12 * 7.0 and res.warnings == ()
    s = SymTensor222(3, 0, -0.1, 2)
    norm_sq = frobenius_norm_sq(s)
    assert abs(best_rank1_sym(s).psi - (norm_sq - 9.0)) <= 1e-12 * norm_sq


def test_stationary_points_sym_lists_each_direction_once():
    # H = y1^2 y2: e1 (the cube itself) and the double root e2 (the zero term)
    enum = stationary_points_sym(SymTensor222(1, 0, 0, 0))
    assert len(enum) == 2 and enum.n_complex == 0
    np.testing.assert_allclose([p.psi for p in enum], [0.0, 1.0], atol=1e-15)
    assert abs(enum[0].z) == np.inf


def test_best_rank1_sym_counts_ties():
    assert best_rank1_sym(SymTensor222(1, 0, 0, 1)).multiplicity == 2   # e1 and e2
    assert best_rank1_sym(SymTensor222(1, 0, -1, 0)).multiplicity == 3  # Re (y1 + i y2)^3


@pytest.mark.parametrize("k", [0, 600, -600])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_a_tie_is_decided_by_the_order_of_z(sign, k):
    # +-Y_G3 has three optima whose psi differ by round-off only.  The tied
    # points come first, in the order of z, and the one at y2 = 0 has
    # z = -inf, so every scale reports that one.
    s = SymTensor222(*np.ldexp(sign * np.array([-1.0, 0.0, 1.0, 0.0]), k))
    enum = stationary_points_sym(s)
    assert enum.ties == 3 and [p.z for p in enum] == sorted(p.z for p in enum)
    assert enum[0].z == -np.inf and enum[0].y[1] == 0.0
    res = best_rank1_sym(s)
    assert res.multiplicity == 3 and res.term.y[1] == 0.0
    np.testing.assert_allclose(res.term.y[0], -sign * 2.0 ** (k / 3), rtol=1e-15)


def test_a_root_where_a_chart_value_vanishes_is_exact():
    # H(e1) = -b and H(e2) = c are exact, so b = 0 puts a point at y2 = 0 and
    # c = 0 one at y1 = 0, with no round-off in either
    enum = stationary_points_sym(SymTensor222(1, 0, -1, 0))
    assert [(p.y[1], p.z) for p in enum if p.y[1] == 0.0] == [(0.0, -np.inf)]
    enum = stationary_points_sym(SymTensor222(0, 0, 0, 1))     # e2 cubed; e1 a double root
    assert [(p.y.tolist(), p.z) for p in enum] == [([0.0, 1.0], 0.0), ([0.0, 0.0], -np.inf)]
    enum = stationary_points_sym(SymTensor222(0, 1, 0, 2))     # H = -y1^3: e2 a triple root
    assert len(enum) == 1 and enum[0].y[0] == 0.0 and enum[0].z == 0.0


_SYM_POINT_HEXES = """
import numpy as np
from tensorbit import SymTensor222, stationary_points_sym
inputs = np.random.default_rng(2801).standard_normal((200, 4)).tolist() + SPECIAL
for v in inputs:
    for k in (0, 600, -600):
        enum = stationary_points_sym(SymTensor222(*np.ldexp(v, k)))
        print(enum.n_complex, enum.ties, *(x.hex() for p in enum for x in (
            p.z, *p.y.tolist(), p.y2_cubed, p.psi, p.delta_residual)))
"""


def test_symmetric_points_are_the_same_at_numpy_baseline_dispatch():
    # every point is built in Python floats around one LAPACK call, so
    # numpy's SIMD kernels do not reach it
    script = _SYM_POINT_HEXES.replace("SPECIAL", repr([list(v) for v in cli_corpus.SYM_SPECIAL]))
    here = io.StringIO()
    with redirect_stdout(here):
        exec(script, {})
    assert len(here.getvalue().splitlines()) == 3 * (200 + len(cli_corpus.SYM_SPECIAL))
    assert run_at_baseline_dispatch(script) == here.getvalue()


def test_best_rank1_sym_zero_tensor():
    res = best_rank1_sym(SymTensor222(0, 0, 0, 0))
    assert res.psi == 0.0 and not res.term.y.any()
    assert res.warnings == ("symmetric enumeration degenerate",)


def test_best_rank1_sym_tie_rule_is_relative():
    x = np.random.default_rng(3).standard_normal(8)
    assert best_rank1_sym(SymTensor222(*x[:4] * 1e-150)).multiplicity == \
        best_rank1_sym(SymTensor222(*x[:4])).multiplicity == 1


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(-500, 500))
def test_best_rank1_sym_power_of_two_scale(seed, k):
    s = random_sym(seed)
    base = best_rank1_sym(s)
    scaled = best_rank1_sym(SymTensor222(*np.ldexp(s.as_tuple(), k)))
    assert np.ldexp(scaled.psi, -2 * k) == base.psi
    assert scaled.multiplicity == base.multiplicity
