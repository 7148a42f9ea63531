import numpy as np
import pytest

from tensorbit import Polynomial, common_root, eig2, roots, spectrum_small
from tensorbit.orbits import _quotient
from tensorbit.smallalg import IMAG_TOL, _norm2, spectra_small
from tensorbit.smallalg import is_real_root


def test_roots_simple_quadratic():
    rs = sorted(r.real for r in roots(Polynomial([-1.0, 0.0, 1.0])))
    np.testing.assert_allclose(rs, [-1.0, 1.0], atol=1e-12)


def test_roots_worked_symmetric_cubic():
    # -b z^3 + (a-2c) z^2 + (2b-d) z + c with (a,b,c,d) = (0,1,1,0)
    rs = roots(Polynomial([1.0, 2.0, -2.0, -1.0]))
    reals = sorted(r.real for r in rs if is_real_root(r))
    assert any(abs(r - 1.0) < 1e-10 for r in reals)
    np.testing.assert_allclose(reals, [(-3 - np.sqrt(5)) / 2, (-3 + np.sqrt(5)) / 2, 1.0],
                               atol=1e-10)


def test_roots_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        roots(Polynomial([0.0, 0.0]))
    with pytest.raises(ValueError):
        roots(Polynomial([3.0]))


def test_roots_count_matches_degree():
    rng = np.random.default_rng(5)
    for _ in range(50):
        deg = rng.integers(2, 9)
        coefs = rng.standard_normal(deg + 1)
        coefs[-1] += np.sign(coefs[-1]) + 0.1  # keep the leading term healthy
        pol = Polynomial(coefs)
        assert len(roots(pol)) == pol.degree


@pytest.mark.parametrize("seed", range(10))
def test_roots_residuals_small(seed):
    # evaluation at every returned root stays near zero, degrees 2..8
    rng = np.random.default_rng(seed)
    for _ in range(100):
        deg = rng.integers(2, 9)
        pol = Polynomial(rng.standard_normal(deg + 1))
        if pol.degree < 1:
            continue
        rs = roots(pol)
        resid = np.abs(pol(rs))
        scale = np.max(np.abs(pol.coefficients))
        assert np.all(resid <= 1e-7 * scale * (1 + np.abs(rs)) ** pol.degree)


def test_common_root_shared_factor():
    f = Polynomial([2.0, -3.0, 1.0])    # (u-1)(u-2)
    g = Polynomial([5.0, -6.0, 1.0])    # (u-1)(u-5)
    assert abs(common_root(f, g) - 1.0) < 1e-10
    # two linear polynomials meet the resultant relation; their roots decide
    assert abs(common_root(Polynomial([-1.0, 1.0]), Polynomial([-2.0, 2.0])) - 1.0) < 1e-10


def test_common_root_none():
    f = Polynomial([2.0, -3.0, 1.0])     # (u-1)(u-2)
    g = Polynomial([15.0, -8.0, 1.0])    # (u-3)(u-5)
    assert common_root(f, g) is None
    assert common_root(Polynomial([-1.0, 1.0]), Polynomial([-2.0, 1.0])) is None


@pytest.mark.parametrize("g", [(4.0, -6.0, 2.0), (0.0, 0.0, 0.0)])
def test_common_roots_of_proportional_or_zero_quadratic(g):
    # (u-1)(u-2) shares both roots with a multiple of itself and with zero;
    # the smaller one is returned, in either argument order
    f = Polynomial([2.0, -3.0, 1.0])
    assert common_root(f, Polynomial(g)) == pytest.approx(1.0, abs=1e-12)
    assert common_root(Polynomial(g), f) == pytest.approx(1.0, abs=1e-12)


def test_common_root_both_zero_rejected():
    with pytest.raises(ValueError):
        common_root(Polynomial([0.0]), Polynomial([0.0, 0.0]))


@pytest.mark.parametrize("seed", range(5))
def test_common_root_construct_then_recover(seed):
    rng = np.random.default_rng(seed)
    for _ in range(200):
        r, r1, r2 = rng.standard_normal(3) * 2.0
        if min(abs(r - r1), abs(r - r2), abs(r1 - r2)) < 1e-3:
            continue
        a, d = rng.standard_normal(2)
        if min(abs(a), abs(d)) < 1e-2:
            continue
        f = Polynomial([a * r * r1, -a * (r + r1), a])
        g = Polynomial([d * r * r2, -d * (r + r2), d])
        got = common_root(f, g)
        assert got is not None and abs(got - r) < 1e-6 * (1 + abs(r))
        # the two closed-form quotients agree whenever their denominators
        # are healthy
        c_, b_, a_ = f.coefficients
        n_, e_, d_ = g.coefficients
        den1 = c_ * d_ - a_ * n_
        den2 = a_ * e_ - b_ * d_
        if min(abs(den1), abs(den2)) > 1e-8:
            q1 = (b_ * n_ - e_ * c_) / den1
            q2 = den1 / den2
            assert abs(q1 - q2) < 1e-8 * (1 + abs(q1))


@pytest.mark.parametrize("seed", range(4))
def test_common_root_agrees_with_exhaustive_comparison(seed):
    rng = np.random.default_rng(100 + seed)
    for _ in range(250):
        f = Polynomial(rng.standard_normal(3))
        g = Polynomial(rng.standard_normal(3))
        if f.degree < 2 or g.degree < 2:
            continue
        got = common_root(f, g, 1e-10)
        rf = [r.real for r in roots(f) if is_real_root(r)]
        rg = [r.real for r in roots(g) if is_real_root(r)]
        brute = min((abs(u - v) for u in rf for v in rg), default=np.inf)
        if got is None:
            assert brute > 1e-9
        else:
            assert brute < 1e-6


def test_eig2_complex_pair():
    pair = eig2([[0.0, 1.0], [-1.0, 1.0]])
    assert pair.kind == "ComplexPair"


def test_eig2_defective_double():
    pair = eig2([[0.0, 1.0], [-1.0, -2.0]])
    assert pair.kind == "DoubleRealDefective"
    assert abs(pair.values[0] - (-1.0)) < 1e-12
    assert pair.eigenvector_count == 1


def test_eig2_distinct_real():
    pair = eig2(np.diag([2.0, 5.0]))
    assert pair.kind == "DistinctReal"
    assert sorted(pair.values) == [2.0, 5.0]


def test_eig2_diagonalizable_double():
    pair = eig2(np.eye(2) * 3.0)
    assert pair.kind == "DoubleRealDiagonalizable"
    assert pair.eigenvector_count == 2


@pytest.mark.parametrize("seed", range(20))
def test_eig2_similarity_invariance(seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((2, 2))
    base = eig2(M)
    for _ in range(5):
        while True:
            P = rng.standard_normal((2, 2))
            if 1e-1 < abs(np.linalg.det(P)) and np.linalg.cond(P) < 20:
                break
        sim = eig2(P @ M @ np.linalg.inv(P))
        assert sim.kind == base.kind
        np.testing.assert_allclose(sorted(np.atleast_1d(sim.values)),
                                   sorted(np.atleast_1d(base.values)), atol=1e-8)


@pytest.mark.parametrize("seed", range(10))
def test_norm2_matches_the_svd(seed):
    rng = np.random.default_rng(seed)
    # random, near-double (nearly a multiple of I, or nearly nilpotent after
    # the shift eig2 makes), nearly orthogonal, rank-1 and zero matrices
    Q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    cases = [rng.standard_normal((2, 2)), np.eye(2) + 1e-9 * rng.standard_normal((2, 2)),
             [[0.0, 1.0], [-1e-14, 0.0]], 3.0 * Q + 1e-12 * rng.standard_normal((2, 2)),
             np.outer(*rng.standard_normal((2, 2))), np.zeros((2, 2))]
    for A in cases:
        A = np.asarray(A, dtype=float) * 2.0 ** rng.integers(-300, 300)
        assert abs(_norm2(A) - np.linalg.norm(A, 2)) <= 1e-14 * np.linalg.norm(A, 2)


def _spectrum_by_loop(M, coincidence_tol):
    """The pair counts of a p x p matrix by the explicit closest-first loop."""
    vals = np.linalg.eigvals(M)
    real = np.abs(vals.imag) <= IMAG_TOL * (1.0 + np.abs(vals.real))
    band = coincidence_tol * (1.0 + np.max(np.abs(vals)))
    pairs = sorted((abs(vals[i] - vals[j]), i, j)
                   for i in range(vals.size) for j in range(i + 1, vals.size)
                   if (real[i] and real[j]) or vals[i] == np.conj(vals[j]))
    paired = np.zeros(vals.size, dtype=bool)
    coincident = 0
    for gap, i, j in pairs:
        if gap <= band and not (paired[i] or paired[j]):
            paired[i] = paired[j] = True
            coincident += 1
    return int(np.count_nonzero(~real & ~paired)) // 2, coincident


@pytest.mark.parametrize("p", range(2, 7))
def test_spectra_small_counts_as_the_loop(p):
    rng = np.random.default_rng(p)
    M = rng.standard_normal((200, p, p))
    # near-double eigenvalues, which round-off splits along or off the axis
    M[:50] = (np.eye(p) + 1e-7 * rng.standard_normal((50, p, p))) * rng.standard_normal((50, 1, 1))
    M[50:60, 1, 0] = -1e-10
    M[50:60, 0, 1], M[50:60, 0, 0], M[50:60, 1, 1] = 1.0, 0.5, 0.5
    for tol in (1e-6, 1e-4):
        vals, n_complex, coincident, finite = spectra_small(M, tol)
        assert finite.all()
        assert list(zip(n_complex.tolist(), coincident.tolist())) == \
            [_spectrum_by_loop(A, tol) for A in M]
        for A, v in zip(M[::20], vals[::20]):
            assert spectrum_small(A, tol).eigenvalues == tuple(complex(z) for z in np.sort(v))


def test_spectra_small_fails_only_a_singular_slab_row():
    rng = np.random.default_rng(5)
    num, den = rng.standard_normal((2, 6, 3, 3))
    den[2] = np.outer(den[2, 0], [1.0, 2.0, 3.0])    # exactly singular
    Q = _quotient(num, den)
    assert np.isnan(Q[2]).all() and np.isfinite(np.delete(Q, 2, axis=0)).all()
    vals, n_complex, coincident, finite = spectra_small(Q)
    assert finite.tolist() == [True, True, False, True, True, True]
    assert np.isnan(vals[2]).all() and n_complex[2] == coincident[2] == 0
    for n in (0, 1, 3, 4, 5):
        spec = spectrum_small(Q[n])
        assert (n_complex[n], coincident[n]) == (spec.n_complex_pairs,
                                                 spec.n_coincident_real_pairs)
    with pytest.raises(ValueError):
        spectrum_small(Q[2])


def test_spectrum_identity():
    spec = spectrum_small(np.eye(3))
    assert len(spec.eigenvalues) == 3
    assert spec.n_complex_pairs == 0
    assert spec.n_coincident_real_pairs == 1  # one disjoint pair within the triple


def test_spectrum_companion_cube_roots():
    # companion matrix of z^3 - 1
    C = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    spec = spectrum_small(C)
    assert spec.n_complex_pairs == 1
    reals = [v for v in spec.eigenvalues if abs(v.imag) < 1e-9]
    assert len(reals) == 1 and abs(reals[0].real - 1.0) < 1e-10


@pytest.mark.parametrize("seed", range(10))
def test_spectrum_matches_characteristic_roots(seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((4, 4))
    spec = spectrum_small(M)
    charpoly = np.poly(M)[::-1]  # ascending
    rs = roots(Polynomial(charpoly))
    got = sorted((v.real, abs(v.imag)) for v in spec.eigenvalues)
    want = sorted((r.real, abs(r.imag)) for r in rs)
    np.testing.assert_allclose(got, want, atol=1e-8)


@pytest.mark.parametrize("M", [[[0.5, 1.0], [-1e-12, 0.5]],
                               [[0.5, 1.0, 0.0], [-1e-12, 0.5, 0.0], [0.0, 0.0, -2.0]]])
def test_spectrum_pairs_a_double_eigenvalue_split_into_complex(M):
    # round-off has split the double eigenvalue 0.5 into 0.5 +- 1e-6 i
    spec = spectrum_small(M, 1e-4)
    assert spec.n_coincident_real_pairs == 1
    assert spec.n_complex_pairs == 0


def test_spectrum_size_cap():
    with pytest.raises(ValueError):
        spectrum_small(np.eye(17))
