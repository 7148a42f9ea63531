"""Small real-coefficient polynomial and eigenvalue kernels.

`roots` is the package's one companion-matrix root finder: both
stationary-point enumerations of `rank1` call it, for a degree-8 and a
degree-3 polynomial.
Eigen classification of 2x2 matrices uses the closed-form discriminant
with an explicit coincidence band, since the downstream orbit tests hinge
on "identical" versus "distinct" eigenvalues.  It is one decision per
matrix in Python floats, `_eig2_fields`, which `eig2` and the stacked slab
pencils of `orbits` both call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericalFailure",
    "roots",
    "common_root",
    "EigenPair2",
    "Spectrum",
    "eig2",
    "spectrum_small",
    "spectra_small",
    "DEFAULT_COINCIDENCE_TOL",
]

COEFF_DROP_TOL = 1e-12
IMAG_TOL = 1e-7
DEFAULT_COINCIDENCE_TOL = 1e-6


class NumericalFailure(RuntimeError):
    """Numerical routine failed to converge."""

    def __init__(self, message, iterations=None):
        super().__init__(message)
        self.iterations = iterations


def is_real_root(r):
    """Whether each root r lies within IMAG_TOL * (1 + |Re r|) of the real
    axis: the one realness band of the package; r is a number or an array."""
    return abs(r.imag) <= IMAG_TOL * (1.0 + abs(r.real))


def roots(coefficients) -> np.ndarray:
    """All complex roots, with multiplicity, of the real polynomial with
    ascending ``coefficients``: the eigenvalues of its companion matrix, built
    as `np.roots` builds it, from one `np.linalg.eigvals` call (LAPACK
    balances the matrix before its QR eigensolve).  Raises ValueError on fewer
    than two coefficients and on a last coefficient that is zero or not
    finite; `np.linalg.LinAlgError`, a ValueError, on any other non-finite one.
    """
    c = np.asarray(coefficients, dtype=float)
    n = c.size - 1
    if c.ndim != 1 or n < 1 or not (c[-1] != 0.0 and math.isfinite(c[-1])):
        raise ValueError("expected two or more coefficients, the last one finite and nonzero")
    # ones below the diagonal, written through the contiguous matrix's flat
    # view: cheaper than np.eye(n, k=-1) for the cubic of stationary_points_sym
    companion = np.zeros((n, n))
    companion.ravel()[n::n + 1] = 1.0
    # np.roots' -c[n-1::-1] / c[n]: division rounds |q| / |p| alike in either sign
    np.divide(c[-2::-1], -c[-1], out=companion[0])
    return np.linalg.eigvals(companion)


def _degree(c) -> int:
    """Index of the last of the coefficients c above COEFF_DROP_TOL times the
    largest one, or -1 when they are all zero."""
    big = np.nonzero(np.abs(c) > COEFF_DROP_TOL * np.abs(c).max(initial=0.0))[0]
    return int(big[-1]) if big.size else -1


def common_root(f, g, tol: float = 1e-8):
    """Real common root of two quadratics f = a u^2 + b u + c and
    g = d u^2 + e u + n, given by ascending coefficients, or None.

    Tests the resultant relation (ae - bd)(bn - ec) = (cd - an)^2; the
    shared root is then (bn - ec)/(cd - an) = (cd - an)/(ae - bd).  When
    both denominators vanish, f and g are proportional, both linear, or one
    of them is zero, and the root comes from their real `roots`: the
    smallest root of f within 10 ``tol`` of a root of g, as the mean of the
    two, or the smallest root of the nonzero one when the other is zero.
    Degrees drop their coefficients below COEFF_DROP_TOL times the largest.
    """
    f, g = (np.atleast_1d(np.asarray(q, dtype=float)) for q in (f, g))
    if f.ndim != 1 or g.ndim != 1 or not (np.isfinite(f).all() and np.isfinite(g).all()):
        raise ValueError("coefficients must be finite and one-dimensional")
    df, dg = _degree(f), _degree(g)
    if df > 2 or dg > 2:
        raise ValueError("common_root expects polynomials of degree at most 2")
    if df < 0 and dg < 0:
        raise ValueError("both polynomials are zero")
    if df == 0 or dg == 0:
        return None   # a nonzero constant shares no root
    ca = np.zeros(3)
    ca[: f.size] = f[:3]
    cb = np.zeros(3)
    cb[: g.size] = g[:3]
    c, b, a = ca
    n, e, d = cb
    scale = max(np.max(np.abs(ca)), np.max(np.abs(cb)))
    den1, den2 = c * d - a * n, a * e - b * d
    if abs(den2 * (b * n - e * c) - den1 ** 2) > tol * scale ** 4 * 4.0:
        return None
    if abs(den1) > 1e-10 * scale ** 2:
        return float((b * n - e * c) / den1)
    if abs(den2) > 1e-10 * scale ** 2:
        return float(den1 / den2)
    rts = [roots(q[: _degree(q) + 1]) for q in (ca, cb) if q.any()]
    real = [np.sort(r.real[is_real_root(r)]) for r in rts]
    if len(real) == 1:
        return float(real[0][0]) if real[0].size else None
    u, v = real[0][:, None], real[1]
    mean = 0.5 * (u + v)
    i, j = np.nonzero(np.abs(u - v) <= 10.0 * tol * (1.0 + np.abs(mean)))
    return float(mean[i[0], j[0]]) if i.size else None


@dataclass(frozen=True)
class EigenPair2:
    """Eigen classification of a 2x2 real matrix.

    ``kind`` is one of DistinctReal, DoubleRealDiagonalizable,
    DoubleRealDefective, ComplexPair.  For real kinds ``values`` holds the
    two eigenvalues; for ComplexPair it holds (real part, imag part).
    ``gap`` is the eigenvalue spread sqrt(|discriminant|) before the
    coincidence band collapses a near-double pair.
    """

    kind: str
    values: tuple
    eigenvector_count: int
    gap: float = 0.0


def _check_coincidence_tol(coincidence_tol: float):
    """Reject a coincidence band that is negative, NaN or infinite; 0 asks
    for exact coincidence."""
    if not 0.0 <= coincidence_tol < math.inf:
        raise ValueError("coincidence_tol must be finite and non-negative")


def _hypot(x: float, y: float) -> float:
    """np.hypot of two floats: libm's hypot, which the absolute value of a
    complex takes, and inf where that overflows."""
    try:
        return abs(complex(x, y))
    except OverflowError:
        return math.inf


def _eig2_fields(a, b, c, d, coincidence_tol: float) -> tuple:
    """(kind, values, eigenvector count, gap) of `eig2` for the matrix
    [[a, b], [c, d]] of floats, in Python floats.  The eigenvalues are a
    double one when closer than ``coincidence_tol * (1 + max|lambda|)``;
    it has two eigenvectors when M - lambda I is within the band
    ``coincidence_tol * (1 + max|entry|)`` of zero in the spectral norm,
    which is (|z1| + |z2|) / 2 for z1 = (a' + d') + i (c - b) and
    z2 = (a' - d') + i (b + c), a' and d' the shifted diagonal, free of the
    cancellation in the form through the Frobenius norm and determinant."""
    tr, det = a + d, a * d - b * c
    half, disc = tr / 2.0, tr * tr - 4.0 * det
    gap = math.sqrt(abs(disc))
    if gap <= coincidence_tol * (1.0 + max(abs(tr) / 2.0 + gap / 2.0, math.sqrt(abs(det)))):
        p, q = a - half, d - half
        norm = (_hypot(p + q, c - b) + _hypot(p - q, b + c)) / 2.0
        if norm <= coincidence_tol * (1.0 + max(abs(a), abs(b), abs(c), abs(d))):
            return "DoubleRealDiagonalizable", (half, half), 2, gap
        return "DoubleRealDefective", (half, half), 1, gap
    if disc > 0:
        return "DistinctReal", (half + gap / 2.0, half - gap / 2.0), 2, gap
    return "ComplexPair", (half, gap / 2.0), 2, gap


def eig2(M, coincidence_tol: float = DEFAULT_COINCIDENCE_TOL) -> EigenPair2:
    """Classify the eigenstructure of a 2x2 matrix with a coincidence band.

    Eigenvalues closer than ``coincidence_tol * (1 + max|lambda|)`` count as
    identical; defectiveness is decided by the norm of M - lambda I
    (`_eig2_fields`).
    """
    M = np.asarray(M, dtype=float)
    if M.shape != (2, 2) or not np.isfinite(M).all():
        raise ValueError("expected a finite 2x2 matrix")
    _check_coincidence_tol(coincidence_tol)
    return EigenPair2(*_eig2_fields(*M.ravel().tolist(), coincidence_tol))


@dataclass(frozen=True)
class Spectrum:
    """Full eigenvalue list of a small matrix with pair statistics."""

    eigenvalues: tuple
    n_complex_pairs: int
    n_coincident_real_pairs: int


def spectra_small(M, coincidence_tol: float = DEFAULT_COINCIDENCE_TOL):
    """The pair counts of `spectrum_small` for each matrix of the stack M
    (N, p, p), from one eigenvalue call: (eigenvalues (N, p) in LAPACK
    order, complex-pair counts (N,), coincident-pair counts (N,), finite
    (N,)).  A matrix with a non-finite entry enters the call as zeros and
    gets ``finite`` False, NaN eigenvalues and zero counts, so it fails
    alone.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 3 or M.shape[1] != M.shape[2] or M.shape[1] > 16:
        raise ValueError("expected square matrices of size p <= 16")
    _check_coincidence_tol(coincidence_tol)
    n, p = M.shape[:2]
    finite = np.isfinite(M).all(axis=(1, 2))[:, None]
    try:
        # LAPACK geev: balancing + Hessenberg + shifted QR
        vals = np.where(finite, np.linalg.eigvals(np.where(finite[..., None], M, 0.0)), np.nan)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalFailure(f"eigenvalue iteration failed: {exc}", iterations=30 * p) from exc
    real = is_real_root(vals)
    band = coincidence_tol * (1.0 + np.abs(vals).max(axis=1, initial=0.0))
    # round-off splits a double real eigenvalue into two close reals or
    # into a close conjugate pair; either way it is one coincident pair.
    # The candidate pairs (i, j), i < j, within the band, closest first
    # (ties in (i, j) order), are taken greedily, each value used once.
    i, j = np.nonzero(np.less.outer(np.arange(p), np.arange(p)))
    gap = np.abs(vals[:, i] - vals[:, j])
    close = (((real[:, i] & real[:, j]) | (vals[:, i] == np.conj(vals[:, j])))
             & (gap <= band[:, None]))
    order = np.argsort(np.where(close, gap, np.inf), axis=1, kind="stable")
    paired, rows = np.zeros((n, p), dtype=bool), np.arange(n)
    for pair in order.T[:close.sum(axis=1).max(initial=0)]:
        a, b = i[pair], j[pair]
        take = close[rows, pair] & ~paired[rows, a] & ~paired[rows, b]
        paired[rows, a] |= take
        paired[rows, b] |= take
    n_complex = np.count_nonzero(~real & ~paired & finite, axis=1) // 2
    return vals, n_complex, paired.sum(axis=1) // 2, finite[:, 0]


def spectrum_small(M, coincidence_tol: float = DEFAULT_COINCIDENCE_TOL) -> Spectrum:
    """Eigenvalues of a p x p matrix (p <= 16) with pair counting.

    Two real eigenvalues, or a conjugate pair, within a relative gap of
    ``coincidence_tol`` count as one coincident pair (closest pairs first,
    each value used once).  The remaining complex eigenvalues are counted
    in conjugate pairs.  This is the one-matrix case of `spectra_small`.
    """
    vals, n_complex, coincident, finite = spectra_small([M], coincidence_tol)
    if not finite[0]:
        raise ValueError("matrix entries must be finite")
    return Spectrum(tuple(map(complex, np.sort(vals[0]))), int(n_complex[0]), int(coincident[0]))
