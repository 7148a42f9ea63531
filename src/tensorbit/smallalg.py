"""Small real-coefficient polynomial and eigenvalue kernels.

Root-finding goes through the balanced companion matrix (LAPACK QR under
numpy), which is robust for the degree <= 8 polynomials that arise here.
Eigen classification of 2x2 matrices uses the closed-form discriminant
with an explicit coincidence band, since the downstream orbit tests hinge
on "identical" versus "distinct" eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Polynomial",
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


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial with ascending-degree coefficients."""

    coefficients: np.ndarray

    def __init__(self, coefficients):
        c = np.atleast_1d(np.asarray(coefficients, dtype=float))
        if c.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coefficients", c)

    @property
    def degree(self) -> int:
        """Index of the last coefficient above the drop tolerance."""
        c = self.coefficients
        scale = np.max(np.abs(c))
        if scale == 0.0:
            return -1
        idx = np.nonzero(np.abs(c) > COEFF_DROP_TOL * scale)[0]
        return int(idx[-1]) if idx.size else -1

    def trimmed(self) -> np.ndarray:
        """Coefficients up to the numerical degree (ascending)."""
        return self.coefficients[: self.degree + 1]

    def __call__(self, u):
        # Horner, highest degree first
        c = self.coefficients
        acc = np.zeros_like(np.asarray(u, dtype=complex) if np.iscomplexobj(u) else np.asarray(u, dtype=float))
        for coef in c[::-1]:
            acc = acc * u + coef
        return acc

    def derivative(self) -> "Polynomial":
        c = self.coefficients
        if c.size <= 1:
            return Polynomial([0.0])
        return Polynomial(c[1:] * np.arange(1, c.size))


def is_real_root(r):
    """Whether each root r lies within IMAG_TOL * (1 + |Re r|) of the real
    axis: the one realness band of the package; r is a number or an array."""
    return abs(r.imag) <= IMAG_TOL * (1.0 + abs(r.real))


def roots(f: Polynomial, tol: float = 1e-8) -> np.ndarray:
    """All complex roots of ``f`` (with multiplicity), companion-matrix QR.

    Each root is polished with one Newton step; the residual |f(root)| is
    checked against ``tol`` times the coefficient scale.
    """
    if not isinstance(f, Polynomial):
        f = Polynomial(f)
    c = f.trimmed()
    if c.size == 0:
        raise ValueError("zero polynomial has no well-defined roots")
    if c.size == 1:
        raise ValueError("constant polynomial has no roots")
    # np.roots balances the companion matrix before the QR eigensolve
    rts = np.roots(c[::-1])
    dF = f.derivative()
    polished = []
    scale = np.max(np.abs(c))
    for r in rts:
        for _ in range(2):
            fr = complex(f(r))
            dfr = complex(dF(r))
            if abs(dfr) < 1e-300:
                break
            step = fr / dfr
            if not np.isfinite(step.real) or not np.isfinite(step.imag):
                break
            r_new = r - step
            if abs(complex(f(r_new))) < abs(fr):
                r = r_new
            else:
                break
        polished.append(r)
    polished = np.asarray(polished)
    resid = np.abs(f(polished))
    if np.any(resid > tol * scale * (1.0 + np.abs(polished)) ** f.degree):
        bad = float(np.max(resid))
        raise NumericalFailure(f"root residual {bad:.3e} exceeds tolerance", iterations=2)
    return polished


def common_root(f: Polynomial, g: Polynomial, tol: float = 1e-8):
    """Real common root of two quadratics f = a u^2 + b u + c and
    g = d u^2 + e u + n, or None.

    Tests the resultant relation (ae - bd)(bn - ec) = (cd - an)^2; the
    shared root is then (bn - ec)/(cd - an) = (cd - an)/(ae - bd).  When
    both denominators vanish, f and g are proportional, both linear, or one
    of them is zero, and the root comes from their real roots (`roots`,
    checked against ``tol``): the smallest root of f within 10 ``tol`` of a
    root of g, as the mean of the two, or the smallest root of the nonzero
    one when the other is zero.
    """
    if not isinstance(f, Polynomial):
        f = Polynomial(f)
    if not isinstance(g, Polynomial):
        g = Polynomial(g)
    if f.degree > 2 or g.degree > 2:
        raise ValueError("common_root expects polynomials of degree at most 2")
    if f.degree < 0 and g.degree < 0:
        raise ValueError("both polynomials are zero")
    if f.degree == 0 or g.degree == 0:
        return None   # a nonzero constant shares no root
    ca = np.zeros(3)
    ca[: f.coefficients.size] = f.coefficients[:3]
    cb = np.zeros(3)
    cb[: g.coefficients.size] = g.coefficients[:3]
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
    rts = [roots(Polynomial(q), tol) for q in (ca, cb) if q.any()]
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


def _eig2_terms(M, coincidence_tol: float):
    """The closed form behind `eig2` for each 2x2 matrix of M (..., 2, 2):
    half the trace, the discriminant, the gap sqrt(|discriminant|), and
    whether the eigenvalues are one double eigenvalue, i.e. closer than
    ``coincidence_tol * (1 + max|lambda|)``."""
    tr = M[..., 0, 0] + M[..., 1, 1]
    det = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    disc = tr * tr - 4.0 * det
    gap = np.sqrt(abs(disc))
    lam_scale = np.maximum(abs(tr) / 2.0 + gap / 2.0, np.sqrt(abs(det)))
    return tr / 2.0, disc, gap, gap <= coincidence_tol * (1.0 + lam_scale)


def _norm2(A):
    """Spectral norm of each 2x2 matrix of A (..., 2, 2) in closed form:
    sigma_max^2 = (f + sqrt(f^2 - 4 det^2)) / 2 with f = ||A||_F^2, which is
    ((|z1| + |z2|) / 2)^2 for z1 = (a + d) + i (c - b) and z2 = (a - d) + i (b + c),
    written that way to avoid the cancellation in f^2 - 4 det^2."""
    a, b, c, d = A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]
    return (np.hypot(a + d, c - b) + np.hypot(a - d, b + c)) / 2.0


def _diagonalizable(M, half, coincidence_tol: float):
    """Whether each 2x2 matrix of M (..., 2, 2) is within the coincidence band
    of half I, its half trace: a double eigenvalue with two eigenvectors."""
    band = coincidence_tol * (1.0 + np.abs(M).max(axis=(-2, -1)))
    return _norm2(M - half[..., None, None] * np.eye(2)) <= band


def _eigen_pair(half, disc, gap, double, diagonalizable) -> EigenPair2:
    """The kind decision of `eig2`, on the `_eig2_terms` of one matrix and,
    for a double eigenvalue, its `_diagonalizable` verdict."""
    if double:
        if diagonalizable:
            return EigenPair2("DoubleRealDiagonalizable", (half, half), 2, gap)
        return EigenPair2("DoubleRealDefective", (half, half), 1, gap)
    if disc > 0:
        return EigenPair2("DistinctReal", (half + gap / 2.0, half - gap / 2.0), 2, gap)
    return EigenPair2("ComplexPair", (half, gap / 2.0), 2, gap)


def eig2(M, coincidence_tol: float = DEFAULT_COINCIDENCE_TOL) -> EigenPair2:
    """Classify the eigenstructure of a 2x2 matrix with a coincidence band.

    Eigenvalues closer than ``coincidence_tol * (1 + max|lambda|)`` count as
    identical; defectiveness is decided by the rank of M - lambda I.
    """
    M = np.asarray(M, dtype=float)
    if M.shape != (2, 2) or not np.isfinite(M).all():
        raise ValueError("expected a finite 2x2 matrix")
    half, disc, gap, double = _eig2_terms(M, coincidence_tol)
    return _eigen_pair(half, disc, gap, double,
                       double and _diagonalizable(M, half, coincidence_tol))


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
