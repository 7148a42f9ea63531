"""Hyperdeterminant and orbit classification for 2x2x2 tensors.

The eight orbits of real 2x2x2 tensors under invertible transforms in all
three modes are D0, D1, D2, D2p, D2pp, G2, D3, G3.  Degenerate orbits are
separated by multilinear rank; the full-multilinear-rank orbits G2 / D3 /
G3 are separated by the sign of the hyperdeterminant (+ / 0 / -), with D3
additionally carrying a defective double eigenvalue of the slab pencil.
Symmetric tensors occupy the sub-list D0, D1, G2, D3, G3, and are
classified by their expansion.  `SymTensor222`, the flat entry order and
the input checks live in `tensors`; SymTensor222 is re-exported here.
A label carries the Delta and multilinear rank it was decided from, and
`_reports` takes the decision of `classify` over a stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .smallalg import (DEFAULT_COINCIDENCE_TOL, EigenPair2, _diagonalizable, _eig2_terms,
                       _eigen_pair, eig2)
from .tensors import (DEFAULT_RANK_TOL, MultilinearRank, SymTensor222, Tensor222, _as_array,
                      _as_sym, _entries, _prescale, _ranks)

__all__ = [
    "ORBITS",
    "SYMMETRIC_ORBITS",
    "OrbitLabel",
    "SymTensor222",
    "hyperdet",
    "hyperdet_sym",
    "classify",
    "classify_sym",
    "pencil_eigs",
    "slab_pencil",
    "canonical_form",
]

ORBITS = ("D0", "D1", "D2", "D2p", "D2pp", "G2", "D3", "G3")
SYMMETRIC_ORBITS = ("D0", "D1", "G2", "D3", "G3")

PENCIL_COND_CAP = 1e8

_CANONICAL = {
    "D0": (0, 0, 0, 0, 0, 0, 0, 0),
    "D1": (1, 0, 0, 0, 0, 0, 0, 0),
    "D2": (1, 0, 0, 1, 0, 0, 0, 0),
    "D2p": (1, 0, 0, 0, 0, 1, 0, 0),
    "D2pp": (1, 0, 0, 0, 0, 0, 1, 0),
    "G2": (1, 0, 0, 0, 0, 0, 0, 1),
    "D3": (0, 1, 1, 0, 1, 0, 0, 0),
    "G3": (-1, 0, 0, 1, 0, 1, 1, 0),
}


def canonical_form(orbit: str) -> Tensor222:
    """Canonical representative of an orbit."""
    return Tensor222.from_entries(*_CANONICAL[orbit])


@dataclass(frozen=True)
class OrbitLabel:
    """Orbit name, the two facts it was decided from, and a diagnostic:
    ``boundary_margin`` is |hyperdeterminant| in units of the fourth power
    of the largest entry magnitude, i.e. how far the tensor sits from the
    Delta = 0 boundary on the classifier's own scale (0 for D0).  ``delta``
    is the hyperdeterminant on the tensor's own scale, the value `hyperdet`
    returns, and ``mlrank`` the multilinear rank at the cutoff the label
    used (`_rank_tol`).  Labels compare and hash by ``orbit`` alone.
    """

    orbit: str
    boundary_margin: float = 0.0
    delta: float = 0.0
    mlrank: MultilinearRank = MultilinearRank(0, 0, 0)

    def __eq__(self, other):
        if isinstance(other, OrbitLabel):
            return self.orbit == other.orbit
        return self.orbit == other

    def __hash__(self):
        return hash(self.orbit)


def _ldexp(value: float, exponent: int) -> float:
    """value * 2^exponent, and +-inf where that overflows."""
    try:
        return math.ldexp(value, exponent)
    except OverflowError:
        return math.copysign(math.inf, value)


def _delta(a, b, c, d, e, f, g, h) -> float:
    """Hyperdeterminant of the slabs [[a, b], [c, d]] and [[e, f], [g, h]]."""
    mix = ((a + e) * (d + h) - (b + f) * (c + g) - ((a - e) * (d - h) - (b - f) * (c - g))) / 2.0
    return mix * mix - 4.0 * (a * d - b * c) * (e * h - f * g)


def _delta_sym(a, b, c, d) -> float:
    return (b * c - a * d) ** 2 - 4.0 * (b * d - c * c) * (a * c - b * b)


def hyperdet(X) -> float:
    """Hyperdeterminant: discriminant of det(l1 X1 + l2 X2) in (l1, l2).

    Positive for orbit G2, negative for G3, zero on the boundary (D3 and
    the degenerate orbits).  Computed on X / 2^e (`tensors._prescale`) and
    multiplied by 2^(4e), so the value overflows or underflows only where
    Delta itself does.
    """
    unit, exponent = _prescale(_entries(_as_array(X)))
    return _ldexp(_delta(*unit.tolist()), 4 * exponent)


def hyperdet_sym(Xs: SymTensor222) -> float:
    """Closed form (bc - ad)^2 - 4 (bd - c^2)(ac - b^2) for symmetric input,
    a SymTensor222 or four finite coefficients, with the scaling of
    `hyperdet`."""
    unit, exponent = _prescale(_as_sym(Xs).as_tuple())
    return _ldexp(_delta_sym(*unit.tolist()), 4 * exponent)


def pencil_eigs(X, slab_order: str = "21",
                coincidence_tol: float = DEFAULT_COINCIDENCE_TOL) -> EigenPair2:
    """Eigen classification of the slab quotient X2 X1^-1 (or X1 X2^-1).

    ``slab_order`` "21" uses X2 X1^-1, "12" uses X1 X2^-1.  Raises when the
    designated slab is singular (condition number above the cap), pointing
    at the other order.
    """
    return _pencil_eigs(_as_array(X), slab_order, coincidence_tol)


def _pencil_eigs(A, slab_order: str, coincidence_tol: float) -> EigenPair2:
    """`pencil_eigs` of the checked array A."""
    if slab_order == "21":
        num, den, other = A[..., 1], A[..., 0], "12"
    elif slab_order == "12":
        num, den, other = A[..., 0], A[..., 1], "21"
    else:
        raise ValueError("slab_order must be '21' or '12'")
    if not _invertible(den):
        raise ValueError(
            f"designated slab is singular or ill-conditioned; try slab_order='{other}'")
    return eig2(_quotient(num, den), coincidence_tol)


def _invertible(den):
    """Whether each slab (..., 2, 2) is inverted in a pencil quotient: its
    condition number is at most PENCIL_COND_CAP.  The singular values of
    [[a, b], [c, d]] are (p +- q) / 2 with p = |(a + d, c - b)| and
    q = |(a - d, b + c)|, which `hypot` takes without squaring an entry."""
    a, b, c, d = den[..., 0, 0], den[..., 0, 1], den[..., 1, 0], den[..., 1, 1]
    p, q = np.hypot(a + d, c - b), np.hypot(a - d, b + c)
    # a singular slab divides by zero, and the zero slab gives NaN: neither is inverted
    with np.errstate(divide="ignore", invalid="ignore"):
        return (p + q) / np.abs(p - q) <= PENCIL_COND_CAP


def _quotient(num, den):
    """num den^-1 for each pair of slabs (..., p, p), as (den^-T num^T)^T;
    NaN for a pair whose den is exactly singular, so one such pair does not
    fail the others."""
    try:
        return np.linalg.solve(den.swapaxes(-1, -2), num.swapaxes(-1, -2)).swapaxes(-1, -2)
    except np.linalg.LinAlgError:
        # solve and slogdet factorize den^T alike, and meet the same zero pivot
        singular = (np.linalg.slogdet(den.swapaxes(-1, -2))[0] == 0.0)[..., None, None]
        safe = np.where(singular, np.eye(den.shape[-1]), den)
        return np.where(singular, np.nan, _quotient(num, safe))


def slab_pencil(X, coincidence_tol: float = DEFAULT_COINCIDENCE_TOL) -> EigenPair2 | None:
    """`pencil_eigs` of X2 X1^-1, or of X1 X2^-1 when X1 is singular; None
    when both slabs are."""
    # checked first: a non-finite entry's ValueError must not read as a singular slab
    A = _as_array(X)
    for order in ("21", "12"):
        try:
            return _pencil_eigs(A, order, coincidence_tol)
        except ValueError:
            continue
    return None


def _slab_pencils(A, coincidence_tol: float) -> list:
    """`slab_pencil(A[n], coincidence_tol)` of each tensor of the stack A
    (N, 2, 2, 2): X2 X1^-1, or X1 X2^-1 where X1 is not inverted or that
    quotient is not finite, each order with one solve over its tensors."""
    M, rest = np.full(A.shape[:-1], np.nan), np.arange(len(A))
    for num, den in ((A[..., 1], A[..., 0]), (A[..., 0], A[..., 1])):
        take = rest[_invertible(den[rest])]
        M[take] = _quotient(num[take], den[take])
        rest = rest[~np.isfinite(M[rest]).all(axis=(1, 2))]
        if not len(rest):
            break
    has = np.isfinite(M).all(axis=(1, 2))
    M = M[has]
    half, disc, gap, double = _eig2_terms(M, coincidence_tol)
    pairs = iter(map(_eigen_pair, half.tolist(), disc.tolist(), gap.tolist(), double.tolist(),
                     _diagonalizable(M, half, coincidence_tol).tolist()))
    return [next(pairs) if h else None for h in has.tolist()]


def _rank_tol(tol: float) -> float:
    """The relative cutoff of the rank and zero decisions that go with the
    Delta band ``tol``.  A residual meets Delta = 0 only to solver accuracy,
    so its Delta band is wide, but an unfolding with sigma_2 / sigma_1 of
    1e-7 has rank 2: these cutoffs never exceed DEFAULT_RANK_TOL."""
    return min(tol, DEFAULT_RANK_TOL)


def _decide(scale: float, unit_max: float, zero_scale, mlr, delta: float, tol: float) -> tuple:
    """(orbit, margin) from the largest entry magnitude ``scale``, that is
    ``unit_max`` on the scale of Delta ``delta``, and the multilinear rank
    ``mlr``: D0 at zero or at most _rank_tol(tol) ``zero_scale``, and the
    boundary D3 at |Delta| <= tol unit_max^4."""
    if scale == 0.0 or (zero_scale is not None and scale <= _rank_tol(tol) * zero_scale):
        return "D0", 0.0
    quartic = unit_max ** 4
    if min(mlr) <= 1:
        orbit = "D1" if max(mlr) <= 1 else ("D2p", "D2pp", "D2")[mlr.index(1)]
    else:
        orbit = "G2" if delta > tol * quartic else "G3" if delta < -tol * quartic else "D3"
    return orbit, abs(delta) / quartic


def classify(X, tol: float = 1e-9, zero_scale: float | None = None) -> OrbitLabel:
    """Orbit of a 2x2x2 tensor.

    Multilinear rank separates the degenerate orbits; for full multilinear
    rank (2,2,2) the sign of the hyperdeterminant with a band of
    ``tol * max|entry|^4`` separates G2 (+), G3 (-) and the boundary D3.
    ``zero_scale`` supplies an external magnitude reference so that
    numerically-zero residual tensors classify as D0.  The rank and zero
    decisions use the relative cutoff min(tol, DEFAULT_RANK_TOL), so a
    Delta band widened for residuals does not lower their rank.  The rank
    and Delta decisions run on X / 2^e with max|entry| / 2^e in [1/2, 1):
    the division is exact, so the label and margin do not depend on the
    scale and the degree-4 hyperdeterminant neither overflows nor
    underflows.  The label carries that rank and that Delta, scaled back
    as `hyperdet` scales it.  A SymTensor222 is classified by its expansion.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    X, exponent = _prescale(_as_array(X))
    unit_max = float(np.abs(X).max())
    delta = _delta(*_entries(X).tolist())
    mlrank = MultilinearRank(*map(int, _ranks(X, _rank_tol(tol))))
    orbit, margin = _decide(math.ldexp(unit_max, exponent), unit_max, zero_scale,
                            mlrank.as_tuple(), delta, tol)
    return OrbitLabel(orbit, margin, _ldexp(delta, 4 * exponent), mlrank)


def classify_sym(Xs: SymTensor222, tol: float = 1e-9,
                 zero_scale: float | None = None) -> OrbitLabel:
    """Orbit of a symmetric 2x2x2 tensor, a SymTensor222 or four finite
    coefficients: `classify` of its expansion.

    All three unfoldings of a symmetric tensor are the same matrix up to a
    column order, so the label is one of D0, D1, G2, D3, G3.
    """
    return classify(_as_sym(Xs), tol, zero_scale)


def _reports(X, R, tol: float, band: float):
    """(labels, margins, deltas, ranks) of N deflation steps, the inputs X
    (N, 2, 2, 2) deflated to the residuals R: lists over the 2N tensors of
    [X; R], inputs first.  X[n] is labelled as by `classify(X[n], tol)`,
    R[n] as by `classify(R[n], band, zero_scale=max|X[n]|)`, from one exact
    scaling and one rank call.
    """
    n = len(X)
    A = np.concatenate([X, R])
    unit, exponent = _prescale(A, 1)
    flat = _entries(unit)
    delta = _delta(*(flat[..., k] for k in range(8)))
    scale = np.abs(A).max(axis=(1, 2, 3))
    ranks = np.stack(_ranks(unit, np.repeat([_rank_tol(tol), _rank_tol(band)], n)[:, None]),
                     axis=1).tolist()
    decided = [_decide(*args) for args in zip(
        scale.tolist(), np.ldexp(scale, -exponent).tolist(), [None] * n + scale[:n].tolist(),
        ranks, delta.tolist(), [tol] * n + [band] * n)]
    with np.errstate(over="ignore"):
        deltas = np.ldexp(delta, 4 * exponent).tolist()
    return [d[0] for d in decided], [d[1] for d in decided], deltas, ranks
