"""Hyperdeterminant and orbit classification for 2x2x2 tensors.

The eight orbits of real 2x2x2 tensors under invertible transforms in all
three modes are D0, D1, D2, D2p, D2pp, G2, D3, G3.  Degenerate orbits are
separated by multilinear rank; the full-multilinear-rank orbits G2 / D3 /
G3 are separated by the sign of the hyperdeterminant (+ / 0 / -), with D3
additionally carrying a defective double eigenvalue of the slab pencil.
Symmetric tensors occupy the sub-list D0, D1, G2, D3, G3, and are
classified by their expansion.  `SymTensor222`, the flat entry order and
the input checks live in `tensors`; SymTensor222 is re-exported here.
A label carries the Delta and multilinear rank it was decided from.
`classify`, `classify_sym`, `pencil_eigs` and `slab_pencil` are the
one-tensor calls of the stacked `_labels` and `_slab_pencils`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .smallalg import (DEFAULT_COINCIDENCE_TOL, EigenPair2, _check_coincidence_tol, _eig2_fields,
                       _hypot)
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


# the (numerator, denominator) slabs of each slab order of a pencil quotient
_SLAB_ORDERS = {"21": (1, 0), "12": (0, 1)}


def pencil_eigs(X, slab_order: str = "21",
                coincidence_tol: float = DEFAULT_COINCIDENCE_TOL) -> EigenPair2:
    """Eigen classification of the slab quotient X2 X1^-1 (or X1 X2^-1).

    ``slab_order`` "21" uses X2 X1^-1, "12" uses X1 X2^-1.  Raises when the
    designated slab is singular (condition number above the cap) or the
    quotient overflows, pointing at the other order.
    """
    if slab_order not in _SLAB_ORDERS:
        raise ValueError("slab_order must be '21' or '12'")
    pencil = _slab_pencils(_as_array(X)[None], coincidence_tol, (slab_order,))[0]
    if pencil is None:
        raise ValueError("designated slab is singular or ill-conditioned, or the quotient "
                         f"overflows; try slab_order='{'12' if slab_order == '21' else '21'}'")
    return EigenPair2(*pencil)


def _invertible(a, b, c, d) -> bool:
    """Whether the slab [[a, b], [c, d]] of floats is inverted in a pencil
    quotient: its condition number is at most PENCIL_COND_CAP.  Its
    singular values are (p +- q) / 2 with p = |(a + d, c - b)| and
    q = |(a - d, b + c)|, which `hypot` takes without squaring an entry."""
    p, q = _hypot(a + d, c - b), _hypot(a - d, b + c)
    # a singular slab has p = q, and the zero slab p = q = 0: neither is inverted
    return p != q and (p + q) / abs(p - q) <= PENCIL_COND_CAP


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
    pencil = _slab_pencils(_as_array(X)[None], coincidence_tol)[0]
    return None if pencil is None else EigenPair2(*pencil)


def _slab_pencils(A, coincidence_tol: float, orders=("21", "12")) -> list:
    """The pencil of each tensor of the stack A (N, 2, 2, 2), as the tuple
    `smallalg._eig2_fields` gives: that of num den^-1 in the first slab order
    of ``orders`` whose den is inverted and whose quotient is finite, or
    None where no order's is.  Each order takes one `_quotient` call over
    the tensors that the orders before it left; the decisions run per
    matrix in Python floats."""
    _check_coincidence_tol(coincidence_tol)
    pencils, rest = [None] * len(A), list(range(len(A)))
    for order in orders:
        i, j = _SLAB_ORDERS[order]
        num, den = A[rest, ..., i], A[rest, ..., j]
        left = []
        for n, slab, m in zip(rest, den.reshape(-1, 4).tolist(),
                              _quotient(num, den).reshape(-1, 4).tolist()):
            if _invertible(*slab) and all(map(math.isfinite, m)):
                pencils[n] = _eig2_fields(*m, coincidence_tol)
            else:
                left.append(n)
        rest = left
        if not rest:
            break
    return pencils


def _rank_tol(tol: float) -> float:
    """The relative cutoff of the rank and zero decisions that go with the
    Delta band ``tol``.  A residual meets Delta = 0 only to solver accuracy,
    so its Delta band is wide, but an unfolding with sigma_2 / sigma_1 of
    1e-7 has rank 2: these cutoffs never exceed DEFAULT_RANK_TOL."""
    return min(tol, DEFAULT_RANK_TOL)


def _labels(A, tols, zero_scales) -> list:
    """The decision of `classify` for each tensor of the stack A (N, 2, 2, 2),
    A[n] at the Delta band tols[n] and the zero scale zero_scales[n] (None
    for none): a list of (orbit, margin, delta, [r1, r2, r3]).  One exact
    scaling, one SVD call and one list conversion serve the stack; Delta
    and the decisions run per tensor in Python floats."""
    if not all(tol > 0 for tol in tols):
        raise ValueError("tol must be positive")
    unit, exponents = _prescale(A, 1)
    rank_tols = [_rank_tol(tol) for tol in tols]
    labels = []
    for flat, exponent, mlr, tol, rank_tol, zero_scale in zip(
            _entries(unit).tolist(), exponents.tolist(), _ranks(unit, rank_tols), tols,
            rank_tols, zero_scales):
        # max|entry| from two scans, without a Python call per entry
        unit_max, delta = max(max(flat), -min(flat)), _delta(*flat)
        if unit_max == 0.0 or (zero_scale is not None
                               and math.ldexp(unit_max, exponent) <= rank_tol * zero_scale):
            orbit, margin = "D0", 0.0
        else:
            quartic = unit_max ** 4
            if min(mlr) <= 1:
                orbit = "D1" if max(mlr) <= 1 else ("D2p", "D2pp", "D2")[mlr.index(1)]
            else:
                orbit = "G2" if delta > tol * quartic else "G3" if delta < -tol * quartic else "D3"
            margin = abs(delta) / quartic
        labels.append((orbit, margin, _ldexp(delta, 4 * exponent), mlr))
    return labels


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
    This is the one-tensor case of `_labels`.
    """
    orbit, margin, delta, mlrank = _labels(_as_array(X)[None], [tol], [zero_scale])[0]
    return OrbitLabel(orbit, margin, delta, MultilinearRank(*mlrank))


def classify_sym(Xs: SymTensor222, tol: float = 1e-9,
                 zero_scale: float | None = None) -> OrbitLabel:
    """Orbit of a symmetric 2x2x2 tensor, a SymTensor222 or four finite
    coefficients: `classify` of its expansion.

    All three unfoldings of a symmetric tensor are the same matrix up to a
    column order, so the label is one of D0, D1, G2, D3, G3.
    """
    return classify(_as_sym(Xs), tol, zero_scale)
