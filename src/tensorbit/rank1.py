"""Best rank-1 approximation of 2x2x2, symmetric 2x2x2 and pxpx2 tensors.

For a 2x2x2 tensor the stationary points of the least-squares criterion
are enumerated in closed form.  With the normalization y = (1, y2),
z = (1, z2) the two first-order conditions become quadratics in y2 whose
coefficients are quadratics in z2; eliminating y2 through the common-root
resultant yields a degree-8 polynomial in z2.  Each stationary point
carries the criterion value, the hyperdeterminant of the residual, a
finite-difference Hessian test and a zero-factor (degenerate) flag.

Tensors whose optimum violates the y1, z1 != 0 normalization (a measure
zero set) are handled by rerunning the enumeration on index-reversed
copies of the tensor, which swap the roles of the normalized and free
components, and by an alternating least-squares fallback (`hopm`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import smallalg
from .orbits import SymTensor222, hyperdet, hyperdet_sym
from .smallalg import Polynomial, is_real_root
from .tensors import Rank1Term, Tensor222, TensorPxPx2, frobenius_norm_sq

P = np.polynomial.polynomial

__all__ = [
    "StationaryPoint",
    "SymStationaryPoint",
    "BestRank1Result",
    "EnumerationResult",
    "psi",
    "psi_surface",
    "optimal_x",
    "stationary_points_222",
    "best_rank1_222",
    "stationary_points_sym",
    "best_rank1_sym",
    "hopm",
    "detect_infinite_best",
    "stationarity_quadratics",
    "boundary_quadratic",
    "resultant_poly",
    "stationary_poly",
    "boundary_match_poly",
    "chart_consistency_poly",
    "zero_factor_quadratic",
    "boundary_only_quadratic",
]

DEGENERATE_X_TOL = 1e-8
TIE_REL_TOL = 1e-9
HESSIAN_STEP = 1e-5


# ---------------------------------------------------------------------------
# criterion and first-order quantities
# ---------------------------------------------------------------------------

def _as_tensor(X) -> Tensor222:
    return X if isinstance(X, Tensor222) else Tensor222(X)


def psi(X, term: Rank1Term) -> float:
    """Squared residual ||X - x (x) y (x) z||^2, expanded form."""
    arr = X.array if isinstance(X, (Tensor222, TensorPxPx2)) else np.asarray(X, float)
    x, y, z = term.x, term.y, term.z
    if (x.size, y.size, z.size) != arr.shape:
        raise ValueError("factor lengths do not match tensor dimensions")
    inner = float(np.einsum("ijk,i,j,k->", arr, x, y, z))
    value = float((arr ** 2).sum() - 2.0 * inner + term.norm_sq())
    # the expanded form can go a few ulp negative for near-exact fits
    return value if value > 0.0 else 0.0


def optimal_x(X, y, z) -> np.ndarray:
    """Mode-1 factor minimizing the criterion for fixed y and z."""
    arr = X.array if isinstance(X, (Tensor222, TensorPxPx2)) else np.asarray(X, float)
    y = np.asarray(y, float)
    z = np.asarray(z, float)
    ny = float(y @ y)
    nz = float(z @ z)
    if ny == 0.0 or nz == 0.0:
        raise ValueError("y and z must be nonzero")
    return np.einsum("ijk,j,k->i", arr, y, z) / (ny * nz)


def psi_surface(X, y2, z2):
    """Criterion with x eliminated, as a function of (y2, z2); broadcasts."""
    t = _as_tensor(X)
    a, b, c, d, e, f, g, h = t.entries
    y2 = np.asarray(y2, float)
    z2 = np.asarray(z2, float)
    v1 = a + e * z2 + b * y2 + f * y2 * z2
    v2 = c + g * z2 + d * y2 + h * y2 * z2
    return frobenius_norm_sq(t) - (v1 * v1 + v2 * v2) / ((1.0 + y2 ** 2) * (1.0 + z2 ** 2))


# ---------------------------------------------------------------------------
# the resultant machinery (quadratics in one variable, coefficients in the other)
# ---------------------------------------------------------------------------

def stationarity_quadratics(X, var: str = "z"):
    """The two first-order conditions as quadratics in y2 (var="z") or z2.

    Returns ((A1, B1, C1), (A2, B2, C2)): each entry is the ascending
    coefficient array (length 3) of the named coefficient as a polynomial
    in the *other* variable.
    """
    a, b, c, d, e, f, g, h = _as_tensor(X).entries
    p = a * f + b * e + c * h + d * g
    if var == "z":
        A1 = np.array([a * b + c * d, p, e * f + g * h])
        B1 = np.array([a * a + c * c - b * b - d * d,
                       2.0 * (a * e + c * g - b * f - d * h),
                       e * e + g * g - f * f - h * h])
        C1 = -A1
        A2 = np.array([-(b * f + d * h), b * b + d * d - f * f - h * h, b * f + d * h])
        B2 = np.array([-p, 2.0 * (a * b + c * d - e * f - g * h), p])
        C2 = np.array([-(a * e + c * g), a * a + c * c - e * e - g * g, a * e + c * g])
    elif var == "y":
        A1 = np.array([-(e * f + g * h), e * e + g * g - f * f - h * h, e * f + g * h])
        B1 = np.array([-p, 2.0 * (a * e + c * g - b * f - d * h), p])
        C1 = np.array([-(a * b + c * d), a * a + c * c - b * b - d * d, a * b + c * d])
        A2 = np.array([a * e + c * g, p, b * f + d * h])
        B2 = np.array([a * a + c * c - e * e - g * g,
                       2.0 * (a * b + c * d - e * f - g * h),
                       b * b + d * d - f * f - h * h])
        C2 = -A2
    else:
        raise ValueError("var must be 'y' or 'z'")
    return (A1, B1, C1), (A2, B2, C2)


def boundary_quadratic(X, var: str = "z"):
    """The bracket whose square is (1+y2^2)^2 (1+z2^2)^2 Delta(X - Y).

    Returned in the same layout as `stationarity_quadratics`.
    """
    a, b, c, d, e, f, g, h = _as_tensor(X).entries
    q = a * g - b * h - c * e + d * f
    r = b * c - a * d + e * h - f * g
    if var == "z":
        A3 = np.array([a * h - c * f, r, b * g - d * e])
        B3 = np.array([q, 0.0, q])
        C3 = np.array([d * e - b * g, r, c * f - a * h])
    elif var == "y":
        A3 = np.array([c * f - a * h, q, b * g - d * e])
        B3 = np.array([r, 0.0, r])
        C3 = np.array([d * e - b * g, q, a * h - c * f])
    else:
        raise ValueError("var must be 'y' or 'z'")
    return A3, B3, C3


def resultant_poly(quad1, quad2) -> np.ndarray:
    """Common-root condition of two quadratics with polynomial coefficients.

    For quad1 = (al, be, ga) and quad2 = (de, ep, nu) the returned
    ascending coefficient array is (al ep - be de)(be nu - ep ga)
    - (ga de - al nu)^2, a polynomial of degree <= 8.
    """
    al, be, ga = quad1
    de, ep, nu = quad2
    t1 = P.polymul(P.polysub(P.polymul(al, ep), P.polymul(be, de)),
                   P.polysub(P.polymul(be, nu), P.polymul(ep, ga)))
    t2 = P.polysub(P.polymul(ga, de), P.polymul(al, nu))
    out = P.polysub(t1, P.polymul(t2, t2))
    full = np.zeros(9)
    full[: out.size] = out
    return full


def stationary_poly(X, var: str = "z") -> np.ndarray:
    """Degree-8 polynomial whose roots are the var-components of the
    stationary points."""
    q1, q2 = stationarity_quadratics(X, var)
    return resultant_poly(q1, q2)


def boundary_match_poly(X, eq: int, var: str = "z") -> np.ndarray:
    """Degree-8 polynomial pairing one stationarity equation (eq = 1 or 2)
    with the Delta(X - Y) = 0 bracket."""
    q1, q2 = stationarity_quadratics(X, var)
    q3 = boundary_quadratic(X, var)
    return resultant_poly(q1 if eq == 1 else q2, q3)


def chart_consistency_poly(X) -> np.ndarray:
    """Degree-8 polynomial in z2 from equating the y2 recovered through the
    stationarity pair with the y2 recovered through (eq 1, boundary)."""
    (A1, B1, C1), (A2, B2, C2) = stationarity_quadratics(X, "z")
    A3, B3, C3 = boundary_quadratic(X, "z")
    lhs = P.polymul(P.polysub(P.polymul(B1, C3), P.polymul(B3, C1)),
                    P.polysub(P.polymul(C1, A2), P.polymul(A1, C2)))
    rhs = P.polymul(P.polysub(P.polymul(B1, C2), P.polymul(B2, C1)),
                    P.polysub(P.polymul(C1, A3), P.polymul(A1, C3)))
    out = P.polysub(lhs, rhs)
    full = np.zeros(9)
    full[: out.size] = out
    return full


def zero_factor_quadratic(X, var: str = "z") -> np.ndarray:
    """Quadratic whose roots are the var-components of the two stationary
    points with x = 0; its discriminant equals Delta(X)."""
    a, b, c, d, e, f, g, h = _as_tensor(X).entries
    if var == "z":
        return np.array([a * d - b * c, a * h - b * g + d * e - c * f, e * h - f * g])
    if var == "y":
        return np.array([c * e - a * g, -(a * h + b * g - d * e - c * f), d * f - b * h])
    raise ValueError("var must be 'y' or 'z'")


def boundary_only_quadratic(X, var: str = "z") -> np.ndarray:
    """Quadratic whose roots are the two boundary-locus solutions that are
    not stationary points; its discriminant also equals Delta(X)."""
    a, b, c, d, e, f, g, h = _as_tensor(X).entries
    if var == "z":
        return np.array([e * h - f * g, -(a * h - b * g + d * e - c * f), a * d - b * c])
    if var == "y":
        return np.array([d * f - b * h, a * h + b * g - d * e - c * f, c * e - a * g])
    raise ValueError("var must be 'y' or 'z'")


# ---------------------------------------------------------------------------
# stationary point enumeration for 2x2x2
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StationaryPoint:
    """One stationary point of the criterion in the (y2, z2) chart.

    ``hessian_pd`` is None when the positive-definiteness test was skipped.
    """

    y2: float
    z2: float
    x: np.ndarray
    psi: float
    delta_residual: float
    hessian_pd: bool | None
    degenerate: bool

    def term(self) -> Rank1Term:
        return Rank1Term(self.x, [1.0, self.y2], [1.0, self.z2])


@dataclass(frozen=True)
class EnumerationResult:
    """Real stationary points plus enumeration diagnostics."""

    points: tuple
    n_complex: int
    reduced_degree: bool = False

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def __getitem__(self, idx):
        return self.points[idx]


def _eval_quads(quads, t):
    """Values at t of quadratics given as ascending plain-float triples."""
    return tuple(q0 + (q1 + q2 * t) * t for q0, q1, q2 in quads)


def _eval_derivs(quads, t):
    """Derivatives at t of quadratics given as ascending plain-float triples."""
    return tuple(q1 + 2.0 * q2 * t for _, q1, q2 in quads)


def _newton_polish(quads_z, y2, z2, iters=4):
    """A few Newton steps on the 2x2 polynomial system (F1, F2)(y2, z2);
    ``quads_z`` holds the stationarity quadratics as plain-float triples."""
    quads1, quads2 = quads_z
    for _ in range(iters):
        a1, b1, c1 = _eval_quads(quads1, z2)
        a2, b2, c2 = _eval_quads(quads2, z2)
        da1, db1, dc1 = _eval_derivs(quads1, z2)
        da2, db2, dc2 = _eval_derivs(quads2, z2)
        f1 = a1 * y2 * y2 + b1 * y2 + c1
        f2 = a2 * y2 * y2 + b2 * y2 + c2
        j11 = 2.0 * a1 * y2 + b1
        j21 = 2.0 * a2 * y2 + b2
        j12 = da1 * y2 * y2 + db1 * y2 + dc1
        j22 = da2 * y2 * y2 + db2 * y2 + dc2
        det = j11 * j22 - j12 * j21
        if abs(det) < 1e-14 * (1.0 + abs(j11 * j22)):
            break
        dy = (f1 * j22 - f2 * j12) / det
        dz = (j11 * f2 - j21 * f1) / det
        if not (math.isfinite(dy) and math.isfinite(dz)):
            break
        y2n, z2n = y2 - dy, z2 - dz
        if abs(dy) + abs(dz) > 1e-2 * (1.0 + abs(y2) + abs(z2)):
            break
        y2, z2 = y2n, z2n
        if abs(f1) + abs(f2) < 1e-14:
            break
    return y2, z2


def _hessian_pd(X, y2, z2) -> bool:
    hy = HESSIAN_STEP * (1.0 + abs(y2))
    hz = HESSIAN_STEP * (1.0 + abs(z2))
    steps = np.array([-1.0, 0.0, 1.0])
    # f[i, j] = psi at (y2 + (i - 1) hy, z2 + (j - 1) hz)
    f = psi_surface(X, (y2 + hy * steps)[:, None], (z2 + hz * steps)[None, :])
    hyy = (f[2, 1] - 2.0 * f[1, 1] + f[0, 1]) / hy ** 2
    hzz = (f[1, 2] - 2.0 * f[1, 1] + f[1, 0]) / hz ** 2
    hyz = (f[2, 2] - f[2, 0] - f[0, 2] + f[0, 0]) / (4.0 * hy * hz)
    det = hyy * hzz - hyz * hyz
    return bool(det > 0.0 and hyy + hzz > 0.0)


def _build_point(X, y2, z2, hessian: bool = True) -> StationaryPoint:
    t = _as_tensor(X)
    y = np.array([1.0, y2])
    z = np.array([1.0, z2])
    x = optimal_x(t, y, z)
    term = Rank1Term(x, y, z)
    value = psi(t, term)
    resid = Tensor222(t.array - term.tensor())
    norm = np.sqrt(frobenius_norm_sq(t))
    degenerate = bool(np.linalg.norm(x) <= DEGENERATE_X_TOL * (1.0 + norm))
    return StationaryPoint(float(y2), float(z2), x, value, hyperdet(resid),
                           _hessian_pd(t, y2, z2) if hessian else None, degenerate)


def stationary_points_222(X, tol: float = 1e-8, hessian: bool = True) -> EnumerationResult:
    """All real stationary points of the rank-1 criterion for a 2x2x2 tensor.

    Solves the degree-8 resultant in z2, recovers y2 as the common roots of
    the two stationarity quadratics, and Newton-polishes each pair.  The
    complex stationary points are counted but not returned.  If the
    resultant collapses below degree 8 the reduced equation is solved and
    the result is flagged.

    Raises ValueError if the resultant vanishes identically, which happens
    when the stationary set is positive-dimensional: constant-criterion
    tensors (orthogonal slab pencils) and exact rank-1 tensors.  The
    chart-merging `best_rank1_222` handles both through its fallback.
    """
    t = _as_tensor(X)
    quad_arrays = stationarity_quadratics(t, "z")
    quads = tuple(tuple(q.tolist() for q in eq) for eq in quad_arrays)
    pol = Polynomial(resultant_poly(*quad_arrays))
    deg = pol.degree
    if deg < 1:
        raise ValueError("stationary-point resultant vanishes identically: the "
                         "stationary set is positive-dimensional (exact rank-1 "
                         "or orthogonal-pencil input); use best_rank1_222")
    reduced = deg < 8
    roots = smallalg.roots(pol, tol)
    pairs = []
    n_complex = 0
    for r in roots:
        if not is_real_root(r):
            n_complex += 1
            continue
        z2 = float(r.real)
        # two partners when both quadratics vanish or are proportional at z2
        partners = smallalg.common_roots(_eval_quads(quads[0], z2),
                                         _eval_quads(quads[1], z2), tol)
        if not partners:
            n_complex += 1
        for y2 in partners:
            pair = _newton_polish(quads, float(y2), z2)
            # each copy of an exact multiple root yields the same points
            if pair not in pairs:
                pairs.append(pair)
    points = sorted((_build_point(t, y2, z2, hessian) for y2, z2 in pairs),
                    key=lambda s: (s.psi, s.y2, s.z2))
    return EnumerationResult(tuple(points), n_complex, reduced)


# ---------------------------------------------------------------------------
# global best over all normalization charts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BestRank1Result:
    """Best rank-1 term with the stationary-point table it was chosen from."""

    term: Rank1Term
    psi: float
    all_points: tuple
    multiplicity: int
    n_complex: int = 0
    converged: bool = True
    iterations: int = 0
    method: str = "enumerate"
    warnings: tuple = field(default_factory=tuple)


def _flip(arr: np.ndarray, fy: int, fz: int) -> np.ndarray:
    out = arr[:, ::-1, :] if fy else arr
    return out[:, :, ::-1] if fz else out


def _chart_candidates(t: Tensor222, tol: float):
    """(psi, term, degenerate) candidates from the four normalization charts."""
    cands = []
    warnings = []
    base_enum = None
    for fy in (0, 1):
        for fz in (0, 1):
            arr = _flip(t.array, fy, fz)
            try:
                enum = stationary_points_222(Tensor222(arr), tol)
            except (ValueError, smallalg.NumericalFailure):
                warnings.append(f"enumeration degenerate in chart ({fy},{fz})")
                continue
            if (fy, fz) == (0, 0):
                base_enum = enum
            for pt in enum.points:
                y = np.array([1.0, pt.y2])[::-1] if fy else np.array([1.0, pt.y2])
                z = np.array([1.0, pt.z2])[::-1] if fz else np.array([1.0, pt.z2])
                cands.append((pt.psi, Rank1Term(pt.x, y, z), pt.degenerate))
    return cands, base_enum, warnings


def _dedupe_terms(cands, scale):
    kept = []
    for ps, term, degen in sorted(cands, key=lambda c: c[0]):
        arr = term.tensor()
        if any(np.max(np.abs(arr - other)) <= 1e-7 * (1.0 + scale) for _, other in kept):
            continue
        kept.append(((ps, term, degen), arr))
    return [k for k, _ in kept]


def best_rank1_222(X, tol: float = 1e-8, cross_check: bool = True) -> BestRank1Result:
    """Globally best rank-1 approximation of a 2x2x2 tensor.

    Enumerates stationary points in all four normalization charts (so that
    optima with zero leading factor components are still found exactly),
    discards the zero-factor degenerate pair, and returns the minimizer.
    An alternating least-squares pass cross-checks the result; if it finds
    a strictly better value the input is flagged as non-generic and the
    better term is returned.
    """
    t = _as_tensor(X)
    norm_sq = frobenius_norm_sq(t)
    scale = np.sqrt(norm_sq)
    cands, base_enum, warnings = _chart_candidates(t, tol)
    usable = [c for c in _dedupe_terms(cands, scale) if not c[2]]
    base_points = base_enum.points if base_enum is not None else ()
    n_complex = base_enum.n_complex if base_enum is not None else 0

    best = None
    if usable:
        best = min(usable, key=lambda c: c[0])
    if cross_check or best is None:
        als = hopm(t, max_iter=2000, tol=1e-15, restarts=8, seed=0)
        if best is None:
            warnings.append("no usable stationary point; alternating least squares fallback")
            best = (als.psi, als.term, False)
            method = "hopm"
        elif als.psi < best[0] - 1e-8 * (1.0 + norm_sq):
            warnings.append("non-generic input: iterative search beat the enumeration")
            best = (als.psi, als.term, False)
            method = "hopm"
        else:
            method = "enumerate"
    else:
        method = "enumerate"
    ties = [c for c in usable if c[0] <= best[0] + TIE_REL_TOL * (1.0 + abs(best[0]))]
    multiplicity = max(1, len(ties))
    return BestRank1Result(best[1], float(best[0]), tuple(base_points), multiplicity,
                           n_complex=n_complex, method=method, warnings=tuple(warnings))


# ---------------------------------------------------------------------------
# symmetric 2x2x2
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymStationaryPoint:
    """Stationary point of the symmetric criterion; z is the ratio y1/y2."""

    z: float
    y: np.ndarray
    y2_cubed: float
    psi: float
    delta_residual: float

    def term(self) -> Rank1Term:
        return Rank1Term(self.y, self.y, self.y)


def sym_stationarity_cubic(Xs: SymTensor222) -> np.ndarray:
    """Ascending coefficients of the cubic in z = y1/y2 solved by the
    symmetric stationary points: -b z^3 + (a - 2c) z^2 + (2b - d) z + c."""
    a, b, c, d = Xs.as_tuple()
    return np.array([c, 2.0 * b - d, a - 2.0 * c, -b])


def stationary_points_sym(Xs: SymTensor222, tol: float = 1e-8) -> EnumerationResult:
    """Real stationary points of the symmetric rank-1 criterion.

    Solves the cubic in z = y1/y2 (reduced degree when b = 0) and recovers
    y2^3 from the closed form whose denominator (z^2 + 1)^2 never
    vanishes; every real root yields a genuine stationary point.
    """
    cubic = Polynomial(sym_stationarity_cubic(Xs))
    deg = cubic.degree
    if deg < 1:
        raise ValueError("stationarity cubic degenerates for this tensor")
    roots = smallalg.roots(cubic, tol)
    a, b, c, d = Xs.as_tuple()
    full = Xs.tensor()
    points = []
    n_complex = 0
    for r in roots:
        if not is_real_root(r):
            n_complex += 1
            continue
        z = float(r.real)
        w = (b * z * z + 2.0 * c * z + d) / (z * z + 1.0) ** 2
        y2 = float(np.cbrt(w))
        y = np.array([z * y2, y2])
        term = Rank1Term(y, y, y)
        value = psi(full, term)
        resid = Xs.rank1_update(y, -1.0)
        points.append(SymStationaryPoint(z, y, float(w), value, hyperdet_sym(resid)))
    points.sort(key=lambda s: (s.psi, s.z))
    return EnumerationResult(tuple(points), n_complex, deg < 3)


def _sym_gradient(Xs: SymTensor222, y) -> np.ndarray:
    a, b, c, d = Xs.as_tuple()
    y1, y2 = float(y[0]), float(y[1])
    contr = np.array([a * y1 * y1 + 2.0 * b * y1 * y2 + c * y2 * y2,
                      b * y1 * y1 + 2.0 * c * y1 * y2 + d * y2 * y2])
    return -6.0 * (contr - (y1 * y1 + y2 * y2) ** 2 * np.asarray(y, float))


def best_rank1_sym(Xs: SymTensor222, tol: float = 1e-8) -> BestRank1Result:
    """Best symmetric rank-1 approximation y (x) y (x) y.

    The minimizer over the cubic's real roots; a real cubic always has a
    real root, so an empty enumeration triggers a coarse grid fallback
    with a diagnostic warning.
    """
    warnings = []
    points = ()
    n_complex = 0
    try:
        enum = stationary_points_sym(Xs, tol)
        points = enum.points
        n_complex = enum.n_complex
    except (ValueError, smallalg.NumericalFailure):
        warnings.append("symmetric enumeration degenerate")
    full = Xs.tensor()
    if points:
        best = points[0]
        ties = [p for p in points if p.psi <= best.psi + TIE_REL_TOL * (1.0 + abs(best.psi))]
        return BestRank1Result(best.term(), best.psi, points, len(ties),
                               n_complex=n_complex, method="enumerate",
                               warnings=tuple(warnings))
    # grid fallback: minimize over directions, cube-root scale closed form
    warnings.append("grid-search fallback for symmetric optimum")
    angles = np.linspace(0.0, np.pi, 721)
    best_val, best_y = np.inf, None
    for th in angles:
        u = np.array([np.cos(th), np.sin(th)])
        # optimal scale s for term (s u)^(x)3 minimizes a cubic in s^3
        inner = float(np.einsum("ijk,i,j,k->", full.array, u, u, u))
        s3 = inner  # |u| = 1, so best s^3 equals the contraction
        y = np.cbrt(s3) * u
        val = psi(full, Rank1Term(y, y, y))
        if val < best_val:
            best_val, best_y = val, y
    term = Rank1Term(best_y, best_y, best_y)
    return BestRank1Result(term, float(best_val), (), 1, method="grid",
                           warnings=tuple(warnings))


# ---------------------------------------------------------------------------
# alternating least squares (higher-order power method)
# ---------------------------------------------------------------------------

def _hopm_once(arr, x, y, z, max_iter, tol):
    norm_sq = float((arr ** 2).sum())
    prev = np.inf
    it = 0
    converged = False
    for it in range(1, max_iter + 1):
        ny = float(y @ y)
        nz = float(z @ z)
        x = np.einsum("ijk,j,k->i", arr, y, z) / (ny * nz)
        nx = float(x @ x)
        if nx == 0.0:
            # x = 0 solves the normal equations: the zero term is a
            # stationary point with criterion ||X||^2
            return norm_sq, x, y, z, it, True
        y = np.einsum("ijk,i,k->j", arr, x, z) / (nx * nz)
        ny = float(y @ y)
        if ny == 0.0:
            break
        z = np.einsum("ijk,i,j->k", arr, x, y) / (nx * ny)
        nz = float(z @ z)
        if nz == 0.0:
            break
        # keep y, z unit norm; fold the scale into x
        sy, sz = np.sqrt(ny), np.sqrt(nz)
        y, z = y / sy, z / sz
        x = x * sy * sz
        inner = float(np.einsum("ijk,i,j,k->", arr, x, y, z))
        value = max(0.0, norm_sq - 2.0 * inner + float(x @ x))
        if abs(prev - value) <= tol * (1.0 + abs(value)):
            converged = True
            prev = value
            break
        prev = value
    return prev, x, y, z, it, converged


def _hopm_inits(arr, restarts, seed):
    p1, p2, _ = arr.shape
    inits = []
    slab_sum = arr[:, :, 0] + arr[:, :, 1]
    u, _, vt = np.linalg.svd(slab_sum)
    inits.append((u[:, 0].copy(), vt[0].copy(), np.array([1.0, 1.0]) / np.sqrt(2.0)))
    u2, _, vt2 = np.linalg.svd(arr[:, :, 0] - arr[:, :, 1])
    inits.append((u2[:, 0].copy(), vt2[0].copy(), np.array([1.0, -1.0]) / np.sqrt(2.0)))
    for k in range(max(0, restarts - len(inits))):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, k], dtype=np.uint64)))
        x = rng.standard_normal(p1)
        y = rng.standard_normal(p2)
        z = rng.standard_normal(2)
        inits.append((x / np.linalg.norm(x), y / np.linalg.norm(y), z / np.linalg.norm(z)))
    return inits[:restarts] if restarts >= 2 else inits[:max(1, restarts)]


def hopm(X, max_iter: int = 500, tol: float = 1e-14, restarts: int = 8,
         seed: int = 0) -> BestRank1Result:
    """Best rank-1 approximation by alternating least squares.

    Cycles the three normal-equation updates until the relative change in
    the criterion drops below ``tol``, over several deterministic restarts
    (slab-sum singular vectors plus seeded random unit vectors).  Works
    for 2x2x2 and pxpx2 tensors.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    arr = X.array if isinstance(X, (Tensor222, TensorPxPx2)) else np.asarray(X, float)
    best = None
    total_it = 0
    for x0, y0, z0 in _hopm_inits(arr, restarts, seed):
        value, x, y, z, it, conv = _hopm_once(arr, x0.copy(), y0.copy(), z0.copy(),
                                              max_iter, tol)
        total_it += it
        if best is None or value < best[0]:
            best = (value, x, y, z, conv)
    value, x, y, z, conv = best
    term = Rank1Term(x, y, z)
    warnings = () if conv else ("alternating least squares did not converge",)
    return BestRank1Result(term, float(value), (), 1, converged=conv,
                           iterations=total_it, method="hopm", warnings=warnings)


# ---------------------------------------------------------------------------
# infinitely-many-best detection
# ---------------------------------------------------------------------------

def _orthogonal_pencil(M1, M2, tol):
    """True when (a M1 + b M2)^T (a M1 + b M2) is proportional to I for all
    (a, b), with strictly positive scale on the basis matrices."""
    scale = max(np.abs(M1).max(), np.abs(M2).max()) ** 2
    if scale == 0.0:
        return False

    def prop_to_identity(G, require_positive):
        off = max(abs(G[0, 1]), abs(G[1, 0]))
        diag_gap = abs(G[0, 0] - G[1, 1])
        if off > tol * (1.0 + scale) or diag_gap > tol * (1.0 + scale):
            return False
        if require_positive and G[0, 0] <= tol * (1.0 + scale):
            return False
        return True

    return (prop_to_identity(M1.T @ M1, True)
            and prop_to_identity(M2.T @ M2, True)
            and prop_to_identity(M1.T @ M2 + M2.T @ M1, False))


def detect_infinite_best(X, tol: float = 1e-10) -> bool:
    """Sufficient condition for infinitely many best rank-1 approximations:
    every mode-3 contraction and every mode-2 contraction is orthogonal up
    to scale (checked on basis contractions plus the cross term)."""
    t = _as_tensor(X)
    arr = t.array
    mode3 = _orthogonal_pencil(arr[:, :, 0], arr[:, :, 1], tol)
    mode2 = _orthogonal_pencil(arr[:, 0, :], arr[:, 1, :], tol)
    return bool(mode3 and mode2)
