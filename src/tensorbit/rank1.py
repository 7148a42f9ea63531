"""Best rank-1 approximation of 2x2x2, symmetric 2x2x2 and pxpx2 tensors.

For a unit z = (cos t, sin t) the best x (x) y is the top singular pair of
M = cos t X1 + sin t X2, and M^T M = S0 + cos(phi) S1 + sin(phi) S2 with
phi = 2t (Stegeman & Comon, arXiv 0906.0483).  For a 2x2x2 tensor every
stationary point of the least-squares criterion is an eigenvector of that
2x2 matrix at a critical point of its eigenvalue m +- sqrt(Q), so the
points are the real roots of one degree-4 trigonometric polynomial in phi,
F = m'^2 Q - (Q'/2)^2, with 8 roots (generically 6 + 2, Friedland &
Ottaviani).  `stationary_points_222` finds them without charts, from one
companion eigenvalue call, and polishes them until each is accounted for;
each point carries psi, the residual's hyperdeterminant, and exact flags.
The chart resultants (`stationary_poly` and its companions) stay identities.

For a symmetric 2x2x2 tensor the stationary directions are the real roots
of one binary cubic, which `stationary_points_sym` solves in a single
rotated chart that keeps its degree 3; `best_rank1_sym` takes the best of
them, which by Banach's theorem is also the best rank-1 term of the
expansion.

For a pxpx2 tensor (p = 2 included) the best rank-1 term is a maximization
over the single angle t.  `best_rank1_pxpx2` solves it deterministically
on a certified grid with a Newton refinement, evaluating lambda(phi) =
sigma_max^2 by `eigh` of the Gram pencil S0 + cos(phi) S1 + sin(phi) S2;
`best_rank1_222` uses it as its fallback and to cross-check a table that
the circle solve does not certify.  `hopm` (alternating least squares)
remains as an independent iterative method.

Every public function here checks its tensor with `tensors._as_array`, or
a symmetric one with `tensors._as_sym`; only the Python-float lanes of the
2x2x2 enumeration index entries in C order rather than through `tensors`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import smallalg
from .orbits import _delta, _delta_sym, _ldexp
from .tensors import (Rank1Term, SymTensor222, _as_array, _as_sym, _cubes, _entries,
                      _finite, _prescale, frobenius_norm_sq)

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
    "best_rank1_pxpx2",
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
CIRCLE_STEPS = 4        # most Newton or Gauss-Newton steps per root of the circle solve
STEP_TOL = 1e-9         # next circle step at which a lane is accepted; also its merge band
CROSSING_TOL = 1e-9     # sqrt(Q) / scale at or below which S(phi) is a multiple of I
F_ROUNDOFF = 16.0 * np.finfo(float).eps   # |F| / (m'^2 Q + (Q'/2)^2) of round-off
THETA_GRID_PER_P = 16    # grid points in phi = 2t per unit of p
THETA_MAX_STEPS = 8
THETA_STACK_CHUNK = 256   # tensors per stacked solve, which bounds its memory
NOT_CONVERGED = "theta-grid refinement did not converge"
HOPM_RESTARTS = 8


# ---------------------------------------------------------------------------
# criterion and first-order quantities
# ---------------------------------------------------------------------------

def psi(X, term: Rank1Term) -> float:
    """Squared residual ||X - x (x) y (x) z||^2, expanded form."""
    arr = _as_array(X, pxpx2=True)
    x, y, z = term.x, term.y, term.z
    if (x.size, y.size, z.size) != arr.shape:
        raise ValueError("factor lengths do not match tensor dimensions")
    inner = float(np.einsum("ijk,i,j,k->", arr, x, y, z))
    value = float((arr ** 2).sum() - 2.0 * inner + term.norm_sq())
    # the expanded form can go a few ulp negative for near-exact fits
    return value if value > 0.0 else 0.0


def optimal_x(X, y, z) -> np.ndarray:
    """Mode-1 factor minimizing the criterion for fixed y and z."""
    arr = _as_array(X, pxpx2=True)
    y = np.asarray(y, float)
    z = np.asarray(z, float)
    ny = float(y @ y)
    nz = float(z @ z)
    if ny == 0.0 or nz == 0.0:
        raise ValueError("y and z must be nonzero")
    return np.einsum("ijk,j,k->i", arr, y, z) / (ny * nz)


def psi_surface(X, y2, z2):
    """Criterion with x eliminated, as a function of (y2, z2); broadcasts."""
    arr = _as_array(X)
    a, b, c, d, e, f, g, h = _entries(arr)
    y2 = np.asarray(y2, float)
    z2 = np.asarray(z2, float)
    v1 = a + e * z2 + b * y2 + f * y2 * z2
    v2 = c + g * z2 + d * y2 + h * y2 * z2
    return frobenius_norm_sq(X) - (v1 * v1 + v2 * v2) / ((1.0 + y2 ** 2) * (1.0 + z2 ** 2))


# ---------------------------------------------------------------------------
# chart resultants (quadratics in one variable, coefficients in the other);
# identities of the criterion, not used by the enumeration
# ---------------------------------------------------------------------------

def stationarity_quadratics(X, var: str = "z"):
    """The two first-order conditions as quadratics in y2 (var="z") or z2.

    Returns ((A1, B1, C1), (A2, B2, C2)): each entry is the ascending
    coefficient array (length 3) of the named coefficient as a polynomial
    in the *other* variable.
    """
    a, b, c, d, e, f, g, h = _entries(_as_array(X))
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
    a, b, c, d, e, f, g, h = _entries(_as_array(X))
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

    For quad1 = (al, be, ga) and quad2 = (de, ep, nu), each an ascending
    coefficient array of length 3, the returned length-9 ascending array
    is (al ep - be de)(be nu - ep ga) - (ga de - al nu)^2.
    """
    al, be, ga = quad1
    de, ep, nu = quad2
    cv = np.convolve
    t2 = cv(ga, de) - cv(al, nu)
    return cv(cv(al, ep) - cv(be, de), cv(be, nu) - cv(ep, ga)) - cv(t2, t2)


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
    cv = np.convolve
    return (cv(cv(B1, C3) - cv(B3, C1), cv(C1, A2) - cv(A1, C2))
            - cv(cv(B1, C2) - cv(B2, C1), cv(C1, A3) - cv(A1, C3)))


def zero_factor_quadratic(X, var: str = "z") -> np.ndarray:
    """Quadratic whose roots are the var-components of the two stationary
    points with x = 0; its discriminant equals Delta(X)."""
    a, b, c, d, e, f, g, h = _entries(_as_array(X))
    if var == "z":
        return np.array([a * d - b * c, a * h - b * g + d * e - c * f, e * h - f * g])
    if var == "y":
        return np.array([c * e - a * g, -(a * h + b * g - d * e - c * f), d * f - b * h])
    raise ValueError("var must be 'y' or 'z'")


def boundary_only_quadratic(X, var: str = "z") -> np.ndarray:
    """Quadratic whose roots are the two boundary-locus solutions that are
    not stationary points; its discriminant also equals Delta(X)."""
    a, b, c, d, e, f, g, h = _entries(_as_array(X))
    if var == "z":
        return np.array([e * h - f * g, -(a * h - b * g + d * e - c * f), a * d - b * c])
    if var == "y":
        return np.array([d * f - b * h, a * h + b * g - d * e - c * f, c * e - a * g])
    raise ValueError("var must be 'y' or 'z'")


# ---------------------------------------------------------------------------
# stationary point enumeration for 2x2x2
# ---------------------------------------------------------------------------

def _gram_pencil(arr):
    """S = (S0, S1, S2) with S0 + cos(phi) S1 + sin(phi) S2 = M^T M for the
    slab combination M = cos(phi/2) X1 + sin(phi/2) X2 (also of pxpx2), for
    one tensor (p, p, 2) or a stack (..., p, p, 2); S has shape (..., 3, p, p)."""
    X1, X2 = arr[..., 0], arr[..., 1]
    X1t = X1.swapaxes(-1, -2)
    A, B, C = X1t @ X1, X1t @ X2, X2.swapaxes(-1, -2) @ X2
    return np.stack([(A + C) / 2.0, (A - C) / 2.0, (B + B.swapaxes(-1, -2)) / 2.0], axis=-3)


@dataclass(frozen=True)
class StationaryPoint:
    """One stationary point of the criterion in the (y2, z2) chart.

    ``x`` is scaled for y = (1, y2) and z = (1, z2).  A point at y or z = e_2
    has |y2| or |z2| near 1.6e16 = 1 / cos(pi/2) in floating point, and its
    term is still exact to round-off.
    """

    y2: float
    z2: float
    x: np.ndarray
    psi: float
    delta_residual: float
    hessian_pd: bool
    degenerate: bool

    def term(self) -> Rank1Term:
        return Rank1Term(self.x, [1.0, self.y2], [1.0, self.z2])


@dataclass(frozen=True)
class CircleRecord:
    """How a circle enumeration ended (`_circle_points`): certified or not,
    the Newton steps of its points, its real, clearly non-real and triple
    (`_triple_root`) roots of F, and max |lambda'| of an accepted lane / max|(m, D, E)|."""

    certified: bool
    steps: int
    real_roots: int
    nonreal_roots: int
    cluster_roots: int
    max_slope: float


@dataclass(frozen=True)
class EnumerationResult:
    """Real stationary points plus enumeration diagnostics.  ``ties`` counts
    the usable (non-degenerate) points within TIE_REL_TOL ||X||^2 of the
    best usable one, decided on X / 2^e as the order of the points is."""

    points: tuple
    n_complex: int
    record: CircleRecord | None = None
    ties: int = 0

    @property
    def certified(self) -> bool:
        return self.record is not None and self.record.certified

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def __getitem__(self, idx):
        return self.points[idx]


_GRID = np.arange(16) * (np.pi / 8.0)
# (a, b, c) @ _GRID_BASIS: a + b cos(phi) + c sin(phi) on the grid, then its phi-derivative
_GRID_BASIS = np.array([np.r_[np.ones(16), np.zeros(16)], np.r_[np.cos(_GRID), -np.sin(_GRID)],
                        np.r_[np.sin(_GRID), np.cos(_GRID)]])


def _sample_maps():
    """(16, 9, 16): for the largest sample F(j pi / 8) at j, the map from the
    16 samples to the coefficients of `_circle_roots`' polynomial, whose s^8
    coefficient is sample j: the real DFT, exact for the degree-4 F, then
    (1 + s^2)^4 e^{i n theta} = (1 + i s)^(4 + n) (1 - i s)^(4 - n), expanded
    in exact complex integers; theta = k pi / 8 is the grid angle j + 8 + k."""
    powers = np.array([[sum(math.comb(4 + n, a) * math.comb(4 - n, k - a) * 1j ** (2 * a - k)
                            for a in range(k + 1)) for k in range(9)] for n in range(5)])
    weight, angle = np.array([[1.0], [2.0], [2.0], [2.0], [2.0]]) / 16.0, np.outer(range(5), _GRID)
    to_poly = powers.real.T @ (weight * np.cos(angle)) + powers.imag.T @ (weight * np.sin(angle))
    to_poly[8] = np.eye(16)[8]
    return to_poly[:, (np.arange(16) - np.arange(16)[:, None] - 8) % 16].swapaxes(0, 1)


_SAMPLE_MAPS = _sample_maps()
# (9, 8, 8): the rows T = (m, D, E) of `_circle_roots` as v @ form @ v in the C-order
# entries v of one 2x2x2 tensor.  The Gram pencil is S0 = (G11 + G22) / 2,
# S1 = (G11 - G22) / 2 and S2 = (G12 + G21) / 2 with G_kl = X_k^T X_l (`_gram_pencil`),
# and of each S, m = tr S / 2, D = (S11 - S22) / 2 and E = S12
_MDE_FORM = np.einsum("rqs,akt,pu->rapqkust",
                      [[[0.5, 0.0], [0.0, 0.5]], [[0.5, 0.0], [0.0, -0.5]], [[0.0, 1.0], [0.0, 0.0]]],
                      [[[0.5, 0.0], [0.0, 0.5]], [[0.5, 0.0], [0.0, -0.5]], [[0.0, 0.5], [0.5, 0.0]]],
                      np.eye(2)).reshape(9, 8, 8)
# each root i of F seeds three lanes, 3i to 3i + 2: the top and the bottom branch, and a crossing
_LANE_SIGN = (1.0, -1.0, 0.0) * 8
# |Im s| / (1 + |Re s|) of a root s of `_circle_roots`' polynomial above which it is
# clearly not real: round-off splits a double root by about 1e-8, a triple one by 6e-6
NONREAL_BAND = 1e-3
# distance in phi within which a converged lane is at the root of F that seeded it; a
# simple root is accurate far within it, and a lane that moved further may have
# reached a neighbouring root
SEED_BAND = 1e-6
# |sin((phi - phi_d) / 2)| within which round-off leaves a triple root of F (`_triple_root`):
# about eps^(1/3) = 6e-6 times the cube root of its condition; 1e-4 on 92% of D3 residuals
CLUSTER_BAND = 1e-3


def _mde_rows(arr):
    """The rows (a, b, c) of m, D and E, each a + b cos(phi) + c sin(phi), of
    the Gram pencil of the 2x2x2 array arr: a (3, 3) array."""
    v = arr.ravel()
    return (_MDE_FORM @ v @ v).reshape(3, 3)


def _circle_roots(T):
    """Real parts, as angles phi in floats, of the 8 roots of F = m'^2 Q -
    (Q'/2)^2, in which m, D, E are the rows (a, b, c) of T, each a + b cos(phi)
    + c sin(phi), and whether each root is clearly non-real (NONREAL_BAND).

    F is a degree-4 trigonometric polynomial.  With phi = phi0 + theta and
    s = tan(theta/2), (1 + s^2)^4 F is a real degree-8 polynomial in s whose
    s^8 coefficient is F(phi0 + pi); phi0 puts the largest of 16 grid values
    of F there, so the degree never drops.  Those values give the
    coefficients (`_sample_maps`), and the companion matrix the roots.
    """
    grid = (T @ _GRID_BASIS).reshape(3, 2, 16)     # (m, D, E) and their derivatives
    Q, h = np.add(*(grid[1:, :1] * grid[1:]))     # D^2 + E^2 and D D' + E E'
    mq, hh = grid[0, 1] * grid[0, 1] * Q, h * h
    F = mq - hh
    j = int(np.argmax(np.abs(F)))
    # each value is a difference of two terms, each evaluated to a few ulp
    if abs(F[j]) <= F_ROUNDOFF * float((mq + hh).max()):
        raise ValueError("the stationarity polynomial vanishes to round-off; "
                         "use best_rank1_222")
    poly = _SAMPLE_MAPS[j] @ F
    companion = np.eye(8, k=-1)
    companion[0] = poly[7::-1] / -poly[8]
    s = np.linalg.eigvals(companion)
    return (((_GRID[j] - np.pi) + 2.0 * np.arctan(s.real)).tolist(),
            [abs(z.imag) > NONREAL_BAND * (1.0 + abs(z.real)) for z in s.tolist()])


def _lambda_derivatives(T, phi, sign):
    """sqrt(Q), the angle of the branch's eigenvector and the first four
    derivatives of lambda = m + sign sqrt(Q) at each phi: differentiate
    r r' = h = D D' + E E', with r = sqrt(Q), three times, and use that
    m, D and E have third and fourth derivatives minus their first and second.
    """
    wave = (1j * T[:, 1:2] + T[:, 2:]) * np.exp(1j * phi)
    (m1, D1, E1), (m2, D2, E2) = wave.real, -wave.imag
    D, E = T[1, 0] - D2, T[2, 0] - E2
    r, h, g = np.hypot(D, E), D * D1 + E * E1, D1 * D1 + E1 * E1
    h1 = g + D * D2 + E * E2
    r1 = h / r
    r2 = (h1 - r1 * r1) / r
    r3 = (3.0 * (D1 * D2 + E1 * E2) - h - 3.0 * r1 * r2) / r
    r4 = (3.0 * (D2 * D2 + E2 * E2 - g) - h1 - 3.0 * r2 * r2 - 4.0 * r1 * r3) / r
    return r, np.arctan2(sign * E, sign * D) / 2.0, (m1 + sign * r1, m2 + sign * r2,
                                                     sign * r3 - m1, sign * r4 - m2)


def _triple_root(T, entries, seed, nonreal):
    """(near, phi_d, alpha): whether each root of F is one of three near phi_d,
    where det M = a + rho cos(phi - phi0) turns to zero, and the angle of the
    bottom eigenvector there.  On D3 (rho = |a|) lambda_bot = det(M)^2 /
    lambda_top vanishes to order 4 there, so F = r^2 lambda_top' lambda_bot'
    has a triple root.  None unless exactly three roots, none clearly
    non-real, lie within CLUSTER_BAND, and w (rho_m + N + v1^2 / r0), a bound
    on w |lambda_top''| over their span w, is below |lambda_top'(phi_d)|; N,
    rho_m are the norms of the cos and sin coefficients of v = (D, E) and m,
    |v'| <= v1 = |v'(phi_d)| + w N and |v| >= r0 = |v(phi_d)| - w v1."""
    a, e, b, f, c, g, d, h = entries
    d1, d2, mix = a * d - b * c, e * h - f * g, a * h + d * e - b * g - c * f
    if abs(abs(d1 + d2) - math.hypot(d1 - d2, mix)) > CLUSTER_BAND * abs(d1 + d2):
        return None     # not near D3: the zeros of det M are far apart, or det M has none
    phi_d = math.atan2(mix, d1 - d2) + (math.pi if d1 + d2 > 0.0 else 0.0)
    gap = [1.0 if n else abs(math.sin(0.5 * (s - phi_d))) for s, n in zip(seed, nonreal)]
    if sum(g <= CLUSTER_BAND for g in gap) != 3:
        return None
    w = 2.0 * math.asin(max(g for g in gap if g <= CLUSTER_BAND))
    wave = (1j * T[:, 1] + T[:, 2]) * np.exp(1j * phi_d)
    (m1, D1, E1), (_, D, E) = wave.real.tolist(), (T[:, 0] + wave.imag).tolist()
    rho_m, N = math.hypot(*T[0, 1:]), math.hypot(*T[1:, 1:].ravel())
    r, v1 = math.hypot(D, E), math.hypot(D1, E1) + w * N
    r0 = r - w * v1
    if r0 <= 0.0 or w * (rho_m + N + v1 * v1 / r0) >= abs(m1 + (D * D1 + E * E1) / r):
        return None
    return [g <= CLUSTER_BAND for g in gap], phi_d, math.atan2(-E, -D) / 2.0


def _accounted(nonreal, branch, stalled, seed):
    """Whether the lanes certify the table: none ``stalled``, and each root i of
    F clearly non-real or with lane 3i or 3i + 1 in ``branch`` within SEED_BAND of seed[i]."""
    at = {lane // 3 for lane, p, *_ in branch if abs(p - seed[lane // 3]) <= SEED_BAND}
    return not stalled and all(n or i in at for i, n in enumerate(nonreal))


def _divide(a, b):
    """a / b for b = +-0.0, where Python raises: numpy's +-inf, or nan for a = 0 or nan."""
    return math.copysign(math.inf, a) * math.copysign(1.0, b) if a and a == a else math.nan


def _circle_points(T, scale, entries):
    """The distinct stationary points as floats (phi, alpha, hessian_pd), with
    y = (cos alpha, sin alpha) and z = (cos phi/2, sin phi/2), and the
    `CircleRecord` of the evaluation at which the lanes stopped.

    Every root seeds three lanes: Newton steps on lambda' of the top and of
    the bottom branch lambda = m +- sqrt(Q), and Gauss-Newton steps on
    (D, E) towards an angle where S(phi) is a multiple of I.  There y is
    stationary iff y^T S'(phi) y = m' + nu cos(2 alpha - beta) = 0, with
    (D', E') = nu (cos beta, sin beta); when S'(phi) = 0 every y is, and no
    point is isolated.  A pass evaluates and tests each lane in Python floats
    (numpy's inf or nan where they divide by zero); at the seeds the lanes of
    a root share one evaluation.

    The lanes stop at the first evaluation, at the seeds or after a step, at
    which `_accounted` certifies the table: each root of F clearly non-real
    (NONREAL_BAND), in a triple root (`_triple_root`, one point) or with a
    branch lane accepted, and no lane stalled; else at CIRCLE_STEPS, as near
    rank 1 and at crossings (double roots of F that no branch lane matches).
    A lane accepted at the seeds lists its point one Newton step on, where a
    second evaluation would put it: ``steps`` counts the steps points took.

    Two accepted lanes, each within STEP_TOL of its root, are one point when
    their phi agree within that band and they take one eigenvector of S(phi):
    of one branch (the bottom one at the triple root), or at a crossing one
    sign of gamma.  The first in lane order is kept, a strict minimum only if
    every copy says so.
    """
    seed, nonreal = _circle_roots(T)
    triple = _triple_root(T, entries, seed, nonreal)
    accounted = nonreal if triple is None else [n or t for n, t in zip(nonreal, triple[0])]
    (_, mb, mc), (Da, Db, Dc), (Ea, Eb, Ec) = T.tolist()
    phi, tol = [p for p in seed for _ in range(3)], CROSSING_TOL * scale
    for k in range(CIRCLE_STEPS + 1):
        branch, stalled, near, steps, last = [], [], [], [], None
        for lane, (p, sign) in enumerate(zip(phi, _LANE_SIGN)):
            if p != last:
                # m minus its constant, m', (D, E), (D', E'), sqrt(Q) by C's hypot as
                # np.hypot takes it, Q' / 2, r' and r'' (0 / 0 is nan at r = 0)
                last, c, s = p, math.cos(p), math.sin(p)
                mu, m1 = mb * c + mc * s, mc * c - mb * s
                Du, D1, Eu, E1 = Db * c + Dc * s, Dc * c - Db * s, Eb * c + Ec * s, Ec * c - Eb * s
                D, E = Da + Du, Ea + Eu
                r, h, g = abs(complex(D, E)), D * D1 + E * E1, D1 * D1 + E1 * E1
                q = h / r if r else math.nan
                bend = (g - D * Du - E * Eu - q * q) / r if r else math.nan
            if not sign:    # a crossing lane; g = 0 makes h = 0
                steps.append(h / g if g else math.nan)
                if r <= tol and abs(m1) < (nu := math.sqrt(g)) and nu > tol:    # at a crossing
                    near.append((p, math.atan2(E1, D1), math.acos(-m1 / nu)))
                continue
            slope, curv = m1 + sign * q, sign * bend - mu
            step = slope / curv if curv else _divide(slope, curv)
            steps.append(step)
            if r <= tol or triple and (triple[0][lane // 3] or abs(
                    math.sin(0.5 * (p - triple[1]))) <= CLUSTER_BAND):
                continue
            # converged: lambda' is zero to its round-off (~ scale^2 / sqrt(Q)) and the
            # step within STEP_TOL, which a multiple root, approached linearly, is not
            band, flat = scale * (1.0 + scale / r), abs(slope)
            if flat <= 1e-13 * band and abs(step) <= STEP_TOL:
                branch.append((lane, p, slope, curv, step, D, E, sign))
            # at a double or triple root of lambda' (say the flat optimum of the
            # worked G2 example) Newton on lambda' stalls about eps^(1/3) away
            elif abs(curv) <= 1e-6 * scale and flat <= 1e-10 * band:
                stalled.append((lane, p))
        certified = _accounted(accounted, branch, stalled, seed)
        if certified or k == CIRCLE_STEPS:
            break
        phi = [p - min(max(step, -0.5), 0.5) for p, step in zip(phi, steps)]
    record = CircleRecord(certified, max(k, 1), 8 - sum(nonreal), sum(nonreal), 3 if triple else 0,
                          max((abs(lane[2]) for lane in branch), default=0.0) / scale)
    listed = []
    for lane, p, _, curv, step, D, E, sign in branch:
        if not k:
            p -= step
            c, s = math.cos(p), math.sin(p)
            D, E = Da + (Db * c + Dc * s), Ea + (Eb * c + Ec * s)
        # the eigenvector of [[D, E], [E, -D]] for its eigenvalue sign sqrt(Q)
        listed.append((lane, p, math.atan2(sign * E, sign * D) / 2.0, sign > 0.0 and curv < 0.0))
    # stalled lanes step on lambda'' and then lambda''', whose root there is
    # simple; lambda'' = 0 there, so these points are no strict minima
    for order in (1, 2):
        if not stalled:
            break
        lanes, trial = map(np.array, zip(*stalled))
        with np.errstate(divide="ignore", invalid="ignore"):
            for n in range(CIRCLE_STEPS + 1):
                r, alpha, lam = _lambda_derivatives(T, trial, np.array(_LANE_SIGN)[lanes])
                step = lam[order] / lam[order + 1]
                if n < CIRCLE_STEPS:
                    trial = trial - np.minimum(np.maximum(step, -0.5), 0.5)
            ok = (np.abs(step) <= STEP_TOL) & (np.abs(lam[0]) <= 1e-13 * scale * (1.0 + scale / r))
        listed += [(lane, p, a, False) for lane, p, a in
                   zip(lanes[ok].tolist(), trial[ok].tolist(), alpha[ok].tolist())]
        stalled = [pair for pair, done in zip(stalled, ok.tolist()) if not done]
    # in lane order, by the eigenvector of S(phi) they take: top, then bottom branch
    groups = [[point for lane, *point in sorted(listed) if lane % 3 == b] for b in (0, 1)]
    if triple is not None:
        groups[1].append((*triple[1:], False))
    # (phi, alpha, hessian_pd) of the crossing points, (beta +- gamma) / 2
    crossings = [[(p, (b + sign * c) / 2.0, False) for p, b, c in near] for sign in (1.0, -1.0)]
    points = []
    for group in (*groups, *crossings):
        for i, (p, a, pd) in enumerate(group):
            if not any(abs(math.sin(0.5 * (p - o[0]))) <= STEP_TOL for o in group[:i]):
                points.append((p, a, pd and all(o[2] for o in group[i + 1:]
                                                if abs(math.sin(0.5 * (p - o[0]))) <= STEP_TOL)))
    return points, record


def stationary_points_222(X) -> EnumerationResult:
    """All real stationary points of the rank-1 criterion for a 2x2x2 tensor.

    Each is an eigenvector y of S(phi) = M^T M (`_gram_pencil`), for
    z = (cos t, sin t) and phi = 2t, at a critical point of its eigenvalue
    lambda = m +- sqrt(Q): a real root of F = m'^2 Q - (Q'/2)^2, a degree-4
    trigonometric polynomial with 8 roots (`_circle_roots`), polished and
    merged into points by `_circle_points`.  Each point is built in Python
    floats: x from y (x) z against the mode-1 unfolding, and psi and Delta
    from the residual.

    ``hessian_pd`` is exact: a point is a strict local minimum iff it is on
    the top branch with lambda'' < 0, since the curvature in y is
    -2 (lambda_1 - lambda_2) and the reduced curvature in phi is lambda''.
    ``degenerate`` marks |x| <= DEGENERATE_X_TOL ||X|| for unit y, z.
    ``n_complex`` counts the clearly non-real roots of F (an even number), and
    ``record`` (`CircleRecord`) says if the table is certified.  A D3 tensor's
    triple root of F is one point, x = 0 and ``hessian_pd`` False, at the
    double zero of det M.  The solve runs on X / 2^e (exact), and x, psi and
    the residual's Delta are scaled back by 2^e, 4^e and 16^e once the
    points are sorted and their ties counted.  Raises
    ValueError on non-finite entries, and when F vanishes to round-off
    (F_ROUNDOFF of m'^2 Q + (Q'/2)^2), where its roots carry no
    information: on orthogonal-pencil, rank-1 and zero input, whose
    stationary set is not finite, and on input within about 1e-7 relative
    of rank 1.  `best_rank1_222` then takes the theta-grid solver's term.
    """
    arr, exponent = _prescale(_as_array(X))
    a0, a1, a2, a3, a4, a5, a6, a7 = a = arr.ravel().tolist()
    T = _mde_rows(arr)
    found, record = _circle_points(T, max(map(abs, T.ravel().tolist())), a)
    limit = DEGENERATE_X_TOL * math.hypot(*a)
    rows = []
    for phi, alpha, pd in found:
        y0, y1, z0, z1 = math.cos(alpha), math.sin(alpha), math.cos(0.5 * phi), math.sin(0.5 * phi)
        w0, w1, w2, w3 = y0 * z0, y0 * z1, y1 * z0, y1 * z1
        x0, x1 = a0 * w0 + a1 * w1 + a2 * w2 + a3 * w3, a4 * w0 + a5 * w1 + a6 * w2 + a7 * w3
        # the residual, entry (i, j, k) at 4i + 2j + k
        r = (a0 - x0 * w0, a1 - x0 * w1, a2 - x0 * w2, a3 - x0 * w3,
             a4 - x1 * w0, a5 - x1 * w1, a6 - x1 * w2, a7 - x1 * w3)
        # cos never returns 0, so the chart coordinates are finite
        rows.append((math.hypot(*r) ** 2, y1 / y0, z1 / z0, _delta(*r[::2], *r[1::2]), pd,
                     math.hypot(x0, x1) <= limit, (x0 * w0, x1 * w0)))
    # sorted by psi before it is scaled back, where it can overflow or underflow
    rows.sort(key=lambda row: row[:3])
    usable = [row[0] for row in rows if not row[5]]
    points = tuple(StationaryPoint(y2, z2, x, _ldexp(value, 2 * exponent),
                                   _ldexp(delta, 4 * exponent), pd, degenerate)
                   for (value, y2, z2, delta, pd, degenerate, _), x
                   in zip(rows, np.ldexp([row[6] for row in rows], exponent)))
    return EnumerationResult(points, record.nonreal_roots, record,
                             _ties(usable, usable[0], float((arr ** 2).sum())) if usable else 0)


# ---------------------------------------------------------------------------
# global best
# ---------------------------------------------------------------------------

def _ties(psis, best: float, norm_sq: float) -> int:
    """How many of the criterion values psis are within TIE_REL_TOL * norm_sq
    of the best one, with norm_sq = ||X||^2."""
    bound = best + TIE_REL_TOL * norm_sq
    return sum(p <= bound for p in psis)


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


def best_rank1_222(X, cross_check: bool = True) -> BestRank1Result:
    """Globally best rank-1 approximation of a 2x2x2 tensor.

    The smallest psi among the non-degenerate points of one
    `stationary_points_222` enumeration; ``multiplicity`` is its ``ties``
    (1 for a theta-grid term).  The theta-grid solver
    `best_rank1_pxpx2` is the fallback when no point is usable, and with
    ``cross_check`` it checks a table that is not certified: if its value
    is lower by more than 1e-8 ||X||^2 the input is non-generic.  A result
    that takes its term has ``method`` "theta".

    A certified table lists the optimum, the maximum of lambda_top = m + r
    with r = sqrt(Q).  At a crossing r has a downward kink, |S'| |phi - phi0|
    to first order, so lambda_top has no maximum there unless S' = 0 and
    both are smooth: the maximum is a real root of m' + r' and so of
    F = r^2 (m' - r')(m' + r').  Its top lane starts within root accuracy
    (about sqrt(eps) at a double root of F) of a simple root of lambda_top',
    and is accepted at its seed or after one step, its point one Newton step
    on from the seed either way; if also lambda_top'' = 0 it stalls, which
    voids the certificate.  As lambda >= ||X||^2 / 4 there, the maximum is
    never a degenerate point.  A triple root of F accounted for at once
    (`_triple_root`) spans no zero of lambda_top'; its psi = ||X||^2 is no
    optimum.
    """
    arr = _as_array(X)
    warnings = []
    try:
        enum = stationary_points_222(X)
    except ValueError:
        enum = EnumerationResult((), 0)
        warnings.append("enumeration degenerate: the stationarity polynomial is round-off")
    usable = [p for p in enum.points if not p.degenerate]
    best = (usable[0].psi, usable[0].term()) if usable else None
    method, converged = "enumerate", True
    if (cross_check and not enum.certified) or best is None:
        with np.errstate(over="ignore"):  # its psi is inf where it overflows, as `_ldexp` gives
            grid = best_rank1_pxpx2(X)
        if best is None:
            warnings.append("no usable stationary point; theta-grid fallback")
        else:
            # both psis and ||X||^2 on X / 2^e (exact), where none saturates
            unit, e = _prescale(arr)
            psis = [frobenius_norm_sq(unit - np.ldexp(term.tensor(), -e))
                    for term in (grid.term, best[1])]
            if psis[0] < psis[1] - 1e-8 * frobenius_norm_sq(unit):
                warnings.append("non-generic input: the theta-grid solver beat the enumeration")
            else:
                grid = None
        if grid is not None:
            best, method, converged = (grid.psi, grid.term), "theta", grid.converged
            warnings.extend(grid.warnings)
    return BestRank1Result(best[1], float(best[0]), enum.points,
                           enum.ties if method == "enumerate" else 1,
                           n_complex=enum.n_complex, converged=converged, method=method,
                           warnings=tuple(warnings))


# ---------------------------------------------------------------------------
# pxpx2: one angle
# ---------------------------------------------------------------------------

def _slab_combination(arr, phi):
    """cos(phi/2) X1 + sin(phi/2) X2 of the tensors arr (..., p, p, 2) at the
    angles phi, broadcast against the leading axes of arr."""
    half = 0.5 * phi
    return np.cos(half)[..., None, None] * arr[..., 0] + np.sin(half)[..., None, None] * arr[..., 1]


def _pencil(S, phi):
    """S[0] + cos(phi) S[1] + sin(phi) S[2], the Gram matrix M^T M of the slab
    combination M at each angle, for the `_gram_pencil` S (..., 3, p, p)
    broadcast against the angles phi."""
    return (S[..., 0, :, :] + np.cos(phi)[..., None, None] * S[..., 1, :, :]
            + np.sin(phi)[..., None, None] * S[..., 2, :, :])


def _theta_eval(arr, S, phi):
    """lambda = sigma_max^2 of the slab combination at each angle, its first
    and second derivatives in phi, and the term factors x, y; arr (..., p, p, 2)
    and its `_gram_pencil` S broadcast against the angles phi.  lambda and
    y = v are the top eigenpair from `eigh` of the `_pencil`, and x = M v.
    """
    w, V = np.linalg.eigh(_pencil(S, phi))
    lam, v = w[..., -1], V[..., -1]
    # Q[..., a, i] = v_i^T S[a] v, with v_i the i-th eigenvector (ascending)
    Q = (V.swapaxes(-1, -2)[..., None, :, :] @ (S @ v[..., None, :, None]))[..., 0]
    # c[..., i] = v_i^T S'(phi) v, with S' = -sin(phi) S[1] + cos(phi) S[2]
    c = np.cos(phi)[..., None] * Q[..., 2, :] - np.sin(phi)[..., None] * Q[..., 1, :]
    gap = lam[..., None] - w[..., :-1]
    # a zero gap is a multiplicity that persists in phi (orthogonal slabs),
    # for which the coupling inside the eigenspace vanishes
    coupling = c[..., :-1] ** 2 / np.where(gap > 0.0, gap, np.inf)
    # S''(phi) = S[0] - S(phi)
    d2 = Q[..., 0, -1] - lam + 2.0 * coupling.sum(axis=-1)
    return lam, c[..., -1], d2, (_slab_combination(arr, phi) @ v[..., None])[..., 0], v


def _best_rank1_stack(X):
    """`best_rank1_pxpx2` of each tensor of the stack X (N, p, p, 2), as the
    arrays (psi, x, y, z, converged, steps); solved THETA_STACK_CHUNK
    tensors at a time.  Raises ValueError on non-finite entries."""
    X = _finite(np.asarray(X, dtype=float))
    parts = [_theta_stack(X[i:i + THETA_STACK_CHUNK])
             for i in range(0, len(X), THETA_STACK_CHUNK)]
    return parts[0] if len(parts) == 1 else tuple(np.concatenate(a) for a in zip(*parts))


def _theta_stack(X):
    """`_best_rank1_stack` of one chunk.

    Each tensor gets the computation it would get alone: its own exact
    prescale, grid maxima and certificates.  Each kept angle is a lane of
    its own, refined until it is done or retired, or THETA_MAX_STEPS, and
    then it leaves.  A tensor takes its largest lambda evaluated, on a tie
    the latest step and in it the first lane, and its steps are the last
    step at which one of its lanes was evaluated.
    """
    n, p = len(X), X.shape[1]
    unit, exponent = _prescale(X, 1)
    S = _gram_pencil(unit)
    lip = np.sqrt((S[:, 1:] ** 2).reshape(n, -1).sum(axis=1))
    m = THETA_GRID_PER_P * p
    h = 2.0 * math.pi / m
    # lambda at every 4th angle, then around the kept ones; -inf elsewhere
    grid = np.full((n, m), -np.inf)
    grid[:, ::4] = coarse = np.linalg.eigvalsh(_pencil(S[:, None], np.arange(0, m, 4) * h))[..., -1]
    i, c = np.nonzero(coarse + (lip * (1.0 - math.cos(2.0 * h)))[:, None]
                      >= coarse.max(axis=1, keepdims=True))
    cols = (4 * c[:, None] + (-2, -1, 1, 2)) % m
    grid[i[:, None], cols] = np.linalg.eigvalsh(_pencil(S[i, None], cols * h))[..., -1]
    kept = grid + (lip * (1.0 - math.cos(0.5 * h)))[:, None] >= grid.max(axis=1, keepdims=True)
    owner, j = np.nonzero(kept)
    lane, base = np.arange(len(owner)), j * h
    arr, S, flat, phi, lo, hi = unit[owner], S[owner], 1e-14 * lip[owner], base, base - h, base + h
    seen = []
    for steps in range(1, THETA_MAX_STEPS + 1):
        lam, d1, d2, x, y = _theta_eval(arr, S, phi)
        # stationary to round-off, or a predicted Newton gain below it
        done = (np.abs(d1) <= flat) | ((d2 < 0.0) & (d1 * d1 <= -2e-15 * d2 * lam))
        seen.append((lane, lam, phi, x, y, done))
        # a lane is over once done, or once its bracket is beyond its half cell
        over = done | (hi < base - 0.5 * h) | (lo > base + 0.5 * h)
        if steps == THETA_MAX_STEPS or over.all():
            break
        rising = d1 > 0.0
        lo = np.where(rising, phi, lo)
        hi = np.where(rising, hi, phi)
        newton = phi - d1 / np.where(d2 < 0.0, d2, -np.inf)
        phi = np.where((d2 < 0.0) & (lo <= newton) & (newton <= hi), newton, 0.5 * (lo + hi))
        if over.any():
            live = ~over
            lane, arr, S, flat, base, phi, lo, hi = (
                a[live] for a in (lane, arr, S, flat, base, phi, lo, hi))
    lane, lam, phi, x, y, converged = (np.concatenate(a) for a in zip(*seen))
    step = np.repeat(np.arange(1, len(seen) + 1), [len(s[0]) for s in seen])
    tensor = owner[lane]
    taken = np.zeros(n, dtype=int)
    np.maximum.at(taken, tensor, step)
    # sorted by tensor, then lambda, step and lane from last to first, each
    # tensor's evaluations form a run that ends with its pick
    pick = np.lexsort((-lane, step, lam, tensor))[np.cumsum(np.bincount(tensor, minlength=n)) - 1]
    phi, x, y, converged = phi[pick], x[pick], y[pick], converged[pick]
    half, z = 0.5 * phi, np.empty((n, 2))
    np.cos(half, out=z[:, 0])
    np.sin(half, out=z[:, 1])
    value = ((unit - np.einsum("ni,nj,nk->nijk", x, y, z)) ** 2).sum(axis=(1, 2, 3))
    return (np.ldexp(value, 2 * exponent), np.ldexp(x, exponent[:, None]), y, z, converged,
            taken)


def best_rank1_pxpx2(X) -> BestRank1Result:
    """Globally best rank-1 approximation of a pxpx2 tensor (p = 2 included).

    With z = (cos t, sin t), psi = ||X||^2 - max_t sigma_max(cos t X1 +
    sin t X2)^2.  In phi = 2t, sigma_max^2 is lambda(phi), the top
    eigenvalue of S0 + cos(phi) S1 + sin(phi) S2 with A = X1^T X1,
    C = X2^T X2, S0 = (A + C)/2, S1 = (A - C)/2 and S2 = sym(X1^T X2),
    which `eigh` of that p x p Gram pencil gives, with no SVD.
    *Certificate.* lambda is the maximum over unit v of
    v^T S0 v + r cos(phi - phi_v) with r <= L = sqrt(||S1||_F^2 + ||S2||_F^2),
    so lambda(phi) >= lambda* - L (1 - cos(phi - phi*)) around a maximizer
    phi*.  Of angles of step g, the one nearest phi* is within g/2 of it,
    so the rule lambda + L (1 - cos(g/2)) >= their maximum keeps it.
    *Grid.* Of the 16p angles phi_j = j h, lambda is taken at every 4th, and
    then at 4c +- 1, 4c +- 2 around each 4c the rule keeps.  The angle
    nearest phi* is within 2h of the nearest 4c, so it is evaluated, and the
    rule of step h keeps it, with -inf where lambda is not taken.
    *Refinement.* From each kept angle, a lane of Newton steps on the exact
    first and second derivatives of lambda, safeguarded by bisection inside
    a bracket of +-h.  A lane stops once the predicted gain is below
    round-off (done), or once its bracket lies beyond the midpoint to a
    neighbouring angle (retired): a maximizer there is nearer that angle,
    which the rule then keeps.  The best value seen gives x = sigma u, y = v
    and z.

    No restarts or seeds.  The solve runs on X / 2^e with max|entry| / 2^e
    in [1/2, 1), which is exact, so psi(2^k X) = 4^k psi(X) over the whole
    double range.  ``converged`` is False when the refinement stopped at
    its step limit without reaching a stationary point.  This is the
    one-tensor case of the stacked solve that the experiments run.
    """
    psi, x, y, z, converged, steps = _best_rank1_stack(_as_array(X, pxpx2=True)[None])
    converged = bool(converged[0])
    return BestRank1Result(Rank1Term(x[0], y[0], z[0]), float(psi[0]), (), 1,
                           converged=converged, iterations=int(steps[0]), method="theta",
                           warnings=() if converged else (NOT_CONVERGED,))


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
    symmetric stationary points: -b z^3 + (a - 2c) z^2 + (2b - d) z + c.

    It is H(z, 1) for the binary cubic H(y1, y2) = y2 (X y y)_1 - y1 (X y y)_2,
    which is zero exactly where X y y is parallel to y.
    """
    return np.array(_stationarity_cubic(*_as_sym(Xs).as_tuple()))


def _stationarity_cubic(a, b, c, d) -> tuple:
    return c, 2.0 * b - d, a - 2.0 * c, -b


# the directions k pi / 6 of the charts of `stationary_points_sym`, exact at 0 and
# pi / 2; e1 is (1, -0), so that its point has z = -inf, the first in the order of z
_SYM_CHARTS = ((1.0, -0.0), (math.sqrt(0.75), 0.5), (0.5, math.sqrt(0.75)), (0.0, 1.0),
               (-0.5, math.sqrt(0.75)), (-math.sqrt(0.75), 0.5))


def stationary_points_sym(Xs: SymTensor222) -> EnumerationResult:
    """Real stationary points of the symmetric rank-1 criterion.

    A stationary y = s u with |u| = 1 has X u u parallel to u, so u is a
    real root of the binary cubic H (`sym_stationarity_cubic`), and then
    s^3 = f(u) = <X, u (x) u (x) u> and psi = ||X||^2 - f(u)^2.  H is
    solved in one rotated chart z = u . w / u . v, with (w, v) the basis
    that puts the chart's point at infinity at the direction w of
    `_SYM_CHARTS` where |H| is largest.  A nonzero binary cubic vanishes at
    three directions at most, so the chart cubic keeps degree 3 and no
    root is lost.  Its roots are the eigenvalues of its companion matrix,
    built as `np.roots` builds it.  Roots that `smallalg.is_real_root`
    calls real are real and those within its band of each other are one
    direction, which is listed once; ``n_complex`` counts the non-real
    roots, so a double real root is one point and no complex one.  A chart
    direction where H is zero in floats, as e1 is at b = 0 and e2 at
    c = 0, replaces the root nearest to it, so that y2 = 0 or y1 = 0 is
    exact there.  ``z`` is y1/y2, and -inf at y2 = 0.

    Everything but the eigenvalues is computed in Python floats, so the
    points do not depend on numpy's CPU dispatch.  The solve, the order of
    the points and their ties run on Xs / 2^e (exact), so psi scales
    exactly; psi is ||X - y (x) y (x) y||^2 from the residual, and as in
    `stationary_points_222` the residual's Delta is scaled back by 16^e.
    The points are sorted by psi, except that the ``ties``, the points
    within TIE_REL_TOL ||X||^2 of the best, come first in the order of z:
    round-off in psi does not decide which of them is the best.  Raises
    ValueError for the zero tensor, on which H vanishes identically.
    """
    unit, exponent = _prescale(_as_sym(Xs).as_tuple())
    a, b, c, d = unit.tolist()

    def forms(u1, u2):
        """f(u) = <X, u (x) u (x) u> and H(u), from the cubes of u."""
        c1, c2, c3, c4 = _cubes(u1, u2)
        return (a * c1 + 3.0 * b * c2 + 3.0 * c * c3 + d * c4,
                c * c4 + (2.0 * b - d) * c3 + (a - 2.0 * c) * c2 - b * c1)

    F = [forms(*u) for u in _SYM_CHARTS]
    j = max(range(6), key=lambda k: abs(F[k][1]))
    if F[j][1] == 0.0:
        raise ValueError("the stationarity cubic vanishes: zero tensor")
    (w1, w2), (fw, hw) = _SYM_CHARTS[j], F[j]
    # the tensor in the basis (w, v), v = (-w2, w1), is (f(w), -H(w), H(v), f(v)),
    # and its cubic in z has leading term H(w) z^3
    p = _stationarity_cubic(fw, -hw, *forms(-w2, w1)[::-1])[::-1]
    roots = np.linalg.eigvals([[-q / p[0] for q in p[1:]], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    # round-off moves a double root off the real axis or splits it along it
    # by about the same amount, so one band decides realness and distinctness
    real = sorted(t.real for t in roots.tolist() if smallalg.is_real_root(t))
    U = [((t * w1 - w2) / math.hypot(t, 1.0), (t * w2 + w1) / math.hypot(t, 1.0))
         for t, t0 in zip(real, [-math.inf, *real]) if t - t0 > smallalg.IMAG_TOL * (1.0 + abs(t))]
    # a chart direction where H is zero (e1 at b = 0, e2 at c = 0) is a root: it
    # replaces the computed root nearest to it, so that its point is exact
    for e in [e for e, (_, h) in zip(_SYM_CHARTS, F) if h == 0.0]:
        U[max(range(len(U)), key=lambda n: abs(U[n][0] * e[0] + U[n][1] * e[1]))] = e
    rows = []
    for u1, u2 in U:
        f = forms(u1, u2)[0]
        c1, c2, c3, c4 = _cubes(math.cbrt(f) * u1, math.cbrt(f) * u2)
        r1, r2, r3, r4 = resid = a - c1, b - c2, c - c3, d - c4
        # ||X - y (x) y (x) y||^2, which equals ||X||^2 - f(u)^2 without its cancellation
        value = r1 * r1 + 3.0 * r2 * r2 + 3.0 * r3 * r3 + r4 * r4
        ratio = u1 / u2 if u2 else math.copysign(math.inf, u1) * math.copysign(1.0, u2)
        s = math.cbrt(math.ldexp(f, exponent))
        rows.append((value, ratio, s * u1, s * u2, resid))
    # sorted by psi before it is scaled back, where it can overflow or underflow
    rows.sort(key=lambda row: row[:2])
    ties = _ties([row[0] for row in rows], rows[0][0], a * a + 3.0 * b * b + 3.0 * c * c + d * d)
    rows[:ties] = sorted(rows[:ties], key=lambda row: row[1])
    points = tuple(SymStationaryPoint(z, np.array([y1, y2]), y2 ** 3, _ldexp(value, 2 * exponent),
                                      _ldexp(_delta_sym(*r), 4 * exponent))
                   for value, z, y1, y2, r in rows)
    return EnumerationResult(points, len(roots) - len(real), None, ties)


def best_rank1_sym(Xs: SymTensor222) -> BestRank1Result:
    """Best symmetric rank-1 approximation y (x) y (x) y.

    The first point of the `stationary_points_sym` enumeration, which is
    complete: the smallest psi, or of the points tied with it the first in
    the order of z.  By Banach's theorem it is also the best rank-1 term of
    the expansion.  ``multiplicity`` is the enumeration's ``ties``.  The
    zero tensor gives the zero term, with a warning.
    """
    Xs = _as_sym(Xs)
    if not any(Xs.as_tuple()):
        return BestRank1Result(Rank1Term(*[np.zeros(2)] * 3), 0.0, (), 1,
                               warnings=("symmetric enumeration degenerate",))
    enum = stationary_points_sym(Xs)
    best = enum.points[0]
    return BestRank1Result(best.term(), best.psi, enum.points, enum.ties, n_complex=enum.n_complex)


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


def _hopm_inits(arr, seed):
    p1, p2, _ = arr.shape
    inits = []
    slab_sum = arr[:, :, 0] + arr[:, :, 1]
    u, _, vt = np.linalg.svd(slab_sum)
    inits.append((u[:, 0].copy(), vt[0].copy(), np.array([1.0, 1.0]) / np.sqrt(2.0)))
    u2, _, vt2 = np.linalg.svd(arr[:, :, 0] - arr[:, :, 1])
    inits.append((u2[:, 0].copy(), vt2[0].copy(), np.array([1.0, -1.0]) / np.sqrt(2.0)))
    for k in range(HOPM_RESTARTS - len(inits)):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, k], dtype=np.uint64)))
        x = rng.standard_normal(p1)
        y = rng.standard_normal(p2)
        z = rng.standard_normal(2)
        inits.append((x / np.linalg.norm(x), y / np.linalg.norm(y), z / np.linalg.norm(z)))
    return inits


def hopm(X, max_iter: int = 500, tol: float = 1e-14, seed: int = 0) -> BestRank1Result:
    """Best rank-1 approximation by alternating least squares.

    Cycles the three normal-equation updates until the relative change in
    the criterion drops below ``tol``, from each of HOPM_RESTARTS
    deterministic starts (slab-sum singular vectors plus seeded random
    unit vectors), and keeps the best.  Works for 2x2x2 and pxpx2 tensors.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    arr = _as_array(X, pxpx2=True)
    best = None
    total_it = 0
    for x0, y0, z0 in _hopm_inits(arr, seed):
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

def _orthogonal_pencil(M1, M2):
    """True when (a M1 + b M2)^T (a M1 + b M2) is proportional to I for all
    (a, b), with strictly positive scale on the basis matrices, within
    1e-10 of the largest squared entry."""
    band = 1e-10 * max(np.abs(M1).max(), np.abs(M2).max()) ** 2

    def prop_to_identity(G, require_positive):
        return (max(abs(G[0, 1]), abs(G[1, 0]), abs(G[0, 0] - G[1, 1])) <= band
                and (not require_positive or G[0, 0] > band))

    return (prop_to_identity(M1.T @ M1, True)
            and prop_to_identity(M2.T @ M2, True)
            and prop_to_identity(M1.T @ M2 + M2.T @ M1, False))


def detect_infinite_best(X) -> bool:
    """Sufficient condition for infinitely many best rank-1 approximations:
    every mode-3 contraction and every mode-2 contraction is orthogonal up
    to scale (checked on basis contractions plus the cross term)."""
    arr = _as_array(X)
    mode3 = _orthogonal_pencil(arr[:, :, 0], arr[:, :, 1])
    mode2 = _orthogonal_pencil(arr[:, 0, :], arr[:, 1, :])
    return bool(mode3 and mode2)
