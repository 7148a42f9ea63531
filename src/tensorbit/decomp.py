"""Symmetric rank, constructive decompositions, and canonical-form transforms.

A symmetric 2x2x2 tensor (a, b, c, d) is the binary cubic
a u1^3 + 3 b u1^2 u2 + 3 c u1 u2^2 + d u2^3.  By Sylvester's theorem
(Comon, Golub, Lim & Mourrain 2008) the directions of a decomposition are
the distinct real roots of a form apolar to it, one whose coefficients the
Hankel rows of (a, b, c, d) annihilate: for rank 2 the kernel quadratic
g = (ac - b^2, bc - ad, bd - c^2), whose discriminant is the
hyperdeterminant, and for rank 3 (orbits D3, G3) a cubic L1 L2 L3 with two
of its roots fixed.  The cube weights then solve the moment equations.  The
transforms (S, S, S) . Y_canonical = X from the canonical D3 / G3
representative come from the same kernel quadratic: its double root (D3) or
its complex pair (G3) gives S directly (`_kernel_S`).  The diagonal rescale
to (a', 1, 1, d') is a public normal form that no transform uses.
Each public function checks its tensor once (`tensors._as_sym`) and scales
it once (`_unit_sym`); the helpers pass the scaled coefficients on.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .orbits import _ldexp, _rank_tol, canonical_form, classify_sym, hyperdet_sym
from .smallalg import NumericalFailure
from .tensors import (_SYM_FIRST, SymTensor222, _as_sym, _cubes, _entries, _prescale,
                      multilinear_transform)

__all__ = [
    "DomainError",
    "SymDecomposition",
    "CanonicalSymForm",
    "CanonicalTransform",
    "sylvester_rank",
    "sym_rank2_decompose",
    "sym_rank3_decompose",
    "canonicalize_sym_form",
    "transform_from_canonical_D3",
    "transform_from_canonical_G3",
    "canonical_transform",
]


# the relative band of the Delta and residual checks of the canonical-form transforms
TRANSFORM_TOL = 1e-6

# the rank-3 construction's pairs of unit directions u_r = (p_r, q_r), 60 degrees apart, with
# L1 L2 = al t1^2 + be t1 t2 + ga t2^2 for L_r(t) = q_r t1 - p_r t2, and the linear maps of
# (a, b, c, d) to u3 = (al a + be b + ga c, al b + be c + ga d) and to det(u3, u_r)
_PAIR_ANGLES = np.arange(6)[:, None] * (np.pi / 6.0) + (0.0, np.pi / 3.0)
_PAIRS = np.stack([np.cos(_PAIR_ANGLES), np.sin(_PAIR_ANGLES)], axis=-1)
_L12 = np.stack([np.sin(_PAIR_ANGLES).prod(axis=1), -np.sin(_PAIR_ANGLES.sum(axis=1)),
                 np.cos(_PAIR_ANGLES).prod(axis=1)], axis=1)
_U3 = np.zeros((6, 2, 4))
_U3[:, 0, :3] = _U3[:, 1, 1:] = _L12
_APOLAR = np.concatenate(
    [_U3, _PAIRS[..., 1:] * _U3[:, None, 0] - _PAIRS[..., :1] * _U3[:, None, 1]], axis=1)


class DomainError(ValueError):
    """Input is outside the operation's declared domain."""


@dataclass(frozen=True)
class SymDecomposition:
    """Symmetric decomposition sum_r v_r (x) v_r (x) v_r."""

    rank: int
    vectors: tuple
    reconstruction_error: float

    def reconstruct(self) -> SymTensor222:
        out = SymTensor222(0.0, 0.0, 0.0, 0.0)
        for v in self.vectors:
            out = out.rank1_update(v)
        return out


@dataclass(frozen=True)
class CanonicalSymForm:
    """Diagonal-rescale normal form (a, 1, 1, d) of a symmetric tensor."""

    a: float
    d: float
    transform: np.ndarray | None
    branch: str = ""

    @property
    def normalizable(self) -> bool:
        return self.branch == ""


@dataclass(frozen=True)
class CanonicalTransform:
    """Invertible S with (S, S, S) . Y_canonical = X."""

    S: np.ndarray
    orbit: str
    residual: float


def _unit_sym(Xs: SymTensor222):
    """(Xs / 8^k, k), as coefficients with max|entry| in [1/2, 4) or zero:
    exact, and a vector of Xs / 8^k is one of Xs over 2^k."""
    coeffs = np.array(Xs.as_tuple())
    k = _prescale(coeffs)[1] // 3
    return np.ldexp(coeffs, -3 * k), k


def _kernel(unit) -> np.ndarray:
    """The kernel vector (ac - b^2, bc - ad, bd - c^2) of ``unit``."""
    a, b, c, d = unit.tolist()
    return np.array([a * c - b * b, b * c - a * d, b * d - c * c])


def _decomposition(unit, k: int, vectors) -> SymDecomposition:
    """The decomposition of unit * 8^k with the terms v (x) v (x) v of the
    ``vectors`` of unit, scaled back by 2^k."""
    out = unit
    for v in vectors:
        out = out - _cubes(*v)
    return SymDecomposition(len(vectors), tuple(np.ldexp(v, k) for v in vectors),
                            _ldexp(float(np.max(np.abs(out))), 3 * k))


def sylvester_rank(Xs: SymTensor222, tol: float = 1e-9):
    """Symmetric rank in {0, 1, 2, 3} with a decomposition.

    Rank 1 corresponds to a vanishing kernel vector (perfect-cube
    coefficients), within the rank cutoff min(tol, 1e-9) of `classify`;
    rank 2 to the kernel quadratic having two distinct real roots
    (discriminant above the Delta band tol); everything else is rank 3.
    The tests run on Xs / 8^k (`_unit_sym`), which is exact, so they take
    the same decisions over the whole double range.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    unit, k = _unit_sym(_as_sym(Xs))
    scale = float(np.abs(unit).max())
    if scale == 0.0:
        return 0, SymDecomposition(0, (), 0.0)
    g = _kernel(unit)
    if np.max(np.abs(g)) <= _rank_tol(tol) * scale ** 2:
        a, b, c, d = unit.tolist()
        if abs(a) >= abs(d):
            v1 = math.cbrt(a)
            v2 = v1 * (b / a) if a != 0.0 else 0.0
        else:
            v2 = math.cbrt(d)
            v1 = v2 * (c / d)
        return 1, _decomposition(unit, k, (np.array([v1, v2]),))
    if g[1] ** 2 - 4.0 * g[0] * g[2] > tol * scale ** 4:
        return 2, _rank2_from_kernel(unit, k, g)
    return 3, _rank3_apolar(unit, k)


def _from_directions(unit, k: int, dirs) -> SymDecomposition:
    """The decomposition of unit * 8^k along the unit directions ``dirs``,
    with cube weights from the moment equations on unit, where none overflows."""
    w, *_ = np.linalg.lstsq(np.array(_cubes(*np.transpose(dirs))), unit, rcond=None)
    return _decomposition(unit, k, [math.cbrt(wi) * u for wi, u in zip(w.tolist(), dirs)])


def _rank2_from_kernel(unit, k: int, g) -> SymDecomposition:
    """Decomposition of unit * 8^k along the roots of its kernel quadratic
    q(u1, u2) = g2 u1^2 + g1 u1 u2 + g0 u2^2.

    With s = -(g1 + sign(g1) sqrt(disc)) / 2 the homogeneous roots are
    (s, g2) and (g0, s): neither subtracts nearly equal numbers, and a
    vanishing g2 or g0 needs no separate branch.  Requires disc(q) > 0.
    """
    g0, g1, g2 = g
    s = -0.5 * (g1 + np.copysign(np.sqrt(g1 * g1 - 4.0 * g0 * g2), g1))
    dirs = [u / np.linalg.norm(u) for u in (np.array([s, g2]), np.array([g0, s]))]
    return _from_directions(unit, k, dirs)


def _rank3_apolar(unit, k: int) -> SymDecomposition:
    """Rank-3 decomposition of unit * 8^k along u1, u2 and the third root u3
    of an apolar cubic L1 L2 L3: u3 is parallel to (al a + be b + ga c,
    al b + be c + ga d), which vanishes only if L1 L2 is the kernel
    quadratic, so never on rank-3 input.  Of the `_PAIRS` the one whose u3
    lies farthest from both of its directions is taken."""
    V = _APOLAR @ unit
    norms = np.hypot(V[:, 0], V[:, 1])
    # |det(u3, u_r)| / |u3| is the |sin| of the angle between u3 and u_r
    j = int(np.argmax(np.abs(V[:, 2:]).min(axis=1) / norms))
    return _from_directions(unit, k, (*_PAIRS[j], V[j, :2] / norms[j]))


def sym_rank2_decompose(Xs: SymTensor222, tol: float = 1e-9) -> SymDecomposition:
    """Rank-2 decomposition of an orbit-G2 tensor along the two real roots
    of Sylvester's kernel quadratic (whose discriminant is Delta > 0)."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    Xs = _as_sym(Xs)
    label = classify_sym(Xs, max(tol, 1e-12))
    if label.orbit != "G2":
        raise DomainError(f"rank-2 decomposition needs orbit G2, got {label.orbit}")
    unit, k = _unit_sym(Xs)
    return _rank2_from_kernel(unit, k, _kernel(unit))


def sym_rank3_decompose(Xs: SymTensor222, tol: float = 1e-9) -> SymDecomposition:
    """Rank-3 decomposition of an orbit-D3 or G3 tensor along the roots of
    an apolar cubic (`_rank3_apolar`)."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    Xs = _as_sym(Xs)
    label = classify_sym(Xs, max(tol, 1e-12))
    if label.orbit not in ("D3", "G3"):
        raise DomainError(
            f"rank-3 decomposition needs orbit D3 or G3, got {label.orbit}; "
            "use sym_rank2_decompose for rank-2 input")
    return _rank3_apolar(*_unit_sym(Xs))


def canonicalize_sym_form(Xs: SymTensor222) -> CanonicalSymForm:
    """Diagonal rescale to (a', 1, 1, d'): S = diag(mu, eta) with
    mu^3 = c / b^2 and eta^3 = b / c^2.  Requires b and c above 1e-12
    max|entry|.  Each quotient divides twice rather than by b^2 or c^2,
    which overflow or underflow far inside the double range."""
    a, b, c, d = _as_sym(Xs).as_tuple()
    scale = max(abs(v) for v in (a, b, c, d))
    if abs(b) <= 1e-12 * scale:
        return CanonicalSymForm(np.nan, np.nan, None, "b_zero")
    if abs(c) <= 1e-12 * scale:
        return CanonicalSymForm(np.nan, np.nan, None, "c_zero")
    mu = math.cbrt(c / b / b)
    eta = math.cbrt(b / c / c)
    a_new = (a / b) * (c / b)
    d_new = (d / c) * (b / c)
    return CanonicalSymForm(float(a_new), float(d_new), np.diag([mu, eta]))


def _apply_sym(S, orbit: str) -> np.ndarray:
    """The coefficients of (S, S, S) . Y_orbit."""
    return _entries(multilinear_transform(canonical_form(orbit), S, S, S).array)[_SYM_FIRST]


def _kernel_S(unit: np.ndarray, g, orbit: str) -> np.ndarray:
    """S with (S, S, S) . Y_orbit = unit, from the roots of the kernel
    quadratic q of `_kernel`, whose coefficients are g.

    With f(u) = unit(u, u, u) the transform says f(u) = f_Y(S^T u).  On G3, q
    has the roots v and conj(v), f = Re(W (v . u)^3) and Y_G3 is
    -Re((u1 + i u2)^3): S has the columns Re p and Im p for p = c v with
    c^3 = -W.  Of the six such S, Y_G3's symmetries (three cube roots, each
    with or without conjugation), the three with det S > 0 have first rows
    120 degrees apart; the one whose first row is nearest (1, -1), with the
    largest S[0, 0] - S[0, 1], is taken.  On Y_G3 that is the identity, by
    0.63, and on (0, 1, 1, d) it has S[0, 0] = 0.  On D3, q has a double
    root l, f = (l . u)^2 (m . u) and Y_D3 is 3 u1^2 u2: S = [l, m / 3], with
    l's larger entry pinned at +1.  W and m solve the moment equations in
    least squares.
    """
    g0, g1, g2 = g.tolist()
    # the homogeneous roots (s, g2) and (g0, s) of `_rank2_from_kernel`; the D3 root is double
    root = cmath.sqrt(g1 * g1 - 4.0 * g0 * g2) if orbit == "G3" else 0.0
    s = -0.5 * (g1 + math.copysign(1.0, g1) * root)
    v = (s, g2) if abs(g2) >= abs(g0) else (g0, s)
    if orbit == "G3":
        # in Python complex arithmetic, which no SIMD kernel of numpy reaches
        v = [vi / math.hypot(abs(v[0]), abs(v[1])) for vi in v]
        (wr, wi), *_ = np.linalg.lstsq(np.array([[q.real, -q.imag] for q in _cubes(*v)]), unit,
                                       rcond=None)
        phase, radius = cmath.phase(-complex(wr, wi)), math.cbrt(math.hypot(wr, wi))
        P = [[cmath.rect(radius, (phase + 2.0 * math.pi * j) / 3.0) * vi for vi in v]
             for j in range(3)]
        # the three S = [Re p, +-Im p] share the sign of their determinant
        sign = math.copysign(1.0, P[0][0].real * P[0][1].imag - P[0][1].real * P[0][0].imag)
        S = [[[p.real, sign * p.imag] for p in row] for row in P]
        return np.array(max(S, key=lambda M: M[0][0] - M[0][1]))
    v = np.array(v)
    l1, l2 = l = v / v[np.argmax(np.abs(v))]
    sym = np.array([[l1 * l1, 0.0], [2.0 * l1 * l2 / 3.0, l1 * l1 / 3.0],
                    [l2 * l2 / 3.0, 2.0 * l1 * l2 / 3.0], [0.0, l2 * l2]])
    m, *_ = np.linalg.lstsq(sym, unit, rcond=None)
    return np.stack([l, m / 3.0], axis=1)


def _kernel_transform(Xs: SymTensor222, orbit: str) -> CanonicalTransform:
    """`_kernel_S` on Xs / 8^k (`_unit_sym`), scaled back by 2^k, so that S
    of 8^j Xs is exactly 2^j S.  Raises DomainError on rank-1 input, at the
    rank cutoff of `sylvester_rank`, and NumericalFailure where S misses Xs
    by more than TRANSFORM_TOL max|entry|."""
    unit, k = _unit_sym(Xs)
    g, scale = _kernel(unit), np.abs(unit).max()
    if np.max(np.abs(g)) <= _rank_tol(1e-9) * scale ** 2:
        raise DomainError(f"rank-1 input has no {orbit} transform")
    S = _kernel_S(unit, g, orbit)
    residual = float(np.max(np.abs(_apply_sym(S, orbit) - unit)))
    if residual > TRANSFORM_TOL * scale:
        raise NumericalFailure(f"{orbit} transform residual {residual:.3e} too large")
    return CanonicalTransform(np.ldexp(S, k), orbit, _ldexp(residual, 3 * k))


def transform_from_canonical_D3(a: float, d: float) -> CanonicalTransform:
    """Invertible S with (S, S, S) . Y_D3 = (a, 1, 1, d), for |Delta| within
    the `TRANSFORM_TOL` band of max(1, |a|, |d|)^4 (`_kernel_transform`)."""
    target = SymTensor222(a, 1.0, 1.0, d)
    scale = max(1.0, abs(a), abs(d))
    # |Delta| / scale^4, one factor at a time: scale^4 overflows above about 1e77
    if abs(hyperdet_sym(target)) / scale / scale / scale / scale > TRANSFORM_TOL:
        raise DomainError(f"normal form ({a}, {d}) is not on the Delta = 0 boundary")
    return _kernel_transform(target, "D3")


def transform_from_canonical_G3(a: float, d: float) -> CanonicalTransform:
    """Invertible S with (S, S, S) . Y_G3 = (a, 1, 1, d), for Delta < 0
    (`_kernel_transform`)."""
    target = SymTensor222(a, 1.0, 1.0, d)
    if hyperdet_sym(target) >= 0.0:
        raise DomainError(f"normal form ({a}, {d}) has Delta >= 0, not orbit G3")
    return _kernel_transform(target, "G3")


def canonical_transform(Xs: SymTensor222) -> CanonicalTransform:
    """Full transform from the canonical orbit representative to ``Xs``, an
    orbit-D3 or G3 tensor (`_kernel_transform`)."""
    Xs = _as_sym(Xs)
    label = classify_sym(Xs, 1e-9)
    if label.orbit not in ("D3", "G3"):
        raise DomainError(f"canonical transforms cover orbits D3 and G3, got {label.orbit}")
    return _kernel_transform(Xs, label.orbit)
