"""Symmetric rank, constructive decompositions, and canonical-form transforms.

A symmetric 2x2x2 tensor (a, b, c, d) corresponds to the binary cubic
a u1^3 + 3 b u1^2 u2 + 3 c u1 u2^2 + d u2^3.  Its symmetric rank follows
Sylvester's criterion: the kernel vector of the Hankel coefficient matrix
defines a polynomial q whose distinct real roots supply the decomposition
directions.  For rank 2 the kernel vector is
g = (ac - b^2, bc - ad, bd - c^2) and disc(q) equals the hyperdeterminant.

Rank-3 tensors (orbits D3 and G3) are first diagonal-rescaled to the
normal form (a', 1, 1, 1 | 1, 1, 1, d'), which has the explicit three-term
decomposition with directions (alpha, 0), (0, beta), (1, 1).  The same
normal form is the entry point for solving (S, S, S) . Y_canonical = X
for an explicit transform S from the canonical D3 / G3 representative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .orbits import SymTensor222, canonical_form, classify_sym, hyperdet_sym
from .smallalg import NumericalFailure, Polynomial, is_real_root, roots
from .tensors import _prescale, multilinear_transform

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


def _recon_error(Xs: SymTensor222, vectors) -> float:
    out = np.array(Xs.as_tuple(), float)
    for v in vectors:
        y1, y2 = v
        out = out - np.array([y1 ** 3, y1 ** 2 * y2, y1 * y2 ** 2, y2 ** 3])
    return float(np.max(np.abs(out)))


def _unit_kernel(Xs: SymTensor222):
    """(g, scale): the kernel vector g = (ac - b^2, bc - ad, bd - c^2) of
    Xs / 2^e, whose roots are those of Xs, and max|entry| / 2^e, in [1/2, 1)
    or 0 for the zero tensor (`_prescale`, which is exact)."""
    unit, _ = _prescale(Xs.as_tuple())
    a, b, c, d = unit.tolist()
    return np.array([a * c - b * b, b * c - a * d, b * d - c * c]), float(np.abs(unit).max())


def sylvester_rank(Xs: SymTensor222, tol: float = 1e-9):
    """Symmetric rank in {0, 1, 2, 3} with a decomposition when available.

    Rank 1 corresponds to a vanishing kernel vector (perfect-cube
    coefficients); rank 2 to the kernel quadratic having two distinct real
    roots (positive discriminant); everything else is rank 3.  The tests
    run on Xs / 2^e with max|entry| / 2^e in [1/2, 1), which is exact, so
    they take the same decisions over the whole double range.
    """
    a, b, c, d = Xs.as_tuple()
    g, scale = _unit_kernel(Xs)
    if scale == 0.0:
        return 0, SymDecomposition(0, (), 0.0)
    if np.max(np.abs(g)) <= tol * scale ** 2:
        if abs(a) >= abs(d):
            v1 = np.cbrt(a)
            v2 = v1 * (b / a) if a != 0.0 else 0.0
        else:
            v2 = np.cbrt(d)
            v1 = v2 * (c / d)
        v = np.array([v1, v2])
        return 1, SymDecomposition(1, (v,), _recon_error(Xs, (v,)))
    if g[1] ** 2 - 4.0 * g[0] * g[2] > tol * scale ** 4:
        return 2, _rank2_from_kernel(Xs, g)
    try:
        return 3, sym_rank3_decompose(Xs, tol)
    except (DomainError, NumericalFailure):
        return 3, None


def _rank2_from_kernel(Xs: SymTensor222, g) -> SymDecomposition:
    """Decomposition along the roots of q(u1, u2) = g2 u1^2 + g1 u1 u2 + g0 u2^2.

    With s = -(g1 + sign(g1) sqrt(disc)) / 2 the homogeneous roots are
    (s, g2) and (g0, s): neither subtracts nearly equal numbers, and a
    vanishing g2 or g0 needs no separate branch.  Requires disc(q) > 0.
    """
    g0, g1, g2 = g
    s = -0.5 * (g1 + np.copysign(np.sqrt(g1 * g1 - 4.0 * g0 * g2), g1))
    dirs = [u / np.linalg.norm(u) for u in (np.array([s, g2]), np.array([g0, s]))]
    cols = [[x ** 3, x * x * y, x * y * y, y ** 3] for x, y in dirs]
    w, *_ = np.linalg.lstsq(np.array(cols).T, np.array(Xs.as_tuple()), rcond=None)
    vectors = tuple(np.cbrt(wi) * u for wi, u in zip(w, dirs))
    return SymDecomposition(2, vectors, _recon_error(Xs, vectors))


def sym_rank2_decompose(Xs: SymTensor222, tol: float = 1e-9) -> SymDecomposition:
    """Rank-2 decomposition of an orbit-G2 tensor along the two real roots
    of Sylvester's kernel quadratic (whose discriminant is Delta > 0)."""
    label = classify_sym(Xs, max(tol, 1e-12))
    if label.orbit != "G2":
        raise DomainError(f"rank-2 decomposition needs orbit G2, got {label.orbit}")
    return _rank2_from_kernel(Xs, _unit_kernel(Xs)[0])


def sym_rank3_decompose(Xs: SymTensor222, tol: float = 1e-9) -> SymDecomposition:
    """Rank-3 decomposition for orbits D3 and G3.

    When both middle coefficients are nonzero the tensor is rescaled to
    (a', 1, 1, d') and decomposed as a'-1, d'-1 cubes plus the all-ones
    direction, if that reconstructs X within tol * max|entry|.  Otherwise,
    and when b = 0 or c = 0, a rank-1 cube is subtracted so that
    the remainder has a slab pencil with distinct real eigenvalues, and
    the rank-2 construction finishes the job.
    """
    label = classify_sym(Xs, max(tol, 1e-12))
    if label.orbit not in ("D3", "G3"):
        raise DomainError(
            f"rank-3 decomposition needs orbit D3 or G3, got {label.orbit}; "
            "use sym_rank2_decompose for rank-2 input")
    a, b, c, d = Xs.as_tuple()
    scale = max(abs(v) for v in (a, b, c, d))
    b_ok = abs(b) > tol * scale
    c_ok = abs(c) > tol * scale
    if b_ok and c_ok:
        form = canonicalize_sym_form(Xs, tol)
        alpha = np.cbrt(form.a - 1.0)
        beta = np.cbrt(form.d - 1.0)
        if abs(alpha) > tol and abs(beta) > tol:
            inv = np.linalg.inv(form.transform)
            dirs = (np.array([alpha, 0.0]), np.array([0.0, beta]), np.array([1.0, 1.0]))
            vectors = tuple(inv @ v for v in dirs)
            error = _recon_error(Xs, vectors)
            if error <= tol * scale:
                return SymDecomposition(3, vectors, error)
        # fall through to the subtraction branch if a' ~ 1 or the vectors cancel
    if not (b_ok or c_ok):
        raise DomainError("tensors with b = c = 0 have symmetric rank at most 2")
    # subtract a cube so the remainder lands in G2, then finish with rank 2
    # heads on both axes: near the Delta band every head on one axis can
    # leave a remainder that reads D3 again
    steps = (1.0, 2.0, 4.0, 8.0)
    first = [np.array([np.cbrt(a - np.copysign(m, c) * (scale + abs(a))), 0.0]) for m in steps]
    second = [np.array([0.0, np.cbrt(d - np.copysign(m, b) * (scale + abs(d)))]) for m in steps]
    for head in first + second if c_ok else second + first:
        remainder = Xs.rank1_update(head, -1.0)
        if classify_sym(remainder, max(tol, 1e-12)).orbit != "G2":
            continue
        try:
            tail = sym_rank2_decompose(remainder, tol)
        except DomainError:
            continue
        vectors = (head,) + tail.vectors
        return SymDecomposition(3, vectors, _recon_error(Xs, vectors))
    raise NumericalFailure("no cube subtraction produced a rank-2 remainder")


def canonicalize_sym_form(Xs: SymTensor222, tol: float = 1e-12) -> CanonicalSymForm:
    """Diagonal rescale to (a', 1, 1, d'): S = diag(mu, eta) with
    mu^3 = c / b^2 and eta^3 = b / c^2.  Requires b != 0 and c != 0."""
    a, b, c, d = Xs.as_tuple()
    scale = max(abs(v) for v in (a, b, c, d))
    if abs(b) <= tol * scale:
        return CanonicalSymForm(np.nan, np.nan, None, "b_zero")
    if abs(c) <= tol * scale:
        return CanonicalSymForm(np.nan, np.nan, None, "c_zero")
    mu = np.cbrt(c / (b * b))
    eta = np.cbrt(b / (c * c))
    a_new = a * c / (b * b)
    d_new = d * b / (c * c)
    return CanonicalSymForm(float(a_new), float(d_new), np.diag([mu, eta]))


def _apply_sym(S, orbit: str) -> SymTensor222:
    full = multilinear_transform(canonical_form(orbit), S, S, S)
    x = full.array
    return SymTensor222(x[0, 0, 0], x[0, 1, 0], x[1, 1, 0], x[1, 1, 1])


def _form_tensor(a: float, d: float) -> SymTensor222:
    return SymTensor222(a, 1.0, 1.0, d)


def _form_residual(S, orbit: str, target: SymTensor222) -> float:
    got = _apply_sym(S, orbit)
    return float(np.max(np.abs(np.array(got.as_tuple()) - np.array(target.as_tuple()))))


def transform_from_canonical_D3(a: float, d: float) -> CanonicalTransform:
    """Invertible S with (S, S, S) . Y_D3 = (a, 1, 1, d), for Delta ~ 0.

    General solution: s1/s3 = 1 +- sqrt(1 - a), s2 = a / (3 s1^2),
    s4 = d / (3 s3^2), with the scale pinned at s1 = 1.  The a = 0 and
    d = 0 corners use their explicit solutions.
    """
    target = _form_tensor(a, d)
    scale = max(1.0, abs(a), abs(d))
    delta = hyperdet_sym(target)
    # |Delta| / scale^4, one factor at a time: scale^4 overflows above about 1e77
    if abs(delta) / scale / scale / scale / scale > TRANSFORM_TOL:
        raise DomainError(f"normal form ({a}, {d}) is not on the Delta = 0 boundary")
    if abs(a - 1.0) <= 1e-9 and abs(d - 1.0) <= 1e-9:
        raise DomainError("(a, d) = (1, 1) is the rank-1 corner, not orbit D3")
    candidates = []
    if abs(a) <= 1e-9:
        candidates.append(np.array([[1.0, 0.0], [0.5, 1.0]]))
    if abs(d) <= 1e-9:
        candidates.append(np.array([[0.5, 1.0], [1.0, 0.0]]))
    if not candidates:
        if a >= 1.0 or d >= 1.0:
            raise DomainError("orbit D3 normal forms satisfy a < 1 and d < 1")
        root = np.sqrt(1.0 - a)
        for rho in (1.0 + root, 1.0 - root):
            if abs(rho) <= 1e-12:
                continue
            s1 = 1.0
            s3 = s1 / rho
            s2 = a / (3.0 * s1 * s1)
            s4 = d / (3.0 * s3 * s3)
            candidates.append(np.array([[s1, s2], [s3, s4]]))
    best = min(candidates, key=lambda S: _form_residual(S, "D3", target))
    residual = _form_residual(best, "D3", target)
    if residual > TRANSFORM_TOL * scale:
        raise NumericalFailure(f"D3 transform residual {residual:.3e} too large")
    return CanonicalTransform(best, "D3", residual)


def _g3_candidates_general(a: float, d: float):
    out = []
    rts = roots(Polynomial([-a, 3.0, -3.0, d]))
    for alpha in rts.real[is_real_root(rts)].tolist():
        den = 12.0 * (alpha * alpha - 2.0 * alpha + a)
        if abs(den) < 1e-12:
            continue
        s3cubed = (alpha * (3.0 - d * alpha) ** 2 - 4.0 * a * d) / den
        s3 = float(np.cbrt(s3cubed))
        s1 = alpha * s3
        if abs(s1) < 1e-12 or abs(s3) < 1e-12:
            continue
        s2sq = (s1 ** 3 + a) / (3.0 * s1)
        s4sq = (s3 ** 3 + d) / (3.0 * s3)
        if s2sq < -1e-10 or s4sq < -1e-10:
            continue
        s2 = np.sqrt(max(s2sq, 0.0))
        s4m = np.sqrt(max(s4sq, 0.0))
        if s2 > 1e-12:
            # the cross equation fixes sign(s2 * s4); try that sign first
            cross = (1.0 + s1 * s1 * s3 - s2 * s2 * s3) / s1
            lead = np.sign(cross) * s4m if cross != 0.0 else s4m
            out.append(np.array([[s1, s2], [s3, lead]]))
            out.append(np.array([[s1, s2], [s3, -lead]]))
        else:
            out.append(np.array([[s1, s2], [s3, s4m]]))
            out.append(np.array([[s1, s2], [s3, -s4m]]))
    return out


def transform_from_canonical_G3(a: float, d: float) -> CanonicalTransform:
    """Invertible S with (S, S, S) . Y_G3 = (a, 1, 1, d), for Delta < 0.

    s1/s3 solves the cubic d t^3 - 3 t^2 + 3 t - a = 0 (three distinct
    real roots; its discriminant is -27 Delta); every root is tried and
    the candidate with the smallest residual wins.  The a = 0 and d = 0
    corners use their explicit solutions.
    """
    target = _form_tensor(a, d)
    scale = max(1.0, abs(a), abs(d))
    delta = hyperdet_sym(target)
    if delta >= 0.0:
        raise DomainError(f"normal form ({a}, {d}) has Delta >= 0, not orbit G3")
    candidates = []
    if abs(a) <= 1e-9:
        s3 = float(np.cbrt(0.75 - d))
        candidates.append(np.array([[0.0, np.sqrt(1.0 / s3)],
                                    [s3, np.sqrt(1.0 / (4.0 * s3))]]))
    if abs(d) <= 1e-9:
        s1 = float(np.cbrt(0.75 - a))
        candidates.append(np.array([[s1, np.sqrt(1.0 / (4.0 * s1))],
                                    [0.0, np.sqrt(1.0 / s1)]]))
    if not candidates:
        candidates = _g3_candidates_general(a, d)
    if not candidates:
        raise NumericalFailure("no usable cubic root for the G3 transform")
    scored = sorted((_form_residual(S, "G3", target), i, S)
                    for i, S in enumerate(candidates))
    residual, _, best = scored[0]
    if residual > TRANSFORM_TOL * scale:
        all_res = ", ".join(f"{r:.3e}" for r, _, _ in scored)
        raise NumericalFailure(f"G3 transform residuals too large: {all_res}")
    return CanonicalTransform(best, "G3", residual)


def canonical_transform(Xs: SymTensor222) -> CanonicalTransform:
    """Full transform from the canonical orbit representative to ``Xs``.

    Normalizes with the diagonal rescale, solves the normal-form system,
    and composes: X = (P^-1 S, ...) . Y_canonical where P is the
    diagonal rescale and S the normal-form transform.
    """
    label = classify_sym(Xs, 1e-9)
    if label.orbit not in ("D3", "G3"):
        raise DomainError(f"canonical transforms cover orbits D3 and G3, got {label.orbit}")
    form = canonicalize_sym_form(Xs)
    if not form.normalizable:
        raise DomainError(f"normal form unavailable: {form.branch}")
    if label.orbit == "D3":
        inner = transform_from_canonical_D3(form.a, form.d)
    else:
        inner = transform_from_canonical_G3(form.a, form.d)
    total = np.linalg.inv(form.transform) @ inner.S
    got = _apply_sym(total, label.orbit)
    residual = float(np.max(np.abs(np.array(got.as_tuple()) - np.array(Xs.as_tuple()))))
    return CanonicalTransform(total, label.orbit, residual)
