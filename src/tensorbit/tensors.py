"""Dense 2x2x2, symmetric 2x2x2 and pxpx2 tensors, mode contractions and
ranks: the one module that knows their layouts and checks a tensor argument.

A 2x2x2 tensor is stored with entry ``X[i, j, k]`` indexing row ``i``,
column ``j``, frontal slab ``k``.  The flat entry order used everywhere in
this package (I/O included) is slab-major::

    X1 = [[a, b], [c, d]]    (k = 0)
    X2 = [[e, f], [g, h]]    (k = 1)

i.e. ``(a, b, c, d, e, f, g, h)``, which `_slab_major` and `_entries` map
to and from the arrays.  Entry (i, j, k) of a `SymTensor222` (a, b, c, d)
is coefficient i + j + k (`_SYM_INDEX`, inverted by `_SYM_FIRST`), and
y (x) y (x) y has the coefficients `_cubes(*y)`.  `_as_array`, the input
check of every public function that takes a tensor, passes a container's
entries through and rejects a raw array of the wrong shape or with a
non-finite entry; `_as_sym` checks a symmetric tensor argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Tensor222",
    "SymTensor222",
    "TensorPxPx2",
    "Rank1Term",
    "MultilinearRank",
    "contract_mode",
    "multilinear_transform",
    "frobenius_norm_sq",
    "unit_scaled",
    "multilinear_rank",
]

DEFAULT_RANK_TOL = 1e-9


def _finite(arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise ValueError("tensor entries must be finite")
    return arr


def _frozen_array(values, shape) -> np.ndarray:
    # C order, so that what is computed from a container does not depend on how it was built
    arr = np.array(values, dtype=float, order="C")
    if arr.shape != shape:
        raise ValueError(f"expected shape {shape}, got {arr.shape}")
    arr = _finite(arr)
    arr.flags.writeable = False
    return arr


def _slab_major(flat) -> np.ndarray:
    """The (..., 2, 2, 2) arrays of slab-major entries (..., 8), (a, ..., h)."""
    flat = np.asarray(flat)
    # axes (k, i, j) to (i, j, k); two swaps take a fraction of moveaxis's time
    return flat.reshape(flat.shape[:-1] + (2, 2, 2)).swapaxes(-3, -1).swapaxes(-3, -2)


def _entries(A) -> np.ndarray:
    """The slab-major entries (..., 8) of the arrays A (..., 2, 2, 2), the
    inverse of `_slab_major`."""
    A = np.asarray(A)
    return A.swapaxes(-1, -3).swapaxes(-1, -2).reshape(A.shape[:-3] + (8,))


@dataclass(frozen=True)
class Tensor222:
    """Dense real 2x2x2 tensor (slab pair X1 | X2)."""

    array: np.ndarray

    def __init__(self, array):
        object.__setattr__(self, "array", _frozen_array(array, (2, 2, 2)))

    @classmethod
    def from_entries(cls, a, b, c, d, e, f, g, h) -> "Tensor222":
        """Build from slab-major entries: X1 = [a b; c d], X2 = [e f; g h]."""
        return cls(_slab_major(np.array((a, b, c, d, e, f, g, h), dtype=float)))

    @classmethod
    def from_flat(cls, data) -> "Tensor222":
        data = np.asarray(data, dtype=float).ravel()
        if data.size != 8:
            raise ValueError(f"expected 8 entries, got {data.size}")
        return cls(_slab_major(data))

    @classmethod
    def from_slabs(cls, slab1, slab2) -> "Tensor222":
        arr = np.empty((2, 2, 2))
        arr[:, :, 0] = slab1
        arr[:, :, 1] = slab2
        return cls(arr)

    @property
    def slab1(self) -> np.ndarray:
        return self.array[:, :, 0]

    @property
    def slab2(self) -> np.ndarray:
        return self.array[:, :, 1]

    @property
    def entries(self) -> tuple:
        """Slab-major entry tuple (a, b, c, d, e, f, g, h)."""
        return tuple(_entries(self.array))


# entry (i, j, k) of a symmetric 2x2x2 tensor is its coefficient i + j + k, and
# coefficient n is read back from its first slab-major entry: (0, 1, 3, 7)
_SYM_INDEX = np.indices((2, 2, 2)).sum(axis=0)
_SYM_FIRST = np.unique(_entries(_SYM_INDEX), return_index=True)[1]


def _cubes(y1, y2) -> tuple:
    """The coefficients (y1^3, y1^2 y2, y1 y2^2, y2^3) of y (x) y (x) y, of
    floats or elementwise of arrays.  Products round the same on both, so a
    stack and its rows give the same bits."""
    return y1 * y1 * y1, y1 * y1 * y2, y1 * y2 * y2, y2 * y2 * y2


@dataclass(frozen=True)
class SymTensor222:
    """Symmetric 2x2x2 tensor with slabs X1 = [a b; b c], X2 = [b c; c d]."""

    a: float
    b: float
    c: float
    d: float

    def __init__(self, a, b, c, d):
        for name, v in (("a", a), ("b", b), ("c", c), ("d", d)):
            v = float(v)
            if not math.isfinite(v):
                raise ValueError("tensor entries must be finite")
            object.__setattr__(self, name, v)

    @classmethod
    def from_flat(cls, data) -> "SymTensor222":
        data = np.asarray(data, dtype=float).ravel()
        if data.size != 4:
            raise ValueError(f"expected 4 entries, got {data.size}")
        return cls(*data)

    def as_tuple(self) -> tuple:
        return (self.a, self.b, self.c, self.d)

    def tensor(self) -> Tensor222:
        """Full 2x2x2 expansion (symmetric under all index permutations)."""
        return Tensor222(_as_array(self))

    def rank1_update(self, y, coeff=1.0) -> "SymTensor222":
        """This tensor plus ``coeff`` times y (x) y (x) y."""
        return SymTensor222(*(v + coeff * c for v, c in zip(self.as_tuple(), _cubes(*y))))


@dataclass(frozen=True)
class TensorPxPx2:
    """Dense real pxpx2 tensor; slabs are the two p x p frontal matrices."""

    array: np.ndarray
    p: int = field(init=False)

    def __init__(self, array):
        arr = np.array(array, dtype=float)
        if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected shape (p, p, 2), got {arr.shape}")
        if arr.shape[0] < 2:
            raise ValueError("dimension p must be at least 2")
        object.__setattr__(self, "array", _frozen_array(arr, arr.shape))
        object.__setattr__(self, "p", arr.shape[0])

    @classmethod
    def from_slabs(cls, slab1, slab2) -> "TensorPxPx2":
        return cls(np.stack([np.asarray(slab1), np.asarray(slab2)], axis=2))

    @property
    def slab1(self) -> np.ndarray:
        return self.array[:, :, 0]

    @property
    def slab2(self) -> np.ndarray:
        return self.array[:, :, 1]


@dataclass(frozen=True)
class Rank1Term:
    """Outer-product term x (x) y (x) z with entries ``x_i * y_j * z_k``."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __init__(self, x, y, z):
        for name, v in (("x", x), ("y", y), ("z", z)):
            v = np.asarray(v, dtype=float)
            if v.ndim != 1:
                raise ValueError(f"factor {name} must be a vector")
            object.__setattr__(self, name, _frozen_array(v, v.shape))

    def tensor(self) -> np.ndarray:
        return np.einsum("i,j,k->ijk", self.x, self.y, self.z)

    def norm_sq(self) -> float:
        return float((self.x @ self.x) * (self.y @ self.y) * (self.z @ self.z))


@dataclass(frozen=True)
class MultilinearRank:
    """Triple of mode-n unfolding ranks."""

    r1: int
    r2: int
    r3: int

    def as_tuple(self) -> tuple:
        return (self.r1, self.r2, self.r3)

    def __iter__(self):
        return iter(self.as_tuple())

    def __eq__(self, other):
        if isinstance(other, MultilinearRank):
            return self.as_tuple() == other.as_tuple()
        return self.as_tuple() == tuple(other)

    def __hash__(self):
        return hash(self.as_tuple())


def _as_array(X, pxpx2: bool = False) -> np.ndarray:
    """The entries of X, the tensor argument of a public function: a
    container's own array, a SymTensor222's expansion, or a raw array as
    floats, which raises ValueError unless its shape is (2, 2, 2), or
    (p, p, 2) with p >= 2 for a function that takes ``pxpx2`` tensors,
    and every entry is finite."""
    if isinstance(X, (Tensor222, TensorPxPx2)):
        return X.array
    if isinstance(X, SymTensor222):
        return np.array(X.as_tuple())[_SYM_INDEX]
    arr = np.asarray(X, dtype=float)
    p = arr.shape[0] if pxpx2 and arr.ndim and arr.shape[0] > 2 else 2
    if arr.shape != (p, p, 2):
        raise ValueError(f"expected shape {'(p, p, 2)' if pxpx2 else (2, 2, 2)}, got {arr.shape}")
    return _finite(arr)


def _as_sym(Xs) -> SymTensor222:
    """Xs, the symmetric tensor argument of a public function, or its four
    finite coefficients (a, b, c, d) as one; ValueError on anything else."""
    try:
        return Xs if isinstance(Xs, SymTensor222) else SymTensor222.from_flat(Xs)
    except TypeError:
        raise ValueError(f"expected 4 coefficients, got {type(Xs).__name__}") from None


def contract_mode(X, v, mode: int) -> np.ndarray:
    """Contract tensor ``X`` with vector ``v`` in the given mode (1, 2 or 3).

    Returns the matrix of the contracted tensor, with the remaining modes
    ordered as in the input.  E.g. mode 3 yields ``v[0]*X1 + v[1]*X2``.
    """
    arr = _as_array(X, pxpx2=True)
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size != arr.shape[mode - 1]:
        raise ValueError(
            f"vector length {v.size} does not match mode-{mode} dimension {arr.shape[mode - 1]}")
    if not np.all(np.isfinite(v)):
        raise ValueError("contraction vector must be finite")
    spec = {1: "ijk,i->jk", 2: "ijk,j->ik", 3: "ijk,k->ij"}[mode]
    return np.einsum(spec, arr, v)


def multilinear_transform(X, S, T, U):
    """Apply the multilinear transform (S, T, U) . X.

    New entries are ``sum_pqr S_ip T_jq U_kr X_pqr``.  Identity matrices
    return the tensor unchanged.  The result has the same container type
    as the input.
    """
    arr = _as_array(X, pxpx2=True)
    S, T, U = (np.asarray(M, dtype=float) for M in (S, T, U))
    for name, M, dim in (("S", S, arr.shape[0]), ("T", T, arr.shape[1]), ("U", U, arr.shape[2])):
        if M.shape != (dim, dim):
            raise ValueError(f"matrix {name} must be {dim}x{dim}, got {M.shape}")
    out = np.einsum("ip,jq,kr,pqr->ijk", S, T, U, arr)
    if isinstance(X, Tensor222):
        return Tensor222(out)
    if isinstance(X, TensorPxPx2):
        return TensorPxPx2(out)
    return out


def frobenius_norm_sq(X) -> float:
    """Sum of squared entries; zero iff the all-zero tensor."""
    arr = _as_array(X, pxpx2=True)
    return float((arr ** 2).sum())


def _prescale(A, lead: int = 0):
    """(A / 2^e, e) with max|entry| / 2^e in [1/2, 1), or e = 0 where every
    entry is zero: of the tensor A, with e an int, or with ``lead`` leading
    axes of each tensor of the stack A, with e an array.  Dividing by a
    power of two is exact, so a computation on A / 2^e and a final
    multiplication by the right power of 2^e is scale-covariant.  A / 2^e
    is in C order, so what is computed from it does not depend on the
    memory layout of A."""
    A = np.asarray(A, dtype=float)
    if not lead:
        # on one small tensor Python's max and frexp take a fraction of numpy's time
        exponent = math.frexp(max(map(abs, A.ravel().tolist())))[1]
        return np.ldexp(A, -exponent, order="C"), exponent
    exponent = np.frexp(np.abs(A).max(axis=tuple(range(lead, A.ndim))))[1]
    return np.ldexp(A, -exponent[(...,) + (None,) * (A.ndim - lead)], order="C"), exponent


def unit_scaled(X):
    """`_prescale` of the tensor X: (X / 2^e, e)."""
    return _prescale(_as_array(X, pxpx2=True))


def _ranks(arr, tol: float) -> tuple:
    """Mode-1, 2 and 3 unfolding ranks of a tensor, or of each tensor of a
    stack (..., n1, n2, n3): the singular values above ``tol`` times the
    largest one."""
    k = arr.ndim - 3
    lead = tuple(range(k))
    ranks = []
    for axes in ((k, k + 1, k + 2), (k + 1, k, k + 2), (k + 2, k, k + 1)):
        mat = arr.transpose(lead + axes)
        sv = np.linalg.svd(mat.reshape(mat.shape[:-2] + (-1,)), compute_uv=False)
        ranks.append((sv > tol * sv[..., :1]).sum(axis=-1))
    return tuple(ranks)


def multilinear_rank(X, tol: float = DEFAULT_RANK_TOL) -> MultilinearRank:
    """Numerical multilinear rank via mode-n unfolding SVDs.

    Singular values above ``tol`` times the largest one are counted.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    return MultilinearRank(*(int(r) for r in _ranks(_as_array(X, pxpx2=True), tol)))
