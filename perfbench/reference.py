"""Reference computations for the benchmark's correctness checks.

Nothing here imports tensorbit.  Every value is computed from the raw
input arrays by a method other than the program's:

* the best rank-1 term of a p x p x 2 tensor X is the maximum over theta of
  sigma_max(cos(theta) X1 + sin(theta) X2), found on a theta grid whose
  spacing is certified by the Lipschitz bound ||X||_F and then refined by
  bisection on the sign of d sigma_max / d theta;
* Cayley's hyperdeterminant, written out in the 8 entries;
* the discriminant of the binary cubic of a symmetric 2x2x2 tensor, whose
  sign gives the real symmetric rank;
* eigenvalue pairing on the residual pencil that pairs any two
  eigenvalues, real or complex, closer than a band.

Arrays hold a stack of tensors: shape (n, p, p, 2), entry [t, i, j, k] is
row i, column j of frontal slab k of tensor t.

The constants below fix how the references are computed and where they
leave a verdict undecided; how far the program's outputs may be from
them is fixed in workloads.py.
"""

from __future__ import annotations

import numpy as np

GRID = 512            # theta points on [0, pi); f(theta + pi) = f(theta)
BISECTIONS = 64       # halvings of a bracket of width 2 pi / GRID
DISC_BAND = 1e-9      # |disc| <= DISC_BAND 27 max|abcd|^4: symmetric rank undecided
SIGN_BAND = 1e-6      # |Delta| <= SIGN_BAND max|a|^4: orbit sign undecided
PAIR_BAND = 1e-4      # eigenvalues within PAIR_BAND (1 + max|lambda|) are paired
IMAG_TOL = 1e-7       # |Im| > IMAG_TOL (1 + |Re|): an unpaired eigenvalue is complex


def gaussian_222(rng: np.random.Generator) -> np.ndarray:
    """Slab-major 8 entries (a, b, c, d, e, f, g, h) as a (2, 2, 2) array."""
    return full_from_flat(rng.standard_normal(8))


def full_from_flat(flat) -> np.ndarray:
    a, b, c, d, e, f, g, h = (float(v) for v in flat)
    arr = np.empty((2, 2, 2))
    arr[:, :, 0] = [[a, b], [c, d]]
    arr[:, :, 1] = [[e, f], [g, h]]
    return arr


def expand_sym(abcd) -> np.ndarray:
    """Full 2x2x2 array of the symmetric tensor (a, b, c, d): entry [i, j, k]
    is the (i + j + k)-th of a, b, c, d."""
    vals = np.asarray(abcd, float)
    i, j, k = np.indices((2, 2, 2))
    return vals[i + j + k]


def _combo(X, theta):
    """cos(theta) X1 + sin(theta) X2; X (n, p, p, 2), theta (n, m) -> (n, m, p, p)."""
    c = np.cos(theta)[..., None, None]
    s = np.sin(theta)[..., None, None]
    return c * X[:, None, :, :, 0] + s * X[:, None, :, :, 1]


def _dcombo(X, theta):
    c = np.cos(theta)[..., None, None]
    s = np.sin(theta)[..., None, None]
    return -s * X[:, None, :, :, 0] + c * X[:, None, :, :, 1]


def _sigma_max(M):
    if M.shape[-1] == 2:
        # closed form for 2x2: sigma^2 = (s + sqrt(s^2 - 4 det^2)) / 2
        s = (M ** 2).sum(axis=(-2, -1))
        det = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
        return np.sqrt(0.5 * (s + np.sqrt(np.maximum(s * s - 4.0 * det * det, 0.0))))
    return np.linalg.svd(M, compute_uv=False)[..., 0]


def _slope(X, theta):
    """(sigma_max, d sigma_max / d theta, u, v) at theta; theta shape (n, m)."""
    u, s, vt = np.linalg.svd(_combo(X, theta))
    u1, v1 = u[..., :, 0], vt[..., 0, :]
    g = np.einsum("...i,...ij,...j->...", u1, _dcombo(X, theta), v1)
    return s[..., 0], g, u1, v1


def best_rank1(X):
    """Global best rank-1 term of each tensor in the stack X (n, p, p, 2).

    Returns (psi, term) with psi = ||X||^2 - sigma^2 of shape (n,) and the
    term sigma u (x) v (x) z of shape (n, p, p, 2).

    sigma_max(M(theta)) is ||X||_F-Lipschitz in theta, because
    ||M'(theta)||_2 <= ||M'(theta)||_F <= ||X||_F.  Every grid cell whose
    upper bound f_j + ||X||_F h / 2 reaches the grid maximum may hold the
    global maximum; each run of such cells is refined around its best
    grid point, and the best refined value wins.
    """
    X = np.asarray(X, float)
    n = X.shape[0]
    h = np.pi / GRID
    grid = np.broadcast_to(np.arange(GRID) * h, (n, GRID))
    f = _sigma_max(_combo(X, grid))
    lip = np.sqrt((X ** 2).sum(axis=(1, 2, 3)))
    cand = f + (lip * h / 2.0)[:, None] >= f.max(axis=1, keepdims=True)

    # one bracket per cyclic run of candidate cells, centred on the run's best point
    owners, centres = [], []
    for t in range(n):
        idx = np.flatnonzero(cand[t])
        starts = idx[np.diff(np.r_[idx[-1] - GRID, idx]) != 1]
        for s0 in starts if starts.size else idx[:1]:
            run = [s0]
            while cand[t, (run[-1] + 1) % GRID] and len(run) < GRID:
                run.append((run[-1] + 1) % GRID)
            owners.append(t)
            centres.append(max(run, key=lambda j: f[t, j]))
    owners = np.asarray(owners)
    Xb = X[owners]
    lo = (np.asarray(centres) - 1.0) * h
    hi = lo + 2.0 * h
    lo, hi = lo[:, None], hi[:, None]
    _, g_lo, _, _ = _slope(Xb, lo)
    _, g_hi, _, _ = _slope(Xb, hi)
    # an ascending left end and a descending right end bracket the maximum;
    # otherwise keep the grid point (the value is then grid-accurate only)
    ok = (g_lo >= 0.0) & (g_hi <= 0.0)
    for _ in range(BISECTIONS):
        mid = 0.5 * (lo + hi)
        _, g_mid, _, _ = _slope(Xb, mid)
        up = g_mid > 0.0
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    theta = np.where(ok, 0.5 * (lo + hi), (np.asarray(centres) * h)[:, None])
    sig, _, u, v = _slope(Xb, theta)
    sig, u, v, theta = sig[:, 0], u[:, 0], v[:, 0], theta[:, 0]

    best = np.full(n, -1)
    for b, t in enumerate(owners):
        if best[t] < 0 or sig[b] > sig[best[t]]:
            best[t] = b
    sig, u, v, theta = sig[best], u[best], v[best], theta[best]
    z = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    term = sig[:, None, None, None] * np.einsum("ni,nj,nk->nijk", u, v, z)
    psi = (X ** 2).sum(axis=(1, 2, 3)) - sig ** 2
    return np.maximum(psi, 0.0), term


def cayley_hyperdet(A) -> np.ndarray:
    """Cayley's hyperdeterminant of 2x2x2 arrays (..., 2, 2, 2)."""
    A = np.asarray(A, float)
    a000, a001 = A[..., 0, 0, 0], A[..., 0, 0, 1]
    a010, a011 = A[..., 0, 1, 0], A[..., 0, 1, 1]
    a100, a101 = A[..., 1, 0, 0], A[..., 1, 0, 1]
    a110, a111 = A[..., 1, 1, 0], A[..., 1, 1, 1]
    return (a000 ** 2 * a111 ** 2 + a001 ** 2 * a110 ** 2
            + a010 ** 2 * a101 ** 2 + a011 ** 2 * a100 ** 2
            - 2.0 * (a000 * a001 * a110 * a111 + a000 * a010 * a101 * a111
                     + a000 * a011 * a100 * a111 + a001 * a010 * a101 * a110
                     + a001 * a011 * a100 * a110 + a010 * a011 * a100 * a101)
            + 4.0 * (a000 * a011 * a101 * a110 + a001 * a010 * a100 * a111))


def cubic_discriminant(abcd) -> float:
    """Discriminant of a x^3 + 3b x^2 y + 3c x y^2 + d y^3."""
    a, b, c, d = (float(v) for v in abcd)
    A, B, C, D = a, 3.0 * b, 3.0 * c, d
    return (B * B * C * C - 4.0 * A * C ** 3 - 4.0 * B ** 3 * D
            - 27.0 * A * A * D * D + 18.0 * A * B * C * D)


def sym_rank(abcd):
    """Real symmetric rank from the cubic's discriminant: three distinct
    real roots (> 0) give rank 3, one real root (< 0) gives rank 2.  None
    inside the band, where the sign is not decided."""
    scale = max(abs(float(v)) for v in abcd)
    disc = cubic_discriminant(abcd)
    if abs(disc) <= DISC_BAND * 27.0 * scale ** 4:
        return None
    return 3 if disc > 0 else 2


def orbit_by_sign(A):
    """G2 or G3 from the sign of Cayley's hyperdeterminant of a tensor of
    full multilinear rank; None inside the band |Delta| <= SIGN_BAND max|a|^4."""
    delta = float(cayley_hyperdet(A))
    if abs(delta) <= SIGN_BAND * float(np.max(np.abs(A))) ** 4:
        return None
    return "G2" if delta > 0 else "G3"


def mode_sigma_ratio(A) -> np.ndarray:
    """Smallest sigma_2 / sigma_1 of the three unfoldings of each 2x2x2
    array in the stack A (n, 2, 2, 2): how near each is to a lower
    multilinear rank."""
    A = np.asarray(A, float)
    s = np.stack([np.linalg.svd(np.moveaxis(A, m, 1).reshape(len(A), 2, 4), compute_uv=False)
                  for m in (1, 2, 3)])
    return (s[..., 1] / s[..., 0]).min(axis=0)


def sym_cube_sum(vectors) -> np.ndarray:
    """Sum of v (x) v (x) v over the given 2-vectors."""
    out = np.zeros((2, 2, 2))
    for v in vectors:
        v = np.asarray(v, float)
        out += np.einsum("i,j,k->ijk", v, v, v)
    return out


def pencil_pairs(R):
    """(coincident pairs, complex pairs) of the pencil of a p x p x 2 array.

    Eigenvalues of R1^-1 R2.  Any two eigenvalues, real or complex, within
    PAIR_BAND (1 + max|lambda|) of each other form a coincident pair (closest
    pairs first); complex pairs are counted among the rest.
    """
    lam = np.linalg.eigvals(np.linalg.solve(R[:, :, 0], R[:, :, 1]))
    limit = PAIR_BAND * (1.0 + np.max(np.abs(lam)))
    free = list(range(lam.size))
    pairs = 0
    while True:
        best = None
        for ii, i in enumerate(free):
            for j in free[ii + 1:]:
                gap = abs(lam[i] - lam[j])
                if gap <= limit and (best is None or gap < best[0]):
                    best = (gap, i, j)
        if best is None:
            break
        pairs += 1
        free.remove(best[1])
        free.remove(best[2])
    rest = lam[free]
    n_complex = int(np.count_nonzero(np.abs(rest.imag) > IMAG_TOL * (1.0 + np.abs(rest.real))))
    return pairs, n_complex // 2
