"""Dense linear-algebra helpers shared by the estimators.

Half-vectorization without the pinned (d, d) entry (vech'), its index
arrays and the Stein statistic V = D of a scatter matrix in it, small
symmetric eigendecompositions with a deterministic sign convention,
Householder rotations onto the first axis, and a condition-checked solve
of a stack of linear systems.  Everything operates on small dense
matrices; dimensions beyond a few hundred are out of scope.
"""

from __future__ import annotations

import functools

import numpy as np

COND_LIMIT = 1e12

_SYM_TOL = 1e-10
_UNIT_TOL = 1e-8


class SingularSystem(Exception):
    """A linear system is singular or too ill-conditioned to trust."""

    def __init__(self, name: str, cond: float):
        self.name = name
        self.cond = cond
        super().__init__(
            f"{name}: 1-norm condition number {cond:.3e} exceeds limit {COND_LIMIT:.0e}"
        )


@functools.lru_cache(maxsize=64)
def lower_index(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (rows, cols) index arrays of the d(d+1)/2 - 1 pairs of
    vech': i >= j in column-stacked lower-triangle order without the last,
    (0,0), (1,0), ..., (d-1,0), (1,1), (2,1), ..., (d-1,d-2).  The (d-1,d-1)
    entry is the one that the identifiability pin A[d, d] = 0 removes.
    """
    cols, rows = (idx[:-1] for idx in np.triu_indices(d))
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


@np.errstate(over="ignore")  # a difference beyond the float range is inf, refused
def _check_symmetric(m) -> np.ndarray:
    # a square matrix or a (b, d, d) stack of them; every slice is checked
    m = np.asarray(m, dtype=float)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError("expected a square matrix")
    if m.size and np.max(np.abs(m - m.swapaxes(-1, -2))) > _SYM_TOL:
        raise ValueError("matrix is not symmetric within tolerance")
    return m


def vech_prime(s) -> np.ndarray:
    """Half-vectorization of a symmetric matrix, column-stacked lower
    triangle, without the final (d,d) entry (one row per slice of a
    stack)."""
    s = _check_symmetric(s)
    rows, cols = lower_index(s.shape[-1])
    return s[..., rows, cols]


def v_statistic(scatter: np.ndarray) -> np.ndarray:
    """D = 2d vech'(S) - 2 vech'(I) = mean[(d-1) grad_f2 x + hess_f2 (x (x) x)
    - lap_f2] for the Stein test function f2 = vech'(xx') of the
    Fisher-Bingham fit, which the Watson fits call V (one row per slice of
    a stack of scatter matrices S)."""
    d = scatter.shape[-1]
    return 2.0 * d * vech_prime(scatter) - 2.0 * vech_prime(np.eye(d))


def unvech_prime(v, d: int) -> np.ndarray:
    """Embed a length d(d+1)/2 - 1 vector as a symmetric matrix with
    S[d,d] = 0 (one matrix per row of a stack of such vectors)."""
    v = np.asarray(v, dtype=float)
    rows, cols = lower_index(d)
    if v.shape[-1:] != rows.shape:
        raise ValueError(f"expected length {rows.size}, got shape {v.shape}")
    s = np.zeros((*v.shape[:-1], d, d))
    s[..., rows, cols] = v
    s[..., cols, rows] = v
    return s


def fix_sign(v: np.ndarray) -> np.ndarray:
    """Flip a vector, or each column of a matrix or of a stack of
    matrices, so that its largest-|.| component (lowest index on ties) is
    nonnegative."""
    cols = v if v.ndim > 1 else v[:, None]
    k = np.argmax(np.abs(cols), axis=-2)
    peak = np.take_along_axis(cols, k[..., None, :], axis=-2)
    return np.where(peak < 0, -cols, cols).reshape(v.shape)


def sym_eigen(s) -> np.ndarray:
    """Eigenvectors of a symmetric matrix, or of each slice of a (b, d, d)
    stack in one batched call (bit for bit the per-slice one): column k
    belongs to the k-th largest eigenvalue and is sign-fixed by fix_sign."""
    q = np.linalg.eigh(_check_symmetric(s)).eigenvectors
    return fix_sign(q[..., ::-1].copy())


def rotation_to_e1(u) -> np.ndarray:
    """Orthogonal R with R @ u = e1, as a Householder reflector.

    Returns the identity when u is already e1 (within 1e-12).
    """
    u = np.asarray(u, dtype=float)
    if abs(np.linalg.norm(u) - 1.0) > _UNIT_TOL:
        raise ValueError("rotation_to_e1 requires a unit vector")
    d = u.size
    v = u.copy()
    v[0] -= 1.0
    vnorm2 = float(v @ v)
    if vnorm2 < 1e-24:
        return np.eye(d)
    return np.eye(d) - 2.0 * np.outer(v, v) / vnorm2


def is_singular(cond) -> np.ndarray:
    """Whether a system with 1-norm condition number cond is singular:
    cond exceeds COND_LIMIT or is not finite (entrywise for an array)."""
    return ~(np.isfinite(cond) & (cond <= COND_LIMIT))


def solve_stack(a, b):
    """Solve a[k] @ x[k] = b[k] for each slice of a (k, m, m) stack by LU
    with partial pivoting; b is a (k, m) stack of vectors or a (k, m, r)
    stack of matrices.  Returns (x, cond, singular).

    cond holds each slice's 1-norm condition number.  A slice that
    is_singular flags is not solved and its part of x is NaN.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    cond = np.linalg.cond(a, 1)
    singular = is_singular(cond)
    x = np.full(b.shape, np.nan)
    ok = ~singular
    if ok.any():
        rhs = b[ok] if b.ndim == 3 else b[ok][..., None]
        solved = np.linalg.solve(a[ok], rhs)
        x[ok] = solved if b.ndim == 3 else solved[..., 0]
    return x, cond, singular

