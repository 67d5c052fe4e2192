"""Dense linear-algebra helpers shared by the estimators.

Vectorization maps (vec/vech and the duplication and commutation matrices
relating them), small symmetric eigendecompositions with a deterministic
sign convention, Householder rotations onto the first axis, and a
condition-checked linear solve.  Everything operates on small dense
matrices; dimensions beyond a few hundred are out of scope.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

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
            f"{name}: condition estimate {cond:.3e} exceeds limit {COND_LIMIT:.0e}"
        )


def lower_pairs(d: int) -> list[tuple[int, int]]:
    """Index pairs (i, j) with i >= j in column-stacked lower-triangle order.

    This is the ordering behind vech: (0,0), (1,0), ..., (d-1,0), (1,1),
    (2,1), ..., (d-1,d-1).
    """
    return [(i, j) for j in range(d) for i in range(j, d)]


@functools.lru_cache(maxsize=64)
def lower_index(d: int) -> tuple[np.ndarray, np.ndarray]:
    """lower_pairs(d) as read-only (rows, cols) index arrays."""
    index = np.array(lower_pairs(d), dtype=np.intp).reshape(-1, 2).T
    index.flags.writeable = False
    return index[0], index[1]


def _check_square(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    return m


def _check_symmetric(m, tol: float = _SYM_TOL) -> np.ndarray:
    m = _check_square(m)
    if m.size and np.max(np.abs(m - m.T)) > tol:
        raise ValueError("matrix is not symmetric within tolerance")
    return m


def vec(m) -> np.ndarray:
    """Column-stacking vectorization: columns top-to-bottom, left first."""
    return np.asarray(m, dtype=float).flatten(order="F")


def unvec(v, rows: int, cols: int) -> np.ndarray:
    return np.asarray(v, dtype=float).reshape((rows, cols), order="F")


def vech(s) -> np.ndarray:
    """Half-vectorization of a symmetric matrix, column-stacked lower triangle."""
    s = _check_symmetric(s)
    rows, cols = lower_index(s.shape[0])
    return s[rows, cols]


def vech_prime(s) -> np.ndarray:
    """vech with the final component (the (d,d) entry) removed."""
    return vech(s)[:-1]


def unvech_prime(v, d: int) -> np.ndarray:
    """Embed a length d(d+1)/2 - 1 vector as a symmetric matrix with S[d,d] = 0."""
    v = np.asarray(v, dtype=float)
    rows, cols = (idx[:-1] for idx in lower_index(d))
    if v.size != rows.size:
        raise ValueError(f"expected length {rows.size}, got {v.size}")
    s = np.zeros((d, d))
    s[rows, cols] = v
    s[cols, rows] = v
    return s


def duplication_matrix(d: int) -> np.ndarray:
    """The 0/1 matrix D with D @ vech(S) = vec(S) for every symmetric S."""
    if d < 1:
        raise ValueError("d must be >= 1")
    q = d * (d + 1) // 2
    dup = np.zeros((d * d, q))
    for k, (i, j) in enumerate(lower_pairs(d)):
        dup[j * d + i, k] = 1.0
        dup[i * d + j, k] = 1.0
    return dup


def commutation_matrix(d: int) -> np.ndarray:
    """The permutation K with K @ vec(M) = vec(M.T); K is an involution."""
    if d < 1:
        raise ValueError("d must be >= 1")
    k = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            k[i * d + j, j * d + i] = 1.0
    return k


def kron(a, b) -> np.ndarray:
    """Standard Kronecker product, block (i, j) equal to a[i, j] * b."""
    return np.kron(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


@dataclass
class EigenDecomposition:
    """Full spectrum of a symmetric matrix, eigenvalues sorted descending.

    eigenvectors[:, k] belongs to eigenvalues[k]; each column is sign-fixed
    so its largest-magnitude component (lowest index on ties) is nonnegative.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def fix_sign(v: np.ndarray) -> np.ndarray:
    """Flip a vector, if needed, so its largest-|.| component is nonnegative."""
    k = int(np.argmax(np.abs(v)))
    return -v if v[k] < 0 else v


def sym_eigen(s) -> EigenDecomposition:
    s = _check_symmetric(s)
    w, q = np.linalg.eigh(s)
    w = w[::-1].copy()
    q = q[:, ::-1].copy()
    cols = np.arange(q.shape[1])
    flip = q[np.argmax(np.abs(q), axis=0), cols] < 0  # fix_sign, per column
    q[:, flip] = -q[:, flip]
    return EigenDecomposition(eigenvalues=w, eigenvectors=q)


def spectral_norm(m) -> float:
    """Largest singular value."""
    m = np.asarray(m, dtype=float)
    if not m.size:
        return 0.0
    return float(np.linalg.norm(m, 2))


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


def solve_linear(a, b, name: str = "linear system"):
    """Solve a @ x = b by LU with partial pivoting; returns (x, cond).

    cond is the 1-norm condition number of a; values above COND_LIMIT (or a
    numerically singular factorization) raise SingularSystem tagged with
    `name` so callers can report which system failed.
    """
    a = _check_square(a)
    b = np.asarray(b, dtype=float)
    try:
        cond = float(np.linalg.cond(a, 1))
    except np.linalg.LinAlgError:
        raise SingularSystem(name, float("inf")) from None
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularSystem(name, cond)
    x = np.linalg.solve(a, b)
    return x, cond
