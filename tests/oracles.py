"""Independent brute-force oracles shared by the test modules.

Everything here is deliberately primitive: plain power series, explicit
loops over matrix entries, textbook closed forms.  These paths never call
the package's own evaluation routines, so agreement is evidence, not
tautology.  The one exception is fb_statistics_generic, whose inputs are
the package's test-function objects (their derivatives are checked by
hand elsewhere) and which builds vec/vech maps with duplication_matrix.
"""

import math

import numpy as np

from spherestein.est_fb import FbSteinStatistics
from spherestein.linalg import duplication_matrix
from spherestein.models import canonical_f1, canonical_f2


def series_bessel_i(nu: float, x: float, tol: float = 1e-17) -> float:
    """Ascending power series for I_nu(x)."""
    if x == 0.0:
        return 1.0 if nu == 0 else 0.0
    term = (0.5 * x) ** nu / math.gamma(nu + 1.0)
    total = term
    for k in range(1, 500):
        term *= (0.25 * x * x) / (k * (nu + k))
        total += term
        if term < tol * total:
            break
    return total


def series_1f1(a: float, b: float, x: float, tol: float = 1e-16) -> float:
    """Direct Taylor series for 1F1(a; b; x); fine for |x| up to ~30."""
    term = 1.0
    total = 1.0
    for k in range(500):
        term *= (a + k) * x / ((b + k) * (k + 1.0))
        total += term
        if abs(term) < tol * abs(total):
            break
    return total


def bessel_i_half(x: float) -> float:
    """Closed form I_{1/2}(x) = sqrt(2/(pi x)) sinh x."""
    return math.sqrt(2.0 / (math.pi * x)) * math.sinh(x)


def bessel_i_three_halves(x: float) -> float:
    """Closed form I_{3/2}(x) = sqrt(2/(pi x)) (cosh x - sinh x / x)."""
    return math.sqrt(2.0 / (math.pi * x)) * (math.cosh(x) - math.sinh(x) / x)


def ratio_d3(kappa: float) -> float:
    """I_{3/2}/I_{1/2} = coth(kappa) - 1/kappa."""
    return 1.0 / math.tanh(kappa) - 1.0 / kappa


def rank_by_row_reduction(m, tol: float = 1e-10) -> int:
    """Rank via plain Gaussian elimination with partial pivoting."""
    a = np.array(m, dtype=float)
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        pivot = rank + int(np.argmax(np.abs(a[rank:, col])))
        if abs(a[pivot, col]) < tol:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        a[rank] = a[rank] / a[rank, col]
        for r in range(rows):
            if r != rank:
                a[r] -= a[r, col] * a[rank]
        rank += 1
    return rank


def random_unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    z = rng.standard_normal((n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def fb_uniform_rejection(mu, a_mat, n: int, rng: np.random.Generator) -> np.ndarray:
    """n Fisher-Bingham(mu, A) draws by rejection from the uniform law on
    the sphere, bounding the exponent by |mu| + lambda_max(A).  Exact but
    slow; practical only for weak concentration."""
    d = mu.size
    sup_log = np.linalg.norm(mu) + np.linalg.eigvalsh(a_mat)[-1]
    kept = []
    have = 0
    while have < n:
        y = random_unit_rows(rng, n, d)
        log_acc = y @ mu + np.einsum("ni,ij,nj->n", y, a_mat, y) - sup_log
        taken = y[np.log(rng.random(n)) <= log_acc]
        kept.append(taken)
        have += taken.shape[0]
    return np.vstack(kept)[:n]


def grad_f2_by_hand_d3(x) -> np.ndarray:
    """The 5 x 3 Jacobian of vech'(xx') at d = 3, transcribed entry by entry."""
    x1, x2, x3 = x
    return np.array([
        [2 * x1, 0.0, 0.0],
        [x2, x1, 0.0],
        [x3, 0.0, x1],
        [0.0, 2 * x2, 0.0],
        [0.0, x3, x2],
    ])


def stein_mean_reference(score_fn, f, x) -> np.ndarray:
    """Mean of the spherical Stein operator over sample rows, computed from
    first principles (per-point loop, explicit matrices)."""
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    total = np.zeros(f.m)
    eye = np.eye(d)
    for row in x:
        jac = f.jacobian(row)
        val = (
            (1.0 - d) * (jac @ row)
            - f.hessian_rows(row) @ np.kron(row, row)
            + f.laplacian(row)
            + jac @ ((eye - np.outer(row, row)) @ score_fn(row))
        )
        total += val
    return total / n


def _lower_pairs(d: int) -> list[tuple[int, int]]:
    # column-stacked lower triangle: (0,0), (1,0), ..., (d-1,0), (1,1), ...
    return [(i, j) for j in range(d) for i in range(j, d)]


def j_statistic_loop(x, mu) -> np.ndarray:
    """The Watson J vector entry by entry over the trimmed lower pairs:
    J[(i,j)] = 2 (mu_i p_j + mu_j p_i - 2 Q_ij), p = mean[(mu'x) x] and
    Q = mean[(mu'x)^2 xx']."""
    n, d = x.shape
    t = x @ mu
    p = (x * t[:, None]).mean(axis=0)
    q2 = (x.T * (t * t)) @ x / n
    return np.array([
        2.0 * (mu[i] * p[j] + mu[j] * p[i] - 2.0 * q2[i, j])
        for i, j in _lower_pairs(d)[:-1]
    ])


def fb_blocks_loop(x) -> dict:
    """The moment-tensor blocks E, M' and G' of the Fisher-Bingham
    equations, assembled entry by entry (untrimmed M and G columns are
    built, then the last one dropped)."""
    n, d = x.shape
    pairs = _lower_pairs(d)
    q = len(pairs)
    xbar = x.mean(axis=0)
    scatter = x.T @ x / n
    third = np.einsum("ni,nj,nk->ijk", x, x, x) / n
    w = (x[:, :, None] * x[:, None, :]).reshape(n, d * d)
    fourth = (w.T @ w / n).reshape(d, d, d, d)

    e_mat = np.empty((q - 1, d))
    for k, (i, j) in enumerate(pairs[:-1]):
        e_mat[k] = -2.0 * third[i, j]
        e_mat[k, i] += xbar[j]
        e_mat[k, j] += xbar[i]

    m_full = np.empty((q - 1, q))
    for krow, (i, j) in enumerate(pairs[:-1]):
        for kcol, (k, l) in enumerate(pairs):
            t_kl = (scatter[j, l] if i == k else 0.0) \
                + (scatter[i, l] if j == k else 0.0) - 2.0 * fourth[i, j, k, l]
            if k == l:
                m_full[krow, kcol] = 2.0 * t_kl
            else:
                t_lk = (scatter[j, k] if i == l else 0.0) \
                    + (scatter[i, k] if j == l else 0.0) - 2.0 * fourth[i, j, l, k]
                m_full[krow, kcol] = 2.0 * (t_kl + t_lk)

    g_full = np.empty((d, q))
    for kcol, (k, l) in enumerate(pairs):
        for row in range(d):
            t_kl = (xbar[l] if row == k else 0.0) - third[row, k, l]
            if k == l:
                g_full[row, kcol] = 2.0 * t_kl
            else:
                t_lk = (xbar[k] if row == l else 0.0) - third[row, l, k]
                g_full[row, kcol] = 2.0 * (t_kl + t_lk)

    return {"e_mat": e_mat, "m_prime": m_full[:, :-1], "g_prime": g_full[:, :-1]}


def fb_statistics_generic(x, f1=None, f2=None) -> FbSteinStatistics:
    """The Fisher-Bingham coefficient blocks from explicit derivative
    matrices, for arbitrary test-function pairs of output dimensions d and
    q - 1 (the canonical pair by default).  A per-point loop."""
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    q = d * (d + 1) // 2
    f1 = canonical_f1(d) if f1 is None else f1
    f2 = canonical_f2(d) if f2 is None else f2
    if f1.m != d or f2.m != q - 1:
        raise ValueError("test functions must have output dimensions d and q-1")

    dup = duplication_matrix(d)
    eye = np.eye(d)
    m_full = np.zeros((q - 1, q))
    d_vec = np.zeros(q - 1)
    e_mat = np.zeros((q - 1, d))
    g_full = np.zeros((d, q))
    h_vec = np.zeros(d)
    l_mat = np.zeros((d, d))
    for row in x:
        proj = eye - np.outer(row, row)
        xx = np.kron(row, row)
        j2 = f2.jacobian(row)
        b2 = j2 @ proj
        j1 = f1.jacobian(row)
        b1 = j1 @ proj
        m_full += 2.0 * np.kron(b2, row[None, :]) @ dup
        d_vec += (d - 1.0) * (j2 @ row) + f2.hessian_rows(row) @ xx - f2.laplacian(row)
        e_mat += b2
        g_full += 2.0 * np.kron(b1, row[None, :]) @ dup
        h_vec += (d - 1.0) * (j1 @ row) + f1.hessian_rows(row) @ xx - f1.laplacian(row)
        l_mat += b1
    return FbSteinStatistics(
        m_prime=m_full[:, :-1] / n,
        d_vec=d_vec / n,
        e_mat=e_mat / n,
        g_prime=g_full[:, :-1] / n,
        h_vec=h_vec / n,
        l_mat=l_mat / n,
    )
