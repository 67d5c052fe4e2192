"""Independent brute-force oracles shared by the test modules.

Everything here is deliberately primitive: plain power series, explicit
loops over matrix entries, textbook closed forms.  These paths never call
the package's own evaluation routines, so agreement is evidence, not
tautology.
"""

import math

import numpy as np


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
