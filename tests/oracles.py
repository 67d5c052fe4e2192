"""Independent brute-force oracles shared by the test modules.

Everything here is deliberately primitive: plain power series, explicit
loops over matrix entries, textbook closed forms.  This is also where the
reference code lives that the package itself never runs: the generic
spherical Stein operator with its test-function objects, the exact
densities, the closed-form score-matching fits of the exponential families
on the sphere, the vec/duplication/commutation machinery, and the closed-form
vMF moment blocks with their delta-method assembly of the asymptotic
variance.  These paths never call the package's own evaluation routines,
so agreement is evidence, not tautology.  The exceptions:

* vmf_moments and delta_method_variance_vmf rotate their e1-frame blocks
  with linalg.rotation_to_e1;
* watson_log_density takes its normaliser from
  est_watson.watson_log_normalizer (and so from special.log_kummer_1f1);
* fb_statistics_generic returns the package's FbSteinStatistics record
  (a plain container; no package code computes its entries);
* mle_newton_scalar takes the Bessel ratio as an argument: it pins the
  vectorised Newton iteration (special.newton_root, which
  newton_root_scalar writes one entry at a time), not the ratio;
* acg_direct_accept and acg_sample_loop take their envelope from
  sampler._envelope: they pin the stacked rejection loop and its
  eigenbasis accept step, which they write in the direct form on unit
  rows, not the envelope.
* stream_generator is sampler._generators of one stream.  The sample
  loops draw from it, so they pin the draws made from a stream, not its
  keying (the sampler tests check that against numpy's SeedSequence).
"""

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np
from scipy import special as _sp

from spherestein.est_fb import FbSteinStatistics
from spherestein.linalg import rotation_to_e1
from spherestein.est_watson import watson_log_normalizer
from spherestein.sampler import _envelope, _generators

_UNIT_TOL = 1e-8


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


def _log_series_bessel_i(nu: float, x: float) -> float:
    # log of the ascending series; accurate whenever x**2/4 << nu + 1,
    # which is exactly the regime where ive underflows
    t = 0.25 * x * x
    tail = 0.0
    term = 1.0
    for k in range(1, 60):
        term *= t / (k * (nu + k))
        tail += term
        if term < 1e-18 * (1.0 + tail):
            break
    return nu * math.log(0.5 * x) - math.lgamma(nu + 1.0) + math.log1p(tail)


def bessel_i(nu: float, x: float) -> float:
    """Modified Bessel function of the first kind, I_nu(x), nu >= 0, x >= 0."""
    if nu < 0:
        raise ValueError("order nu must be >= 0")
    if x < 0:
        raise ValueError("argument x must be >= 0")
    if x == 0.0:
        return 1.0 if nu == 0 else 0.0
    val = float(_sp.iv(nu, x))
    if not math.isfinite(val):
        raise OverflowError("I_nu(x) overflowed; use log_bessel_i")
    return val


def log_bessel_i(nu: float, x: float) -> float:
    """log I_nu(x), computed without overflow for large x."""
    if nu < 0:
        raise ValueError("order nu must be >= 0")
    if x < 0:
        raise ValueError("argument x must be >= 0")
    if x == 0.0:
        if nu == 0:
            return 0.0
        return -math.inf
    scaled = float(_sp.ive(nu, x))
    if scaled > 1e-290:
        return math.log(scaled) + x
    return _log_series_bessel_i(nu, x)


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


def log_sphere_area(d: int) -> float:
    """log of the surface area of S^{d-1}."""
    return math.log(2.0) + 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d)


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


# the spherical Stein operator and the exact densities ------------------------
#
# For a smooth test function f with Jacobian J, row-stacked vectorized
# Hessians H and componentwise Laplacian L, the operator at a sphere point
# x is
#
#     A f(x) = (1 - d) J x  -  H (x (x) x)  +  L  +  J (I - x x') score(x),
#
# and E[A f(X)] = 0 whenever X follows the density whose score is used.
# The scores are hard-coded per family, so no normalising constant enters.


def check_unit_point(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if abs(np.linalg.norm(x) - 1.0) > _UNIT_TOL:
        raise ValueError("x must lie on the unit sphere")
    return x


def score(params, x: np.ndarray) -> np.ndarray:
    """Gradient of the log (unnormalized) density at x, as a vector."""
    if params.family == "fb":
        return params.mu + 2.0 * (params.A @ x)
    if params.family == "vmf":
        return params.kappa * params.mu
    return 2.0 * params.kappa * float(params.mu @ x) * params.mu


def params_to_dict(params) -> dict:
    """The JSON parameter object of params, which models.params_from_dict
    reads back."""
    out = {"family": params.family}
    for f in fields(params):
        value = getattr(params, f.name)
        out[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return out


def log_unnormalized_density(params, x) -> float:
    """The exponent of the density: mu'x + x'Ax, kappa mu'x, or kappa (mu'x)^2."""
    x = check_unit_point(x)
    if params.family == "fb":
        return float(params.mu @ x + x @ params.A @ x)
    if params.family == "vmf":
        return float(params.kappa * (params.mu @ x))
    return float(params.kappa * (params.mu @ x) ** 2)


def vmf_log_normalizer(d: int, kappa: float) -> float:
    """log of the vMF density prefactor kappa^{d/2-1} / ((2 pi)^{d/2} I_{d/2-1})."""
    return (
        (0.5 * d - 1.0) * math.log(kappa)
        - 0.5 * d * math.log(2.0 * math.pi)
        - log_bessel_i(0.5 * d - 1.0, kappa)
    )


def vmf_log_density(params, x) -> float:
    """Exact vMF log density with respect to the surface measure."""
    x = check_unit_point(x)
    return vmf_log_normalizer(params.d, params.kappa) + params.kappa * float(
        params.mu @ x
    )


def watson_log_density(params, x) -> float:
    """Exact Watson log density with respect to the surface measure."""
    x = check_unit_point(x)
    return float(watson_log_normalizer(params.d, params.kappa)) + params.kappa * float(
        params.mu @ x
    ) ** 2


@dataclass
class SmoothTestFunction:
    """A smooth map f: S^{d-1} -> R^m with analytic derivatives.

    jacobian(x) is the m x d Jacobian; hessian_rows(x) is m x d^2 with row
    i the column-stacked vectorized Hessian of component i; laplacian(x)
    collects the componentwise Laplacians.
    """

    m: int
    value: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    hessian_rows: Callable[[np.ndarray], np.ndarray]
    laplacian: Callable[[np.ndarray], np.ndarray]


def canonical_f1(d: int) -> SmoothTestFunction:
    """The identity test function f(x) = x."""
    eye = np.eye(d)
    zeros_h = np.zeros((d, d * d))
    zeros_l = np.zeros(d)
    return SmoothTestFunction(
        m=d,
        value=lambda x: np.asarray(x, dtype=float).copy(),
        jacobian=lambda x: eye,
        hessian_rows=lambda x: zeros_h,
        laplacian=lambda x: zeros_l,
    )


def canonical_f2(d: int) -> SmoothTestFunction:
    """The quadratic test function f(x) = vech'(x x')."""
    pairs = lower_pairs(d)[:-1]
    m = len(pairs)

    hess = np.zeros((m, d * d))
    lap = np.zeros(m)
    for k, (i, j) in enumerate(pairs):
        e = np.zeros((d, d))
        e[i, j] += 1.0
        e[j, i] += 1.0
        hess[k] = e.flatten(order="F")
        if i == j:
            lap[k] = 2.0

    def value(x):
        x = np.asarray(x, dtype=float)
        return np.array([x[i] * x[j] for i, j in pairs])

    def jacobian(x):
        x = np.asarray(x, dtype=float)
        jac = np.zeros((m, d))
        for k, (i, j) in enumerate(pairs):
            jac[k, i] += x[j]
            jac[k, j] += x[i]
        return jac

    return SmoothTestFunction(
        m=m,
        value=value,
        jacobian=jacobian,
        hessian_rows=lambda x: hess,
        laplacian=lambda x: lap,
    )


def stein_operator_apply(params, f: SmoothTestFunction, x) -> np.ndarray:
    """Componentwise value of the spherical Stein operator at x."""
    x = check_unit_point(x)
    d = x.size
    jac = f.jacobian(x)
    s = score(params, x)
    s_proj = s - x * float(x @ s)
    return (
        (1.0 - d) * (jac @ x)
        - f.hessian_rows(x) @ np.kron(x, x)
        + f.laplacian(x)
        + jac @ s_proj
    )


def canonical_stein_rows(params, x) -> tuple[np.ndarray, np.ndarray]:
    """The Stein operator of canonical_f1 and of canonical_f2 on every row
    of an (N, d) array of unit points, in closed form.  With the projected
    score p = s - x (x's): A f1 = (1 - d) x + p, and the entry of the pair
    (i, j) of A f2 is -2d x_i x_j + 2 [i = j] + x_j p_i + x_i p_j."""
    x = np.asarray(x, dtype=float)
    d = x.shape[1]
    if params.family == "fb":
        s = params.mu + 2.0 * (x @ params.A)  # A is symmetric
    elif params.family == "vmf":
        s = np.broadcast_to(params.kappa * params.mu, x.shape)
    else:
        s = 2.0 * params.kappa * (x @ params.mu)[:, None] * params.mu
    p = s - x * np.sum(x * s, axis=1, keepdims=True)
    i, j = np.array(lower_pairs(d)[:-1]).T
    a_f2 = (-2.0 * d * x[:, i] * x[:, j] + 2.0 * (i == j)
            + x[:, j] * p[:, i] + x[:, i] * p[:, j])
    return (1.0 - d) * x + p, a_f2


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


def lower_pairs(d: int) -> list[tuple[int, int]]:
    # column-stacked lower triangle: (0,0), (1,0), ..., (d-1,0), (1,1), ...
    return [(i, j) for j in range(d) for i in range(j, d)]


def vec(m) -> np.ndarray:
    """Column-stacking vectorization: columns top-to-bottom, left first."""
    return np.asarray(m, dtype=float).flatten(order="F")


def kron(a, b) -> np.ndarray:
    """Standard Kronecker product, block (i, j) equal to a[i, j] * b."""
    return np.kron(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def vech(s) -> np.ndarray:
    """Half-vectorization of a symmetric matrix: the column-stacked lower
    triangle, all d(d+1)/2 entries (one row per slice of a stack)."""
    s = np.asarray(s, dtype=float)
    rows, cols = np.array(lower_pairs(s.shape[-1])).T
    return s[..., rows, cols]


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
        for i, j in lower_pairs(d)[:-1]
    ])


def third_moment_loop(x) -> np.ndarray:
    """The third-moment tensor mean[x_i x_j x_k] of an n x d sample (or
    per slice of a (b, n, d) stack), as a loop over the points: each
    (x_i x_j) x_k is added to the running sum in order, then the sum is
    divided by n."""
    n, d = x.shape[-2:]
    total = np.zeros(x.shape[:-2] + (d, d, d))
    for m in range(n):
        p = x[..., m, :]
        total += (p[..., :, None, None] * p[..., None, :, None]) * p[..., None, None, :]
    return total / n


def fb_blocks_loop(x) -> dict:
    """The moment-tensor blocks E, M' and G' of the Fisher-Bingham
    equations, assembled entry by entry (untrimmed M and G columns are
    built, then the last one dropped)."""
    n, d = x.shape
    pairs = lower_pairs(d)
    q = len(pairs)
    xbar = x.mean(axis=0)
    scatter = x.T @ x / n
    third = third_moment_loop(x)
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


def kappa_stein_general(x, f: SmoothTestFunction) -> float:
    """Least-squares Stein estimate of kappa for an arbitrary test function.

    With Q = mean[(d-1) J x + H (x (x) x) - L] and K = mean[J (I - xx')] mu,
    returns (K'K)^{-1} K'Q.  For f(x) = x this reduces algebraically to
    kappa_stein.  A per-point loop.
    """
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    xbar = x.mean(axis=0)
    mu_hat = xbar / np.linalg.norm(xbar)
    q_acc = np.zeros(f.m)
    k_acc = np.zeros((f.m, d))
    for row in x:
        jac = f.jacobian(row)
        q_acc += (
            (d - 1.0) * (jac @ row)
            + f.hessian_rows(row) @ np.kron(row, row)
            - f.laplacian(row)
        )
        k_acc += jac @ (np.eye(d) - np.outer(row, row))
    q_vec = q_acc / n
    k_vec = (k_acc / n) @ mu_hat
    gram = float(k_vec @ k_vec)
    if gram <= 1e-14:
        raise ValueError("zero Gram: test function uninformative for kappa")
    return float(k_vec @ q_vec) / gram


def sin_projection(w) -> SmoothTestFunction:
    """A generic scalar test function f(x) = sin(w'x)."""
    w = np.asarray(w, dtype=float)
    wnorm2 = float(w @ w)

    def value(x):
        return np.array([math.sin(float(w @ x))])

    def jacobian(x):
        return math.cos(float(w @ x)) * w[None, :]

    def hessian_rows(x):
        return (-math.sin(float(w @ x)) * np.outer(w, w)).flatten(order="F")[None, :]

    def laplacian(x):
        return np.array([-math.sin(float(w @ x)) * wnorm2])

    return SmoothTestFunction(
        m=1, value=value, jacobian=jacobian, hessian_rows=hessian_rows,
        laplacian=laplacian,
    )


def fb_log_normalizer_mc(params, n_mc: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of log C(mu, A) by uniform importance sampling.

    Returns (estimate, standard error of the estimate).
    """
    if n_mc < 1000:
        raise ValueError("n_mc must be >= 1000")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    d = params.d
    z = rng.standard_normal((n_mc, d))
    x = z / np.linalg.norm(z, axis=1, keepdims=True)
    h = x @ params.mu + np.einsum("ni,ij,nj->n", x, params.A, x)
    w = np.exp(h)
    mean = float(w.mean())
    se = float(w.std(ddof=1) / math.sqrt(n_mc))
    return log_sphere_area(d) + math.log(mean), se / mean


def stream_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """The Philox generator of one (seed, stream) pair, from the samplers'
    own keying (sampler._generators of a one-stream sequence)."""
    return _generators(seed, [stream])[0]


def vmf_sample_loop(params, n: int, seed: int, stream: int,
                    min_batch: int = 256) -> tuple[np.ndarray, int]:
    """n vMF draws from one stream the way the sampler makes them, written
    as a loop over the stream alone: Ulrich-Wood radial batches of
    max(2 (n - have), min_batch) beta and uniform draws until n are
    accepted, then normal tangent directions, then the Householder
    rotation onto mu.  Returns the sample and the number of radial
    batches drawn."""
    d = params.d
    kappa = params.kappa
    g = stream_generator(seed, stream)

    def unit_rows(x):
        norms = np.linalg.norm(x, axis=1)
        bad = norms < 1e-200
        while np.any(bad):
            x[bad] = g.standard_normal((int(bad.sum()), x.shape[1]))
            norms = np.linalg.norm(x, axis=1)
            bad = norms < 1e-200
        return x / norms[:, None]

    b = (d - 1.0) / (2.0 * kappa + math.sqrt(4.0 * kappa**2 + (d - 1.0) ** 2))
    x0 = (1.0 - b) / (1.0 + b)
    c = kappa * x0 + (d - 1.0) * math.log(1.0 - x0 * x0)
    w_all = np.empty(n)
    have = 0
    batches = 0
    while have < n:
        m = max(2 * (n - have), min_batch)
        z = g.beta(0.5 * (d - 1.0), 0.5 * (d - 1.0), size=m)
        u = g.random(m)
        batches += 1
        w = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        keep = kappa * w + (d - 1.0) * np.log1p(-x0 * w) - c >= np.log(u)
        w = w[keep]
        take = min(w.size, n - have)
        w_all[have : have + take] = w[:take]
        have += take
    v = unit_rows(g.standard_normal((n, d - 1)))
    y = np.empty((n, d))
    y[:, 0] = w_all
    y[:, 1:] = np.sqrt(np.maximum(0.0, 1.0 - w_all * w_all))[:, None] * v
    u_vec = params.mu.copy()
    u_vec[0] -= 1.0
    vnorm2 = float(u_vec @ u_vec)
    rot = (np.eye(d) if vnorm2 < 1e-24
           else np.eye(d) - 2.0 * np.outer(u_vec, u_vec) / vnorm2)
    return unit_rows(y @ rot), batches


def acg_direct_accept(mu: np.ndarray, a_mat: np.ndarray,
                      g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ACG proposals z = (g / sqrt(omega)) E' made from an (m, d) array
    of normals g, and the logs of their accept probabilities in the direct
    form on the unit rows y = z / |z|:
    mu'y + y'Ay - log_bound + d/2 log y'Omega y, with y'Omega y formed from
    the projection E'y."""
    d = mu.size
    eigvecs, inv_sqrt_omega, weights, _, _, log_bound = _envelope(
        mu.tobytes(), a_mat.tobytes(), d)
    z = (g * inv_sqrt_omega) @ eigvecs.T
    y = z / np.linalg.norm(z, axis=1)[:, None]
    proj = y @ eigvecs
    log_acc = (y @ mu + ((y @ a_mat) * y).sum(axis=1) - log_bound
               + 0.5 * d * np.log((proj * proj) @ weights[:, 2]))
    return z, log_acc


def acg_sample_loop(mu: np.ndarray, a_mat: np.ndarray, n: int, seed: int, stream: int,
                    min_batch: int = 256) -> tuple[np.ndarray, int]:
    """n Fisher-Bingham(mu, A) draws from one stream the way the ACG
    rejection sampler makes them, written as a loop over the stream alone:
    batches of about 1.3 (n - have) / rate + 32 (at least min_batch)
    normal and uniform draws, accepted one batch at a time by the direct
    test of acg_direct_accept until n are accepted; the n kept rows are
    then projected through the envelope as one product and normalised.
    Returns the sample and the number of batches drawn."""
    d = mu.size
    eigvecs, inv_sqrt_omega = _envelope(mu.tobytes(), a_mat.tobytes(), d)[:2]
    g = stream_generator(seed, stream)
    out = np.empty((n, d))
    have = proposed = accepted = batches = 0
    while have < n:
        rate = accepted / proposed if proposed else 1.0
        m = max(int((n - have) / max(rate, 0.02) * 1.3) + 32, min_batch)
        normals = g.standard_normal((m, d))
        _, log_acc = acg_direct_accept(mu, a_mat, normals)
        u = g.random(m)
        batches += 1
        taken = (normals * inv_sqrt_omega)[np.log(u) <= log_acc]
        proposed += m
        accepted += taken.shape[0]
        take = min(taken.shape[0], n - have)
        out[have : have + take] = taken[:take]
        have += take
    z = out @ eigvecs.T
    return z / np.linalg.norm(z, axis=1)[:, None], batches


def watson_st_ne_points() -> np.ndarray:
    """Five unit rows in d = 3 on which the Watson ST fit has no eligible
    branch (kappa^+ = -6.2 < 0 < kappa^- = 0.10) while the MLa and ML fits
    exist; found by maximising min(kappa^-, -kappa^+) over five-point sets
    and rounding to two decimals."""
    x = np.array([[-0.05, -0.63, -0.78], [-0.01, 0.79, -0.62], [-1.0, 0.02, 0.04],
                  [-0.06, -0.6, -0.8], [0.0, 0.58, 0.82]])
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def newton_root_scalar(link, target: float, x0: float, lo: float, hi: float,
                       tol: float) -> tuple[float, int]:
    """special.newton_root for one entry, as a scalar loop: the end of
    [lo, hi] on the target's side of x0 (link(x0) decides the side once)
    moves outward by 1 + |end|/2 until it brackets the target or is
    infinite; then Newton steps from x0, with a bisection step whenever
    Newton leaves the bracket, until |link(x) - target| <= tol or iterates
    on both sides of the target have closed the bracket to adjacent
    floats.  Returns the root and its iteration count."""
    side = np.sign(link(x0)[0] - target)  # +1 where the target lies below x0
    while side < 0 and link(hi)[0] < target and math.isfinite(hi):
        hi += 1.0 + 0.5 * abs(hi)
    while side > 0 and link(lo)[0] > target and math.isfinite(lo):
        lo -= 1.0 + 0.5 * abs(lo)
    x, under, over = x0, False, False
    for it in range(1, 201):
        value, deriv = link(x)
        err = value - target
        if err > 0:
            hi = min(hi, x)
        else:
            lo = max(lo, x)
        under, over = under or err < 0, over or err > 0
        mid = 0.5 * (lo + hi)
        if abs(err) <= tol or (under and over and mid in (lo, hi)):
            return x, it
        nxt = x - err / deriv if deriv > 0 else lo
        x = nxt if lo < nxt < hi else mid
    if not abs(link(x)[0] - target) <= 100.0 * tol:
        raise RuntimeError("root finder did not converge")
    return x, 200


def mle_newton_scalar(d: int, r: float, ratio) -> tuple[float, int]:
    """The vMF maximum-likelihood root of ratio(d, kappa) = r for one
    resultant length by newton_root_scalar: rational initial guess, first
    bracket [min(r, 1e-10), max(1e6, 4 kappa0)], link derivative
    1 - R^2 - (d-1) R / kappa; the tolerance is 1e-12, or 1e-15 r below
    r = 0.01."""
    kappa = max(r * (d - r * r) / (1.0 - r * r), 1e-8)

    def link(k):
        value = ratio(d, k)
        return value, 1.0 - value * value - (d - 1.0) * value / k

    return newton_root_scalar(link, r, kappa, min(r, 1e-10), max(1e6, 4.0 * kappa),
                              1e-15 * r if r < 0.01 else 1e-12)


def vmf_fit_loop(x, estimator: str, ratio) -> tuple[np.ndarray, float]:
    """(mu_hat, kappa_hat) of one vMF fit of one n x d sample, written with
    the per-sample expressions: Xbar, |Xbar| as np.linalg.norm, X'X, the
    Stein quotient, the solve of (I - S) mu' = Xbar, the Newton root of
    ratio(d, kappa) = |Xbar| and the score-matching quotient."""
    n, d = x.shape
    xbar = x.mean(axis=0)
    r = float(np.linalg.norm(xbar))
    mu = xbar / r
    resid = np.eye(d) - x.T @ x / n
    if estimator == "st":
        num = float(mu @ resid @ xbar)
        kappa = (d - 1.0) * num / float(mu @ resid @ resid @ mu)
    elif estimator == "st2":
        kappa = (d - 1.0) * float(np.linalg.norm(np.linalg.solve(resid, xbar)))
    elif estimator == "ml":
        kappa = mle_newton_scalar(d, r, ratio)[0]
    else:
        y = x @ mu
        kappa = (d - 1.0) * float(y.mean()) / (1.0 - float((y * y).mean()))
    return mu, kappa


# closed-form vMF moments and the delta-method variance -----------------------


@dataclass
class VmfMomentSet:
    """First, second and fourth moment blocks of X ~ vMF(mu, kappa).

    cross_cov is Cov[X, vec(XX')], a d x d^2 block.
    """

    mean: np.ndarray
    second_moment: np.ndarray
    var_x: np.ndarray
    var_vec_xxt: np.ndarray
    cross_cov: np.ndarray


def bessel_ratio_ladder(d: int, kappa: float, k_max: int = 4) -> list[float]:
    """R_k = I_{d/2-1+k}(kappa) / I_{d/2-1}(kappa) for k = 1..k_max."""
    nu = 0.5 * d - 1.0
    base = float(_sp.ive(nu, kappa))
    if base <= 0:
        raise ValueError("Bessel evaluation underflowed; kappa too small here")
    return [float(_sp.ive(nu + k, kappa)) / base for k in range(1, k_max + 1)]


def vmf_moments(params) -> VmfMomentSet:
    """All moment blocks of the Appendix formulas, exact in the Bessel
    ratios R_1..R_4.  The blocks are assembled at mu = e1 and conjugated
    by a rotation for general directions."""
    d, kappa = params.d, params.kappa
    r1, r2, r3, r4 = bessel_ratio_ladder(d, kappa)

    eye = np.eye(d)
    e1 = eye[:, 0]
    pmat = np.outer(e1, e1)
    vec_i = vec(eye)
    vec_p = vec(pmat)
    kmat = commutation_matrix(d)

    mean = r1 * e1
    second = (r1 / kappa) * eye + r2 * pmat

    sym_cross = (
        np.outer(vec_i, vec_p)
        + np.outer(vec_p, vec_i)
        + kron(pmat, eye)
        + kron(eye, pmat)
        + kron(pmat, eye) @ kmat
        + kron(eye, pmat) @ kmat
    )
    iso = np.outer(vec_i, vec_i) + kron(eye, eye) + kron(eye, eye) @ kmat
    fourth = (
        (r3 / kappa) * sym_cross
        + (r2 / kappa**2) * iso
        + r4 * np.outer(vec_p, vec_p)
    )

    mu_row = e1[None, :]
    third = (r2 / kappa) * (
        kron(eye, mu_row) + kron(eye, mu_row) @ kmat + np.outer(e1, vec_i)
    ) + r3 * np.outer(e1, vec_p)

    var_x = (r1 / kappa) * eye + (r2 - r1 * r1) * pmat
    var_vec = fourth - np.outer(vec(second), vec(second))
    cross = third - np.outer(mean, vec(second))

    # conjugate the e1-frame blocks onto the requested direction
    rot = rotation_to_e1(params.mu).T  # rot @ e1 = mu
    rot2 = kron(rot, rot)
    return VmfMomentSet(
        mean=rot @ mean,
        second_moment=rot @ second @ rot.T,
        var_x=rot @ var_x @ rot.T,
        var_vec_xxt=rot2 @ var_vec @ rot2.T,
        cross_cov=rot @ cross @ rot2.T,
    )


def delta_method_variance_vmf(params) -> float:
    """The asymptotic variance of the moment-type kappa estimator,
    assembled from the moment blocks:

    P = P1 Var[vec(XX')] P1' + 2 P2 Cov[X, vec(XX')] P1' + P2 Var[X] P2'
    with the derivative rows P1 = kappa^2 / ((d-1) R1) (mu (x) mu)' and
    P2 = kappa / R1 mu'.
    """
    d, kappa = params.d, params.kappa
    r1 = bessel_ratio_ladder(d, kappa, k_max=1)[0]
    mu = params.mu
    moments = vmf_moments(params)
    p1 = (kappa**2 / ((d - 1.0) * r1)) * np.kron(mu, mu)
    p2 = (kappa / r1) * mu
    return float(
        p1 @ moments.var_vec_xxt @ p1
        + 2.0 * (p2 @ moments.cross_cov @ p1)
        + p2 @ moments.var_x @ p2
    )


def score_matching_fit(x, jac, lap_s) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form score matching (Hyvarinen 2005; Mardia, Kent & Laha
    2016) for a log density theta'T(x) on the sphere, from the rows x
    (n x d), the Jacobians jac (n x p x d) of T at them and the
    Laplace-Beltrami values lap_s (n x p) of its components.

    The sphere gradient of theta'T is P J'theta with P = I - xx', so the
    score-matching objective mean[|P J'theta|^2 / 2 + theta' Lap_S T] is
    minimised by theta = -W^-1 mean[Lap_S T] with W = mean[(J P)(J P)'].
    Returns (theta, W)."""
    x = np.asarray(x, dtype=float)
    jp = jac - np.einsum("npi,ni->np", jac, x)[:, :, None] * x[:, None, :]
    w = np.einsum("npi,nqi->pq", jp, jp) / x.shape[0]
    return -np.linalg.solve(w, lap_s.mean(axis=0)), w


def fb_score_statistic(x) -> tuple[np.ndarray, np.ndarray]:
    """The Jacobians (n x p x d) and Laplace-Beltrami values (n x p) of the
    Fisher-Bingham statistic T(x) = (x'E_ij x per pair (i, j) of vech'(A),
    then x), for which theta'T(x) = x'Ax + mu'x at theta = (vech'(A), mu).

    E_ii = e_i e_i' and E_ij = e_i e_j' + e_j e_i' for i != j, so x'E_ij x
    is x_i^2 or 2 x_i x_j.  On the unit sphere Lap_S f = Lap f - x'(Hess f)x
    - (d-1) x'grad f, which is 2 tr E - 2d x'Ex for x'Ex and -(d-1) x_k
    for x_k."""
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    pairs = lower_pairs(d)[:-1]
    jac = np.zeros((n, len(pairs) + d, d))
    lap_s = np.zeros((n, len(pairs) + d))
    for k, (i, j) in enumerate(pairs):
        e = np.zeros((d, d))
        e[i, j] = e[j, i] = 1.0
        jac[:, k] = 2.0 * x @ e
        lap_s[:, k] = 2.0 * np.trace(e) - 2.0 * d * np.sum((x @ e) * x, axis=1)
    jac[:, len(pairs):] = np.eye(d)
    lap_s[:, len(pairs):] = -(d - 1.0) * x
    return jac, lap_s
