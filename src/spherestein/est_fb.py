"""The moment-type estimator for the Fisher-Bingham family.

Solving the empirical Stein identity with the test functions f1(x) = x and
f2(x) = vech'(xx') leads to two coupled linear equations in mu and
vech'(A),

    M' vech'(A) + E mu = D,
    G' vech'(A) + L mu = H,

whose coefficient blocks are sample moments up to fourth order, assembled
here from moment tensors by index arrays.  The tests cross-check them
against a per-point path built from the explicit derivative matrices of
the test functions (the two agree to machine precision).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    SingularSystem,
    lower_index,
    solve_linear,
    spectral_norm,
    unvech_prime,
    vech_prime,
)
from .models import (
    FisherBinghamParams,
    sample_matrix,
    sample_stack,
)

# estimates with larger norms are reported with a warning: far out on the
# likelihood plateau, very different (mu, A) give near-identical densities
IDENTIFICATION_NORM = 25.0


@dataclass
class FbSteinStatistics:
    """Sample means defining the estimating equations (trimmed to A[d,d] = 0).

    Shapes, with q = d(d+1)/2: m_prime (q-1, q-1), d_vec (q-1,),
    e_mat (q-1, d), g_prime (d, q-1), h_vec (d,), l_mat (d, d).
    """

    m_prime: np.ndarray
    d_vec: np.ndarray
    e_mat: np.ndarray
    g_prime: np.ndarray
    h_vec: np.ndarray
    l_mat: np.ndarray


@dataclass
class FbEstimate:
    """A fit of one sample, or of a (b, n, d) stack of b samples.

    For a stack every field gains a leading axis of b entries (warnings
    holds one list per sample), and ``ne`` flags the samples whose system
    is singular, whose entries are NaN.  A single such sample raises
    SingularSystem instead.
    """

    mu_hat: np.ndarray
    A_hat: np.ndarray
    residual_norm: float | np.ndarray
    cond_m_prime: float | np.ndarray
    cond_schur: float | np.ndarray
    warnings: list = field(default_factory=list)
    estimator: str = "ST"
    ne: np.ndarray | None = None


def v_statistic(scatter: np.ndarray) -> np.ndarray:
    """D = 2d vech'(S) - 2 vech'(I) = mean[(d-1) grad_f2 x + hess_f2 (x (x) x)
    - lap_f2] for f2 = vech'(xx'), which the Watson fits call V (one row
    per slice of a stack of scatter matrices)."""
    d = scatter.shape[-1]
    return 2.0 * d * vech_prime(scatter) - 2.0 * vech_prime(np.eye(d))


def fb_statistics(x) -> FbSteinStatistics:
    """The six coefficient blocks for the canonical test-function pair.

    Uses the closed forms the canonical pair admits: H = (d-1) Xbar,
    L = I - S, D = 2d vech'(S) - 2 vech'(I), and moment-tensor assemblies
    for M, E, G; equal to the generic path to machine precision.
    """
    x = sample_matrix(x)
    n, d = x.shape
    k, l = lower_index(d)  # the q columns of M and G, in lower_pairs order
    i, j = k[:-1], l[:-1]  # the q - 1 rows of M and E (A[d, d] trimmed)

    xbar = x.mean(axis=0)
    scatter = x.T @ x / n
    third = np.einsum("ni,nj,nk->ijk", x, x, x) / n
    w = (x[:, :, None] * x[:, None, :]).reshape(n, d * d)
    fourth = (w.T @ w / n).reshape(d, d, d, d)

    h_vec = (d - 1.0) * xbar
    l_mat = np.eye(d) - scatter

    # row blocks of B(x) = grad_f2(x) (I - xx'); row (i,j) is
    # x_j e_i' + x_i e_j' - 2 x_i x_j x', so means reduce to moment tensors
    e_mat = -2.0 * third[i, j]
    rows = np.arange(i.size)
    e_mat[rows, i] += xbar[j]
    e_mat[rows, j] += xbar[i]

    # T4[(i,j), k, l] = mean[B_{(ij),k} x_l], symmetrised over (k, l); the
    # np.where operands and their order are those of the entrywise formula
    i, j = i[:, None], j[:, None]
    t_kl = np.where(i == k, scatter[j, l], 0.0) \
        + np.where(j == k, scatter[i, l], 0.0) - 2.0 * fourth[i, j, k, l]
    t_lk = np.where(i == l, scatter[j, k], 0.0) \
        + np.where(j == l, scatter[i, k], 0.0) - 2.0 * fourth[i, j, l, k]
    m_full = np.where(k == l, 2.0 * t_kl, 2.0 * (t_kl + t_lk))

    # mean[(I - xx')_{row,k} x_l], symmetrised over (k, l)
    row = np.arange(d)[:, None]
    t_kl = np.where(row == k, xbar[l], 0.0) - third[row, k, l]
    t_lk = np.where(row == l, xbar[k], 0.0) - third[row, l, k]
    g_full = np.where(k == l, 2.0 * t_kl, 2.0 * (t_kl + t_lk))

    return FbSteinStatistics(
        m_prime=m_full[:, :-1],
        d_vec=v_statistic(scatter),
        e_mat=e_mat,
        g_prime=g_full[:, :-1],
        h_vec=h_vec,
        l_mat=l_mat,
    )


def fb_stein_fit(x) -> FbEstimate:
    """Solve the coupled equations for (mu, A); A comes back symmetric with
    A[d, d] = 0.

    Raises SingularSystem (tagged with the failing block) when M' or the
    Schur complement L - G'(M')^{-1}E is numerically singular.  A
    (b, n, d) stack is fitted one slice at a time, and a singular slice is
    flagged in ``ne`` instead.
    """
    stack, single = sample_stack(x)
    if single:
        return _fit_one(stack[0])
    b, _, d = stack.shape
    fit = FbEstimate(np.full((b, d), np.nan), np.full((b, d, d), np.nan),
                     np.full(b, np.nan), np.full(b, np.nan), np.full(b, np.nan),
                     [[] for _ in range(b)], ne=np.zeros(b, dtype=bool))
    for k, xk in enumerate(stack):
        try:
            one = _fit_one(xk)
        except SingularSystem:
            fit.ne[k] = True
            continue
        fit.mu_hat[k], fit.A_hat[k], fit.warnings[k] = one.mu_hat, one.A_hat, one.warnings
        fit.residual_norm[k] = one.residual_norm
        fit.cond_m_prime[k], fit.cond_schur[k] = one.cond_m_prime, one.cond_schur
    return fit


def _fit_one(x: np.ndarray) -> FbEstimate:
    d = x.shape[1]
    st = fb_statistics(x)

    rhs = np.column_stack([st.e_mat, st.d_vec])
    solved, cond_m = solve_linear(st.m_prime, rhs, name="M'")
    w_e, w_d = solved[:, :d], solved[:, d]
    schur = st.l_mat - st.g_prime @ w_e
    mu_hat, cond_schur = solve_linear(
        schur, st.h_vec - st.g_prime @ w_d, name="Schur complement"
    )
    a_hat = unvech_prime(w_d - w_e @ mu_hat, d)

    params = FisherBinghamParams(mu=mu_hat, A=a_hat)
    residual = fb_stein_residual(params, x, statistics=st)
    warnings = []
    mu_norm = float(np.linalg.norm(mu_hat))
    a_norm = spectral_norm(a_hat)
    if mu_norm > IDENTIFICATION_NORM or a_norm > IDENTIFICATION_NORM:
        warnings.append(
            "identification: parameter norms are large "
            f"(|mu| = {mu_norm:.1f}, |A| = {a_norm:.1f}); distinct parameters "
            "this far out can produce near-identical densities"
        )
    return FbEstimate(
        mu_hat=mu_hat,
        A_hat=a_hat,
        residual_norm=float(np.linalg.norm(residual)),
        cond_m_prime=cond_m,
        cond_schur=cond_schur,
        warnings=warnings,
    )


def fb_stein_residual(
    params: FisherBinghamParams, x, statistics: FbSteinStatistics | None = None
) -> np.ndarray:
    """Empirical mean of the Stein operator at the given parameters,
    concatenated over the canonical test-function pair (f1 block first).

    Zero (to solver accuracy) at the fitted parameters.
    """
    x = sample_matrix(x)
    st = statistics if statistics is not None else fb_statistics(x)
    va = vech_prime(params.A)
    res_f1 = st.g_prime @ va + st.l_mat @ params.mu - st.h_vec
    res_f2 = st.m_prime @ va + st.e_mat @ params.mu - st.d_vec
    return np.concatenate([res_f1, res_f2])
