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

The statistics, the fit and the residual take a (b, n, d) stack of b
samples or its ``models.Sample``; slice k gets the bits of that sample
fitted as a stack of one.  The first and second moments Xbar and S are
the Sample's, formed on first read and shared with the block's other
fits; the third and fourth moment tensors are built for groups of
slices within models.WORK_BYTES of pair products, the six blocks are
assembled from them for groups within models.WORK_BYTES of (q-1) q
temporaries (the whole block at d = 3, one slice at a time at d = 50),
and the solves run once.

The pair products w = x_i x_j are the einsum "bni,bnj->bnij" (the bits
of a broadcast product, in half its time).  The third-moment tensor
mean[x_i x_j x_k] is contracted from the w that the fourth moment needs
anyway, as the two-operand einsum "bnk,bnp->bkp".  Numpy runs it as an
axpy over the contiguous p = (i, j) axis, adding the n products
(x_i x_j) x_k one at a time in order: the same bits as the three-operand
einsum it replaced and as a plain loop over the points, at about an
eighth of its time.  matmul, einsum with optimize=True, or the transposed
operands "bpn,bkn->bpk" sum blockwise or in SIMD partial sums and change
the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models
from .linalg import lower_index, solve_stack, unvech_prime, v_statistic, vech_prime
from .models import FisherBinghamParams, sample_stack


@dataclass
class FbSteinStatistics:
    """Sample means defining the estimating equations (trimmed to A[d,d] = 0).

    Shapes per slice of a stack, with q = d(d+1)/2: m_prime (q-1, q-1),
    d_vec (q-1,), e_mat (q-1, d), g_prime (d, q-1), h_vec (d,),
    l_mat (d, d); each block has a leading axis of b slices.
    """

    m_prime: np.ndarray
    d_vec: np.ndarray
    e_mat: np.ndarray
    g_prime: np.ndarray
    h_vec: np.ndarray
    l_mat: np.ndarray


@dataclass
class FbEstimate:
    """A fit of a (b, n, d) stack of b samples.

    Every field has a leading axis of b entries, and ``ne`` flags the
    samples whose M' or Schur complement is singular: their estimates and
    residual norms are NaN, and the condition numbers show which system
    failed.
    """

    mu_hat: np.ndarray
    A_hat: np.ndarray
    residual_norm: np.ndarray
    cond_m_prime: np.ndarray
    cond_schur: np.ndarray
    ne: np.ndarray


def fb_statistics(x) -> FbSteinStatistics:
    """The six coefficient blocks for the canonical test-function pair,
    per slice of a (b, n, d) stack or its Sample (every block has a
    leading axis of b slices).

    Uses the closed forms the canonical pair admits: H = (d-1) Xbar,
    L = I - S, D = 2d vech'(S) - 2 vech'(I), and moment-tensor assemblies
    for M, E, G; equal to the generic path to machine precision.
    """
    s = sample_stack(x)
    b, n, d = s.x.shape
    q = d * (d + 1) // 2
    groups = []
    for g in models.chunks(b, 8 * (q - 1) * q):  # groups of (q-1) q temporaries,
        # each in groups of n d^2 pair products
        x = s.x[g]
        moments = [_moments(x[t]) for t in models.chunks(len(x), 8 * n * d * d)]
        groups.append(_assemble(s.xbar[g], s.scatter[g],
                                *map(np.concatenate, zip(*moments))))
    return FbSteinStatistics(*map(np.concatenate, zip(*groups)))


def _moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the third and fourth moment tensors per slice of a C-ordered stack
    b, n, d = x.shape
    w = np.einsum("bni,bnj->bnij", x, x).reshape(b, n, d * d)
    # an in-order axpy over the points along w's contiguous (i, j) axis,
    # so the bits of a plain loop (see the module docstring); matmul,
    # optimize=True and "bpn,bkn" operands round differently
    third = (np.einsum("bnk,bnp->bkp", x, w) / n).reshape(b, d, d, d)
    fourth = (np.matmul(w.swapaxes(1, 2), w) / n).reshape(b, d, d, d, d)
    return third.transpose(0, 2, 3, 1), fourth


def _assemble(xbar, scatter, third, fourth) -> tuple[np.ndarray, ...]:
    # fb_statistics' six blocks, in field order, from the moments
    d = xbar.shape[-1]
    # the q - 1 rows of M' and E and columns of M' and G', in vech' order
    i, j = k, l = lower_index(d)

    # row blocks of B(x) = grad_f2(x) (I - xx'); row (i,j) is
    # x_j e_i' + x_i e_j' - 2 x_i x_j x', so means reduce to moment tensors
    e_mat = -2.0 * third[:, i, j]
    rows = np.arange(i.size)
    e_mat[:, rows, i] += xbar[:, j]
    e_mat[:, rows, j] += xbar[:, i]

    # T4[(i,j), k, l] = mean[B_{(ij),k} x_l], symmetrised over (k, l); the
    # np.where operands and their order are those of the entrywise formula
    i, j = i[:, None], j[:, None]
    t_kl = np.where(i == k, scatter[:, j, l], 0.0) \
        + np.where(j == k, scatter[:, i, l], 0.0) - 2.0 * fourth[:, i, j, k, l]
    t_lk = np.where(i == l, scatter[:, j, k], 0.0) \
        + np.where(j == l, scatter[:, i, k], 0.0) - 2.0 * fourth[:, i, j, l, k]
    m_prime = np.where(k == l, 2.0 * t_kl, 2.0 * (t_kl + t_lk))

    # mean[(I - xx')_{row,k} x_l], symmetrised over (k, l)
    row = np.arange(d)[:, None]
    t_kl = np.where(row == k, xbar[:, None, l], 0.0) - third[:, row, k, l]
    t_lk = np.where(row == l, xbar[:, None, k], 0.0) - third[:, row, l, k]
    g_prime = np.where(k == l, 2.0 * t_kl, 2.0 * (t_kl + t_lk))

    # the fancy-indexed blocks come out with b as their innermost stride;
    # matmul rounds such a slice differently from a contiguous one
    blocks = (m_prime, v_statistic(scatter), e_mat, g_prime, (d - 1.0) * xbar,
              np.eye(d) - scatter)
    return tuple(np.ascontiguousarray(a) for a in blocks)


def fb_stein_fit(x) -> FbEstimate:
    """Solve the coupled equations for (mu, A) per slice of a (b, n, d)
    stack; A comes back symmetric with A[d, d] = 0.

    A slice whose M' or Schur complement L - G'(M')^{-1}E is numerically
    singular is flagged in ``ne``.
    """
    st = fb_statistics(x)
    d = st.h_vec.shape[-1]

    rhs = np.concatenate([st.e_mat, st.d_vec[..., None]], axis=-1)
    solved, cond_m, sing_m = solve_stack(st.m_prime, rhs)
    w_e, w_d = solved[..., :d], solved[..., d]
    schur = st.l_mat - np.matmul(st.g_prime, w_e)
    mu_hat, cond_s, sing_s = solve_stack(schur, st.h_vec - _mv(st.g_prime, w_d))
    va = w_d - _mv(w_e, mu_hat)
    residual = _residual(st, mu_hat, va)
    resid_norm = np.sqrt(np.vecdot(residual, residual))
    ne = sing_m | sing_s
    a_hat = unvech_prime(va, d)
    a_hat[ne] = np.nan  # its pinned A[d, d] = 0 too
    return FbEstimate(mu_hat, a_hat, resid_norm, cond_m, cond_s, ne)


def _mv(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    # m @ v per slice of stacks of matrices and vectors
    return np.matmul(m, v[..., None])[..., 0]


def _residual(st: FbSteinStatistics, mu: np.ndarray, va: np.ndarray) -> np.ndarray:
    # the f1 block, then the f2 block, at (mu, vech'(A)); one row per slice
    res_f1 = _mv(st.g_prime, va) + _mv(st.l_mat, mu) - st.h_vec
    res_f2 = _mv(st.m_prime, va) + _mv(st.e_mat, mu) - st.d_vec
    return np.concatenate([res_f1, res_f2], axis=-1)


def fb_stein_residual(params: FisherBinghamParams, x) -> np.ndarray:
    """Empirical mean of the Stein operator at the given parameters,
    concatenated over the canonical test-function pair (f1 block first),
    one row per slice of a (b, n, d) stack.

    Zero (to solver accuracy) at the fitted parameters.
    """
    return _residual(fb_statistics(x), params.mu, vech_prime(params.A))
