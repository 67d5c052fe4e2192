"""Watson-family estimation: eigenvector axis, the least-squares
moment-type concentration estimate with its +/- branch selection rule,
the midpoint-of-likelihood-bounds estimator (MLa), and a single-component
maximum likelihood baseline.

Branches: (+) takes the top eigenvector of the scatter matrix (bipolar
data, kappa > 0), (-) the bottom eigenvector (girdle data, kappa < 0).
A branch is eligible when the sign of its concentration estimate matches;
if neither branch is eligible the estimate does not exist (NotEligible),
which the simulation harness books as the NE event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from . import special
from .linalg import lower_index, sym_eigen, vech_prime
from .models import sample_matrix, watson_log_normalizer


class NotEligible(Exception):
    """Neither eigenvector branch yields a sign-consistent estimate."""


@dataclass
class WatsonSteinStatistics:
    """V and the per-branch J vectors for the canonical test function."""

    v_vec: np.ndarray
    j_plus: np.ndarray
    j_minus: np.ndarray


@dataclass
class WatsonEstimate:
    mu_hat: np.ndarray
    kappa_hat: float
    branch: str  # "+" or "-"
    estimator: str
    eligible_branches: tuple[str, ...]
    residual_norms: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


def _check_branch(branch: str) -> str:
    if branch not in ("+", "-"):
        raise ValueError("branch must be '+' or '-'")
    return branch


def watson_axis(x, branch: str) -> np.ndarray:
    """Top (+) or bottom (-) scatter-matrix eigenvector, sign-fixed.

    Near-isotropic samples have no meaningful axis; the output is still
    deterministic, just unstable under resampling.
    """
    x = sample_matrix(x)
    _check_branch(branch)
    n = x.shape[0]
    decomp = sym_eigen(x.T @ x / n)
    column = 0 if branch == "+" else -1
    return decomp.eigenvectors[:, column].copy()


def watson_statistics(x) -> WatsonSteinStatistics:
    """V and both branch J vectors, sharing one eigendecomposition."""
    x = sample_matrix(x)
    return WatsonSteinStatistics(
        v_vec=_v_statistic(x),
        j_plus=_j_statistic(x, watson_axis(x, "+")),
        j_minus=_j_statistic(x, watson_axis(x, "-")),
    )


def _v_statistic(x: np.ndarray) -> np.ndarray:
    # closed form of mean[(d-1) grad_f2 x + hess_f2 (x (x) x) - lap_f2]
    n, d = x.shape
    scatter = x.T @ x / n
    return 2.0 * d * vech_prime(scatter) - 2.0 * vech_prime(np.eye(d))


def _j_statistic(x: np.ndarray, mu: np.ndarray) -> np.ndarray:
    # J[(i,j)] = 2 mean[(mu'x)(x_j mu_i + x_i mu_j) - 2 x_i x_j (mu'x)^2]
    n, d = x.shape
    t = x @ mu
    p = (x * t[:, None]).mean(axis=0)
    q2 = (x.T * (t * t)) @ x / n
    i, j = (idx[:-1] for idx in lower_index(d))
    return 2.0 * (mu[i] * p[j] + mu[j] * p[i] - 2.0 * q2[i, j])


def watson_stein_kappa(x, branch: str) -> float:
    """Least-squares solution kappa = (J'J)^{-1} J'V for one branch."""
    x = sample_matrix(x)
    mu = watson_axis(x, branch)
    v_vec = _v_statistic(x)
    j_vec = _j_statistic(x, mu)
    gram = float(j_vec @ j_vec)
    if gram <= 1e-14:
        raise ValueError("zero Gram: J vanishes, kappa not estimable")
    return float(j_vec @ v_vec) / gram


def _select_branch(
    kappa_minus: float,
    kappa_plus: float,
    score_minus: float,
    score_plus: float,
) -> str:
    """The three-case eligibility rule shared by the ST and MLa fits.

    Eligibility is sign consistency (kappa^- <= 0, kappa^+ >= 0).  With
    both branches eligible the smaller score wins; an exact tie goes to
    (+).  scores are residual norms for ST and negative log-likelihoods
    for MLa.
    """
    minus_ok = kappa_minus <= 0.0
    plus_ok = kappa_plus >= 0.0
    if not minus_ok and not plus_ok:
        raise NotEligible(
            f"kappa^- = {kappa_minus:.4g} > 0 and kappa^+ = {kappa_plus:.4g} < 0"
        )
    if minus_ok and not plus_ok:
        return "-"
    if plus_ok and not minus_ok:
        return "+"
    return "-" if score_minus < score_plus else "+"


def watson_stein_fit(x) -> WatsonEstimate:
    """Both branches of the moment-type estimator plus the selection rule."""
    x = sample_matrix(x)
    n = x.shape[0]
    scatter_eig = sym_eigen(x.T @ x / n)
    axes = {"+": scatter_eig.eigenvectors[:, 0], "-": scatter_eig.eigenvectors[:, -1]}
    v_vec = _v_statistic(x)

    kappas, residuals = {}, {}
    for branch, mu in axes.items():
        j_vec = _j_statistic(x, mu)
        gram = float(j_vec @ j_vec)
        if gram <= 1e-14:
            raise ValueError("zero Gram: J vanishes, kappa not estimable")
        kappas[branch] = float(j_vec @ v_vec) / gram
        residuals[branch] = float(np.linalg.norm(j_vec * kappas[branch] - v_vec))

    branch = _select_branch(
        kappas["-"], kappas["+"], residuals["-"], residuals["+"]
    )
    eligible = tuple(
        b for b in ("+", "-") if (kappas[b] >= 0 if b == "+" else kappas[b] <= 0)
    )
    warnings = []
    if len(eligible) == 2 and abs(kappas[branch]) < 1e-6:
        warnings.append("near-uniform: |kappa| < 1e-6, axis weakly identified")
    return WatsonEstimate(
        mu_hat=axes[branch].copy(),
        kappa_hat=kappas[branch],
        branch=branch,
        estimator="ST",
        eligible_branches=eligible,
        residual_norms=residuals,
        warnings=warnings,
    )


def watson_mla_bounds(r: float, a: float = 0.5, c: float = 1.5) -> tuple[float, float]:
    """Sharp bounds (L, U) bracketing the ML concentration at resultant r.

    L(r,a,c) = (rc-a)/(r(1-r)) (1 + (1-r)/(c-a)) and
    U(r,a,c) = (rc-a)/(r(1-r)) (1 + r/a); returned ordered so L <= U
    (the raw expressions swap order in the girdle regime).
    """
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie strictly between 0 and 1")
    prefactor = (r * c - a) / (r * (1.0 - r))
    lower = prefactor * (1.0 + (1.0 - r) / (c - a))
    upper = prefactor * (1.0 + r / a)
    return (lower, upper) if lower <= upper else (upper, lower)


def _watson_log_likelihood(d: int, kappa: float, sum_t2: float, n: int) -> float:
    return n * watson_log_normalizer(d, kappa) + kappa * sum_t2


def watson_mla_fit(x) -> WatsonEstimate:
    """Midpoint of the ML bounds at r = mu'S mu, per branch, with the same
    eligibility rule as the moment-type fit and likelihood tie-breaking."""
    x = sample_matrix(x)
    n, d = x.shape
    scatter = x.T @ x / n
    scatter_eig = sym_eigen(scatter)
    axes = {"+": scatter_eig.eigenvectors[:, 0], "-": scatter_eig.eigenvectors[:, -1]}

    kappas, neg_loglik = {}, {}
    degenerate = set()
    for branch, mu in axes.items():
        r = float(mu @ scatter @ mu)
        if not 1e-14 < r < 1.0 - 1e-14:
            # axis carries none (or all) of the mass; treat as ineligible
            degenerate.add(branch)
            kappas[branch] = math.inf if branch == "-" else -math.inf
            neg_loglik[branch] = math.inf
            continue
        lower, upper = watson_mla_bounds(r, 0.5, 0.5 * d)
        kappas[branch] = 0.5 * (lower + upper)
        t = x @ mu
        neg_loglik[branch] = -_watson_log_likelihood(
            d, kappas[branch], float((t * t).sum()), n
        )

    branch = _select_branch(
        kappas["-"], kappas["+"], neg_loglik["-"], neg_loglik["+"]
    )
    eligible = tuple(
        b
        for b in ("+", "-")
        if b not in degenerate and (kappas[b] >= 0 if b == "+" else kappas[b] <= 0)
    )
    warnings = []
    if len(eligible) == 2 and abs(kappas[branch]) < 1e-6:
        warnings.append("near-uniform: |kappa| < 1e-6, axis weakly identified")
    return WatsonEstimate(
        mu_hat=axes[branch].copy(),
        kappa_hat=kappas[branch],
        branch=branch,
        estimator="MLa",
        eligible_branches=eligible,
        residual_norms={b: neg_loglik[b] for b in neg_loglik},
        warnings=warnings,
    )


def watson_mle_kappa(x, branch: str) -> float:
    """Single-component ML concentration for one branch: the root of

        (1/d) 1F1(3/2; d/2+1; kappa) / 1F1(1/2; d/2; kappa) = r,

    r = mu'S mu.  The root lies inside the (L, U) bounds, which seed the
    bracket; solved to |ratio - r| <= 1e-10.
    """
    x = sample_matrix(x)
    n, d = x.shape
    mu = watson_axis(x, branch)
    scatter = x.T @ x / n
    r = float(mu @ scatter @ mu)
    if not 0.0 < r < 1.0:
        raise ValueError("r = mu'S mu must lie strictly between 0 and 1")
    if abs(r - 1.0 / d) < 1e-14:
        return 0.0

    def gap(kappa: float) -> float:
        return special.kummer_ratio(0.5, 0.5 * d, kappa) - r

    lower, upper = watson_mla_bounds(r, 0.5, 0.5 * d)
    pad = 1e-6 + 1e-6 * (abs(lower) + abs(upper))
    lo, hi = lower - pad, upper + pad
    while gap(lo) > 0:  # bracket safety; the bounds are strict in theory
        lo -= 1.0 + 0.5 * abs(lo)
    while gap(hi) < 0:
        hi += 1.0 + 0.5 * abs(hi)
    kappa = float(brentq(gap, lo, hi, xtol=1e-12, maxiter=200))
    if abs(gap(kappa)) > 1e-10:
        raise RuntimeError("Watson MLE root finder did not converge")
    return kappa


def watson_mle_fit(x) -> WatsonEstimate:
    """Joint single-component MLE: both branch MLEs, pick the higher
    likelihood.  Never raises NotEligible (the likelihood always orders
    the branches)."""
    x = sample_matrix(x)
    n, d = x.shape
    scatter = x.T @ x / n
    scatter_eig = sym_eigen(scatter)
    axes = {"+": scatter_eig.eigenvectors[:, 0], "-": scatter_eig.eigenvectors[:, -1]}
    best = None
    loglik = {}
    for branch, mu in axes.items():
        kappa = watson_mle_kappa(x, branch)
        t = x @ mu
        loglik[branch] = _watson_log_likelihood(d, kappa, float((t * t).sum()), n)
        if best is None or loglik[branch] > loglik[best[0]]:
            best = (branch, kappa)
    branch, kappa = best
    return WatsonEstimate(
        mu_hat=axes[branch].copy(),
        kappa_hat=kappa,
        branch=branch,
        estimator="ML",
        eligible_branches=("+", "-"),
        residual_norms={b: -loglik[b] for b in loglik},
    )
