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
from .est_fb import v_statistic
from .linalg import lower_index, sym_eigen
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


def _scatter_axes(x) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """The sample, its scatter S = x'x/n and the (+) top and (-) bottom
    eigenvectors of S (column views), from one eigendecomposition."""
    x = sample_matrix(x)
    scatter = x.T @ x / x.shape[0]
    vectors = sym_eigen(scatter).eigenvectors
    return x, scatter, {"+": vectors[:, 0], "-": vectors[:, -1]}


def watson_axis(x, branch: str) -> np.ndarray:
    """Top (+) or bottom (-) scatter-matrix eigenvector, sign-fixed.

    Near-isotropic samples have no meaningful axis; the output is still
    deterministic, just unstable under resampling.
    """
    return _scatter_axes(x)[2][_check_branch(branch)].copy()


def watson_statistics(x) -> WatsonSteinStatistics:
    """V and both branch J vectors, sharing one eigendecomposition."""
    x, scatter, axes = _scatter_axes(x)
    return WatsonSteinStatistics(
        v_vec=v_statistic(scatter),
        j_plus=_j_statistic(x, axes["+"]),
        j_minus=_j_statistic(x, axes["-"]),
    )


def _j_statistic(x: np.ndarray, mu: np.ndarray) -> np.ndarray:
    # J[(i,j)] = 2 mean[(mu'x)(x_j mu_i + x_i mu_j) - 2 x_i x_j (mu'x)^2]
    n, d = x.shape
    t = x @ mu
    p = (x * t[:, None]).mean(axis=0)
    q2 = (x.T * (t * t)) @ x / n
    i, j = (idx[:-1] for idx in lower_index(d))
    return 2.0 * (mu[i] * p[j] + mu[j] * p[i] - 2.0 * q2[i, j])


def _stein_branch(x: np.ndarray, v_vec: np.ndarray,
                  mu: np.ndarray) -> tuple[float, float]:
    # least-squares kappa = (J'J)^{-1} J'V on one axis, and its residual norm
    j_vec = _j_statistic(x, mu)
    gram = float(j_vec @ j_vec)
    if gram <= 1e-14:
        raise ValueError("zero Gram: J vanishes, kappa not estimable")
    kappa = float(j_vec @ v_vec) / gram
    return kappa, float(np.linalg.norm(j_vec * kappa - v_vec))


def watson_stein_kappa(x, branch: str) -> float:
    """Least-squares solution kappa = (J'J)^{-1} J'V for one branch."""
    x, scatter, axes = _scatter_axes(x)
    return _stein_branch(x, v_statistic(scatter), axes[_check_branch(branch)])[0]


def _pick_branch(estimator: str, axes: dict[str, np.ndarray], fits: dict[str, tuple],
                 by_sign: bool = True) -> WatsonEstimate:
    """Select a branch from its (kappa, score) pairs and wrap the estimate.

    by_sign (ST, MLa) makes a branch eligible when its kappa has its sign
    (kappa^+ >= 0, kappa^- <= 0) and flags a near-uniform pick; ML has both
    eligible.  The smaller score (residual norm for ST, negative
    log-likelihood otherwise) wins; an exact tie goes to (+), a NaN loses.
    """
    kappas = {b: kappa for b, (kappa, _) in fits.items()}
    scores = {b: score for b, (_, score) in fits.items()}
    eligible = tuple(b for b in ("+", "-") if not by_sign
                     or (kappas[b] >= 0 if b == "+" else kappas[b] <= 0))
    if not eligible:
        raise NotEligible(
            f"kappa^- = {kappas['-']:.4g} > 0 and kappa^+ = {kappas['+']:.4g} < 0"
        )
    branch = min(eligible, key=lambda b: (math.isnan(scores[b]), scores[b]))
    warnings = []
    if by_sign and len(eligible) == 2 and abs(kappas[branch]) < 1e-6:
        warnings.append("near-uniform: |kappa| < 1e-6, axis weakly identified")
    return WatsonEstimate(
        mu_hat=axes[branch].copy(),
        kappa_hat=kappas[branch],
        branch=branch,
        estimator=estimator,
        eligible_branches=eligible,
        residual_norms=scores,
        warnings=warnings,
    )


def watson_stein_fit(x) -> WatsonEstimate:
    """Both branches of the moment-type estimator plus the selection rule."""
    x, scatter, axes = _scatter_axes(x)
    v_vec = v_statistic(scatter)
    fits = {b: _stein_branch(x, v_vec, mu) for b, mu in axes.items()}
    return _pick_branch("ST", axes, fits)


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


def _neg_log_likelihood(x: np.ndarray, mu: np.ndarray, kappa: float) -> float:
    n, d = x.shape
    t = x @ mu
    return -(n * watson_log_normalizer(d, kappa) + kappa * float((t * t).sum()))


def _carries_mass(r: float) -> bool:
    # some but not all of the mass on the axis; else |kappa| ~ 1/r or 1/(1-r)
    return 1e-14 < r < 1.0 - 1e-14


def _mla_branch(x: np.ndarray, scatter: np.ndarray, mu: np.ndarray,
                branch: str) -> tuple[float, float]:
    # midpoint of the ML bounds at r = mu'S mu (mu a column view), and its NLL
    r = float(mu @ scatter @ mu)
    if not _carries_mass(r):
        # a wrong-signed infinite kappa makes the branch ineligible
        return (math.inf if branch == "-" else -math.inf), math.inf
    lower, upper = watson_mla_bounds(r, 0.5, 0.5 * x.shape[1])
    kappa = 0.5 * (lower + upper)
    return kappa, _neg_log_likelihood(x, mu, kappa)


def watson_mla_fit(x) -> WatsonEstimate:
    """Midpoint of the ML bounds at r = mu'S mu, per branch, with the same
    eligibility rule as the moment-type fit and likelihood tie-breaking."""
    x, scatter, axes = _scatter_axes(x)
    fits = {b: _mla_branch(x, scatter, mu, b) for b, mu in axes.items()}
    return _pick_branch("MLa", axes, fits)


def _mle_branch(scatter: np.ndarray, mu: np.ndarray) -> float:
    # the ML root at r = mu'S mu, bracketed by the MLa bounds
    mu = mu.copy()  # contiguous: the last bits of r depend on mu's layout
    d = scatter.shape[0]
    r = float(mu @ scatter @ mu)
    if not _carries_mass(r):
        raise ValueError(f"r = mu'S mu = {r:.3g}: the axis carries none or "
                         "all of the mass")
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


def watson_mle_kappa(x, branch: str) -> float:
    """Single-component ML concentration for one branch: the root of

        (1/d) 1F1(3/2; d/2+1; kappa) / 1F1(1/2; d/2; kappa) = r,

    r = mu'S mu.  The root lies inside the (L, U) bounds, which seed the
    bracket; solved to |ratio - r| <= 1e-10.
    """
    _, scatter, axes = _scatter_axes(x)
    return _mle_branch(scatter, axes[_check_branch(branch)])


def watson_mle_fit(x) -> WatsonEstimate:
    """Joint single-component MLE: both branch MLEs, pick the higher
    likelihood.  Never raises NotEligible (the likelihood always orders
    the branches)."""
    x, scatter, axes = _scatter_axes(x)
    fits = {}
    for branch, mu in axes.items():
        kappa = _mle_branch(scatter, mu)
        fits[branch] = kappa, _neg_log_likelihood(x, mu, kappa)
    return _pick_branch("ML", axes, fits, by_sign=False)
