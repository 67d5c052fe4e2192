"""Watson-family estimation: eigenvector axis, the least-squares
moment-type concentration estimate with its +/- branch selection rule,
the midpoint-of-likelihood-bounds estimator (MLa), and a single-component
maximum likelihood baseline.

Branches: (+) takes the top eigenvector of the scatter matrix (bipolar
data, kappa > 0), (-) the bottom eigenvector (girdle data, kappa < 0).
A branch is eligible when the sign of its concentration estimate matches;
if neither branch is eligible the estimate does not exist: a single sample
raises NotEligible, a stack flags the sample in its fit's ``ne``, and the
simulation harness books it as the NE event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from . import special
from .est_fb import v_statistic
from .linalg import lower_index, sym_eigen
from .models import sample_stack, watson_log_normalizer


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
    """A fit of one sample, or of a (b, n, d) stack of b samples.

    For a stack, ``mu_hat`` is b x d, ``kappa_hat``, ``branch``,
    ``eligible_branches`` and each residual norm hold one entry per
    sample, and ``ne`` flags the samples where neither branch is eligible
    (NaN estimates, branch "").  A single such sample raises NotEligible.
    """

    mu_hat: np.ndarray
    kappa_hat: float | np.ndarray
    branch: str | np.ndarray  # "+" or "-"
    estimator: str
    eligible_branches: tuple[str, ...] | list[tuple[str, ...]]
    residual_norms: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    ne: np.ndarray | None = None


@dataclass
class WatsonSample:
    """A sample x, n x d, or a (b, n, d) stack of b samples, prepared once
    for the Watson fits: the scatter S = x'x/n (d x d, or b x d x d) and
    its (+) top and (-) bottom eigenvectors (column views, d or b x d),
    from one batched eigendecomposition.  The fits take a sample, a stack
    or a WatsonSample; a simulation block prepares its stack once, so that
    all its fits share one decomposition."""

    x: np.ndarray
    scatter: np.ndarray
    axes: dict[str, np.ndarray]


def _check_branch(branch: str) -> str:
    if branch not in ("+", "-"):
        raise ValueError("branch must be '+' or '-'")
    return branch


def prepare_sample(x) -> WatsonSample:
    """The WatsonSample of x; a WatsonSample is returned as it is."""
    if isinstance(x, WatsonSample):
        return x
    x, single = sample_stack(x)
    if single:
        x = x[0]
    scatter = np.matmul(x.swapaxes(-1, -2), x) / x.shape[-2]
    vectors = sym_eigen(scatter).eigenvectors
    return WatsonSample(x, scatter, {"+": vectors[..., 0], "-": vectors[..., -1]})


def watson_axis(x, branch: str) -> np.ndarray:
    """Top (+) or bottom (-) scatter-matrix eigenvector, sign-fixed.

    Near-isotropic samples have no meaningful axis; the output is still
    deterministic, just unstable under resampling.
    """
    return prepare_sample(x).axes[_check_branch(branch)].copy()


def watson_statistics(x) -> WatsonSteinStatistics:
    """V and both branch J vectors, sharing one eigendecomposition."""
    s = prepare_sample(x)
    return WatsonSteinStatistics(
        v_vec=v_statistic(s.scatter),
        j_plus=_j_statistic(s.x, s.axes["+"]),
        j_minus=_j_statistic(s.x, s.axes["-"]),
    )


def _j_statistic(x: np.ndarray, mu: np.ndarray) -> np.ndarray:
    # J[(i,j)] = 2 mean[(mu'x)(x_j mu_i + x_i mu_j) - 2 x_i x_j (mu'x)^2],
    # for one sample and axis or per slice of a stack of them
    n, d = x.shape[-2:]
    t = np.matmul(x, mu[..., None])[..., 0]
    p = (x * t[..., None]).mean(axis=-2)
    q2 = np.matmul((x * (t * t)[..., None]).swapaxes(-1, -2), x) / n
    i, j = (idx[:-1] for idx in lower_index(d))
    return 2.0 * (mu[..., i] * p[..., j] + mu[..., j] * p[..., i]
                  - 2.0 * q2[..., i, j])


def _stein_branch(x: np.ndarray, v_vec: np.ndarray,
                  mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # least-squares kappa = (J'J)^{-1} J'V on one axis per slice, and its
    # residual norm.  A dot product per contiguous row rounds as 1-D @ and
    # norm do; the fancy-indexed stacks of J and V are not contiguous
    j_vec = np.ascontiguousarray(_j_statistic(x, mu))
    v_vec = np.ascontiguousarray(v_vec)
    gram = np.vecdot(j_vec, j_vec)
    if np.any(gram <= 1e-14):
        raise ValueError("zero Gram: J vanishes, kappa not estimable")
    kappa = np.vecdot(j_vec, v_vec) / gram
    resid = j_vec * kappa[..., None] - v_vec
    return kappa, np.sqrt(np.vecdot(resid, resid))


def watson_stein_kappa(x, branch: str) -> float:
    """Least-squares solution kappa = (J'J)^{-1} J'V for one branch."""
    s = prepare_sample(x)
    return float(_stein_branch(s.x, v_statistic(s.scatter),
                               s.axes[_check_branch(branch)])[0])


def _pick_branch(estimator: str, axes: dict[str, np.ndarray], fits: dict[str, tuple],
                 by_sign: bool = True) -> WatsonEstimate:
    """Select a branch from its (kappa, score) pairs and wrap the estimate.

    axes[branch] is one axis (d) or one per slice of a stack (b x d), and
    fits[branch] holds (kappa, score) as scalars or per slice.  by_sign (ST, MLa) makes a branch
    eligible when its kappa has its sign (kappa^+ >= 0, kappa^- <= 0) and
    flags a near-uniform pick; ML has both eligible.  The smaller score
    (residual norm for ST, negative log-likelihood otherwise) wins; an
    exact tie goes to (+), a NaN loses.
    """
    single = axes["+"].ndim == 1
    kappa_p, kappa_m = (np.atleast_1d(fits[b][0]) for b in ("+", "-"))
    score_p, score_m = (np.atleast_1d(fits[b][1]) for b in ("+", "-"))
    if by_sign:
        ok_p, ok_m = kappa_p >= 0, kappa_m <= 0
    else:
        ok_p = ok_m = np.ones(kappa_p.shape, dtype=bool)
    ne = ~(ok_p | ok_m)
    if single and ne[0]:
        raise NotEligible(
            f"kappa^- = {kappa_m[0]:.4g} > 0 and kappa^+ = {kappa_p[0]:.4g} < 0"
        )
    minus_wins = (np.isnan(score_p) & ~np.isnan(score_m)) | (score_m < score_p)
    minus = ok_m & (~ok_p | minus_wins)
    kappa = np.where(ne, np.nan, np.where(minus, kappa_m, kappa_p))
    mu_hat = np.where(ne[:, None], np.nan, np.where(
        minus[:, None], np.atleast_2d(axes["-"]), np.atleast_2d(axes["+"])))
    eligible = [tuple(b for b, ok in (("+", p), ("-", m)) if ok)
                for p, m in zip(ok_p, ok_m)]
    if not single:
        return WatsonEstimate(
            mu_hat=mu_hat, kappa_hat=kappa,
            branch=np.where(ne, "", np.where(minus, "-", "+")),
            estimator=estimator, eligible_branches=eligible,
            residual_norms={"+": score_p, "-": score_m}, ne=ne)
    warnings = []
    if by_sign and len(eligible[0]) == 2 and abs(kappa[0]) < 1e-6:
        warnings.append("near-uniform: |kappa| < 1e-6, axis weakly identified")
    return WatsonEstimate(
        mu_hat=mu_hat[0],
        kappa_hat=float(kappa[0]),
        branch="-" if minus[0] else "+",
        estimator=estimator,
        eligible_branches=eligible[0],
        residual_norms={"+": float(score_p[0]), "-": float(score_m[0])},
        warnings=warnings,
    )


def watson_stein_fit(x) -> WatsonEstimate:
    """Both branches of the moment-type estimator plus the selection rule."""
    s = prepare_sample(x)
    v_vec = v_statistic(s.scatter)
    fits = {b: _stein_branch(s.x, v_vec, mu) for b, mu in s.axes.items()}
    return _pick_branch("ST", s.axes, fits)


def watson_mla_bounds(r, a: float = 0.5, c: float = 1.5) -> tuple:
    """Sharp bounds (L, U) bracketing the ML concentration at resultant r.

    L(r,a,c) = (rc-a)/(r(1-r)) (1 + (1-r)/(c-a)) and
    U(r,a,c) = (rc-a)/(r(1-r)) (1 + r/a); returned ordered so L <= U
    (the raw expressions swap order in the girdle regime).  An array of
    r gives arrays of bounds.
    """
    r_arr = np.asarray(r, dtype=float)
    if not np.all((0.0 < r_arr) & (r_arr < 1.0)):
        raise ValueError("r must lie strictly between 0 and 1")
    prefactor = (r_arr * c - a) / (r_arr * (1.0 - r_arr))
    lower = prefactor * (1.0 + (1.0 - r_arr) / (c - a))
    upper = prefactor * (1.0 + r_arr / a)
    lower, upper = np.minimum(lower, upper), np.maximum(lower, upper)
    return (float(lower), float(upper)) if r_arr.ndim == 0 else (lower, upper)


def _neg_log_likelihood(x: np.ndarray, mu: np.ndarray, kappa) -> np.ndarray:
    # per slice of a stack (or for one sample); inf where kappa is infinite
    n, d = x.shape[-2:]
    t = np.matmul(x, mu[..., None])[..., 0]
    finite = np.isfinite(kappa)
    kappa = np.where(finite, kappa, 0.0)
    log_norm = np.reshape([watson_log_normalizer(d, k) for k in np.ravel(kappa)],
                          np.shape(kappa))
    nll = -(n * log_norm + kappa * (t * t).sum(axis=-1))
    return np.where(finite, nll, math.inf)


def _carries_mass(r):
    # some but not all of the mass on the axis; else |kappa| ~ 1/r or 1/(1-r)
    return (1e-14 < r) & (r < 1.0 - 1e-14)


def _mla_branch(s: WatsonSample, branch: str) -> tuple[np.ndarray, np.ndarray]:
    # midpoint of the ML bounds at r = mu'S mu (mu a column view) per
    # slice, and its NLL; a wrong-signed infinite kappa makes a branch
    # without mass on its axis ineligible
    mu = s.axes[branch]
    r = np.matmul(np.matmul(mu[..., None, :], s.scatter), mu[..., None])[..., 0, 0]
    mass = _carries_mass(r)
    kappa = np.full(r.shape, math.inf if branch == "-" else -math.inf)
    if np.any(mass):
        kappa[mass] = 0.5 * np.add(*watson_mla_bounds(r[mass], 0.5, 0.5 * s.x.shape[-1]))
    return kappa, _neg_log_likelihood(s.x, mu, kappa)


def watson_mla_fit(x) -> WatsonEstimate:
    """Midpoint of the ML bounds at r = mu'S mu, per branch, with the same
    eligibility rule as the moment-type fit and likelihood tie-breaking."""
    s = prepare_sample(x)
    return _pick_branch("MLa", s.axes, {b: _mla_branch(s, b) for b in s.axes})


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
    s = prepare_sample(x)
    return _mle_branch(s.scatter, s.axes[_check_branch(branch)])


def watson_mle_fit(x) -> WatsonEstimate:
    """Joint single-component MLE: both branch MLEs, pick the higher
    likelihood.  Never raises NotEligible (the likelihood always orders
    the branches).  The root is found one slice at a time."""
    s = prepare_sample(x)
    d = s.scatter.shape[-1]
    fits = {}
    for branch, mu in s.axes.items():
        kappa = np.reshape([_mle_branch(sc, m) for sc, m in
                            zip(s.scatter.reshape(-1, d, d), mu.reshape(-1, d))],
                           mu.shape[:-1])
        fits[branch] = kappa, _neg_log_likelihood(s.x, mu, kappa)
    return _pick_branch("ML", s.axes, fits, by_sign=False)
