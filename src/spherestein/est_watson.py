"""Watson-family estimation: eigenvector axis, the least-squares
moment-type concentration estimate, the midpoint-of-likelihood-bounds
estimator (MLa) and a one-component maximum likelihood baseline, solved
for every slice at once by the Newton root finder it shares with vMF ML.
MLa and ML see a sample only through the mass r = mu'S mu on each axis;
they raise OverflowError where 1F1 is out of range (special).  ML's
likelihood takes its normaliser from ``watson_log_normalizer``.

Branches: (+) takes the top eigenvector of the scatter matrix (bipolar
data, kappa > 0), (-) the bottom eigenvector (girdle data, kappa < 0).
All three fits call a branch eligible when the sign of its concentration
estimate matches; a NaN estimate, where the branch says nothing about
kappa (ST: J vanishes; MLa: its axis, ML: either axis has none or all of
the mass), never is.  If neither branch is eligible the estimate does not
exist: the fit flags the sample in its ``ne``, the harness books it as
NE, and ``fit_one`` raises NotEligible.

Every fit takes a (b, n, d) stack of b samples or its ``models.Sample``,
and reads its axes from the Sample's ``axes`` (the scatters' top and
bottom eigenvectors), which all the fits of a simulation block share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import special
from .linalg import lower_index, v_statistic
from .models import Sample, sample_stack


class NotEligible(Exception):
    """Neither eigenvector branch yields a sign-consistent estimate."""


@dataclass
class WatsonEstimate:
    """A fit of a (b, n, d) stack of b samples.

    ``mu_hat`` is b x d; every other array, and each per-branch ("+", "-")
    array of ``kappas``, ``residual_norms`` (the scores that order the
    branches) and ``eligible``, holds one entry per sample.  ``ne`` flags
    the samples where neither branch is eligible (NaN estimates, branch
    ""), ``near_uniform`` a pick with both branches eligible and
    |kappa| < 1e-6, whose axis is weakly identified.
    """

    mu_hat: np.ndarray
    kappa_hat: np.ndarray
    branch: np.ndarray  # "+" or "-"
    kappas: dict[str, np.ndarray]
    residual_norms: dict[str, np.ndarray]
    eligible: dict[str, np.ndarray]
    near_uniform: np.ndarray
    ne: np.ndarray
    no_estimate: str  # why this fit gives a branch a NaN kappa


def _j_statistic(x: np.ndarray, mu: np.ndarray) -> np.ndarray:
    # J[(i,j)] = 2 mean[(mu'x)(x_j mu_i + x_i mu_j) - 2 x_i x_j (mu'x)^2],
    # for one sample and axis or per slice of a stack of them
    n, d = x.shape[-2:]
    t = np.matmul(x, mu[..., None])[..., 0]
    p = (x * t[..., None]).mean(axis=-2)
    q2 = np.matmul((x * (t * t)[..., None]).swapaxes(-1, -2), x) / n
    i, j = lower_index(d)
    return 2.0 * (mu[..., i] * p[..., j] + mu[..., j] * p[..., i]
                  - 2.0 * q2[..., i, j])


def _stein_branch(x: np.ndarray, v_vec: np.ndarray,
                  mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # least-squares kappa = (J'J)^{-1} J'V on one axis per slice (NaN where
    # J vanishes), and its residual norm.  A dot product per contiguous row
    # rounds as 1-D @ and norm do; the fancy-indexed stacks are not contiguous
    j_vec = np.ascontiguousarray(_j_statistic(x, mu))
    v_vec = np.ascontiguousarray(v_vec)
    gram = np.vecdot(j_vec, j_vec)
    kappa = np.vecdot(j_vec, v_vec) / np.where(gram > 1e-14, gram, np.nan)
    resid = j_vec * kappa[..., None] - v_vec
    return kappa, np.sqrt(np.vecdot(resid, resid))


def _pick_branch(axes: dict[str, np.ndarray], fits: dict[str, tuple],
                 no_estimate: str) -> WatsonEstimate:
    """Select a branch from its (kappa, score) pairs and wrap the estimate.

    axes[branch] holds one axis per slice of a stack (b x d), and
    fits[branch] holds (kappa, score) per slice.  A branch is eligible
    when its kappa has its sign (kappa^+ >= 0, kappa^- <= 0; never NaN),
    so its score (ST's residual norm, MLa's and ML's NLL) is finite.  The
    smaller score wins, an exact tie goes to (+), and a pick with both
    branches eligible and |kappa| < 1e-6 is flagged near-uniform.
    """
    (kappa_p, score_p), (kappa_m, score_m) = fits["+"], fits["-"]
    ok_p, ok_m = kappa_p >= 0, kappa_m <= 0
    ne = ~(ok_p | ok_m)
    minus = ok_m & (~ok_p | (score_m < score_p))
    kappa = np.where(ne, np.nan, np.where(minus, kappa_m, kappa_p))
    return WatsonEstimate(
        mu_hat=np.where(ne[:, None], np.nan,
                        np.where(minus[:, None], axes["-"], axes["+"])),
        kappa_hat=kappa, branch=np.where(ne, "", np.where(minus, "-", "+")),
        kappas={"+": kappa_p, "-": kappa_m},
        residual_norms={"+": score_p, "-": score_m},
        eligible={"+": ok_p, "-": ok_m},
        near_uniform=ok_p & ok_m & (np.abs(kappa) < 1e-6), ne=ne,
        no_estimate=no_estimate)


def watson_stein_fit(x) -> WatsonEstimate:
    """Both branches of the moment-type estimator plus the selection rule."""
    s = sample_stack(x)
    v_vec = v_statistic(s.scatter)
    fits = {b: _stein_branch(s.x, v_vec, mu) for b, mu in s.axes.items()}
    return _pick_branch(s.axes, fits, "J vanishes on the axis")


def watson_mla_bounds(r, d: int) -> tuple:
    """Sharp bounds (L, U) bracketing the ML concentration at resultant r
    on the sphere in R^d (Sra & Karp 2013, J. Multivariate Anal. 114).

    With Watson's a = 1/2 and c = d/2 of their Kummer ratio,
    L = (rc-a)/(r(1-r)) (1 + (1-r)/(c-a)) and
    U = (rc-a)/(r(1-r)) (1 + r/a); returned ordered so L <= U
    (the raw expressions swap order in the girdle regime).  An array of
    r gives arrays of bounds.
    """
    a, c = 0.5, 0.5 * d
    r_arr = np.asarray(r, dtype=float)
    if not np.all((0.0 < r_arr) & (r_arr < 1.0)):
        raise ValueError("r must lie strictly between 0 and 1")
    prefactor = (r_arr * c - a) / (r_arr * (1.0 - r_arr))
    lower = prefactor * (1.0 + (1.0 - r_arr) / (c - a))
    upper = prefactor * (1.0 + r_arr / a)
    return np.minimum(lower, upper), np.maximum(lower, upper)


def watson_log_normalizer(d: int, kappa):
    """log of Gamma(d/2) / (2 pi^{d/2} 1F1(1/2; d/2; kappa)), elementwise."""
    return (
        math.lgamma(0.5 * d)
        - math.log(2.0)
        - 0.5 * d * math.log(math.pi)
        - special.log_kummer_1f1(0.5, 0.5 * d, kappa)
    )


def _neg_log_likelihood(n: int, d: int, r: np.ndarray, kappa) -> np.ndarray:
    # -n (log c_d(kappa) + kappa r) per slice; inf where kappa is not finite
    finite = np.isfinite(kappa)
    kappa = np.where(finite, kappa, 0.0)
    nll = -n * (watson_log_normalizer(d, kappa) + kappa * r)
    return np.where(finite, nll, math.inf)


def _axis_mass(s: Sample, branch: str):
    # the share r = mu'S mu of the mass on a branch's axis per slice, and
    # whether it is some but not all of it (else |kappa| ~ 1/r or 1/(1-r))
    mu = s.axes[branch]
    r = np.matmul(np.matmul(mu[..., None, :], s.scatter), mu[..., None])[..., 0, 0]
    return r, (1e-14 < r) & (r < 1.0 - 1e-14)


def watson_mla_fit(x) -> WatsonEstimate:
    """Midpoint of the ML bounds at r = mu'S mu, per branch, with the same
    eligibility rule as the moment-type fit and likelihood tie-breaking."""
    s = sample_stack(x)
    n, d = s.x.shape[1:]
    fits = {}
    for b in s.axes:
        r, mass = _axis_mass(s, b)
        kappa = np.full(r.shape, np.nan)
        kappa[mass] = 0.5 * np.add(*watson_mla_bounds(r[mass], d))
        fits[b] = kappa, _neg_log_likelihood(n, d, r, kappa)
    return _pick_branch(s.axes, fits, "the axis carries none or all of the mass")


def _mle_branch(n: int, d: int, r, ok) -> tuple[np.ndarray, np.ndarray]:
    # the ML concentration at r per slice, and its NLL: on the slices ok,
    # the root of E[t] = r, with E[t] = (1/d) 1F1(3/2; d/2+1; kappa) /
    # 1F1(1/2; d/2; kappa) and derivative Var[t], from the midpoint of the
    # MLa bounds (exactly 0 at r = 1/d), to |E[t] - r| <= 1e-14
    # min(r, 1 - r); NaN (NLL inf) on the others
    b = 0.5 * d
    kappa, r_ok = np.full(r.shape, np.nan), r[ok]

    def link(kappa):
        mean = special.kummer_moment(1, 0.5, b, kappa)
        return mean, special.kummer_moment(2, 0.5, b, kappa) - mean * mean

    lo, hi = watson_mla_bounds(r_ok, d)  # newton_root widens them past rounding
    kappa[ok] = special.newton_root(link, r_ok, 0.5 * (lo + hi), lo, hi,
                                    1e-14 * np.minimum(r_ok, 1.0 - r_ok))[0]
    return kappa, _neg_log_likelihood(n, d, r, kappa)


def watson_mle_fit(x) -> WatsonEstimate:
    """Joint one-component MLE: both branch MLEs, with the eligibility
    rule and likelihood tie-breaking of MLa.  A slice where either axis
    has none or all of the mass has no MLE (the likelihood grows without
    bound as kappa runs to -inf or +inf) and is flagged NE."""
    s = sample_stack(x)
    mass = {b: _axis_mass(s, b) for b in s.axes}
    ok = mass["+"][1] & mass["-"][1]
    fits = {b: _mle_branch(*s.x.shape[1:], r, ok) for b, (r, _) in mass.items()}
    return _pick_branch(s.axes, fits, "an axis carries none or all of the mass, "
                                      "so the likelihood is unbounded")
