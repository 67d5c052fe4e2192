"""Concentration estimators for the von Mises-Fisher family.

Four estimators of kappa, each paired with the directional sample mean
for mu: the moment-type estimator built from the spherical Stein identity
with f(x) = x (ST), the variant that solves for mu' = kappa mu first
(ST2), the maximum likelihood estimator (ML), and the score-matching
estimator (SM).  All four are invariant under rotations of the sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import special
from .linalg import solve_linear
from .models import sample_matrix


class DegenerateMean(Exception):
    """The resultant vector is (numerically) zero; no mean direction exists."""


@dataclass
class VmfEstimate:
    mu_hat: np.ndarray
    kappa_hat: float
    estimator: str
    diagnostics: dict = field(default_factory=dict)


def _resultant(x) -> tuple[np.ndarray, np.ndarray, float]:
    # the sample, its mean Xbar and the resultant length |Xbar|
    x = sample_matrix(x)
    xbar = x.mean(axis=0)
    norm = float(np.linalg.norm(xbar))
    if norm <= 1e-12:
        raise DegenerateMean("resultant length is zero")
    return x, xbar, norm


def mean_direction(x) -> np.ndarray:
    """The directional sample mean Xbar / |Xbar|."""
    _, xbar, norm = _resultant(x)
    return xbar / norm


def kappa_stein(x) -> VmfEstimate:
    """Moment-type estimator from the Stein identity with f(x) = x:

        kappa = (d-1) mu'(I - S) Xbar / (mu'(I - S)^2 mu),  S = mean(x x').

    Strictly positive on any non-degenerate sample.
    """
    x, xbar, r = _resultant(x)
    n, d = x.shape
    mu_hat = xbar / r
    resid_mat = np.eye(d) - x.T @ x / n
    denom = float(mu_hat @ resid_mat @ resid_mat @ mu_hat)
    if denom <= 1e-14:
        raise ValueError("degenerate sample: denominator of the estimator is zero")
    kappa = (d - 1.0) * float(mu_hat @ resid_mat @ xbar) / denom
    if not kappa > 0.0:
        # numerator equals |Xbar| mu'(I-S)mu >= 0, so this cannot trigger
        # on finite input; checked because positivity is part of the contract
        raise ValueError(f"positivity postcondition failed: kappa = {kappa}")
    return VmfEstimate(
        mu_hat=mu_hat,
        kappa_hat=kappa,
        estimator="ST",
        diagnostics={"resultant_length": r},
    )


def kappa_stein2(x) -> VmfEstimate:
    """The mu' = kappa mu variant: kappa = (d-1) |(I - S)^{-1} Xbar|."""
    x, xbar, r = _resultant(x)
    n, d = x.shape
    resid_mat = np.eye(d) - x.T @ x / n
    mu_prime, cond = solve_linear(resid_mat, xbar, name="I - mean(xx')")
    kappa = (d - 1.0) * float(np.linalg.norm(mu_prime))
    return VmfEstimate(
        mu_hat=xbar / r,
        kappa_hat=kappa,
        estimator="ST2",
        diagnostics={"resultant_length": r, "cond": cond},
    )


def _mle_from_resultant(d: int, r: float) -> tuple[float, int]:
    # bracketed Newton on the monotone link ratio(kappa) = r, with the
    # rational initial guess r(d - r^2)/(1 - r^2); the link's derivative is
    # the Fisher information 1 - ratio^2 - (d-1) ratio / kappa
    kappa = max(r * (d - r * r) / (1.0 - r * r), 1e-8)
    lo, hi = 1e-10, max(1e6, 4.0 * kappa)
    while special.bessel_ratio(d, hi) < r:
        hi *= 8.0
    for it in range(1, 201):
        ratio = special.bessel_ratio(d, kappa)
        err = ratio - r
        if abs(err) <= 1e-12:
            return kappa, it
        if err > 0:
            hi = min(hi, kappa)
        else:
            lo = max(lo, kappa)
        deriv = 1.0 - ratio * ratio - (d - 1.0) * ratio / kappa
        nxt = kappa - err / deriv if deriv > 0 else lo
        kappa = nxt if lo < nxt < hi else 0.5 * (lo + hi)
    if abs(special.bessel_ratio(d, kappa) - r) > 1e-10:
        raise RuntimeError("MLE root finder did not converge")
    return kappa, 200


def kappa_mle(x) -> VmfEstimate:
    """Maximum likelihood: solve I_{d/2}(k)/I_{d/2-1}(k) = |Xbar|."""
    x, xbar, r = _resultant(x)
    if r >= 1.0:
        raise ValueError("resultant length >= 1: all points identical")
    kappa, iterations = _mle_from_resultant(x.shape[1], r)
    return VmfEstimate(
        mu_hat=xbar / r,
        kappa_hat=kappa,
        estimator="ML",
        diagnostics={"resultant_length": r, "iterations": iterations},
    )


def kappa_score_matching(x) -> VmfEstimate:
    """Score matching: kappa = (d-1) Ybar / (1 - mean(Y^2)).

    Y_i is the first component of R X_i for any orthogonal R with
    R mu_hat = e1, which equals mu_hat'X_i exactly, so the rotation
    (the Householder reflector in linalg) never needs to be formed.
    """
    x, xbar, r = _resultant(x)
    d = x.shape[1]
    mu_hat = xbar / r
    y = x @ mu_hat
    ybar = float(y.mean())
    y2bar = float((y * y).mean())
    if y2bar >= 1.0 - 1e-15:
        raise ValueError("mean squared projection is 1: sample degenerate")
    kappa = (d - 1.0) * ybar / (1.0 - y2bar)
    return VmfEstimate(
        mu_hat=mu_hat,
        kappa_hat=kappa,
        estimator="SM",
        diagnostics={"resultant_length": r},
    )
