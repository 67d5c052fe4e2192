"""Concentration estimators for the von Mises-Fisher family.

Four estimators of kappa, each paired with the directional sample mean
for mu: the moment-type estimator built from the spherical Stein identity
with f(x) = x (ST), the variant that solves for mu' = kappa mu first
(ST2), the maximum likelihood estimator (ML), and the score-matching
estimator (SM).  All four are invariant under rotations of the sample.

Each estimator takes one n x d sample or a (b, n, d) stack of b samples,
which a simulation study fits in one call; slice k of a stack gets the
same bits as the sample on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import special
from .linalg import SingularSystem, solve_stack
from .models import sample_stack


class DegenerateMean(Exception):
    """The resultant vector is (numerically) zero; no mean direction exists."""


@dataclass
class VmfEstimate:
    """A fit of one sample, or of a (b, n, d) stack of b samples.

    For a stack, ``mu_hat`` is b x d, ``kappa_hat`` and each diagnostic
    hold one entry per sample, and ``ne`` flags the samples without an
    estimate (ST2 with a singular I - S), whose entries are NaN.  A
    single sample without an estimate raises instead.
    """

    mu_hat: np.ndarray
    kappa_hat: float | np.ndarray
    estimator: str
    diagnostics: dict = field(default_factory=dict)
    ne: np.ndarray | None = None


def _resultant(x) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool]:
    # the sample as a (b, n, d) stack, the means Xbar, their lengths |Xbar|,
    # the mean directions Xbar / |Xbar| and whether x was one n x d sample
    x, single = sample_stack(x)
    xbar = x.mean(axis=1)
    # a dot product per slice, as np.linalg.norm takes for one vector
    norm = np.sqrt(_dot(xbar, xbar))
    if np.any(norm <= 1e-12):
        raise DegenerateMean("resultant length is zero")
    return x, xbar, norm, xbar / norm[:, None], single


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # row-wise u[k] @ v[k] of two b x d stacks
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def _resid_mat(x: np.ndarray) -> np.ndarray:
    # I - mean(xx') per slice; X'X is one syrk per slice
    return np.eye(x.shape[2]) - np.matmul(x.transpose(0, 2, 1), x) / x.shape[1]


def _estimate(single: bool, mu_hat, kappa, name: str, ne=None,
              **diagnostics) -> VmfEstimate:
    if single:
        return VmfEstimate(mu_hat[0], float(kappa[0]), name,
                           {k: v[0].item() for k, v in diagnostics.items()})
    if ne is None:
        ne = np.zeros(kappa.shape, dtype=bool)
    return VmfEstimate(mu_hat, kappa, name, diagnostics, ne)


def mean_direction(x) -> np.ndarray:
    """The directional sample mean Xbar / |Xbar| (one row per slice of a stack)."""
    mu_hat, single = _resultant(x)[3:]
    return mu_hat[0] if single else mu_hat


def kappa_stein(x) -> VmfEstimate:
    """Moment-type estimator from the Stein identity with f(x) = x:

        kappa = (d-1) mu'(I - S) Xbar / (mu'(I - S)^2 mu),  S = mean(x x').

    Strictly positive on any non-degenerate sample.
    """
    x, xbar, r, mu_hat, single = _resultant(x)
    d = x.shape[2]
    resid_mat = _resid_mat(x)
    mu_resid = np.matmul(mu_hat[:, None, :], resid_mat)
    denom = _dot(np.matmul(mu_resid, resid_mat)[:, 0], mu_hat)
    if np.any(denom <= 1e-14):
        raise ValueError("degenerate sample: denominator of the estimator is zero")
    kappa = (d - 1.0) * _dot(mu_resid[:, 0], xbar) / denom
    if not np.all(kappa > 0.0):
        # numerator equals |Xbar| mu'(I-S)mu >= 0, so this cannot trigger
        # on finite input; checked because positivity is part of the contract
        raise ValueError(f"positivity postcondition failed: kappa = {kappa}")
    return _estimate(single, mu_hat, kappa, "ST", resultant_length=r)


def kappa_stein2(x) -> VmfEstimate:
    """The mu' = kappa mu variant: kappa = (d-1) |(I - S)^{-1} Xbar|."""
    x, xbar, r, mu_hat, single = _resultant(x)
    d = x.shape[2]
    mu_prime, cond, singular = solve_stack(_resid_mat(x), xbar)
    if single and singular[0]:
        raise SingularSystem("I - mean(xx')", float(cond[0]))
    kappa = (d - 1.0) * np.sqrt(_dot(mu_prime, mu_prime))
    return _estimate(single, mu_hat, kappa, "ST2", ne=singular,
                     resultant_length=r, cond=cond)


def _mle_from_resultant(d: int, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # bracketed Newton on the monotone link ratio(kappa) = r, with the
    # rational initial guess r(d - r^2)/(1 - r^2), run on every entry of r
    # at once; an entry leaves the iteration when it converges.  The link's
    # derivative is the Fisher information 1 - ratio^2 - (d-1) ratio / kappa
    kappa = np.maximum(r * (d - r * r) / (1.0 - r * r), 1e-8)
    lo, hi = np.full_like(r, 1e-10), np.maximum(1e6, 4.0 * kappa)
    grow = special.bessel_ratio(d, hi) < r
    while grow.any():
        hi[grow] *= 8.0
        grow[grow] = special.bessel_ratio(d, hi[grow]) < r[grow]
    iterations = np.full(r.shape, 200)
    todo = np.arange(r.size)
    for it in range(1, 201):
        k = kappa[todo]
        ratio = special.bessel_ratio(d, k)
        err = ratio - r[todo]
        done = np.abs(err) <= 1e-12
        iterations[todo[done]] = it
        keep = ~done
        todo, k, ratio, err = todo[keep], k[keep], ratio[keep], err[keep]
        if not todo.size:
            break
        lo_t, hi_t = lo[todo], hi[todo]
        above = err > 0
        hi_t = np.where(above, np.minimum(hi_t, k), hi_t)
        lo_t = np.where(above, lo_t, np.maximum(lo_t, k))
        deriv = 1.0 - ratio * ratio - (d - 1.0) * ratio / k
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = np.where(deriv > 0, k - err / deriv, lo_t)
        inside = (lo_t < nxt) & (nxt < hi_t)
        kappa[todo] = np.where(inside, nxt, 0.5 * (lo_t + hi_t))
        lo[todo], hi[todo] = lo_t, hi_t
    if todo.size and not np.all(
        np.abs(special.bessel_ratio(d, kappa[todo]) - r[todo]) <= 1e-10
    ):  # written so that a NaN ratio fails it
        raise RuntimeError("MLE root finder did not converge")
    return kappa, iterations


def kappa_mle(x) -> VmfEstimate:
    """Maximum likelihood: solve I_{d/2}(k)/I_{d/2-1}(k) = |Xbar|."""
    x, _, r, mu_hat, single = _resultant(x)
    if np.any(r >= 1.0):
        raise ValueError("resultant length >= 1: all points identical")
    kappa, iterations = _mle_from_resultant(x.shape[2], r)
    return _estimate(single, mu_hat, kappa, "ML",
                     resultant_length=r, iterations=iterations)


def kappa_score_matching(x) -> VmfEstimate:
    """Score matching: kappa = (d-1) Ybar / (1 - mean(Y^2)).

    Y_i is the first component of R X_i for any orthogonal R with
    R mu_hat = e1, which equals mu_hat'X_i exactly, so the rotation
    (the Householder reflector in linalg) never needs to be formed.
    """
    x, _, r, mu_hat, single = _resultant(x)
    d = x.shape[2]
    y = np.matmul(x, mu_hat[:, :, None])[..., 0]
    ybar = y.mean(axis=1)
    y2bar = (y * y).mean(axis=1)
    if np.any(y2bar >= 1.0 - 1e-15):
        raise ValueError("mean squared projection is 1: sample degenerate")
    kappa = (d - 1.0) * ybar / (1.0 - y2bar)
    return _estimate(single, mu_hat, kappa, "SM", resultant_length=r)
