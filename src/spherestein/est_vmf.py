"""Concentration estimators for the von Mises-Fisher family.

Four estimators of kappa, each paired with the directional sample mean
Xbar / |Xbar| for mu (every fit's ``mu_hat``):
the moment-type estimator built from the spherical Stein identity with
f(x) = x (ST), the variant that solves for mu' = kappa mu first (ST2),
the maximum likelihood estimator (ML), and the score-matching estimator
(SM).  All four are invariant under rotations of the sample.

Each estimator takes a (b, n, d) stack of b samples or its
``models.Sample``, which forms the means Xbar and scatters S on first
read, so the fits of a simulation block share them (ML and SM read only
Xbar); each fit forms |Xbar| and Xbar / |Xbar| itself (O(b d)), and
raises DegenerateMean, a ValueError, on a zero resultant.  Slice k of a
stack gets the same bits as that sample fitted as a stack of one
(``families.fit_one`` fits one sample).

The Fisher information for kappa and the closed-form asymptotic variance
of the ST estimator live here too; both depend on kappa only through the
Bessel ratio R1 = I_{d/2} / I_{d/2-1} (``special.bessel_ratio``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import special
from .linalg import solve_stack
from .models import Sample, sample_stack


class DegenerateMean(ValueError):
    """The resultant vector is (numerically) zero; no mean direction exists."""


@dataclass
class VmfEstimate:
    """A fit of a (b, n, d) stack of b samples.

    ``mu_hat`` is b x d, ``kappa_hat`` and each diagnostic hold one entry
    per sample, and ``ne`` flags the samples without an estimate (ST2 with
    a singular I - S), whose entries are NaN.
    """

    mu_hat: np.ndarray
    kappa_hat: np.ndarray
    diagnostics: dict
    ne: np.ndarray


def _resultant(x) -> tuple[Sample, np.ndarray, np.ndarray]:
    # the Sample of a stack, its |Xbar| (a dot product per slice, as
    # np.linalg.norm takes for one vector) and mean directions Xbar / |Xbar|;
    # DegenerateMean where a resultant is zero
    s = sample_stack(x)
    norm = np.sqrt(np.vecdot(s.xbar, s.xbar))
    if np.any(norm <= 1e-12):
        raise DegenerateMean("resultant length is zero")
    return s, norm, s.xbar / norm[:, None]


def _estimate(mu_hat, norm, kappa, ne=None, **diagnostics) -> VmfEstimate:
    # a fit: the mean directions, and |Xbar| as the first diagnostic
    if ne is None:
        ne = np.zeros(kappa.shape, dtype=bool)
    return VmfEstimate(mu_hat, kappa, {"resultant_length": norm, **diagnostics}, ne)


def kappa_stein(x) -> VmfEstimate:
    """Moment-type estimator from the Stein identity with f(x) = x:

        kappa = (d-1) mu'(I - S) Xbar / (mu'(I - S)^2 mu),  S = mean(x x').

    Strictly positive on any non-degenerate sample.
    """
    s, norm, mu_hat = _resultant(x)
    resid_mat = np.eye(s.x.shape[2]) - s.scatter
    mu_resid = np.matmul(mu_hat[:, None, :], resid_mat)
    # 1 - mu'S mu, as SM tests it: the denominator is of order its square
    if np.any(np.vecdot(mu_resid[:, 0], mu_hat) <= 1e-15):
        raise ValueError("degenerate sample: mu'S mu is 1")
    denom = np.vecdot(np.matmul(mu_resid, resid_mat)[:, 0], mu_hat)
    kappa = (s.x.shape[2] - 1.0) * np.vecdot(mu_resid[:, 0], s.xbar) / denom
    if not np.all(kappa > 0.0):
        # numerator equals |Xbar| mu'(I-S)mu >= 0, so this cannot trigger
        # on finite input; checked because positivity is part of the contract
        raise ValueError(f"positivity postcondition failed: kappa = {kappa}")
    return _estimate(mu_hat, norm, kappa)


def kappa_stein2(x) -> VmfEstimate:
    """The mu' = kappa mu variant: kappa = (d-1) |(I - S)^{-1} Xbar|."""
    s, norm, mu_hat = _resultant(x)
    mu_prime, cond, singular = solve_stack(np.eye(s.x.shape[2]) - s.scatter, s.xbar)
    kappa = (s.x.shape[2] - 1.0) * np.sqrt(np.vecdot(mu_prime, mu_prime))
    return _estimate(mu_hat, norm, kappa, ne=singular, cond=cond)


def _mle_from_resultant(d: int, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Newton on the monotone link ratio(kappa) = r from the rational guess
    # r(d - r^2)/(1 - r^2), every entry of r at once, to within 1e-12 (below
    # r = 0.01 to 1e-15 r, full precision) in the bracket
    # [min(r, 1e-10), max(1e6, 4 kappa0)]: ratio(k) < k/d puts the root
    # above d r, so the lower end holds for every r > 0.  The link's
    # derivative is the Fisher information 1 - ratio^2 - (d-1) ratio / kappa
    kappa = np.maximum(r * (d - r * r) / (1.0 - r * r), 1e-8)

    def link(k):
        ratio = special.bessel_ratio(d, k)
        return ratio, 1.0 - ratio * ratio - (d - 1.0) * ratio / k

    return special.newton_root(link, r, kappa, np.minimum(r, 1e-10),
                               np.maximum(1e6, 4.0 * kappa),
                               np.where(r < 0.01, 1e-15 * r, 1e-12))


def kappa_mle(x) -> VmfEstimate:
    """Maximum likelihood: solve I_{d/2}(k)/I_{d/2-1}(k) = |Xbar|."""
    s, norm, mu_hat = _resultant(x)
    if np.any(norm >= 1.0 - 1e-15):
        raise ValueError("resultant length rounds to 1: all points identical")
    kappa, iterations = _mle_from_resultant(s.x.shape[2], norm)
    return _estimate(mu_hat, norm, kappa, iterations=iterations)


def kappa_score_matching(x) -> VmfEstimate:
    """Score matching: kappa = (d-1) Ybar / (1 - mean(Y^2)).

    Y_i is the first component of R X_i for any orthogonal R with
    R mu_hat = e1, which equals mu_hat'X_i exactly, so the rotation
    (the Householder reflector in linalg) never needs to be formed.
    """
    s, norm, mu_hat = _resultant(x)
    y = np.matmul(s.x, mu_hat[:, :, None])[..., 0]
    ybar = y.mean(axis=1)
    y2bar = (y * y).mean(axis=1)
    if np.any(y2bar >= 1.0 - 1e-15):
        raise ValueError("mean squared projection is 1: sample degenerate")
    kappa = (s.x.shape[2] - 1.0) * ybar / (1.0 - y2bar)
    return _estimate(mu_hat, norm, kappa)


def _ratios(d: int, kappa: float) -> tuple[float, float]:
    # R1 and rho = R1 / kappa, the one domain rule of both asymptotics:
    # bessel_ratio refuses d < 2 and kappa <= 0, this a kappa that is not
    # finite (not bessel_ratio, which newton_root may call at an infinite
    # bracket end), and a subnormal R1 (kappa near 0) has too few bits for
    # either
    if not np.isfinite(kappa):
        raise ValueError("kappa must be finite")
    r1 = special.bessel_ratio(d, kappa)
    if not r1 >= np.finfo(float).tiny:
        raise ValueError(f"R1 = {r1!r} is not a normal float")
    return r1, r1 / kappa


def fisher_information_vmf(d: int, kappa: float) -> float:
    """Fisher information for kappa: 1 - R1^2 - (d-1) R1 / kappa.

    The difference is about (d-1) / (2 kappa^2) and loses its digits to
    cancellation as kappa grows, so beyond kappa = 30 + d it is the
    derivative R1' of the large-kappa expansion instead.  ValueError where
    kappa is not finite, R1 is not a normal float, that expansion does not
    settle or I is not a normal float (R1' ~ (d-1) / (2 kappa^2) underflows
    from about kappa = 4.8e153 sqrt(d - 1)).
    """
    r1, rho = _ratios(d, kappa)
    if kappa < 30.0 + d:
        return 1.0 - r1 * r1 - (d - 1.0) * rho
    slope = special.large_kappa_expansion(d, kappa, order=1)
    if np.isnan(slope):
        raise ValueError("the large-kappa expansion of R1' did not settle")
    if not slope >= np.finfo(float).tiny:
        raise ValueError(f"I = {slope!r} is not a normal float")
    return slope


def stein_asymptotic_variance_vmf(d: int, kappa: float) -> float:
    """Closed-form asymptotic variance of the moment-type kappa estimator.

    P = kappa I_{d/2-1} (2 kappa I_{d/2-1} - (d+1) I_{d/2})
        / ((d-1) I_{d/2}^2).

    ValueError where kappa is not finite, R1 is not a normal float or P
    overflows (kappa beyond about 1e154).
    """
    _, rho = _ratios(d, kappa)
    # the display divided through by (kappa I_{d/2-1})^2, in rho = R1 / kappa
    p = (2.0 - (d + 1.0) * rho) / ((d - 1.0) * rho) / rho
    if p < np.inf:
        return p
    raise ValueError("P overflows")
