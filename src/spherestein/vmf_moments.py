"""Closed-form von Mises-Fisher moments, Fisher information, and the
asymptotic variance of the moment-type concentration estimator.

All formulas depend on the Bessel ratios R_k = I_{d/2-1+k} / I_{d/2-1}
for k = 1..4.  The moment blocks are assembled at mu = e1 and conjugated
by a rotation for general directions; the variance can be evaluated either
in closed form or through the delta-method pipeline, and the two must
agree to high accuracy (this is verified in the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .linalg import commutation_matrix, kron, rotation_to_e1, vec
from .models import VmfParams


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


def _bessel_ratio_ladder(d: int, kappa: float, k_max: int = 4) -> list[float]:
    """R_k = I_{d/2-1+k}(kappa) / I_{d/2-1}(kappa) for k = 1..k_max."""
    nu = 0.5 * d - 1.0
    base = float(_sp.ive(nu, kappa))
    if base <= 0:
        raise ValueError("Bessel evaluation underflowed; kappa too small here")
    return [float(_sp.ive(nu + k, kappa)) / base for k in range(1, k_max + 1)]


def vmf_moments(params: VmfParams) -> VmfMomentSet:
    """All moment blocks of the Appendix formulas, exact in the Bessel ratios."""
    d, kappa = params.d, params.kappa
    r1, r2, r3, r4 = _bessel_ratio_ladder(d, kappa)

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


def fisher_information_vmf(d: int, kappa: float) -> float:
    """Fisher information for kappa: 1 - R1^2 - (d-1) R1 / kappa.

    The difference is about (d-1) / (2 kappa^2) and loses its digits to
    cancellation as kappa grows, so beyond kappa = 30 + 6d it is summed
    from the large-kappa expansion instead.  With R1 ~ sum_m c_m kappa^-m
    and c_0 = 1, the Riccati equation R1' = 1 - R1^2 - (d-1) R1 / kappa
    gives 2 c_m = (m - d) c_{m-1} - sum_{i=1}^{m-1} c_i c_{m-i}, and the
    information is R1' = -sum_{m>=1} m c_m kappa^-(m+1).
    """
    if kappa <= 0:
        raise ValueError("kappa must be > 0")
    if kappa < 30.0 + 6.0 * d:
        r1 = _bessel_ratio_ladder(d, kappa, k_max=1)[0]
        return 1.0 - r1 * r1 - (d - 1.0) * r1 / kappa
    coef = [1.0]
    power = 1.0 / kappa
    total = 0.0
    small = 0
    for m in range(1, 200):
        coef.append(0.5 * ((m - d) * coef[-1]
                           - sum(coef[i] * coef[m - i] for i in range(1, m))))
        power /= kappa  # kappa^-(m+1), underflowing to 0 rather than raising
        term = -m * coef[m] * power
        total += term
        # some c_m vanish, so one negligible term does not end the sum
        small = small + 1 if abs(term) <= 1e-17 * abs(total) else 0
        if small == 2:
            break
    return total


def stein_asymptotic_variance_vmf(d: int, kappa: float) -> float:
    """Closed-form asymptotic variance of the moment-type kappa estimator.

    P = kappa I_{d/2-1} (2 kappa I_{d/2-1} - (d+1) I_{d/2})
        / ((d-1) I_{d/2}^2).
    """
    if kappa <= 0:
        raise ValueError("kappa must be > 0")
    if d < 2:
        raise ValueError("d must be >= 2")
    r1 = _bessel_ratio_ladder(d, kappa, k_max=1)[0]
    # divide the display through by I_{d/2-1}^2 to work in ratios
    return kappa * (2.0 * kappa - (d + 1.0) * r1) / ((d - 1.0) * r1 * r1)


def delta_method_variance_vmf(params: VmfParams) -> float:
    """The same asymptotic variance assembled from the moment blocks.

    P = P1 Var[vec(XX')] P1' + 2 P2 Cov[X, vec(XX')] P1' + P2 Var[X] P2'
    with the derivative rows P1 = kappa^2 / ((d-1) R1) (mu (x) mu)' and
    P2 = kappa / R1 mu'.
    """
    d, kappa = params.d, params.kappa
    r1 = _bessel_ratio_ladder(d, kappa, k_max=1)[0]
    mu = params.mu
    moments = vmf_moments(params)
    p1 = (kappa**2 / ((d - 1.0) * r1)) * np.kron(mu, mu)
    p2 = (kappa / r1) * mu
    return float(
        p1 @ moments.var_vec_xxt @ p1
        + 2.0 * (p2 @ moments.cross_cov @ p1)
        + p2 @ moments.var_x @ p2
    )
