"""Fisher information and the closed-form asymptotic variance of the
moment-type von Mises-Fisher concentration estimator.

Both depend on kappa only through the Bessel ratio
R1 = I_{d/2} / I_{d/2-1}, which comes from ``special.bessel_ratio``.
"""

from __future__ import annotations

from . import special


def fisher_information_vmf(d: int, kappa: float) -> float:
    """Fisher information for kappa: 1 - R1^2 - (d-1) R1 / kappa.

    The difference is about (d-1) / (2 kappa^2) and loses its digits to
    cancellation as kappa grows, so beyond kappa = 30 + d it is summed
    from the large-kappa expansion R1 ~ sum_m c_m kappa^-m instead: the
    information is R1' = -sum_{m>=1} m c_m kappa^-(m+1).
    """
    if kappa <= 0:
        raise ValueError("kappa must be > 0")
    if kappa < 30.0 + d:
        r1 = special.bessel_ratio(d, kappa)
        return 1.0 - r1 * r1 - (d - 1.0) * r1 / kappa
    power = 1.0 / kappa
    total = 0.0
    small = 0
    for m, c in zip(range(1, 200), special.ratio_series_coefficients(d)):
        power /= kappa  # kappa^-(m+1), underflowing to 0 rather than raising
        term = -m * c * power
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
    r1 = special.bessel_ratio(d, kappa)
    # divide the display through by I_{d/2-1}^2 to work in ratios
    return kappa * (2.0 * kappa - (d + 1.0) * r1) / ((d - 1.0) * r1 * r1)
