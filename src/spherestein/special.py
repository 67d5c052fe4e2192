"""Modified Bessel I and Kummer confluent hypergeometric evaluations.

Domain-checked wrappers around scipy.special plus the log-scaled and ratio
variants the estimators need to stay stable for concentrated distributions
(large arguments) and moderately high orders.  Ratios are formed from
exponentially scaled values so no intermediate overflows.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

# below this, scipy's scaled Bessel value is too close to the subnormal
# range to divide through safely; switch to the power series
_IVE_FLOOR = 1e-290


def bessel_i(nu: float, x: float) -> float:
    """Modified Bessel function of the first kind, I_nu(x), nu >= 0, x >= 0."""
    if nu < 0:
        raise ValueError("order nu must be >= 0")
    if x < 0:
        raise ValueError("argument x must be >= 0")
    if x == 0.0:
        return 1.0 if nu == 0 else 0.0
    val = float(_sp.iv(nu, x))
    if not math.isfinite(val):
        raise OverflowError("I_nu(x) overflowed; use log_bessel_i")
    return val


def _log_series_i(nu: float, x: float) -> float:
    # log of the ascending series; accurate whenever x**2/4 << nu + 1,
    # which is exactly the regime where ive underflows
    t = 0.25 * x * x
    tail = 0.0
    term = 1.0
    for k in range(1, 60):
        term *= t / (k * (nu + k))
        tail += term
        if term < 1e-18 * (1.0 + tail):
            break
    return nu * math.log(0.5 * x) - math.lgamma(nu + 1.0) + math.log1p(tail)


def log_bessel_i(nu: float, x: float) -> float:
    """log I_nu(x), computed without overflow for large x."""
    if nu < 0:
        raise ValueError("order nu must be >= 0")
    if x < 0:
        raise ValueError("argument x must be >= 0")
    if x == 0.0:
        if nu == 0:
            return 0.0
        return -math.inf
    scaled = float(_sp.ive(nu, x))
    if scaled > _IVE_FLOOR:
        return math.log(scaled) + x
    return _log_series_i(nu, x)


def bessel_ratio(d: int, kappa):
    """I_{d/2}(kappa) / I_{d/2-1}(kappa); lies in (0, 1), increasing in kappa.

    An array of kappas gives the array of ratios.
    """
    if d < 2:
        raise ValueError("dimension d must be >= 2")
    k = np.atleast_1d(np.asarray(kappa, dtype=float))
    if np.any(k <= 0):
        raise ValueError("kappa must be > 0")
    nu = 0.5 * d - 1.0
    den = _sp.ive(nu, k)
    num = _sp.ive(nu + 1.0, k)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = num / den
    series = ~((den > _IVE_FLOOR) & (num > 0.0))
    for i in np.flatnonzero(series):
        ratio[i] = math.exp(_log_series_i(nu + 1.0, float(k[i]))
                            - _log_series_i(nu, float(k[i])))
    return float(ratio[0]) if np.ndim(kappa) == 0 else ratio.reshape(np.shape(kappa))


def _check_kummer_b(b: float) -> None:
    if b <= 0 and b == int(b):
        raise ValueError("1F1 undefined for b a nonpositive integer")


def kummer_1f1(a: float, b: float, x: float) -> float:
    """Kummer's confluent hypergeometric 1F1(a; b; x).

    Negative arguments go through the Kummer transform
    1F1(a; b; x) = e^x * 1F1(b-a; b; -x) so only positive-term series are
    ever summed.
    """
    _check_kummer_b(b)
    if x == 0.0:
        return 1.0
    if x < 0:
        val = math.exp(x) * float(_sp.hyp1f1(b - a, b, -x))
    else:
        val = float(_sp.hyp1f1(a, b, x))
    if not math.isfinite(val):
        raise OverflowError("1F1 overflowed")
    return val


def kummer_ratio(a: float, b: float, x: float) -> float:
    """The logarithmic-derivative ratio (a/b) * 1F1(a+1; b+1; x) / 1F1(a; b; x).

    Equals d/dx log 1F1(a; b; x); for the Watson family this is the mean of
    the squared axis projection.
    """
    _check_kummer_b(b)
    return (a / b) * kummer_1f1(a + 1.0, b + 1.0, x) / kummer_1f1(a, b, x)
