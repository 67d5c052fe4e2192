"""The Bessel-I ratio and Kummer confluent hypergeometric evaluations.

Domain-checked wrappers around scipy.special in the forms the estimators
need: the ratio R1 = I_{d/2}/I_{d/2-1}, stable for concentrated
distributions (large arguments) and moderately high orders, and Kummer's
1F1 with its logarithmic derivative.  R1 is formed from exponentially
scaled values so no intermediate overflows; where those underflow it is
summed from the ascending series, and where they fail at very large
arguments, from the large-kappa expansion.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import special as _sp

# below this, scipy's scaled Bessel value is too close to the subnormal
# range to divide through safely; switch to the power series
_IVE_FLOOR = 1e-290


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


def ratio_series_coefficients(d: int):
    """Yield c_1, c_2, ... of the large-kappa expansion
    I_{d/2}(kappa) / I_{d/2-1}(kappa) ~ sum_m c_m kappa^-m, c_0 = 1.

    The ratio R1 solves the Riccati equation
    R1' = 1 - R1^2 - (d-1) R1 / kappa, which gives
    2 c_m = (m - d) c_{m-1} - sum_{i=1}^{m-1} c_i c_{m-i}.
    """
    coef = [1.0]
    for m in itertools.count(1):
        coef.append(0.5 * ((m - d) * coef[-1]
                           - sum(coef[i] * coef[m - i] for i in range(1, m))))
        yield coef[m]


def _large_kappa_ratio(d: int, kappa: float) -> float:
    # the expansion summed until two terms in a row are negligible (some
    # c_m vanish); NaN if it has not settled within 200 terms
    power = 1.0
    tail = 0.0
    small = 0
    for c in itertools.islice(ratio_series_coefficients(d), 200):
        power /= kappa
        term = c * power
        tail += term
        small = small + 1 if abs(term) <= 1e-17 * (1.0 + abs(tail)) else 0
        if small == 2:
            return 1.0 + tail
    return math.nan


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
    large = ~(np.isfinite(den) & np.isfinite(num))  # ive fails near 2e9
    series = ~large & ~((den > _IVE_FLOOR) & (num > 0.0))
    for i in np.flatnonzero(series):
        ratio[i] = math.exp(_log_series_i(nu + 1.0, float(k[i]))
                            - _log_series_i(nu, float(k[i])))
    for i in np.flatnonzero(large):
        ratio[i] = _large_kappa_ratio(d, float(k[i]))
    return float(ratio[0]) if np.ndim(kappa) == 0 else ratio.reshape(np.shape(kappa))


def _check_kummer_b(b: float) -> None:
    if b <= 0 and b == int(b):
        raise ValueError("1F1 undefined for b a nonpositive integer")


def kummer_1f1(a: float, b: float, x: float) -> float:
    """Kummer's confluent hypergeometric 1F1(a; b; x).

    Negative arguments go through the Kummer transform
    1F1(a; b; x) = e^x * 1F1(b-a; b; -x), a positive-term series, wherever
    that product is finite.  From about x = -710 the transformed series
    overflows at the Watson orders (a = 1/2, 3/2), and below x = -745 e^x
    underflows to 0; there scipy evaluates 1F1(a; b; x) directly.  The
    transformed series is never summed where e^x == 0: at large -x that
    sum takes seconds and then overflows.
    """
    _check_kummer_b(b)
    if x == 0.0:
        return 1.0
    val = math.inf
    if x < 0:
        scale = math.exp(x)
        if scale > 0.0:
            val = scale * float(_sp.hyp1f1(b - a, b, -x))
    if not math.isfinite(val):
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
