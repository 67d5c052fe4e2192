"""The Bessel-I ratio, Kummer's confluent hypergeometric 1F1, and the
bracketed Newton root finder of the maximum likelihood fits.

The ratio R1 = I_{d/2}/I_{d/2-1} is formed from scipy's exponentially
scaled values, so no intermediate overflows; where those underflow it is
summed from the ascending series, and where they fail at very large
arguments, from the large-kappa expansion, which also gives the
derivative R1' of the vMF Fisher information.  1F1 has one rule: scipy
evaluates it at -|x| only, and the Kummer transform carries a positive
argument over, its e^x kept apart as a log or cancelled in a ratio.
scipy.special, most of the package's import time, loads on first use.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# below this, scipy's scaled Bessel value is too close to the subnormal
# range to divide through safely; switch to the power series
_IVE_FLOOR = 1e-290
_TINY = np.finfo(float).tiny


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


def large_kappa_expansion(d: int, kappa: float) -> tuple[float, float]:
    """R1 = I_{d/2}(kappa) / I_{d/2-1}(kappa) and its derivative
    R1' = -sum_{m>=1} m c_m kappa^-(m+1), summed from the large-kappa
    expansion in one pass over its coefficients.

    Each sum runs until two of its terms in a row are negligible (some
    c_m vanish); R1 is NaN if it has not settled within 200 terms.
    """
    power = 1.0  # kappa^-m, underflowing to 0 rather than raising
    tail = slope = 0.0
    small_tail = small_slope = 0
    for m, c in enumerate(itertools.islice(ratio_series_coefficients(d), 200), 1):
        power /= kappa
        if small_tail < 2:
            term = c * power
            tail += term
            small_tail = small_tail + 1 if abs(term) <= 1e-17 * (1.0 + abs(tail)) else 0
        if small_slope < 2:
            term = -m * c * (power / kappa)
            slope += term
            small_slope = small_slope + 1 if abs(term) <= 1e-17 * abs(slope) else 0
        if small_tail == small_slope == 2:
            break
    return (1.0 + tail if small_tail == 2 else math.nan), slope


def bessel_ratio(d: int, kappa):
    """I_{d/2}(kappa) / I_{d/2-1}(kappa); lies in (0, 1), increasing in kappa.

    An array of kappas gives the array of ratios.
    """
    if d < 2:
        raise ValueError("dimension d must be >= 2")
    k = np.atleast_1d(np.asarray(kappa, dtype=float))
    if np.any(k <= 0):
        raise ValueError("kappa must be > 0")
    from scipy import special as _sp
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
        ratio[i] = large_kappa_expansion(d, float(k[i]))[0]
    return float(ratio[0]) if np.ndim(kappa) == 0 else ratio.reshape(np.shape(kappa))


def _scaled_1f1(a, b, x):
    # e^{-max(x, 0)} 1F1(a; b; x); for x > 0 by the Kummer transform
    # 1F1(a; b; x) = e^x 1F1(b-a; b; -x) (DLMF 13.2.39)
    from scipy import special as _sp
    x = np.asarray(x, dtype=float)
    val = _sp.hyp1f1(np.where(x > 0, b - a, a), b, -np.abs(x))
    # a subnormal value has lost digits: hyp1f1(499.5, 500, -800) = 1.8e-319
    if not np.all(np.isfinite(val) & (val >= _TINY)):
        raise OverflowError("1F1 out of range")
    return val


def log_kummer_1f1(a, b, x):
    """log 1F1(a; b; x), elementwise; OverflowError("1F1 out of range")
    where scipy's hyp1f1 at -|x| is not finite or below the normal range."""
    return np.maximum(x, 0.0) + np.log(_scaled_1f1(a, b, x))


def kummer_moment(k: int, a, b, x):
    """(a)_k / (b)_k * 1F1(a+k; b+k; x) / 1F1(a; b; x), elementwise; the
    e^x of the transform cancels exactly.  At (a, b) = (1/2, d/2) and
    x = kappa it is the Watson moment E[t^k], t = (mu'x)^2."""
    coef = math.prod((a + i) / (b + i) for i in range(k))
    return coef * _scaled_1f1(a + k, b + k, x) / _scaled_1f1(a, b, x)


def newton_root(link, target: np.ndarray, x0: np.ndarray, lo: np.ndarray,
                hi: np.ndarray, tol) -> tuple[np.ndarray, np.ndarray]:
    """Solve link(x) = target for each entry of a 1-D target by Newton's
    method, bisecting lo < x < hi where a step leaves it; link(x) returns
    the increasing link and its derivative.  An entry is done once
    |link(x) - target| <= tol (a number or one per entry), or once iterates
    on both sides of its target close its bracket to adjacent floats.
    Returns the roots and their iteration counts; RuntimeError unless every
    entry is within 100 tol after 200 steps."""
    x = np.array(x0, dtype=float)
    iterations = np.full(target.shape, 200)
    if not target.size:
        return x, iterations
    # per unfinished entry: its index, target, tolerance and bracket, and
    # whether an iterate has fallen below (under) or above (over) the target
    todo, tol = np.arange(target.size), np.broadcast_to(tol, target.shape)
    under = over = np.zeros(target.shape, dtype=bool)
    for it in range(1, 201):
        k = x[todo]
        value, deriv = link(k)
        err = value - target
        above = err > 0
        lo = np.where(above, lo, np.maximum(lo, k))
        hi = np.where(above, np.minimum(hi, k), hi)
        under, over = under | (err < 0), over | above
        mid = 0.5 * (lo + hi)
        done = (np.abs(err) <= tol) | (under & over & ((mid == lo) | (mid == hi)))
        if done.any():
            iterations[todo[done]] = it
            todo, target, tol, lo, hi, under, over, k, deriv, err, mid = (
                v[~done] for v in (todo, target, tol, lo, hi, under, over,
                                   k, deriv, err, mid))
            if not todo.size:
                break
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = np.where(deriv > 0, k - err / deriv, lo)
        x[todo] = np.where((lo < nxt) & (nxt < hi), nxt, mid)
    if todo.size and not np.all(
        np.abs(link(x[todo])[0] - target) <= 100.0 * tol
    ):  # written so that a NaN link fails it
        raise RuntimeError("root finder did not converge")
    return x, iterations
