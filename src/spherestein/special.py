"""The Bessel-I ratio, Kummer's confluent hypergeometric 1F1, and the
bracketed Newton root finder of the maximum likelihood fits.

The ratio R1 = I_{d/2}/I_{d/2-1} is formed from scipy's exponentially
scaled values, so no intermediate overflows; below kappa = d/10, or where
those near the subnormal range, it is kappa times R1 / kappa from Gauss's
continued fraction, and where they fail at very large arguments, it comes
from the large-kappa expansion, which sums either R1 or, for the vMF Fisher
information, its derivative R1'.  1F1 has one rule: scipy evaluates it at
-|x| only, and the Kummer transform carries a positive argument over, its
e^x kept apart as a log or cancelled in a ratio.
scipy.special, most of the package's import time, loads on first use.
"""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np

# below this, or below kappa = d/10, scipy's scaled Bessel values lose digits
# (ive(1, 1e-302) is 4.5e-6 off, ive(0.5, 1e-300) 2e-14) and R1 comes from the
# continued fraction.  I_{d/2} < I_{d/2-1}, so the numerator reaches it first
_IVE_FLOOR = 1e-290


def _ratio_over_kappa(d: int, k: np.ndarray) -> np.ndarray:
    # rho = R1 / kappa by Gauss's continued fraction (DLMF 10.33.1),
    # 1 / (d + k^2 / (d + 2 + k^2 / (d + 4 + ...))), summed bottom-up from
    # Amos's (1974) bound on rho at depth 40.  An error at one depth reaches
    # the one above damped by k^2 rho_j rho_{j+1} < k^2 / ((d+2j)(d+2j+2)),
    # below 1/4 wherever k <= d/2, as at every k where bessel_ratio calls
    # this up to d = 2800: so the truncation is below 4^-40 = 1e-24 there.
    # At larger d those k exceed d; 40-digit mpmath puts the error at
    # 2e-15 at d = 10^4 and 2e-11 at d = 2 10^4.
    rho = 2.0 / (d + 79.0 + np.sqrt((d + 81.0) ** 2 + 4.0 * k * k))
    for j in range(39, -1, -1):
        rho = 1.0 / (d + 2.0 * j + k * k * rho)
    return rho


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


def large_kappa_expansion(d: int, kappa: float, order: int = 0) -> float:
    """R1 = I_{d/2}(kappa) / I_{d/2-1}(kappa) = 1 + sum_{m>=1} c_m kappa^-m
    (order 0) or its derivative R1' = -sum_{m>=1} m c_m kappa^-(m+1)
    (order 1), summed from the large-kappa expansion.

    The sum runs until two of its terms in a row are negligible (some c_m
    vanish); NaN if it has not settled within 200 terms.
    """
    lead, power = (1.0, 1.0) if order == 0 else (0.0, 1.0 / kappa)
    total, small = 0.0, 0
    for m, c in enumerate(itertools.islice(ratio_series_coefficients(d), 200), 1):
        power /= kappa  # kappa^-(m + order), underflowing to 0 rather than raising
        term = c * power if order == 0 else -m * c * power
        total += term
        small = small + 1 if abs(term) <= 1e-17 * (lead + abs(total)) else 0
        if small == 2:
            return lead + total
    return math.nan


def bessel_ratio(d: int, kappa):
    """I_{d/2}(kappa) / I_{d/2-1}(kappa); lies in (0, 1), increasing in
    kappa, except that it is 0.0 where kappa / d underflows.

    An array of kappas gives the array of ratios.
    """
    if d < 2:
        raise ValueError("dimension d must be >= 2")
    if d > sys.float_info.max:  # an exact comparison; 0.5 * d below would overflow
        raise ValueError("dimension d is beyond the float range")
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
    small = ~large & (~(num > _IVE_FLOOR) | (k < d / 10))
    if small.any():
        ratio[small] = k[small] * _ratio_over_kappa(d, k[small])
    for i in np.flatnonzero(large):
        ratio[i] = large_kappa_expansion(d, float(k[i]))
    return float(ratio[0]) if np.ndim(kappa) == 0 else ratio.reshape(np.shape(kappa))


def _scaled_1f1(a, b, x):
    # e^{-max(x, 0)} 1F1(a; b; x); for x > 0 by the Kummer transform
    # 1F1(a; b; x) = e^x 1F1(b-a; b; -x) (DLMF 13.2.39)
    from scipy import special as _sp
    x = np.asarray(x, dtype=float)
    val = _sp.hyp1f1(np.where(x > 0, b - a, a), b, -np.abs(x))
    # a subnormal value has lost digits: hyp1f1(499.5, 500, -800) = 1.8e-319
    if not np.all(np.isfinite(val) & (val >= np.finfo(float).tiny)):
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
    method from x0 in [lo, hi], bisecting lo < x < hi where a step leaves
    it; link(x) returns the increasing link and its derivative.  The end
    of [lo, hi] on the target's side of x0 first moves outward (on a copy)
    by 1 + |end|/2 until it brackets the target or is infinite.  An entry
    is done once |link(x) - target| <= tol (a number or one per entry), or
    once iterates on both sides of its target close its bracket to adjacent
    floats.  Returns the roots and their iteration counts; RuntimeError
    unless every entry is within 100 tol after 200 steps."""
    x = np.array(x0, dtype=float)
    iterations = np.full(target.shape, 200)
    if not target.size:
        return x, iterations
    k, (value, deriv) = x, link(x)  # the first iterate
    side = np.sign(value - target)  # +1 where the target lies below x0
    end = np.where(side > 0, lo, hi)
    miss = side * (link(end)[0] - target) > 0
    while miss.any():
        end[miss] -= side[miss] * (1.0 + 0.5 * np.abs(end[miss]))
        miss[miss] = ((side[miss] * (link(end[miss])[0] - target[miss]) > 0)
                      & np.isfinite(end[miss]))
    lo, hi = np.where(side > 0, end, lo), np.where(side < 0, end, hi)
    # per unfinished entry: its index, target, tolerance and bracket, and
    # whether an iterate has fallen below (under) or above (over) the target
    todo, tol = np.arange(target.size), np.broadcast_to(tol, target.shape)
    under = over = np.zeros(target.shape, dtype=bool)
    for it in range(1, 201):
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
        k = np.where((lo < nxt) & (nxt < hi), nxt, mid)
        x[todo] = k
        value, deriv = link(k)
    if todo.size and not np.all(np.abs(value - target) <= 100.0 * tol):  # NaN fails
        raise RuntimeError("root finder did not converge")
    return x, iterations
