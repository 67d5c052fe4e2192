"""Property tests of the Watson fits over d <= 50 and |kappa| <= 1e4.

Hypothesis draws the dimension, the concentration, the sample size and
the sampler stream; the examples are derandomised, so every run sees the
same samples.  On each sample, ST, MLa and ML return a finite estimate or
a typed outcome, give the same bits on the negated rows, and the ML
concentration of each branch lies within the MLa bounds at its r (up to
the resolution of the likelihood equation).
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spherestein.est_watson import (
    NotEligible,
    prepare_sample,
    watson_mla_bounds,
    watson_mla_fit,
    watson_mle_fit,
    watson_stein_fit,
)
from spherestein.families import FAMILIES
from spherestein.models import WatsonParams
from spherestein.sampler import RngState, sample_watson

FITS = {"st": watson_stein_fit, "mla": watson_mla_fit, "ml": watson_mle_fit}

samples = st.builds(
    lambda d, kappa, n, seed, axis: (d, sample_watson(
        WatsonParams(axis[:d] / np.linalg.norm(axis[:d]), kappa), n,
        [RngState(seed)])),
    d=st.integers(2, 50),
    kappa=st.one_of(st.floats(-1e4, 1e4),
                    st.sampled_from([0.0, 1e4, -1e4, 800.0, -800.0])),
    n=st.sampled_from([3, 10, 60, 200]),
    seed=st.integers(0, 2**32 - 1),
    axis=st.lists(st.floats(0.1, 1.0), min_size=50, max_size=50).map(np.array),
)


def _outcome(fit_fn, x):
    # the fit of stack x, or the typed outcome it raises: ValueError for
    # an axis without mass (ML) or a vanishing J (ST), and NotEligible for
    # a flagged sample
    try:
        fit = fit_fn(x)
    except ValueError as exc:
        return type(exc), str(exc)
    if fit.ne[0]:
        assert isinstance(FAMILIES["watson"].outcome(fit), NotEligible)
    else:
        assert math.isfinite(fit.kappa_hat[0])
        assert np.all(np.isfinite(fit.mu_hat[0]))
    return fit


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(samples)
def test_watson_fits_are_finite_or_typed_and_sign_invariant(case):
    _, x = case
    for code, fit_fn in FITS.items():
        plain, flipped = _outcome(fit_fn, x), _outcome(fit_fn, -x)
        if isinstance(plain, tuple):
            assert plain == flipped, code
            assert code in ("ml", "st"), plain
        else:
            np.testing.assert_equal(vars(plain), vars(flipped))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(samples)
def test_watson_ml_within_mla_bounds(case):
    d, x = case
    fit = _outcome(watson_mle_fit, x)
    if isinstance(fit, tuple):
        return
    # The bounds are sharp as kappa -> +-inf, where the root is known only
    # to the resolution of E[t] near r: an error of 1e-16 in E[t] moves
    # kappa by about 1e-16 |kappa| / min(r, 1 - r) there
    s = prepare_sample(x)
    for branch, mu in s.axes.items():
        r = float(mu[0] @ s.scatter[0] @ mu[0])
        lower, upper = watson_mla_bounds(r, 0.5, 0.5 * d)
        kappa_ml = fit.kappas[branch][0]
        slack = 1e-14 * abs(kappa_ml) / min(r, 1.0 - r)
        assert lower - slack <= kappa_ml <= upper + slack, (branch, r)
