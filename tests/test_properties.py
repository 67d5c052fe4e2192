"""Property tests of the samplers and of the fits.

Over every family of the family table, with |kappa| (or the norms of the
FB mu and A) up to 1e4 and d up to 50 (FB: 10), every estimator code
returns a finite estimate or an ``ne`` flag whose single-sample fit
raises the family's typed outcome, or refuses the stack with a
``ValueError`` or ``DegenerateMean``; a sampler may refuse a parameter
set with ``RuntimeError``.  Hypothesis draws the parameters, the sample
size and the sampler streams; the examples are derandomised, so every
run sees the same samples.  The stacked samplers give, stream for
stream, the bits of the one-stream loops in ``oracles``.  Over d <= 50
and |kappa| <= 1e4, ST, MLa and ML return a finite estimate or NE on
each Watson sample, give the same bits on the negated rows and the same
estimate, up to rounding, on rotated rows (ST: on signed permutations
fixing the last axis), and score every eligible branch finitely.  ML is
NE exactly where an axis has none or all of the mass, and elsewhere the
ML concentration of each branch lies within the MLa bounds at its r (up
to the resolution of the likelihood equation).
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherestein import sampler
from spherestein.est_vmf import DegenerateMean
from spherestein.est_watson import (
    NotEligible,
    prepare_sample,
    watson_mla_bounds,
    watson_mla_fit,
    watson_mle_fit,
    watson_stein_fit,
)
from spherestein.families import ESTIMATORS, FAMILIES, SAMPLERS, fit_one
from spherestein.linalg import SingularSystem
from spherestein.models import FisherBinghamParams, VmfParams, WatsonParams
from spherestein.sampler import sample_fb, sample_vmf, sample_watson

from oracles import acg_sample_loop, vmf_sample_loop

FITS = {"st": watson_stein_fit, "mla": watson_mla_fit, "ml": watson_mle_fit}

samples = st.builds(
    lambda d, kappa, n, seed, axis: (d, sample_watson(
        WatsonParams(axis[:d] / np.linalg.norm(axis[:d]), kappa), n,
        seed)),
    d=st.integers(2, 50),
    kappa=st.one_of(st.floats(-1e4, 1e4),
                    st.sampled_from([0.0, 1e4, -1e4, 800.0, -800.0])),
    n=st.sampled_from([3, 10, 60, 200]),
    seed=st.integers(0, 2**32 - 1),
    axis=st.lists(st.floats(0.1, 1.0), min_size=50, max_size=50).map(np.array),
)


def _outcome(fit_fn, x):
    # the fit of stack x, whose flagged sample has the typed outcome
    # NotEligible, and every eligible branch a finite score
    fit = fit_fn(x)
    for branch, ok in fit.eligible.items():
        assert not ok[0] or math.isfinite(fit.residual_norms[branch][0]), branch
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
        np.testing.assert_equal(vars(plain), vars(flipped))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(samples)
def test_watson_ml_within_mla_bounds(case):
    d, x = case
    fit = _outcome(watson_mle_fit, x)
    if fit.ne[0]:
        return
    # The bounds are sharp as kappa -> +-inf, where the root is known only
    # to the resolution of E[t] near r: an error of 1e-16 in E[t] moves
    # kappa by about 1e-16 |kappa| / min(r, 1 - r) there
    s = prepare_sample(x)
    for branch, mu in s.axes.items():
        r = float(mu[0] @ s.scatter[0] @ mu[0])
        lower, upper = watson_mla_bounds(r, d)
        kappa_ml = fit.kappas[branch][0]
        slack = 1e-14 * abs(kappa_ml) / min(r, 1.0 - r)
        assert lower - slack <= kappa_ml <= upper + slack, (branch, r)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(samples)
def test_watson_ml_is_ne_exactly_where_an_axis_has_no_mass(case):
    # the likelihood is unbounded where either axis has none or all of the
    # mass, r = mu'S mu outside (1e-14, 1 - 1e-14); _outcome checks that
    # each eligible branch has a finite score
    _, x = case
    fit = _outcome(watson_mle_fit, x)
    s = prepare_sample(x)
    r = [float(mu[0] @ s.scatter[0] @ mu[0]) for mu in s.axes.values()]
    assert fit.ne[0] == (not all(1e-14 < v < 1.0 - 1e-14 for v in r)), r


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(samples, st.integers(0, 2**32 - 1))
def test_watson_fits_are_rotation_equivariant(case, seed):
    # the fits of the rows Q x give the kappas of the rows x and the axis
    # Q mu up to sign, or both are NE.  MLa and ML see the
    # rows only through the scatter's eigenvectors and r = mu'S mu, so Q is
    # any rotation.  ST solves its least squares in vech' coordinates (the
    # (d, d) entry dropped), which only signed permutations fixing the last
    # axis preserve: a random rotation moves its kappa by O(n^-1/2)
    d, x = case
    rng = np.random.default_rng(seed)
    rotation = np.linalg.qr(rng.standard_normal((d, d)))[0]
    order = np.append(rng.permutation(d - 1), d - 1)
    permutation = np.eye(d)[order] * rng.choice([-1.0, 1.0], d)[:, None]
    for code, fit_fn in FITS.items():
        q = permutation if code == "st" else rotation
        plain, turned = _outcome(fit_fn, x), _outcome(fit_fn, x @ q.T)
        for branch in ("+", "-"):
            # NaN on a branch without an estimate, on both samples
            assert turned.kappas[branch][0] == pytest.approx(
                plain.kappas[branch][0], rel=1e-9, nan_ok=True), (code, branch)
        assert plain.ne[0] == turned.ne[0], code
        if plain.ne[0]:
            continue
        if plain.branch[0] != turned.branch[0]:
            # at d = 2, (mu, kappa) and (mu_perp, -kappa) are one
            # distribution, so the branch scores tie up to rounding
            score = plain.residual_norms
            assert score["+"][0] == pytest.approx(score["-"][0], rel=1e-9), code
            continue
        axis = q @ plain.mu_hat[0]
        np.testing.assert_allclose(np.copysign(1.0, axis @ turned.mu_hat[0])
                                   * turned.mu_hat[0], axis, rtol=0, atol=1e-7,
                                   err_msg=code)


@st.composite
def sampler_params(draw):
    # vMF, Watson or Fisher-Bingham parameters in d <= 10
    family = draw(st.sampled_from(["vmf", "watson", "fb"]))
    d = draw(st.integers(2, 10))
    floats = st.floats(-1.0, 1.0)
    axis = np.array(draw(st.lists(floats, min_size=d, max_size=d)))
    axis[0] += 2.0  # keeps the axis away from 0
    axis /= np.linalg.norm(axis)
    if family == "vmf":
        return VmfParams(axis, draw(st.floats(0.01, 1000.0)))
    if family == "watson":
        return WatsonParams(axis, draw(st.sampled_from([-1.0, 1.0]))
                            * draw(st.floats(0.1, 100.0)))
    a = np.array(draw(st.lists(floats, min_size=d * d, max_size=d * d))).reshape(d, d)
    a = 5.0 * (a + a.T)
    a[-1, -1] = 0.0
    return FisherBinghamParams(draw(st.floats(0.0, 20.0)) * axis, a)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(sampler_params(), st.integers(1, 60), st.integers(1, 8),
       st.integers(0, 2**32 - 1), st.sampled_from([1, 256]))
def test_stacked_samplers_equal_the_per_stream_loops(params, n, b, seed, min_batch):
    # every stream of a stack makes the draws it would make alone, so each
    # slice is bit for bit the one-stream loop; at min_batch = 1 streams
    # fall short after different numbers of batches
    streams = range(b)
    with mock.patch.object(sampler, "_MIN_BATCH", min_batch):
        if params.family == "vmf":
            stack = sample_vmf(params, n, seed, streams)
            expected = [vmf_sample_loop(params, n, seed, k, min_batch)[0] for k in streams]
        else:
            if params.family == "watson":
                stack = sample_watson(params, n, seed, streams)
                mu = np.zeros(params.d)
                a_mat = params.kappa * np.outer(params.mu, params.mu)
            else:
                stack = sample_fb(params, n, seed, streams)
                mu, a_mat = params.mu, params.A
            expected = [acg_sample_loop(mu, a_mat, n, seed, k, min_batch)[0]
                        for k in streams]
    assert stack.shape == (b, n, params.d)
    for k, sample in enumerate(expected):
        np.testing.assert_array_equal(stack[k], sample)


@st.composite
def family_cases(draw):
    # (params, n) over aim 3's box: |kappa| or the norms of the FB mu and A
    # log-uniform in [1e-8, 1e4] or 0 (vMF: > 0), d <= 50 (FB: d <= 10,
    # keeping its q = d(d+3)/2 - 1 unknowns small), n in {1, 2, d, 5d, 200}
    family = draw(st.sampled_from(sorted(FAMILIES)))
    d = draw(st.integers(2, 10 if family == "fb" else 50))
    units = st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)
    axis = np.array(draw(units))
    axis[0] += 2.0  # keeps the axis away from 0
    axis /= np.linalg.norm(axis)
    scales = st.floats(-8.0, 4.0).map(lambda e: 10.0 ** e)
    scale = draw(scales if family == "vmf" else st.one_of(scales, st.just(0.0)))
    if family == "vmf":
        params = VmfParams(axis, scale)
    elif family == "watson":
        params = WatsonParams(axis, draw(st.sampled_from([-1.0, 1.0])) * scale)
    else:
        a = np.array([draw(units) for _ in range(d)])
        a = a + a.T
        a[-1, -1] = 0.0
        a *= draw(scales) / max(np.linalg.norm(a, 2), 1e-300)
        params = FisherBinghamParams(scale * axis, a)
    return params, draw(st.sampled_from([1, 2, d, 5 * d, 200]))


def _refuses(refusal, family, code, sample) -> bool:
    # whether the fit of one sample raises the refusal, and not another
    # typed outcome
    try:
        fit_one(family, code, sample)
    except refusal:
        return True
    except (ValueError, DegenerateMean, NotEligible, SingularSystem):
        pass
    return False


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(family_cases(), st.integers(0, 2**32 - 1))
def test_every_fit_is_finite_ne_or_a_typed_refusal(case, seed):
    # on a stack of two samples, each code refuses with a ValueError or
    # DegenerateMean, and then so does the fit of one of its slices alone;
    # otherwise each slice is NE, and its single fit raises the family's
    # typed outcome, or it has a finite estimate, as its single fit has
    params, n = case
    family = params.family
    try:
        x = SAMPLERS[family](params, n, seed, range(2))
    except RuntimeError as err:
        assert "rejection acceptance" in str(err) or "sampler's range" in str(err)
        return
    for code in (c for f, c in ESTIMATORS if f == family):
        try:
            fit = ESTIMATORS[family, code](x)
        except (ValueError, DegenerateMean) as err:
            assert any(_refuses(type(err), family, code, sample) for sample in x), code
            continue
        estimate = [fit.mu_hat, getattr(fit, "A_hat", getattr(fit, "kappa_hat", None))]
        for j, sample in enumerate(x):
            if fit.ne[j]:
                with pytest.raises((NotEligible, SingularSystem)):
                    fit_one(family, code, sample)
                continue
            assert all(np.all(np.isfinite(v[j])) for v in estimate), code
            report = fit_one(family, code, sample)
            assert np.all(np.isfinite(report["mu"])), code
            assert np.all(np.isfinite(report.get("A", report.get("kappa")))), code
