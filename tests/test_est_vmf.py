import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from spherestein import est_vmf, special
from spherestein.est_fb import fb_statistics
from spherestein.est_vmf import (
    DegenerateMean,
    kappa_mle,
    kappa_score_matching,
    kappa_stein,
    kappa_stein2,
    stein_asymptotic_variance_vmf,
)
from spherestein.families import fit_one
from spherestein.linalg import SingularSystem
from spherestein.models import VmfParams
from spherestein.sampler import sample_vmf
from spherestein.special import bessel_ratio

from oracles import (
    canonical_f1,
    kappa_stein_general,
    mle_newton_scalar,
    random_unit_rows,
    ratio_d3,
    vmf_fit_loop,
)

E3 = np.eye(3)
FIXTURE = np.array([E3[0], E3[0], E3[1]])


def _random_orthogonal(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q


def _mean_direction(x):
    return est_vmf.prepare_sample(x).mu_hat


def test_mean_direction_examples():
    np.testing.assert_allclose(
        _mean_direction(FIXTURE[None]), [np.array([2.0, 1.0, 0.0]) / math.sqrt(5)],
        atol=1e-15,
    )
    for fit_fn in FITTERS:  # an antipodal pair has no mean direction
        with pytest.raises(DegenerateMean):
            fit_fn(np.array([[E3[0], -E3[0]]]))
    rng = np.random.default_rng(0)
    x = random_unit_rows(rng, 20, 3)
    rot = _random_orthogonal(rng, 3)
    np.testing.assert_allclose(
        _mean_direction((x @ rot.T)[None])[0], rot @ _mean_direction(x[None])[0],
        atol=1e-12
    )


def test_kappa_stein_fixture():
    fit = kappa_stein(FIXTURE[None])
    assert fit.kappa_hat[0] == pytest.approx(1.5 * math.sqrt(5), rel=1e-9)
    assert fit.diagnostics["resultant_length"][0] == pytest.approx(
        math.sqrt(5) / 3, rel=1e-12
    )


def test_kappa_stein2_fixture():
    fit = kappa_stein2(FIXTURE[None])
    assert fit.kappa_hat[0] == pytest.approx(math.sqrt(17), rel=1e-9)


def test_kappa_sm_fixture():
    fit = kappa_score_matching(FIXTURE[None])
    assert fit.kappa_hat[0] == pytest.approx(5 * math.sqrt(5) / 3, rel=1e-9)


def _sample_with_resultant(r):
    # two points at equal angles around e1 so that |mean| = r exactly
    c = r
    s = math.sqrt(1.0 - c * c)
    return np.array([[c, s, 0.0], [c, -s, 0.0]])


def test_kappa_mle_closed_form_root():
    # oracle: bisect coth(k) - 1/k = 1/2 directly
    expected = brentq(lambda k: ratio_d3(k) - 0.5, 1e-6, 50.0, xtol=1e-13)
    assert expected == pytest.approx(1.7967559847237133, rel=1e-10)
    kappa = fit_one("vmf", "ml", _sample_with_resultant(0.5))["kappa"]
    assert kappa == pytest.approx(expected, rel=1e-9)
    assert abs(bessel_ratio(3, kappa) - 0.5) <= 1e-10


def test_kappa_mle_small_resultant():
    assert 0 < fit_one("vmf", "ml", _sample_with_resultant(1e-6))["kappa"] < 1e-4


def test_kappa_mle_converges_beyond_scaled_bessel_range():
    # the root of the link at r = 1 - 1e-10 is near kappa = 1e10, beyond
    # the kappa near 2e9 where scipy's scaled Bessel values turn NaN
    r = np.array([1.0 - 1e-10])
    kappa, _ = est_vmf._mle_from_resultant(3, r.copy())
    assert abs(bessel_ratio(3, kappa[0]) - r[0]) <= 1e-12
    assert kappa[0] == pytest.approx(1.0 / (1.0 - r[0]), rel=1e-6)


@pytest.mark.parametrize("d", [2, 3, 10])
def test_kappa_mle_below_the_old_lower_end(d):
    # for r between the DegenerateMean floor and ratio(1e-10) ~ 1e-10/d the
    # root lies below kappa = 1e-10; the bracket's lower end min(r, 1e-10)
    # holds it, so Newton lands on the 40-digit mpmath root
    mpmath.mp.dps = 40
    r = np.array([1e-12, 1e-11, 5e-11])
    kappa, iterations = est_vmf._mle_from_resultant(d, r.copy())
    nu = mpmath.mpf(d) / 2 - 1
    for k, rk, its in zip(kappa, r, iterations):
        root = mpmath.findroot(lambda t: mpmath.besseli(nu + 1, t)
                               / mpmath.besseli(nu, t) - mpmath.mpf(rk), d * rk)
        assert k == pytest.approx(float(root), rel=1e-10, abs=0.0)
        assert its < 200


@pytest.mark.parametrize("d", [2, 3, 10, 50])
def test_kappa_mle_to_full_precision_below_r_one_hundredth(d):
    # below r = 0.01 the tolerance is 1e-15 r, so kappa is within 1e-15 of
    # the 40-digit mpmath root in at most 3 iterations (an absolute 1e-12
    # left it up to 1.5e-9 off on this grid)
    mpmath.mp.dps = 40
    r = 10.0 ** np.arange(math.log10(1.5e-12), math.log10(9e-3), 0.25)
    kappa, iterations = est_vmf._mle_from_resultant(d, r.copy())
    nu = mpmath.mpf(d) / 2 - 1
    for k, rk in zip(kappa, r):
        root = mpmath.findroot(lambda t: mpmath.besseli(nu + 1, t)
                               / mpmath.besseli(nu, t) - mpmath.mpf(rk), d * rk)
        assert abs(k - root) <= 1e-15 * root, (d, rk)
    assert iterations.max() <= 3


def test_kappa_mle_nan_ratio_does_not_pass_as_converged(monkeypatch):
    # a NaN link never satisfies the final convergence check
    monkeypatch.setattr(special, "bessel_ratio",
                        lambda d, kappa: np.full(np.shape(kappa), np.nan)[()])
    with pytest.raises(RuntimeError, match="did not converge"):
        est_vmf._mle_from_resultant(3, np.array([0.5]))


def test_kappa_mle_errors():
    with pytest.raises(ValueError):
        kappa_mle(np.array([[E3[0], E3[0]]]))
    with pytest.raises(DegenerateMean):
        kappa_mle(np.array([[E3[0], -E3[0]]]))


def test_mc_consistency_all_estimators():
    n = 100_000
    cases = [
        (kappa_stein, 3, 2.0, 31),
        (kappa_stein2, 10, 10.0, 32),
        (kappa_mle, 3, 10.0, 33),
        (kappa_score_matching, 3, 1.0, 34),
    ]
    for fit_fn, d, kappa, seed in cases:
        mu = np.ones(d) / math.sqrt(d)
        x = sample_vmf(VmfParams(mu, kappa), n, seed)
        fit = fit_fn(x)
        # ST obeys the closed-form asymptotic variance; use it with margin
        # as a common yardstick (the four estimators are near-efficient)
        tol = 6.0 * math.sqrt(stein_asymptotic_variance_vmf(d, kappa) / n)
        assert abs(fit.kappa_hat[0] - kappa) <= tol
        assert abs(fit.mu_hat[0] @ mu) > 0.999


def test_rotation_invariance_and_equivariance():
    rng = np.random.default_rng(35)
    fitters = (kappa_stein, kappa_stein2, kappa_mle, kappa_score_matching)
    for _ in range(250):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(5, 40))
        x = random_unit_rows(rng, n, d)
        rot = _random_orthogonal(rng, d)
        for fit_fn in fitters:
            base = fit_fn(x[None])
            rotated = fit_fn((x @ rot.T)[None])
            assert rotated.kappa_hat[0] == pytest.approx(base.kappa_hat[0], rel=1e-9)
            np.testing.assert_allclose(rotated.mu_hat[0], rot @ base.mu_hat[0], atol=1e-9)


def test_kappa_stein_positive_on_random_samples():
    rng = np.random.default_rng(36)
    for _ in range(10_000):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(3, 13))
        x = random_unit_rows(rng, n, d)
        assert kappa_stein(x[None]).kappa_hat[0] > 0.0


def test_stein2_equals_fb_first_equation_path():
    # with A constrained to zero the f1 estimating equation reads
    # L mu' = H, so (d-1)(I - S)^{-1} Xbar is computable from the
    # Fisher-Bingham statistics as well
    rng = np.random.default_rng(37)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        x = random_unit_rows(rng, 30, d)
        st = fb_statistics(x[None])
        mu_prime = np.linalg.solve(st.l_mat[0], st.h_vec[0])
        expected = (d - 1.0) * np.linalg.norm(
            np.linalg.solve(np.eye(d) - x.T @ x / 30, x.mean(axis=0))
        )
        assert np.linalg.norm(mu_prime) == pytest.approx(expected, rel=1e-12)
        assert kappa_stein2(x[None]).kappa_hat[0] == pytest.approx(expected, rel=1e-12)


def test_general_path_reduces_to_closed_form():
    rng = np.random.default_rng(38)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        x = random_unit_rows(rng, 25, d)
        general = kappa_stein_general(x, canonical_f1(d))
        assert general == pytest.approx(kappa_stein(x[None]).kappa_hat[0], rel=1e-12)


def test_empirical_variance_matches_theorem():
    # sqrt(n)(kappa_hat - kappa) has variance P; smoke version at modest reps
    d, kappa, n, reps = 3, 2.0, 2000, 300
    mu = np.ones(d) / math.sqrt(d)
    estimates = np.empty(reps)
    for rep in range(reps):
        x = sample_vmf(VmfParams(mu, kappa), n, 39, [rep])
        estimates[rep] = kappa_stein(x).kappa_hat[0]
    empirical = n * estimates.var(ddof=1)
    expected = stein_asymptotic_variance_vmf(d, kappa)
    assert empirical == pytest.approx(expected, rel=0.25)


# stacks: one call fits b samples --------------------------------------------

FITTERS = (kappa_stein, kappa_stein2, kappa_mle, kappa_score_matching)


def _vmf_stack(d, kappa, n, b, seed):
    mu = np.ones(d) / math.sqrt(d)
    return sample_vmf(VmfParams(mu, kappa), n, seed, range(b))


@pytest.mark.parametrize("code, fit_fn", zip(("st", "st2", "ml", "sm"), FITTERS))
@pytest.mark.parametrize("d, kappa, n", [(2, 0.5, 5), (3, 1.0, 100),
                                         (10, 10.0, 40), (3, 50.0, 7),
                                         (20, 5.0, 60)])
def test_stacked_fit_equals_single_fits_bitwise(code, fit_fn, d, kappa, n):
    stack = _vmf_stack(d, kappa, n, 16, seed=40 + d)
    fit = fit_fn(stack)
    assert fit.mu_hat.shape == (16, d) and fit.kappa_hat.shape == (16,)
    assert not fit.ne.any()
    np.testing.assert_array_equal(_mean_direction(stack), fit.mu_hat)
    for k, x in enumerate(stack):
        mu_loop, kappa_loop = vmf_fit_loop(x, code, bessel_ratio)
        assert fit.kappa_hat[k] == kappa_loop
        np.testing.assert_array_equal(fit.mu_hat[k], mu_loop)
    for value in fit.diagnostics.values():
        assert value.shape == (16,)


@pytest.mark.parametrize("d, kappa, n", [(3, 2.0, 100), (10, 10.0, 40)])
def test_prepared_fits_equal_raw_fits_bitwise(d, kappa, n):
    # every fit on one prepared sample, in turn, as a simulation block runs
    # them; none alters what the next one reads
    stack = _vmf_stack(d, kappa, n, 12, seed=60 + d)
    prepared = est_vmf.prepare_sample(stack)
    assert est_vmf.prepare_sample(prepared) is prepared
    for fit_fn in FITTERS:
        raw, fit = fit_fn(stack), fit_fn(prepared)
        np.testing.assert_array_equal(fit.kappa_hat, raw.kappa_hat)
        np.testing.assert_array_equal(fit.mu_hat, raw.mu_hat)
        np.testing.assert_array_equal(fit.ne, raw.ne)
        for name, value in raw.diagnostics.items():
            np.testing.assert_array_equal(fit.diagnostics[name], value)
    for name, value in vars(est_vmf.prepare_sample(stack)).items():
        np.testing.assert_array_equal(getattr(prepared, name), value)


def test_stein2_flags_singular_slices_of_a_stack():
    # all rows on the line through e1: S = e1 e1', so I - S is singular
    line = np.array([E3[0], E3[0], -E3[0], E3[0]])
    stack = _vmf_stack(3, 2.0, 4, 5, seed=41)
    stack[[1, 3]] = line
    fit = kappa_stein2(stack)
    np.testing.assert_array_equal(fit.ne, [False, True, False, True, False])
    assert np.isnan(fit.kappa_hat[[1, 3]]).all()
    for k in (0, 2, 4):
        assert fit_one("vmf", "st2", stack[k])["kappa"] == fit.kappa_hat[k]
    with pytest.raises(SingularSystem, match="I - mean"):
        fit_one("vmf", "st2", line)


def test_kappa_stein_at_extreme_concentration():
    # at kappa = 1e8 the ST denominator, of order (1 - mu'S mu)^2, is far
    # below 1e-14; only 1 - mu'S mu <= 1e-15 marks a degenerate sample
    x = sample_vmf(VmfParams(E3[2], 1e8), 200, 1)
    kappa = kappa_stein(x).kappa_hat[0]
    assert np.isfinite(kappa)
    assert kappa == pytest.approx(kappa_score_matching(x).kappa_hat[0], rel=1e-6)


def test_stack_input_validation():
    with pytest.raises(ValueError):
        kappa_stein(np.zeros((0, 5, 3)))
    with pytest.raises(ValueError):
        kappa_stein(np.ones((2, 5, 1)))
    stack = _vmf_stack(3, 2.0, 4, 3, seed=42)
    stack[2] = np.array([E3[0], -E3[0], E3[1], -E3[1]])
    # one degenerate slice fails the whole stack, as it fails on its own;
    # preparing it neither raises nor warns, and each fit still rejects it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prepared = est_vmf.prepare_sample(stack)
    assert np.isnan(prepared.mu_hat[2]).all()
    for fit_fn in FITTERS:
        for x in (stack, prepared):
            with pytest.raises(DegenerateMean):
                fit_fn(x)


def _resultant_grid():
    return np.concatenate([
        [1e-12, 1e-10, 1e-8, 1e-6],
        np.linspace(0.01, 0.99, 25),
        1.0 - np.logspace(-3, -15, 13),
        [np.nextafter(1.0, 0.0)],
    ])


@pytest.mark.parametrize("d", [2, 3, 10, 100])
def test_vectorised_mle_equals_scalar_newton_bitwise(d, monkeypatch):
    # at every d the ratio of small kappas (below d/10) comes from the
    # continued fraction
    fraction_calls = []
    ratio_over_kappa = special._ratio_over_kappa

    def counting(d, k):
        fraction_calls.append(k)
        return ratio_over_kappa(d, k)

    monkeypatch.setattr(special, "_ratio_over_kappa", counting)
    r = _resultant_grid()
    kappa, iterations = est_vmf._mle_from_resultant(d, r.copy())
    for k, rk in enumerate(r):
        expected, its = mle_newton_scalar(d, float(rk), special.bessel_ratio)
        assert kappa[k] == expected
        assert iterations[k] == its
    assert any(np.any(k < 1e-3) for k in fraction_calls)


@pytest.mark.parametrize("d", [2, 3, 10])
def test_vectorised_mle_bracket_expansion_equals_scalar(d, monkeypatch):
    # With the true ratio the rational initial guess keeps the root inside
    # the first bracket [1e-10, max(1e6, 4 kappa0)] on every r above, so
    # the link is stretched beyond kappa = 1e6 to make the bracket grow.
    true_ratio = special.bessel_ratio

    def stretched(d, kappa):
        k = np.asarray(kappa)
        return true_ratio(d, np.where(k < 1e6, k, k / 64.0)[()])

    monkeypatch.setattr(special, "bessel_ratio", stretched)
    r = 1.0 - np.array([1e-6, 2e-6, 4e-6, 8e-6]) * (d - 1)
    kappa, iterations = est_vmf._mle_from_resultant(d, r.copy())
    for k, rk in enumerate(r):
        kappa0 = rk * (d - rk * rk) / (1.0 - rk * rk)
        assert stretched(d, max(1e6, 4.0 * kappa0)) < rk  # the bracket grows
        expected, its = mle_newton_scalar(d, float(rk), stretched)
        assert kappa[k] == expected
        assert iterations[k] == its
