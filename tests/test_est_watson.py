import math

import numpy as np
import pytest
from scipy import stats

from spherestein.est_watson import (
    NotEligible,
    _j_statistic,
    _select_branch,
    watson_axis,
    watson_mla_bounds,
    watson_mla_fit,
    watson_mle_fit,
    watson_mle_kappa,
    watson_statistics,
    watson_stein_fit,
    watson_stein_kappa,
)
from spherestein.models import WatsonParams
from spherestein.sampler import RngState, sample_uniform, sample_watson
from spherestein.special import kummer_ratio

from oracles import (
    fb_statistics_generic,
    grad_f2_by_hand_d3,
    j_statistic_loop,
    random_unit_rows,
)

E3 = np.eye(3)
FIXTURE = np.array([E3[0], E3[0], E3[1]])


def test_axis_examples():
    np.testing.assert_allclose(watson_axis(FIXTURE, "+"), E3[0], atol=1e-14)
    np.testing.assert_allclose(watson_axis(FIXTURE, "-"), E3[2], atol=1e-14)
    with pytest.raises(ValueError):
        watson_axis(FIXTURE, "plus")


def test_axis_deterministic_under_isotropy():
    # no meaningful axis in uniform data, but the output is reproducible
    x = sample_uniform(3, 100_000, RngState(50))
    first = watson_axis(x, "+")
    np.testing.assert_array_equal(first, watson_axis(x, "+"))
    assert np.linalg.norm(first) == pytest.approx(1.0)


def test_axis_alignment_bipolar():
    mu = np.array([0.0, 0.6, 0.8])
    x = sample_watson(WatsonParams(mu, 10.0), 100_000, RngState(51))
    assert abs(watson_axis(x, "+") @ mu) > 0.99


def test_stein_kappa_zero_for_exactly_isotropic_scatter():
    # basis vectors plus all cube corners: scatter is exactly I/3, V = 0,
    # while J stays away from zero
    corners = np.array([[sx, sy, sz] for sx in (-1.0, 1.0)
                        for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)])
    x = np.vstack([E3, -E3, corners / math.sqrt(3.0)])
    stats_w = watson_statistics(x)
    assert np.linalg.norm(stats_w.v_vec) < 1e-12
    assert np.linalg.norm(stats_w.j_plus) > 1e-3
    assert abs(watson_stein_kappa(x, "+")) < 1e-10


def _reference_v_and_j(x, mu):
    # direct arithmetic through the displayed matrices, d = 3 only
    hessians = []
    for (i, j) in [(0, 0), (1, 0), (2, 0), (1, 1), (2, 1)]:
        e = np.zeros((3, 3))
        e[i, j] += 1.0
        e[j, i] += 1.0
        hessians.append(e)
    lap = np.array([2.0, 0.0, 0.0, 2.0, 0.0])
    v_total = np.zeros(5)
    j_total = np.zeros(5)
    for row in x:
        grad = grad_f2_by_hand_d3(row)
        quad = np.array([row @ h @ row for h in hessians])
        v_total += 2.0 * (grad @ row) + quad - lap
        proj = np.eye(3) - np.outer(row, row)
        j_total += 2.0 * grad @ proj @ mu * float(mu @ row)
    return v_total / len(x), j_total / len(x)


def test_four_point_fixture_against_hand_oracle():
    x = np.array([
        [0.6, 0.8, 0.0],
        [0.0, 0.6, 0.8],
        [-0.8, 0.0, 0.6],
        [1.0, 0.0, 0.0],
    ])
    stats_w = watson_statistics(x)
    for branch, j_vec in (("+", stats_w.j_plus), ("-", stats_w.j_minus)):
        mu = watson_axis(x, branch)
        v_ref, j_ref = _reference_v_and_j(x, mu)
        np.testing.assert_allclose(stats_w.v_vec, v_ref, atol=1e-12)
        np.testing.assert_allclose(j_vec, j_ref, atol=1e-12)
        expected = float(j_ref @ v_ref) / float(j_ref @ j_ref)
        assert watson_stein_kappa(x, branch) == pytest.approx(expected, rel=1e-9)


def test_v_closed_form_equals_generic_three_term_path():
    # V coincides with the D statistic of the generic Fisher-Bingham path
    rng = np.random.default_rng(52)
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(3, 10))
        x = random_unit_rows(rng, n, d)
        v_vec = watson_statistics(x).v_vec
        d_vec = fb_statistics_generic(x).d_vec
        np.testing.assert_allclose(v_vec, d_vec, atol=1e-12)


def test_axis_flip_symmetry_is_exact():
    x = random_unit_rows(np.random.default_rng(53), 40, 3)
    plain = watson_statistics(x)
    flipped = watson_statistics(-x)
    np.testing.assert_array_equal(plain.v_vec, flipped.v_vec)
    np.testing.assert_array_equal(plain.j_plus, flipped.j_plus)
    fit_a, fit_b = watson_stein_fit(x), watson_stein_fit(-x)
    assert fit_a.kappa_hat == fit_b.kappa_hat
    np.testing.assert_array_equal(fit_a.mu_hat, fit_b.mu_hat)


def test_stein_consistency_bipolar():
    mu = np.ones(3) / math.sqrt(3)
    x = sample_watson(WatsonParams(mu, 10.0), 100_000, RngState(54))
    fit = watson_stein_fit(x)
    assert fit.branch == "+"
    assert abs(fit.kappa_hat - 10.0) < 0.2
    assert abs(fit.mu_hat @ mu) > 0.999


def test_selection_rule_cases():
    with pytest.raises(NotEligible):
        _select_branch(3.0, -2.0, 0.0, 0.0)
    assert _select_branch(-3.0, -2.0, 1.0, 9.9) == "-"
    assert _select_branch(3.0, 2.0, 9.9, 1.0) == "+"
    assert _select_branch(-3.0, 2.0, 0.5, 0.2) == "+"
    assert _select_branch(-3.0, 2.0, 0.2, 0.5) == "-"
    assert _select_branch(-3.0, 2.0, 0.4, 0.4) == "+"  # exact tie


def test_mla_bounds_examples():
    lower, upper = watson_mla_bounds(1.0 / 3.0, 0.5, 1.5)
    assert lower == pytest.approx(0.0, abs=1e-12)
    assert upper == pytest.approx(0.0, abs=1e-12)

    lower, upper = watson_mla_bounds(0.8, 0.5, 1.5)
    assert lower == pytest.approx(5.25, rel=1e-12)
    assert upper == pytest.approx(11.375, rel=1e-12)

    lower, upper = watson_mla_bounds(0.2, 0.5, 1.5)
    assert lower == pytest.approx(-2.25, rel=1e-12)
    assert upper == pytest.approx(-1.75, rel=1e-12)
    assert lower <= upper

    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            watson_mla_bounds(bad, 0.5, 1.5)


def test_mla_fixture():
    lower, upper = watson_mla_bounds(2.0 / 3.0, 0.5, 1.5)
    assert lower == pytest.approx(3.0, rel=1e-12)
    assert upper == pytest.approx(5.25, rel=1e-12)
    fit = watson_mla_fit(FIXTURE)
    assert fit.branch == "+"
    assert fit.kappa_hat == pytest.approx(4.125, rel=1e-12)


def test_mla_near_uniform_reports_zero():
    corners = np.array([[sx, sy, sz] for sx in (-1.0, 1.0)
                        for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)])
    x = np.vstack([E3, -E3, corners / math.sqrt(3.0)])
    fit = watson_mla_fit(x)
    assert abs(fit.kappa_hat) < 1e-10
    assert fit.warnings  # near-uniform flag


def test_mla_bracket_contains_mle():
    mu = np.ones(3) / math.sqrt(3)
    x = sample_watson(WatsonParams(mu, 10.0), 100_000, RngState(55))
    axis = watson_axis(x, "+")
    r = float(axis @ (x.T @ x / x.shape[0]) @ axis)
    lower, upper = watson_mla_bounds(r, 0.5, 1.5)
    kappa_ml = watson_mle_kappa(x, "+")
    assert lower < kappa_ml < upper
    fit = watson_mla_fit(x)
    assert fit.kappa_hat == pytest.approx(0.5 * (lower + upper), rel=1e-12)


def test_mle_zero_at_isotropic_r():
    x = np.vstack([E3])  # scatter = I/3 exactly, r = 1/d on every branch
    assert watson_mle_kappa(x, "+") == 0.0


def test_mle_bracketing_random_samples():
    rng = np.random.default_rng(56)
    for seed in range(20):
        kappa0 = float(rng.uniform(-15.0, 15.0))
        mu = random_unit_rows(rng, 1, 3)[0]
        x = sample_watson(WatsonParams(mu, kappa0), 500, RngState(57, stream=seed))
        branch = "+" if kappa0 >= 0 else "-"
        axis = watson_axis(x, branch)
        r = float(axis @ (x.T @ x / x.shape[0]) @ axis)
        lower, upper = watson_mla_bounds(r, 0.5, 1.5)
        kappa_ml = watson_mle_kappa(x, branch)
        assert lower - 1e-9 <= kappa_ml <= upper + 1e-9
        assert abs(kummer_ratio(0.5, 1.5, kappa_ml) - r) <= 1e-10


def test_mle_consistency_high_dimension():
    mu = np.ones(10) / math.sqrt(10)
    x = sample_watson(WatsonParams(mu, 20.0), 100_000, RngState(58))
    assert abs(watson_mle_kappa(x, "+") - 20.0) < 0.15
    fit = watson_mle_fit(x)
    assert fit.branch == "+"
    assert abs(fit.kappa_hat - 20.0) < 0.15


def test_branch_coherence():
    # the selected branch matches sign(kappa0) in >= 99% of replications
    for kappa0 in (10.0, -10.0):
        mu = np.ones(3) / math.sqrt(3)
        hits = 0
        for rep in range(200):
            x = sample_watson(WatsonParams(mu, kappa0), 100_000,
                              RngState(59, stream=rep))
            fit = watson_stein_fit(x)
            hits += (fit.branch == "+") == (kappa0 > 0)
        assert hits >= 198


def test_asymptotic_normality():
    # standardized estimates over many replications pass a normality test
    # at the 1% level and are centred
    mu = np.ones(3) / math.sqrt(3)
    kappa0, n, reps = 10.0, 2000, 2000
    estimates = np.empty(reps)
    for rep in range(reps):
        x = sample_watson(WatsonParams(mu, kappa0), n, RngState(60, stream=rep))
        estimates[rep] = watson_stein_fit(x).kappa_hat
    standardized = (estimates - estimates.mean()) / estimates.std(ddof=1)
    assert stats.normaltest(standardized).pvalue > 0.01
    se_mean = estimates.std(ddof=1) / math.sqrt(reps)
    assert abs(estimates.mean() - kappa0) <= 4 * se_mean


def test_zero_gram_raises():
    # all mass exactly on the axis makes J vanish
    x = np.array([E3[0], E3[0], -E3[0]])
    with pytest.raises(ValueError):
        watson_stein_kappa(x, "+")


@pytest.mark.parametrize("d", [2, 3, 5, 10])
def test_j_statistic_equals_loop_oracle_bitwise(d):
    rng = np.random.default_rng(100 + d)
    for n in (3, 40):
        x = random_unit_rows(rng, n, d)
        for mu in (random_unit_rows(rng, 1, d)[0], watson_axis(x, "-")):
            np.testing.assert_array_equal(_j_statistic(x, mu), j_statistic_loop(x, mu))
