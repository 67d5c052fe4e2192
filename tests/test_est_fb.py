import math

import numpy as np
import pytest

from spherestein.est_fb import (
    fb_statistics,
    fb_stein_fit,
    fb_stein_residual,
)
from spherestein.linalg import SingularSystem, spectral_norm
from spherestein.models import (
    FisherBinghamParams,
    VmfParams,
    canonical_f1,
    canonical_f2,
    score,
)
from spherestein.sampler import RngState, sample_fb, sample_vmf

from oracles import (
    fb_blocks_loop,
    fb_statistics_generic,
    random_unit_rows,
    stein_mean_reference,
)

E3 = np.eye(3)
FIG6 = FisherBinghamParams(
    np.array([0.0, 3.0, 3.0]),
    np.array([[0.0, 0, 0], [0, 0, -3.0], [0, -3.0, 0]]),
)


def test_single_point_statistics():
    st = fb_statistics(np.array([E3[0]]))
    np.testing.assert_allclose(st.l_mat, np.diag([0.0, 1.0, 1.0]), atol=1e-15)
    np.testing.assert_allclose(st.h_vec, 2.0 * E3[0], atol=1e-15)
    np.testing.assert_allclose(st.d_vec, [4.0, 0, 0, -2.0, 0], atol=1e-15)


def test_statistic_shapes():
    x = random_unit_rows(np.random.default_rng(0), 20, 4)
    st = fb_statistics(x)
    q = 4 * 5 // 2
    assert st.m_prime.shape == (q - 1, q - 1)
    assert st.d_vec.shape == (q - 1,)
    assert st.e_mat.shape == (q - 1, 4)
    assert st.g_prime.shape == (4, q - 1)
    assert st.h_vec.shape == (4,)
    assert st.l_mat.shape == (4, 4)


def test_fast_path_equals_generic_path():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(3, 12))
        x = random_unit_rows(rng, n, d)
        fast = fb_statistics(x)
        slow = fb_statistics_generic(x)
        for name in ("m_prime", "d_vec", "e_mat", "g_prime", "h_vec", "l_mat"):
            np.testing.assert_allclose(
                getattr(fast, name), getattr(slow, name), atol=1e-12
            )


def test_fit_consistency_on_vmf_data():
    # FB(5 e1, 0) is vMF(e1, 5); at n = 1e5 both blocks are near truth
    truth = FisherBinghamParams(5.0 * E3[0], np.zeros((3, 3)))
    x = sample_vmf(VmfParams(E3[0], 5.0), 100_000, RngState(40))
    fit = fb_stein_fit(x)
    assert spectral_norm(fit.A_hat) < 0.15
    assert np.linalg.norm(fit.mu_hat - truth.mu) < 0.3
    assert fit.residual_norm <= 1e-8
    assert not fit.warnings


def test_fit_reference_config_weak_concentration():
    # mu = (0.5, 0, 0), A = 0 at n = 1000: over 200 replications the mean
    # parameter distances sit near 0.092 and 0.191 (checked to +-30%)
    truth = FisherBinghamParams(np.array([0.5, 0, 0]), np.zeros((3, 3)))
    mu_err, a_err = [], []
    for rep in range(200):
        x = sample_fb(truth, 1000, RngState(41, stream=rep))
        fit = fb_stein_fit(x)
        mu_err.append(np.linalg.norm(fit.mu_hat - truth.mu))
        a_err.append(spectral_norm(fit.A_hat - truth.A))
    assert np.mean(mu_err) == pytest.approx(0.092, rel=0.30)
    assert np.mean(a_err) == pytest.approx(0.191, rel=0.30)


def test_single_point_fit_is_singular():
    with pytest.raises(SingularSystem):
        fb_stein_fit(np.array([E3[0]]))


def test_underdetermined_sample_is_singular():
    # fewer points than unknowns cannot produce full-rank statistics
    x = random_unit_rows(np.random.default_rng(2), 2, 3)
    with pytest.raises(SingularSystem):
        fb_stein_fit(x)


def test_residual_zero_at_fit_and_small_at_truth():
    x = sample_fb(FIG6, 100_000, RngState(42))
    fit = fb_stein_fit(x)
    fitted = FisherBinghamParams(fit.mu_hat, fit.A_hat)
    assert np.linalg.norm(fb_stein_residual(fitted, x)) <= 1e-8

    # at the true parameters the residual is a mean of iid operator values
    f1, f2 = canonical_f1(3), canonical_f2(3)
    per_point = []
    for row in x[:20_000]:
        proj = np.eye(3) - np.outer(row, row)
        val1 = -2.0 * row + proj @ score(FIG6, row)
        jac2 = f2.jacobian(row)
        val2 = (
            -2.0 * (jac2 @ row)
            - f2.hessian_rows(row) @ np.kron(row, row)
            + f2.laplacian(row)
            + jac2 @ (proj @ score(FIG6, row))
        )
        per_point.append(np.concatenate([val1, val2]))
    per_point = np.array(per_point)
    se = per_point.std(axis=0, ddof=1) / math.sqrt(per_point.shape[0])
    residual_truth = fb_stein_residual(FIG6, x[:20_000])
    assert np.all(np.abs(residual_truth) <= 4 * se + 1e-12)

    # a perturbed parameter point has a strictly larger residual than the fit
    bumped = FisherBinghamParams(FIG6.mu + 0.05, FIG6.A)
    assert np.linalg.norm(fb_stein_residual(bumped, x)) > np.linalg.norm(
        fb_stein_residual(fitted, x)
    )


def test_residual_matches_reference_operator_means():
    params = FisherBinghamParams(np.array([0.3, -0.2, 0.9]),
                                 np.array([[0.5, 0.1, 0], [0.1, -0.3, 0.4],
                                           [0, 0.4, 0.0]]))
    x = random_unit_rows(np.random.default_rng(3), 60, 3)
    sc = lambda p: score(params, p)
    ref = np.concatenate([
        stein_mean_reference(sc, canonical_f1(3), x),
        stein_mean_reference(sc, canonical_f2(3), x),
    ])
    np.testing.assert_allclose(fb_stein_residual(params, x), ref, atol=1e-12)


def test_consistency_ladder():
    # errors shrink along n = 500 -> 2000 -> 8000 (averaged over seeds)
    sizes = (500, 2000, 8000)
    errs = {n: [] for n in sizes}
    for seed in range(5):
        for n in sizes:
            x = sample_fb(FIG6, n, RngState(43 + seed))
            fit = fb_stein_fit(x[:n])
            errs[n].append(
                np.linalg.norm(fit.mu_hat - FIG6.mu)
                + spectral_norm(fit.A_hat - FIG6.A)
            )
    means = [np.mean(errs[n]) for n in sizes]
    assert means[2] < means[0]
    assert means[1] < 1.25 * means[0]
    assert means[2] < 1.25 * means[1]


def test_permutation_contract():
    # permutations fixing the last coordinate commute with the estimator;
    # permutations moving it generally do not (the A[d,d] = 0 constraint
    # pins the frame)
    x = sample_fb(FIG6, 5000, RngState(48))
    fit = fb_stein_fit(x)

    swap01 = np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, 1]])
    fit_perm = fb_stein_fit(x @ swap01.T)
    np.testing.assert_allclose(fit_perm.mu_hat, swap01 @ fit.mu_hat, atol=1e-8)
    np.testing.assert_allclose(
        fit_perm.A_hat, swap01 @ fit.A_hat @ swap01.T, atol=1e-8
    )

    swap02 = np.array([[0.0, 0, 1], [0, 1, 0], [1, 0, 0]])
    fit_moved = fb_stein_fit(x @ swap02.T)
    assert np.linalg.norm(fit_moved.A_hat - swap02 @ fit.A_hat @ swap02.T) > 1e-3


def test_statistics_affine_in_sample():
    # statistics of a concatenated sample are the weighted chunk averages
    rng = np.random.default_rng(4)
    x1 = random_unit_rows(rng, 30, 3)
    x2 = random_unit_rows(rng, 50, 3)
    whole = fb_statistics(np.vstack([x1, x2]))
    part1, part2 = fb_statistics(x1), fb_statistics(x2)
    w1, w2 = 30 / 80, 50 / 80
    for name in ("m_prime", "d_vec", "e_mat", "g_prime", "h_vec", "l_mat"):
        np.testing.assert_allclose(
            getattr(whole, name),
            w1 * getattr(part1, name) + w2 * getattr(part2, name),
            atol=1e-12,
        )


def test_identification_warning_for_extreme_concentration():
    # data this concentrated sits on the near-nonidentifiable plateau
    x = sample_vmf(VmfParams(E3[0], 40.0), 1000, RngState(49))
    fit = fb_stein_fit(x)
    assert fit.warnings and "identification" in fit.warnings[0]


@pytest.mark.parametrize("d", [2, 3, 5, 10])
def test_blocks_equal_loop_oracle_bitwise(d):
    rng = np.random.default_rng(200 + d)
    for n in (3, 60):
        x = random_unit_rows(rng, n, d)
        st, loop = fb_statistics(x), fb_blocks_loop(x)
        for name, block in loop.items():
            np.testing.assert_array_equal(getattr(st, name), block)
