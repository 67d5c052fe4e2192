import math

import numpy as np
import pytest

from spherestein.est_fb import (
    fb_statistics,
    fb_stein_fit,
    fb_stein_residual,
)
from spherestein import models
from spherestein.families import fit_one
from spherestein.linalg import COND_LIMIT, SingularSystem
from spherestein.models import FisherBinghamParams, VmfParams
from spherestein.sampler import sample_fb, sample_vmf

from oracles import (
    canonical_f1,
    canonical_f2,
    fb_blocks_loop,
    fb_statistics_generic,
    random_unit_rows,
    score,
    stein_mean_reference,
)

E3 = np.eye(3)
FIG6 = FisherBinghamParams(
    np.array([0.0, 3.0, 3.0]),
    np.array([[0.0, 0, 0], [0, 0, -3.0], [0, -3.0, 0]]),
)


def _statistics(x):
    # the blocks of one sample, as slice 0 of a stack of one
    st = fb_statistics(x[None])
    return {name: block[0] for name, block in vars(st).items()}


def test_single_point_statistics():
    st = _statistics(np.array([E3[0]]))
    np.testing.assert_allclose(st["l_mat"], np.diag([0.0, 1.0, 1.0]), atol=1e-15)
    np.testing.assert_allclose(st["h_vec"], 2.0 * E3[0], atol=1e-15)
    np.testing.assert_allclose(st["d_vec"], [4.0, 0, 0, -2.0, 0], atol=1e-15)


def test_statistic_shapes():
    x = random_unit_rows(np.random.default_rng(0), 40, 4).reshape(2, 20, 4)
    st = fb_statistics(x)
    q = 4 * 5 // 2
    assert st.m_prime.shape == (2, q - 1, q - 1)
    assert st.d_vec.shape == (2, q - 1)
    assert st.e_mat.shape == (2, q - 1, 4)
    assert st.g_prime.shape == (2, 4, q - 1)
    assert st.h_vec.shape == (2, 4)
    assert st.l_mat.shape == (2, 4, 4)


def test_fast_path_equals_generic_path():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(3, 12))
        x = random_unit_rows(rng, n, d)
        fast = _statistics(x)
        slow = fb_statistics_generic(x)
        for name in ("m_prime", "d_vec", "e_mat", "g_prime", "h_vec", "l_mat"):
            np.testing.assert_allclose(fast[name], getattr(slow, name), atol=1e-12)


def test_fit_consistency_on_vmf_data():
    # FB(5 e1, 0) is vMF(e1, 5); at n = 1e5 both blocks are near truth
    truth = FisherBinghamParams(5.0 * E3[0], np.zeros((3, 3)))
    x = sample_vmf(VmfParams(E3[0], 5.0), 100_000, 40)[0]
    fit = fit_one("fb", "st", x)
    assert np.linalg.norm(fit["A"], 2) < 0.15
    assert np.linalg.norm(fit["mu"] - truth.mu) < 0.3
    assert fit["residual_norm"] <= 1e-8
    assert not fit["warnings"]


def test_fit_reference_config_weak_concentration():
    # mu = (0.5, 0, 0), A = 0 at n = 1000: over 200 replications the mean
    # parameter distances sit near 0.092 and 0.191 (checked to +-30%)
    truth = FisherBinghamParams(np.array([0.5, 0, 0]), np.zeros((3, 3)))
    stack = sample_fb(truth, 1000, 41, range(200))
    fit = fb_stein_fit(stack)
    mu_err = np.linalg.norm(fit.mu_hat - truth.mu, axis=1)
    a_err = np.linalg.norm(fit.A_hat - truth.A, 2, axis=(1, 2))
    assert np.mean(mu_err) == pytest.approx(0.092, rel=0.30)
    assert np.mean(a_err) == pytest.approx(0.191, rel=0.30)


def test_single_point_fit_is_singular():
    with pytest.raises(SingularSystem, match="M'"):
        fit_one("fb", "st", np.array([E3[0]]))
    assert fb_stein_fit(np.array([[E3[0]]])).ne[0]


def test_underdetermined_sample_is_singular():
    # fewer points than unknowns cannot produce full-rank statistics
    x = random_unit_rows(np.random.default_rng(2), 2, 3)
    with pytest.raises(SingularSystem):
        fit_one("fb", "st", x)


def test_schur_complement_singular_sample_is_named():
    # M' is well conditioned on these three points of the circle, the
    # Schur complement L - G'(M')^{-1}E is not
    x = np.array([[-0.9747604026711395, 0.22325357194096129],
                  [0.96538817585803427, -0.26081731137617609],
                  [-0.63745969721300788, -0.77048370159861279]])
    fit = fb_stein_fit(x[None])
    assert fit.ne[0] and fit.cond_m_prime[0] < 1e3 < 1e12 < fit.cond_schur[0]
    with pytest.raises(SingularSystem) as err:
        fit_one("fb", "st", x)
    assert err.value.name == "Schur complement"
    assert err.value.cond == fit.cond_schur[0]


def _residual(params, x):
    return fb_stein_residual(params, x[None])[0]


def test_residual_zero_at_fit_and_small_at_truth():
    x = sample_fb(FIG6, 100_000, 42)[0]
    fit = fit_one("fb", "st", x)
    fitted = FisherBinghamParams(fit["mu"], fit["A"])
    assert np.linalg.norm(_residual(fitted, x)) <= 1e-8

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
    residual_truth = _residual(FIG6, x[:20_000])
    assert np.all(np.abs(residual_truth) <= 4 * se + 1e-12)

    # a perturbed parameter point has a strictly larger residual than the fit
    bumped = FisherBinghamParams(FIG6.mu + 0.05, FIG6.A)
    assert np.linalg.norm(_residual(bumped, x)) > np.linalg.norm(
        _residual(fitted, x)
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
    np.testing.assert_allclose(_residual(params, x), ref, atol=1e-12)


def test_consistency_ladder():
    # errors shrink along n = 500 -> 2000 -> 8000 (averaged over seeds)
    sizes = (500, 2000, 8000)
    errs = {n: [] for n in sizes}
    for seed in range(5):
        for n in sizes:
            x = sample_fb(FIG6, n, 43 + seed)[0]
            fit = fit_one("fb", "st", x[:n])
            errs[n].append(
                np.linalg.norm(fit["mu"] - FIG6.mu)
                + np.linalg.norm(np.array(fit["A"]) - FIG6.A, 2)
            )
    means = [np.mean(errs[n]) for n in sizes]
    assert means[2] < means[0]
    assert means[1] < 1.25 * means[0]
    assert means[2] < 1.25 * means[1]


def test_permutation_contract():
    # permutations fixing the last coordinate commute with the estimator;
    # permutations moving it generally do not (the A[d,d] = 0 constraint
    # pins the frame)
    x = sample_fb(FIG6, 5000, 48)
    swap01 = np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, 1]])
    swap02 = np.array([[0.0, 0, 1], [0, 1, 0], [1, 0, 0]])
    fit, fit_perm, fit_moved = (fb_stein_fit(y) for y in (x, x @ swap01.T, x @ swap02.T))
    np.testing.assert_allclose(fit_perm.mu_hat[0], swap01 @ fit.mu_hat[0], atol=1e-8)
    np.testing.assert_allclose(
        fit_perm.A_hat[0], swap01 @ fit.A_hat[0] @ swap01.T, atol=1e-8
    )
    assert np.linalg.norm(fit_moved.A_hat[0] - swap02 @ fit.A_hat[0] @ swap02.T) > 1e-3


def test_statistics_affine_in_sample():
    # statistics of a concatenated sample are the weighted chunk averages
    rng = np.random.default_rng(4)
    x1 = random_unit_rows(rng, 30, 3)
    x2 = random_unit_rows(rng, 50, 3)
    whole = _statistics(np.vstack([x1, x2]))
    part1, part2 = _statistics(x1), _statistics(x2)
    w1, w2 = 30 / 80, 50 / 80
    for name in ("m_prime", "d_vec", "e_mat", "g_prime", "h_vec", "l_mat"):
        np.testing.assert_allclose(
            whole[name], w1 * part1[name] + w2 * part2[name], atol=1e-12,
        )


def test_identification_warning_for_extreme_concentration():
    # data this concentrated sits on the near-nonidentifiable plateau
    x = sample_vmf(VmfParams(E3[0], 40.0), 1000, 49)[0]
    warnings = fit_one("fb", "st", x)["warnings"]
    assert len(warnings) == 1 and warnings[0].startswith(
        "identification: parameter norms are large (|mu| = ")


@pytest.mark.parametrize("d", [2, 3, 5, 10])
def test_blocks_equal_loop_oracle_bitwise(d):
    rng = np.random.default_rng(200 + d)
    for n in (3, 60, 1000):
        x = random_unit_rows(rng, n, d)
        st, loop = _statistics(x), fb_blocks_loop(x)
        for name, block in loop.items():
            np.testing.assert_array_equal(st[name], block)


@pytest.mark.parametrize("b,n,d", [(1, 1000, 10), (5, 1000, 3), (1, 2000, 10),
                                   (2, 200, 20), (3, 1, 4), (3, 3, 4)])
def test_third_moment_blocks_equal_sequential_loop_bitwise(b, n, d):
    # the third moment adds (x_i x_j) x_k over the points one at a time,
    # in order; a blocked or SIMD-split sum (matmul, optimize=True, the
    # transposed operands) changes the last bits of E and G'
    stack = random_unit_rows(np.random.default_rng(b * n * d), b * n, d)
    stack = stack.reshape(b, n, d)
    st = fb_statistics(stack)
    for k, x in enumerate(stack):
        loop, one = fb_blocks_loop(x), _statistics(x)
        for name in ("e_mat", "g_prime"):
            np.testing.assert_array_equal(getattr(st, name)[k], loop[name])
            np.testing.assert_array_equal(one[name], loop[name])


@pytest.mark.parametrize("d", [3, 5, 10])
def test_stacked_statistics_equal_single_statistics_bitwise(d):
    # each block of a stack is C-contiguous per slice: the solves and
    # products of the fit round a strided slice differently
    stack = random_unit_rows(np.random.default_rng(300 + d), 4 * 80, d)
    stack = stack.reshape(4, 80, d)
    st = fb_statistics(stack)
    for k, x in enumerate(stack):
        one = _statistics(x)
        for name in ("m_prime", "d_vec", "e_mat", "g_prime", "h_vec", "l_mat"):
            block = getattr(st, name)
            assert block.shape == (4, *one[name].shape)
            assert block[k].flags.c_contiguous, name
            np.testing.assert_array_equal(block[k], one[name])


@pytest.mark.parametrize("work_bytes", [1, 2**30])
def test_statistics_equal_for_any_working_size(monkeypatch, work_bytes):
    # by default a (6, 80, 10) stack's blocks are assembled for five slices
    # and then one, from moments built in groups of two slices and one; one
    # slice per group, or one group, gives the same six blocks
    stack = random_unit_rows(np.random.default_rng(310), 6 * 80, 10).reshape(6, 80, 10)
    expected = fb_statistics(stack)
    monkeypatch.setattr(models, "WORK_BYTES", work_bytes)
    got = fb_statistics(stack)
    for name, block in vars(expected).items():
        assert getattr(got, name).flags.c_contiguous, name
        np.testing.assert_array_equal(getattr(got, name), block)


def test_stacked_fit_equals_single_fits_and_books_singular_slices():
    d10 = FisherBinghamParams(np.full(10, 1.0), np.zeros((10, 10)))
    for d, n, truth in ((3, 60, FIG6), (10, 300, d10)):
        stack = sample_fb(truth, n, 43, range(5))
        stack[2] = np.eye(d)[0]  # one point repeated: M' is singular
        fit = fb_stein_fit(stack)
        np.testing.assert_array_equal(fit.ne, [False, False, True, False, False])
        assert np.isnan(fit.mu_hat[2]).all() and np.isnan(fit.A_hat[2]).all()
        assert np.isnan(fit.residual_norm[2])
        assert not fit.cond_m_prime[2] <= COND_LIMIT
        ok = ~fit.ne
        assert np.isfinite(fit.mu_hat[ok]).all() and np.isfinite(fit.A_hat[ok]).all()
        assert (fit.A_hat[ok, d - 1, d - 1] == 0.0).all()
        assert (fit.residual_norm[ok] <= 1e-8).all()
        assert (fit.cond_m_prime[ok] <= COND_LIMIT).all()
        assert (fit.cond_schur[ok] <= COND_LIMIT).all()
