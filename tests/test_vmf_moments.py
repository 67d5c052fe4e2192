import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherestein import special
from spherestein.models import VmfParams
from spherestein.sampler import sample_vmf
from spherestein.est_vmf import (
    fisher_information_vmf,
    stein_asymptotic_variance_vmf,
)

from oracles import (
    bessel_i_half,
    bessel_i_three_halves,
    bessel_ratio_ladder,
    delta_method_variance_vmf,
    vmf_moments,
)

GRID_D = (2, 3, 5, 10, 20)
GRID_KAPPA = (0.5, 1.0, 2.0, 10.0, 50.0)


def _unit(d, direction=0):
    mu = np.zeros(d)
    mu[direction] = 1.0
    return mu


def test_second_moment_trace_is_one():
    for d in GRID_D:
        for kappa in GRID_KAPPA:
            moments = vmf_moments(VmfParams(_unit(d), kappa))
            assert np.trace(moments.second_moment) == pytest.approx(1.0, abs=1e-12)


def test_mean_resultant_closed_form_d3():
    moments = vmf_moments(VmfParams(_unit(3), 1.0))
    expected = bessel_i_three_halves(1.0) / bessel_i_half(1.0)
    assert np.linalg.norm(moments.mean) == pytest.approx(expected, rel=1e-10)
    assert expected == pytest.approx(0.3130352854993314, rel=1e-9)


def test_moment_blocks_match_monte_carlo():
    params = VmfParams(np.array([0.0, 0.6, 0.8]), 2.0)
    n = 1_000_000
    x = sample_vmf(params, n, 30)[0]
    moments = vmf_moments(params)

    xbar = x.mean(axis=0)
    se_mean = x.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(xbar - moments.mean) <= 4 * se_mean + 1e-12)

    w = (x[:, :, None] * x[:, None, :]).reshape(n, 9)
    second_mc = w.mean(axis=0)
    se_second = w.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(
        np.abs(second_mc - moments.second_moment.flatten()) <= 4 * se_second + 1e-12
    )

    # variance blocks: compare against empirical covariances entrywise
    var_x_mc = np.cov(x.T, ddof=1)
    # SE of a covariance entry is ~ sqrt(2/n) on these scales; use a safe bound
    assert np.max(np.abs(var_x_mc - moments.var_x)) <= 6.0 / math.sqrt(n)

    w_vec = np.column_stack([x[:, j] * x[:, i] for j in range(3) for i in range(3)])
    var_vec_mc = np.cov(w_vec.T, ddof=1)
    assert np.max(np.abs(var_vec_mc - moments.var_vec_xxt)) <= 6.0 / math.sqrt(n)

    cross_mc = np.empty((3, 9))
    for i in range(3):
        for p in range(9):
            cross_mc[i, p] = np.mean(
                (x[:, i] - xbar[i]) * (w_vec[:, p] - w_vec[:, p].mean())
            )
    assert np.max(np.abs(cross_mc - moments.cross_cov)) <= 6.0 / math.sqrt(n)


def test_variance_blocks_symmetric_psd():
    for d in (2, 3, 10):
        for kappa in (0.5, 2.0, 10.0):
            moments = vmf_moments(VmfParams(_unit(d), kappa))
            for block in (moments.var_x, moments.var_vec_xxt):
                np.testing.assert_allclose(block, block.T, atol=1e-10)
                eigvals = np.linalg.eigvalsh(block)
                assert eigvals.min() >= -1e-8


def test_fisher_information_d3_k1():
    # oracle: 1 - rho^2 - 2 rho with rho from the half-integer closed forms
    rho = bessel_i_three_halves(1.0) / bessel_i_half(1.0)
    expected = 1.0 - rho * rho - 2.0 * rho
    assert fisher_information_vmf(3, 1.0) == pytest.approx(expected, rel=1e-9)
    assert expected == pytest.approx(0.2759383390336903, rel=1e-9)


def test_fisher_information_positive_on_grid():
    for d in GRID_D:
        for kappa in (0.1, 0.5, 1.0, 2.0, 10.0, 50.0):
            assert fisher_information_vmf(d, kappa) > 0.0


def test_fisher_information_small_kappa_limit():
    # I(kappa) -> 1/d as kappa -> 0
    assert fisher_information_vmf(3, 1e-3) == pytest.approx(1.0 / 3.0, abs=1e-5)
    assert fisher_information_vmf(10, 1e-3) == pytest.approx(0.1, abs=1e-5)


def test_asymptotics_near_zero_kappa():
    # I -> 1/d and P -> d as kappa -> 0, from rho = R1 / kappa -> 1/d, for
    # as long as R1 = kappa rho is a normal float
    for d in (2, 3):
        assert fisher_information_vmf(d, 1e-300) == pytest.approx(1.0 / d, abs=1e-12)
        assert stein_asymptotic_variance_vmf(d, 1e-300) == pytest.approx(d, abs=1e-12)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 50), st.floats(-323.0, 308.0))
def test_asymptotics_finite_or_value_error(d, log_kappa):
    # over the whole float range of kappa each asymptotic is a finite
    # number or a ValueError of its own, never a ZeroDivisionError, an
    # OverflowError or a math domain error
    kappa = 10.0 ** log_kappa
    for fn in (fisher_information_vmf, stein_asymptotic_variance_vmf):
        try:
            value = fn(d, kappa)
        except ValueError as exc:
            assert "domain" not in str(exc), (fn.__name__, d, kappa)
        else:
            assert math.isfinite(value) and value >= 0.0, (fn.__name__, d, kappa)


def _mp_ratio(d, kappa):
    # kappa and I_{d/2}(kappa) / I_{d/2-1}(kappa) at the working precision
    nu = mpmath.mpf(d) / 2 - 1
    k = mpmath.mpf(float(kappa))
    return k, mpmath.besseli(nu + 1, k) / mpmath.besseli(nu, k)


# at d = 200 and 500 the scaled Bessel value ive(d/2 - 1, kappa) underflows
# for the small kappas, so the ratio comes from the continued fraction there
MPMATH_SPOT_KAPPA = (0.05, 5.0)


@pytest.mark.parametrize("d", [2, 3, 10, 50, 200, 500])
def test_fisher_information_matches_mpmath(d):
    # 1 - R1^2 - (d-1) R1 / kappa at 40 digits; in double precision the
    # difference cancels as kappa grows (it is about (d-1) / (2 kappa^2))
    mpmath.mp.dps = 40
    grid = [(kappa, 1e-9) for kappa in np.logspace(-3, 8, 67)]
    grid += [(kappa, 1e-10) for kappa in MPMATH_SPOT_KAPPA]
    for kappa, tol in grid:
        k, ratio = _mp_ratio(d, kappa)
        expected = 1 - ratio * ratio - (d - 1) * ratio / k
        got = fisher_information_vmf(d, float(kappa))
        assert abs(got - expected) <= tol * expected, (d, kappa)


@pytest.mark.parametrize("d", [2, 3, 10, 50, 200, 500])
def test_asymptotic_variance_matches_mpmath(d):
    # P = kappa (2 kappa - (d+1) R1) / ((d-1) R1^2) at 40 digits
    mpmath.mp.dps = 40
    for kappa in MPMATH_SPOT_KAPPA:
        k, ratio = _mp_ratio(d, kappa)
        expected = k * (2 * k - (d + 1) * ratio) / ((d - 1) * ratio * ratio)
        got = stein_asymptotic_variance_vmf(d, kappa)
        assert abs(got - expected) <= 1e-10 * expected, (d, kappa)


def test_asymptotic_variance_d3_k1():
    # plug the half-integer closed forms into the displayed formula
    i_low, i_high = bessel_i_half(1.0), bessel_i_three_halves(1.0)
    expected = i_low * (2.0 * i_low - 4.0 * i_high) / (2.0 * i_high**2)
    assert stein_asymptotic_variance_vmf(3, 1.0) == pytest.approx(expected, rel=1e-9)
    assert expected == pytest.approx(3.8159533598900883, rel=1e-9)


def test_efficiency_bound_on_grid():
    # the ML variance bound 1/I(kappa) never exceeds P
    for d in GRID_D:
        for kappa in GRID_KAPPA:
            p_var = stein_asymptotic_variance_vmf(d, kappa)
            inverse_info = 1.0 / fisher_information_vmf(d, kappa)
            assert p_var >= inverse_info - 1e-10 * inverse_info
    assert stein_asymptotic_variance_vmf(3, 1.0) >= 1.0 / fisher_information_vmf(3, 1.0)


def test_delta_method_equals_closed_form_on_grid():
    for d in GRID_D:
        for kappa in GRID_KAPPA:
            closed = stein_asymptotic_variance_vmf(d, kappa)
            assembled = delta_method_variance_vmf(VmfParams(_unit(d), kappa))
            assert assembled == pytest.approx(closed, rel=1e-8)


def test_variance_invariant_under_direction():
    for d in (3, 10):
        mu_flat = np.ones(d) / math.sqrt(d)
        a = delta_method_variance_vmf(VmfParams(_unit(d), 2.0))
        b = delta_method_variance_vmf(VmfParams(mu_flat, 2.0))
        assert a == pytest.approx(b, rel=1e-10)


def test_derivative_rows_match_finite_differences():
    # the delta-method derivative rows, checked against central differences
    # of the plug-in map G(Z, z) at the true moments
    d, kappa = 3, 2.0
    mu = np.array([0.0, 0.6, 0.8])
    params = VmfParams(mu, kappa)
    moments = vmf_moments(params)
    r1 = bessel_ratio_ladder(d, kappa)[0]

    def g_fn(z_mat, z_vec):
        ell = z_vec / np.linalg.norm(z_vec)
        resid = np.eye(d) - z_mat
        return (
            (d - 1.0)
            * float(ell @ resid @ z_vec)
            / float(ell @ resid @ resid @ ell)
        )

    z0 = moments.second_moment
    v0 = moments.mean
    assert g_fn(z0, v0) == pytest.approx(kappa, rel=1e-12)

    step = 1e-6
    fd_p1 = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            dz = np.zeros((d, d))
            dz[i, j] = step
            fd_p1[i, j] = (g_fn(z0 + dz, v0) - g_fn(z0 - dz, v0)) / (2 * step)
    expected_p1 = (kappa**2 / ((d - 1.0) * r1)) * np.outer(mu, mu)
    # vec ordering is immaterial here by symmetry of mu mu'
    np.testing.assert_allclose(fd_p1, expected_p1, atol=1e-4)

    fd_p2 = np.zeros(d)
    for i in range(d):
        dv = np.zeros(d)
        dv[i] = step
        fd_p2[i] = (g_fn(z0, v0 + dv) - g_fn(z0, v0 - dv)) / (2 * step)
    expected_p2 = (kappa / r1) * mu
    np.testing.assert_allclose(fd_p2, expected_p2, atol=1e-4)


def test_moments_require_positive_kappa():
    with pytest.raises(ValueError):
        fisher_information_vmf(3, 0.0)
    with pytest.raises(ValueError):
        stein_asymptotic_variance_vmf(3, -1.0)
    # below d = 2 too, on both sides of the large-kappa switch at 30 + d;
    # and where R1 is no longer a normal float
    for fn in (fisher_information_vmf, stein_asymptotic_variance_vmf):
        for d in (0, 1):
            for kappa in (10.0, 100.0):
                with pytest.raises(ValueError):
                    fn(d, kappa)
        for kappa in (1e-320, 5e-324):
            with pytest.raises(ValueError, match="not a normal float"):
                fn(3, kappa)
        # a d beyond the float range: 0.5 * d raised OverflowError
        with pytest.raises(ValueError, match="^dimension d is beyond the float range$"):
            fn(10**400, 1.0)
        # a kappa that is not finite: inf gave I = 0.0 and a ZeroDivisionError
        for d in (2, 3, 50):
            for kappa in (math.inf, math.nan):
                with pytest.raises(ValueError, match="kappa must be finite"):
                    fn(d, kappa)


@pytest.mark.parametrize("d", [2, 3, 10, 50])
def test_fisher_information_refuses_a_subnormal_value(d):
    # far out, I ~ (d - 1) / (2 kappa^2) underflows: it was a subnormal
    # (1e-320 at d = 3, kappa = 1e160) or 0.0, so 1/I was inf or raised
    for kappa in (1e160, 1e170, 1e300):
        with pytest.raises(ValueError, match=r"^I = .* is not a normal float$"):
            fisher_information_vmf(d, kappa)
        with pytest.raises(ValueError, match="P overflows"):
            stein_asymptotic_variance_vmf(d, kappa)
    # a normal value keeps its bits
    assert fisher_information_vmf(3, 1e150) == 1e-300


def test_unsettled_expansion_is_nan(monkeypatch):
    # terms c_m kappa^-m that do not shrink leave both orders unsettled
    # after 200 terms: each is NaN, and the Fisher information refuses it.
    # kappa is above the switch at 30 + d, and kappa^200 is finite
    kappa = 33.0
    monkeypatch.setattr(special, "ratio_series_coefficients",
                        lambda d: (kappa ** m for m in itertools.count(1)))
    for order in (0, 1):
        assert math.isnan(special.large_kappa_expansion(3, kappa, order))
    with pytest.raises(ValueError, match="did not settle"):
        fisher_information_vmf(3, kappa)
