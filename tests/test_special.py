import math

import mpmath
import numpy as np
import pytest
import scipy.special

from spherestein import special
from spherestein.special import bessel_ratio, kummer_moment, log_kummer_1f1

from oracles import (
    bessel_i,
    bessel_i_half,
    bessel_i_three_halves,
    log_bessel_i,
    newton_root_scalar,
    ratio_d3,
    series_1f1,
    series_bessel_i,
)


def test_bessel_at_zero():
    assert bessel_i(0.0, 0.0) == 1.0
    assert bessel_i(0.5, 0.0) == 0.0
    assert bessel_i(3.0, 0.0) == 0.0


def test_bessel_half_integer_closed_forms():
    assert bessel_i(0.5, 1.0) == pytest.approx(bessel_i_half(1.0), rel=1e-10)
    assert bessel_i(1.5, 1.0) == pytest.approx(bessel_i_three_halves(1.0), rel=1e-10)
    # the frozen values themselves
    assert bessel_i_half(1.0) == pytest.approx(0.9376748882454442, rel=1e-12)
    assert bessel_i_three_halves(1.0) == pytest.approx(0.2935253263474798, rel=1e-9)


def test_bessel_against_series_oracle():
    for nu in (0.0, 0.5, 1.0, 1.5, 2.0, 5.0, 12.5):
        for x in (0.1, 0.5, 1.0, 5.0, 12.0):
            assert bessel_i(nu, x) == pytest.approx(
                series_bessel_i(nu, x), rel=1e-10
            )


def test_bessel_domain_errors():
    with pytest.raises(ValueError):
        bessel_i(0.5, -1.0)
    with pytest.raises(ValueError):
        bessel_i(-0.5, 1.0)


def test_log_bessel_consistency():
    for nu in (0.0, 0.5, 4.0, 15.0):
        for x in (0.5, 2.0, 30.0):
            assert log_bessel_i(nu, x) == pytest.approx(
                math.log(bessel_i(nu, x)), rel=1e-12
            )


def test_log_bessel_large_argument():
    # closed form: log I_{1/2}(x) = x + log(1 - e^{-2x}) - 0.5 log(2 pi x)
    x = 400.0
    expected = x + math.log1p(-math.exp(-2 * x)) - 0.5 * math.log(2 * math.pi * x)
    assert log_bessel_i(0.5, x) == pytest.approx(expected, rel=1e-12)


def test_log_bessel_underflow_regime():
    # ive underflows here; the series fallback must take over
    val = log_bessel_i(30.0, 1e-9)
    expected = 30.0 * math.log(0.5e-9) - math.lgamma(31.0)
    assert val == pytest.approx(expected, rel=1e-12)


def test_bessel_ratio_closed_form_d3():
    assert bessel_ratio(3, 2.0) == pytest.approx(ratio_d3(2.0), rel=1e-10)
    assert ratio_d3(2.0) == pytest.approx(0.5373147207275482, rel=1e-12)


def test_bessel_ratio_small_kappa():
    # ratio ~ kappa/d from below as kappa -> 0
    for d in (2, 3, 10):
        for kappa in (1e-12, 1e-8, 1e-4):
            r = bessel_ratio(d, kappa)
            assert 0 < r < kappa / d * 1.0001
            assert r == pytest.approx(kappa / d, rel=1e-3)


def test_bessel_ratio_monotone_and_bounded():
    for d in (2, 3, 10, 20):
        grid = [0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 200.0]
        values = [bessel_ratio(d, k) for k in grid]
        assert all(0.0 < v < 1.0 for v in values)
        assert all(a < b for a, b in zip(values, values[1:]))
    assert bessel_ratio(10, 50.0) > bessel_ratio(10, 10.0)


def test_bessel_ratio_array_equals_scalar_calls_bitwise():
    # the small kappas at d = 100 take the power-series branch
    for d in (2, 3, 10, 100):
        kappa = np.concatenate([np.logspace(-12, 4, 33), [0.5, 7.0]])
        values = bessel_ratio(d, kappa)
        assert values.shape == kappa.shape
        for k, v in zip(kappa, values):
            assert bessel_ratio(d, float(k)) == v
    grid = np.array([[0.5, 1.0], [2.0, 4.0]])
    assert bessel_ratio(3, grid).shape == (2, 2)
    assert isinstance(bessel_ratio(3, 2.0), float)


def test_bessel_ratio_beyond_scaled_bessel_range():
    # scipy's ive is NaN from kappa near 2e9 on; the ratio there is summed
    # from its large-kappa expansion
    mpmath.mp.dps = 40
    for d in (2, 3, 10, 50):
        nu = mpmath.mpf(d) / 2 - 1
        for kappa in (2e9, 1e12, 1e100, 1e300):
            k = mpmath.mpf(kappa)
            expected = mpmath.besseli(nu + 1, k) / mpmath.besseli(nu, k)
            got = bessel_ratio(d, kappa)
            assert abs(got - expected) <= 1e-15 * expected, (d, kappa)
        values = bessel_ratio(d, np.array([1e9, 2e9, 1e300]))
        assert values[0] == bessel_ratio(d, 1e9)
        assert np.all(np.isfinite(values)) and np.all(np.diff(values) > 0)


@pytest.mark.parametrize("d", [2, 3, 10, 50, 100, 500])
def test_bessel_ratio_on_underflow_mask_matches_mpmath(d, monkeypatch):
    # where scipy's scaled Bessel values lose digits near the subnormal
    # range, R1 = kappa rho with rho = R1 / kappa from the continued
    # fraction; the mask reaches kappa = 2e-290 at d = 2, 1e-193 at d = 3
    # and 13 at d = 500, and R1 is a normal float on all this grid
    calls = []
    ratio_over_kappa = special._ratio_over_kappa

    def counting(d, k):
        calls.append(k)
        return ratio_over_kappa(d, k)

    monkeypatch.setattr(special, "_ratio_over_kappa", counting)
    mpmath.mp.dps = 40
    kappa = np.logspace(-300, 2, 152)
    ratio = bessel_ratio(d, kappa)
    (masked,) = calls
    assert masked.size >= 6
    nu = mpmath.mpf(d) / 2 - 1
    for k, got in zip(kappa, ratio):
        if k in masked:
            km = mpmath.mpf(k)
            expected = mpmath.besseli(nu + 1, km) / mpmath.besseli(nu, km)
            assert abs(got - expected) <= 1e-15 * expected, (d, k)


@pytest.mark.parametrize("d", [2, 3, 10, 50])
def test_bessel_ratio_below_a_tenth_of_d_matches_mpmath(d):
    # below kappa = d/10 R1 comes from the continued fraction, within
    # 2.5e-16 of 40-digit mpmath on a half-decade grid from 1e-300; scipy's
    # scaled values were up to 1.5e-13 off there (d = 10, kappa = 1e-55)
    mpmath.mp.dps = 40
    kappa = 10.0 ** np.arange(-300.0, math.log10(d / 10), 0.5)
    nu = mpmath.mpf(d) / 2 - 1
    for k, got in zip(kappa, bessel_ratio(d, kappa)):
        km = mpmath.mpf(k)
        expected = mpmath.besseli(nu + 1, km) / mpmath.besseli(nu, km)
        assert abs(got - expected) <= 2.5e-16 * expected, (d, k)


def test_bessel_ratio_domain():
    with pytest.raises(ValueError):
        bessel_ratio(3, 0.0)
    with pytest.raises(ValueError):
        bessel_ratio(3, -1.0)
    with pytest.raises(ValueError):
        bessel_ratio(3, np.array([1.0, 0.0]))


def test_bessel_recurrence():
    # I_{nu-1}(x) - I_{nu+1}(x) = (2 nu / x) I_nu(x)
    for nu in (1.0, 1.5, 2.0, 5.0):
        for x in (0.5, 1.0, 5.0, 20.0):
            lhs = bessel_i(nu - 1.0, x) - bessel_i(nu + 1.0, x)
            rhs = 2.0 * nu / x * bessel_i(nu, x)
            assert lhs == pytest.approx(rhs, rel=1e-8)


def _kummer_1f1(a, b, x):
    return math.exp(log_kummer_1f1(a, b, x))


def test_kummer_at_zero():
    assert log_kummer_1f1(0.5, 1.5, 0.0) == 0.0
    assert log_kummer_1f1(2.0, 7.0, 0.0) == 0.0


def test_kummer_series_oracle():
    # positive argument; the erf identity pins the negative-argument value
    assert _kummer_1f1(0.5, 1.5, 1.0) == pytest.approx(series_1f1(0.5, 1.5, 1.0),
                                                       rel=1e-10)
    assert series_1f1(0.5, 1.5, 1.0) == pytest.approx(1.4626517459071816, rel=1e-12)
    assert _kummer_1f1(0.5, 1.5, -1.0) == pytest.approx(
        0.5 * math.sqrt(math.pi) * math.erf(1.0), rel=1e-10
    )
    for a, b in ((0.5, 1.5), (0.5, 5.0), (1.5, 2.5), (2.0, 7.0)):
        for x in (-8.0, -2.0, -0.3, 0.3, 2.0, 8.0, 25.0):
            assert _kummer_1f1(a, b, x) == pytest.approx(series_1f1(a, b, x),
                                                         rel=1e-10)


def test_kummer_transform_identity():
    # log 1F1(a;b;x) = x + log 1F1(b-a;b;-x), both sides via the implementation
    for a, b in ((0.5, 1.5), (0.5, 5.0), (1.0, 1.5)):
        for x in (-20.0, -4.0, -1.0, 1.0, 4.0, 20.0):
            lhs = log_kummer_1f1(a, b, x)
            rhs = x + log_kummer_1f1(b - a, b, -x)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-14)
    assert _kummer_1f1(0.5, 1.5, -4.0) == pytest.approx(
        math.exp(-4.0) * series_1f1(1.0, 1.5, 4.0), rel=1e-10
    )


def test_kummer_at_least_one_for_positive_argument():
    for d in (2, 3, 10, 20):
        for kappa in (0.0, 0.5, 2.0, 20.0, 100.0, 1e4):
            assert log_kummer_1f1(0.5, 0.5 * d, kappa) >= 0.0


def test_kummer_invalid_b():
    # scipy's 1F1 is infinite at a nonpositive integer b
    for b in (0.0, -2.0):
        for x in (1.0, -1.0):
            with pytest.raises(OverflowError, match="1F1 out of range"):
                log_kummer_1f1(0.5, b, x)
    with pytest.raises(OverflowError, match="1F1 out of range"):
        kummer_moment(1, 0.5, -3.0, 1.0)


def test_kummer_out_of_range_raises():
    # 1F1(b-a; b; -x) decays like x^(a-b) and underflows to 0 at large b
    with pytest.raises(OverflowError, match="1F1 out of range"):
        log_kummer_1f1(0.5, 500.0, 1e4)
    with pytest.raises(OverflowError, match="1F1 out of range"):
        log_kummer_1f1(0.5, 1.5, math.nan)
    with pytest.raises(OverflowError, match="1F1 out of range"):
        log_kummer_1f1(0.5, 1.5, np.array([1.0, math.inf]))


def test_kummer_subnormal_is_out_of_range():
    # hyp1f1(499.5, 500, -x) leaves the normal range between x = 760 and
    # 770; the subnormal 1.8e-319 at x = 800 gave log 1F1(1/2; 500; 800) =
    # 66.071631 where 40-digit mpmath gives 66.071619
    mpmath.mp.dps = 40
    assert abs(log_kummer_1f1(0.5, 500.0, 760.0)
               - mpmath.log(mpmath.hyp1f1(0.5, 500, 760))) <= 1e-11
    assert abs(mpmath.log(mpmath.hyp1f1(0.5, 500, 800)) - 66.071619) < 1e-6
    for x in (800.0, np.array([760.0, 800.0])):
        with pytest.raises(OverflowError, match="1F1 out of range"):
            log_kummer_1f1(0.5, 500.0, x)
        with pytest.raises(OverflowError, match="1F1 out of range"):
            kummer_moment(1, 0.5, 500.0, x)


def _spy_hyp1f1(monkeypatch):
    # the arguments scipy's hyp1f1 is called at
    hyp1f1, args = scipy.special.hyp1f1, []

    def spy(*call):
        args.append(np.max(call[-1]))
        return hyp1f1(*call)

    monkeypatch.setattr(scipy.special, "hyp1f1", spy)
    return args


@pytest.mark.parametrize("a", [0.5, 1.5])
def test_kummer_where_transform_fails_matches_mpmath(monkeypatch, a):
    # at the Watson orders (b = d/2 for a = 1/2, d/2 + 1 for a = 3/2) the
    # transformed series of a negative argument overflows from about
    # x = -710, and below -745 e^x == 0 as well; scipy evaluates 1F1 at
    # -|x| only, so neither happens on either side of zero
    mpmath.mp.dps = 40
    args = _spy_hyp1f1(monkeypatch)
    for d in (2, 3, 10, 59, 100, 1000):
        b = 0.5 * d + a - 0.5
        grid = (-720.0, -745.2, -1e4, -1e6, -1e9, 720.0, 745.2, 1e4)
        for x in grid if d <= 100 else grid[:-1]:  # 1e4 is out of range
            expected = mpmath.log(mpmath.hyp1f1(a, b, x))
            assert abs(log_kummer_1f1(a, b, x) - expected) <= 1e-11, (d, x)
            expected = (mpmath.hyp1f1(1.5, 0.5 * d + 1, x)
                        / mpmath.hyp1f1(0.5, 0.5 * d, x) / d)
            assert kummer_moment(1, 0.5, 0.5 * d, x) == pytest.approx(
                float(expected), rel=1e-11, abs=0.0)
    assert args and max(args) <= 0.0


def test_kummer_against_mpmath_grid(monkeypatch):
    # log 1F1 to 1e-14 (relative to max(1, |log 1F1|)) and the Watson
    # moments E[t], E[t^2] to 1e-13 relative, for d = 2..59 on
    # x = 0, +-[1e-3, 1e8], from scipy calls at x <= 0 only
    mpmath.mp.dps = 40
    args = _spy_hyp1f1(monkeypatch)
    x = np.logspace(-3, 8, 12)
    x = np.concatenate([-x[::-1], [0.0], x])
    half = mpmath.mpf(1) / 2
    for d in range(2, 60):
        b = mpmath.mpf(d) / 2
        logs = log_kummer_1f1(0.5, 0.5 * d, x)
        moments = [kummer_moment(k, 0.5, 0.5 * d, x) for k in (1, 2)]
        for i, xi in enumerate(x):
            base = mpmath.hyp1f1(half, b, xi)
            want = mpmath.log(base)
            assert abs(logs[i] - want) <= 1e-14 * max(1, abs(want)), (d, xi)
            for k, got in zip((1, 2), moments):
                want = (mpmath.rf(half, k) / mpmath.rf(b, k)
                        * mpmath.hyp1f1(half + k, b + k, xi) / base)
                assert abs(got[i] - want) <= 1e-13 * want, (d, k, xi)
    assert max(args) <= 0.0


def test_kummer_ratio_at_zero():
    assert kummer_moment(1, 0.5, 1.5, 0.0) == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert kummer_moment(1, 2.0, 5.0, 0.0) == pytest.approx(0.4, rel=1e-14)
    assert kummer_moment(2, 0.5, 1.5, 0.0) == pytest.approx(0.2, rel=1e-14)
    assert kummer_moment(1, 0.5, 1.5, 0.0) == 0.5 / 1.5


def test_kummer_ratio_series_oracle():
    expected = (1.0 / 3.0) * series_1f1(1.5, 2.5, 1.0) / series_1f1(0.5, 1.5, 1.0)
    assert kummer_moment(1, 0.5, 1.5, 1.0) == pytest.approx(expected, rel=1e-8)
    expected = 0.2 * series_1f1(2.5, 3.5, 1.0) / series_1f1(0.5, 1.5, 1.0)
    assert kummer_moment(2, 0.5, 1.5, 1.0) == pytest.approx(expected, rel=1e-8)


def test_kummer_ratio_monotone():
    grid = np.linspace(-10.0, 10.0, 41)
    values = kummer_moment(1, 0.5, 5.0, grid)
    assert all(a < b for a, b in zip(values, values[1:]))
    # elementwise: an array gives the bits of one call per entry
    for x, v, log_v in zip(grid, values, log_kummer_1f1(0.5, 5.0, grid)):
        assert kummer_moment(1, 0.5, 5.0, float(x)) == v
        assert log_kummer_1f1(0.5, 5.0, float(x)) == log_v


def test_newton_root_solves_each_entry():
    target = np.array([-0.9, 0.0, 0.5, 0.999])
    root, iterations = special.newton_root(
        lambda x: (np.tanh(x), 1.0 - np.tanh(x) ** 2), target,
        np.zeros(4), np.full(4, -10.0), np.full(4, 10.0), 1e-15)
    np.testing.assert_allclose(root, np.arctanh(target), rtol=1e-13, atol=1e-15)
    assert iterations[1] == 1 and iterations.max() < 20


def test_newton_root_closes_the_bracket_below_the_link_resolution():
    # a tolerance no float iterate meets: the entry leaves once iterates on
    # both sides of the target have closed the bracket to adjacent floats
    def link(x):
        return x ** 3, 3.0 * x ** 2

    root, iterations = special.newton_root(link, np.array([3.0]), np.array([1.0]),
                                           np.array([0.0]), np.array([4.0]), 0.0)
    assert abs(root[0] - 3.0 ** (1 / 3)) <= 2 * np.spacing(root[0])
    assert iterations[0] < 200
    assert (root[0], iterations[0]) == newton_root_scalar(link, 3.0, 1.0, 0.0, 4.0, 0.0)


def test_newton_root_returns_an_empty_target_at_once():
    def link(x):
        raise AssertionError("link called on an empty target")

    root, iterations = special.newton_root(link, np.zeros(0), np.zeros(0),
                                           np.zeros(0), np.zeros(0), 1e-12)
    assert root.shape == iterations.shape == (0,)


def _tanh_link(x):
    return np.tanh(x), 1.0 - np.tanh(x) ** 2


@pytest.mark.parametrize("target,lo,hi", [(-0.5, 2.0, 3.0), (0.5, -3.0, -2.0),
                                          (0.2, 0.0, 0.0)])
def test_newton_root_widens_an_end_that_misses(target, lo, hi):
    # a lower end above the root, an upper end below it, and a zero-width
    # bracket: the end beyond the target moves out until it holds the root,
    # on copies of the caller's arrays
    lo_arr, hi_arr = np.array([lo]), np.array([hi])
    root, iterations = special.newton_root(
        _tanh_link, np.array([target]), np.array([0.5 * (lo + hi)]), lo_arr,
        hi_arr, 1e-15)
    assert root[0] == pytest.approx(math.atanh(target), rel=1e-14)
    assert iterations[0] < 200
    assert lo_arr[0] == lo and hi_arr[0] == hi


def test_newton_root_bisects_against_a_widened_end_as_the_scalar_loop():
    # a link derivative a hundred times too small sends Newton out of the
    # bracket, so the iterates bisect against the widened upper end (targets
    # above 1e6) or lower end (below 0); each entry has the bits and the
    # iteration count of the scalar loop
    def link(x):
        return np.arcsinh(x), 0.01 / np.sqrt(1.0 + x * x)

    target = np.arcsinh([3e7, -5e6, 2e5, 0.5])
    root, iterations = special.newton_root(link, target, np.ones(4), np.zeros(4),
                                           np.full(4, 1e6), 1e-13)
    for k, t in enumerate(target):
        assert (root[k], iterations[k]) == newton_root_scalar(link, t, 1.0, 0.0, 1e6, 1e-13)


def test_newton_root_target_beyond_the_link_does_not_converge():
    # tanh never reaches 2: the upper end widens until it is infinite, and
    # the iteration then fails instead of widening forever
    with np.errstate(over="ignore"), pytest.raises(RuntimeError, match="did not converge"):
        special.newton_root(_tanh_link, np.array([2.0]), np.zeros(1),
                            np.zeros(1), np.zeros(1), 1e-12)


def test_newton_root_nan_link_does_not_converge():
    with pytest.raises(RuntimeError, match="did not converge"):
        special.newton_root(lambda x: (np.full_like(x, np.nan), np.ones_like(x)),
                            np.array([0.5]), np.array([1.0]), np.array([0.0]),
                            np.array([4.0]), 1e-12)
