import math

import numpy as np
import pytest

from spherestein import special
from spherestein.special import bessel_ratio, kummer_1f1, kummer_ratio

from oracles import (
    bessel_i,
    bessel_i_half,
    bessel_i_three_halves,
    log_bessel_i,
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
    mpmath = pytest.importorskip("mpmath")
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


def test_kummer_at_zero():
    assert kummer_1f1(0.5, 1.5, 0.0) == 1.0
    assert kummer_1f1(2.0, 7.0, 0.0) == 1.0


def test_kummer_series_oracle():
    # positive argument; the erf identity pins the negative-argument value
    assert kummer_1f1(0.5, 1.5, 1.0) == pytest.approx(series_1f1(0.5, 1.5, 1.0),
                                                      rel=1e-10)
    assert series_1f1(0.5, 1.5, 1.0) == pytest.approx(1.4626517459071816, rel=1e-12)
    assert kummer_1f1(0.5, 1.5, -1.0) == pytest.approx(
        0.5 * math.sqrt(math.pi) * math.erf(1.0), rel=1e-10
    )
    for a, b in ((0.5, 1.5), (0.5, 5.0), (1.5, 2.5), (2.0, 7.0)):
        for x in (-8.0, -2.0, -0.3, 0.3, 2.0, 8.0, 25.0):
            assert kummer_1f1(a, b, x) == pytest.approx(series_1f1(a, b, x),
                                                        rel=1e-10)


def test_kummer_transform_identity():
    # 1F1(a;b;x) = e^x 1F1(b-a;b;-x), both sides via the implementation
    for a, b in ((0.5, 1.5), (0.5, 5.0), (1.0, 1.5)):
        for x in (-20.0, -4.0, -1.0, 1.0, 4.0, 20.0):
            lhs = kummer_1f1(a, b, x)
            rhs = math.exp(x) * kummer_1f1(b - a, b, -x)
            assert lhs == pytest.approx(rhs, rel=1e-10)
    assert kummer_1f1(0.5, 1.5, -4.0) == pytest.approx(
        math.exp(-4.0) * series_1f1(1.0, 1.5, 4.0), rel=1e-10
    )


def test_kummer_at_least_one_for_positive_argument():
    for d in (2, 3, 10, 20):
        for kappa in (0.0, 0.5, 2.0, 20.0, 100.0):
            assert kummer_1f1(0.5, 0.5 * d, kappa) >= 1.0


def test_kummer_invalid_b():
    with pytest.raises(ValueError):
        kummer_1f1(0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        kummer_1f1(0.5, -2.0, 1.0)


@pytest.mark.parametrize("a", [0.5, 1.5])
def test_kummer_where_transform_fails_matches_mpmath(monkeypatch, a):
    # at the Watson orders (b = d/2 for a = 1/2, d/2 + 1 for a = 3/2) the
    # transformed series overflows from about x = -710, and below -745
    # e^x == 0 as well: 1F1 is evaluated directly at x there, and no
    # argument of 745 or more (a transformed series that would take
    # seconds to overflow) reaches scipy.  Where the transform stays
    # finite near overflow (a = 3/2, d = 2 at x = -720) it is off by 3e-12
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    hyp1f1, args = special._sp.hyp1f1, []

    def spy(*call):
        args.append(call[-1])
        return hyp1f1(*call)

    monkeypatch.setattr(special._sp, "hyp1f1", spy)
    for d in (2, 3, 10, 59, 100, 1000):
        b = 0.5 * d + a - 0.5
        for x in (-720.0, -745.2, -1e4, -1e6, -1e9):
            expected = mpmath.hyp1f1(a, b, x)
            assert kummer_1f1(a, b, x) == pytest.approx(float(expected),
                                                        rel=1e-11, abs=0.0)
            expected = (mpmath.hyp1f1(1.5, 0.5 * d + 1, x)
                        / mpmath.hyp1f1(0.5, 0.5 * d, x) / d)
            assert kummer_ratio(0.5, 0.5 * d, x) == pytest.approx(float(expected),
                                                                  rel=1e-11, abs=0.0)
    assert args and max(args) < 745.0


def test_kummer_ratio_at_zero():
    assert kummer_ratio(0.5, 1.5, 0.0) == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert kummer_ratio(2.0, 5.0, 0.0) == pytest.approx(0.4, rel=1e-14)


def test_kummer_ratio_series_oracle():
    expected = (1.0 / 3.0) * series_1f1(1.5, 2.5, 1.0) / series_1f1(0.5, 1.5, 1.0)
    assert kummer_ratio(0.5, 1.5, 1.0) == pytest.approx(expected, rel=1e-8)


def test_kummer_ratio_monotone():
    grid = np.linspace(-10.0, 10.0, 41)
    values = [kummer_ratio(0.5, 5.0, x) for x in grid]
    assert all(a < b for a, b in zip(values, values[1:]))
