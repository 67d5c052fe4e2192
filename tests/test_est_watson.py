import math

import mpmath
import numpy as np
import pytest
import scipy.special
from scipy import stats

from spherestein import est_watson, models
from spherestein.est_watson import (
    NotEligible,
    _j_statistic,
    _pick_branch,
    _stein_branch,
    watson_mla_bounds,
    watson_mla_fit,
    watson_mle_fit,
    watson_stein_fit,
)
from spherestein.families import FAMILIES, fit_one
from spherestein.linalg import sym_eigen, v_statistic
from spherestein.models import WatsonParams, sample_stack
from spherestein.sampler import sample_watson
from spherestein.special import kummer_moment

from oracles import (
    fb_statistics_generic,
    grad_f2_by_hand_d3,
    j_statistic_loop,
    random_unit_rows,
    watson_log_density,
    watson_st_ne_points,
)

E3 = np.eye(3)
FIXTURE = np.array([E3[0], E3[0], E3[1]])


# one sample through the stacked statistics, as a stack of one

def _axis(x, branch):
    # the sign-fixed top (+) or bottom (-) scatter eigenvector, contiguous
    return sample_stack(x[None]).axes[branch][0].copy()


def _statistics(x):
    # V and the (+) and (-) J vectors, sharing one eigendecomposition
    s = sample_stack(x[None])
    return (v_statistic(s.scatter)[0],
            *(_j_statistic(s.x, s.axes[b])[0] for b in ("+", "-")))


def _stein_kappa(x, branch):
    # the least-squares kappa = (J'J)^{-1} J'V of one branch
    s = sample_stack(x[None])
    return float(_stein_branch(s.x, v_statistic(s.scatter), s.axes[branch])[0][0])


def _mle_kappa(x, branch):
    # the ML concentration of one branch
    return float(watson_mle_fit(x[None]).kappas[branch][0])


def test_axis_examples():
    np.testing.assert_allclose(_axis(FIXTURE, "+"), E3[0], atol=1e-14)
    np.testing.assert_allclose(_axis(FIXTURE, "-"), E3[2], atol=1e-14)
    with pytest.raises(KeyError):
        _axis(FIXTURE, "plus")


def test_axis_deterministic_under_isotropy():
    # no meaningful axis in uniform data, but the output is reproducible
    x = sample_watson(WatsonParams(E3[0], 0.0), 100_000, 50)[0]
    first = _axis(x, "+")
    np.testing.assert_array_equal(first, _axis(x, "+"))
    assert np.linalg.norm(first) == pytest.approx(1.0)


def test_axis_alignment_bipolar():
    mu = np.array([0.0, 0.6, 0.8])
    x = sample_watson(WatsonParams(mu, 10.0), 100_000, 51)[0]
    assert abs(_axis(x, "+") @ mu) > 0.99


def test_stein_kappa_zero_for_exactly_isotropic_scatter():
    # basis vectors plus all cube corners: scatter is exactly I/3, V = 0,
    # while J stays away from zero
    corners = np.array([[sx, sy, sz] for sx in (-1.0, 1.0)
                        for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)])
    x = np.vstack([E3, -E3, corners / math.sqrt(3.0)])
    v_vec, j_plus, _ = _statistics(x)
    assert np.linalg.norm(v_vec) < 1e-12
    assert np.linalg.norm(j_plus) > 1e-3
    assert abs(_stein_kappa(x, "+")) < 1e-10


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
    v_vec, j_plus, j_minus = _statistics(x)
    for branch, j_vec in (("+", j_plus), ("-", j_minus)):
        mu = _axis(x, branch)
        v_ref, j_ref = _reference_v_and_j(x, mu)
        np.testing.assert_allclose(v_vec, v_ref, atol=1e-12)
        np.testing.assert_allclose(j_vec, j_ref, atol=1e-12)
        expected = float(j_ref @ v_ref) / float(j_ref @ j_ref)
        assert _stein_kappa(x, branch) == pytest.approx(expected, rel=1e-9)


def test_v_closed_form_equals_generic_three_term_path():
    # V coincides with the D statistic of the generic Fisher-Bingham path
    rng = np.random.default_rng(52)
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(3, 10))
        x = random_unit_rows(rng, n, d)
        v_vec = _statistics(x)[0]
        d_vec = fb_statistics_generic(x).d_vec
        np.testing.assert_allclose(v_vec, d_vec, atol=1e-12)


def test_axis_flip_symmetry_is_exact():
    x = random_unit_rows(np.random.default_rng(53), 40, 3)
    plain = _statistics(x)
    flipped = _statistics(-x)
    np.testing.assert_array_equal(plain[0], flipped[0])
    np.testing.assert_array_equal(plain[1], flipped[1])
    fit_a, fit_b = fit_one("watson", "st", x), fit_one("watson", "st", -x)
    assert fit_a["kappa"] == fit_b["kappa"]
    assert fit_a["mu"] == fit_b["mu"]


def test_stein_consistency_bipolar():
    mu = np.ones(3) / math.sqrt(3)
    x = sample_watson(WatsonParams(mu, 10.0), 100_000, 54)[0]
    fit = fit_one("watson", "st", x)
    assert fit["branch"] == "+"
    assert abs(fit["kappa"] - 10.0) < 0.2
    assert abs(np.array(fit["mu"]) @ mu) > 0.999


def _pick(kappa_minus, kappa_plus, score_minus, score_plus):
    # the rule on a stack of one sample with axes e1 (+) and e3 (-)
    fits = {"+": (np.array([kappa_plus]), np.array([score_plus])),
            "-": (np.array([kappa_minus]), np.array([score_minus]))}
    return _pick_branch({"+": E3[[0]], "-": E3[[2]]}, fits, "J vanishes on the axis")


def _branch(fit):
    return "NE" if fit.ne[0] else FAMILIES["watson"].report(fit)["branch"]


def test_selection_rule_cases():
    fit = _pick(3.0, -2.0, 0.0, 0.0)
    assert fit.ne[0] and fit.branch[0] == "" and np.isnan(fit.kappa_hat[0])
    error = FAMILIES["watson"].outcome(fit)
    assert isinstance(error, NotEligible)
    assert str(error) == "kappa^- = 3 > 0 and kappa^+ = -2 < 0"
    # a branch without an estimate is named with the fit's cause
    assert str(FAMILIES["watson"].outcome(_pick(np.nan, -2.0, np.nan, 0.0))) == (
        "kappa^+ = -2 < 0 and no estimate of kappa^- (J vanishes on the axis)")
    assert _branch(_pick(-3.0, -2.0, 1.0, 9.9)) == "-"
    assert _branch(_pick(3.0, 2.0, 9.9, 1.0)) == "+"
    assert _branch(_pick(-3.0, 2.0, 0.5, 0.2)) == "+"
    assert _branch(_pick(-3.0, 2.0, 0.2, 0.5)) == "-"
    assert _branch(_pick(-3.0, 2.0, 0.4, 0.4)) == "+"  # exact tie
    report = FAMILIES["watson"].report(_pick(-3.0, -2.0, 1.0, 9.9))
    assert report["eligible_branches"] == ["-"]
    assert report["mu"] == E3[2].tolist()
    assert report["kappa"] == -3.0
    assert report["residual_norms"] == {"+": 9.9, "-": 1.0}
    assert not report["warnings"]
    # a sign-rule pick with both branches eligible and |kappa| < 1e-6
    report = FAMILIES["watson"].report(_pick(-1e-9, 1e-7, 1.0, 1.0))
    assert report["warnings"] == ["near-uniform: |kappa| < 1e-6, axis weakly identified"]


@pytest.mark.parametrize("n", [1, 3, 5])
def test_mle_fit_books_axis_without_mass_as_ne(n):
    # n < d: the bottom eigenvector carries r ~ 1e-18 of the mass, where
    # the likelihood grows without bound as kappa runs to -inf, so neither
    # branch has an ML estimate
    x = sample_watson(WatsonParams(np.eye(10)[0], 5.0), n, 70 + n)
    fit = watson_mle_fit(x)
    assert fit.ne[0] and fit.branch[0] == ""
    assert np.isnan(fit.kappas["+"][0]) and np.isnan(fit.kappas["-"][0])
    assert str(FAMILIES["watson"].outcome(fit)) == (
        "no estimate of kappa^- or kappa^+ (an axis carries none or all of "
        "the mass, so the likelihood is unbounded)")


def test_mle_fit_books_only_the_degenerate_slices():
    # a point mass (every axis carries none or all of the mass) and an
    # antipodal pair among real samples: those two slices are NE, and every
    # other slice has the bits of its fit alone
    x = sample_watson(WatsonParams(np.ones(3) / math.sqrt(3), 5.0), 30,
                      71, range(4))
    x[1] = E3[1]
    x[3, ::2], x[3, 1::2] = E3[0], -E3[0]
    fit = watson_mle_fit(x)
    np.testing.assert_array_equal(fit.ne, [False, True, False, True])
    for k in (0, 2):
        alone = watson_mle_fit(x[[k]])
        for field in ("kappa_hat", "mu_hat", "branch", "near_uniform"):
            np.testing.assert_array_equal(getattr(fit, field)[k],
                                          getattr(alone, field)[0])
        for branch in ("+", "-"):
            assert fit.kappas[branch][k] == alone.kappas[branch][0]
            assert fit.residual_norms[branch][k] == alone.residual_norms[branch][0]


@pytest.mark.parametrize("d", [3, 10, 20])
@pytest.mark.parametrize("kappa", [5.0, -5.0])
def test_likelihood_scores_equal_the_per_point_likelihood(d, kappa):
    # the MLa and ML scores read only r = mu'S mu; each is the sum of -log
    # density over the rows at that branch's axis and kappa (n > d: every
    # axis carries some but not all of the mass, so every score is finite)
    x = sample_watson(WatsonParams(np.ones(d) / math.sqrt(d), kappa), 100,
                      64, range(3))
    axes = sample_stack(x).axes
    for fit_fn in (watson_mla_fit, watson_mle_fit):
        fit = fit_fn(x)
        for branch, axis in axes.items():
            for k, xk in enumerate(x):
                score = fit.residual_norms[branch][k]
                assert math.isfinite(score)
                params = WatsonParams(axis[k], fit.kappas[branch][k])
                assert score == pytest.approx(
                    -sum(watson_log_density(params, row) for row in xk), rel=1e-12)


def test_mla_bounds_examples():
    lower, upper = watson_mla_bounds(1.0 / 3.0, 3)
    assert lower == pytest.approx(0.0, abs=1e-12)
    assert upper == pytest.approx(0.0, abs=1e-12)

    lower, upper = watson_mla_bounds(0.8, 3)
    assert lower == pytest.approx(5.25, rel=1e-12)
    assert upper == pytest.approx(11.375, rel=1e-12)

    lower, upper = watson_mla_bounds(0.2, 3)
    assert lower == pytest.approx(-2.25, rel=1e-12)
    assert upper == pytest.approx(-1.75, rel=1e-12)
    assert lower <= upper

    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            watson_mla_bounds(bad, 3)


def test_mla_fixture():
    lower, upper = watson_mla_bounds(2.0 / 3.0, 3)
    assert lower == pytest.approx(3.0, rel=1e-12)
    assert upper == pytest.approx(5.25, rel=1e-12)
    fit = fit_one("watson", "mla", FIXTURE)
    assert fit["branch"] == "+"
    assert fit["kappa"] == pytest.approx(4.125, rel=1e-12)


def test_mla_near_uniform_reports_zero():
    corners = np.array([[sx, sy, sz] for sx in (-1.0, 1.0)
                        for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)])
    x = np.vstack([E3, -E3, corners / math.sqrt(3.0)])
    fit = fit_one("watson", "mla", x)
    assert abs(fit["kappa"]) < 1e-10
    assert fit["warnings"] == ["near-uniform: |kappa| < 1e-6, axis weakly identified"]


def test_mla_bracket_contains_mle():
    mu = np.ones(3) / math.sqrt(3)
    x = sample_watson(WatsonParams(mu, 10.0), 100_000, 55)[0]
    axis = _axis(x, "+")
    r = float(axis @ (x.T @ x / x.shape[0]) @ axis)
    lower, upper = watson_mla_bounds(r, 3)
    kappa_ml = _mle_kappa(x, "+")
    assert lower < kappa_ml < upper
    fit = fit_one("watson", "mla", x)
    assert fit["kappa"] == pytest.approx(0.5 * (lower + upper), rel=1e-12)


def test_mle_near_great_circle_is_finite_and_sums_no_underflowed_1f1(monkeypatch):
    # 50 points of a great circle lifted by 1e-6 (r ~ 1e-12): ML's root
    # bracket reaches kappa where e^kappa underflows; scipy's 1F1 is only
    # called at non-positive arguments (no transformed series is summed
    # where e^x underflows), and the girdle root matches mpmath's ratio at r
    mpmath.mp.dps = 40
    hyp1f1, args = scipy.special.hyp1f1, []

    def spy(a, b, x):
        args.append(np.max(x))
        return hyp1f1(a, b, x)

    monkeypatch.setattr(scipy.special, "hyp1f1", spy)
    rng = np.random.default_rng(0)
    t = rng.uniform(0.0, 2.0 * np.pi, 50)
    x = np.column_stack([np.cos(t), np.sin(t), 1e-6 * rng.standard_normal(50)])
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    fit = fit_one("watson", "ml", x)
    assert args and max(args) <= 0.0
    assert fit["branch"] == "-" and math.isfinite(fit["kappa"])
    assert -1e12 < fit["kappa"] < -745.0
    axis = _axis(x, "-")
    r = float(axis @ sample_stack(x[None]).scatter[0] @ axis)
    k = mpmath.mpf(fit["kappa"])
    ratio = mpmath.hyp1f1(1.5, 2.5, k) / mpmath.hyp1f1(0.5, 1.5, k) / 3
    assert float(ratio) == pytest.approx(r, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("d,kappa", [(3, -800.0), (50, -1e4)])
def test_likelihood_fits_finite_for_strong_girdles(d, kappa):
    # the likelihood needs 1F1(1/2; d/2; kappa) where e^kappa underflows
    mu = np.eye(d)[0]
    x = sample_watson(WatsonParams(mu, kappa), 200, 58)[0]
    for code in ("ml", "mla"):
        fit = fit_one("watson", code, x)
        assert fit["branch"] == "-" and math.isfinite(fit["kappa"])
        assert 0.5 * kappa > fit["kappa"] > 2.0 * kappa


@pytest.mark.parametrize("d,kappa", [(3, 700.0), (3, 800.0), (10, 2000.0),
                                     (50, 1e4)])
def test_likelihood_fits_finite_for_strong_bipolar_samples(d, kappa):
    # 1F1(1/2; d/2; kappa) overflows from kappa near 710: the likelihood
    # carries e^kappa as a log, and the ML link cancels it exactly.  Far
    # out, the MLa bounds are about (kappa, 3 kappa), so MLa reads 2 kappa
    x = sample_watson(WatsonParams(np.eye(d)[0], kappa), 200, 58)[0]
    for code, high in (("ml", 1.2), ("mla", 2.4)):
        fit = fit_one("watson", code, x)
        assert fit["branch"] == "+" and math.isfinite(fit["kappa"])
        assert 0.8 * kappa < fit["kappa"] < high * kappa
        assert all(map(math.isfinite, fit["residual_norms"].values()))


def _ml_root_error(kappa, r, d):
    # |kappa - root| / |root| of E[t] = r, from one Newton step in 40-digit
    # mpmath: E[t] and its derivative Var[t] = E[t^2] - E[t]^2 at kappa
    import mpmath
    a, b, k = mpmath.mpf(1) / 2, mpmath.mpf(d) / 2, mpmath.mpf(kappa)
    base = mpmath.hyp1f1(a, b, k)
    m1 = a / b * mpmath.hyp1f1(a + 1, b + 1, k) / base
    m2 = a * (a + 1) / (b * (b + 1)) * mpmath.hyp1f1(a + 2, b + 2, k) / base
    root = k - (m1 - mpmath.mpf(r)) / (m2 - m1 * m1)
    return float(abs((k - root) / root))


@pytest.mark.parametrize("d", [3, 10, 20, 50])
def test_mle_root_against_mpmath(d):
    # within 1e-13 of the root of E[t] = r where the parent's 1F1 was
    # finite, and within 1e-11 at the bipolar kappa where it overflowed
    mpmath.mp.dps = 40
    for kappa, bound in ((2.0, 1e-13), (-2.0, 1e-13), (20.0, 1e-13),
                         (-20.0, 1e-13), (-800.0, 1e-13), (-1e4, 1e-13),
                         (800.0, 1e-11), (1e4, 1e-11)):
        x = sample_watson(WatsonParams(np.eye(d)[0], kappa), 200,
                          58, range(3))
        s = sample_stack(x)
        branch = "+" if kappa > 0 else "-"
        fitted = watson_mle_fit(s).kappas[branch]
        axes = s.axes[branch]
        for k, mu in enumerate(axes):
            r = float(mu @ s.scatter[k] @ mu)
            assert _ml_root_error(fitted[k], r, d) <= bound, (kappa, k)


def test_mle_zero_at_isotropic_r():
    x = np.vstack([E3])  # scatter = I/3 exactly, r = 1/d on every branch
    assert _mle_kappa(x, "+") == 0.0
    # both branches eligible at kappa = 0: flagged as for ST and MLa
    assert watson_mle_fit(x[None]).near_uniform[0]


def test_mle_bracketing_random_samples():
    rng = np.random.default_rng(56)
    for seed in range(20):
        kappa0 = float(rng.uniform(-15.0, 15.0))
        mu = random_unit_rows(rng, 1, 3)[0]
        x = sample_watson(WatsonParams(mu, kappa0), 500, 57, [seed])[0]
        branch = "+" if kappa0 >= 0 else "-"
        axis = _axis(x, branch)
        r = float(axis @ (x.T @ x / x.shape[0]) @ axis)
        lower, upper = watson_mla_bounds(r, 3)
        kappa_ml = _mle_kappa(x, branch)
        assert lower - 1e-9 <= kappa_ml <= upper + 1e-9
        assert abs(kummer_moment(1, 0.5, 1.5, kappa_ml) - r) <= 1e-10


@pytest.mark.parametrize("shift", [60.0, -60.0])
def test_mle_bracket_growth_equals_unmoved_bracket(monkeypatch, shift):
    # the MLa bounds moved by `shift` miss the root on every slice, so one
    # end of each bracket has to grow before the Newton iteration starts
    mu = np.ones(5) / math.sqrt(5)
    x = np.concatenate([sample_watson(WatsonParams(mu, kappa), 200, 31, range(2))
                        for kappa in (8.0, -6.0)])
    expected = watson_mle_fit(x).kappas
    roots = np.concatenate([expected["+"], expected["-"]])
    bounds = watson_mla_bounds

    def moved(r, d):
        lower, upper = bounds(r, d)
        lower, upper = lower + shift, upper + shift
        assert np.all(lower > roots.max()) if shift > 0 else np.all(upper < roots.min())
        return lower, upper

    monkeypatch.setattr(est_watson, "watson_mla_bounds", moved)
    fit = watson_mle_fit(x)
    for branch in "+-":
        np.testing.assert_allclose(fit.kappas[branch], expected[branch], rtol=5e-14)


def test_mle_consistency_high_dimension():
    mu = np.ones(10) / math.sqrt(10)
    x = sample_watson(WatsonParams(mu, 20.0), 100_000, 58)[0]
    assert abs(_mle_kappa(x, "+") - 20.0) < 0.15
    fit = fit_one("watson", "ml", x)
    assert fit["branch"] == "+"
    assert abs(fit["kappa"] - 20.0) < 0.15


def test_branch_coherence():
    # the selected branch matches sign(kappa0) in >= 99% of replications
    # at the bundled studies' n = 100; each call draws four streams, every
    # slice bit for bit that stream's sample alone
    for kappa0 in (10.0, -10.0):
        mu = np.ones(3) / math.sqrt(3)
        hits = 0
        for first in range(0, 200, 4):
            streams = range(first, first + 4)
            fit = watson_stein_fit(sample_watson(WatsonParams(mu, kappa0), 100, 59, streams))
            hits += int(np.sum((fit.branch == "+") == (kappa0 > 0)))
        assert hits >= 198


def test_asymptotic_normality():
    # standardized estimates over many replications pass a normality test
    # at the 1% level and are centred
    mu = np.ones(3) / math.sqrt(3)
    kappa0, n, reps = 10.0, 2000, 2000
    estimates = np.empty(reps)
    for rep in range(reps):
        x = sample_watson(WatsonParams(mu, kappa0), n, 60, [rep])
        estimates[rep] = watson_stein_fit(x).kappa_hat[0]
    standardized = (estimates - estimates.mean()) / estimates.std(ddof=1)
    assert stats.normaltest(standardized).pvalue > 0.01
    se_mean = estimates.std(ddof=1) / math.sqrt(reps)
    assert abs(estimates.mean() - kappa0) <= 4 * se_mean


def test_vanishing_j_gives_nan_branches_and_ne():
    # all mass exactly on the (+) axis and none on the (-) axis makes J
    # vanish on both: neither branch says anything about kappa, so ST has
    # NaN on both and books the sample NE; so does MLa, whose axes carry all
    # or none of the mass
    x = np.array([E3[0], E3[0], -E3[0]])
    for fit_fn, cause in ((watson_stein_fit, "J vanishes on the axis"),
                          (watson_mla_fit, "the axis carries none or all of the mass")):
        fit = fit_fn(x[None])
        assert np.isnan(fit.kappas["+"][0]) and np.isnan(fit.kappas["-"][0])
        assert fit.ne[0] and np.isnan(fit.kappa_hat[0]) and fit.branch[0] == ""
        assert not (fit.eligible["+"][0] or fit.eligible["-"][0])
        assert str(FAMILIES["watson"].outcome(fit)) == (
            f"no estimate of kappa^- or kappa^+ ({cause})")
        with pytest.raises(NotEligible):
            fit_one("watson", "st" if fit_fn is watson_stein_fit else "mla", x)


@pytest.mark.parametrize("n", [20, 50])
@pytest.mark.parametrize("kappa", [1e4, -1e4, 5.0])
def test_fits_at_d50_are_finite_or_ne(n, kappa):
    # n <= d: the bottom axis carries (almost) none of the mass, which used
    # to make ST raise for the whole stack; every slice now has a finite
    # kappa or is NE, and at n < d the (-) branch has no estimate
    x = sample_watson(WatsonParams(np.eye(50)[0], kappa), n,
                      63, range(20))
    prepared = sample_stack(x)
    for fit_fn in (watson_stein_fit, watson_mla_fit):
        fit = fit_fn(prepared)
        assert np.isfinite(fit.kappa_hat[~fit.ne]).all()
        assert np.isnan(fit.kappa_hat[fit.ne]).all()
        if n < 50:
            assert np.isnan(fit.kappas["-"]).all()
        if kappa == 1e4:
            assert (fit.branch == "+").all()
    if kappa == 1e4:  # ST's (+) branch is on target
        kappa_st = watson_stein_fit(prepared).kappa_hat
        assert np.all((0.8e4 < kappa_st) & (kappa_st < 1.2e4))


@pytest.mark.parametrize("d", [2, 3, 5, 10])
def test_j_statistic_equals_loop_oracle_bitwise(d):
    rng = np.random.default_rng(100 + d)
    for n in (3, 40):
        x = random_unit_rows(rng, n, d)
        for mu in (random_unit_rows(rng, 1, d)[0], _axis(x, "-")):
            np.testing.assert_array_equal(_j_statistic(x, mu), j_statistic_loop(x, mu))


def sample_axes(x):
    # a Sample's axes, read twice: the second read finds the first's
    s = sample_stack(x)
    assert s.axes is s.axes
    return s.axes


@pytest.mark.parametrize("fit", [watson_stein_fit, watson_mla_fit, watson_mle_fit,
                                 sample_axes])
def test_one_eigendecomposition_per_call(monkeypatch, fit):
    calls = []

    def counting(s):
        calls.append(s)
        return sym_eigen(s)

    monkeypatch.setattr(models, "sym_eigen", counting)
    x = sample_watson(WatsonParams(np.ones(4) / 2.0, 5.0), 200, 61)
    fit(x)
    assert len(calls) == 1


@pytest.mark.parametrize("d, kappa, n", [(3, 5.0, 10), (3, -5.0, 10), (10, 20.0, 100),
                                         (20, 5.0, 100), (20, -2.0, 100)])
def test_stacked_fits_equal_single_fits_bitwise(d, kappa, n):
    params = WatsonParams(np.ones(d) / math.sqrt(d), kappa)
    stack = sample_watson(params, n, 62, range(12))
    if d == 3:  # slice 4 has no ST estimate
        stack[4] = np.tile(watson_st_ne_points(), (2, 1))
    prepared = sample_stack(stack)
    for fit_fn in (watson_stein_fit, watson_mla_fit, watson_mle_fit):
        fit = fit_fn(prepared)
        np.testing.assert_equal(vars(fit_fn(stack)), vars(fit))
        expect_ne = d == 3 and fit_fn is watson_stein_fit
        np.testing.assert_array_equal(fit.ne, np.arange(12) == (4 if expect_ne else -1))
        assert np.isnan(fit.kappa_hat[fit.ne]).all() and (fit.branch[fit.ne] == "").all()
        assert not np.isnan(fit.kappa_hat[~fit.ne]).any()
        np.testing.assert_array_equal(fit.ne, ~(fit.eligible["+"] | fit.eligible["-"]))


def test_stack_shape_is_checked():
    with pytest.raises(ValueError):
        watson_stein_fit(np.zeros((2, 0, 3)))
    with pytest.raises(ValueError):
        watson_mla_fit(np.zeros((2, 5, 1)))
