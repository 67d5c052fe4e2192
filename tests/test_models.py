import json
import math

import numpy as np
import pytest

from spherestein import families, linalg, models, sampler
from spherestein.models import (
    FisherBinghamParams,
    VmfParams,
    WatsonParams,
    params_from_dict,
)
from spherestein.est_watson import watson_log_normalizer
from spherestein.special import log_kummer_1f1

from oracles import (
    bessel_i_half,
    canonical_f1,
    canonical_f2,
    fb_log_normalizer_mc,
    grad_f2_by_hand_d3,
    log_bessel_i,
    log_sphere_area,
    log_unnormalized_density,
    params_to_dict,
    random_unit_rows,
    score,
    sin_projection,
    stein_mean_reference,
    stein_operator_apply,
    vmf_log_density,
    vmf_log_normalizer,
    watson_log_density,
)

E3 = np.eye(3)


# parameter validation -----------------------------------------------------

def test_fb_params_validation():
    FisherBinghamParams(np.array([1.0, 2.0, 3.0]), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        FisherBinghamParams(np.zeros(3), np.diag([1.0, 2.0, 3.0]))  # A[d,d] != 0
    bad = np.zeros((3, 3))
    bad[0, 1] = 1.0  # not symmetric
    with pytest.raises(ValueError):
        FisherBinghamParams(np.zeros(3), bad)


def test_fb_params_near_the_float_range():
    # A = diag(1e308, -1e308, 0) is finite, but its symmetrised
    # 0.5 (A + A') overflowed to inf; a +-1e308 antisymmetric pair, whose
    # difference is beyond the float range, is no symmetric matrix
    a = np.diag([1e308, -1e308, 0.0])
    np.testing.assert_array_equal(FisherBinghamParams(np.zeros(3), a).A, a)
    skew = np.zeros((3, 3))
    skew[0, 1], skew[1, 0] = 1e308, -1e308
    with pytest.raises(ValueError, match="not symmetric"):
        FisherBinghamParams(np.zeros(3), skew)


def test_vmf_params_validation():
    VmfParams(np.array([0.0, 0.0, 1.0]), 2.0)
    with pytest.raises(ValueError):
        VmfParams(np.array([0.0, 0.0, 2.0]), 2.0)
    with pytest.raises(ValueError):
        VmfParams(np.array([0.0, 0.0, 1.0]), 0.0)


def test_watson_axis_canonicalization():
    params = WatsonParams(np.array([0.0, 0.0, -1.0]), 5.0)
    np.testing.assert_allclose(params.mu, [0.0, 0.0, 1.0])


def test_params_dict_round_trip():
    for params in (
        FisherBinghamParams(np.array([1.0, 0.0, 0.5]),
                            np.array([[1.0, 2, 0], [2, 3, 0], [0, 0, 0]])),
        VmfParams(np.array([0.0, 1.0, 0.0]), 3.5),
        WatsonParams(np.array([1.0, 0.0, 0.0]), -4.0),
    ):
        again = params_from_dict(json.loads(json.dumps(params_to_dict(params))))
        assert type(again) is type(params)
        np.testing.assert_allclose(again.mu, params.mu)


def test_params_from_dict_errors():
    with pytest.raises(ValueError):
        params_from_dict({"family": "nope", "mu": [1, 0]})
    with pytest.raises(ValueError):
        params_from_dict({"family": "vmf", "mu": [1, 0]})
    with pytest.raises(ValueError):
        params_from_dict({"family": "fb", "mu": [1, 0, 0],
                          "A": [[0, 0, 0], [0, 0, 0], [0, 0, 1]]})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_params_refuse_a_non_finite_mu(bad):
    mu = np.array([bad, 0.0, 1.0])
    for make in (lambda: FisherBinghamParams(mu, np.zeros((3, 3))),
                 lambda: VmfParams(mu, 2.0), lambda: WatsonParams(mu, 2.0)):
        with pytest.raises(ValueError, match="^mu must be finite$"):
            make()


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("family,field", [
    ("vmf", '"kappa": 2'), ("watson", '"kappa": 2'),
    ("fb", '"A": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]')])
def test_params_from_dict_refuses_a_non_finite_mu(family, field, token):
    # json.loads reads NaN and Infinity, which are not JSON tokens
    obj = json.loads(f'{{"family": "{family}", "mu": [{token}, 0, 1], {field}}}')
    with pytest.raises(ValueError, match="^mu must be finite$"):
        params_from_dict(obj)


# sample layout ------------------------------------------------------------

LAYOUT_PARAMS = {
    "vmf": VmfParams(np.array([0.0, 0.6, 0.8, 0.0, 0.0]), 5.0),
    "watson": WatsonParams(np.array([0.6, 0.8, 0.0, 0.0, 0.0]), -5.0),
    "fb": FisherBinghamParams(np.array([0.0, 2.0, 1.0, 0.5, 0.0]),
                              np.diag([1.0, -1.0, 0.5, 0.0, 0.0])),
}


@pytest.mark.parametrize("family,estimator", sorted(families.ESTIMATORS))
def test_estimates_do_not_depend_on_sample_layout(family, estimator):
    # a Fortran-ordered or strided copy (a pandas .values array is often
    # F-ordered) gets the bits of the C-ordered stack, of three or of one
    fit = families.ESTIMATORS[family, estimator]
    stack = families.SAMPLERS[family](
        LAYOUT_PARAMS[family], 300, 70, range(3))
    for x in (stack, stack[1:2]):
        strided = np.zeros(x.shape[:-1] + (2 * x.shape[-1],))[..., ::2]
        strided[...] = x
        expected = vars(fit(x))
        for copy in (np.asfortranarray(x), strided):
            assert not copy.flags.c_contiguous
            np.testing.assert_equal(vars(fit(copy)), expected)


def test_sample_forms_each_moment_on_first_read_and_keeps_it():
    # a Sample holds only its checked stack until a moment is read; a read
    # forms the moment with the bits of the eager expression, and a moment
    # that the read needs (the axes' S) once, kept for every later read
    stack = sampler.sample_watson(LAYOUT_PARAMS["watson"], 40, 71, range(3))
    s = models.sample_stack(np.asfortranarray(stack))
    assert set(vars(s)) == {"x"} and s.x.flags.c_contiguous
    axes = s.axes
    assert set(vars(s)) == {"x", "scatter", "axes"}
    scatter = np.matmul(stack.swapaxes(1, 2), stack) / stack.shape[1]
    assert s.scatter.tobytes() == scatter.tobytes()
    vecs = linalg.sym_eigen(scatter)
    assert axes["+"].tobytes() == vecs[..., 0].tobytes()
    assert axes["-"].tobytes() == vecs[..., -1].tobytes()
    assert s.xbar.tobytes() == stack.mean(axis=1).tobytes()
    kept = dict(vars(s))
    assert all(getattr(s, name) is value for name, value in kept.items())
    assert vars(models.sample_stack(stack)).keys() == {"x"}


# densities ----------------------------------------------------------------

def test_log_unnormalized_density_examples():
    fb0 = FisherBinghamParams(np.zeros(3), np.zeros((3, 3)))
    for x in (E3[0], E3[1], (E3[0] + E3[2]) / math.sqrt(2)):
        assert log_unnormalized_density(fb0, x) == 0.0
    vmf = VmfParams(E3[0], 2.0)
    assert log_unnormalized_density(vmf, E3[0]) == pytest.approx(2.0)
    watson = WatsonParams(E3[1], -5.0)
    assert log_unnormalized_density(watson, E3[0]) == 0.0


def test_density_rejects_off_sphere_points():
    vmf = VmfParams(E3[0], 2.0)
    with pytest.raises(ValueError):
        log_unnormalized_density(vmf, np.array([0.5, 0.0, 0.0]))
    with pytest.raises(ValueError):
        vmf_log_density(vmf, np.array([0.9, 0.0, 0.0]))


def test_watson_uniform_limit_density():
    params = WatsonParams(E3[0], 0.0)
    for x in (E3[0], E3[2]):
        assert watson_log_density(params, x) == pytest.approx(-log_sphere_area(3))


def test_vmf_density_closed_form_d3():
    # at x = mu: log[(kappa / (4 pi sinh kappa)) e^kappa], via I_{1/2}
    kappa = 1.0
    params = VmfParams(E3[2], kappa)
    expected = math.log(kappa / (4 * math.pi * math.sinh(kappa))) + kappa
    assert vmf_log_density(params, E3[2]) == pytest.approx(expected, rel=1e-12)
    # cross-check the normalizer against the closed-form half-integer Bessel
    assert log_bessel_i(0.5, kappa) == pytest.approx(
        math.log(bessel_i_half(kappa)), rel=1e-12
    )


def test_densities_integrate_to_one():
    # uniform Monte Carlo integration over S^2; each density is evaluated
    # on all rows at once and checked against the per-row oracle on a few
    x = sampler.sample_watson(WatsonParams(E3[0], 0.0), 400_000, 21)[0][:200_000]
    area = math.exp(log_sphere_area(3))
    for params, logpdf, log_values in (
        (VmfParams(E3[0], 1.0), vmf_log_density,
         vmf_log_normalizer(3, 1.0) + 1.0 * (x @ E3[0])),
        (WatsonParams(E3[1], 2.0), watson_log_density,
         watson_log_normalizer(3, 2.0) + 2.0 * (x @ E3[1]) ** 2),
        (WatsonParams(E3[1], -2.0), watson_log_density,
         watson_log_normalizer(3, -2.0) - 2.0 * (x @ E3[1]) ** 2),
    ):
        values = np.exp(log_values)
        np.testing.assert_allclose(
            values[:50], [math.exp(logpdf(params, row)) for row in x[:50]], rtol=1e-14)
        integral = area * values.mean()
        se = area * values.std(ddof=1) / math.sqrt(values.size)
        assert abs(integral - 1.0) <= max(1e-2, 4 * se)


def test_watson_density_axis_symmetry():
    params_plus = WatsonParams(np.array([0.6, 0.8, 0.0]), 3.0)
    x = np.array([0.0, 0.6, 0.8])
    flipped = WatsonParams(-np.array([0.6, 0.8, 0.0]), 3.0)
    assert watson_log_density(params_plus, x) == watson_log_density(flipped, x)


# Monte Carlo normalizer ---------------------------------------------------

def test_fb_normalizer_uniform():
    params = FisherBinghamParams(np.zeros(3), np.zeros((3, 3)))
    est, se = fb_log_normalizer_mc(params, 200_000, seed=5)
    assert abs(est - log_sphere_area(3)) <= max(3 * se, 1e-12)


def test_fb_normalizer_matches_vmf():
    kappa, d = 2.5, 3
    params = FisherBinghamParams(kappa * E3[0], np.zeros((3, 3)))
    est, se = fb_log_normalizer_mc(params, 400_000, seed=6)
    expected = (
        0.5 * d * math.log(2 * math.pi)
        + log_bessel_i(0.5 * d - 1, kappa)
        - (0.5 * d - 1) * math.log(kappa)
    )
    assert abs(est - expected) <= 3 * se


def test_fb_normalizer_matches_watson():
    kappa = 2.0
    a_mat = np.zeros((3, 3))
    a_mat[0, 0] = kappa  # axis e1 keeps A[d,d] = 0
    params = FisherBinghamParams(np.zeros(3), a_mat)
    est, se = fb_log_normalizer_mc(params, 400_000, seed=7)
    expected = log_sphere_area(3) + log_kummer_1f1(0.5, 1.5, kappa)
    assert abs(est - expected) <= 3 * se


def test_fb_normalizer_requires_enough_draws():
    params = FisherBinghamParams(np.zeros(3), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        fb_log_normalizer_mc(params, 10, seed=1)


# test functions and the operator ------------------------------------------

def test_canonical_f2_jacobian_pinned_d3():
    rng = np.random.default_rng(2)
    f2 = canonical_f2(3)
    for _ in range(20):
        x = random_unit_rows(rng, 1, 3)[0]
        np.testing.assert_allclose(f2.jacobian(x), grad_f2_by_hand_d3(x), atol=1e-14)
    # Laplacian display: 2 vech'(I)
    np.testing.assert_array_equal(f2.laplacian(E3[0]), [2.0, 0, 0, 2.0, 0])


def _finite_difference_check(f, x, step=1e-5, tol=1e-4):
    d = x.size
    jac = f.jacobian(x)
    hess = f.hessian_rows(x)
    for k in range(d):
        dx = np.zeros(d)
        dx[k] = step
        fd_grad = (f.value(x + dx) - f.value(x - dx)) / (2 * step)
        np.testing.assert_allclose(jac[:, k], fd_grad, atol=tol)
        fd_jac = (f.jacobian(x + dx) - f.jacobian(x - dx)) / (2 * step)
        for comp in range(f.m):
            hess_comp = hess[comp].reshape((d, d), order="F")
            np.testing.assert_allclose(hess_comp[:, k], fd_jac[comp], atol=tol)
    for comp in range(f.m):
        hess_comp = hess[comp].reshape((d, d), order="F")
        np.testing.assert_allclose(hess_comp, hess_comp.T, atol=1e-12)
        assert f.laplacian(x)[comp] == pytest.approx(np.trace(hess_comp), abs=1e-6)


def test_test_function_derivatives_match_finite_differences():
    rng = np.random.default_rng(4)
    for d in (2, 3, 5):
        fns = [canonical_f1(d), canonical_f2(d),
               sin_projection(rng.standard_normal(d))]
        for f in fns:
            for _ in range(5):
                x = random_unit_rows(rng, 1, d)[0]
                _finite_difference_check(f, x)


def test_stein_operator_uniform_identity_function():
    fb0 = FisherBinghamParams(np.zeros(4), np.zeros((4, 4)))
    f1 = canonical_f1(4)
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = random_unit_rows(rng, 1, 4)[0]
        np.testing.assert_allclose(
            stein_operator_apply(fb0, f1, x), (1 - 4) * x, atol=1e-14
        )


def test_stein_operator_vmf_identity_function():
    # hand expansion: (1-d) x + kappa (I - xx') mu
    params = VmfParams(np.array([0.0, 0.6, 0.8]), 3.0)
    f1 = canonical_f1(3)
    rng = np.random.default_rng(9)
    for _ in range(10):
        x = random_unit_rows(rng, 1, 3)[0]
        expected = (1 - 3) * x + params.kappa * (
            (np.eye(3) - np.outer(x, x)) @ params.mu
        )
        np.testing.assert_allclose(
            stein_operator_apply(params, f1, x), expected, atol=1e-12
        )


def _sin_stein_rows(params, w, x):
    # the Stein operator of f(x) = sin(w'x) at every row of x: with t = w'x
    # and s the score, (1 - d) t cos t + t^2 sin t - |w|^2 sin t
    # + cos t w'(s - x x's)
    t = x @ w
    s = np.array([score(params, row) for row in x])
    s_proj = s - x * np.sum(x * s, axis=1)[:, None]
    return ((1.0 - x.shape[1]) * t * np.cos(t) + t * t * np.sin(t)
            - (w @ w) * np.sin(t) + np.cos(t) * (s_proj @ w))


def test_stein_identity_generic_function_all_families():
    # E[A f(X)] = 0 at the true parameters, f(x) = sin(x_1)
    w = np.array([1.0, 0.0, 0.0])
    f = sin_projection(w)
    n = 100_000
    cases = [
        (VmfParams(np.array([0.2, 0.0, 0.9797958971132712]), 4.0),
         sampler.sample_vmf),
        (WatsonParams(np.array([0.6, 0.8, 0.0]), 6.0), sampler.sample_watson),
        (FisherBinghamParams(np.array([1.0, -1.0, 0.5]),
                             np.array([[1.0, 0.5, 0], [0.5, -1.0, 0], [0, 0, 0]])),
         sampler.sample_fb),
    ]
    for idx, (params, draw) in enumerate(cases):
        x = draw(params, n, 100 + idx)[0]
        values = _sin_stein_rows(params, w, x)
        direct = [stein_operator_apply(params, f, row)[0] for row in x[:20]]
        np.testing.assert_allclose(values[:20], direct, rtol=0, atol=1e-13)
        se = values.std(ddof=1) / math.sqrt(n)
        assert abs(values.mean()) <= 4 * se


def test_stein_operator_matches_reference_loop():
    params = FisherBinghamParams(np.array([0.5, 1.0, -0.2]),
                                 np.array([[0.3, 0.1, 0], [0.1, -0.4, 0.2],
                                           [0, 0.2, 0.0]]))
    f2 = canonical_f2(3)
    rng = np.random.default_rng(10)
    x = random_unit_rows(rng, 40, 3)
    reference = stein_mean_reference(lambda p: score(params, p), f2, x)
    direct = np.mean([stein_operator_apply(params, f2, row) for row in x], axis=0)
    np.testing.assert_allclose(direct, reference, atol=1e-13)


def test_chunks_cut_within_the_budget_one_item_at_least(monkeypatch):
    # an exact multiple, a remainder, an item beyond the budget, one item
    assert models.chunks(6, 8, 16) == [slice(0, 2), slice(2, 4), slice(4, 6)]
    assert models.chunks(7, 8, 24) == [slice(0, 3), slice(3, 6), slice(6, 7)]
    assert models.chunks(3, 100, 16) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    assert models.chunks(1, 8, 1024) == [slice(0, 1)]
    assert models.chunks(1, 100, 16) == [slice(0, 1)]
    # the default budget is WORK_BYTES as it reads when called
    monkeypatch.setattr(models, "WORK_BYTES", 40)
    assert models.chunks(5, 16) == [slice(0, 2), slice(2, 4), slice(4, 5)]
