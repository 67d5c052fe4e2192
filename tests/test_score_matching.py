"""Which Stein estimators are score matching (SM) estimators.

SM (Hyvarinen 2005; Mardia, Kent & Laha 2016) fits a log density
theta'T(x) on the sphere in closed form, -W^-1 mean[Lap_S T]
(oracles.score_matching_fit).  These tests pin the identities between
it and the package's Stein fits:

* Fisher-Bingham ST is FB SM: its coefficient matrix [[M', E], [G', L]]
  is diag(D) W, with D 1/2 on the rows of off-diagonal A entries and 1
  elsewhere, and its right-hand side is -diag(D) mean[Lap_S T];
* vMF ST2's (d-1)(I - S)^-1 Xbar is the joint SM estimate of kappa mu;
* vMF ``sm`` is SM of kappa on the mean direction;
* vMF ST is (d-1) r (1 - y2) / ((1 - y2)^2 + |S mu - y2 mu|^2) with
  y2 = mu'S mu, and SM drops the second term of that denominator, so
  ST <= SM.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from spherestein.est_fb import fb_statistics, fb_stein_fit
from spherestein.est_vmf import kappa_score_matching, kappa_stein, kappa_stein2
from spherestein.linalg import vech_prime
from spherestein.models import FisherBinghamParams, VmfParams, params_from_dict
from spherestein.sampler import sample_fb, sample_vmf

from oracles import fb_score_statistic, lower_pairs, random_unit_rows, score_matching_fit

CONFIG_DIR = Path(__file__).parent.parent / "configs"


def _fb_params(name):
    if name == "d10":
        mu = np.zeros(10)
        mu[0] = 3.0
        return FisherBinghamParams(mu, np.diag(np.linspace(-2.0, 0.0, 10)))
    return params_from_dict(json.loads((CONFIG_DIR / f"{name}.json").read_text())["params"])


def _d_weights(d):
    # D: 1/2 on the rows of off-diagonal A entries, 1 on the others and on mu's
    return np.array([1.0 if i == j else 0.5 for i, j in lower_pairs(d)[:-1]] + [1.0] * d)


@pytest.mark.parametrize("name", ["table1_fig2", "table1_fig3", "table1_fig6", "d10"])
def test_fb_stein_fit_is_score_matching(name):
    x = sample_fb(_fb_params(name), 200, 21)
    theta = score_matching_fit(x[0], *fb_score_statistic(x[0]))[0]
    fit = fb_stein_fit(x)
    stein = np.concatenate([vech_prime(fit.A_hat[0]), fit.mu_hat[0]])
    assert np.linalg.norm(stein - theta) <= 1e-11 * np.linalg.norm(theta)


@pytest.mark.parametrize("d", [3, 5, 10])
def test_fb_stein_system_is_diag_d_times_score_matching_system(d):
    # an algebraic identity of the statistics, so any unit rows will do
    x = random_unit_rows(np.random.default_rng(22 + d), 60, d)
    jac, lap_s = fb_score_statistic(x)
    w = score_matching_fit(x, jac, lap_s)[1]
    st = fb_statistics(x[None])
    coef = np.block([[st.m_prime[0], st.e_mat[0]], [st.g_prime[0], st.l_mat[0]]])
    rhs = np.concatenate([st.d_vec[0], st.h_vec[0]])
    weights = _d_weights(d)
    assert np.linalg.norm(coef - weights[:, None] * w) <= 1e-13 * np.linalg.norm(coef)
    assert np.linalg.norm(rhs + weights * lap_s.mean(axis=0)) <= 1e-13 * np.linalg.norm(rhs)


def _vmf_stack(d, kappa):
    mu = np.ones(d) / np.sqrt(d)
    return sample_vmf(VmfParams(mu, kappa), 100, 23, range(8))


@pytest.mark.parametrize("d,kappa", [(3, 2.0), (3, 10.0), (10, 10.0)])
def test_vmf_st2_is_joint_score_matching(d, kappa):
    # T(x) = x and theta = kappa mu: J = I and Lap_S x = -(d-1) x
    stack = _vmf_stack(d, kappa)
    fit = kappa_stein2(stack)
    for k, x in enumerate(stack):
        jac = np.broadcast_to(np.eye(d), (len(x), d, d))
        theta = score_matching_fit(x, jac, -(d - 1.0) * x)[0]
        assert fit.kappa_hat[k] == pytest.approx(np.linalg.norm(theta), rel=1e-13)


@pytest.mark.parametrize("d,kappa", [(3, 2.0), (3, 10.0), (10, 10.0)])
def test_vmf_sm_is_score_matching_on_the_mean_direction(d, kappa):
    # T(x) = m'x on the mean direction m, and theta = kappa
    stack = _vmf_stack(d, kappa)
    fit = kappa_score_matching(stack)
    for k, x in enumerate(stack):
        m = fit.mu_hat[k]
        jac = np.broadcast_to(m, (len(x), 1, d))
        theta = score_matching_fit(x, jac, -(d - 1.0) * (x @ m)[:, None])[0]
        assert fit.kappa_hat[k] == pytest.approx(theta[0], rel=1e-13)


@pytest.mark.parametrize("d,kappa", [(3, 2.0), (3, 10.0), (10, 10.0)])
def test_vmf_st_closed_form_and_below_score_matching(d, kappa):
    stack = _vmf_stack(d, kappa)
    st, sm = kappa_stein(stack), kappa_score_matching(stack)
    for k, x in enumerate(stack):
        xbar = x.mean(axis=0)
        r = np.linalg.norm(xbar)
        mu = xbar / r
        s_mu = x.T @ (x @ mu) / len(x)
        y2 = mu @ s_mu
        off = s_mu - y2 * mu
        closed = (d - 1.0) * r * (1.0 - y2) / ((1.0 - y2) ** 2 + off @ off)
        assert st.kappa_hat[k] == pytest.approx(closed, rel=1e-12)
    assert np.all(st.kappa_hat <= sm.kappa_hat)
