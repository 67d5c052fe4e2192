"""The family table: what the simulation harness and the CLI need to know
about each parameter family, in one place.

* ``SAMPLERS[family]`` draws ``(params, n, rng) -> n x d`` sample rows
  for one RngState, or a (b, n, d) stack for a sequence of b of them.
* ``ESTIMATORS[family, code]`` fits a sample or a stack; the codes are the
  names that configs and ``fit --estimator`` use.  A stack's fit holds one
  entry per sample in each field, and its ``ne`` flags the samples
  without an estimate, where a single sample raises instead.
* ``PREPARE[family]``, where a family has it, is the step that turns a
  stack into the object its estimators share, so that work common to
  them (the Watson scatter eigendecomposition) runs once per block.
* ``FAMILIES[family]`` says which estimators a study runs by default, how
  a fit is scored against the true parameters, and which fields a fit
  report carries.

Adding an estimator is one ``ESTIMATORS`` entry.  Adding a family is its
params class in ``models``, listed in the ``Params`` union there, plus one
entry in each table here.  The callables sit in flat module-level dicts
and are looked up at call time, so a caller can swap or wrap one entry in
place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import est_fb, est_vmf, est_watson, sampler
from .models import Params

SAMPLERS: dict[str, Callable] = {
    "vmf": sampler.sample_vmf,
    "watson": sampler.sample_watson,
    "fb": sampler.sample_fb,
}

PREPARE: dict[str, Callable] = {"watson": est_watson.prepare_sample}

ESTIMATORS: dict[tuple[str, str], Callable] = {
    ("vmf", "st"): est_vmf.kappa_stein,
    ("vmf", "st2"): est_vmf.kappa_stein2,
    ("vmf", "ml"): est_vmf.kappa_mle,
    ("vmf", "sm"): est_vmf.kappa_score_matching,
    ("watson", "st"): est_watson.watson_stein_fit,
    ("watson", "mla"): est_watson.watson_mla_fit,
    ("watson", "ml"): est_watson.watson_mle_fit,
    ("fb", "st"): est_fb.fb_stein_fit,
}


@dataclass(frozen=True)
class Family:
    """How a family's fits are scored and reported.

    ``errors(fit, params)`` takes the fit of a stack and returns one array
    per entry of ``blocks``, holding each sample's error (NaN where there
    is no estimate).  Signed errors (``signed``) give a bias and an MSE per
    block; unsigned ones are distances, which give an MSE and a mean
    distance instead.
    """

    defaults: tuple[str, ...]
    blocks: tuple[str, ...]
    signed: bool
    errors: Callable[[Any, Params], tuple[np.ndarray, ...]]
    report: Callable[[Any], dict]


def _kappa_error(fit, params) -> tuple[np.ndarray, ...]:
    return (fit.kappa_hat - params.kappa,)


def _fb_errors(fit, params) -> tuple[np.ndarray, ...]:
    # the norm of each mu error row is one dot product, as for one vector;
    # a NaN slice's A error is zeroed for the SVD and reported as NaN
    mu_err = fit.mu_hat - params.mu
    a_err = np.where(fit.ne[:, None, None], 0.0, fit.A_hat - params.A)
    return (np.sqrt(np.vecdot(mu_err, mu_err)),
            np.where(fit.ne, np.nan, np.linalg.norm(a_err, 2, axis=(1, 2))))


def _vmf_report(fit) -> dict:
    return {"mu": fit.mu_hat.tolist(), "kappa": fit.kappa_hat,
            "diagnostics": fit.diagnostics}


def _watson_report(fit) -> dict:
    return {"mu": fit.mu_hat.tolist(), "kappa": fit.kappa_hat,
            "branch": fit.branch,
            "eligible_branches": list(fit.eligible_branches),
            "residual_norms": fit.residual_norms}


def _fb_report(fit) -> dict:
    return {"mu": fit.mu_hat.tolist(), "A": fit.A_hat.tolist(),
            "residual_norm": fit.residual_norm,
            "cond_Mprime": fit.cond_m_prime, "cond_schur": fit.cond_schur}


FAMILIES: dict[str, Family] = {
    "fb": Family(("st",), ("mu", "A"), False, _fb_errors, _fb_report),
    "vmf": Family(("st", "ml", "sm"), ("kappa",), True, _kappa_error,
                  _vmf_report),
    "watson": Family(("st", "mla"), ("kappa",), True, _kappa_error,
                     _watson_report),
}
