"""The family table: what the simulation harness and the CLI need to know
about each parameter family, in one place.

* ``SAMPLERS[family]`` draws ``(params, n, rng) -> n x d`` sample rows.
* ``ESTIMATORS[family, code]`` fits a sample; the codes are the names that
  configs and ``fit --estimator`` use.
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
from .linalg import spectral_norm
from .models import Params

SAMPLERS: dict[str, Callable] = {
    "vmf": sampler.sample_vmf,
    "watson": sampler.sample_watson,
    "fb": sampler.sample_fb,
}

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

    ``errors(fit, params)`` returns one error per entry of ``blocks``.
    Signed errors (``signed``) give a bias and an MSE per block; unsigned
    ones are distances, which give an MSE and a mean distance instead.

    A ``stacked`` family's sampler also takes a sequence of b streams and
    returns a (b, n, d) stack, and its estimators fit such a stack in one
    call: the fit's fields, and so its errors, hold one entry per sample,
    and its ``ne`` flags the samples without an estimate.  The estimators
    of any other family are applied to one sample at a time.
    """

    defaults: tuple[str, ...]
    blocks: tuple[str, ...]
    signed: bool
    errors: Callable[[Any, Params], tuple[float, ...]]
    report: Callable[[Any], dict]
    stacked: bool = False


def _kappa_error(fit, params) -> tuple[float, ...]:
    return (fit.kappa_hat - params.kappa,)


def _fb_errors(fit, params) -> tuple[float, ...]:
    return (float(np.linalg.norm(fit.mu_hat - params.mu)),
            spectral_norm(fit.A_hat - params.A))


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
                  _vmf_report, stacked=True),
    "watson": Family(("st", "mla"), ("kappa",), True, _kappa_error,
                     _watson_report),
}
