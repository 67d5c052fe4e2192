"""The family table: what the simulation harness and the CLI need to know
about each parameter family, in one place.

* ``SAMPLERS[family]`` draws ``(params, n, rngs)``: a (b, n, d) stack of
  samples for a sequence of b RngStates.
* ``ESTIMATORS[family, code]`` fits a (b, n, d) stack, or what
  ``PREPARE`` makes of it; the codes are the names that configs and
  ``fit --estimator`` use.  The fit holds one entry per sample in each
  field, and its ``ne`` flags the samples without an estimate.
* ``PREPARE[family]``, where a family has it, is the step that turns a
  stack into the object its estimators share, so that work common to
  them (the vMF resultant, the Watson scatter eigendecomposition) runs
  once per block.  A sample that a fit rejects (a zero vMF resultant)
  still fails in that fit, so a failure names its estimator.
* ``FAMILIES[family]`` says which estimators a study runs by default, how
  a fit is scored against the true parameters, which typed outcome a
  sample without an estimate raises, and which fields a fit report
  carries.

``fit_one`` is the one single-sample path: it fits one n x d sample as a
stack of one and returns its report, or raises its typed outcome.

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
from .est_watson import NotEligible
from .linalg import SingularSystem, is_singular
from .models import Params

# FB estimates with larger norms are reported with a warning: far out on
# the likelihood plateau, very different (mu, A) give near-identical
# densities
IDENTIFICATION_NORM = 25.0

SAMPLERS: dict[str, Callable] = {
    "vmf": sampler.sample_vmf,
    "watson": sampler.sample_watson,
    "fb": sampler.sample_fb,
}

PREPARE: dict[str, Callable] = {
    "vmf": est_vmf.prepare_sample,
    "watson": est_watson.prepare_sample,
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

    ``errors(fit, params)`` takes the fit of a stack and returns one array
    per entry of ``blocks``, holding each sample's error (NaN where there
    is no estimate).  Signed errors (``signed``) give a bias and an MSE per
    block; unsigned ones are distances, which give an MSE and a mean
    distance instead.  ``outcome(fit)`` is the typed exception for slice
    0 of a fit that flags it in ``ne``, and ``report(fit)`` the fields,
    warnings included, that ``cli fit`` prints for slice 0.
    """

    defaults: tuple[str, ...]
    blocks: tuple[str, ...]
    signed: bool
    errors: Callable[[Any, Params], tuple[np.ndarray, ...]]
    outcome: Callable[[Any], Exception]
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


def _vmf_outcome(fit) -> Exception:
    # only ST2 flags a sample: its I - S is singular
    return SingularSystem("I - mean(xx')", float(fit.diagnostics["cond"][0]))


def _watson_outcome(fit) -> Exception:
    # each branch has a wrong-signed kappa, or none (NaN) at all
    why = [f"kappa^{b} has no estimate" if np.isnan(k) else f"kappa^{b} = {k:.4g} {rel} 0"
           for b, rel, k in (("-", ">", fit.kappas["-"][0]), ("+", "<", fit.kappas["+"][0]))]
    return NotEligible(" and ".join(why))


def _fb_outcome(fit) -> Exception:
    if is_singular(fit.cond_m_prime[0]):
        return SingularSystem("M'", float(fit.cond_m_prime[0]))
    return SingularSystem("Schur complement", float(fit.cond_schur[0]))


def _vmf_report(fit) -> dict:
    return {"mu": fit.mu_hat[0].tolist(), "kappa": float(fit.kappa_hat[0]),
            "diagnostics": {k: v[0].item() for k, v in fit.diagnostics.items()},
            "warnings": []}


def _watson_report(fit) -> dict:
    warnings = (["near-uniform: |kappa| < 1e-6, axis weakly identified"]
                if fit.near_uniform[0] else [])
    return {"mu": fit.mu_hat[0].tolist(), "kappa": float(fit.kappa_hat[0]),
            "branch": str(fit.branch[0]),
            "eligible_branches": [b for b, ok in fit.eligible.items() if ok[0]],
            # null for a branch without an estimate (ST's NaN, MLa's inf)
            "residual_norms": {b: float(s[0]) if np.isfinite(s[0]) else None
                               for b, s in fit.residual_norms.items()},
            "warnings": warnings}


def _fb_report(fit) -> dict:
    mu, a = fit.mu_hat[0], fit.A_hat[0]
    mu_norm, a_norm = np.linalg.norm(mu), np.linalg.norm(a, 2)
    warnings = []
    if max(mu_norm, a_norm) > IDENTIFICATION_NORM:
        warnings.append(f"identification: parameter norms are large (|mu| = "
                        f"{mu_norm:.1f}, |A| = {a_norm:.1f}); distinct parameters "
                        "this far out can produce near-identical densities")
    return {"mu": mu.tolist(), "A": a.tolist(),
            "residual_norm": float(fit.residual_norm[0]),
            "cond_Mprime": float(fit.cond_m_prime[0]),
            "cond_schur": float(fit.cond_schur[0]), "warnings": warnings}


FAMILIES: dict[str, Family] = {
    "fb": Family(("st",), ("mu", "A"), False, _fb_errors, _fb_outcome,
                 _fb_report),
    "vmf": Family(("st", "ml", "sm"), ("kappa",), True, _kappa_error,
                  _vmf_outcome, _vmf_report),
    "watson": Family(("st", "mla"), ("kappa",), True, _kappa_error,
                     _watson_outcome, _watson_report),
}


def fit_one(family: str, code: str, x) -> dict:
    """Fit one n x d sample with estimator ``code`` of ``family``, as the
    stack x[None] of one sample, and return the report that ``cli fit``
    prints (its fields and its "warnings" list).

    A sample without an estimate raises the family's typed outcome:
    NotEligible (Watson ST and MLa) or SingularSystem (vMF ST2, FB).
    """
    fit = ESTIMATORS[family, code](np.asarray(x)[None])
    fam = FAMILIES[family]
    if fit.ne[0]:
        raise fam.outcome(fit)
    return fam.report(fit)
