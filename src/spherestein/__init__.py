"""Moment-type estimation for spherical distributions.

Samplers, estimators and closed-form asymptotics for the Fisher-Bingham,
von Mises-Fisher and Watson families on the unit hypersphere S^{d-1},
plus a Monte Carlo harness for simulation studies.  The estimators solve
the empirical version of an integration-by-parts (Stein) identity and
never touch a normalising constant.

Samplers and estimators work on stacks: a sampler draws a (b, n, d)
stack for a sequence of b RngStates, and an estimator fits every slice
of a (b, n, d) stack at once.  ``fit_one(family, code, x)`` fits one
n x d sample and returns its report.
"""

from .est_fb import FbEstimate, fb_stein_fit, fb_stein_residual, fb_statistics
from .est_vmf import (
    DegenerateMean,
    VmfEstimate,
    fisher_information_vmf,
    kappa_mle,
    kappa_score_matching,
    kappa_stein,
    kappa_stein2,
    mean_direction,
    stein_asymptotic_variance_vmf,
)
from .est_watson import (
    NotEligible,
    WatsonEstimate,
    watson_mla_bounds,
    watson_mla_fit,
    watson_stein_fit,
)
from .families import fit_one
from .harness import SimConfig, SimResult, run_simulation
from .linalg import SingularSystem
from .models import FisherBinghamParams, VmfParams, WatsonParams
from .sampler import RngState, sample_fb, sample_uniform, sample_vmf, sample_watson

__version__ = "0.1.0"

__all__ = [
    "DegenerateMean",
    "FbEstimate",
    "FisherBinghamParams",
    "NotEligible",
    "RngState",
    "SimConfig",
    "SimResult",
    "SingularSystem",
    "VmfEstimate",
    "VmfParams",
    "WatsonEstimate",
    "WatsonParams",
    "fb_stein_fit",
    "fb_stein_residual",
    "fb_statistics",
    "fisher_information_vmf",
    "fit_one",
    "kappa_mle",
    "kappa_score_matching",
    "kappa_stein",
    "kappa_stein2",
    "mean_direction",
    "run_simulation",
    "sample_fb",
    "sample_uniform",
    "sample_vmf",
    "sample_watson",
    "stein_asymptotic_variance_vmf",
    "watson_mla_bounds",
    "watson_mla_fit",
    "watson_stein_fit",
]
