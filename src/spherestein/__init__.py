"""Moment-type estimation for spherical distributions.

Samplers, estimators and closed-form asymptotics for the Fisher-Bingham,
von Mises-Fisher and Watson families on the unit hypersphere S^{d-1},
plus a Monte Carlo harness for simulation studies.  The estimators solve
the empirical version of an integration-by-parts (Stein) identity and
never touch a normalising constant.
"""

from .est_fb import FbEstimate, fb_stein_fit, fb_stein_residual, fb_statistics
from .est_vmf import (
    DegenerateMean,
    VmfEstimate,
    kappa_mle,
    kappa_score_matching,
    kappa_stein,
    kappa_stein2,
    mean_direction,
)
from .est_watson import (
    NotEligible,
    WatsonEstimate,
    watson_axis,
    watson_mla_bounds,
    watson_mla_fit,
    watson_mle_kappa,
    watson_statistics,
    watson_stein_fit,
    watson_stein_kappa,
)
from .harness import SimConfig, SimResult, run_simulation
from .linalg import SingularSystem
from .models import FisherBinghamParams, VmfParams, WatsonParams
from .sampler import RngState, sample_fb, sample_uniform, sample_vmf, sample_watson
from .vmf_moments import fisher_information_vmf, stein_asymptotic_variance_vmf

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
    "watson_axis",
    "watson_mla_bounds",
    "watson_mla_fit",
    "watson_mle_kappa",
    "watson_statistics",
    "watson_stein_fit",
    "watson_stein_kappa",
]
