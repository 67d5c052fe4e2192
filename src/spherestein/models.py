"""Parameter families on the unit sphere, their densities, and the
spherical Stein operator.

The three families are exponential tilts of the uniform measure on
S^{d-1}:

* Fisher-Bingham:  exp(mu'x + x'Ax), A symmetric with A[d,d] = 0,
* von Mises-Fisher: exp(kappa * mu'x), mu a unit vector, kappa > 0,
* Watson:          exp(kappa * (mu'x)^2), mu a unit axis, kappa real.

Scores (gradients of the log density) are hard-coded per family, so no
normalising constant enters the operator.  For a smooth test function f
with Jacobian J, row-stacked vectorized Hessians H and componentwise
Laplacian L, the operator at a sphere point x is

    A f(x) = (1 - d) J x  -  H (x (x) x)  +  L  +  J (I - x x') score(x),

and E[A f(X)] = 0 whenever X follows the corresponding density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, ClassVar, get_args

import numpy as np

from . import special
from .linalg import fix_sign, lower_pairs

_UNIT_TOL = 1e-8
_SYM_TOL = 1e-10


def _as_vector(mu, name: str = "mu") -> np.ndarray:
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 1 or mu.size < 2:
        raise ValueError(f"{name} must be a vector of dimension >= 2")
    if not np.all(np.isfinite(mu)):
        raise ValueError(f"{name} must be finite")
    return mu


def _as_unit_vector(mu, name: str = "mu") -> np.ndarray:
    mu = _as_vector(mu, name)
    norm = float(np.linalg.norm(mu))
    if abs(norm - 1.0) > _UNIT_TOL:
        raise ValueError(f"{name} must be a unit vector")
    return mu / norm


def sample_matrix(x) -> np.ndarray:
    """A sample as a float n x d array; raises ValueError on any other shape."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 2:
        raise ValueError("sample must be an n x d array with d >= 2")
    return x


def _check_unit_point(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if abs(np.linalg.norm(x) - 1.0) > _UNIT_TOL:
        raise ValueError("x must lie on the unit sphere")
    return x


@dataclass
class FisherBinghamParams:
    """Location vector mu and symmetric matrix A with A[d, d] pinned to 0."""

    family: ClassVar[str] = "fb"
    mu: np.ndarray
    A: np.ndarray

    def __post_init__(self):
        self.mu = _as_vector(self.mu)
        a = np.asarray(self.A, dtype=float)
        d = self.mu.size
        if a.shape != (d, d):
            raise ValueError("A must be d x d")
        if np.max(np.abs(a - a.T)) > _SYM_TOL:
            raise ValueError("A must be symmetric")
        if abs(a[d - 1, d - 1]) > 1e-12:
            raise ValueError("A[d, d] must be zero")
        a = 0.5 * (a + a.T)
        a[d - 1, d - 1] = 0.0
        self.A = a

    @property
    def d(self) -> int:
        return self.mu.size

    def score(self, x: np.ndarray) -> np.ndarray:
        return self.mu + 2.0 * (self.A @ x)

    def exponent(self, x: np.ndarray) -> float:
        return float(self.mu @ x + x @ self.A @ x)


@dataclass
class VmfParams:
    """Unit mean direction mu and concentration kappa > 0."""

    family: ClassVar[str] = "vmf"
    mu: np.ndarray
    kappa: float

    def __post_init__(self):
        self.mu = _as_unit_vector(self.mu)
        self.kappa = float(self.kappa)
        if not self.kappa > 0:
            raise ValueError("kappa must be > 0")

    @property
    def d(self) -> int:
        return self.mu.size

    def score(self, x: np.ndarray) -> np.ndarray:
        return self.kappa * self.mu

    def exponent(self, x: np.ndarray) -> float:
        return float(self.kappa * (self.mu @ x))


@dataclass
class WatsonParams:
    """Unit axis mu (sign-ambiguous, stored canonically) and real kappa.

    The axis is only identified up to sign; we store the representative
    whose largest-magnitude component is nonnegative.
    """

    family: ClassVar[str] = "watson"
    mu: np.ndarray
    kappa: float

    def __post_init__(self):
        self.mu = fix_sign(_as_unit_vector(self.mu))
        self.kappa = float(self.kappa)

    @property
    def d(self) -> int:
        return self.mu.size

    def score(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * self.kappa * float(self.mu @ x) * self.mu

    def exponent(self, x: np.ndarray) -> float:
        return float(self.kappa * (self.mu @ x) ** 2)


Params = FisherBinghamParams | VmfParams | WatsonParams


def score(params: Params, x: np.ndarray) -> np.ndarray:
    """Gradient of the log (unnormalized) density at x, as a vector."""
    return params.score(x)


def log_unnormalized_density(params: Params, x) -> float:
    """The exponent of the density: mu'x + x'Ax, kappa mu'x, or kappa (mu'x)^2."""
    return params.exponent(_check_unit_point(x))


def vmf_log_normalizer(d: int, kappa: float) -> float:
    """log of the vMF density prefactor kappa^{d/2-1} / ((2 pi)^{d/2} I_{d/2-1})."""
    return (
        (0.5 * d - 1.0) * math.log(kappa)
        - 0.5 * d * math.log(2.0 * math.pi)
        - special.log_bessel_i(0.5 * d - 1.0, kappa)
    )


def vmf_log_density(params: VmfParams, x) -> float:
    """Exact vMF log density with respect to the surface measure."""
    x = _check_unit_point(x)
    return vmf_log_normalizer(params.d, params.kappa) + params.kappa * float(
        params.mu @ x
    )


def watson_log_normalizer(d: int, kappa: float) -> float:
    """log of Gamma(d/2) / (2 pi^{d/2} 1F1(1/2; d/2; kappa))."""
    return (
        math.lgamma(0.5 * d)
        - math.log(2.0)
        - 0.5 * d * math.log(math.pi)
        - math.log(special.kummer_1f1(0.5, 0.5 * d, kappa))
    )


def watson_log_density(params: WatsonParams, x) -> float:
    """Exact Watson log density with respect to the surface measure."""
    x = _check_unit_point(x)
    return watson_log_normalizer(params.d, params.kappa) + params.kappa * float(
        params.mu @ x
    ) ** 2


@dataclass
class SmoothTestFunction:
    """A smooth map f: S^{d-1} -> R^m with analytic derivatives.

    jacobian(x) is the m x d Jacobian; hessian_rows(x) is m x d^2 with row
    i the column-stacked vectorized Hessian of component i; laplacian(x)
    collects the componentwise Laplacians.
    """

    m: int
    value: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    hessian_rows: Callable[[np.ndarray], np.ndarray]
    laplacian: Callable[[np.ndarray], np.ndarray]


def canonical_f1(d: int) -> SmoothTestFunction:
    """The identity test function f(x) = x."""
    eye = np.eye(d)
    zeros_h = np.zeros((d, d * d))
    zeros_l = np.zeros(d)
    return SmoothTestFunction(
        m=d,
        value=lambda x: np.asarray(x, dtype=float).copy(),
        jacobian=lambda x: eye,
        hessian_rows=lambda x: zeros_h,
        laplacian=lambda x: zeros_l,
    )


def canonical_f2(d: int) -> SmoothTestFunction:
    """The quadratic test function f(x) = vech'(x x')."""
    pairs = lower_pairs(d)[:-1]
    m = len(pairs)

    hess = np.zeros((m, d * d))
    lap = np.zeros(m)
    for k, (i, j) in enumerate(pairs):
        e = np.zeros((d, d))
        e[i, j] += 1.0
        e[j, i] += 1.0
        hess[k] = e.flatten(order="F")
        if i == j:
            lap[k] = 2.0

    def value(x):
        x = np.asarray(x, dtype=float)
        return np.array([x[i] * x[j] for i, j in pairs])

    def jacobian(x):
        x = np.asarray(x, dtype=float)
        jac = np.zeros((m, d))
        for k, (i, j) in enumerate(pairs):
            jac[k, i] += x[j]
            jac[k, j] += x[i]
        return jac

    return SmoothTestFunction(
        m=m,
        value=value,
        jacobian=jacobian,
        hessian_rows=lambda x: hess,
        laplacian=lambda x: lap,
    )


def stein_operator_apply(params: Params, f: SmoothTestFunction, x) -> np.ndarray:
    """Componentwise value of the spherical Stein operator at x."""
    x = _check_unit_point(x)
    d = x.size
    jac = f.jacobian(x)
    s = params.score(x)
    s_proj = s - x * float(x @ s)
    return (
        (1.0 - d) * (jac @ x)
        - f.hessian_rows(x) @ np.kron(x, x)
        + f.laplacian(x)
        + jac @ s_proj
    )


# JSON parameter schema shared with the CLI -------------------------------

def params_to_dict(params: Params) -> dict:
    out = {"family": params.family}
    for f in fields(params):
        value = getattr(params, f.name)
        out[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return out


def params_from_dict(obj: dict) -> Params:
    """Parse {"family": ..., "mu": [...], "A"/"kappa": ...}; raises ValueError."""
    if not isinstance(obj, dict):
        raise ValueError("parameters must be a JSON object")
    family = obj.get("family")
    for cls in get_args(Params):
        if cls.family == family:
            break
    else:
        raise ValueError(f"unknown family {family!r}")
    names = [f.name for f in fields(cls)]
    if any(name not in obj for name in names):
        raise ValueError(f"{family} parameters need "
                         + " and ".join(repr(name) for name in names))
    try:
        return cls(**{name: obj[name] for name in names})
    except TypeError as exc:  # e.g. float() of a list
        raise ValueError(f"{family} parameters: {exc}") from None
