"""Parameter types for the three families on the unit sphere, the JSON
parameter schema the CLI reads, and the sample stack whose moments every
family's estimators read.

The three families are exponential tilts of the uniform measure on
S^{d-1}:

* Fisher-Bingham:  exp(mu'x + x'Ax), A symmetric with A[d,d] = 0,
* von Mises-Fisher: exp(kappa * mu'x), mu a unit vector, kappa > 0,
* Watson:          exp(kappa * (mu'x)^2), mu a unit axis, kappa real.

A params class holds its family's ``family`` name and its fields, and
checks them on construction; every field must be finite.  The checks and
the working-size rule (``chunks``) that the other modules share live here
too, and so does ``Sample``, the one place that forms a stack's means
Xbar, scatters S and S's axes, each on its first read; of the package,
this module imports only ``linalg``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar, get_args

import numpy as np

from .linalg import _UNIT_TOL, _check_symmetric, fix_sign, sym_eigen

# working memory of the arrays that grow faster than a sample stack (ACG proposal
# stacks, Fisher-Bingham pair products x_i x_j): chunks cuts them into groups within it
WORK_BYTES = 128 * 1024


def chunks(count: int, item_bytes: int, budget: int | None = None) -> list[slice]:
    """The consecutive slices of range(count) within ``budget`` bytes (by default
    WORK_BYTES, read at call time) at ``item_bytes`` per item, one item at least."""
    step = max(1, (WORK_BYTES if budget is None else budget) // item_bytes)
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def as_int(value, name: str, low: int) -> int:
    """value as an int: an int or numpy integer (a bool is not one) >= low,
    else ValueError naming ``name``.  The samplers' seed and SimConfig's
    counts share this rule."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return int(value)


def _as_vector(mu) -> np.ndarray:
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 1 or mu.size < 2:
        raise ValueError("mu must be a vector of dimension >= 2")
    if not np.all(np.isfinite(mu)):
        raise ValueError("mu must be finite")
    return mu


def _as_unit_vector(mu) -> np.ndarray:
    mu = _as_vector(mu)
    norm = float(np.linalg.norm(mu))
    if abs(norm - 1.0) > _UNIT_TOL:
        raise ValueError("mu must be a unit vector")
    return mu / norm


class _memo:
    # a value formed on first read and kept per instance, in its __dict__,
    # which later reads find first (this descriptor has no __set__); Python
    # 3.11's cached_property would hold one lock, shared by all instances,
    # while a getter runs
    def __init__(self, getter):
        self.getter, self.__doc__ = getter, getter.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        return obj.__dict__.setdefault(self.getter.__name__, self.getter(obj))


class Sample:
    """A checked (b, n, d) stack ``x`` of b >= 1 samples, each of n >= 1
    rows of d >= 2 coordinates, held as a C-ordered float array (so the
    estimates' bits do not depend on the caller's layout); raises
    ValueError on any other shape.

    The moments that the families' estimators read, ``xbar``, ``scatter``
    and ``axes``, are formed on first read and kept in the instance
    (``vars(sample)`` shows which), so all the fits of a simulation block
    share one of each and a moment that no fit reads is never formed."""

    def __init__(self, x):
        x = np.ascontiguousarray(x, dtype=float)
        if x.ndim != 3 or x.shape[0] == 0:
            raise ValueError("sample stack must be a b x n x d array with b >= 1")
        if x.shape[1] == 0 or x.shape[2] < 2:
            raise ValueError("each sample needs n >= 1 rows of d >= 2 coordinates, "
                             f"got {x.shape[1]} x {x.shape[2]}")
        self.x = x

    @_memo
    def xbar(self) -> np.ndarray:
        """The means Xbar = x.mean(axis=1), b x d."""
        return self.x.mean(axis=1)

    @_memo
    def scatter(self) -> np.ndarray:
        """The scatters S = x'x/n, b x d x d (X'X is one syrk per slice)."""
        return np.matmul(self.x.swapaxes(1, 2), self.x) / self.x.shape[1]

    @_memo
    def axes(self) -> dict[str, np.ndarray]:
        """The scatters' top ("+") and bottom ("-") eigenvectors, b x d
        column views of one batched ``linalg.sym_eigen``: Watson's bipolar
        and girdle branches.  A near-isotropic sample has no meaningful
        axis; its eigenvectors are still deterministic (sign-fixed), just
        unstable under resampling."""
        vecs = sym_eigen(self.scatter)
        return {"+": vecs[..., 0], "-": vecs[..., -1]}


def sample_stack(x) -> Sample:
    """The Sample of a (b, n, d) stack; a Sample is returned as it is."""
    return x if isinstance(x, Sample) else Sample(x)


class _SphereParams:
    # what every params class shares: the ambient dimension, mu's length
    @property
    def d(self) -> int:
        return self.mu.size


@dataclass
class FisherBinghamParams(_SphereParams):
    """Location vector mu and symmetric matrix A with A[d, d] pinned to 0."""

    family: ClassVar[str] = "fb"
    mu: np.ndarray
    A: np.ndarray

    def __post_init__(self):
        self.mu = _as_vector(self.mu)
        a = np.asarray(self.A, dtype=float)
        d = self.mu.size
        if a.shape != (d, d) or not np.all(np.isfinite(a)):
            raise ValueError("A must be a finite d x d matrix")
        _check_symmetric(a)
        if abs(a[d - 1, d - 1]) > 1e-12:
            raise ValueError("A[d, d] must be zero")
        a = 0.5 * a + 0.5 * a.T  # a + a.T may overflow; halving a normal float is exact
        a[d - 1, d - 1] = 0.0
        self.A = a


@dataclass
class VmfParams(_SphereParams):
    """Unit mean direction mu and concentration kappa > 0."""

    family: ClassVar[str] = "vmf"
    mu: np.ndarray
    kappa: float

    def __post_init__(self):
        self.mu = _as_unit_vector(self.mu)
        self.kappa = float(self.kappa)
        if not 0 < self.kappa < math.inf:
            raise ValueError("kappa must be finite and > 0")


@dataclass
class WatsonParams(_SphereParams):
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
        if not math.isfinite(self.kappa):
            raise ValueError("kappa must be finite")


Params = FisherBinghamParams | VmfParams | WatsonParams


def _numbers_only(value) -> bool:
    # whether every leaf of a nested list is a JSON number (a bool is not one)
    if isinstance(value, list):
        return all(map(_numbers_only, value))
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def params_from_dict(obj: dict) -> Params:
    """Parse the JSON parameter schema {"family": ..., "mu": [...],
    "A"/"kappa": ...} of JSON numbers (not strings or booleans); raises
    ValueError, also on a key that is not the family's."""
    if not isinstance(obj, dict):
        raise ValueError("parameters must be a JSON object")
    family = obj.get("family")
    for cls in get_args(Params):
        if cls.family == family:
            break
    else:
        raise ValueError(f"unknown family {family!r}")
    names = [f.name for f in fields(cls)]
    for key in obj:
        if key != "family" and key not in names:
            raise ValueError(f"unknown {family} parameter key {key!r}")
    if any(name not in obj for name in names):
        raise ValueError(f"{family} parameters need "
                         + " and ".join(repr(name) for name in names))
    for name in names:
        if not _numbers_only(obj[name]):
            raise ValueError(f"{family} parameter {name!r} must hold only numbers")
    try:
        return cls(**{name: obj[name] for name in names})
    except TypeError as exc:  # e.g. float() of a list
        raise ValueError(f"{family} parameters: {exc}") from None
