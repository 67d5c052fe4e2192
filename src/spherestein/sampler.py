"""Random generation on S^{d-1}: uniform, von Mises-Fisher, Watson and
Fisher-Bingham samples.

All samplers are exact rejection schemes driven by an explicit
counter-based RNG state, so a (seed, stream) pair fully determines the
output regardless of how calls are scheduled across threads.

vMF uses the Ulrich-Wood tangent-radial decomposition.  Watson and
Fisher-Bingham use rejection from an angular-central-Gaussian envelope:
the linear part of the Fisher-Bingham exponent is first dominated by a
quadratic via mu'x <= (mu'x)^2/(2|mu|) + |mu|/2 (tight at the mode), and
the resulting Bingham-type bound is in turn dominated by an ACG whose
shape parameter solves sum_i 1/(b + 2 lambda_i) = 1.  Both bounds are
analytic, so the rejection is exact by construction; a runtime assertion
still guards the envelope inequality on every batch.  The envelope is
built once per parameter set and cached, so the replications of a study
pay only for proposals and the accept step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import linalg
from .models import FisherBinghamParams, VmfParams, WatsonParams

_MAX_BATCH = 1_000_000
_MIN_BATCH = 256
# proposals to burn before declaring an envelope mis-tuned
_FLOOR_WINDOW = 250_000
# envelopes kept per process; a study reuses one parameter set throughout
_ENVELOPE_CACHE_SIZE = 32


@dataclass(frozen=True)
class RngState:
    """Reproducible RNG state: (seed, stream) key a Philox counter-based stream.

    Identical state yields an identical sample sequence on every platform;
    distinct streams are statistically independent, which is what the
    Monte Carlo harness uses for parallel replications.
    """

    seed: int
    stream: int = 0
    algorithm: ClassVar[str] = "philox"

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.Philox(seq))


def _unit_rows(x: np.ndarray, g: np.random.Generator) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1)
    bad = norms < 1e-200
    while np.any(bad):  # probability-zero guard
        x[bad] = g.standard_normal((int(bad.sum()), x.shape[1]))
        norms = np.linalg.norm(x, axis=1)
        bad = norms < 1e-200
    return x / norms[:, None]


def sample_uniform(d: int, n: int, rng: RngState) -> np.ndarray:
    """n i.i.d. uniform points on S^{d-1}, via normalized Gaussians."""
    if d < 2 or n < 1:
        raise ValueError("need d >= 2 and n >= 1")
    g = rng.generator()
    return _unit_rows(g.standard_normal((n, d)), g)


def _vmf_radial(kappa: float, d: int, n: int, g: np.random.Generator) -> np.ndarray:
    # Ulrich-Wood rejection for the cosine w = mu'x
    b = (d - 1.0) / (2.0 * kappa + math.sqrt(4.0 * kappa**2 + (d - 1.0) ** 2))
    x0 = (1.0 - b) / (1.0 + b)
    c = kappa * x0 + (d - 1.0) * math.log(1.0 - x0 * x0)
    out = np.empty(n)
    have = 0
    while have < n:
        m = min(max(2 * (n - have), _MIN_BATCH), _MAX_BATCH)
        z = g.beta(0.5 * (d - 1.0), 0.5 * (d - 1.0), size=m)
        u = g.random(m)
        w = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        keep = kappa * w + (d - 1.0) * np.log1p(-x0 * w) - c >= np.log(u)
        w = w[keep]
        take = min(w.size, n - have)
        out[have : have + take] = w[:take]
        have += take
    return out


def sample_vmf(params: VmfParams, n: int, rng: RngState) -> np.ndarray:
    """n i.i.d. vMF(mu, kappa) points (Ulrich-Wood, then rotate e1 -> mu)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    d = params.d
    g = rng.generator()
    w = _vmf_radial(params.kappa, d, n, g)
    v = _unit_rows(g.standard_normal((n, d - 1)), g)
    y = np.empty((n, d))
    y[:, 0] = w
    y[:, 1:] = np.sqrt(np.maximum(0.0, 1.0 - w * w))[:, None] * v
    rot = linalg.rotation_to_e1(params.mu)
    x = y @ rot  # rows are rot.T @ y
    return _unit_rows(x, g)


def _acg_envelope(bmat_eigs: np.ndarray, d: int) -> tuple[float, np.ndarray, float]:
    """Shape parameter b, ACG weights omega, and the log rejection constant.

    bmat_eigs are the (PSD, min zero) eigenvalues of the quadratic bound B;
    the envelope (y'Omega y)^(-d/2) with Omega = I + 2B/b and
    sum 1/(b + 2 lambda) = 1 dominates exp(-y'By) up to
    M = exp(-(d-b)/2) (d/b)^{d/2}.
    """
    if np.all(bmat_eigs < 1e-14):
        return float(d), np.ones(d), 0.0

    def gap(b):
        return float(np.sum(1.0 / (b + 2.0 * bmat_eigs)) - 1.0)

    lo, hi = 1e-12, float(d)
    for _ in range(200):  # bisection; gap is monotone decreasing
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0:
            lo = mid
        else:
            hi = mid
    b = 0.5 * (lo + hi)
    omega = 1.0 + 2.0 * bmat_eigs / b
    log_m = -0.5 * (d - b) + 0.5 * d * (math.log(d) - math.log(b))
    return b, omega, log_m


@functools.lru_cache(maxsize=_ENVELOPE_CACHE_SIZE)
def _envelope(mu_bytes: bytes, a_bytes: bytes, d: int):
    """Everything the ACG rejection needs that depends only on (mu, A):
    eigenvectors of the quadratic bound, ACG weights omega, 1/sqrt(omega)
    and the log rejection bound.  Keyed on the raw float64 bytes, so only
    bit-identical parameters share an entry; the arrays are read-only."""
    mu = np.frombuffer(mu_bytes)
    a_mat = np.frombuffer(a_bytes).reshape(d, d)
    mu_norm = float(np.linalg.norm(mu))
    if mu_norm > 1e-14:
        quad = a_mat + np.outer(mu, mu) / (2.0 * mu_norm)
        log_linear_const = 0.5 * mu_norm
    else:
        quad = a_mat
        log_linear_const = 0.0
    eigvals, eigvecs = np.linalg.eigh(quad)
    shift = float(eigvals[-1])
    bmat_eigs = shift - eigvals  # PSD with min eigenvalue 0
    _, omega, log_m = _acg_envelope(bmat_eigs, d)
    inv_sqrt_omega = 1.0 / np.sqrt(omega)
    for arr in (eigvecs, omega, inv_sqrt_omega):
        arr.flags.writeable = False
    return eigvecs, omega, inv_sqrt_omega, log_linear_const + shift + log_m


def _fb_acg_rejection(
    mu: np.ndarray,
    a_mat: np.ndarray,
    n: int,
    g: np.random.Generator,
    accept_floor: float,
) -> np.ndarray:
    d = mu.size
    eigvecs, omega, inv_sqrt_omega, log_bound = _envelope(
        mu.tobytes(), a_mat.tobytes(), d
    )

    out = np.empty((n, d))
    have = 0
    proposed = 0
    accepted = 0
    while have < n:
        rate = accepted / proposed if proposed else 1.0
        m = int((n - have) / max(rate, 0.02) * 1.3) + 32
        m = min(max(m, _MIN_BATCH), _MAX_BATCH)
        z = (g.standard_normal((m, d)) * inv_sqrt_omega) @ eigvecs.T
        u = g.random(m)
        norms = np.linalg.norm(z, axis=1)
        ok = norms > 1e-200  # dropping a measure-zero event keeps exactness
        z, u, norms = z[ok], u[ok], norms[ok]
        m = z.shape[0]
        y = z / norms[:, None]
        proj = y @ eigvecs
        omega_quad = (proj * proj) @ omega  # y' Omega y
        log_target = y @ mu + np.einsum("ni,ij,nj->n", y, a_mat, y)
        log_acc = log_target - log_bound + 0.5 * d * np.log(omega_quad)
        if float(log_acc.max()) > 1e-9:
            raise RuntimeError("rejection envelope bound violated")
        keep = np.log(u) <= log_acc
        taken = y[keep]
        proposed += m
        accepted += int(keep.sum())
        take = min(taken.shape[0], n - have)
        out[have : have + take] = taken[:take]
        have += take
        if proposed >= _FLOOR_WINDOW and accepted / proposed < accept_floor:
            raise RuntimeError(
                f"rejection acceptance {accepted / proposed:.2e} below "
                f"{accept_floor:.0e} after {proposed} proposals"
            )
    return out


def sample_watson(params: WatsonParams, n: int, rng: RngState) -> np.ndarray:
    """n i.i.d. Watson(mu, kappa) points; kappa = 0 falls back to uniform.

    Bipolar (kappa > 0) and girdle (kappa < 0) regimes both use the ACG
    envelope on the Bingham form A = kappa mu mu'.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d = params.d
    if params.kappa == 0.0:
        return sample_uniform(d, n, rng)
    g = rng.generator()
    a_mat = params.kappa * np.outer(params.mu, params.mu)
    return _fb_acg_rejection(np.zeros(d), a_mat, n, g, accept_floor=1e-4)


def sample_fb(params: FisherBinghamParams, n: int, rng: RngState) -> np.ndarray:
    """n i.i.d. Fisher-Bingham(mu, A) points by exact rejection from the
    tilted angular-central-Gaussian envelope."""
    if n < 1:
        raise ValueError("n must be >= 1")
    g = rng.generator()
    return _fb_acg_rejection(params.mu, params.A, n, g, accept_floor=1e-6)
