"""Random generation on S^{d-1}: von Mises-Fisher, Watson (uniform at
kappa = 0) and Fisher-Bingham samples.

All samplers are exact rejection schemes driven by an explicit
counter-based RNG state, so a (seed, stream) pair fully determines the
output regardless of how calls are scheduled across threads.  Every
sampler takes one seed and a sequence of b streams (default range(1))
and returns the (b, n, d) stack of their samples, slice j bit for bit
the sample of stream j alone.

One driver runs every rejection sampler in rounds: each stream short of
n draws its next batch (vMF 2 (n - have), ACG 1.3 (n - have) / rate + 32
at its acceptance rate so far, clipped once to [_MIN_BATCH, _MAX_BATCH]),
batches of one size are accepted in stacks within models.WORK_BYTES
(whole batches, at least one per stack), and each stream keeps its first
n accepted draws in draw order.  After _FLOOR_WINDOW proposals an
acceptance rate below _ACCEPT_FLOOR raises RuntimeError.  One floor
serves every family: vMF accepts 0.65 or more and Watson about 0.05 or
more (d <= 500), so only a Fisher-Bingham envelope can come near it.

vMF uses the Ulrich-Wood tangent-radial decomposition.  Watson and
Fisher-Bingham use rejection from an angular-central-Gaussian envelope:
mu'y <= (mu'y)^2/(2|mu|) + |mu|/2 (tight at the mode) bounds the exponent
by y'quad y, quad = A + mu mu'/(2|mu|) = E diag(lam) E', and in turn an
ACG with weights omega = 1 + 2 (max lam - lam)/b, where b solves
sum 1/(b + 2 (max lam - lam)) = 1, dominates that.  Both bounds are
analytic, so the rejection is exact; a runtime check guards the envelope
inequality on every batch.  The envelope is cached per parameter set.  A
proposal z = E zs, zs the normals over sqrt(omega), is tested in the
eigenbasis: one product of zs*zs with the columns (1, lam, omega) gives
|z|^2, |z|^2 y'quad y and |z|^2 y'Omega y for y = z/|z|; Fisher-Bingham
adds mu'y = (E'mu)'zs/|z|, and y'Ay = y'quad y - (mu'y)^2/(2|mu|).  A zero
proposal fails the test (NaN).  Only kept rows are rotated (one product
per slice) and normalised.  The test's last bits differ from the direct
form on y; the samples' do not.  B = 0 (Watson kappa = 0) gives omega = 1,
E = I and a log bound 0 up to rounding: an accept-all uniform envelope.

Streams: a (seed, stream) pair keys the Philox generator of numpy's
SeedSequence(entropy=seed, spawn_key=(stream,)), bit for bit, for any
seed >= 0 and a stream in [0, 2**32).  Philox is counter-based (Salmon
et al., SC'11), so its key is a pure function of the pair, and
_generators derives the keys of all a sampler's streams at once: the pool
after the seed's words is numpy's own SeedSequence(seed).pool (built once
per call, not cached), and each stream's one spawn word and the four
output words are hashed in numpy over every stream and all four pool
words at once.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import linalg, models
from .models import FisherBinghamParams, VmfParams, WatsonParams

_MAX_BATCH = 1_000_000
_MIN_BATCH = 256
# proposals to burn before declaring an envelope mis-tuned, and the
# acceptance rate it is declared mis-tuned below
_FLOOR_WINDOW = 250_000
_ACCEPT_FLOOR = 1e-6
# envelopes kept per process; a study reuses one parameter set throughout
_ENVELOPE_CACHE_SIZE = 32

# numpy's SeedSequence (M. E. O'Neill's seed_seq_fe): a pool of 4 32-bit
# words, hash multipliers for mixing in (A) and reading out (B), and the
# multipliers of the pairwise mix
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash4(values: np.ndarray, init: int, mult: int, first: int) -> np.ndarray:
    # SeedSequence's hashes first .. first+3 of the uint32 words values,
    # broadcast to 4 rows, hash first+i on row i: hash k xors a word with
    # init mult^k, multiplies it by init mult^(k+1) and xors in its shift by 16
    const = np.array([init * pow(mult, first + i, 1 << 32) & _MASK32
                      for i in range(_POOL + 1)], dtype=np.uint32)[:, None]
    values = (values ^ const[:-1]) * const[1:]
    return values ^ values >> 16


class _Key(ISeedSequence):
    # a Philox key derived ahead of time: the two words SeedSequence.
    # generate_state(2, uint64) returns, which is all that Philox asks of its seed
    def __init__(self, key: list[int]):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def _generators(seed, streams) -> list[np.random.Generator]:
    """The Philox generator of each stream of the non-empty 1-D integer
    sequence ``streams`` in [0, 2**32), bit for bit that of
    SeedSequence(entropy=seed, spawn_key=(stream,)); ``seed`` is an int or
    numpy integer >= 0 of any size.

    The pool after the seed's words is SeedSequence(seed).pool, and the
    seed's 4 max(words, 4) hashes set the hash constant there.  Each stream
    is one spawn word, so the mixing and the read-out each run once over
    every stream and all four pool words.
    """
    seed = models.as_int(seed, "seed", 0)
    spawn = np.asarray(streams)
    if (spawn.ndim != 1 or not spawn.size or spawn.dtype.kind not in "iu"
            or spawn.min() < 0 or spawn.max() > _MASK32):
        raise ValueError("streams must be a non-empty sequence of integers in "
                         f"[0, 2**32), got {streams!r}")
    pool = np.random.SeedSequence(seed).pool[:, None]
    first = _POOL * max((seed.bit_length() + 31) // 32, _POOL)
    mixed = _MIX_L * pool - _MIX_R * _hash4(spawn.astype(np.uint32), _INIT_A, _MULT_A, first)
    keys = _hash4(mixed ^ mixed >> 16, _INIT_B, _MULT_B, 0).T
    # SeedSequence reads its words out as little-endian 64-bit pairs.  Ints
    # index faster than numpy scalars, and a zero counter array spares Philox
    # splitting its default counter, the int 0, into words for every stream
    keys = keys.astype("<u4", order="C").view("<u8").tolist()
    counter = np.zeros(4, dtype=np.uint64)
    return [np.random.Generator(np.random.Philox(_Key(key), counter=counter))
            for key in keys]


def _unit_rows(x: np.ndarray, gens: list[np.random.Generator]) -> np.ndarray:
    # rows of the (b, n, d) stack x scaled to unit length; gens[j] redraws
    # the zero rows of x[j] (the vMF tangent at d = 2 has one coordinate)
    norms = np.linalg.norm(x, axis=-1)
    bad = norms < 1e-200
    while np.any(bad):  # probability-zero guard
        for g, xj, badj in zip(gens, x, bad):
            if badj.any():
                xj[badj] = g.standard_normal((int(badj.sum()), x.shape[-1]))
        norms = np.linalg.norm(x, axis=-1)
        bad = norms < 1e-200
    return np.divide(x, norms[..., None], out=x)


def _rejection(gens: list[np.random.Generator], n: int, batch, propose, shape) -> np.ndarray:
    # the first n accepted draws of each stream, as a (b, n) + shape stack:
    # shape is one draw's, () for a vMF cosine and (d,) for an ACG row.
    # batch(proposed, accepted, have) sizes a stream's next batch from its
    # own counts, so it makes the draws it would make alone; propose(gs, m)
    # returns the (len(gs), m) + shape draws of the streams gs and which of
    # them are accepted.  A stream's m rows are never split over two stacks:
    # a gemm over another row count rounds differently
    if n < 1:
        raise ValueError("n must be >= 1")
    b = len(gens)
    out = np.empty((b, n) + shape)
    have, proposed, accepted = [0] * b, [0] * b, [0] * b
    short = list(range(b))
    while short:
        sizes = [min(max(batch(proposed[j], accepted[j], have[j]), _MIN_BATCH),
                     _MAX_BATCH) for j in short]
        for m in sorted(set(sizes)):
            same = [j for j, size in zip(short, sizes) if size == m]
            for group in (same[s] for s in models.chunks(len(same), 8 * m * math.prod(shape))):
                draws, keep = propose([gens[j] for j in group], m)
                for j, drawsj, keepj in zip(group, draws, keep):
                    taken = drawsj[keepj]
                    proposed[j] += m
                    accepted[j] += taken.shape[0]
                    take = min(taken.shape[0], n - have[j])
                    out[j, have[j] : have[j] + take] = taken[:take]
                    have[j] += take
                    if (proposed[j] >= _FLOOR_WINDOW
                            and accepted[j] / proposed[j] < _ACCEPT_FLOOR):
                        raise RuntimeError(
                            f"rejection acceptance {accepted[j] / proposed[j]:.2e} below "
                            f"{_ACCEPT_FLOOR:.0e} after {proposed[j]} proposals"
                        )
        short = [j for j in short if have[j] < n]
    return out


def _vmf_radial(kappa: float, d: int, n: int,
                gens: list[np.random.Generator]) -> np.ndarray:
    # Ulrich-Wood rejection for the cosine w = mu'x, n per stream
    try:  # from about kappa = 1e16 (d = 3), x0 rounds to 1 or kappa**2 overflows
        b = (d - 1.0) / (2.0 * kappa + math.sqrt(4.0 * kappa**2 + (d - 1.0) ** 2))
        x0 = (1.0 - b) / (1.0 + b)
        c = kappa * x0 + (d - 1.0) * math.log(1.0 - x0 * x0)
    except (OverflowError, ValueError):
        raise RuntimeError(f"kappa = {kappa:.3g} beyond the vMF sampler's range") from None

    def batch(proposed: int, accepted: int, have: int) -> int:
        return 2 * (n - have)

    def propose(gs: list[np.random.Generator], m: int):
        z = np.stack([g.beta(0.5 * (d - 1.0), 0.5 * (d - 1.0), size=m) for g in gs])
        u = np.stack([g.random(m) for g in gs])
        w = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        keep = kappa * w + (d - 1.0) * np.log1p(-x0 * w) - c >= np.log(u)
        return w, keep

    return _rejection(gens, n, batch, propose, ())


def sample_vmf(params: VmfParams, n: int, seed, streams=range(1)) -> np.ndarray:
    """n i.i.d. vMF(mu, kappa) points (Ulrich-Wood, then rotate e1 -> mu)
    per stream of the b ``streams`` of ``seed``, as a (b, n, d) stack
    whose slice j is bit for bit the sample of stream j alone: each stream
    makes the same draws in the same order, and the arithmetic on them
    runs over the whole stack.
    """
    d = params.d
    gens = _generators(seed, streams)
    w = _vmf_radial(params.kappa, d, n, gens)
    v = np.empty((len(gens), n, d - 1))  # out= needs a contiguous stack, not y
    for g, vj in zip(gens, v):
        g.standard_normal(out=vj)
    y = np.empty((len(gens), n, d))
    y[..., 0] = w
    np.multiply(np.sqrt(np.maximum(0.0, 1.0 - w * w))[..., None], _unit_rows(v, gens),
                out=y[..., 1:])
    # rows are rot.T @ y; a matmul per slice keeps each slice's bits.  They
    # have norm 1 up to rounding, so none needs a redraw
    x = np.matmul(y, linalg.rotation_to_e1(params.mu))
    return np.divide(x, np.linalg.norm(x, axis=-1)[..., None], out=x)


@functools.lru_cache(maxsize=_ENVELOPE_CACHE_SIZE)
@np.errstate(over="ignore", invalid="ignore")  # a non-finite envelope raises
def _envelope(mu_bytes: bytes, a_bytes: bytes, d: int):
    """Everything the ACG rejection needs that depends only on (mu, A):
    the eigenvectors E of quad = E diag(lam) E', 1/sqrt(omega), the columns
    (1, lam, omega), E'mu, the weight of (mu'y)^2 in y'quad y and the log
    rejection bound.  Keyed on the raw float64 bytes, so only bit-identical
    parameters share an entry; the arrays are read-only."""
    mu = np.frombuffer(mu_bytes)
    a_mat = np.frombuffer(a_bytes).reshape(d, d)
    mu_norm = float(np.linalg.norm(mu))
    if mu_norm > 1e-14:
        quad = a_mat + np.outer(mu, mu) / (2.0 * mu_norm)
        log_linear_const, mu_y2_weight = 0.5 * mu_norm, 0.5 / mu_norm
    else:
        quad = a_mat
        log_linear_const, mu_y2_weight = 0.0, 0.0
    eigvals, eigvecs = np.linalg.eigh(quad)
    shift = float(eigvals[-1])
    bmat_eigs = shift - eigvals  # B = shift I - quad: PSD with min eigenvalue 0
    # the ACG envelope (y'Omega y)^(-d/2) with Omega = I + 2B/b and, over
    # B's eigenvalues beta, sum 1/(b + 2 beta) = 1 dominates exp(-y'By) up to
    # M = exp(-(d-b)/2) (d/b)^{d/2}; B = 0 gives b = d, Omega = I and M = 1
    # up to rounding, an envelope that accepts every proposal
    lo, hi = 1e-12, float(d)
    for _ in range(200):  # bisection; the sum decreases in b
        mid = 0.5 * (lo + hi)
        if np.sum(1.0 / (mid + 2.0 * bmat_eigs)) > 1.0:
            lo = mid
        else:
            hi = mid
    b = 0.5 * (lo + hi)
    omega = 1.0 + 2.0 * bmat_eigs / b
    log_m = -0.5 * (d - b) + 0.5 * d * (math.log(d) - math.log(b))
    inv_sqrt_omega = 1.0 / np.sqrt(omega)
    log_bound = log_linear_const + shift + log_m
    if not (np.all(np.isfinite(omega)) and math.isfinite(log_bound)):
        raise RuntimeError("rejection envelope is not finite: parameters out of range")
    arrays = (eigvecs, inv_sqrt_omega, np.column_stack([np.ones(d), eigvals, omega]),
              eigvecs.T @ mu)
    for arr in arrays:
        arr.flags.writeable = False
    return *arrays, mu_y2_weight, log_bound


def _fb_acg_rejection(
    mu: np.ndarray,
    a_mat: np.ndarray,
    n: int,
    gens: list[np.random.Generator],
) -> np.ndarray:
    # n points per stream, as a (b, n, d) stack
    d = mu.size
    eigvecs, inv_sqrt_omega, weights, e_mu, mu_y2_weight, log_bound = _envelope(
        mu.tobytes(), a_mat.tobytes(), d
    )

    def batch(proposed: int, accepted: int, have: int) -> int:
        rate = accepted / proposed if proposed else 1.0
        return int((n - have) / max(rate, 0.02) * 1.3) + 32

    def propose(gs: list[np.random.Generator], m: int):
        # m proposals per stream: the eigenbasis rows zs of z = E zs and
        # which are accepted, tested in place.  A zero row (probability
        # <= 2^-104 at d >= 2) makes log_acc NaN, which fails the accept
        # test, so the rejection stays exact
        zs, u = np.empty((len(gs), m, d)), np.empty((len(gs), m))
        for g, zsj, uj in zip(gs, zs, u):
            g.standard_normal(out=zsj)
            g.random(out=uj)
        zs *= inv_sqrt_omega
        cols = (zs * zs) @ weights  # |z|^2, |z|^2 y'quad y, |z|^2 y'Omega y
        norm2 = cols[..., 0]
        log_acc = np.divide(cols[..., 1], norm2, out=cols[..., 1])
        if e_mu.any():
            mu_y = zs @ e_mu
            mu_y /= np.sqrt(norm2)
            log_acc += mu_y - mu_y2_weight * mu_y * mu_y
        log_acc -= log_bound
        ratio = cols[..., 2] / norm2  # contiguous: log may round a view apart
        log_acc += np.multiply(np.log(ratio, out=ratio), 0.5 * d, out=ratio)
        if np.any(log_acc > 1e-9):
            raise RuntimeError("rejection envelope bound violated")
        return zs, np.log(u, out=u) <= log_acc

    z = _rejection(gens, n, batch, propose, (d,)) @ eigvecs.T
    return np.divide(z, np.linalg.norm(z, axis=-1)[..., None], out=z)


def sample_watson(params: WatsonParams, n: int, seed, streams=range(1)) -> np.ndarray:
    """n i.i.d. Watson(mu, kappa) points per stream, as a (b, n, d) stack
    for the b ``streams`` of ``seed``, as for sample_vmf.

    Bipolar (kappa > 0), girdle (kappa < 0) and uniform (kappa = 0)
    regimes all use the ACG envelope on the Bingham form A = kappa mu mu'.
    """
    a_mat = params.kappa * np.outer(params.mu, params.mu)
    return _fb_acg_rejection(np.zeros(params.d), a_mat, n, _generators(seed, streams))


def sample_fb(params: FisherBinghamParams, n: int, seed,
              streams=range(1)) -> np.ndarray:
    """n i.i.d. Fisher-Bingham(mu, A) points per stream by exact rejection
    from the tilted angular-central-Gaussian envelope, as a (b, n, d)
    stack for the b ``streams`` of ``seed``, as for sample_vmf."""
    return _fb_acg_rejection(params.mu, params.A, n, _generators(seed, streams))
