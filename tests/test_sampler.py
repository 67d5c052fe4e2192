import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from spherestein import models, sampler
from spherestein.models import FisherBinghamParams, VmfParams, WatsonParams
from spherestein.sampler import sample_fb, sample_vmf, sample_watson
from spherestein.special import bessel_ratio, kummer_moment, log_kummer_1f1

from oracles import (
    canonical_f1,
    canonical_f2,
    canonical_stein_rows,
    fb_uniform_rejection,
    random_unit_rows,
    stein_operator_apply,
    stream_generator,
    acg_direct_accept,
    acg_sample_loop,
    vmf_sample_loop,
)

E3 = np.eye(3)
UNIFORM = WatsonParams(E3[0], 0.0)  # the uniform distribution on S^2


def test_rng_state_reproducible():
    a = stream_generator(42).standard_normal(5)
    b = stream_generator(42).standard_normal(5)
    np.testing.assert_array_equal(a, b)
    c = stream_generator(42, 1).standard_normal(5)
    assert not np.array_equal(a, c)


def _seed_sequence_raw(seed, stream):
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Philox(seq).random_raw(8)


# multi-word seeds: 2**130 + 7 has five words, more than the pool; a
# stream is one spawn word, up to 2**32 - 1
KEY_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 7, np.int64(7))
KEY_STREAMS = (0, 1, 199, 2**32 - 1)


@pytest.mark.parametrize("seed", KEY_SEEDS)
def test_block_keys_equal_seed_sequence(seed):
    # a list and a numpy array of streams key alike, and so does each alone
    for streams in (KEY_STREAMS, np.array(KEY_STREAMS, dtype=np.uint32)):
        gens = sampler._generators(seed, streams)
        for stream, g in zip(KEY_STREAMS, gens):
            np.testing.assert_array_equal(g.bit_generator.random_raw(8),
                                          _seed_sequence_raw(int(seed), stream))
    for stream in KEY_STREAMS:
        np.testing.assert_array_equal(
            stream_generator(seed, stream).bit_generator.random_raw(8),
            _seed_sequence_raw(int(seed), stream))


@pytest.mark.parametrize("key", ["seed", "stream"])
@pytest.mark.parametrize("value", [1.5, True, np.float64(2.0), "3", None, -1])
def test_rng_state_rejects_non_integer_or_negative_keys(key, value):
    # a (seed, stream) key: the seed alone, or a stream in a sequence of one
    args = (value, [0]) if key == "seed" else (0, [value])
    with pytest.raises(ValueError, match=key):
        sampler._generators(*args)


@pytest.mark.parametrize("streams", [[], range(0), [-1], [2**32], [0, 2**32], [1.5], [True],
                                     np.array([0, 1], dtype=object), [[0, 1]], 3])
def test_generators_refuse_streams_outside_the_rule(streams):
    # a non-empty 1-D sequence of integers in [0, 2**32), checked at once
    with pytest.raises(ValueError, match=r"streams must be a non-empty sequence of "
                                         r"integers in \[0, 2\*\*32\)"):
        sampler._generators(0, streams)


def test_all_samplers_deterministic_and_unit():
    seed = 1
    draws = {
        "uniform": sample_watson(UNIFORM, 50, seed),
        "vmf": sample_vmf(VmfParams(E3[0], 5.0), 50, seed),
        "watson": sample_watson(WatsonParams(E3[0], -5.0), 50, seed),
        "fb": sample_fb(
            FisherBinghamParams(np.array([1.0, 0, 0]),
                                np.array([[0.0, 1, 0], [1, 2, 0], [0, 0, 0]])),
            50, seed),
    }
    again = {
        "uniform": sample_watson(UNIFORM, 50, seed),
        "vmf": sample_vmf(VmfParams(E3[0], 5.0), 50, seed),
        "watson": sample_watson(WatsonParams(E3[0], -5.0), 50, seed),
        "fb": sample_fb(
            FisherBinghamParams(np.array([1.0, 0, 0]),
                                np.array([[0.0, 1, 0], [1, 2, 0], [0, 0, 0]])),
            50, seed),
    }
    for name, x in draws.items():
        np.testing.assert_array_equal(x, again[name])
        assert x.shape == (1, 50, 3)
        np.testing.assert_allclose(np.linalg.norm(x, axis=-1), 1.0, atol=1e-12)


def test_uniform_moments():
    x = sample_watson(UNIFORM, 100_000, 2)[0]
    n = x.shape[0]
    se_mean = 1.0 / math.sqrt(3 * n)  # component variance is 1/d
    assert np.all(np.abs(x.mean(axis=0)) <= 4 * se_mean)
    scatter = x.T @ x / n
    # diagonal entries have variance Var[x_i^2] ~ 2/(d(d+2)) per point
    se_scatter = math.sqrt(2.0 / 15.0 / n)
    assert np.max(np.abs(scatter - np.eye(3) / 3)) <= 4 * se_scatter


def test_vmf_mean_direction_and_resultant():
    params = VmfParams(np.array([0.0, 0.6, 0.8]), 10.0)
    n = 100_000
    x = sample_vmf(params, n, 3)[0]
    xbar = x.mean(axis=0)
    rho = bessel_ratio(3, 10.0)
    # per-component variance of X is bounded by 1/n-scale terms
    se = math.sqrt(1.0 / n)
    assert np.linalg.norm(xbar / np.linalg.norm(xbar) - params.mu) <= 4 * se
    assert abs(np.linalg.norm(xbar) - rho) <= 4 * se


def test_vmf_high_concentration():
    # P(angle > 0.2) ~ 5e-5 per draw at kappa = 500, so keep n modest
    params = VmfParams(np.array([1.0, 0.0, 0.0]), 500.0)
    x = sample_vmf(params, 2_000, 4)[0]
    angles = np.arccos(np.clip(x @ params.mu, -1.0, 1.0))
    assert np.max(angles) < 0.2
    assert np.mean(angles) < 0.1  # typical scale is sqrt(2/kappa)


def test_vmf_d2_works():
    params = VmfParams(np.array([0.0, 1.0]), 3.0)
    x = sample_vmf(params, 50_000, 5)[0]
    np.testing.assert_allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-12)
    assert abs(np.linalg.norm(x.mean(axis=0)) - bessel_ratio(2, 3.0)) < 0.01


def test_watson_zero_kappa_is_uniform():
    # the uniform law's definition: the stream's normals with unit rows
    x = sample_watson(UNIFORM, 100_000, 6)[0]
    np.testing.assert_array_equal(
        x, random_unit_rows(stream_generator(6), 100_000, 3))
    fb = FisherBinghamParams(np.zeros(3), np.zeros((3, 3)))
    np.testing.assert_array_equal(x, sample_fb(fb, 100_000, 6)[0])
    scatter = x.T @ x / x.shape[0]
    assert np.max(np.abs(scatter - np.eye(3) / 3)) <= 4 * math.sqrt(2 / 15 / 1e5)


@pytest.mark.parametrize("d", [2, 3, 10, 50])
def test_uniform_envelope_accepts_all(d):
    # B = 0 runs the bisection too: it must land on omega = 1, E = I and a
    # log bound of 0 up to rounding, never below 0
    eigvecs, inv_sqrt_omega, weights, e_mu, mu_y2_weight, log_bound = sampler._envelope(
        np.zeros(d).tobytes(), np.zeros((d, d)).tobytes(), d)
    np.testing.assert_array_equal(eigvecs, np.eye(d))
    np.testing.assert_array_equal(inv_sqrt_omega, np.ones(d))
    np.testing.assert_array_equal(weights[:, 2], np.ones(d))
    assert not e_mu.any() and mu_y2_weight == 0.0
    assert 0.0 <= log_bound <= 1e-15


def test_watson_bipolar_alignment():
    mu = np.array([0.0, 0.6, 0.8])
    x = sample_watson(WatsonParams(mu, 10.0), 100_000, 7)[0]
    top = np.linalg.eigh(x.T @ x / x.shape[0])[1][:, -1]
    assert abs(top @ mu) > 0.99


def test_watson_girdle_alignment():
    mu = np.array([0.0, 0.6, 0.8])
    x = sample_watson(WatsonParams(mu, -10.0), 100_000, 8)[0]
    bottom = np.linalg.eigh(x.T @ x / x.shape[0])[1][:, 0]
    assert abs(bottom @ mu) > 0.99


@pytest.mark.parametrize("kappa", [6.0, -6.0, 25.0, -25.0])
def test_watson_squared_projection_moment(kappa):
    mu = np.ones(3) / math.sqrt(3)
    n = 100_000
    x = sample_watson(WatsonParams(mu, kappa), n, 9)[0]
    t2 = (x @ mu) ** 2
    expected = kummer_moment(1, 0.5, 1.5, kappa)
    se = t2.std(ddof=1) / math.sqrt(n)
    assert abs(t2.mean() - expected) <= 4 * se


def test_fb_zero_params_uniform():
    params = FisherBinghamParams(np.zeros(3), np.zeros((3, 3)))
    x = sample_fb(params, 100_000, 10)[0]
    scatter = x.T @ x / x.shape[0]
    assert np.max(np.abs(scatter - np.eye(3) / 3)) <= 4 * math.sqrt(2 / 15 / 1e5)
    assert np.all(np.abs(x.mean(axis=0)) <= 4 / math.sqrt(3 * 1e5))


def test_fb_reduces_to_vmf():
    # FB(kappa mu0, 0) equals vMF(mu0, kappa): two-sample KS on mu0'X
    kappa, mu0 = 5.0, np.array([0.0, 0.0, 1.0])
    n = 10_000
    x_fb = sample_fb(FisherBinghamParams(kappa * mu0, np.zeros((3, 3))),
                     n, 11)[0]
    x_vmf = sample_vmf(VmfParams(mu0, kappa), n, 12)[0]
    ks = stats.ks_2samp(x_fb @ mu0, x_vmf @ mu0)
    assert ks.pvalue > 0.01


def test_fb_reduces_to_watson():
    # FB(0, kappa mu0 mu0') equals W(mu0, kappa) in law of (mu0'X)^2
    kappa, mu0 = 6.0, np.array([1.0, 0.0, 0.0])
    a_mat = kappa * np.outer(mu0, mu0)  # A[d,d] = 0 holds for this axis
    n = 10_000
    x_fb = sample_fb(FisherBinghamParams(np.zeros(3), a_mat), n, 13)[0]
    x_w = sample_watson(WatsonParams(mu0, kappa), n, 14)[0]
    ks = stats.ks_2samp((x_fb @ mu0) ** 2, (x_w @ mu0) ** 2)
    assert ks.pvalue > 0.01


def test_fb_uniform_envelope_agrees_with_acg():
    params = FisherBinghamParams(np.array([0.0, 1.0, 1.0]),
                                 np.array([[0.0, 0, 0], [0, 0, -1], [0, -1, 0]]))
    n = 10_000
    x_acg = sample_fb(params, n, 15)[0]
    x_uni = fb_uniform_rejection(params.mu, params.A, n,
                                 np.random.default_rng(16))
    direction = params.mu / np.linalg.norm(params.mu)
    ks = stats.ks_2samp(x_acg @ direction, x_uni @ direction)
    assert ks.pvalue > 0.01


def test_fb_strong_concentration_runs():
    # the hardest reference configuration: |mu| ~ 15 with a sizable A
    params = FisherBinghamParams(
        np.array([11.0, 3.0, 10.0]),
        np.array([[2.0, -2, 1], [-2, 12, -2], [1, -2, 0]]),
    )
    x = sample_fb(params, 5_000, 17)[0]
    np.testing.assert_allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-12)


def test_stein_identity_canonical_functions_all_families():
    # joint validation of sampler + operator: mean A f over the sample is
    # within 4 SE of zero, componentwise, for both canonical functions
    n = 100_000
    cases = [
        (VmfParams(np.array([0.6, 0.0, 0.8]), 3.0), sample_vmf, 20),
        (WatsonParams(np.array([0.6, 0.8, 0.0]), -4.0), sample_watson, 21),
        (FisherBinghamParams(np.array([0.0, 1.0, 1.0]),
                             np.array([[0.0, 0, 0], [0, 0, -1.5], [0, -1.5, 0]])),
         sample_fb, 22),
    ]
    for params, draw, seed in cases:
        x = draw(params, n, seed)[0][:30_000]
        d = x.shape[1]
        # the closed form, checked against the per-row operator on 50 rows
        for f, values in zip((canonical_f1(d), canonical_f2(d)),
                             canonical_stein_rows(params, x)):
            rows = np.array([stein_operator_apply(params, f, row) for row in x[:50]])
            np.testing.assert_allclose(values[:50], rows, rtol=1e-12)
            mean = values.mean(axis=0)
            se = values.std(axis=0, ddof=1) / math.sqrt(values.shape[0])
            assert np.all(np.abs(mean) <= 4 * se + 1e-12)


def test_sampler_input_validation():
    with pytest.raises(ValueError):
        sample_watson(WatsonParams([1.0], 0.0), 5, 0)
    for sample, params in ((sample_watson, UNIFORM), (sample_vmf, VmfParams(E3[0], 2.0)),
                           (sample_fb, FisherBinghamParams(E3[0], np.zeros((3, 3))))):
        with pytest.raises(ValueError, match="n must be >= 1"):
            sample(params, 0, 0)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            sample(params, 5, -1)
        with pytest.raises(ValueError, match=r"streams must .*, got \[-2\]"):
            sample(params, 5, 0, [-2])


_U4 = np.array([0.5, -0.5, 0.5, 0.5])
_ACG_CASES = {
    "watson_bipolar": (np.zeros(4), 6.0 * np.outer(_U4, _U4)),
    "watson_girdle": (np.zeros(4), -6.0 * np.outer(_U4, _U4)),
    "fb": (np.array([1.0, 0.0, 2.0]),
           np.array([[1.5, 0.5, 0.0], [0.5, -1.0, 0.0], [0.0, 0.0, 0.0]])),
}


@pytest.mark.parametrize("case", sorted(_ACG_CASES))
def test_acg_rejection_with_cached_envelope_matches_fresh_build(case):
    mu, a_mat = _ACG_CASES[case]
    sampler._envelope.cache_clear()
    fresh = sampler._fb_acg_rejection(mu, a_mat, 500, [np.random.default_rng(3)])
    cached = sampler._fb_acg_rejection(mu, a_mat, 500, [np.random.default_rng(3)])
    assert sampler._envelope.cache_info().hits == 1
    np.testing.assert_array_equal(cached, fresh)
    key = (mu.tobytes(), a_mat.tobytes(), mu.size)
    stored, rebuilt = sampler._envelope(*key), sampler._envelope.__wrapped__(*key)
    for got, want in zip(stored, rebuilt):
        np.testing.assert_array_equal(got, want)
    assert not any(arr.flags.writeable for arr in stored[:4])


class _ZeroFirstRow:
    # a generator whose first standard_normal batch starts with a zero row
    def __init__(self, gen):
        self.gen, self.first = gen, True

    def standard_normal(self, size=None, out=None):
        z = self.gen.standard_normal(size, out=out)
        if self.first:
            z[0], self.first = 0.0, False
        return z

    def random(self, size=None, out=None):
        return self.gen.random(size, out=out)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("case", sorted(_ACG_CASES))
def test_acg_rejection_rejects_a_zero_proposal(case):
    mu, a_mat = _ACG_CASES[case]
    gens = [_ZeroFirstRow(np.random.default_rng(5)), np.random.default_rng(6)]
    x = sampler._fb_acg_rejection(mu, a_mat, 300, gens)
    assert x.shape == (2, 300, mu.size) and np.all(np.isfinite(x))
    np.testing.assert_allclose(np.linalg.norm(x, axis=-1), 1.0, atol=1e-12)
    alone = sampler._fb_acg_rejection(mu, a_mat, 300, [np.random.default_rng(6)])
    np.testing.assert_array_equal(x[1], alone[0])  # the other stream is untouched


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_envelope_violation_is_not_hidden_by_a_zero_proposal(monkeypatch):
    mu, a_mat = _ACG_CASES["fb"]
    envelope = sampler._envelope

    def lowered(*key):
        *rest, log_bound = envelope(*key)
        return (*rest, log_bound - 50.0)

    monkeypatch.setattr(sampler, "_envelope", lowered)
    with pytest.raises(RuntimeError, match="rejection envelope bound violated"):
        sampler._fb_acg_rejection(mu, a_mat, 300, [_ZeroFirstRow(np.random.default_rng(5))])


class _UniformsAt:
    # a generator whose uniforms sit e^offset times the direct accept
    # probability of the normals it has just drawn
    def __init__(self, gen, mu, a_mat, offset):
        self.gen, self.mu, self.a_mat, self.offset = gen, mu, a_mat, offset

    def standard_normal(self, size=None, out=None):
        self.z, self.log_acc = acg_direct_accept(
            self.mu, self.a_mat, self.gen.standard_normal(size, out=out))
        return out

    def random(self, size=None, out=None):
        out[:] = np.exp(self.log_acc + self.offset)
        return out


_LOG_ACC_CASES = {
    **_ACG_CASES,
    "fb_concentrated": (np.array([11.0, 3.0, 10.0]),
                        np.array([[2.0, -2, 1], [-2, 12, -2], [1, -2, 0]])),
    "fb_tiny_mu": (np.array([1e-15, 0.0, -5e-16]), _ACG_CASES["fb"][1]),
    "uniform": (np.zeros(3), 2.0 * np.eye(3)),
}


@pytest.mark.parametrize("case", sorted(_LOG_ACC_CASES))
def test_eigenbasis_accept_step_equals_the_direct_one(monkeypatch, case):
    # uniforms 1e-12 below (above) each proposal's direct accept probability,
    # in logs, are all accepted (rejected): the two log_acc agree to 1e-12.
    # fb_tiny_mu takes the |mu| <= 1e-14 branch, uniform has B = 0
    mu, a_mat = _LOG_ACC_CASES[case]
    proposers = []

    def capture(gens, n, batch, propose, shape):
        proposers.append(propose)
        return np.ones((1, n, mu.size))

    monkeypatch.setattr(sampler, "_rejection", capture)
    sampler._fb_acg_rejection(mu, a_mat, 1, [])
    for offset, accepted in ((-1e-12, True), (1e-12, False)):
        gen = _UniformsAt(np.random.default_rng(7), mu, a_mat, offset)
        z, keep = proposers[0]([gen], 2000)
        assert np.all(np.isfinite(gen.log_acc)) and gen.log_acc.min() > -700
        assert np.all(keep[0] == accepted), (offset, int(keep.sum()))
        # propose returns the eigenbasis rows; the direct form rotated them
        eigvecs = sampler._envelope(mu.tobytes(), a_mat.tobytes(), mu.size)[0]
        np.testing.assert_array_equal(z[0] @ eigvecs.T, gen.z)


def _watson_acceptance(d: int, kappa: float) -> float:
    # the chance that one ACG proposal is accepted for Watson(e1, kappa):
    # sqrt(det Omega) 1F1(1/2; d/2; kappa) e^(-log_bound); OverflowError
    # where 1F1 is out of range
    log_1f1 = log_kummer_1f1(0.5, 0.5 * d, kappa)
    a_mat = kappa * np.outer(np.eye(d)[0], np.eye(d)[0])
    _, _, weights, _, _, log_bound = sampler._envelope.__wrapped__(
        np.zeros(d).tobytes(), a_mat.tobytes(), d)
    return math.exp(0.5 * np.log(weights[:, 2]).sum() + log_1f1 - log_bound)


def test_watson_acceptance_stays_far_above_the_floor():
    # one acceptance floor serves every family: no Watson envelope with
    # d <= 500 comes near it (the least rate, about 0.05, is at d = 500)
    assert sampler._ACCEPT_FLOOR <= 1e-6
    for d in (2, 3, 10, 20, 50, 100, 200, 500):
        for kappa in np.concatenate([np.logspace(-3, 5, 17), -np.logspace(-3, 5, 17)]):
            try:
                rate = _watson_acceptance(d, kappa)
            except OverflowError:
                continue
            assert 0.04 <= rate <= 1.0 + 1e-12, (d, kappa, rate)


@pytest.mark.parametrize("d,kappa", [(10, 20.0), (3, -10.0)])
def test_watson_acceptance_matches_sampler_count(monkeypatch, d, kappa):
    # count every proposal and acceptance of the rejection loop
    counts = np.zeros(2, dtype=np.int64)
    rejection = sampler._rejection

    def counting(gens, n, batch, propose, width):
        def counted(gs, m):
            draws, keep = propose(gs, m)
            counts[:] += (keep.size, int(keep.sum()))
            return draws, keep
        return rejection(gens, n, batch, counted, width)

    monkeypatch.setattr(sampler, "_rejection", counting)
    sample_watson(WatsonParams(np.eye(d)[0], kappa), 50_000, 24)
    rate = _watson_acceptance(d, kappa)
    se = math.sqrt(rate * (1.0 - rate) / counts[0])
    assert abs(counts[1] / counts[0] - rate) <= 4.0 * se


def test_envelope_cache_keeps_parameter_sets_apart():
    sampler._envelope.cache_clear()
    kappas = (5.0, np.nextafter(5.0, 6.0), -5.0)
    envelopes = []
    for kappa in kappas:
        sample_watson(WatsonParams(E3[0], kappa), 10, 0)
        a_mat = kappa * np.outer(E3[0], E3[0])
        envelopes.append(sampler._envelope(np.zeros(3).tobytes(), a_mat.tobytes(), 3))
    info = sampler._envelope.cache_info()
    assert (info.misses, info.currsize) == (3, 3)
    assert len({env[-1] for env in envelopes}) == 3  # distinct log bounds


def test_envelope_cache_is_bounded():
    sampler._envelope.cache_clear()
    size = sampler._ENVELOPE_CACHE_SIZE
    for k in range(size + 5):
        sample_watson(WatsonParams(E3[0], 1.0 + k), 1, k)
    info = sampler._envelope.cache_info()
    assert info.maxsize == size
    assert info.currsize == size


@pytest.mark.parametrize("min_batch", [1, 256])
def test_vmf_stack_equals_per_stream_samples_bitwise(monkeypatch, min_batch):
    # with min_batch = 1 a first radial batch of 2n proposals often falls
    # short, so some streams draw a second batch mid-stack
    monkeypatch.setattr(sampler, "_MIN_BATCH", min_batch)
    short = 0
    # n = 1 at d >= 5 and n = 257 at d = 20 are sizes where one matmul over
    # all rows of the stack would round differently from one per slice
    for d, kappa, n in ((2, 50.0, 2), (3, 1.0, 5), (3, 10.0, 100), (10, 4.0, 7),
                        (5, 3.0, 1), (20, 5.0, 257)):
        params = VmfParams(np.ones(d) / math.sqrt(d), kappa)
        stack = sample_vmf(params, n, 21, range(40))
        assert stack.shape == (40, n, d)
        for k in range(40):
            expected, batches = vmf_sample_loop(params, n, 21, k, min_batch)
            short += batches > 1
            np.testing.assert_array_equal(stack[k], expected)
            np.testing.assert_array_equal(sample_vmf(params, n, 21, [k])[0], expected)
    assert (short > 0) == (min_batch == 1)


@pytest.mark.parametrize("min_batch", [1, 256])
def test_acg_stack_equals_per_stream_samples_bitwise(monkeypatch, min_batch):
    # with min_batch = 1 a first batch of 1.3 n + 32 proposals often falls
    # short at these acceptance rates, so some streams draw a second batch.
    # n = 1, and n <= 24 at d = 50, are kept-row products that OpenBLAS
    # rounds apart from the batch product; alone and stacked still agree
    monkeypatch.setattr(sampler, "_MIN_BATCH", min_batch)
    u20, u50 = np.ones(20) / math.sqrt(20), np.ones(50) / math.sqrt(50)
    fb = FisherBinghamParams(*_ACG_CASES["fb"][:2])
    cases = [(WatsonParams(_U4, 6.0), 60), (WatsonParams(_U4, -6.0), 60),
             (WatsonParams(u20, 5.0), 100), (WatsonParams(u20, -2.0), 100),
             (fb, 60), (fb, 1), (WatsonParams(_U4, 6.0), 1),
             (WatsonParams(u50, 5.0), 1), (WatsonParams(u50, -3.0), 24)]
    short = 0
    for params, n in cases:
        if params.family == "fb":
            fn, mu, a_mat = sample_fb, params.mu, params.A
        else:
            fn, mu = sample_watson, np.zeros(params.d)
            a_mat = params.kappa * np.outer(params.mu, params.mu)
        stack = fn(params, n, 22, range(30))
        assert stack.shape == (30, n, params.d)
        for k in range(30):
            expected, batches = acg_sample_loop(mu, a_mat, n, 22, k, min_batch)
            short += batches > 1
            np.testing.assert_array_equal(stack[k], expected)
            np.testing.assert_array_equal(fn(params, n, 22, [k])[0], expected)
    assert (short > 0) == (min_batch == 1)


@pytest.mark.parametrize("d", [2, 3, 10, 20, 50])
def test_kept_rows_rotate_as_in_the_whole_batch_product(monkeypatch, d):
    # the ACG sampler rotates only each stream's n kept eigenbasis rows, one
    # product per slice; every row must get the bits it had in the product
    # over its whole batch of m proposals for n >= 64, which covers every
    # bundled study (n >= 100; a BLAS whose product rounds a row by the row
    # count fails here, not only in the digests).  Below 64 rows OpenBLAS
    # may pick other kernels, so there only a stream alone and stacked agree
    rng = np.random.default_rng(d)
    mu, a_mat = rng.standard_normal(d), rng.standard_normal((d, d))
    a_mat += a_mat.T
    a_mat[-1, -1] = 0.0
    eigvecs = sampler._envelope(mu.tobytes(), a_mat.tobytes(), d)[0]
    for m in (256, 1000, 2613, 6500):
        zs = rng.standard_normal((4, m, d)) * rng.uniform(0.2, 1.0, d)
        whole = zs @ eigvecs.T
        for n in (64, 100, 255, 256, 1000, m):
            rows = np.sort([rng.choice(m, min(n, m), replace=False) for _ in zs])[..., None]
            kept = np.take_along_axis(zs, rows, axis=1)
            monkeypatch.setattr(sampler, "_rejection", lambda *args: kept)
            y = sampler._fb_acg_rejection(mu, a_mat, kept.shape[1], [None] * 4)
            z = np.take_along_axis(whole, rows, axis=1)
            np.testing.assert_array_equal(y, z / np.linalg.norm(z, axis=-1)[..., None])


def test_watson_uniform_stack_equals_per_stream_samples():
    stack = sample_watson(UNIFORM, 7, 23, range(5))
    for k in range(5):
        np.testing.assert_array_equal(stack[k],
                                      random_unit_rows(stream_generator(23, k), 7, 3))


@pytest.mark.parametrize("work_bytes", [1, 2**30])
def test_stacks_equal_for_any_working_size(monkeypatch, work_bytes):
    # proposal rounds of one stream each, or of every stream with one batch
    # size, give the bits of the default groups; with min_batch = 1 the
    # streams' later batches differ in size
    monkeypatch.setattr(sampler, "_MIN_BATCH", 1)
    u20 = np.ones(20) / math.sqrt(20)
    cases = [(sample_vmf, VmfParams(u20, 5.0), 100), (sample_vmf, VmfParams(_U4, 2.0), 60),
             (sample_watson, WatsonParams(u20, 5.0), 100),
             (sample_watson, WatsonParams(_U4, -6.0), 60),
             (sample_fb, FisherBinghamParams(*_ACG_CASES["fb"][:2]), 60)]
    for draw, params, n in cases:
        expected = draw(params, n, 25, range(30))
        with monkeypatch.context() as patch:
            patch.setattr(models, "WORK_BYTES", work_bytes)
            np.testing.assert_array_equal(draw(params, n, 25, range(30)), expected)


def test_proposal_rounds_stay_within_the_working_size(monkeypatch):
    # every proposal stack fits in WORK_BYTES unless it holds one stream;
    # a Watson d = 20 batch at n = 2000 alone is larger
    rejection = sampler._rejection
    stacks = []

    def checking(gens, n, batch, propose, shape):
        def checked(gs, m):
            draws, keep = propose(gs, m)
            stacks.append((len(gs), draws.nbytes))
            return draws, keep
        return rejection(gens, n, batch, checked, shape)

    monkeypatch.setattr(sampler, "_rejection", checking)
    u20 = np.ones(20) / math.sqrt(20)
    sample_vmf(VmfParams(E3[0], 3.0), 2000, 26, range(40))
    sample_watson(WatsonParams(u20, 5.0), 100, 26, range(40))
    sample_watson(WatsonParams(u20, -2.0), 2000, 26, range(3))
    sample_fb(FisherBinghamParams(*_ACG_CASES["fb"][:2]), 1000, 26, range(10))
    assert all(k == 1 or size <= models.WORK_BYTES for k, size in stacks)
    assert any(k > 1 for k, _ in stacks)
    assert any(k == 1 and size > models.WORK_BYTES for k, size in stacks)


@pytest.mark.parametrize("b, n, d", [(65, 100, 10), (40, 257, 20)])
def test_vmf_block_keeps_little_beyond_its_stack(b, n, d):
    # the tangent normals, rotation and normalisation run per working-size
    # group of streams, so a block's traced peak above the stack it returns
    # stays within a few groups, whatever the block's size; the second case
    # spans 14 groups
    params = VmfParams(np.ones(d) / math.sqrt(d), 5.0)
    sample_vmf(params, n, 27, range(b))  # warm-up, so one-time allocations are not traced
    tracemalloc.start()
    try:
        x = sample_vmf(params, n, 27, range(b))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - x.nbytes < 8 * models.WORK_BYTES


@pytest.mark.parametrize("d", [2, 3])
def test_unit_rows_redraw_a_zero_row_from_its_own_stream(d):
    # the probability-zero guard: each zero row is redrawn by its own
    # slice's generator, in row order, and then normalised with the rest;
    # every other row is only normalised, and a slice without zero rows
    # draws nothing
    x = np.random.default_rng(30).standard_normal((3, 6, d))
    zeros = {0: [1, 4], 2: [2]}
    for j, rows in zeros.items():
        x[j, rows] = 0.0
    expected = x.copy()
    twins = [np.random.default_rng(40 + j) for j in range(3)]
    for j, rows in zeros.items():
        expected[j, rows] = twins[j].standard_normal((len(rows), d))
    expected /= np.linalg.norm(expected, axis=-1)[..., None]
    gens = [np.random.default_rng(40 + j) for j in range(3)]
    np.testing.assert_array_equal(sampler._unit_rows(x, gens), expected)
    for gen, twin in zip(gens, twins):
        assert gen.random() == twin.random()
