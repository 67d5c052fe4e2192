import json
import math
import re
import threading

import numpy as np
import pytest

from spherestein import families, harness, models, sampler
from spherestein.est_watson import NotEligible
from spherestein.harness import SimConfig, run_simulation
from spherestein.linalg import sym_eigen
from spherestein.models import FisherBinghamParams, VmfParams, WatsonParams

from oracles import watson_st_ne_points


def _vmf_config(**kwargs):
    defaults = dict(
        params=VmfParams(np.ones(3) / math.sqrt(3), 2.0),
        n=100,
        reps=50,
        estimators=("st", "ml"),
        seed=7,
    )
    defaults.update(kwargs)
    return SimConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError, match="^reps must be >= 1, got 0$"):
        _vmf_config(reps=0)
    with pytest.raises(ValueError):
        _vmf_config(estimators=("nope",))
    assert _vmf_config(estimators=()).estimators == ("st", "ml", "sm")


@pytest.mark.parametrize("threads", [2.5, True])
def test_config_rejects_non_integer_threads(threads):
    # threads=2.5 used to run a pool and threads=True one thread
    with pytest.raises(ValueError, match="threads must be an integer"):
        _vmf_config(threads=threads)


@pytest.mark.parametrize("value", [True, 1.5, "3", np.float64(2.0), -1, np.int64(-1)])
def test_config_and_rng_state_share_the_integer_rule(value):
    # one rule, models.as_int, so a config and a sampler's seed raise the same words
    with pytest.raises(ValueError) as from_rng:
        sampler.sample_vmf(_vmf_config().params, 5, value)
    with pytest.raises(ValueError) as from_config:
        _vmf_config(seed=value)
    assert str(from_rng.value) == str(from_config.value)


def test_config_and_rng_state_store_numpy_integers_as_ints():
    # a numpy integer seed draws what its int does, and a config stores the int
    params = _vmf_config().params
    np.testing.assert_array_equal(sampler.sample_vmf(params, 5, np.int64(3), np.arange(2)),
                                  sampler.sample_vmf(params, 5, 3, range(2)))
    seed = _vmf_config(seed=np.int64(3)).seed
    assert seed == 3 and type(seed) is int


def test_config_refuses_more_replications_than_streams():
    # a replication's stream is its index, and streams stop below 2**32
    assert _vmf_config(reps=2**32).reps == 2**32
    with pytest.raises(ValueError, match=r"^reps must be <= 2\*\*32, got 4294967297$"):
        _vmf_config(reps=2**32 + 1)


CONFIG_RAW = {"params": {"family": "vmf", "mu": [0, 0, 1], "kappa": 2.0},
              "n": 10, "reps": 5, "label": "x"}


@pytest.mark.parametrize("raw,message", [
    (["params", "n"], "a config must be a JSON object"),
    ({**CONFIG_RAW, "rep": 5}, "unknown config key 'rep'"),
    ({**CONFIG_RAW, "threads": 2}, "unknown config key 'threads'"),  # a run setting
    ({"n": 10}, "a config needs 'params'"),
    ({"params": CONFIG_RAW["params"]}, "a config needs 'n'"),
    ({**CONFIG_RAW, "params": {"family": "vmf", "mu": [0, 0, 1]}},
     "vmf parameters need 'mu' and 'kappa'"),
])
def test_config_from_dict_refuses(raw, message):
    # the one reader of a config file, which simulate and tools/csv_digests.py share
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        harness.config_from_dict(raw, seed=3)


def test_config_from_dict_applies_each_override_that_is_not_none():
    raw = json.loads(json.dumps(CONFIG_RAW))
    config = harness.config_from_dict(raw, reps=None, seed=3, threads=2)
    assert raw == CONFIG_RAW  # the file's object is left as it was read
    assert (config.n, config.reps, config.seed, config.threads, config.label) == (
        10, 5, 3, 2, "x")
    assert isinstance(config.params, VmfParams) and config.params.kappa == 2.0
    np.testing.assert_array_equal(config.params.mu, [0.0, 0.0, 1.0])
    assert config.estimators == harness.DEFAULT_ESTIMATORS["vmf"]
    assert harness.config_from_dict(raw).reps == 5
    assert harness.config_from_dict(raw, reps=7).reps == 7


def test_single_replication_degenerate():
    result = run_simulation(_vmf_config(reps=1))
    cell = result.cells["st"]["kappa"]
    assert cell.bias_se == 0.0
    assert cell.mse_se == 0.0
    assert any("low replication" in w for w in result.warnings)


def test_vmf_run_sanity():
    result = run_simulation(_vmf_config(reps=200))
    for est in ("st", "ml"):
        cell = result.cells[est]["kappa"]
        assert abs(cell.bias) < 0.2
        assert 0.0 < cell.mse < 0.3
        assert cell.ne == 0.0


def test_deterministic_across_threads(monkeypatch):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)  # the pool path on 1 CPU too
    base = run_simulation(_vmf_config(reps=60, threads=1))
    threaded = run_simulation(_vmf_config(reps=60, threads=4))
    assert base.to_csv() == threaded.to_csv()


def test_fb_blocks_and_alt_reading():
    params = FisherBinghamParams(np.array([0.5, 0, 0]), np.zeros((3, 3)))
    result = run_simulation(SimConfig(params=params, n=200, reps=40,
                                      estimators=("st",), seed=3))
    for block in ("mu", "A"):
        cell = result.cells["st"][block]
        assert cell.bias is None
        assert cell.mse > 0.0
        assert cell.mse_alt is not None
        # mean distance squared is at most the mean squared distance
        assert cell.mse_alt**2 <= cell.mse + 1e-12


def _planting(monkeypatch, family, sample, rep_gets_it):
    # the family's sampler, with `sample` in every slice whose stream
    # satisfies rep_gets_it
    real = families.SAMPLERS[family]

    def planted(params, n, seed, streams):
        stack = real(params, n, seed, streams)
        for k, stream in enumerate(streams):
            if rep_gets_it(stream):
                stack[k] = sample
        return stack

    monkeypatch.setitem(families.SAMPLERS, family, planted)


def test_ne_bookkeeping(monkeypatch):
    # replications 0, 4, 8, ... get a sample without an ST estimate
    x = watson_st_ne_points()
    with pytest.raises(NotEligible):
        families.fit_one("watson", "st", x)
    _planting(monkeypatch, "watson", np.tile(x, (10, 1)), lambda rep: rep % 4 == 0)
    config = SimConfig(params=WatsonParams(np.ones(3) / math.sqrt(3), 5.0),
                       n=50, reps=100, estimators=("st", "mla"), seed=9)
    _set_block_size(monkeypatch, config, 30)
    result = run_simulation(config)
    ne_st = result.cells["st"]["kappa"].ne
    assert 0.0 < ne_st < 1.0
    assert ne_st == 25 / 100
    assert result.cells["mla"]["kappa"].ne == 0.0
    # NE replications are excluded, not imputed: bias stays finite
    assert np.isfinite(result.cells["st"]["kappa"].bias)


def test_watson_study_with_fewer_rows_than_dimensions_runs():
    # at n < d the bottom axis carries none of the mass: that branch has no
    # estimate, and the study books the top branch instead of aborting
    config = SimConfig(params=WatsonParams(np.eye(50)[0], 1e4), n=20, reps=40,
                       estimators=("st", "mla"), seed=3)
    result = run_simulation(config)
    for est in ("st", "mla"):
        cell = result.cells[est]["kappa"]
        assert cell.ne == 0.0 and np.isfinite(cell.bias) and np.isfinite(cell.mse)
    assert abs(result.cells["st"]["kappa"].bias) < 1e3


def test_other_errors_abort(monkeypatch):
    def broken(x):
        raise RuntimeError("boom")

    monkeypatch.setitem(families.ESTIMATORS, ("vmf", "st"), broken)
    with pytest.raises(RuntimeError):
        run_simulation(_vmf_config(reps=5))


def test_csv_shape_and_precision():
    config = _vmf_config(reps=20)
    result = run_simulation(config)
    assert result.config is config  # the study's identity has one owner
    assert result.table().startswith("vmf: n=100 reps=20 seed=7 (")  # label ""
    lines = result.to_csv().strip().split("\n")
    assert lines[0].startswith("label,family,n,reps,seed,estimator,block")
    assert lines[1].startswith(",vmf,100,20,7,")
    assert len(lines) == 1 + 2  # two estimators, one block each
    # 17 significant digits survive a round trip
    bias_field = lines[1].split(",")[7]
    assert float(bias_field) == result.cells[sorted(result.cells)[0]]["kappa"].bias


def test_moment_estimator_wins_bias_on_most_rows():
    # the moment-type estimator's lowest-|bias| pattern across the
    # reference grid, at reduced replication count; the estimators of a
    # study share its replication datasets, so this is a paired comparison
    # and stable
    mu3 = np.ones(3) / math.sqrt(3)
    mu10 = np.ones(10) / math.sqrt(10)
    wins = 0
    for params in (VmfParams(mu3, 1.0), VmfParams(mu3, 10.0),
                   VmfParams(mu10, 10.0)):
        cells = run_simulation(SimConfig(
            params=params, n=100, reps=500, estimators=("st", "ml", "sm"),
            seed=13)).cells
        best = min(cells, key=lambda est: abs(cells[est]["kappa"].bias))
        wins += best == "st"
    assert wins >= 2


# the block engine ------------------------------------------------------------

def _set_block_size(monkeypatch, config, size):
    monkeypatch.setattr(harness, "BLOCK_BYTES", size * 8 * config.n * config.params.d)


ENGINE_CONFIGS = {
    "vmf": dict(params=VmfParams(np.ones(3) / math.sqrt(3), 2.0), n=30,
                estimators=("st", "st2", "ml", "sm")),
    "watson": dict(params=WatsonParams(np.ones(4) / 2.0, -3.0), n=30,
                   estimators=("st", "mla", "ml")),
    "fb": dict(params=FisherBinghamParams(np.array([1.0, 0, 0]),
                                          np.diag([-1.0, 0.5, 0.0])),
               n=60, estimators=("st",)),
}


@pytest.mark.parametrize("reps,n,d", [(2000, 100, 3), (2000, 1000, 3), (2000, 100, 10),
                                      (30, 100, 20), (7, 100_000, 10), (1, 5, 2),
                                      (217, 301, 2)])
def test_blocks_hold_block_bytes_of_samples_one_replication_at_least(reps, n, d,
                                                                     monkeypatch):
    # b = BLOCK_BYTES // (8 n d) replications a block, at least one, in order
    seen = []

    def record(config, block):
        seen.append(block)
        blocks = len(families.FAMILIES["vmf"].blocks)
        return {est: (np.zeros((len(block), blocks)), np.zeros(len(block), dtype=bool))
                for est in config.estimators}

    monkeypatch.setattr(harness, "_run_block", record)
    run_simulation(SimConfig(params=VmfParams(np.eye(d)[0], 1.0), n=n, reps=reps))
    size = max(1, harness.BLOCK_BYTES // (8 * n * d))
    assert seen == [range(lo, min(lo + size, reps)) for lo in range(0, reps, size)]


@pytest.mark.parametrize("family", sorted(ENGINE_CONFIGS))
def test_csv_bytes_identical_for_any_block_size_and_thread_count(family, monkeypatch):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)  # the pool path on 1 CPU too
    config = SimConfig(reps=17, seed=11, **ENGINE_CONFIGS[family])
    reference = run_simulation(config).to_csv()
    for size in (1, 7, 17, 40):
        _set_block_size(monkeypatch, config, size)
        for threads in (1, 2):
            config.threads = threads
            assert run_simulation(config).to_csv() == reference, (size, threads)


def _single_errors(family, report, params) -> list[float]:
    # the family's error of one single-sample fit report, as each family
    # scores it
    if family == "fb":
        return [float(np.linalg.norm(report["mu"] - params.mu)),
                float(np.linalg.norm(report["A"] - params.A, 2))]
    return [report["kappa"] - params.kappa]


def test_block_results_equal_per_replication_fits(monkeypatch):
    # each replication scored on its own: its own stream, a single-sample
    # fit, the family's error
    for family, fields in sorted(ENGINE_CONFIGS.items()):
        config = SimConfig(reps=9, seed=12, **fields)
        _set_block_size(monkeypatch, config, 4)
        result = run_simulation(config)
        fam = families.FAMILIES[family]
        for est in config.estimators:
            errors = np.array([_single_errors(family, families.fit_one(
                family, est, families.SAMPLERS[family](
                    config.params, config.n,
                    config.seed, [rep])[0]),
                config.params) for rep in range(config.reps)])
            for i, block in enumerate(fam.blocks):
                cell = result.cells[est][block]
                mean = cell.bias if fam.signed else cell.mse_alt
                assert mean == float(errors[:, i].mean()), (family, est, block)
                assert cell.mse == float((errors[:, i] ** 2).mean())


def test_watson_study_decomposes_once_per_block(monkeypatch):
    shapes = []

    def counting(s):
        shapes.append(np.shape(s))
        return sym_eigen(s)

    monkeypatch.setattr(models, "sym_eigen", counting)
    config = SimConfig(reps=17, seed=11, **ENGINE_CONFIGS["watson"])
    assert set(config.estimators) >= {"st", "mla"}
    _set_block_size(monkeypatch, config, 5)
    run_simulation(config)
    assert shapes == [(5, 4, 4)] * 3 + [(2, 4, 4)]


@pytest.mark.parametrize("family,estimators,moments", [
    ("vmf", ("st", "st2", "ml", "sm"), {"x", "xbar", "scatter"}),
    ("vmf", ("ml", "sm"), {"x", "xbar"}),
    ("watson", ("st", "mla", "ml"), {"x", "scatter", "axes"}),
    ("fb", ("st",), {"x", "xbar", "scatter"}),
], ids=["vmf", "vmf-ml-sm", "watson", "fb"])
def test_each_block_forms_the_moments_its_fits_read_once(monkeypatch, family,
                                                         estimators, moments):
    # every fit of a block reads one models.Sample, which forms a moment on
    # the first fit that reads it and keeps that array for the other fits:
    # a Watson block forms its axes in one decomposition and never Xbar, a
    # vMF or Fisher-Bingham block never decomposes S
    seen, decompositions = [], []

    def recording(fit):
        def recorded(x):
            seen.append((x, dict(vars(x))))
            return fit(x)
        return recorded

    for code in estimators:
        monkeypatch.setitem(families.ESTIMATORS, (family, code),
                            recording(families.ESTIMATORS[family, code]))
    monkeypatch.setattr(models, "sym_eigen",
                        lambda s: decompositions.append(s) or sym_eigen(s))
    config = SimConfig(reps=17, seed=11, **{**ENGINE_CONFIGS[family],
                                            "estimators": estimators})
    _set_block_size(monkeypatch, config, 5)
    run_simulation(config)
    assert len(seen) == 4 * len(estimators)
    for k in range(4):
        block = seen[k * len(estimators):(k + 1) * len(estimators)]
        sample = block[0][0]
        assert isinstance(sample, models.Sample) and block[0][1].keys() == {"x"}
        assert all(x is sample for x, _ in block)
        assert vars(sample).keys() == moments
        # a moment formed for one fit is the very array every later fit reads
        for _, formed in block:
            assert all(vars(sample)[name] is value for name, value in formed.items())
    assert len(decompositions) == (4 if family == "watson" else 0)


def test_pool_has_no_more_workers_than_blocks(monkeypatch):
    seen = []

    class Recording(harness.ThreadPoolExecutor):
        def __init__(self, max_workers):
            seen.append(max_workers)
            super().__init__(max_workers=min(max_workers, 2))  # start few threads

    monkeypatch.setattr(harness, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
    config = _vmf_config(reps=10, threads=4)
    _set_block_size(monkeypatch, config, 5)
    reference = run_simulation(config).to_csv()
    _set_block_size(monkeypatch, config, 10)
    run_simulation(config)
    assert seen == [2]  # never more workers than blocks; one worker builds no pool
    # (threads, CPUs, blocks) -> the pool's workers, None where none is built;
    # a large thread count is checked through the recorded count alone
    cases = [((4, 8, 5), 4), ((4, 3, 5), 3), ((4, 2, 10), 2), ((10**6, 16, 5), 5),
             ((10**6, 16, 1), None), ((4, 1, 5), None), ((4, None, 5), None),
             ((1, 8, 5), None)]
    for (threads, cpus, blocks), workers in cases:
        seen.clear()
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        config.threads = threads
        _set_block_size(monkeypatch, config, config.reps // blocks)
        assert run_simulation(config).to_csv() == reference
        assert seen == ([] if workers is None else [workers]), (threads, cpus, blocks)


def test_one_worker_runs_every_block_in_the_calling_thread(monkeypatch):
    idents = []
    real = families.SAMPLERS["vmf"]

    def recording(params, n, seed, streams):
        idents.append(threading.get_ident())
        return real(params, n, seed, streams)

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-worker study built an executor")

    monkeypatch.setitem(families.SAMPLERS, "vmf", recording)
    monkeypatch.setattr(harness, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
    config = _vmf_config(reps=10, threads=1)
    _set_block_size(monkeypatch, config, 3)
    run_simulation(config)
    assert idents == [threading.get_ident()] * 4


@pytest.mark.parametrize("threads", [0, -1])
def test_threads_below_one_rejected(threads):
    with pytest.raises(ValueError, match="threads must be >= 1"):
        _vmf_config(threads=threads)


def test_stein2_books_ne_per_replication(monkeypatch):
    # replications 0, 3, 6, ... get a sample on one line through e1, where
    # I - mean(xx') is singular
    line = np.zeros((30, 3))
    line[:, 0] = [1.0, 1.0, -1.0] * 10
    real = families.SAMPLERS["vmf"]

    def with_singular(params, n, seed, streams):
        stack = real(params, n, seed, streams)
        for k, stream in enumerate(streams):
            if stream % 3 == 0:
                stack[k] = line
        return stack

    monkeypatch.setitem(families.SAMPLERS, "vmf", with_singular)
    config = SimConfig(reps=20, seed=13, **{**ENGINE_CONFIGS["vmf"],
                                            "estimators": ("st2", "ml")})
    _set_block_size(monkeypatch, config, 6)
    result = run_simulation(config)
    assert result.cells["st2"]["kappa"].ne == 7 / 20
    assert result.cells["ml"]["kappa"].ne == 0.0
    errors = [families.fit_one("vmf", "st2", real(
        config.params, config.n, 13, [rep])[0])["kappa"] - 2.0
        for rep in range(20) if rep % 3]
    assert result.cells["st2"]["kappa"].bias == float(np.mean(errors))


def test_hard_failure_names_estimator_seed_and_replication(monkeypatch):
    # replication 5 gets 40 points of d = 200 within 1e-5 of one axis: the
    # top axis carries all but ~1e-10 of the mass, so the MLa kappa^+ is
    # about 2e12, where 1F1(199/2; 100; -kappa^+), the transformed 1F1 of
    # the Watson normaliser, underflows
    angle = np.linspace(0.0, 2.0 * math.pi, 40, endpoint=False)
    bad = np.zeros((40, 200))
    bad[:, 0], bad[:, 1], bad[:, -1] = 1e-5 * np.cos(angle), 1e-5 * np.sin(angle), 1.0
    bad /= np.linalg.norm(bad, axis=1, keepdims=True)
    _planting(monkeypatch, "watson", bad, lambda rep: rep == 5)
    params = WatsonParams(np.ones(200) / math.sqrt(200), 5.0)
    config = SimConfig(params=params, n=40, reps=12, estimators=("mla",), seed=9)
    _set_block_size(monkeypatch, config, 4)
    with pytest.raises(RuntimeError) as info:
        run_simulation(config)
    message = str(info.value)
    assert "'mla'" in message and "replications 4-7 " in message
    assert "seed 9" in message and "1F1 out of range" in message


def test_hard_failure_of_a_stacked_fit_names_the_block(monkeypatch):
    config = _vmf_config(reps=20, seed=8)
    _set_block_size(monkeypatch, config, 7)
    bad = sampler.sample_vmf(config.params, config.n, 8, [14])[0]
    original = families.ESTIMATORS["vmf", "ml"]

    def fails_on_third_block(prepared):
        if np.array_equal(prepared.x[0], bad):
            raise ValueError("bad block")
        return original(prepared)

    monkeypatch.setitem(families.ESTIMATORS, ("vmf", "ml"), fails_on_third_block)
    with pytest.raises(RuntimeError) as info:
        run_simulation(config)
    message = str(info.value)
    assert "'ml'" in message and "replications 14-19" in message
    assert "seed 8" in message and "bad block" in message


def test_degenerate_vmf_slice_fails_naming_its_block(monkeypatch):
    # the prepared block carries a zero resultant to the fits, and the
    # first of them fails with the block's replications
    config = _vmf_config(reps=20, seed=8)
    _set_block_size(monkeypatch, config, 7)
    original = families.SAMPLERS["vmf"]

    def degenerate_third_block(params, n, seed, streams):
        stack = original(params, n, seed, streams)
        if streams[0] == 14:
            stack[1, ::2], stack[1, 1::2] = np.eye(3)[0], -np.eye(3)[0]
        return stack

    monkeypatch.setitem(families.SAMPLERS, "vmf", degenerate_third_block)
    with pytest.raises(RuntimeError) as info:
        run_simulation(config)
    message = str(info.value)
    assert "'st'" in message and "replications 14-19" in message
    assert "seed 8" in message and "resultant length is zero" in message


def test_fb_errors_per_slice_equal_single_fit_errors():
    params = ENGINE_CONFIGS["fb"]["params"]
    stack = sampler.sample_fb(params, 60, 5, range(6))
    stack[3] = np.eye(3)[0]  # singular: no estimate
    fit = families.ESTIMATORS["fb", "st"](stack)
    errors = np.column_stack(families.FAMILIES["fb"].errors(fit, params))
    for k, x in enumerate(stack):
        if k == 3:
            assert fit.ne[k] and np.isnan(errors[k]).all()
        else:
            expected = _single_errors("fb", families.fit_one("fb", "st", x), params)
            np.testing.assert_array_equal(errors[k], expected)
