import math

import numpy as np
import pytest

from spherestein import families, harness, sampler
from spherestein.est_watson import NotEligible
from spherestein.harness import SimConfig, run_simulation
from spherestein.models import FisherBinghamParams, VmfParams, WatsonParams


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
    with pytest.raises(ValueError):
        _vmf_config(reps=0)
    with pytest.raises(ValueError):
        _vmf_config(estimators=("nope",))
    assert _vmf_config(estimators=()).estimators == ("st", "ml", "sm")


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


def test_deterministic_across_threads():
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


def test_ne_bookkeeping(monkeypatch):
    # force NE on a deterministic subset of replications
    from spherestein import est_watson

    original = est_watson.watson_stein_fit

    def flaky(x):
        if x[0, 0] < -0.4:
            raise NotEligible("forced for the test")
        return original(x)

    monkeypatch.setitem(families.ESTIMATORS, ("watson", "st"), flaky)
    config = SimConfig(params=WatsonParams(np.ones(3) / math.sqrt(3), 5.0),
                       n=50, reps=100, estimators=("st", "mla"), seed=9)
    result = run_simulation(config)
    ne_st = result.cells["st"]["kappa"].ne
    assert 0.0 < ne_st < 1.0
    assert result.cells["mla"]["kappa"].ne == 0.0
    # NE replications are excluded, not imputed: bias stays finite
    assert np.isfinite(result.cells["st"]["kappa"].bias)


def test_other_errors_abort(monkeypatch):
    def broken(x):
        raise RuntimeError("boom")

    monkeypatch.setitem(families.ESTIMATORS, ("vmf", "st"), broken)
    with pytest.raises(RuntimeError):
        run_simulation(_vmf_config(reps=5))


def test_csv_shape_and_precision():
    result = run_simulation(_vmf_config(reps=20))
    lines = result.to_csv().strip().split("\n")
    assert lines[0].startswith("label,family,n,reps,seed,estimator,block")
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


@pytest.mark.parametrize("family", sorted(ENGINE_CONFIGS))
def test_csv_bytes_identical_for_any_block_size_and_thread_count(family, monkeypatch):
    config = SimConfig(reps=17, seed=11, **ENGINE_CONFIGS[family])
    reference = run_simulation(config).to_csv()
    for size in (1, 7, 17, 40):
        _set_block_size(monkeypatch, config, size)
        for threads in (1, 2):
            config.threads = threads
            assert run_simulation(config).to_csv() == reference, (size, threads)


def test_block_results_equal_per_replication_fits(monkeypatch):
    # each replication scored on its own: its own stream, a single-sample
    # fit, the family's error
    config = SimConfig(reps=9, seed=12, **ENGINE_CONFIGS["vmf"])
    _set_block_size(monkeypatch, config, 4)
    result = run_simulation(config)
    for est in config.estimators:
        errors = []
        for rep in range(config.reps):
            x = sampler.sample_vmf(config.params, config.n,
                                   sampler.RngState(config.seed, stream=rep))
            fit = families.ESTIMATORS["vmf", est](x)
            errors.append(fit.kappa_hat - config.params.kappa)
        errors = np.array(errors)
        assert result.cells[est]["kappa"].bias == float(errors.mean())
        assert result.cells[est]["kappa"].mse == float((errors**2).mean())


def test_pool_has_no_more_workers_than_blocks(monkeypatch):
    seen = []

    class Recording(harness.ThreadPoolExecutor):
        def __init__(self, max_workers):
            seen.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", Recording)
    config = _vmf_config(reps=10, threads=4)
    _set_block_size(monkeypatch, config, 5)
    run_simulation(config)
    _set_block_size(monkeypatch, config, 10)
    run_simulation(config)
    assert seen == [2]  # two blocks; one block runs without a pool


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

    def with_singular(params, n, streams):
        stack = real(params, n, streams)
        for k, rng in enumerate(streams):
            if rng.stream % 3 == 0:
                stack[k] = line
        return stack

    monkeypatch.setitem(families.SAMPLERS, "vmf", with_singular)
    config = SimConfig(reps=20, seed=13, **{**ENGINE_CONFIGS["vmf"],
                                            "estimators": ("st2", "ml")})
    _set_block_size(monkeypatch, config, 6)
    result = run_simulation(config)
    assert result.cells["st2"]["kappa"].ne == 7 / 20
    assert result.cells["ml"]["kappa"].ne == 0.0
    errors = [families.ESTIMATORS["vmf", "st2"](real(
        config.params, config.n, sampler.RngState(13, stream=rep))).kappa_hat - 2.0
        for rep in range(20) if rep % 3]
    assert result.cells["st2"]["kappa"].bias == float(np.mean(errors))


def test_hard_failure_names_estimator_seed_and_replication(monkeypatch):
    params = WatsonParams(np.ones(3) / math.sqrt(3), 5.0)
    bad = sampler.sample_watson(params, 40, sampler.RngState(9, stream=5))
    original = families.ESTIMATORS["watson", "mla"]

    def fails_on_rep_5(x):
        if np.array_equal(x, bad):
            raise ValueError("bad replication")
        return original(x)

    monkeypatch.setitem(families.ESTIMATORS, ("watson", "mla"), fails_on_rep_5)
    config = SimConfig(params=params, n=40, reps=12, estimators=("mla",), seed=9)
    _set_block_size(monkeypatch, config, 4)
    with pytest.raises(RuntimeError) as info:
        run_simulation(config)
    message = str(info.value)
    assert "'mla'" in message and "replication 5 " in message
    assert "seed 9" in message and "bad replication" in message


def test_hard_failure_of_a_stacked_fit_names_the_block(monkeypatch):
    config = _vmf_config(reps=20, seed=8)
    _set_block_size(monkeypatch, config, 7)
    bad = sampler.sample_vmf(config.params, config.n,
                             sampler.RngState(8, stream=14))
    original = families.ESTIMATORS["vmf", "ml"]

    def fails_on_third_block(x):
        if np.array_equal(x[0], bad):
            raise ValueError("bad block")
        return original(x)

    monkeypatch.setitem(families.ESTIMATORS, ("vmf", "ml"), fails_on_third_block)
    with pytest.raises(RuntimeError) as info:
        run_simulation(config)
    message = str(info.value)
    assert "'ml'" in message and "replications 14-19" in message
    assert "seed 8" in message and "bad block" in message
