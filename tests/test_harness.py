import math

import numpy as np
import pytest

from spherestein import families
from spherestein.est_watson import NotEligible
from spherestein.harness import (
    SimConfig,
    compare_estimators,
    comparison_table,
    run_simulation,
)
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


def test_compare_estimators_flags():
    rows = compare_estimators([
        _vmf_config(reps=120, estimators=("st", "ml", "sm")),
    ])
    assert len(rows) == 1
    row = rows[0]
    best = row.best_mse
    assert all(row.cells[best].mse <= c.mse for c in row.cells.values())
    text = comparison_table(rows)
    assert "mse" in text and "bias" in text


def test_compare_estimators_requires_two():
    with pytest.raises(ValueError):
        compare_estimators([_vmf_config(estimators=("st",))])


def test_compare_deterministic_across_threads():
    rows_a = compare_estimators([_vmf_config(reps=40, threads=1)])
    rows_b = compare_estimators([_vmf_config(reps=40, threads=4)])
    for a, b in zip(rows_a, rows_b):
        assert a.best_bias == b.best_bias
        assert a.best_mse == b.best_mse
        for est in a.cells:
            assert a.cells[est].bias == b.cells[est].bias
            assert a.cells[est].mse == b.cells[est].mse


def test_moment_estimator_wins_bias_on_most_rows():
    # the moment-type estimator's lowest-|bias| pattern across the
    # reference grid, at reduced replication count; flags are paired
    # comparisons so this is stable
    mu3 = np.ones(3) / math.sqrt(3)
    mu10 = np.ones(10) / math.sqrt(10)
    rows = compare_estimators([
        SimConfig(params=VmfParams(mu3, 1.0), n=100, reps=500,
                  estimators=("st", "ml", "sm"), seed=13),
        SimConfig(params=VmfParams(mu3, 10.0), n=100, reps=500,
                  estimators=("st", "ml", "sm"), seed=13),
        SimConfig(params=VmfParams(mu10, 10.0), n=100, reps=500,
                  estimators=("st", "ml", "sm"), seed=13),
    ])
    wins = sum(row.best_bias == "st" for row in rows)
    assert wins >= 2
