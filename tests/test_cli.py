import json
from pathlib import Path

import numpy as np
import pytest

from spherestein import cli, families
from spherestein.est_watson import NotEligible

CONFIG_DIR = Path(__file__).parent.parent / "configs"


def _write_params(tmp_path, obj, name="params.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _vmf_params(tmp_path, kappa=10.0):
    return _write_params(
        tmp_path, {"family": "vmf", "mu": [0.0, 0.0, 1.0], "kappa": kappa}
    )


def test_sample_writes_unit_rows(tmp_path, capsys):
    out = str(tmp_path / "draws.csv")
    code = cli.main(["sample", "--params", _vmf_params(tmp_path), "--n", "5",
                     "--seed", "1", "--out", out])
    assert code == 0
    x = np.loadtxt(out, delimiter=",")
    assert x.shape == (5, 3)
    np.testing.assert_allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-12)
    echoed = json.loads(capsys.readouterr().out)
    assert echoed["seed"] == 1


def test_sample_header_flag(tmp_path):
    out = str(tmp_path / "draws.csv")
    cli.main(["sample", "--params", _vmf_params(tmp_path), "--n", "3",
              "--seed", "1", "--out", out, "--header"])
    first = Path(out).read_text().splitlines()[0]
    assert first == "x1,x2,x3"


def test_sample_rejects_bad_fb_matrix(tmp_path):
    params = _write_params(tmp_path, {
        "family": "fb", "mu": [1.0, 0.0, 0.0],
        "A": [[0.0, 0, 0], [0, 0, 0], [0, 0, 1.0]],
    })
    out = str(tmp_path / "draws.csv")
    assert cli.main(["sample", "--params", params, "--n", "5",
                     "--seed", "1", "--out", out]) == 2


def test_sample_family_mismatch(tmp_path):
    out = str(tmp_path / "draws.csv")
    assert cli.main(["sample", "--family", "watson", "--params",
                     _vmf_params(tmp_path), "--n", "5", "--seed", "1",
                     "--out", out]) == 2


def test_sample_family_check_on_non_object_file(tmp_path, capsys):
    params = _write_params(tmp_path, [{"family": "vmf"}])
    out = str(tmp_path / "draws.csv")
    assert cli.main(["sample", "--family", "vmf", "--params", params,
                     "--n", "5", "--out", out]) == 2
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("obj", [
    {"family": "vmf", "mu": [0, 0, 1], "kappa": [1]},
    {"family": "fb", "mu": [1, 0, 0], "A": {"not": "a matrix"}},
])
def test_sample_rejects_non_numeric_field(tmp_path, capsys, obj):
    out = str(tmp_path / "draws.csv")
    assert cli.main(["sample", "--params", _write_params(tmp_path, obj),
                     "--n", "5", "--out", out]) == 2
    assert "invalid parameter file" in capsys.readouterr().err


def test_sample_reproducible_bytes(tmp_path):
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for out in (out1, out2):
        cli.main(["sample", "--params", _vmf_params(tmp_path), "--n", "50",
                  "--seed", "9", "--out", out])
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


def test_round_trip_vmf(tmp_path, capsys):
    out = str(tmp_path / "draws.csv")
    cli.main(["sample", "--params", _vmf_params(tmp_path, kappa=2.0),
              "--n", "10000", "--seed", "4", "--out", out])
    capsys.readouterr()
    code = cli.main(["fit", "--family", "vmf", "--estimator", "st",
                     "--in", out])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "ok"
    assert 1.8 <= report["kappa"] <= 2.2
    assert abs(report["mu"][2]) > 0.99


def test_round_trip_watson(tmp_path, capsys):
    params = _write_params(tmp_path, {
        "family": "watson", "mu": [0.6, 0.8, 0.0], "kappa": -8.0,
    })
    out = str(tmp_path / "draws.csv")
    cli.main(["sample", "--params", params, "--n", "10000", "--seed", "5",
              "--out", out])
    capsys.readouterr()
    assert cli.main(["fit", "--family", "watson", "--estimator", "st",
                     "--in", out]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["branch"] == "-"
    assert abs(report["kappa"] + 8.0) < 1.0
    assert abs(np.array(report["mu"]) @ np.array([0.6, 0.8, 0.0])) > 0.99


def test_round_trip_fb(tmp_path, capsys):
    params = _write_params(tmp_path, {
        "family": "fb", "mu": [0.0, 3.0, 3.0],
        "A": [[0.0, 0, 0], [0, 0, -3.0], [0, -3.0, 0]],
    })
    out = str(tmp_path / "draws.csv")
    cli.main(["sample", "--params", params, "--n", "10000", "--seed", "6",
              "--out", out])
    capsys.readouterr()
    report_path = str(tmp_path / "fit.json")
    assert cli.main(["fit", "--family", "fb", "--in", out,
                     "--out", report_path]) == 0
    report = json.loads(Path(report_path).read_text())
    assert np.linalg.norm(np.array(report["mu"]) - [0, 3, 3]) < 0.4
    assert report["residual_norm"] <= 1e-8
    assert "cond_Mprime" in report and "cond_schur" in report


def test_fit_watson_on_symmetrized_vmf(tmp_path, capsys):
    # antipodally symmetrized one-sided data: axial, runs, reports a branch
    out = str(tmp_path / "draws.csv")
    cli.main(["sample", "--params", _vmf_params(tmp_path, kappa=5.0),
              "--n", "2000", "--seed", "7", "--out", out])
    x = np.loadtxt(out, delimiter=",")
    sym = np.vstack([x, -x])
    np.savetxt(out, sym, delimiter=",", fmt="%.17g")
    capsys.readouterr()
    assert cli.main(["fit", "--family", "watson", "--in", out]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "ok"
    assert report["branch"] in ("+", "-")


def test_fit_rejects_off_sphere_rows(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.9,0,0\n0,1,0\n")
    assert cli.main(["fit", "--family", "vmf", "--in", str(bad)]) == 2


def test_fit_renormalizes_slightly_off_rows(tmp_path, capsys):
    rows = np.array([[1.0 + 5e-4, 0.0, 0.0], [0.0, 1.0, 0.0],
                     [1.0, 1e-4, 0.0]])
    path = tmp_path / "close.csv"
    np.savetxt(path, rows, delimiter=",", fmt="%.17g")
    assert cli.main(["fit", "--family", "vmf", "--in", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert any("renormalized" in w for w in report["warnings"])


@pytest.mark.parametrize("family,estimator,d",
                         [("vmf", "ml", 3), ("watson", "mla", 4), ("fb", "st", 3)])
def test_fit_rejects_non_finite_rows(tmp_path, capsys, family, estimator, d):
    rows = np.eye(d)[[0, 1, 2, 0, 1, 2]]
    rows[2, 0] = np.nan
    bad = tmp_path / "nan.csv"
    np.savetxt(bad, rows, delimiter=",")
    assert cli.main(["fit", "--family", family, "--estimator", estimator,
                     "--in", str(bad)]) == 2
    assert "row 2 has a non-finite entry" in capsys.readouterr().err


REPORT_KEYS = {
    "vmf": {"mu", "kappa", "diagnostics"},
    "watson": {"mu", "kappa", "branch", "eligible_branches", "residual_norms"},
    "fb": {"mu", "A", "residual_norm", "cond_Mprime", "cond_schur"},
}
TABLE_PARAMS = {
    "vmf": {"family": "vmf", "mu": [0.0, 0.6, 0.8], "kappa": 5.0},
    "watson": {"family": "watson", "mu": [0.6, 0.8, 0.0], "kappa": 5.0},
    "fb": {"family": "fb", "mu": [0.0, 3.0, 3.0],
           "A": [[0.0, 0, 0], [0, 0, -3.0], [0, -3.0, 0]]},
}


@pytest.mark.parametrize("family,estimator", sorted(families.ESTIMATORS))
def test_sample_then_fit_every_table_entry(tmp_path, capsys, family, estimator):
    out = str(tmp_path / "draws.csv")
    params = _write_params(tmp_path, TABLE_PARAMS[family])
    assert cli.main(["sample", "--family", family, "--params", params,
                     "--n", "200", "--seed", "2", "--out", out]) == 0
    capsys.readouterr()
    assert cli.main(["fit", "--family", family, "--estimator", estimator,
                     "--in", out]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["family"], report["estimator"]) == (family, estimator)
    if report["status"] != "NE":
        assert report["status"] == "ok"
        assert REPORT_KEYS[family] <= set(report)
        assert np.all(np.isfinite(report["mu"]))


def test_fit_missing_file():
    assert cli.main(["fit", "--family", "vmf", "--in", "/nonexistent.csv"]) == 2


def test_fit_unknown_estimator(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1,0,0\n0,1,0\n")
    assert cli.main(["fit", "--family", "vmf", "--estimator", "nope",
                     "--in", str(path)]) == 2


def test_fit_ne_reports_status(tmp_path, capsys, monkeypatch):
    def raiser(x):
        raise NotEligible("both branches rejected")

    monkeypatch.setitem(families.ESTIMATORS, ("watson", "st"), raiser)
    path = tmp_path / "x.csv"
    path.write_text("1,0,0\n0,1,0\n0,0,1\n")
    assert cli.main(["fit", "--family", "watson", "--estimator", "st",
                     "--in", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "NE"


def test_fit_singular_system_exit_code(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1,0,0\n")
    assert cli.main(["fit", "--family", "fb", "--in", str(path)]) == 4


def test_simulate_bundled_config(tmp_path, capsys):
    out = str(tmp_path / "result.csv")
    code = cli.main(["simulate", "--config",
                     str(CONFIG_DIR / "table2_d3_k1.json"),
                     "--reps", "50", "--out", out])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "estimator" in stdout
    lines = Path(out).read_text().strip().splitlines()
    assert len(lines) == 1 + 3  # st, ml, sm
    assert '"seed": 3' in stdout


def test_simulate_reps_one_warns(tmp_path, capsys):
    code = cli.main(["simulate", "--config",
                     str(CONFIG_DIR / "table2_d3_k1.json"), "--reps", "1"])
    assert code == 0
    assert "warning" in capsys.readouterr().out


def test_simulate_invalid_family(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({
        "params": {"family": "beta", "mu": [1, 0]}, "n": 10,
    }))
    assert cli.main(["simulate", "--config", str(config)]) == 2


def test_simulate_estimator_failing_hard_exits_3(tmp_path, capsys, monkeypatch):
    def broken(x):
        raise RuntimeError("boom")

    monkeypatch.setitem(families.ESTIMATORS, ("vmf", "st"), broken)
    out = tmp_path / "result.csv"
    code = cli.main(["simulate", "--config",
                     str(CONFIG_DIR / "table2_d3_k1.json"), "--reps", "5",
                     "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: simulation failed:") and "boom" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_simulate_threads_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPHERESTEIN_THREADS", "2")
    code = cli.main(["simulate", "--config",
                     str(CONFIG_DIR / "table2_d3_k1.json"), "--reps", "20"])
    assert code == 0
    assert '"threads": 2' in capsys.readouterr().out


def test_asympvar(capsys):
    assert cli.main(["asympvar", "--d", "3", "--kappa", "1.0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["P"] == pytest.approx(3.8159533598900883, rel=1e-9)
    assert 1.0 / out["fisher_information"] == pytest.approx(out["inverse_fisher"])
    assert out["P"] >= out["inverse_fisher"]


def test_asympvar_d2_note(capsys):
    assert cli.main(["asympvar", "--d", "2", "--kappa", "1.0"]) == 0
    assert "note" in json.loads(capsys.readouterr().out)


def test_asympvar_domain(capsys):
    assert cli.main(["asympvar", "--d", "3", "--kappa", "0.0"]) == 2
    assert cli.main(["asympvar", "--d", "1", "--kappa", "1.0"]) == 2
