import errno
import gzip
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from spherestein import cli, families

from oracles import watson_st_ne_points

CONFIG_DIR = Path(__file__).parent.parent / "configs"


def _write_params(tmp_path, obj, name="params.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _vmf_params(tmp_path, kappa=10.0):
    return _write_params(
        tmp_path, {"family": "vmf", "mu": [0.0, 0.0, 1.0], "kappa": kappa}
    )


@pytest.fixture
def deadline():
    # fail a test that has not returned within 30 s instead of hanging
    def expire(signum, frame):
        raise TimeoutError("no result within 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _sample_and_simulate(tmp_path, capsys, params):
    # exit codes and stderr lines of sample and simulate on one parameter set
    path = _write_params(tmp_path, params)
    config = _write_params(tmp_path, {"params": params, "n": 10, "reps": 3},
                           "config.json")
    runs = []
    for argv in (["sample", "--params", path, "--n", "10",
                  "--out", str(tmp_path / "x.csv")],
                 ["simulate", "--config", config]):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert captured.out == ""
        runs.append((code, captured.err.splitlines()))
    return runs


@pytest.mark.parametrize("params, field", [
    ({"family": "vmf", "mu": [0.0, 0.0, 1.0], "kappa": math.inf}, "kappa must be finite"),
    ({"family": "watson", "mu": [0.0, 0.0, 1.0], "kappa": math.nan}, "kappa must be finite"),
    ({"family": "watson", "mu": [0.0, 0.0, 1.0], "kappa": math.inf}, "kappa must be finite"),
    ({"family": "fb", "mu": [0.0, 0.0, 1.0],
      "A": [[math.nan, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}, "A must be a finite"),
    ({"family": "vmf", "mu": [math.nan, 0.0, 1.0], "kappa": 2.0}, "mu must be finite"),
    ({"family": "watson", "mu": [0.0, math.inf, 1.0], "kappa": 2.0}, "mu must be finite"),
    ({"family": "fb", "mu": [0.0, 0.0, -math.inf], "A": np.zeros((3, 3)).tolist()},
     "mu must be finite"),
], ids=["vmf-inf", "watson-nan", "watson-inf", "fb-nan", "vmf-mu-nan", "watson-mu-inf",
        "fb-mu-minus-inf"])
def test_non_finite_parameters_exit_2(tmp_path, capsys, deadline, params, field):
    # JSON NaN and Infinity are rejected with the parameters, before any
    # sampler runs (the FB sampler never returned on a NaN entry of A)
    for code, err in _sample_and_simulate(tmp_path, capsys, params):
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: invalid ")
        assert field in err[0]


@pytest.mark.parametrize("params, reason", [
    ({"family": "fb", "mu": [0.0, 0.0, 1e300], "A": np.zeros((3, 3)).tolist()},
     "rejection envelope is not finite"),
    ({"family": "vmf", "mu": [0.0, 0.0, 1.0], "kappa": 1e200},
     "beyond the vMF sampler's range"),
    ({"family": "vmf", "mu": [0.0, 0.0, 1.0], "kappa": 1e17},
     "beyond the vMF sampler's range"),
    ({"family": "fb", "mu": [100.0, 0.0, 0.0],
      "A": np.diag([-100.0, 0.0, 0.0]).tolist()},
     "rejection acceptance 0.00e+00 below 1e-06 after 250550 proposals"),
], ids=["fb-mu-1e300", "vmf-kappa-1e200", "vmf-kappa-1e17", "fb-acceptance-floor"])
def test_huge_parameters_are_sampler_failures(tmp_path, capsys, deadline, params,
                                              reason):
    # an envelope of |mu| = 1e300 is NaN (the FB sampler spun for ever on
    # NaN proposals), the vMF radial constants overflow or hit log(0), and
    # the FB envelope, whose bound on the linear term is tight at mu, lies
    # far above a density whose quadratic term moves the mode to x1 = 1/2,
    # so the acceptance floor stops it; all are booked as sampler failures
    for code, err in _sample_and_simulate(tmp_path, capsys, params):
        assert code == 3
        assert len(err) == 1 and err[0].startswith("error: s")
        assert reason in err[0]


@pytest.mark.parametrize("params, key", [
    ({"family": "vmf", "mu": ["0", "0", "1"], "kappa": "10"}, "mu"),
    ({"family": "vmf", "mu": [0.0, 0.0, 1.0], "kappa": "10"}, "kappa"),
    ({"family": "watson", "mu": [True, False, False], "kappa": True}, "mu"),
    ({"family": "watson", "mu": [1.0, 0.0, 0.0], "kappa": "2"}, "kappa"),
    ({"family": "fb", "mu": [1.0, 0.0, 0.0],
      "A": [[0, 0, 0], [0, False, 0], [0, 0, 0]]}, "A"),
], ids=["vmf-strings", "vmf-kappa-string", "watson-booleans", "watson-kappa-string",
        "fb-boolean-entry"])
def test_strings_and_booleans_are_not_numbers(tmp_path, capsys, params, key):
    # float() would read "10" as 10.0 and True as 1.0; every leaf of mu, A
    # and kappa must be a JSON number, in a parameter file and in a config
    (sample, sample_err), (simulate, simulate_err) = _sample_and_simulate(
        tmp_path, capsys, params)
    reason = f"{params['family']} parameter {key!r} must hold only numbers"
    assert (sample, simulate) == (2, 2)
    assert sample_err == [f"error: invalid parameter file: {reason}"]
    assert simulate_err == [f"error: invalid config: {reason}"]


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


@pytest.mark.parametrize("family", ["vmf", "watson"])
def test_fit_reads_sample_header(tmp_path, capsys, family):
    params = _write_params(tmp_path, {"family": family, "mu": [0.0, 0.6, 0.8],
                                      "kappa": 4.0})
    reports = []
    for header in ([], ["--header"]):
        out = str(tmp_path / f"draws{len(header)}.csv")
        cli.main(["sample", "--params", params, "--n", "40", "--seed", "2",
                  "--out", out, *header])
        capsys.readouterr()
        assert cli.main(["fit", "--family", family, "--in", out]) == 0
        reports.append(capsys.readouterr().out)
    assert Path(out).read_text().startswith("x1,x2,x3\n")
    assert reports[0] == reports[1]


def _run_cli(argv, **kwargs):
    # the CLI in a fresh interpreter, as the installed command runs it
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    return subprocess.run([sys.executable, "-m", "spherestein.cli", *argv], env=env,
                          timeout=120, **kwargs)


@pytest.mark.parametrize("header", [[], ["--header"]])
def test_fit_reads_a_piped_csv_as_its_path(tmp_path, capsys, header):
    # a pipe can be read once: its header line and rows come through one
    # handle.  400 rows are about 24 KiB, more than one buffered read
    out = tmp_path / "draws.csv"
    cli.main(["sample", "--params", _vmf_params(tmp_path), "--n", "400",
              "--seed", "5", "--out", str(out), *header])
    assert out.stat().st_size > 8192
    capsys.readouterr()
    assert cli.main(["fit", "--family", "vmf", "--in", str(out)]) == 0
    by_path = capsys.readouterr().out
    piped = _run_cli(["fit", "--family", "vmf", "--in", "/dev/stdin"],
                     input=out.read_bytes(), capture_output=True)
    assert piped.returncode == 0, piped.stderr
    assert piped.stdout.decode() == by_path


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_fit_reads_what_sample_writes_at_a_compressed_suffix(tmp_path, capsys, suffix):
    # every --out file is plain UTF-8 text whatever its name; numpy opens a
    # path with these suffixes through a decompressor, so fit must not hand
    # it the path
    plain, named = tmp_path / "draws.csv", tmp_path / f"draws.csv{suffix}"
    for out in (plain, named):
        cli.main(["sample", "--params", _vmf_params(tmp_path), "--n", "40",
                  "--seed", "4", "--out", str(out)])
    assert named.read_bytes() == plain.read_bytes()
    capsys.readouterr()
    reports = []
    for path in (plain, named):
        assert cli.main(["fit", "--family", "vmf", "--in", str(path)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_fit_refuses_a_gzip_file_in_one_line(tmp_path, capsys):
    plain, packed = tmp_path / "draws.csv", tmp_path / "draws.csv.gz"
    cli.main(["sample", "--params", _vmf_params(tmp_path), "--n", "40",
              "--seed", "4", "--out", str(plain)])
    packed.write_bytes(gzip.compress(plain.read_bytes()))
    capsys.readouterr()
    assert cli.main(["fit", "--family", "vmf", "--in", str(packed)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read sample: 'utf-8' codec can't decode")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("argv", [["asympvar", "--d", "3", "--kappa", "2"],
                                  ["fit", "--family", "vmf", "--in"],
                                  ["sample", "--n", "50", "--out", "/dev/stdout",
                                   "--params"],
                                  ["fit", "--family", "vmf", "--out", "/dev/stdout",
                                   "--in"]])
def test_closed_stdout_exits_141_without_a_traceback(tmp_path, capsys, argv):
    # a reader that closes the pipe early (... | head -1) ends the command
    # silently with the code a shell gives a writer that SIGPIPE ends, also
    # where it writes its --out file to stdout (--out /dev/stdout)
    if "--out" in argv and not os.path.exists("/dev/stdout"):
        pytest.skip("no /dev/stdout")
    if argv[0] == "fit":
        out = tmp_path / "draws.csv"
        cli.main(["sample", "--params", _vmf_params(tmp_path), "--n", "50",
                  "--out", str(out)])
        capsys.readouterr()
        argv = [*argv, str(out)]
    if argv[0] == "sample":
        argv = [*argv, _vmf_params(tmp_path)]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = _run_cli(argv, stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert run.returncode == 141
    assert run.stderr == ""  # no traceback and no message


@pytest.mark.parametrize("header", [[], ["--header"]])
def test_fit_reads_a_csv_with_a_byte_order_mark(tmp_path, capsys, header):
    # as Excel and PowerShell save a CSV: UTF-8 with a BOM in front
    plain = tmp_path / "plain.csv"
    cli.main(["sample", "--params", _vmf_params(tmp_path), "--n", "40",
              "--seed", "3", "--out", str(plain), *header])
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    capsys.readouterr()
    reports = []
    for path in (plain, bom):
        assert cli.main(["fit", "--family", "vmf", "--in", str(path)]) == 0
        reports.append(capsys.readouterr().out)
    assert json.loads(reports[0])["n"] == 40
    assert reports[0] == reports[1]


def test_sample_reads_params_with_a_byte_order_mark(tmp_path):
    plain = Path(_vmf_params(tmp_path))
    bom = tmp_path / "bom.json"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    outs = [tmp_path / "plain.csv", tmp_path / "bom.csv"]
    for params, out in zip((plain, bom), outs):
        assert cli.main(["sample", "--params", str(params), "--n", "20",
                         "--seed", "4", "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_sample_n_below_one_is_refused_by_the_sampler(tmp_path, capsys):
    # the samplers hold the one n >= 1 rule; sample prints their words
    out = tmp_path / "draws.csv"
    assert cli.main(["sample", "--params", _vmf_params(tmp_path), "--n", "0",
                     "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid argument: n must be >= 1\n"
    assert not out.exists()


def test_sample_rejects_bad_fb_matrix(tmp_path):
    params = _write_params(tmp_path, {
        "family": "fb", "mu": [1.0, 0.0, 0.0],
        "A": [[0.0, 0, 0], [0, 0, 0], [0, 0, 1.0]],
    })
    out = str(tmp_path / "draws.csv")
    assert cli.main(["sample", "--params", params, "--n", "5",
                     "--seed", "1", "--out", out]) == 2


def test_sample_family_check_on_non_object_file(tmp_path, capsys):
    params = _write_params(tmp_path, [{"family": "vmf"}])
    out = str(tmp_path / "draws.csv")
    assert cli.main(["sample", "--params", params,
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


@pytest.mark.parametrize("family", ["vmf", "watson", "fb"])
def test_fit_refuses_a_one_column_csv(tmp_path, capsys, family):
    # the d >= 2 rule is the sample stack's, which every fit runs
    path = tmp_path / "one.csv"
    path.write_text("x1\n1.0\n-1.0\n1.0\n")
    assert cli.main(["fit", "--family", family, "--in", str(path)]) == 2
    assert capsys.readouterr().err == ("error: estimation failed: each sample needs "
                                       "n >= 1 rows of d >= 2 coordinates, got 3 x 1\n")


def test_fit_rejects_a_row_whose_norm_overflows(tmp_path, capsys):
    # finite entries above about 1.3e154 square to inf: one error line,
    # and no numpy overflow warning before it
    bad = tmp_path / "huge.csv"
    bad.write_text("1e200,1e200,0\n0,1,0\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["fit", "--family", "vmf", "--in", str(bad)]) == 2
    assert not caught
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: cannot read sample: row 0 has norm inf")


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
    assert cli.main(["sample", "--params", params,
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


def test_fit_estimator_code_is_case_blind(tmp_path, capsys):
    # as a simulate config's "ST" is read as "st"
    path = tmp_path / "x.csv"
    path.write_text("1,0,0\n0.8,0.6,0\n0.8,0,0.6\n")
    reports = []
    for code in ("st", "ST", "St"):
        assert cli.main(["fit", "--family", "vmf", "--estimator", code,
                         "--in", str(path)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] == reports[2]
    assert json.loads(reports[0])["estimator"] == "st"


def test_fit_ne_reports_status(tmp_path, capsys):
    # the ST fit flags this sample NE; fit reports the per-branch kappas
    path = _write_rows(tmp_path / "x.csv", watson_st_ne_points())
    assert cli.main(["fit", "--family", "watson", "--estimator", "st",
                     "--in", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "NE"
    assert report["detail"] == "kappa^- = 0.1005 > 0 and kappa^+ = -6.188 < 0"


def test_fit_watson_st_on_two_rows_exits_0(tmp_path, capsys):
    # the bottom axis is orthogonal to both rows and has no ST estimate;
    # the top axis gives one
    path = _write_rows(tmp_path / "x.csv", np.array([[1.0, 0.2, 0.0], [0.9, -0.3, 0.1]]))
    assert cli.main(["fit", "--family", "watson", "--estimator", "st",
                     "--in", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "ok" and report["branch"] == "+"
    assert report["eligible_branches"] == ["+"] and math.isfinite(report["kappa"])


def test_fit_watson_st_on_one_row_is_ne(tmp_path, capsys):
    # one row: the top axis carries all of the mass and the bottom none
    path = _write_rows(tmp_path / "x.csv", np.array([[0.0, 0.6, 0.8]]))
    assert cli.main(["fit", "--family", "watson", "--estimator", "st",
                     "--in", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "NE"
    assert report["detail"] == (
        "no estimate of kappa^- or kappa^+ (J vanishes on the axis)")


@pytest.mark.parametrize("estimator, rows, cause", [
    ("st", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "J vanishes on the axis"),
    ("mla", [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
     "the axis carries none or all of the mass"),
], ids=["st", "mla"])
def test_fit_watson_two_row_ne_names_its_cause(tmp_path, capsys, estimator, rows, cause):
    # ST: two orthogonal rows leave J zero on both axes; MLa: an antipodal
    # pair puts all of the mass on the top axis and none on the bottom one
    path = _write_rows(tmp_path / "x.csv", np.array(rows))
    assert cli.main(["fit", "--family", "watson", "--estimator", estimator,
                     "--in", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "NE"
    assert report["detail"] == f"no estimate of kappa^- or kappa^+ ({cause})"


def _strict_json(text):
    # json.loads accepts NaN and Infinity, which are not JSON tokens
    def refuse(token):
        raise ValueError(f"not a JSON token: {token}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("estimator", ["st", "mla"])
@pytest.mark.parametrize("rows", [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                                  [[1.0, 0.2, 0.0], [0.9, -0.3, 0.1]]])
def test_fit_watson_two_row_reports_are_strict_json(tmp_path, capsys, estimator, rows):
    # the bottom axis of a two-row sample has no estimate: its residual norm
    # (ST's NaN, MLa's inf) is written as null
    path = _write_rows(tmp_path / "x.csv", np.array(rows))
    assert cli.main(["fit", "--family", "watson", "--estimator", estimator,
                     "--in", path]) == 0
    report = _strict_json(capsys.readouterr().out)
    if report["status"] == "ok":
        assert report["eligible_branches"] == ["+"]
        assert report["residual_norms"]["-"] is None
        assert math.isfinite(report["residual_norms"]["+"])
    else:
        assert estimator == "st" and report["status"] == "NE"


def _write_rows(path, rows):
    np.savetxt(path, rows / np.linalg.norm(rows, axis=1, keepdims=True),
               delimiter=",", fmt="%.17g")
    return str(path)


def test_fit_vmf_ml_at_extreme_concentration(tmp_path, capsys):
    # 1 - |Xbar| is about 1e-11, so the ML root lies beyond kappa = 2e9,
    # where scipy's scaled Bessel values are NaN; at d = 3 the link is
    # coth(kappa) - 1/kappa, whose root is 1/(1 - r) to double precision
    rng = np.random.default_rng(5)
    rows = np.eye(3)[2] + 3e-6 * rng.standard_normal((300, 3))
    path = _write_rows(tmp_path / "tight.csv", rows)
    assert cli.main(["fit", "--family", "vmf", "--estimator", "ml",
                     "--in", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "ok"
    r = report["diagnostics"]["resultant_length"]
    assert 1.0 - r < 1e-10
    assert report["kappa"] == pytest.approx(1.0 / (1.0 - r), rel=1e-6)


def test_fit_vmf_ml_below_kappa_1e_10(tmp_path, capsys):
    # two rows 2e-11 short of antipodal: |Xbar| = 1.0e-11, whose ML root
    # 2.9999818785191259e-11 (40-digit mpmath) lies below kappa = 1e-10
    angle = math.pi + 2e-11
    path = tmp_path / "near_antipodal.csv"
    path.write_text(f"1,0,0\n{math.cos(angle)!r},{math.sin(angle)!r},0\n")
    assert cli.main(["fit", "--family", "vmf", "--estimator", "ml",
                     "--in", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kappa"] == pytest.approx(2.9999818785191259e-11, rel=1e-10, abs=0.0)
    assert report["diagnostics"]["iterations"] < 200


@pytest.mark.parametrize("row", [[0.0, 0.0, 1.0], [1.0, 2.0, 3.0]])
def test_fit_vmf_st_on_a_point_mass_exits_2(tmp_path, capsys, row):
    # every row the same point: 1 - mu'S mu is 0 up to rounding
    path = _write_rows(tmp_path / "point.csv", np.tile(row, (50, 1)))
    assert cli.main(["fit", "--family", "vmf", "--estimator", "st",
                     "--in", path]) == 2
    assert "degenerate sample" in capsys.readouterr().err


@pytest.mark.parametrize("row", [[0.0, 0.0, 1.0], [1.0, 2.0, 3.0]])
def test_fit_vmf_ml_on_a_point_mass_exits_2(tmp_path, capsys, row):
    # |Xbar| of 50 copies of (1, 2, 3)/|(1, 2, 3)| rounds to 1 - 2^-53, not
    # 1, where the ML root would be kappa ~ 1e15
    path = _write_rows(tmp_path / "point.csv", np.tile(row, (50, 1)))
    assert cli.main(["fit", "--family", "vmf", "--estimator", "ml",
                     "--in", path]) == 2
    assert "all points identical" in capsys.readouterr().err


@pytest.mark.parametrize("row", [[0.0, 0.0, 1.0], [1.0, 2.0, 3.0]])
def test_fit_vmf_sm_on_a_point_mass_exits_2(tmp_path, capsys, row):
    # every projection on mu-hat is 1 up to rounding, so the mean squared
    # projection reaches SM's 1 - 1e-15 refusal
    path = _write_rows(tmp_path / "point.csv", np.tile(row, (50, 1)))
    assert cli.main(["fit", "--family", "vmf", "--estimator", "sm",
                     "--in", path]) == 2
    assert "mean squared projection is 1" in capsys.readouterr().err


def _tight_bipolar_rows(d, noise):
    # 300 rows within about `noise` of +-e_d, each sign with probability 1/2
    rng = np.random.default_rng(6)
    sign = np.where(rng.random(300) < 0.5, -1.0, 1.0)
    return sign[:, None] * np.eye(d)[-1] + noise * rng.standard_normal((300, d))


@pytest.mark.parametrize("estimator", ["mla", "ml"])
def test_fit_watson_bipolar_likelihood_exits_0(tmp_path, capsys, estimator):
    # kappa near 2000 puts 1F1(1/2; 3/2; kappa) far beyond the float range;
    # the likelihood fits carry e^kappa as a log and stay finite
    path = _write_rows(tmp_path / "bipolar.csv", _tight_bipolar_rows(3, 0.02))
    assert cli.main(["fit", "--family", "watson", "--estimator", estimator,
                     "--in", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "ok" and report["branch"] == "+"
    assert 1000.0 < report["kappa"] < 1e4


@pytest.mark.parametrize("estimator", ["mla", "ml"])
def test_fit_watson_overflow_exits_3(tmp_path, capsys, estimator):
    # at d = 200 a tight bipolar sample puts kappa near 1e6, where
    # 1F1(199/2; 100; -kappa), the transformed 1F1 of the likelihood fits,
    # underflows; the CLI books that as one error line and exit 3
    path = _write_rows(tmp_path / "bipolar.csv", _tight_bipolar_rows(200, 1e-3))
    assert cli.main(["fit", "--family", "watson", "--estimator", estimator,
                     "--in", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: estimator failed: 1F1 out of range\n"


@pytest.mark.parametrize("n", [1, 3, 5])
def test_fit_watson_ml_fewer_rows_than_dimensions(tmp_path, capsys, n):
    # at n < d the bottom eigenvector carries none of the mass, so the
    # likelihood is unbounded: no ML estimate, booked as NE like ST and MLa
    params = _write_params(tmp_path, {"family": "watson",
                                      "mu": np.eye(10)[0].tolist(), "kappa": 5.0})
    out = str(tmp_path / "x.csv")
    cli.main(["sample", "--params", params, "--n", str(n), "--seed", "3",
              "--out", out])
    capsys.readouterr()
    start = time.perf_counter()
    assert cli.main(["fit", "--family", "watson", "--estimator", "ml",
                     "--in", out]) == 0
    assert time.perf_counter() - start < 5.0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "NE"
    assert report["detail"] == (
        "no estimate of kappa^- or kappa^+ (an axis carries none or all of "
        "the mass, so the likelihood is unbounded)")
    # ST and MLa fit the same sample from the top axis, or name their cause
    for estimator in ("st", "mla"):
        assert cli.main(["fit", "--family", "watson", "--estimator", estimator,
                         "--in", out]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "ok" or report["detail"].endswith(
            "(J vanishes on the axis)" if estimator == "st" else
            "(the axis carries none or all of the mass)")


def test_fit_singular_system_exit_code(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1,0,0\n")
    assert cli.main(["fit", "--family", "fb", "--in", str(path)]) == 4


def test_fit_singular_system_names_the_condition_number(tmp_path, capsys):
    # rows on one great circle; the cond in the message is np.linalg.cond(a, 1),
    # an exact 1-norm condition number, not an estimate
    path = tmp_path / "circle.csv"
    path.write_text("0.6,0.8,0\n1,0,0\n0,1,0\n-0.6,0.8,0\n0.8,-0.6,0\n")
    assert cli.main(["fit", "--family", "fb", "--in", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    match = re.fullmatch(r"error: singular system: M': 1-norm condition number (\S+) "
                         r"exceeds limit 1e\+12\n", captured.err)
    assert match and float(match[1]) > 1e12


@pytest.mark.parametrize("command", ["sample", "fit", "simulate"])
def test_unwritable_out_exits_2(tmp_path, capsys, monkeypatch, command):
    # one error line and exit 2, where each used to end in a traceback;
    # simulate checks the path before it runs the study
    sample = str(tmp_path / "x.csv")
    cli.main(["sample", "--params", _vmf_params(tmp_path), "--n", "20",
              "--out", sample])
    capsys.readouterr()
    out = str(tmp_path / "missing" / "o.csv")
    argv = {"sample": ["sample", "--params", _vmf_params(tmp_path), "--n", "5"],
            "fit": ["fit", "--family", "vmf", "--in", sample],
            "simulate": ["simulate", "--config",
                         str(CONFIG_DIR / "table2_d3_k1.json"), "--reps", "5"]}
    monkeypatch.setattr(cli.harness, "run_simulation", None)  # not reached
    assert cli.main(argv[command] + ["--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out}: No such file or directory\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_simulate_out_full_after_the_study_exits_2(capsys):
    # the check before the study opens /dev/full; the CSV written after it
    # fails, with one line and no traceback
    code = cli.main(["simulate", "--config", str(CONFIG_DIR / "table3_d3_k10.json"),
                     "--reps", "30", "--out", "/dev/full"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: cannot write /dev/full: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_simulate_csv_write_failure_removes_the_file(tmp_path, capsys, monkeypatch):
    # a CSV the check before the study created goes, as after a failed
    # study: the final write ("w") is sent to /dev/full, a full disk
    def open_full(path, mode="r", **kwargs):
        return open("/dev/full" if mode == "w" else path, mode, **kwargs)

    monkeypatch.setattr(cli, "open", open_full, raising=False)
    out = tmp_path / "result.csv"
    assert cli.main(["simulate", "--config", str(CONFIG_DIR / "table2_d3_k1.json"),
                     "--reps", "5", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out}: {os.strerror(errno.ENOSPC)}\n"
    assert not out.exists()


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


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
def test_every_bundled_config_simulates(tmp_path, capsys, config):
    # one CSV row per estimator and error block, every number in it finite
    raw = json.loads((CONFIG_DIR / config).read_text())
    out = tmp_path / "result.csv"
    assert cli.main(["simulate", "--config", str(CONFIG_DIR / config),
                     "--reps", "30", "--out", str(out)]) == 0
    capsys.readouterr()
    _, *rows = [line.split(",") for line in out.read_text().splitlines()]
    family = raw["params"]["family"]
    estimators = raw.get("estimators") or families.FAMILIES[family].defaults
    assert sorted((row[5], row[6]) for row in rows) == sorted(
        (est, block) for est in estimators for block in families.FAMILIES[family].blocks)
    for row in rows:
        assert row[:5] == [raw.get("label", ""), family, str(raw["n"]), "30",
                           str(raw.get("seed", 0))]
        assert all(math.isfinite(float(cell)) for cell in row[7:] if cell)


def test_simulate_reps_one_warns(tmp_path, capsys, caplog):
    # through the spherestein logger, not on stdout
    code = cli.main(["simulate", "--config",
                     str(CONFIG_DIR / "table2_d3_k1.json"), "--reps", "1"])
    assert code == 0
    assert "warning" not in capsys.readouterr().out
    assert [(r.name, r.levelname) for r in caplog.records] == [("spherestein", "WARNING")]
    assert "low replication count (1)" in caplog.text


def test_simulate_warning_reaches_stderr():
    # with no logging set up, the logger's warning reaches stderr in a fresh
    # process (in-process, pytest's own log handlers take it)
    run = _run_cli(["simulate", "--config", str(CONFIG_DIR / "table2_d3_k1.json"),
                    "--reps", "10"], capture_output=True, text=True)
    assert run.returncode == 0
    *table, last = run.stdout.splitlines()
    assert table[1].startswith("estimator") and len(table) == 2 + 3
    assert json.loads(last) == {"seed": 3, "reps": 10}
    assert run.stderr == ("warning: low replication count (10); "
                          "standard errors are unreliable\n")


def test_simulate_invalid_family(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({
        "params": {"family": "beta", "mu": [1, 0]}, "n": 10,
    }))
    assert cli.main(["simulate", "--config", str(config)]) == 2


def test_simulate_rejects_empty_sample(tmp_path, capsys):
    config = tmp_path / "n0.json"
    config.write_text(json.dumps({
        "params": {"family": "vmf", "mu": [0, 0, 1], "kappa": 2.0},
        "n": 0, "reps": 5,
    }))
    assert cli.main(["simulate", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err == "error: invalid config: n must be >= 1, got 0\n"


def test_simulate_rejects_more_replications_than_streams(capsys):
    # a replication's stream is its index, below 2**32
    config = str(CONFIG_DIR / "table2_d3_k1.json")
    assert cli.main(["simulate", "--config", config, "--reps", "4294967297"]) == 2
    assert capsys.readouterr().err == (
        "error: invalid config: reps must be <= 2**32, got 4294967297\n")


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_simulate_rejects_threads_below_one(capsys, threads):
    config = str(CONFIG_DIR / "table2_d3_k1.json")
    assert cli.main(["simulate", "--config", config, "--reps", "5",
                     "--threads", threads]) == 2
    assert capsys.readouterr().err == (
        f"error: invalid config: threads must be >= 1, got {threads}\n")


@pytest.mark.parametrize("key", ["rep", "threads"])
def test_simulate_rejects_unknown_config_key(tmp_path, capsys, key):
    config = tmp_path / "typo.json"
    config.write_text(json.dumps({
        "params": {"family": "vmf", "mu": [0, 0, 1], "kappa": 2.0},
        "n": 10, key: 5,
    }))
    assert cli.main(["simulate", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        f"error: invalid config: unknown config key '{key}'\n")


def test_simulate_rejects_non_object_config(tmp_path, capsys):
    config = tmp_path / "list.json"
    config.write_text(json.dumps(["params", "n"]))
    assert cli.main(["simulate", "--config", str(config)]) == 2
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("estimators", [[1], ["st", None]])
def test_simulate_rejects_non_string_estimator(tmp_path, capsys, estimators):
    config = tmp_path / "est.json"
    config.write_text(json.dumps({
        "params": {"family": "vmf", "mu": [0, 0, 1], "kappa": 2.0},
        "n": 10, "reps": 5, "estimators": estimators,
    }))
    assert cli.main(["simulate", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        "error: invalid config: estimator names must be strings\n")


@pytest.mark.parametrize("estimators,message", [
    ("st", "estimators must be a list of estimator names"),
    (["st", "st", "ST"], "estimator 'st' listed more than once"),
])
def test_simulate_rejects_estimators_not_a_list_of_distinct_names(
        tmp_path, capsys, estimators, message):
    # "st" used to be read as the estimators 's' and 't', and a repeated
    # estimator was fitted once per listing into one CSV row
    config = tmp_path / "est.json"
    config.write_text(json.dumps({
        "params": {"family": "vmf", "mu": [0, 0, 1], "kappa": 2.0},
        "n": 10, "reps": 5, "estimators": estimators,
    }))
    assert cli.main(["simulate", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: invalid config: {message}\n"


def test_simulate_rejects_config_without_params(tmp_path, capsys):
    config = tmp_path / "no_params.json"
    config.write_text(json.dumps({"n": 10, "reps": 5}))
    assert cli.main(["simulate", "--config", str(config)]) == 2
    assert capsys.readouterr().err == "error: invalid config: a config needs 'params'\n"


def test_simulate_rejects_config_without_n(tmp_path, capsys):
    # used to print SimConfig's missing-argument TypeError
    config = _write_params(tmp_path, {
        "params": {"family": "vmf", "mu": [0, 0, 1], "kappa": 2.0}, "reps": 5})
    assert cli.main(["simulate", "--config", config]) == 2
    assert capsys.readouterr().err == "error: invalid config: a config needs 'n'\n"


@pytest.mark.parametrize("label", [7, None, "a,b", "a\nb", "a\rb"])
def test_simulate_rejects_label_that_breaks_the_csv(tmp_path, capsys, label):
    # a number used to fail in to_csv after the study, leaving an empty
    # --out file; a comma used to write rows with one field too many
    config = _write_params(tmp_path, {
        "params": {"family": "vmf", "mu": [0, 0, 1], "kappa": 2.0},
        "n": 10, "reps": 5, "label": label})
    out = tmp_path / "study.csv"
    assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: invalid config: label must be a string without ',' or line breaks\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["sample", "simulate"])
def test_unknown_parameter_key_exits_2(tmp_path, capsys, command):
    params = {"family": "vmf", "mu": [0, 0, 1], "kappa": 2, "kapa": 5}
    if command == "sample":
        argv = ["sample", "--params", _write_params(tmp_path, params), "--n", "5",
                "--out", str(tmp_path / "draws.csv")]
        prefix = "invalid parameter file"
    else:
        config = _write_params(tmp_path, {"params": params, "n": 10, "reps": 5})
        argv = ["simulate", "--config", config]
        prefix = "invalid config"
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {prefix}: unknown vmf parameter key 'kapa'\n")


@pytest.mark.parametrize("key,value", [("n", 2.7), ("n", "100"), ("reps", 5.0),
                                       ("seed", "7"), ("seed", True), ("n", None)])
def test_simulate_rejects_non_integer_config_numbers(tmp_path, capsys, key, value):
    # "n": 2.7 used to run a study at n = 2; n, reps and seed must be
    # JSON integers, and a boolean is not one
    config = tmp_path / "cast.json"
    out = tmp_path / "result.csv"
    config.write_text(json.dumps({
        "params": {"family": "vmf", "mu": [0, 0, 1], "kappa": 2.0},
        "n": 100, "reps": 5, "seed": 7, key: value,
    }))
    assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == (
        f"error: invalid config: {key} must be an integer, got {value!r}\n")
    config.write_text(json.dumps({
        "params": {"family": "vmf", "mu": [0, 0, 1], "kappa": 2.0},
        "n": 100, "reps": 5, "seed": 7,
    }))
    assert cli.main(["simulate", "--config", str(config)]) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary == {"seed": 7, "reps": 5}


@pytest.mark.parametrize("case", ["config", "simulate", "sample"])
def test_negative_seed_exits_2(tmp_path, capsys, case):
    # one error line and exit 2, where each used to end in a numpy traceback
    out = tmp_path / "out.csv"
    config = tmp_path / "neg.json"
    config.write_text(json.dumps({
        "params": {"family": "vmf", "mu": [0, 0, 1], "kappa": 2.0},
        "n": 10, "reps": 5, "seed": -1 if case == "config" else 0,
    }))
    argv = {"config": ["simulate", "--config", str(config)],
            "simulate": ["simulate", "--config", str(config), "--seed", "-3"],
            "sample": ["sample", "--params", _vmf_params(tmp_path), "--n", "5",
                       "--seed", "-2"]}[case]
    assert cli.main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    seed = {"config": -1, "simulate": -3, "sample": -2}[case]
    prefix = "invalid argument" if case == "sample" else "invalid config"
    assert captured.out == "" and not out.exists()
    assert captured.err == f"error: {prefix}: seed must be >= 0, got {seed}\n"


@pytest.mark.parametrize("text", ["", "x1,x2,x3\n", "\n\n"])
def test_fit_rejects_csv_without_rows(tmp_path, capsys, text):
    # one error line: numpy's "no data" warning does not reach stderr
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["fit", "--family", "vmf", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot read sample: no data rows\n"


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


def test_simulate_estimator_that_never_existed_exits_3(tmp_path, capsys):
    # at n = 1, I - xx' is singular in every replication, so vMF ST2 books
    # each one NE and has no estimate to aggregate
    config = tmp_path / "n1.json"
    config.write_text(json.dumps({
        "params": {"family": "vmf", "mu": [0, 0, 1], "kappa": 2.0},
        "n": 1, "reps": 5, "estimators": ["st2"],
    }))
    out = tmp_path / "result.csv"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == ("error: simulation failed: estimator 'st2' never "
                            "existed in 5 reps\n")
    assert not out.exists()


def test_asympvar(capsys):
    assert cli.main(["asympvar", "--d", "3", "--kappa", "1.0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["P"] == pytest.approx(3.8159533598900883, rel=1e-9)
    assert 1.0 / out["fisher_information"] == pytest.approx(out["inverse_fisher"])
    assert out["P"] >= out["inverse_fisher"]


def test_asympvar_large_kappa(capsys):
    # the Fisher information is about 1/kappa^2 here; subtracting nearly
    # equal numbers used to break the efficiency check at 1e5 and give a
    # negative information at 1e8
    assert cli.main(["asympvar", "--d", "3", "--kappa", "1e5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["fisher_information"] == pytest.approx(1e-10, rel=1e-9)
    assert cli.main(["asympvar", "--d", "3", "--kappa", "1e8"]) == 0
    assert json.loads(capsys.readouterr().out)["fisher_information"] > 0.0


def test_asympvar_d2_note(capsys):
    assert cli.main(["asympvar", "--d", "2", "--kappa", "1.0"]) == 0
    assert "note" in json.loads(capsys.readouterr().out)


def _asympvar_refusal(capsys, d, kappa):
    # the one stderr line of a refused asympvar query, after its arguments
    assert cli.main(["asympvar", "--d", d, "--kappa", kappa]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    prefix = f"error: --d {d} --kappa {float(kappa)!r}: "
    assert captured.err.startswith(prefix)
    return captured.err[len(prefix):].strip()


def test_asympvar_domain(capsys):
    assert _asympvar_refusal(capsys, "3", "0.0") == "kappa must be > 0"
    assert _asympvar_refusal(capsys, "1", "1.0") == "dimension d must be >= 2"


@pytest.mark.parametrize("kappa", ["inf", "nan"])
def test_asympvar_rejects_non_finite_kappa(capsys, kappa):
    assert _asympvar_refusal(capsys, "3", kappa) == "kappa must be finite"


def test_asympvar_near_zero_kappa(capsys):
    # R1 = kappa / 3 is still a normal float: P -> d and I -> 1/d
    assert cli.main(["asympvar", "--d", "3", "--kappa", "1e-300"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["P"] == pytest.approx(3.0, abs=1e-12)
    assert out["fisher_information"] == pytest.approx(1.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("kappa", ["1e-320", "1e300"])
def test_asympvar_out_of_numerical_range(capsys, kappa):
    cause = {"1e-320": "R1 = 3.335e-321 is not a normal float",  # subnormal
             "1e300": "P overflows"}[kappa]
    assert _asympvar_refusal(capsys, "3", kappa) == cause


# -- repeated in-process calls ---------------------------------------------

# runs each argv of sys.argv[1] (a JSON list) through cli.main in this one
# interpreter and prints a JSON list of [exit code, stdout, stderr, the
# --out file's text or null]; the --out file is removed after each call
REPEAT = """
import contextlib, io, json, os, sys
from spherestein import cli
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    path = argv[argv.index("--out") + 1] if "--out" in argv else None
    written = None
    if path and os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            written = fh.read()
        os.remove(path)
    results.append([code, out.getvalue(), err.getvalue(), written])
print(json.dumps(results))
"""


def _python(code, *args):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    run = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def _without_walltime(text):
    # simulate's table names the study's wall time, "(0.2s)", on its first line
    return re.sub(r" \(\d+\.\ds\)$", "", text, count=1, flags=re.MULTILINE)


@pytest.mark.parametrize("command", ["sample", "fit", "simulate", "asympvar"])
def test_repeated_calls_match_a_fresh_process(tmp_path, capsys, command):
    # the parser is built on a process's first call and reused by the later
    # ones: both give what a fresh `python -m spherestein.cli` gives
    out = str(tmp_path / "out")
    params = _vmf_params(tmp_path)
    draws = tmp_path / "draws.csv"
    cli.main(["sample", "--params", params, "--n", "60", "--seed", "2",
              "--out", str(draws)])
    capsys.readouterr()
    argv = {"sample": ["sample", "--params", params, "--n", "30", "--seed", "4",
                       "--header", "--out", out],
            "fit": ["fit", "--family", "vmf", "--estimator", "ml", "--in", str(draws),
                    "--out", out],
            "simulate": ["simulate", "--config", str(CONFIG_DIR / "table2_d3_k1.json"),
                         "--reps", "3", "--out", out],
            "asympvar": ["asympvar", "--d", "3", "--kappa", "2"]}[command]
    fresh = _run_cli(argv, capture_output=True, text=True)
    expected = [fresh.returncode, _without_walltime(fresh.stdout), fresh.stderr,
                Path(out).read_text() if os.path.exists(out) else None]
    assert expected[0] == 0 and (expected[3] is None) == (command == "asympvar")
    for code, stdout, stderr, written in _python(REPEAT, json.dumps([argv, argv])):
        assert [code, _without_walltime(stdout), stderr, written] == expected


def _fit_report(capsys, path, *extra):
    assert cli.main(["fit", "--family", "vmf", "--in", str(path), *extra]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("argv", [["fit", "--family", "vmf"], ["--help"],
                                  ["fit", "--help"]])
def test_parser_exit_leaves_the_next_fit_unchanged(tmp_path, capsys, argv):
    draws = tmp_path / "draws.csv"
    cli.main(["sample", "--params", _vmf_params(tmp_path), "--n", "40",
              "--out", str(draws)])
    capsys.readouterr()
    before = _fit_report(capsys, draws)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == (0 if "--help" in argv else 2)
    capsys.readouterr()
    assert _fit_report(capsys, draws) == before


def test_fit_out_does_not_carry_over_to_the_next_fit(tmp_path, capsys):
    draws, report = tmp_path / "draws.csv", tmp_path / "report.json"
    cli.main(["sample", "--params", _vmf_params(tmp_path), "--n", "40",
              "--out", str(draws)])
    capsys.readouterr()
    printed = _fit_report(capsys, draws, "--out", str(report))
    assert report.read_text() == printed
    report.unlink()
    assert _fit_report(capsys, draws) == printed
    assert not report.exists()


def test_simulate_overrides_do_not_carry_over(tmp_path, capsys):
    config = tmp_path / "study.json"
    config.write_text(json.dumps({
        "params": {"family": "vmf", "mu": [0, 0, 1], "kappa": 2.0},
        "n": 20, "reps": 4, "seed": 9, "estimators": ["st"]}))
    for extra, stated in ((["--reps", "3", "--seed", "5"], {"seed": 5, "reps": 3}),
                          ([], {"seed": 9, "reps": 4})):
        assert cli.main(["simulate", "--config", str(config), *extra]) == 0
        assert json.loads(capsys.readouterr().out.splitlines()[-1]) == stated


# counts the top-level parsers built: after the import and after each of two
# calls; prints them as a JSON list
COUNT_PARSERS = """
import argparse, json
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    init(self, *args, **kwargs)
    built.append(self.prog)
argparse.ArgumentParser.__init__ = counting
from spherestein import cli
counts = [built.count("spherestein")]
for _ in range(2):
    cli.main(["asympvar", "--d", "3", "--kappa", "2"])
    counts.append(built.count("spherestein"))
print(json.dumps(counts))
"""


def test_parser_is_built_once_on_the_first_call():
    assert _python(COUNT_PARSERS) == [0, 1, 1]
