"""Smoke tests of tools/ab_studies.py on a tiny study or fit, a few seconds each."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from spherestein import cli

ROOT = Path(__file__).resolve().parents[1]
SPEC = f"{ROOT / 'configs' / 'table2_d3_k1.json'}:4"


def _ab(base, change, spec=SPEC) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_studies.py"), str(base),
         str(change), spec, "--pairs", "2"],
        capture_output=True, text=True, timeout=120)


def test_ab_studies_on_one_tree():
    done = _ab(ROOT / "src", ROOT / "src")
    assert done.returncode == 0, done.stderr
    (line,) = done.stdout.splitlines()
    assert line.startswith(f"{SPEC}: base ") and line.endswith("of 2 pairs")


def test_ab_studies_exits_1_when_a_csv_differs(tmp_path):
    # a copy of the package whose CSV header names one field differently
    shutil.copytree(ROOT / "src" / "spherestein", tmp_path / "spherestein",
                    ignore=shutil.ignore_patterns("__pycache__"))
    harness = tmp_path / "spherestein" / "harness.py"
    harness.write_text(harness.read_text().replace('"mse_alt_se"', '"mse_alt_sd"'))
    done = _ab(ROOT / "src", tmp_path)
    assert done.returncode == 1
    assert done.stdout.splitlines()[-1] == f"error: {SPEC}: the CSV differs between the sides"


def _fit_spec(tmp_path, capsys) -> str:
    params, draws = tmp_path / "params.json", tmp_path / "draws.csv"
    params.write_text(json.dumps({"family": "vmf", "mu": [0, 0, 1], "kappa": 5.0}))
    cli.main(["sample", "--params", str(params), "--n", "200", "--out", str(draws)])
    capsys.readouterr()
    return f"fit:vmf:ml:{draws}"


def test_ab_studies_times_a_fit_on_one_tree(tmp_path, capsys):
    spec = _fit_spec(tmp_path, capsys)
    done = _ab(ROOT / "src", ROOT / "src", spec)
    assert done.returncode == 0, done.stderr
    (line,) = done.stdout.splitlines()
    assert line.startswith(f"{spec}: base ") and line.endswith("of 2 pairs")


def test_ab_studies_exits_1_when_a_fit_report_differs(tmp_path, capsys):
    # a copy of the package whose fit report is indented by one space, not two
    spec = _fit_spec(tmp_path, capsys)
    shutil.copytree(ROOT / "src" / "spherestein", tmp_path / "spherestein",
                    ignore=shutil.ignore_patterns("__pycache__"))
    module = tmp_path / "spherestein" / "cli.py"
    module.write_text(module.read_text().replace("json.dumps(report, indent=2)",
                                                 "json.dumps(report, indent=1)"))
    done = _ab(ROOT / "src", tmp_path, spec)
    assert done.returncode == 1
    assert done.stdout.splitlines()[-1] == f"error: {spec}: the report differs between the sides"
