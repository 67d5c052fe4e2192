"""Smoke tests of tools/ab_studies.py on a tiny study, a few seconds each."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = f"{ROOT / 'configs' / 'table2_d3_k1.json'}:4"


def _ab(base, change) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_studies.py"), str(base),
         str(change), SPEC, "--pairs", "2"],
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
