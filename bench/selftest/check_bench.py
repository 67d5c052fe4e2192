"""Fast self-test of the benchmark (under a minute):

    python3 bench/selftest/check_bench.py

* every workload runs at tiny size, untraced and traced, and must emit
  exactly the metrics BENCHMARK.json names, each with its unit, and pass
  its output checks;
* a deliberately corrupted simulate digest and a corrupted fit reference
  must each be counted as failed operations;
* in a directory holding only BENCHMARK.json and the benchmark's files,
  the benchmark must exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
REPO = BENCH.parent
RUN = BENCH / "run.py"
SCRATCH = BENCH / "out" / "selftest"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(*args: str, cwd: Path = REPO, run_py: Path = RUN):
    proc = subprocess.run([sys.executable, str(run_py), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def check_metrics(result: dict, spec: list[dict], where: str) -> None:
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in spec}, f"{where}: {sorted(metrics)}"
    for m in spec:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{where}: {m['name']}"


def test_workloads(bench: dict) -> None:
    for w in bench["workloads"]:
        for trace, spec in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            where = f"{w['name']} trace={trace}"
            result = result_of(run("--workload", w["name"], "--seed", "0",
                                   "--seconds", "0", "--trace", trace, "--tiny"))
            assert result["correct"] and result["failed"] == 0, (where, result)
            check_metrics(result, spec, where)
            print(f"ok   {where}: {result['attempted']} calls")


def _corrupt(reference: dict, workload: str) -> tuple[dict, str]:
    entries = reference["tiny"][workload]
    # a call of the timed loop, not the untimed full-size study
    key = min(entries, key=lambda k: (k.endswith("/full"), k))
    if isinstance(entries[key], str):
        entries[key] = "0" * 64
    else:
        entries[key]["mu"][0] += 1e-3
    return reference, key


def test_corrupted_reference() -> None:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    for workload in ("sim_vmf", "fit_csv"):
        reference = json.loads((BENCH / "reference.json").read_text())
        reference, key = _corrupt(reference, workload)
        path = SCRATCH / f"corrupt-{workload}.json"
        path.write_text(json.dumps(reference))
        proc = run("--workload", workload, "--seed", "0", "--seconds", "0",
                   "--trace", "0", "--tiny", "--reference", str(path))
        result = result_of(proc)
        assert not result["correct"], result
        assert result["failed"] >= 1, result
        assert f"failure: {key}:" in proc.stdout, proc.stdout
        print(f"ok   corrupted {workload} reference {key}: "
              f"{result['failed']}/{result['attempted']} failed")


def test_bare_directory() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(REPO / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns(
        "out", "__pycache__"))
    proc = run("--workload", "sim_vmf", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=bare, run_py=bare / BENCH.name / "run.py")
    shutil.rmtree(bare)
    assert proc.returncode != 0, proc.stdout
    assert '"metrics"' not in proc.stdout, proc.stdout
    print(f"ok   bare directory: exit {proc.returncode}")


def main() -> int:
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    test_workloads(bench)
    test_corrupted_reference()
    test_bare_directory()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
