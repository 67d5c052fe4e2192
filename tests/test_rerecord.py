"""tools/rerecord.py on synthetic files in a temp directory, never under bench/."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("rerecord", ROOT / "tools" / "rerecord.py")
rerecord = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rerecord)

OLD = {"full": {"sim_vmf": {"table2_d10_k10": {"r0": "aa", "r1": "bb"}},
                "fit_csv": {"vmf_d3": {"st": {"kappa": 6.5, "mu": [0.5, 0.5],
                                              "status": "ok"}}}},
       "tiny": {"sim_fb": {"fb_d10": {"r0": "cc"}}}}
DIGESTS = "table1_fig6.json seed=0 1111\ntable1_fig6.json seed=7 2222\n"


def test_report_names_every_moved_key(tmp_path):
    new = json.loads(json.dumps(OLD))
    new["full"]["sim_vmf"]["table2_d10_k10"]["r1"] = "bd"
    new["full"]["fit_csv"]["vmf_d3"]["st"]["mu"] = [0.5, 0.25]
    del new["tiny"]["sim_fb"]["fb_d10"]["r0"]
    new["tiny"]["sim_fb"]["fb_d10"]["r9"] = "dd"
    files = {"old.json": json.dumps(OLD), "new.json": json.dumps(new),
             "old.txt": DIGESTS, "new.txt": DIGESTS.replace("2222", "2223")}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    lines = rerecord.report(*((tmp_path / name).read_text() for name in files))
    assert lines == [
        'bench/reference.json full/fit_csv/vmf_d3/st/mu: [0.5, 0.5] -> [0.5, 0.25]',
        'bench/reference.json full/sim_vmf/table2_d10_k10/r1: "bb" -> "bd"',
        'bench/reference.json tiny/sim_fb/fb_d10/r0: "cc" -> -',
        'bench/reference.json tiny/sim_fb/fb_d10/r9: - -> "dd"',
        'tools/csv_digests.txt table1_fig6.json seed=7: "2222" -> "2223"',
    ]
    assert rerecord.report(json.dumps(OLD), json.dumps(OLD), DIGESTS, DIGESTS) == []


# a stand-in for bench/run.py: --record moves sim_vmf's full r0 entry
FAKE_RUN = """
import json, sys
path = "bench/reference.json"
ref = json.load(open(path))
with open("calls.txt", "a") as fh:
    fh.write(" ".join(sys.argv[1:]) + "\\n")
if sys.argv[2] == "sim_vmf" and "--tiny" not in sys.argv:
    ref["full"]["sim_vmf"]["table2_d10_k10"]["r0"] = "ab"
json.dump(ref, open(path, "w"))
sys.exit(FAIL if sys.argv[2] == "fit_csv" else 0)
"""


def _tree(tmp_path, fail=0) -> Path:
    # a repository layout holding the tool, the stand-in commands and the files
    (tmp_path / "bench").mkdir()
    (tmp_path / "tools").mkdir()
    shutil.copy(ROOT / "tools" / "rerecord.py", tmp_path / "tools")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench" / "run.py").write_text(FAKE_RUN.replace("FAIL", str(fail)))
    (tmp_path / "bench" / "reference.json").write_text(json.dumps(OLD))
    (tmp_path / "tools" / "csv_digests.txt").write_text(DIGESTS)
    (tmp_path / "tools" / "csv_digests.py").write_text(
        f"print({DIGESTS.replace('1111', '1112')!r}, end='')")
    return tmp_path


def test_rerecord_runs_every_record_and_writes_both_files(tmp_path):
    tree = _tree(tmp_path)
    done = subprocess.run([sys.executable, str(tree / "tools" / "rerecord.py")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        'bench/reference.json full/sim_vmf/table2_d10_k10/r0: "aa" -> "ab"',
        'tools/csv_digests.txt table1_fig6.json seed=0: "1111" -> "1112"',
    ]
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert (tree / "calls.txt").read_text().splitlines() == [
        f"--workload {w} --record{tiny}" for w in workloads for tiny in ("", " --tiny")]
    assert (tree / "tools" / "csv_digests.txt").read_text() == DIGESTS.replace("1111", "1112")


def test_rerecord_exits_1_when_a_command_fails(tmp_path):
    tree = _tree(tmp_path, fail=3)
    done = subprocess.run([sys.executable, str(tree / "tools" / "rerecord.py")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stderr.splitlines()[-1] == (
        "error: bench/run.py --workload fit_csv --record exited 3")
    assert (tree / "tools" / "csv_digests.txt").read_text() == DIGESTS
