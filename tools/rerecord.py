"""Re-record the benchmark references and the CSV digests, and print what moved.

    python3 tools/rerecord.py

For each workload that ``BENCHMARK.json`` lists it runs ``bench/run.py
--workload W --record`` and ``--tiny --record``, which rewrite that
workload's entries of ``bench/reference.json``, then runs
``tools/csv_digests.py`` and writes its 24 lines to
``tools/csv_digests.txt``.  It prints one line per key whose value moved,

    bench/reference.json full/sim_vmf/table2_d10_k10/r0: "f018..." -> "9a2c..."
    tools/csv_digests.txt table1_fig6.json seed=0: "8b1e..." -> "03d7..."

with ``-`` for a key on one side only, and ``nothing moved`` when both
files kept every value.  A change that moves bytes runs it, commits both
files, and names the printed keys in CHANGES.md.  The paths are found
beside this script, so it runs from any directory.  It exits 1 if a
command fails, leaving whatever that command wrote.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "bench" / "reference.json"
DIGESTS = ROOT / "tools" / "csv_digests.txt"


def leaves(tree, prefix: str = "") -> dict:
    """{"a/b/c": value} of every leaf of nested dicts; a list is a leaf."""
    if not isinstance(tree, dict):
        return {prefix: tree}
    flat = {}
    for key, value in tree.items():
        flat.update(leaves(value, f"{prefix}/{key}" if prefix else key))
    return flat


def digests(text: str) -> dict:
    """{"<config> seed=<seed>": sha256} of csv_digests.py's lines."""
    return dict(line.rsplit(" ", 1) for line in text.splitlines() if line.strip())


def moved(name: str, old: dict, new: dict) -> list[str]:
    """The lines "NAME KEY: OLD -> NEW", in key order, of every key of two
    flat dicts whose JSON text differs; "-" stands for a missing side."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        was, now = (json.dumps(side[key]) if key in side else "-" for side in (old, new))
        if was != now:
            lines.append(f"{name} {key}: {was} -> {now}")
    return lines


def report(old_reference: str, new_reference: str, old_digests: str,
           new_digests: str) -> list[str]:
    """The moved-key lines of both files, from their old and new texts."""
    return (moved("bench/reference.json", leaves(json.loads(old_reference)),
                  leaves(json.loads(new_reference)))
            + moved("tools/csv_digests.txt", digests(old_digests),
                    digests(new_digests)))


def _run(argv: list[str], **kwargs) -> subprocess.CompletedProcess:
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, **kwargs)
    if done.returncode:
        sys.exit(f"error: {' '.join(argv)} exited {done.returncode}")
    return done


def main() -> None:
    old_reference = REFERENCE.read_text(encoding="utf-8")
    old_digests = DIGESTS.read_text(encoding="utf-8")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        for size in ([], ["--tiny"]):
            _run(["bench/run.py", "--workload", workload, "--record", *size],
                 stdout=subprocess.DEVNULL)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    new_digests = _run(["tools/csv_digests.py"], env=env, stdout=subprocess.PIPE,
                       text=True).stdout
    DIGESTS.write_text(new_digests, encoding="utf-8")
    lines = report(old_reference, REFERENCE.read_text(encoding="utf-8"),
                   old_digests, new_digests)
    print("\n".join(lines) if lines else "nothing moved")


if __name__ == "__main__":
    main()
