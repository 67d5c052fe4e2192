"""Print the SHA-256 of every bundled config's simulation CSV at two seeds.

For each ``configs/*.json``, read as ``simulate`` reads it
(``harness.config_from_dict``), at seeds 0 and 7 (full replication counts,
two threads, which give the bytes of any thread count) one line:

    <config> seed=<seed> <sha256 of harness.run_simulation(config).to_csv()>

A change that claims to keep the CSV bytes prints the same 24 lines as its
parent, which ``tools/csv_digests.txt`` records; CI diffs the output against
that file, and a change that moves a byte re-records it.  The configs are
found beside this script, so it runs from any directory; from the
repository root, with the package importable:

    PYTHONPATH=src python3 tools/csv_digests.py | diff tools/csv_digests.txt -
    PYTHONPATH=src python3 tools/csv_digests.py > tools/csv_digests.txt  # re-record
"""

import hashlib
import json
import os
import pathlib
import sys

from spherestein import harness

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
SEEDS = (0, 7)
THREADS = 2


def main() -> None:
    paths = sorted(CONFIGS.glob("*.json"))
    if not paths:
        sys.exit(f"error: no config files in {CONFIGS}")
    for path in paths:
        raw = json.loads(path.read_text(encoding="utf-8-sig"))
        for seed in SEEDS:
            config = harness.config_from_dict(raw, seed=seed, threads=THREADS)
            csv = harness.run_simulation(config).to_csv()
            print(f"{path.name} seed={seed} {hashlib.sha256(csv.encode()).hexdigest()}")


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`| head`); point stdout at devnull
        # so the flush at exit does not raise again, and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
