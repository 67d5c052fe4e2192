"""Print the SHA-256 of every bundled config's simulation CSV at two seeds.

For each ``configs/*.json`` at seeds 0 and 7 (full replication counts,
two threads, which give the bytes of any thread count) one line:

    <config> seed=<seed> <sha256 of harness.run_simulation(config).to_csv()>

A change that claims to keep the CSV bytes prints the same 24 lines as its
parent.  Run from the repository root, with the package importable:

    PYTHONPATH=src python3 tools/csv_digests.py
"""

import hashlib
import json
import pathlib

from spherestein import harness
from spherestein.models import params_from_dict

SEEDS = (0, 7)
THREADS = 2


def main() -> None:
    for path in sorted(pathlib.Path("configs").glob("*.json")):
        raw = json.loads(path.read_text(encoding="utf-8-sig"))
        for seed in SEEDS:
            config = harness.SimConfig(**{**raw, "params": params_from_dict(raw["params"]),
                                          "seed": seed, "threads": THREADS})
            csv = harness.run_simulation(config).to_csv()
            print(f"{path.name} seed={seed} {hashlib.sha256(csv.encode()).hexdigest()}")


if __name__ == "__main__":
    main()
