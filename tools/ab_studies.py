"""Time the same simulation studies under two source trees, alternating.

    python3 tools/ab_studies.py BASE_SRC CHANGE_SRC CONFIG:REPS [...] [--pairs 10]

BASE_SRC and CHANGE_SRC are directories that hold a ``spherestein``
package (a checkout's ``src``).  Each CONFIG is a study file such as
``configs/table1_fig6.json``, run with REPS replications at its own seed
in one thread; the child script reads each config with
``harness.config_from_dict``, as ``simulate`` does.  A pair runs each side
once, in a fresh interpreter with BLAS pinned to one thread, and the side
that runs first alternates from pair to pair.
Within an interpreter each config's study runs STUDIES times after one
untimed warm-up, and the side's time for that pair is the median of those
runs.

Per config it prints the median over the pairs of each side's time, their
ratio (change / base) and the number of pairs in which the change was the
faster.  It exits 1 if a study's CSV differs between the two sides.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

STUDIES = 5  # timed runs of each study per side and pair

# run in each side's interpreter: argv is src, studies, then CONFIG:REPS
# specs; prints one JSON object {spec: [median seconds, CSV sha256]}
CHILD = """
import hashlib, json, os, statistics, sys, time
src = os.path.abspath(sys.argv[1])
sys.path.insert(0, src)
from spherestein import harness
if not harness.__file__.startswith(src + os.sep):
    sys.exit(f"error: spherestein imported from {harness.__file__}, not {src}")

out = {}
for spec in sys.argv[3:]:
    path, reps = spec.rsplit(":", 1)
    with open(path, encoding="utf-8-sig") as fh:
        raw = json.load(fh)
    config = harness.config_from_dict(raw, reps=int(reps), threads=1)
    csv = harness.run_simulation(config).to_csv()
    times = []
    for _ in range(int(sys.argv[2])):
        start = time.perf_counter()
        harness.run_simulation(config)
        times.append(time.perf_counter() - start)
    out[spec] = [statistics.median(times), hashlib.sha256(csv.encode()).hexdigest()]
print(json.dumps(out))
"""

ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS")}


def run_side(src: str, specs: list[str]) -> dict:
    env = {**os.environ, **ONE_THREAD}
    done = subprocess.run([sys.executable, "-c", CHILD, src, str(STUDIES), *specs],
                          env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode:
        sys.exit(f"error: the studies under {src} failed")
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("specs", nargs="+", metavar="CONFIG:REPS")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    sides = {"base": args.base, "change": args.change}
    runs = {"base": [], "change": []}
    for pair in range(args.pairs):
        for side in sorted(sides, reverse=pair % 2 == 1):
            runs[side].append(run_side(sides[side], args.specs))

    differ = False
    for spec in args.specs:
        base = [run[spec][0] for run in runs["base"]]
        change = [run[spec][0] for run in runs["change"]]
        wins = sum(c < b for b, c in zip(base, change))
        mid_b, mid_c = statistics.median(base), statistics.median(change)
        print(f"{spec}: base {1e3 * mid_b:.3f} ms, change {1e3 * mid_c:.3f} ms, "
              f"ratio {mid_c / mid_b:.3f}, change faster in {wins} of {args.pairs} pairs")
        digests = {run[spec][1] for run in runs["base"] + runs["change"]}
        if len(digests) > 1:
            print(f"error: {spec}: the CSV differs between the sides")
            differ = True
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
