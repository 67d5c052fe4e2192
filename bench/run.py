"""spherestein benchmark: one workload per run, metrics as JSON on the last line.

    python3 bench/run.py --workload sim_vmf --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` repeats the same operations untraced and then traced, checks
that both give the same bytes, and reports the per-layer metrics; the
spans go to ``bench/out/trace-<workload>.json``.  Every run writes a result
file under ``bench/out/`` that also records the machine and the versions.
See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import os

# one single-threaded process: pin BLAS before numpy is imported; the set-up
# probes inherit this environment
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from workloads import OUT  # noqa: E402

# a timed fit_csv run makes at least this many calls, so the 95th
# percentile has at least ten samples beyond it
FIT_MIN_CALLS = 220
SETUP_PROBES = 7
# passes over the operations that the traced run makes, untraced and traced
TRACE_PASSES = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs and a single pass over the "
                        "operations, for the self-test")
    p.add_argument("--reference", type=Path, default=checks.REFERENCE,
                   help="recorded digests and fit references")
    p.add_argument("--record", action="store_true",
                   help="rewrite this workload's reference entries (default "
                        "seed only); a deliberate act, see bench/README.md")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.record and args.seed != workloads.DEFAULT_SEED:
        p.error("references are recorded at the default seed only")
    return args


# -- set-up ------------------------------------------------------------------

def setup_probe(args) -> None:
    """Body of one fresh interpreter: import, build, one warm-up call."""
    workloads.import_library()
    wl = workloads.build(args.workload, args.seed, args.tiny)
    wl.warmup.run()
    print("ready", flush=True)


def _time_to_ready(cmd: list[str]) -> float:
    """Seconds from starting ``cmd`` until it prints its ready line."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise SystemExit(f"error: set-up probe {cmd[1:3]} failed (exit {code})")
    return elapsed


def measure_setup(args, probes: int) -> tuple[list[float], list[float]]:
    """Wall seconds from starting a fresh interpreter to its first ready
    result, and the same scaled by a reference interpreter started just
    before it (see calibration.py).
    """
    probe = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        probe.append("--tiny")
    reference = [sys.executable, "-c",
                 f"{calibration.REFERENCE_IMPORT}; print('ready', flush=True)"]
    walls, scaled = [], []
    for _ in range(probes):
        ref = _time_to_ready(reference)
        walls.append(_time_to_ready(probe))
        scaled.append(walls[-1] * calibration.REFERENCE_NOMINAL_S / ref)
    return walls, scaled


# -- timed loop --------------------------------------------------------------

@dataclass
class Calls:
    walls: list[float] = field(default_factory=list)
    kernels: list[float] = field(default_factory=list)
    outputs: list[str | None] = field(default_factory=list)
    errors: list[str | None] = field(default_factory=list)
    units: list[int] = field(default_factory=list)


def run_ops(wl, seconds: float, min_calls: int, tracer=None) -> Calls:
    """Cycle through the workload's operations in whole passes, timing the
    calibration kernel before each call.

    Stops at the end of the first pass by which ``seconds`` have passed and
    at least ``min_calls`` calls were made, so every group is called equally
    often.  A call that raises is recorded with its error, not fatal.
    """
    ops = wl.ops
    calls = Calls()
    root = f"bench.{wl.name}"
    start = time.perf_counter()
    i = 0
    while not (i % wl.per_pass == 0 and i >= max(1, min_calls)
               and time.perf_counter() - start >= seconds):
        op = ops[i % len(ops)]
        calls.kernels.append(calibration.kernel())
        t0 = time.perf_counter()
        try:
            if tracer is None:
                output, units = op.run()
            else:
                with tracer.root(root):
                    output, units = op.run()
            error = None
        except Exception as exc:  # booked as a failed operation, not fatal
            output, units, error = None, 0, f"{type(exc).__name__}: {exc}"
        calls.walls.append(time.perf_counter() - t0)
        calls.outputs.append(output)
        calls.errors.append(error)
        calls.units.append(units)
        i += 1
    return calls


def check_calls(wl, checker, calls: Calls) -> list[bool]:
    """Per call: True if it raised or failed its output check."""
    return [not checker.check(wl.ops[i % len(wl.ops)].key, out, err)
            for i, (out, err) in enumerate(zip(calls.outputs, calls.errors))]


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def per_group(wl, times: list[float], units: list[int]) -> tuple[float, float]:
    """Work units per second and call time, from the median call time within
    every group, combined over the groups by a geometric mean.

    Reducing within a group first keeps the figures independent of how
    far the slow and the fast groups lie apart: a change that speeds one
    group by a factor moves both figures in proportion.  A group's calls
    all do the same work (a call that raised reports none), and its median
    time is steadier than its total.
    """
    times_of: dict[str, list[float]] = {}
    work_of: dict[str, int] = {}
    for i, (t, u) in enumerate(zip(times, units)):
        group = wl.ops[i % len(wl.ops)].group
        times_of.setdefault(group, []).append(t)
        work_of[group] = max(work_of.get(group, 0), u)
    medians = {g: statistics.median(t) for g, t in times_of.items()}
    rates = [max(work_of[g], 1) / m for g, m in medians.items()]
    return (statistics.geometric_mean(rates),
            statistics.geometric_mean(medians.values()))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_run(args, wl, checker, summary) -> tuple[dict, list[bool]]:
    """End-to-end metrics with tracing off."""
    rss_after_setup = peak_rss_mb()
    walls, scaled_setup = measure_setup(args, 1 if args.tiny else SETUP_PROBES)
    wl.warmup.run()  # lazy imports and caches settle before timing
    failed = []
    if wl.full_size is not None:  # untimed, for the peak RSS
        output, _ = wl.full_size.run()
        failed.append(not checker.check(wl.full_size.key, output))
    fit = wl.kind == "fit"
    calls = run_ops(wl, args.seconds, FIT_MIN_CALLS if fit and not args.tiny else 0)
    failed += check_calls(wl, checker, calls)
    scaled = calibration.scale(calls.walls, calls.kernels)
    ops_per_s, call_p50 = per_group(wl, scaled, calls.units)
    raw_ops_per_s, raw_p50 = per_group(wl, calls.walls, calls.units)
    peak = peak_rss_mb()
    metrics = {
        "setup_s": (statistics.median(scaled_setup), "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "call_p50_ms": (call_p50 * 1e3, "ms"),
        "peak_rss_mb": (peak, "MB"),
    }
    summary.update({
        "calls": len(calls.walls),
        "passes": len(calls.walls) // wl.per_pass,
        "work_units": sum(calls.units),
        "kernel_median_ms": statistics.median(calls.kernels) * 1e3,
        "rss_after_setup_mb": rss_after_setup,
        "rss_increase_mb": peak - rss_after_setup,
        "setup_wall_s": walls,
        "raw": {
            "setup_s": statistics.median(walls),
            "ops_per_s": raw_ops_per_s,
            "call_p50_ms": raw_p50 * 1e3,
        },
    })
    if fit:
        # printed, not a BENCHMARK.json metric: bursts of contention on a
        # shared machine move the tail by up to 2x between runs
        p95 = percentile(scaled, 0.95)
        summary["fit_p95_ms"] = p95 * 1e3
        summary["samples_beyond_p95"] = sum(x > p95 for x in scaled)
        summary["raw"]["fit_p95_ms"] = percentile(calls.walls, 0.95) * 1e3
    return metrics, failed


def traced_run(args, wl, checker, summary) -> tuple[dict, list[bool]]:
    """Per-layer metrics: the same calls untraced, then traced."""
    from tracer import Tracer, layer_metrics

    wl.warmup.run()  # as in the timed run
    # fixed work, so the per-layer counts repeat exactly at a given seed
    passes = 1 if args.tiny else TRACE_PASSES
    untraced = run_ops(wl, 0, passes * wl.per_pass)
    failed = check_calls(wl, checker, untraced)

    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        traced = run_ops(wl, 0, len(untraced.walls), tracer=tracer)
    finally:
        tracer.uninstall()
    # the wrappers must not change the program: checked against the same
    # first outputs, so traced bytes must equal the untraced ones
    failed = [a or b for a, b in zip(failed, check_calls(wl, checker, traced))]
    tracer.write(OUT / f"trace-{args.workload}.json", t0)
    # overhead from speed-scaled times, so machine drift between the two
    # passes does not read as tracing cost
    traced_s = sum(calibration.scale(traced.walls, traced.kernels))
    untraced_s = sum(calibration.scale(untraced.walls, untraced.kernels))
    summary.update({
        "calls": len(traced.walls),
        "work_units": sum(traced.units),
        "untraced_wall_s": sum(untraced.walls),
        "traced_wall_s": sum(traced.walls),
        "spans": len(tracer.start),
    })
    metrics = layer_metrics(tracer, traced_s, untraced_s)
    # the divisor of every scaled time; a comparison of two commits can
    # check that the library did not move it
    metrics["calibration.kernel_ms"] = (
        statistics.median(untraced.kernels + traced.kernels) * 1e3, "ms")
    return metrics, failed


# -- environment record -------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without starting git."""
    git = workloads.REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": None}
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


# -- main ---------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0

    workloads.import_library()
    if args.workload == "fit_csv":
        workloads.generate_fit_inputs(args.seed, args.tiny)  # untimed set-up
    wl = workloads.build(args.workload, args.seed, args.tiny)
    size = "tiny" if args.tiny else "full"

    if args.record:
        reference = (checks.load_reference(args.reference)
                     if args.reference.is_file() else {})
        recorded = wl.ops if wl.full_size is None else [*wl.ops, wl.full_size]
        outputs = {op.key: op.run()[0] for op in recorded}
        reference.setdefault(size, {})[args.workload] = checks.record(wl.kind, outputs)
        args.reference.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(outputs)} {size} references for {args.workload} "
              f"in {args.reference}")
        return 0

    ref = (checks.load_reference(args.reference)[size][args.workload]
           if args.seed == workloads.DEFAULT_SEED else None)
    checker = checks.Checker(wl.kind, ref)
    summary = {"workload": args.workload, "operations": wl.description}
    run = traced_run if args.trace else timed_run
    metrics, failed_ops = run(args, wl, checker, summary)

    failed = sum(failed_ops)
    attempted = len(failed_ops)
    summary["failed_frac"] = failed / attempted
    summary["failures"] = checker.failures[:20]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    OUT.mkdir(parents=True, exist_ok=True)
    record_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(
        {**result, "summary": summary, "environment": environment(),
         "args": {"seconds": args.seconds, "tiny": args.tiny}}, indent=1) + "\n")

    print_summary(args, wl, summary, metrics)
    print(json.dumps(result))
    return 0


def print_summary(args, wl, summary, metrics) -> None:
    """Human-readable lines before the result; times scaled to the nominal
    machine speed, with the raw wall-clock value in brackets."""
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {wl.description}")
    raw = summary.get("raw", {})
    if not args.trace:
        # the workload-specific names of the generic metrics
        if wl.kind == "sim":
            print(f"reps_per_s = {metrics['ops_per_s'][0]:.6g} 1/s "
                  f"[raw {raw['ops_per_s']:.6g}] ({summary['work_units']} "
                  f"replications in {summary['calls']} studies)")
        else:
            print(f"fit_p50_ms = {metrics['call_p50_ms'][0]:.6g} ms "
                  f"[raw {raw['call_p50_ms']:.6g}]")
            print(f"fit_p95_ms = {summary['fit_p95_ms']:.6g} ms "
                  f"[raw {raw['fit_p95_ms']:.6g}] ({summary['calls']} calls, "
                  f"{summary['samples_beyond_p95']} beyond p95)")
        print(f"rss_increase_mb = {summary['rss_increase_mb']:.6g} MB "
              f"(above {summary['rss_after_setup_mb']:.6g} MB after import "
              f"and build)")
    for name, (value, unit) in metrics.items():
        extra = f" [raw {raw[name]:.6g}]" if name in raw else ""
        print(f"{name} = {value:.6g} {unit}{extra}")
    print(f"failed_frac = {summary['failed_frac']:.6g} ratio")
    for failure in summary["failures"]:
        print(f"failure: {failure}")


if __name__ == "__main__":
    sys.exit(main())
