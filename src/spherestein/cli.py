"""Command-line interface: sample generation, fitting, simulation studies,
and asymptotic-variance queries.

Subcommands
    sample    draw from a parameter file into a CSV of unit rows
    fit       fit an estimator to a CSV of unit rows (sample --header's
              x1,...,xd line is skipped), emit a JSON report
    simulate  run a Monte Carlo study from a config file
    asympvar  asymptotic variance of the moment-type vMF estimator vs MLE

Exit codes: 0 success (including a Watson NE outcome, reported as
{"status": "NE"}), 2 invalid input or schema violation (an unknown config
key, a non-finite parameter), 3 sampler failure or an estimator failing
hard (1F1 out of range or a root finder that does not converge in fit,
any failure beyond the booked outcomes in simulate), 4 singular
estimating equations.  An --out path that cannot be opened or written
exits 2 with one "error: cannot write ..." line; simulate checks it before
the study.  A reader that closes stdout or --out /dev/stdout early
(``... | head -1``) ends the command silently with exit 141, as a shell
reports a writer that SIGPIPE ends.  Warnings go to the spherestein logger.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import logging
import os
import sys
import warnings

import numpy as np

from . import est_vmf, est_watson, harness
from .families import ESTIMATORS, FAMILIES, SAMPLERS, fit_one
from .linalg import SingularSystem
from .models import params_from_dict


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _write(path: str, fill, mode: str = "w") -> int:
    # 0, or exit 2 with one line; a closed reader's BrokenPipeError goes to entry
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fill(fh)
    except BrokenPipeError:
        raise
    except OSError as exc:
        return _fail(f"cannot write {path}: {exc.strerror}", 2)
    return 0


def _header(d: int) -> str:  # the x1,...,xd line of sample --header
    return ",".join(f"x{i + 1}" for i in range(d))


def _load_json(path: str):
    with open(path, "r", encoding="utf-8-sig") as fh:  # a BOM is allowed
        return json.load(fh)


def cmd_sample(args) -> int:
    try:
        params = params_from_dict(_load_json(args.params))
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        return _fail(f"invalid parameter file: {exc}", 2)
    try:
        x = SAMPLERS[params.family](params, args.n, args.seed)[0]
    except ValueError as exc:
        return _fail(f"invalid argument: {exc}", 2)
    except RuntimeError as exc:
        return _fail(f"sampler failed: {exc}", 3)
    header = _header(x.shape[1]) if args.header else ""
    if code := _write(args.out, lambda fh: np.savetxt(
            fh, x, fmt=harness.FLOAT_FMT, delimiter=",", header=header, comments="")):
        return code
    print(json.dumps({"seed": args.seed, "n": args.n, "d": x.shape[1], "out": args.out}))
    return 0


def _read_sample(path: str) -> tuple[np.ndarray, list[str]]:
    with open(path, "r", encoding="utf-8-sig") as fh:  # a BOM is allowed
        first = fh.readline()
        header = first.strip() == _header(first.count(",") + 1)
        # a regular file by its path: np.loadtxt parses a path in chunks in C but
        # iterates a handle's lines in Python, which slows a large-n fit by about
        # 3%.  A pipe can be read once, and numpy opens these suffixes through a
        # decompressor, so their rows come through this handle, as UTF-8 text
        plain = os.path.isfile(path) and not path.endswith((".gz", ".bz2", ".xz", ".lzma"))
        rows = path if plain else itertools.chain([first], fh)
        with warnings.catch_warnings():  # a file without rows is reported below
            warnings.simplefilter("ignore", UserWarning)
            x = np.loadtxt(rows, delimiter=",", ndmin=2, skiprows=int(header),
                           encoding="utf-8-sig")
    if x.shape[0] < 1:
        raise ValueError("no data rows")
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        raise ValueError(f"row {int(np.argmin(finite))} has a non-finite entry")
    with np.errstate(over="ignore"):  # entries from ~1.3e154: norm inf, rejected below
        norms = np.linalg.norm(x, axis=1)
    dev = np.abs(norms - 1.0)
    if np.any(dev > 1e-3):
        first_bad = int(np.argmax(dev > 1e-3))
        raise ValueError(
            f"row {first_bad} has norm {norms[first_bad]:.6g}; rows must be "
            "unit vectors (within 1e-3 for auto-renormalization)"
        )
    renormalized = int((dev > 1e-6).sum())
    notes = [f"{renormalized} rows renormalized (norm deviation > 1e-6)"]
    return x / norms[:, None], notes if renormalized else []


def cmd_fit(args) -> int:
    family = args.family
    estimator = args.estimator.lower()  # case-blind, as in a config
    if (family, estimator) not in ESTIMATORS:
        return _fail(f"no estimator {estimator!r} for family {family!r}", 2)
    try:
        x, notes = _read_sample(args.infile)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read sample: {exc}", 2)

    report = {"family": family, "estimator": estimator,
              "n": int(x.shape[0]), "d": int(x.shape[1]), "status": "ok",
              "warnings": notes}
    try:
        fit = fit_one(family, estimator, x)
    except est_watson.NotEligible as exc:
        fit = {"status": "NE", "detail": str(exc), "warnings": []}
    except SingularSystem as exc:
        return _fail(f"singular system: {exc}", 4)
    except (est_vmf.DegenerateMean, ValueError) as exc:
        return _fail(f"estimation failed: {exc}", 2)
    except (OverflowError, RuntimeError) as exc:
        return _fail(f"estimator failed: {exc}", 3)

    report.update(fit, warnings=notes + fit["warnings"])
    text = json.dumps(report, indent=2)
    if args.out and (code := _write(args.out, lambda fh: fh.write(text + "\n"))):
        return code
    print(text)
    return 0


def cmd_simulate(args) -> int:
    try:
        config = harness.config_from_dict(_load_json(args.config), reps=args.reps,
                                          seed=args.seed, threads=args.threads)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        return _fail(f"invalid config: {exc}", 2)
    fresh = bool(args.out) and not os.path.exists(args.out)
    # before the study; "a" leaves an existing file as it is
    if args.out and (code := _write(args.out, lambda fh: None, "a")):
        return code
    try:
        result = harness.run_simulation(config)
    except RuntimeError as exc:
        code = _fail(f"simulation failed: {exc}", 3)
    else:
        code = args.out and _write(args.out, lambda fh: fh.write(result.to_csv()))
    if code:
        if fresh:  # made by the check above; a failed study or write leaves no CSV
            os.remove(args.out)
        return code
    print(result.table())
    for warning in result.warnings:
        logging.getLogger("spherestein").warning("warning: %s", warning)
    print(json.dumps({"seed": config.seed, "reps": config.reps}))
    return 0


def cmd_asympvar(args) -> int:
    try:
        p_var = est_vmf.stein_asymptotic_variance_vmf(args.d, args.kappa)
        info = est_vmf.fisher_information_vmf(args.d, args.kappa)
    except ValueError as exc:  # outside the domain, or out of numerical range
        return _fail(f"--d {args.d} --kappa {args.kappa!r}: {exc}", 2)
    out = {"P": p_var, "fisher_information": info, "inverse_fisher": 1.0 / info}
    if args.d == 2:
        out["note"] = ("at d = 2 the moment-type variance coincides with the "
                       "score-matching one")
    print(json.dumps(out, indent=2))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one in the process; parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="spherestein",
        description="Samplers and moment-type estimators for spherical "
                    "distributions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="draw a sample into a CSV file")
    p_sample.add_argument("--params", required=True, help="parameter JSON file")
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--out", required=True)
    p_sample.add_argument("--header", action="store_true")

    p_fit = sub.add_parser("fit", help="fit an estimator to a CSV sample")
    p_fit.add_argument("--family", choices=tuple(FAMILIES), required=True)
    p_fit.add_argument("--estimator", default="st", help="; ".join(
        f"{fam}: " + "|".join(code for f, code in ESTIMATORS if f == fam)
        for fam in FAMILIES))
    p_fit.add_argument("--in", dest="infile", required=True)
    p_fit.add_argument("--out", default=None)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo study")
    p_sim.add_argument("--config", required=True, help="config JSON file")
    p_sim.add_argument("--out", default=None, help="CSV output path")
    p_sim.add_argument("--reps", type=int, default=None,
                       help="override the config replication count")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--threads", type=int, default=None, help=(
        "default 1; runs min(threads, blocks, CPUs) workers, one in the calling thread "
        "(so cProfile sees it), each extra worker costing roughly 1-3 MB"))

    p_av = sub.add_parser("asympvar", help="asymptotic variances for vMF kappa")
    p_av.add_argument("--d", type=int, required=True)
    p_av.add_argument("--kappa", type=float, required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call: the parser outlives any rebinding of a cmd_* name
    command = {"sample": cmd_sample, "fit": cmd_fit, "simulate": cmd_simulate,
               "asympvar": cmd_asympvar}[args.command]
    return command(args)


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; as the Python docs advise, point
        # stdout at devnull so the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # what a shell reports for a writer that SIGPIPE ends
    sys.exit(code)


if __name__ == "__main__":
    entry()
