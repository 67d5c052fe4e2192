"""Command-line interface: sample generation, fitting, simulation studies,
and asymptotic-variance queries.

Subcommands
    sample    draw from a parameter file into a CSV of unit rows
    fit       fit an estimator to a CSV of unit rows, emit a JSON report
    simulate  run a Monte Carlo study from a config file
    asympvar  asymptotic variance of the moment-type vMF estimator vs MLE

Exit codes: 0 success (including a Watson NE outcome, reported as
{"status": "NE"}), 2 invalid input or schema violation, 3 sampler failure
or (simulate) an estimator failing hard, 4 singular estimating equations.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import est_vmf, est_watson, harness, sampler, vmf_moments
from .families import ESTIMATORS, FAMILIES, SAMPLERS
from .linalg import SingularSystem
from .models import params_from_dict

_FLOAT_FMT = "%.17g"  # bit-faithful round trip of 64-bit floats


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_csv(path: str, x: np.ndarray, header: bool) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(",".join(f"x{i + 1}" for i in range(x.shape[1])) + "\n")
        for row in x:
            fh.write(",".join(_FLOAT_FMT % v for v in row) + "\n")


def cmd_sample(args) -> int:
    try:
        params = params_from_dict(_load_json(args.params))
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        return _fail(f"invalid parameter file: {exc}", 2)
    if args.family and args.family != params.family:
        return _fail(f"--family {args.family} does not match parameter file "
                     f"({params.family})", 2)
    if args.n < 1:
        return _fail("--n must be >= 1", 2)
    rng = sampler.RngState(args.seed)
    try:
        x = SAMPLERS[params.family](params, args.n, rng)
    except RuntimeError as exc:
        return _fail(f"sampler failed: {exc}", 3)
    _write_csv(args.out, x, args.header)
    print(json.dumps({"seed": args.seed, "n": args.n, "d": x.shape[1],
                      "out": args.out}))
    return 0


def _read_sample(path: str) -> tuple[np.ndarray, list[str]]:
    x = np.loadtxt(path, delimiter=",", ndmin=2)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ValueError("expected an n x d CSV with d >= 2")
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        raise ValueError(f"row {int(np.argmin(finite))} has a non-finite entry")
    norms = np.linalg.norm(x, axis=1)
    dev = np.abs(norms - 1.0)
    warnings = []
    if np.any(dev > 1e-3):
        first_bad = int(np.argmax(dev > 1e-3))
        raise ValueError(
            f"row {first_bad} has norm {norms[first_bad]:.6g}; rows must be "
            "unit vectors (within 1e-3 for auto-renormalization)"
        )
    if np.any(dev > 1e-6):
        warnings.append(
            f"{int((dev > 1e-6).sum())} rows renormalized (norm deviation > 1e-6)"
        )
    return x / norms[:, None], warnings


def cmd_fit(args) -> int:
    family = args.family
    estimator = args.estimator or "st"
    if (family, estimator) not in ESTIMATORS:
        return _fail(f"no estimator {estimator!r} for family {family!r}", 2)
    try:
        x, warnings = _read_sample(args.infile)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read sample: {exc}", 2)

    report = {"family": family, "estimator": estimator,
              "n": int(x.shape[0]), "d": int(x.shape[1]), "status": "ok",
              "warnings": warnings}
    try:
        fit = ESTIMATORS[family, estimator](x)
    except est_watson.NotEligible as exc:
        report["status"] = "NE"
        report["detail"] = str(exc)
        _emit_report(report, args.out)
        return 0
    except SingularSystem as exc:
        return _fail(f"singular system: {exc}", 4)
    except (est_vmf.DegenerateMean, ValueError) as exc:
        return _fail(f"estimation failed: {exc}", 2)

    report.update(FAMILIES[family].report(fit))
    report["warnings"] = warnings + getattr(fit, "warnings", [])
    _emit_report(report, args.out)
    return 0


def _emit_report(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _resolve_threads(args) -> int:
    if args.threads is not None:
        return args.threads
    env = os.environ.get("SPHERESTEIN_THREADS")
    if env:
        return int(env)
    return 1


def cmd_simulate(args) -> int:
    try:
        raw = _load_json(args.config)
        params = params_from_dict(raw["params"])
        config = harness.SimConfig(
            params=params,
            n=int(raw["n"]),
            reps=int(args.reps if args.reps is not None else raw.get("reps", 2000)),
            estimators=tuple(raw.get("estimators", ())),
            seed=int(args.seed if args.seed is not None else raw.get("seed", 0)),
            threads=_resolve_threads(args),
            label=raw.get("label", ""),
        )
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        return _fail(f"invalid config: {exc}", 2)
    try:
        result = harness.run_simulation(config)
    except RuntimeError as exc:
        return _fail(f"simulation failed: {exc}", 3)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(result.to_csv())
    print(result.table())
    for warning in result.warnings:
        print(f"warning: {warning}")
    print(json.dumps({"seed": config.seed, "reps": config.reps,
                      "threads": config.threads}))
    return 0


def cmd_asympvar(args) -> int:
    if args.d < 2:
        return _fail("--d must be >= 2", 2)
    if not args.kappa > 0:
        return _fail("--kappa must be > 0", 2)
    p_var = vmf_moments.stein_asymptotic_variance_vmf(args.d, args.kappa)
    info = vmf_moments.fisher_information_vmf(args.d, args.kappa)
    inverse = 1.0 / info
    if p_var < inverse - 1e-10 * abs(inverse):
        return _fail("efficiency bound violated: P < 1/I (numerical issue)", 4)
    out = {"P": p_var, "fisher_information": info, "inverse_fisher": inverse}
    if args.d == 2:
        out["note"] = ("at d = 2 the moment-type variance coincides with the "
                       "score-matching one")
    print(json.dumps(out, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherestein",
        description="Samplers and moment-type estimators for spherical "
                    "distributions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="draw a sample into a CSV file")
    p_sample.add_argument("--family", choices=tuple(FAMILIES),
                          help="checked against the parameter file if given")
    p_sample.add_argument("--params", required=True, help="parameter JSON file")
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--out", required=True)
    p_sample.add_argument("--header", action="store_true")
    p_sample.set_defaults(func=cmd_sample)

    p_fit = sub.add_parser("fit", help="fit an estimator to a CSV sample")
    p_fit.add_argument("--family", choices=tuple(FAMILIES), required=True)
    p_fit.add_argument("--estimator", default=None, help="; ".join(
        f"{fam}: " + "|".join(code for f, code in ESTIMATORS if f == fam)
        for fam in FAMILIES))
    p_fit.add_argument("--in", dest="infile", required=True)
    p_fit.add_argument("--out", default=None)
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo study")
    p_sim.add_argument("--config", required=True, help="config JSON file")
    p_sim.add_argument("--out", default=None, help="CSV output path")
    p_sim.add_argument("--reps", type=int, default=None,
                       help="override the config replication count")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--threads", type=int, default=None,
                       help="default 1; env SPHERESTEIN_THREADS overrides")
    p_sim.set_defaults(func=cmd_simulate)

    p_av = sub.add_parser("asympvar", help="asymptotic variances for vMF kappa")
    p_av.add_argument("--d", type=int, required=True)
    p_av.add_argument("--kappa", type=float, required=True)
    p_av.set_defaults(func=cmd_asympvar)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
