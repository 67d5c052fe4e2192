"""The benchmark's workloads and the inputs it generates for them.

Each workload is a fixed, seed-determined list of operations that the
timed loop cycles through.  An operation is one call into a public entry
point of the library:

* simulate workloads: ``harness.run_simulation(config)`` followed by
  ``result.to_csv()`` for one study (one SimConfig at the bundled ``n``,
  ``threads = 1``);
* ``fit_csv``: ``cli.main(["fit", ...])`` on a CSV that set-up wrote, with
  the JSON report captured from stdout.

The operations come in passes: one operation per group (a config, or a
fit input and estimator) in each pass.  A study's replication seeds come
from the workload seed, so the same seed gives the same operations; the
list repeats after ``ROUNDS`` passes, which lets every call at the default
seed be byte-checked against a recorded digest.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
CONFIGS = REPO / "configs"
OUT = BENCH_DIR / "out"

DEFAULT_SEED = 0

# distinct study seeds per config before the operation list repeats
ROUNDS = 30

# (config, replications per study); n is the bundled one.  A timed study
# takes about 0.1 s on a 2-core Xeon (0.45 s for fb_d10), so the
# calibration kernel timed before it tracks the machine's speed during it;
# with studies of 1 s, identical runs drifted apart by 25%.  That is 200 of
# the bundled 2000 replications for vMF, 30 of 2000 for Watson and 30 of
# 200 for table1_fig6: still enough to amortise per-study costs and to
# stay off the harness's low-replication path (below 30).
SIM_WORKLOADS = {
    # tiny work per replication: fixed costs per replication (generator
    # set-up, dispatch, aggregation) dominate; a batched engine shows here
    "sim_vmf": [("table2_d3_k1", 200), ("table2_d10_k10", 200)],
    # ACG envelope set-up and the Watson J statistic dominate, bipolar
    # (kappa > 0) and girdle (kappa < 0) regimes both
    "sim_watson": [("table3_d20_k5", 30), ("table3_d20_km2", 30),
                   ("table3_d10_k20", 30)],
    # d^4 statistics assembly and proposals at n = 1000; envelope set-up
    # is amortised over many proposals
    "sim_fb": [("table1_fig6", 30), ("fb_d10", 30)],
}
# one study at the bundled replication count, run once untimed before the
# timed loop so that the peak RSS covers a real-size study: stacking the
# samples of its 2000 replications would add about 16 MB to a peak of
# about 80 MB.  The Watson d=20 equivalent (32 MB) takes about 6 s.
FULL_SIZE_STUDY = {"sim_vmf": ("table2_d10_k10", 2000)}
# set-up's warm-up call is a study of the first config at this many
# replications
WARMUP_REPS = 30

# (file stem, family, d, n) of the CSVs fit_csv reads, and the fits made
# on each; n is in the thousands so the CSV reader and one large-n fit
# dominate, and the sampler and harness are not used
FIT_INPUTS = [
    ("vmf_d3", "vmf", 3, 5000),
    ("vmf_d20", "vmf", 20, 2000),
    ("watson_d20", "watson", 20, 2000),
    ("fb_d10", "fb", 10, 2000),
]
FIT_ESTIMATORS = {"vmf": ("st", "ml"), "watson": ("st", "mla"), "fb": ("st",)}

WORKLOADS = (*SIM_WORKLOADS, "fit_csv")

# tiny size for the self-test: few replications, small CSVs
TINY_REPS = 2
TINY_FIT_N = 200


def import_library() -> None:
    """Import spherestein from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "spherestein" / "__init__.py").is_file():
        raise SystemExit(f"error: no spherestein package under {SRC}")
    sys.path.insert(0, str(SRC))
    import spherestein
    import spherestein.cli  # noqa: F401 -- the fit entry point

    if Path(spherestein.__file__).resolve().parent != SRC / "spherestein":
        raise SystemExit(f"error: imported spherestein from {spherestein.__file__}")


def fb_d10_params():
    """A Fisher-Bingham parameter set at d = 10 that is not a bundled config.

    Moderate concentration so the ACG sampler accepts well and the
    estimating equations are well conditioned at n = 1000.
    """
    d = 10
    mu = np.zeros(d)
    mu[0] = 3.0
    return {"family": "fb", "mu": mu.tolist(),
            "A": np.diag(np.linspace(-2.0, 0.0, d)).tolist()}


def _config_params(name: str) -> tuple[dict, int]:
    if name == "fb_d10":
        return fb_d10_params(), 1000
    raw = json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
    return raw["params"], int(raw["n"])


@dataclass
class Op:
    """One call into the library: ``run()`` returns (output text, work units)."""

    key: str  # stable id; reference digests are recorded per key
    group: str  # config, or fit input and estimator; once in every pass
    run: Callable[[], tuple[str, int]]


@dataclass
class Workload:
    name: str
    kind: str  # "sim" or "fit"
    ops: list[Op]  # whole passes
    warmup: Op  # set-up's first call; its output is not checked
    description: str
    full_size: Op | None = None  # see FULL_SIZE_STUDY

    @property
    def per_pass(self) -> int:
        return len({op.group for op in self.ops})


def _sim_ops(name: str, seed: int, tiny: bool) -> tuple[list[Op], Op, str, Op | None]:
    from spherestein import harness
    from spherestein.models import params_from_dict

    def make(cfg_name: str, reps: int, k: int, key: str = "") -> Op:
        raw_params, n = _config_params(cfg_name)
        config = harness.SimConfig(
            params=params_from_dict(raw_params), n=n,
            reps=TINY_REPS if tiny else reps,
            estimators=harness.DEFAULT_ESTIMATORS[raw_params["family"]],
            seed=seed * 100 + k, threads=1, label=cfg_name)

        def run():
            # looked up at call time so the traced run sees its wrapper
            result = harness.run_simulation(config)
            return result.to_csv(), config.reps
        return Op(f"{cfg_name}/{key or f'r{k}'}", cfg_name, run)

    configs = SIM_WORKLOADS[name]
    ops = [make(cfg_name, reps, k)  # round-major: each pass runs every config
           for k in range(ROUNDS) for cfg_name, reps in configs]
    warmup = make(configs[0][0], WARMUP_REPS, ROUNDS, "warmup")
    full_size = None
    if name in FULL_SIZE_STUDY:
        full_size = make(*FULL_SIZE_STUDY[name], ROUNDS, "full")
    sizes = []
    for cfg_name, reps in configs:
        raw_params, n = _config_params(cfg_name)
        d = len(raw_params["mu"])
        ests = "/".join(harness.DEFAULT_ESTIMATORS[raw_params["family"]])
        sizes.append(f"{cfg_name} (d={d}, n={n}, "
                     f"reps={TINY_REPS if tiny else reps}, {ests})")
    if full_size is not None:
        sizes.append("once %s at reps=%d" % (
            FULL_SIZE_STUDY[name][0], TINY_REPS if tiny else FULL_SIZE_STUDY[name][1]))
    return (ops, warmup, f"run_simulation studies: {', '.join(sizes)}",
            full_size)


def fit_paths(seed: int, tiny: bool) -> dict[str, Path]:
    tag = "tiny" if tiny else "full"
    return {stem: OUT / "data" / f"{tag}-seed{seed}" / f"{stem}.csv"
            for stem, *_ in FIT_INPUTS}


def generate_fit_inputs(seed: int, tiny: bool) -> None:
    """Write the fit_csv input files: unit rows with 17 significant digits.

    The data come from the benchmark's own generator, not the library's
    samplers, so a change to a sampler cannot change what ``fit`` reads.
    """
    g = np.random.Generator(np.random.PCG64(seed))
    for (stem, family, d, n), path in zip(FIT_INPUTS, fit_paths(seed, tiny).values()):
        n = TINY_FIT_N if tiny else n
        mu = np.full(d, 1.0 / np.sqrt(d))
        if family == "vmf":
            z = g.standard_normal((n, d)) + 2.5 * mu
        elif family == "watson":
            # bipolar: Gaussian stretched along mu, so both signs of mu occur
            z = g.standard_normal((n, d)) + 3.0 * g.standard_normal((n, 1)) * mu
        else:
            # a mean shift plus unequal spreads: linear and quadratic terms
            scale = np.linspace(0.6, 1.4, d)
            z = g.standard_normal((n, d)) * scale + 1.5 * mu
        x = z / np.linalg.norm(z, axis=1, keepdims=True)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for row in x:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _fit_ops(seed: int, tiny: bool) -> tuple[list[Op], Op, str]:
    from spherestein import cli

    def make(argv):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)  # looked up at call time, see _sim_ops
            return json.dumps({"code": code, "stdout": out.getvalue()}), 1
        return run

    ops = []
    paths = fit_paths(seed, tiny)
    for stem, family, d, n in FIT_INPUTS:
        for est in FIT_ESTIMATORS[family]:
            argv = ["fit", "--family", family, "--estimator", est,
                    "--in", str(paths[stem])]
            ops.append(Op(f"{stem}/{est}", f"{stem}/{est}", make(argv)))
    sizes = ", ".join(
        f"{family} d={d} n={TINY_FIT_N if tiny else n} "
        f"({'/'.join(FIT_ESTIMATORS[family])})"
        for _, family, d, n in FIT_INPUTS
    )
    return ops, ops[0], f"cli fit calls: {sizes}"


def build(name: str, seed: int, tiny: bool) -> Workload:
    """The workload's operations; fit_csv expects its inputs to exist."""
    if name == "fit_csv":
        return Workload(name, "fit", *_fit_ops(seed, tiny))
    return Workload(name, "sim", *_sim_ops(name, seed, tiny))
