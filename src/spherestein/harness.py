"""Monte Carlo simulation harness: replicate sampling + fitting and report
bias, MSE and non-existence frequencies per estimator.

Replications run in blocks of a fixed memory size.  Each block draws its
samples from independent RNG streams keyed by (seed, replication index),
whose generators the sampler sets up in one pass, as one (b, n, d) stack,
prepares it once through its family's ``PREPARE`` step (every family has
one: the vMF resultant, the Watson scatter eigendecomposition, the
checked Fisher-Bingham stack), and fits every estimator once over the
whole stack (every fit, Fisher-Bingham's too, is one computation over
it).  The steps are looked up in the flat tables of ``families`` at call
time, so a tracer that wraps those tables' entries sees each layer.  A
sample that a fit rejects fails in that fit, never in the preparation,
so the failure names its estimator.  A study runs its blocks on
min(threads, blocks, CPUs) workers; one worker runs them in the calling
thread (so cProfile sees the whole study), more use a thread pool, each
extra worker costing roughly 1-3 MB of memory.  The CSV has identical
bytes for any block size and thread count.  NE semantics:
a replication that a fit flags in its ``ne`` (Watson: neither
branch eligible; Fisher-Bingham: a singular system; vMF ST2: a singular
I - S) counts as a non-existence event and is excluded from bias and
MSE; any other failure aborts loudly.

Default replication count is 2000, a fifth of the full-scale studies the
reference tables use; Monte Carlo standard errors (reported for every
cell) are correspondingly sqrt(5) times larger.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .families import ESTIMATORS, FAMILIES, PREPARE, SAMPLERS
from .models import Params, as_int, chunks, params_from_dict

DEFAULT_ESTIMATORS = {name: fam.defaults for name, fam in FAMILIES.items()}

# memory for the samples of one block, cut by models.chunks at 8 n d bytes per
# replication.  Each block has a fixed cost, so larger blocks run faster
BLOCK_BYTES = 512 * 1024
FLOAT_FMT = "%.17g"  # bit-faithful round trip of 64-bit floats


@dataclass
class SimConfig:
    params: Params
    n: int
    reps: int = 2000
    estimators: tuple[str, ...] = ()
    seed: int = 0
    threads: int = 1
    label: str = ""

    def __post_init__(self):
        family = self.params.family
        for name, low in (("n", 1), ("reps", 1), ("seed", 0), ("threads", 1)):
            setattr(self, name, as_int(getattr(self, name), name, low))
        if self.reps > 2**32:  # a replication's stream is its index, below 2**32
            raise ValueError(f"reps must be <= 2**32, got {self.reps}")
        if not isinstance(self.estimators, (list, tuple)):  # a string is not a list
            raise ValueError("estimators must be a list of estimator names")
        if not all(isinstance(e, str) for e in self.estimators):
            raise ValueError("estimator names must be strings")
        self.estimators = tuple(e.lower() for e in self.estimators)
        if not self.estimators:
            self.estimators = DEFAULT_ESTIMATORS[family]
        if not isinstance(self.label, str) or any(c in self.label for c in ",\n\r"):
            raise ValueError("label must be a string without ',' or line breaks")
        for est in self.estimators:
            if (family, est) not in ESTIMATORS:
                raise ValueError(f"unknown estimator {est!r} for {family}")
            if self.estimators.count(est) > 1:
                raise ValueError(f"estimator {est!r} listed more than once")


# a config file's keys: SimConfig's fields but threads, a run setting; the
# fields without a default are required
_CONFIG_KEYS = tuple(f.name for f in fields(SimConfig) if f.name != "threads")
_REQUIRED_KEYS = tuple(f.name for f in fields(SimConfig) if f.default is MISSING)


def config_from_dict(raw, **overrides) -> SimConfig:
    """The study of a config file's JSON object, with each override that is
    not None (a command line's ``reps``, ``seed`` or ``threads``) applied.
    Raises ValueError on a non-object, an unknown key (``threads`` too), a
    missing required one, and whatever params_from_dict and SimConfig
    refuse, naming the key or value at fault."""
    if not isinstance(raw, dict):
        raise ValueError("a config must be a JSON object")
    if unknown := [key for key in raw if key not in _CONFIG_KEYS]:
        raise ValueError(f"unknown config key {unknown[0]!r}")
    if missing := [key for key in _REQUIRED_KEYS if key not in raw]:
        raise ValueError(f"a config needs {missing[0]!r}")
    overrides = {key: value for key, value in overrides.items() if value is not None}
    return SimConfig(**{**raw, "params": params_from_dict(raw["params"]), **overrides})


@dataclass
class Cell:
    """Metrics for one estimator and one parameter block."""

    bias: float | None
    bias_se: float | None
    mse: float
    mse_se: float
    ne: float
    # alternative error reading (mean distance instead of mean squared
    # distance); populated for blocks scored by a distance, which have no bias
    mse_alt: float | None = None
    mse_alt_se: float | None = None


@dataclass
class SimResult:
    config: SimConfig
    cells: dict[str, dict[str, Cell]]  # estimator -> block -> Cell
    warnings: list[str]
    walltime: float

    def to_csv(self) -> str:
        """Deterministic CSV, one row per estimator x parameter block.

        Wall time is intentionally excluded so output bytes are identical
        for any block size and thread count at a fixed seed.
        """
        fields = [
            "label", "family", "n", "reps", "seed", "estimator", "block",
            "bias", "bias_se", "mse", "mse_se", "mse_alt", "mse_alt_se", "ne",
        ]
        c = self.config
        lines = [",".join(fields)]
        for est in sorted(self.cells):
            for block in sorted(self.cells[est]):
                cell = self.cells[est][block]
                row = [
                    c.label, c.params.family, str(c.n), str(c.reps),
                    str(c.seed), est, block,
                    _fmt(cell.bias), _fmt(cell.bias_se),
                    _fmt(cell.mse), _fmt(cell.mse_se),
                    _fmt(cell.mse_alt), _fmt(cell.mse_alt_se), _fmt(cell.ne),
                ]
                lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def table(self) -> str:
        c = self.config
        header = (
            f"{c.label or c.params.family}: n={c.n} reps={c.reps} "
            f"seed={c.seed} ({self.walltime:.1f}s)"
        )
        lines = [header, f"{'estimator':<10}{'block':<7}{'bias':>12}"
                 f"{'mse':>12}{'ne':>8}"]
        for est in sorted(self.cells):
            for block in sorted(self.cells[est]):
                cell = self.cells[est][block]
                bias = f"{cell.bias:.4g}" if cell.bias is not None else "-"
                lines.append(
                    f"{est:<10}{block:<7}{bias:>12}{cell.mse:>12.4g}"
                    f"{cell.ne:>8.4g}"
                )
        return "\n".join(lines)


def _fmt(value) -> str:
    return "" if value is None else FLOAT_FMT % value


def _run_block(config: SimConfig, reps: range) -> dict:
    """One block: a stream per replication, one sample stack, every
    estimator fit once on it.

    Returns per estimator the block's errors (one row per replication, one
    column per error block, NaN where there is no estimate) and NE flags.
    """
    params = config.params
    family = params.family
    stack = PREPARE[family](SAMPLERS[family](params, config.n, config.seed, reps))
    out = {}
    for est in config.estimators:
        try:
            fit = ESTIMATORS[family, est](stack)
        except Exception as exc:
            raise RuntimeError(
                f"estimator {est!r} failed hard on replications "
                f"{reps.start}-{reps.stop - 1} (seed {config.seed}): {exc}"
            ) from exc
        out[est] = np.column_stack(FAMILIES[family].errors(fit, params)), fit.ne
    return out


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    if values.size < 2:
        return mean, 0.0
    return mean, float(values.std(ddof=1) / math.sqrt(values.size))


def run_simulation(config: SimConfig) -> SimResult:
    """Run all replications and aggregate bias/MSE/NE per estimator.

    Failures beyond the NE semantics propagate with the block's
    replication range attached.
    """
    start = time.perf_counter()
    blocks = [range(config.reps)[s] for s in
              chunks(config.reps, 8 * config.n * config.params.d, BLOCK_BYTES)]
    workers = min(config.threads, len(blocks), os.cpu_count() or 1)
    if workers == 1:
        outcomes = [_run_block(config, reps) for reps in blocks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(lambda reps: _run_block(config, reps), blocks))

    warnings = []
    if config.reps < 30:
        warnings.append(f"low replication count ({config.reps}); "
                        "standard errors are unreliable")

    fam = FAMILIES[config.params.family]
    cells: dict[str, dict[str, Cell]] = {}
    for est in config.estimators:
        ne = np.concatenate([o[est][1] for o in outcomes])
        ne_rate = int(ne.sum()) / config.reps
        kept = np.concatenate([o[est][0] for o in outcomes])[~ne]
        if not len(kept):
            raise RuntimeError(f"estimator {est!r} never existed in {config.reps} reps")
        cells[est] = {}
        for i, block in enumerate(fam.blocks):
            err = kept[:, i]
            mse, mse_se = _mean_se(err**2)
            mean, mean_se = _mean_se(err)
            if fam.signed:
                cell = Cell(bias=mean, bias_se=mean_se,
                            mse=mse, mse_se=mse_se, ne=ne_rate)
            else:
                cell = Cell(bias=None, bias_se=None,
                            mse=mse, mse_se=mse_se, ne=ne_rate,
                            mse_alt=mean, mse_alt_se=mean_se)
            cells[est][block] = cell

    return SimResult(config, cells, warnings, time.perf_counter() - start)
