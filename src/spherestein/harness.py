"""Monte Carlo simulation harness: replicate sampling + fitting and report
bias, MSE and non-existence frequencies per estimator.

Replications draw from independent RNG streams keyed by (seed, replication
index), so results are identical for any level of parallelism and any
thread schedule.  NE semantics: a Watson NotEligible or a Fisher-Bingham
SingularSystem counts as a non-existence event and is excluded from bias
and MSE; any other failure aborts loudly.

Default replication count is 2000, a fifth of the full-scale studies the
reference tables use; Monte Carlo standard errors (reported for every
cell) are correspondingly sqrt(5) times larger.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import est_watson, sampler
from .families import ESTIMATORS, FAMILIES, SAMPLERS
from .linalg import SingularSystem
from .models import Params, params_to_dict

DEFAULT_ESTIMATORS = {name: fam.defaults for name, fam in FAMILIES.items()}


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
        self.estimators = tuple(e.lower() for e in self.estimators)
        if not self.estimators:
            self.estimators = DEFAULT_ESTIMATORS[family]
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        for est in self.estimators:
            if (family, est) not in ESTIMATORS:
                raise ValueError(f"unknown estimator {est!r} for {family}")


@dataclass
class Cell:
    """Metrics for one estimator and one parameter block."""

    block: str
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
    family: str
    n: int
    reps: int
    seed: int
    params: dict
    cells: dict[str, dict[str, Cell]]  # estimator -> block -> Cell
    warnings: list[str] = field(default_factory=list)
    walltime: float = 0.0
    label: str = ""

    def to_csv(self) -> str:
        """Deterministic CSV, one row per estimator x parameter block.

        Wall time is intentionally excluded so output bytes are identical
        across parallelism levels at a fixed seed.
        """
        fields = [
            "label", "family", "n", "reps", "seed", "estimator", "block",
            "bias", "bias_se", "mse", "mse_se", "mse_alt", "mse_alt_se", "ne",
        ]
        lines = [",".join(fields)]
        for est in sorted(self.cells):
            for block in sorted(self.cells[est]):
                cell = self.cells[est][block]
                row = [
                    self.label, self.family, str(self.n), str(self.reps),
                    str(self.seed), est, block,
                    _fmt(cell.bias), _fmt(cell.bias_se),
                    _fmt(cell.mse), _fmt(cell.mse_se),
                    _fmt(cell.mse_alt), _fmt(cell.mse_alt_se), _fmt(cell.ne),
                ]
                lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def table(self) -> str:
        header = (
            f"{self.label or self.family}: n={self.n} reps={self.reps} "
            f"seed={self.seed} ({self.walltime:.1f}s)"
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
    return "" if value is None else f"{value:.17g}"


def _replicate(config: SimConfig, rep: int) -> dict:
    """One replication: fresh stream, one dataset, every estimator fit.

    Returns per-estimator either None (NE event) or the tuple of block
    errors the family scores the fit by.
    """
    params = config.params
    family = params.family
    rng = sampler.RngState(config.seed, stream=rep)
    x = SAMPLERS[family](params, config.n, rng)
    errors = FAMILIES[family].errors
    out = {}
    for est in config.estimators:
        try:
            fit = ESTIMATORS[family, est](x)
        except (est_watson.NotEligible, SingularSystem):
            out[est] = None
            continue
        except Exception as exc:
            raise RuntimeError(
                f"estimator {est!r} failed hard on replication {rep} "
                f"(seed {config.seed}): {exc}"
            ) from exc
        out[est] = errors(fit, params)
    return out


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    if values.size < 2:
        return mean, 0.0
    return mean, float(values.std(ddof=1) / math.sqrt(values.size))


def run_simulation(config: SimConfig) -> SimResult:
    """Run all replications and aggregate bias/MSE/NE per estimator.

    Failures beyond the NE semantics propagate with the replication index
    attached.
    """
    start = time.perf_counter()
    reps = range(config.reps)
    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            outcomes = list(pool.map(lambda r: _replicate(config, r), reps))
    else:
        outcomes = [_replicate(config, r) for r in reps]

    warnings = []
    if config.reps < 30:
        warnings.append(f"low replication count ({config.reps}); "
                        "standard errors are unreliable")

    fam = FAMILIES[config.params.family]
    cells: dict[str, dict[str, Cell]] = {}
    for est in config.estimators:
        values = [o[est] for o in outcomes]
        ne_rate = sum(v is None for v in values) / config.reps
        kept = [v for v in values if v is not None]
        if not kept:
            raise RuntimeError(f"estimator {est!r} never existed in {config.reps} reps")
        cells[est] = {}
        for i, block in enumerate(fam.blocks):
            err = np.array([v[i] for v in kept])
            mse, mse_se = _mean_se(err**2)
            mean, mean_se = _mean_se(err)
            if fam.signed:
                cell = Cell(block=block, bias=mean, bias_se=mean_se,
                            mse=mse, mse_se=mse_se, ne=ne_rate)
            else:
                cell = Cell(block=block, bias=None, bias_se=None,
                            mse=mse, mse_se=mse_se, ne=ne_rate,
                            mse_alt=mean, mse_alt_se=mean_se)
            cells[est][block] = cell

    return SimResult(
        family=config.params.family,
        n=config.n,
        reps=config.reps,
        seed=config.seed,
        params=params_to_dict(config.params),
        cells=cells,
        warnings=warnings,
        walltime=time.perf_counter() - start,
        label=config.label,
    )


@dataclass
class ComparisonRow:
    label: str
    block: str
    cells: dict[str, Cell]
    best_bias: str | None
    best_mse: str


def compare_estimators(configs: list[SimConfig]) -> list[ComparisonRow]:
    """Run each config and flag the best |bias| and best MSE per row.

    Estimators within a row share replication datasets, so the flags are
    paired comparisons.
    """
    rows = []
    for config in configs:
        if len(config.estimators) < 2:
            raise ValueError("comparison needs at least two estimators")
        result = run_simulation(config)
        blocks = sorted({b for est in result.cells for b in result.cells[est]})
        for block in blocks:
            cells = {est: result.cells[est][block] for est in result.cells}
            with_bias = {e: c for e, c in cells.items() if c.bias is not None}
            best_bias = (
                min(with_bias, key=lambda e: abs(with_bias[e].bias))
                if with_bias else None
            )
            best_mse = min(cells, key=lambda e: cells[e].mse)
            rows.append(ComparisonRow(
                label=result.label or f"{result.family} n={result.n}",
                block=block, cells=cells,
                best_bias=best_bias, best_mse=best_mse,
            ))
    return rows


def comparison_table(rows: list[ComparisonRow]) -> str:
    lines = []
    for row in rows:
        parts = [f"{row.label} [{row.block}]"]
        for est in sorted(row.cells):
            cell = row.cells[est]
            bias = f"{cell.bias:.4g}" if cell.bias is not None else "-"
            mark_b = "*" if est == row.best_bias else " "
            mark_m = "*" if est == row.best_mse else " "
            parts.append(
                f"{est}: bias={bias}{mark_b} mse={cell.mse:.4g}{mark_m} "
                f"ne={cell.ne:.3g}"
            )
        lines.append("  ".join(parts))
    return "\n".join(lines)
