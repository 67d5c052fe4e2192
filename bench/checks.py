"""Output checks: every operation's output is verified after the timed loop.

At the default seed, a simulate study's ``to_csv()`` bytes must match the
SHA-256 digest recorded in ``reference.json``, and a fit report must match
its recorded status and estimates to ``FIT_TOL``.  At any seed, every CSV
cell must be finite, ``ne`` must lie in [0, 1], every report must parse,
and an operation repeated within a run must give the same output.  A
Watson NE report and a singular-system exit (code 4) are booked results,
not failures.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# estimates are float64 results of closed-form moment equations and small
# solves; sqrt(eps) leaves room for reordered sums and conditioning while
# catching any change of method
FIT_TOL = math.sqrt(np.finfo(np.float64).eps)

CSV_HEADER = ("label,family,n,reps,seed,estimator,block,bias,bias_se,mse,"
              "mse_se,mse_alt,mse_alt_se,ne")
SINGULAR_EXIT = 4


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def check_sim_csv(text: str) -> str | None:
    """None if the study CSV is well formed, else what is wrong."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return "unexpected CSV header"
    if len(lines) < 2:
        return "CSV has no rows"
    names = CSV_HEADER.split(",")
    for line in lines[1:]:
        row = dict(zip(names, line.split(",")))
        if len(row) != len(names):
            return f"malformed row {line!r}"
        for name in names[7:]:
            if row[name] == "":
                continue  # bias is empty for Fisher-Bingham blocks
            try:
                value = float(row[name])
            except ValueError:
                return f"non-numeric {name} in row {line!r}"
            if not math.isfinite(value):
                return f"non-finite {name} in row {line!r}"
        ne = float(row["ne"])
        if not 0.0 <= ne <= 1.0:
            return f"ne = {ne} outside [0, 1]"
    return None


def fit_summary(output: str) -> dict:
    """Reduce a captured fit call to what the reference records.

    Raises ValueError if the report does not parse or is incomplete.
    """
    captured = json.loads(output)
    code = captured["code"]
    if code == SINGULAR_EXIT:
        return {"status": "singular"}
    if code != 0:
        raise ValueError(f"fit exited with code {code}")
    report = json.loads(captured["stdout"])
    summary = {"status": report["status"]}
    if report["status"] == "ok":
        for key in ("mu", "kappa", "A"):
            if key in report:
                summary[key] = report[key]
    elif report["status"] != "NE":
        raise ValueError(f"unknown status {report['status']!r}")
    for key, value in summary.items():
        if key != "status" and not np.all(np.isfinite(np.asarray(value, float))):
            raise ValueError(f"non-finite {key} in fit report")
    return summary


def _close(a, b) -> bool:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and bool(
        np.all(np.abs(a - b) <= FIT_TOL * np.maximum(1.0, np.abs(b))))


def compare_fit(summary: dict, ref: dict, axial: bool) -> str | None:
    """None if the summary matches the reference; axial axes match up to sign."""
    if summary.keys() != ref.keys() or summary["status"] != ref["status"]:
        return f"fit report {summary['status']!r} differs from reference {ref['status']!r}"
    for key in ref:
        if key == "status":
            continue
        if _close(summary[key], ref[key]):
            continue
        if key == "mu" and axial and _close(-np.asarray(summary[key]), ref[key]):
            continue
        return f"{key} differs from reference beyond {FIT_TOL:.2g}"
    return None


class Checker:
    """Checks the outputs of one workload's operations and collects failures.

    ``reference`` maps op key to a digest (simulate) or a fit summary; it is
    None at seeds without recorded references.  With a reference, an op key
    that has no entry fails: every call at the default seed is gated.
    """

    def __init__(self, kind: str, reference: dict | None):
        self.kind = kind
        self.reference = reference
        self.first: dict[str, str] = {}
        self.failures: list[str] = []

    def check(self, key: str, output: str | None, error: str | None = None) -> bool:
        problem = error or self._problem(key, output)
        if problem:
            self.failures.append(f"{key}: {problem}")
        return problem is None

    def _problem(self, key: str, output: str) -> str | None:
        seen = self.first.setdefault(key, output)
        if seen != output:
            return "output differs from an earlier call with the same input"
        if self.reference is not None and key not in self.reference:
            return "no recorded reference"
        if self.kind == "sim":
            problem = check_sim_csv(output)
            if problem is None and self.reference is not None \
                    and digest(output) != self.reference[key]:
                problem = "CSV bytes differ from the recorded digest"
            return problem
        try:
            summary = fit_summary(output)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unusable fit report: {exc}"
        if self.reference is not None:
            return compare_fit(summary, self.reference[key],
                               axial=key.startswith("watson"))
        return None


def record(kind: str, outputs: dict[str, str]) -> dict:
    """Reference entries for one workload from its outputs at the default seed."""
    if kind == "sim":
        return {key: digest(text) for key, text in outputs.items()}
    return {key: fit_summary(text) for key, text in outputs.items()}
