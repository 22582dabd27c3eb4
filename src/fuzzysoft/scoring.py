"""Comparison-table scoring and risk classification.

Objects are ranked by comparing their degree rows pairwise across all
parameters. Count mode tallies, for each ordered pair (i, j), the number of
parameters on which object i's degree is at least object j's; difference mode
sums the degree differences instead. An object's score is its comparison-table
row sum minus its column sum; higher scores rank as higher risk.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .softset import FuzzySoftSet, csv_field
from .variables import HEALTHY_CONTROL, PATIENT

__all__ = [
    "COMPARISON_EPSILON",
    "MODES",
    "HIGH_RISK",
    "HEALTHY",
    "ComparisonTable",
    "ScoreReport",
    "comparison_table",
    "scores",
    "classify",
    "evaluate",
    "report_to_csv",
    "format_report_text",
]

# Degrees come from exact piecewise-linear arithmetic, so true ties are common
# (many 1.0 cells); the epsilon keeps float ties counting as ties.
COMPARISON_EPSILON = 1e-9

# Comparison-table modes: count tallies parameters won, difference sums degree gaps.
MODES = ("count", "difference")

HIGH_RISK = "high-risk"
HEALTHY = "healthy"

# A high-risk call is correct for a record labeled as patient.
_PREDICTION_FOR_LABEL = {PATIENT: HIGH_RISK, HEALTHY_CONTROL: HEALTHY}


@dataclass(frozen=True, eq=False)
class ComparisonTable:
    """Square pairwise-comparison matrix over an ordered universe."""

    universe: tuple[str, ...]
    counts: np.ndarray = field(repr=False)
    mode: str = "count"
    parameter_count: int = 0

    def __post_init__(self) -> None:
        n = len(self.universe)
        counts = np.ascontiguousarray(self.counts)
        if counts.shape != (n, n):
            raise ValueError(f"comparison table must be {n}x{n}, got {counts.shape}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    def cell(self, row_id: str, col_id: str) -> float:
        i = self.universe.index(row_id)
        j = self.universe.index(col_id)
        value = self.counts[i, j]
        return int(value) if self.mode == "count" else float(value)


@dataclass(frozen=True, eq=False)
class ScoreReport:
    """Row sums, column sums, scores, and (optionally) predictions and accuracy."""

    universe: tuple[str, ...]
    row_sums: np.ndarray = field(repr=False)
    column_sums: np.ndarray = field(repr=False)
    scores: np.ndarray = field(repr=False)
    mode: str = "count"
    parameter_count: int = 0
    predictions: dict[str, str] | None = None
    accuracy: float | None = None

    def score(self, object_id: str) -> float:
        value = self.scores[self.universe.index(object_id)]
        return int(value) if self.mode == "count" else float(value)

    def triple(self, object_id: str) -> tuple:
        i = self.universe.index(object_id)
        cast = int if self.mode == "count" else float
        return (cast(self.row_sums[i]), cast(self.column_sums[i]), cast(self.scores[i]))


def comparison_table(s: FuzzySoftSet, mode: str = "count") -> ComparisonTable:
    """Pairwise comparison of all objects across all parameters.

    count mode: c[i][j] = number of parameters e with d_i(e) >= d_j(e) - eps.
    difference mode: c[i][j] = sum over e of (d_i(e) - d_j(e)).

    Neither mode builds the n x n x m pairwise tensor: memory is O(n^2 + n*m).
    """
    if not s.universe or not s.parameters:
        raise ValueError("comparison_table needs a non-empty universe and parameters")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    table = _count_table if mode == "count" else _difference_table
    return ComparisonTable(s.universe, table(s.degrees), mode, parameter_count=len(s.parameters))


# Columns summed into the uint8 accumulator before it is flushed (255 cannot overflow).
_FLUSH_COLUMNS = 255
# Pairwise differences held at once by difference mode (float64, so 16 MB).
_BLOCK_CELLS = 1 << 21


def _count_table(d: np.ndarray) -> np.ndarray:
    """Count-mode table: c[i, j] = #{e : pos_i(e) >= q_j(e)} (see ``_ranks``).

    Columns are added one at a time into an n x n uint8 buffer, flushed into
    the int64 table before it can overflow, so memory is O(n^2 + n*m).
    """
    n, m = d.shape
    pos, q = _ranks(d)
    counts = np.zeros((n, n), dtype=np.int64)
    acc = np.empty((n, n), dtype=np.uint8)
    hit = np.empty((n, n), dtype=bool)
    hit_u8 = hit.view(np.uint8)  # same-type add, no bool-to-uint8 cast
    for start in range(0, m, _FLUSH_COLUMNS):
        acc.fill(0)
        for e in range(start, min(start + _FLUSH_COLUMNS, m)):
            np.greater_equal(pos[e][:, None], q[e][None, :], out=hit)
            np.add(acc, hit_u8, out=acc)
        counts += acc
    return counts


def _ranks(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column rank codes, shape (m, n), such that d_i >= fl(d_j - eps) iff pos_i >= q_j.

    For column e let pos_i = #{k : d_k < d_i} and q_j = #{k : d_k < x_j} with
    x_j = fl(d_j - eps). If d_i >= x_j, every d_k below x_j is below d_i, so
    pos_i >= q_j; if d_i < x_j, d_i itself counts in q_j but not in pos_i, so
    pos_i < q_j. The test is therefore exactly the dense comparison
    ``d_i >= d_j - eps``, with the same float rounding.
    """
    n, m = d.shape
    code = np.int16 if n < 2**15 else np.int32
    by_column = np.ascontiguousarray(d.T)
    order = by_column.argsort(axis=1)
    rows = np.arange(m)[:, None]
    ordered = by_column[rows, order]
    del by_column  # freed early to lower the peak allocation
    shifted = ordered - COMPARISON_EPSILON
    # Ranks are found in sorted order, where searchsorted's keys ascend, then
    # scattered back to object order.
    sorted_pos = np.empty((m, n), dtype=code)
    sorted_q = np.empty((m, n), dtype=code)
    for e in range(m):
        sorted_pos[e] = ordered[e].searchsorted(ordered[e])
        sorted_q[e] = ordered[e].searchsorted(shifted[e])
    pos = np.empty_like(sorted_pos)
    q = np.empty_like(sorted_q)
    pos[rows, order] = sorted_pos
    q[rows, order] = sorted_q
    return pos, q


def _difference_table(d: np.ndarray) -> np.ndarray:
    """Difference-mode table, summed over blocks of rows.

    Each cell is the same pairwise sum over the same contiguous m values as
    the whole-tensor expression, so it is bit-identical to it.
    """
    n, m = d.shape
    rows = max(1, _BLOCK_CELLS // (n * m))
    counts = np.empty((n, n))
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        counts[block] = (d[block, None, :] - d[None, :, :]).sum(axis=2)
    return counts


def scores(table: ComparisonTable) -> ScoreReport:
    """Row sums, column sums and scores (row minus column) of a comparison table."""
    r = table.counts.sum(axis=1)
    t = table.counts.sum(axis=0)
    return ScoreReport(
        universe=table.universe,
        row_sums=r,
        column_sums=t,
        scores=r - t,
        mode=table.mode,
        parameter_count=table.parameter_count,
    )


def classify(report: ScoreReport, threshold: float = 0.0) -> dict[str, str]:
    """Predict high-risk for every object scoring strictly above ``threshold``."""
    return {
        oid: (HIGH_RISK if report.scores[i] > threshold else HEALTHY)
        for i, oid in enumerate(report.universe)
    }


def evaluate(predictions: Mapping[str, str], labels: Mapping[str, str]) -> float:
    """Fraction of objects whose risk call matches the ground-truth class."""
    if not labels:
        raise ValueError("evaluate needs a non-empty label set")
    if set(predictions) != set(labels):
        raise ValueError(
            f"prediction/label object sets differ: {sorted(set(predictions) ^ set(labels))}"
        )
    correct = sum(
        1 for oid, label in labels.items() if predictions[oid] == _PREDICTION_FOR_LABEL.get(label)
    )
    return correct / len(labels)


def report_to_csv(report: ScoreReport, labels: Mapping[str, str] | None = None) -> str:
    """CSV rendering: ``object,row_sum,column_sum,score,prediction,label``."""
    fmt = (lambda v: str(int(v))) if report.mode == "count" else (lambda v: f"{float(v):.6f}")
    lines = ["object,row_sum,column_sum,score,prediction,label"]
    for i, oid in enumerate(report.universe):
        pred = report.predictions.get(oid, "") if report.predictions else ""
        label = labels.get(oid, "") if labels else ""
        lines.append(
            f"{csv_field(oid)},{fmt(report.row_sums[i])},{fmt(report.column_sums[i])},"
            f"{fmt(report.scores[i])},{pred},{label}"
        )
    return "\n".join(lines) + "\n"


def format_report_text(report: ScoreReport, decimals: int = 2) -> str:
    """Aligned text table of row sums, column sums, scores and predictions."""
    if report.mode == "count":
        fmt = lambda v: str(int(v))
    else:
        fmt = lambda v: f"{float(v):.{decimals}f}"
    rows = [("Sample No", "Row Sum", "Column Sum", "Score", "Prediction")]
    for i, oid in enumerate(report.universe):
        pred = report.predictions.get(oid, "") if report.predictions else ""
        rows.append(
            (oid, fmt(report.row_sums[i]), fmt(report.column_sums[i]), fmt(report.scores[i]), pred)
        )
    widths = [max(len(r[c]) for r in rows) for c in range(5)]
    lines = ["  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip() for row in rows]
    if report.accuracy is not None:
        lines.append(f"accuracy: {report.accuracy:.2f}")
    return "\n".join(lines) + "\n"
