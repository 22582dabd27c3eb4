"""Comparison-table scoring and risk classification.

Objects are ranked by comparing their degree rows pairwise across all
parameters. Count mode tallies, for each ordered pair (i, j), the number of
parameters on which object i's degree is at least object j's; difference mode
sums the degree differences instead. An object's score is its comparison-table
row sum minus its column sum; higher scores rank as higher risk.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .softset import FixedPoint, FuzzySoftSet, Levels, _code_dtype, quoted_ids
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


def number_format(mode: str, decimals: int = 6) -> Callable[[object], str]:
    """Counts as integers, differences to ``decimals`` places, in tables and reports."""
    return (lambda v: str(int(v))) if mode == "count" else FixedPoint(decimals)


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
        if self.mode == "count" and counts.size and (
            counts.dtype.kind not in "iu" or counts.min() < 0 or counts.max() > self.parameter_count
        ):
            raise ValueError(f"count cells must be integers in [0, {self.parameter_count}]")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def levels(self) -> Levels | None:
        """A count table's ``Levels``: 0..m, each count its own code. Difference tables have none."""
        return Levels(np.arange(self.parameter_count + 1), self.counts) if self.mode == "count" else None


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
        return self.triple(object_id)[2]

    def triple(self, object_id: str) -> tuple:
        i = self.universe.index(object_id)
        cast = int if self.mode == "count" else float
        return (cast(self.row_sums[i]), cast(self.column_sums[i]), cast(self.scores[i]))


def comparison_table(s: FuzzySoftSet, mode: str = "count") -> ComparisonTable:
    """Pairwise comparison of all objects across all parameters.

    count mode: c[i][j] = number of parameters e with d_i(e) >= d_j(e) - eps.
    difference mode: c[i][j] = sum over e of (d_i(e) - d_j(e)).

    Neither mode builds the n x n x m pairwise tensor: memory is O(n^2 + n*m).
    Tables of at least ``_PARALLEL_TESTS`` pairwise tests are filled in
    contiguous blocks of rows, one per usable CPU: the first on the calling
    thread, each other on a pool thread (numpy releases the GIL in these
    loops); smaller ones on the calling thread alone. Every cell is computed
    the same way either way.
    """
    if not s.universe or not s.parameters:
        raise ValueError("comparison_table needs a non-empty universe and parameters")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    counts = _count_table(s.levels) if mode == "count" else _difference_table(s.degrees)
    return ComparisonTable(s.universe, counts, mode, parameter_count=len(s.parameters))


# Columns summed into the uint8 accumulator before it is flushed (255 cannot overflow).
_FLUSH_COLUMNS = 255
# Cells of one row tile of a count job: its accumulator and its compare buffer are 1 MB each.
_TILE_CELLS = 1 << 20
# Pairwise differences held at once by difference mode (float64, so 16 MB), over all workers.
_BLOCK_CELLS = 1 << 21
# Tables of fewer pairwise tests (n * n * m) are filled on the calling thread:
# below this, starting threads costs about what a second core saves.
_PARALLEL_TESTS = 1 << 24


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _row_blocks(n: int, tests: int, most: int) -> list[slice]:
    """Contiguous blocks of the n rows, one per worker, their sizes at most one apart.

    One worker below ``_PARALLEL_TESTS`` pairwise tests, otherwise one per
    usable CPU, but never more than ``most`` (1 <= most <= n).
    """
    workers = 1 if tests < _PARALLEL_TESTS else min(_usable_cpus(), most)
    return [slice(n * k // workers, n * (k + 1) // workers) for k in range(workers)]


def _fill_row_blocks(fill: Callable[..., None], jobs: list[tuple]) -> None:
    """Run ``fill(*job)`` for every job: the first on the calling thread, each other on a pool thread.

    One job runs on the calling thread with no pool. Otherwise a pool of
    ``len(jobs) - 1`` threads takes ``jobs[1:]`` while the calling thread runs
    ``jobs[0]`` instead of waiting idle. Every job finishes before anything
    propagates: the caller's own exception first, else a worker's.

    Each job's buffers are allocated by the caller, on the calling thread,
    before any worker starts: buffers allocated inside worker threads come
    from glibc's per-thread arenas, which keep freed memory and raise the
    process's peak RSS.
    """
    if len(jobs) == 1:
        fill(*jobs[0])
        return
    from concurrent.futures import ThreadPoolExecutor  # here, not at import: it costs ~3 ms

    with ThreadPoolExecutor(len(jobs) - 1) as pool:
        futures = [pool.submit(fill, *job) for job in jobs[1:]]
        try:
            fill(*jobs[0])
        finally:
            errors = [done.exception() for done in futures]  # waits for every worker
        for error in errors:
            if error is not None:
                raise error


def _count_table(levels: Levels) -> np.ndarray:
    """Count-mode table from level codes: c[i, j] = #{e : pos_i(e) >= q_j(e)}.

    With the levels v (increasing) and a cell's code k, so that its degree is
    v[k] (-0.0 and 0.0 are one level), let pos = k = #{levels < d} and
    q = #{levels < x} with x = fl(d - eps), the same for every degree of
    one level. If d_i >= x_j, every level below x_j is below d_i, so
    pos_i >= q_j; if d_i < x_j, d_i's own level counts in q_j but not in
    pos_i, so pos_i < q_j. The test is therefore exactly the dense comparison
    ``d_i >= d_j - eps``, with the same float rounding.

    Each row block (see ``_row_blocks``) is walked in row tiles of at most
    ``_TILE_CELLS`` cells, that is ``max(1, _TILE_CELLS // n)`` rows (at
    n = 1000 a tile covers a whole block). A tile compares one column at a
    time into its job's tile-by-n bool buffer and adds that into its job's
    uint8 accumulator, flushed into the tile's rows of the table every
    ``_FLUSH_COLUMNS`` columns, before it can overflow. The table's cells are
    codes of the levels 0..m (see ``ComparisonTable.levels``), so it is held
    in their code dtype, int16 below 2**15 levels: 2 MB at n = 1000 and
    200 MB at n = 10k, a quarter of int64. The buffers add at most 2 MB per
    worker, so memory is O(n^2 + n*m) whatever the worker count.
    """
    values, codes = levels
    n, m = codes.shape
    pos = np.ascontiguousarray(codes.T)
    q = np.take(values.searchsorted(values - COMPARISON_EPSILON).astype(codes.dtype), pos)
    counts = np.zeros((n, n), dtype=_code_dtype(m + 1))
    tile = max(1, _TILE_CELLS // n)

    def fill(rows: slice, acc_buf: np.ndarray, hit_buf: np.ndarray) -> None:
        for first in range(rows.start, rows.stop, tile):
            r = slice(first, min(first + tile, rows.stop))
            acc, hit_u8 = acc_buf[: r.stop - first], hit_buf[: r.stop - first]
            hit = hit_u8.view(bool)  # compared as bool, added as uint8: no bool-to-uint8 cast
            for start in range(0, m, _FLUSH_COLUMNS):
                acc.fill(0)
                for e in range(start, min(start + _FLUSH_COLUMNS, m)):
                    np.greater_equal(pos[e, r, None], q[e, None, :], out=hit)
                    np.add(acc, hit_u8, out=acc)
                counts[r] += acc

    jobs = []
    for rows in _row_blocks(n, n * n * m, n):
        shape = (min(tile, rows.stop - rows.start), n)
        jobs.append((rows, np.empty(shape, dtype=np.uint8), np.empty(shape, dtype=np.uint8)))
    _fill_row_blocks(fill, jobs)
    return counts


def _difference_table(d: np.ndarray) -> np.ndarray:
    """Difference-mode table, summed over blocks of rows.

    Each row block (see ``_row_blocks``) subtracts a few rows at a time into
    its own buffer and sums it into those rows of the table. The buffers
    together hold at most ``_BLOCK_CELLS`` differences, or one row each, so
    there are no more workers than budgeted rows. Each cell is the same
    pairwise sum over the same contiguous m values as the whole-tensor
    expression, so it is bit-identical to it.
    """
    n, m = d.shape
    budget_rows = max(1, _BLOCK_CELLS // (n * m))
    blocks = _row_blocks(n, n * n * m, min(n, budget_rows))
    rows = budget_rows // len(blocks)
    counts = np.empty((n, n))

    def fill(block: slice, buf: np.ndarray) -> None:
        for start in range(block.start, block.stop, rows):
            r = slice(start, min(start + rows, block.stop))
            diff = buf[: r.stop - r.start]
            np.subtract(d[r, None, :], d[None, :, :], out=diff)
            diff.sum(axis=2, out=counts[r])

    jobs = [(b, np.empty((min(rows, b.stop - b.start), n, m))) for b in blocks]
    _fill_row_blocks(fill, jobs)
    return counts


def scores(table: ComparisonTable) -> ScoreReport:
    """Row sums, column sums and scores (row minus column) of a comparison table.

    A count table is summed into int64, whatever its own (narrower or
    unsigned) dtype, so sums cannot wrap and scores can be negative.
    """
    dtype = np.int64 if table.mode == "count" else None
    r = table.counts.sum(axis=1, dtype=dtype)
    t = table.counts.sum(axis=0, dtype=dtype)
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
        oid: (HIGH_RISK if score > threshold else HEALTHY)
        for oid, score in zip(report.universe, report.scores.tolist())
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


def _score_rows(report: ScoreReport):
    """``(object, row_sum, column_sum, score)`` per object, each array read once as Python numbers."""
    return zip(report.universe, report.row_sums.tolist(), report.column_sums.tolist(), report.scores.tolist())


def report_to_csv(report: ScoreReport, labels: Mapping[str, str] | None = None) -> str:
    """CSV rendering: ``object,row_sum,column_sum,score,prediction,label``."""
    fmt = number_format(report.mode)
    lines = ["object,row_sum,column_sum,score,prediction,label"]
    quoted, _ = quoted_ids(tuple(report.universe))  # the run's quoted IDs, shared with its tables
    for head, (oid, row_sum, column_sum, score) in zip(quoted, _score_rows(report)):
        pred = report.predictions.get(oid, "") if report.predictions else ""
        label = labels.get(oid, "") if labels else ""
        lines.append(f"{head},{fmt(row_sum)},{fmt(column_sum)},{fmt(score)},{pred},{label}")
    return "\n".join(lines) + "\n"


def format_report_text(report: ScoreReport, decimals: int = 2) -> str:
    """Aligned text table of row sums, column sums, scores and predictions."""
    fmt = number_format(report.mode, decimals)
    rows = [("Sample No", "Row Sum", "Column Sum", "Score", "Prediction")]
    for oid, row_sum, column_sum, score in _score_rows(report):
        pred = report.predictions.get(oid, "") if report.predictions else ""
        rows.append((oid, fmt(row_sum), fmt(column_sum), fmt(score), pred))
    widths = [max(len(r[c]) for r in rows) for c in range(5)]
    lines = ["  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip() for row in rows]
    if report.accuracy is not None:
        lines.append(f"accuracy: {report.accuracy:.2f}")
    return "\n".join(lines) + "\n"
