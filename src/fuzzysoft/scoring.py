"""Comparison-table scoring and risk classification.

Objects are ranked by comparing their degree rows pairwise across all
parameters. Count mode tallies, for each ordered pair (i, j), the number of
parameters on which object i's degree is at least object j's; difference mode
sums the degree differences instead. An object's score is its comparison-table
row sum minus its column sum; higher scores rank as higher risk. The tables'
and the score reports' text is in ``text``.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .softset import FuzzySoftSet, Levels, _code_dtype
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
    """Square pairwise-comparison matrix over an ordered universe.

    A C-contiguous ``counts`` is kept, not copied, and made read-only, the caller's array too.
    """

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
    Count mode skips the comparisons a row wins outright: where a row is at its
    column's top level, within eps, it counts 1 against every row with no
    compare, and only the other cells are compared, in row tiles grouped by
    which columns their rows top (see ``_count_table``). Both modes cut their
    rows into tiles and give each worker (see ``_worker_count``) a contiguous
    share of them of about equal cost (see ``_cost_shares``). One worker runs
    on the calling thread; two or more each run on a pool thread while the
    calling thread waits (numpy releases the GIL in these loops). Every cell
    is the same integer or float whatever the worker count.
    """
    if not s.universe or not s.parameters:
        raise ValueError("comparison_table needs a non-empty universe and parameters")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    counts = _count_table(s.levels) if mode == "count" else _difference_table(s.degrees)
    return ComparisonTable(s.universe, counts, mode, parameter_count=len(s.parameters))


# Columns summed into the uint8 accumulator before it is flushed (255 cannot overflow).
_FLUSH_COLUMNS = 255
# Cells of one count tile (rows times n): its uint8 accumulator and int16 sums hold 0.5 and 1 MB.
_TILE_CELLS = 1 << 19
# Cells a count tile compares in one numpy call, with its partial-sum slab: 1 MB.
_CHUNK_CELLS = 1 << 20
# Rows a count tile reaches before it may end: runs of one saturation pattern
# shorter than this merge with the next, so that every numpy call stays large.
_TILE_FLOOR = 16
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


def _worker_count(tests: int) -> int:
    """One worker below ``_PARALLEL_TESTS`` pairwise tests, otherwise one per usable CPU."""
    return 1 if tests < _PARALLEL_TESTS else _usable_cpus()


def _fill_row_blocks(fill: Callable[..., None], jobs: list[tuple]) -> None:
    """Run ``fill(*job)`` for every job: one on the calling thread, more on a pool thread each.

    Every job finishes before the first failing job's error propagates. The
    caller allocates each job's buffers before any worker starts: glibc's
    per-thread arenas keep what worker threads free, raising the peak RSS.
    """
    if len(jobs) == 1:
        fill(*jobs[0])
        return
    from concurrent.futures import ThreadPoolExecutor  # here, not at import: it costs ~3 ms

    with ThreadPoolExecutor(len(jobs)) as pool:
        futures = [pool.submit(fill, *job) for job in jobs]
    for future in futures:
        future.result()


def _count_table(levels: Levels) -> np.ndarray:
    """Count-mode table from level codes: c[i, j] = #{e : pos_i(e) >= q_j(e)}.

    With the levels v (increasing) and a cell's code k, so that its degree is
    v[k] (-0.0 and 0.0 are one level), let pos = k = #{levels < d} and
    q = #{levels < x} with x = fl(d - eps), the same for every degree of
    one level. If d_i >= x_j, every level below x_j is below d_i, so
    pos_i >= q_j; if d_i < x_j, d_i's own level counts in q_j but not in
    pos_i, so pos_i < q_j. The test is therefore exactly the dense comparison
    ``d_i >= d_j - eps``, with the same float rounding.

    A cell with pos_i(e) >= max_j q_j(e) is saturated: row i is at or above
    every q_j(e), so it wins every comparison in column e, and that column
    adds exactly 1 to each of row i's n cells with no compare. With the max
    combiner and reduction off (432 columns), 53.1% of the product cells of
    the 116-row file are saturated, and 52-53% of those of its 1000-row
    resamples, in about 30 distinct row patterns; the max product of a
    finer spec has far fewer (about 1% with 14 partitions a variable), and
    then almost every column is compared. The rows are sorted and tiled by
    pattern (see ``_pattern_tiles``), and a tile compares only the
    columns where some of its rows is unsaturated; each other column adds
    the constant 1. A saturated cell inside a compared column compares as 1
    anyway, so every cell is the same integer as the dense comparison's.

    A tile compares a chunk of its columns in one 3-D ``greater_equal`` and
    sums the chunk on axis 0 into a uint8 accumulator, which is added into
    the tile's int16 sums every ``_FLUSH_COLUMNS`` columns, before it can
    overflow. Few, large numpy calls leave the workers little to contend
    for the GIL over. A chunk holds at most ``_CHUNK_CELLS`` cells and a tile at
    most ``max(1, _TILE_CELLS // n)`` rows; a tile of more than a third of
    ``_CHUNK_CELLS`` cells compares one column per chunk, which it adds into
    its accumulator as it is. The sums, which start at the tile's constant,
    are written to the tile's rows through the sort order. The sorted rows
    are cut into one contiguous share per worker (see ``_worker_count``) of
    about equal cost, a tile that a cut falls in split between two shares
    (see ``_cost_shares``), so that even rows of one pattern are spread over
    every worker. The workers' buffers, sized to the largest tile, are
    allocated here, on the calling thread, before the workers' pool starts
    (see ``_fill_row_blocks``). The table's cells are codes of the levels
    0..m (see ``ComparisonTable.levels``), so it is held in their code dtype, int16
    below 2**15 levels: 2 MB at n = 1000 and 200 MB at n = 10k, a quarter
    of int64. The buffers add less than 3 MB per worker, so memory is
    O(n^2 + n*m) whatever the worker count.
    """
    values, codes = levels
    n, m = codes.shape
    q = np.take(values.searchsorted(values - COMPARISON_EPSILON).astype(codes.dtype), codes.T)
    order, tiles = _pattern_tiles(codes >= q.max(axis=1), max(1, _TILE_CELLS // n))
    pos = codes[order]  # rows in tile order: each tile's rows are contiguous
    counts = np.zeros((n, n), dtype=_code_dtype(m + 1))
    # columns per compare chunk: the chunk and a partial-sum slab within _CHUNK_CELLS,
    # a short tile counted as _TILE_FLOOR rows
    shares = [
        [(a, b, cols, max(1, min(len(cols), _FLUSH_COLUMNS, _CHUNK_CELLS // (max(b - a, _TILE_FLOOR) * n) - 1)))
         for a, b, cols in share]
        for share in _cost_shares(tiles, _worker_count(n * n * m))
    ]

    def fill(share: list, acc_buf: np.ndarray, sum_buf: np.ndarray, work: np.ndarray,
             q_buf: np.ndarray, pos_buf: np.ndarray) -> None:
        for a, b, cols, k in share:
            r = b - a
            acc, total, part = (buf[: r * n].reshape(r, n) for buf in (acc_buf, sum_buf, work))
            rows, views = pos[a:b], {}
            total.fill(m - len(cols))  # each saturated column adds 1 to every cell
            for g in range(0, len(cols), _FLUSH_COLUMNS):
                group = cols[g : g + _FLUSH_COLUMNS]
                for c in range(0, len(group), k):
                    chunk = group[c : c + k]
                    w = len(chunk)
                    if w not in views:  # made once a tile for each chunk width: each call holds the GIL
                        qs, ps = q_buf[: w * n].reshape(w, n), pos_buf[: r * w].reshape(r, w)
                        hit = work[r * n : (w + 1) * r * n].reshape(w, r, n)  # after the partial-sum slab
                        views[w] = qs, ps, qs[:, None, :], ps.T[:, :, None], hit, hit.view(bool)
                    qs, ps, q3, p3, hit, hit_bool = views[w]
                    q.take(chunk, axis=0, out=qs, mode="clip")
                    rows.take(chunk, axis=1, out=ps, mode="clip")
                    np.greater_equal(p3, q3, out=hit_bool)
                    if c == 0:
                        np.add.reduce(hit, axis=0, dtype=np.uint8, out=acc)
                    elif w == 1:  # one column: added as it is, with no partial sum to copy
                        np.add(acc, hit[0], out=acc)
                    else:
                        np.add.reduce(hit, axis=0, dtype=np.uint8, out=part)
                        np.add(acc, part, out=acc)
                np.add(total, acc, out=total)
            counts[order[a:b]] = total

    tiles = [tile for share in shares for tile in share]
    rows = max(b - a for a, b, _, _ in tiles)
    width = max(k for *_, k in tiles)
    slab = max((k + 1) * (b - a) for a, b, _, k in tiles) * n
    jobs = [
        (share, np.empty(rows * n, np.uint8), np.empty(rows * n, counts.dtype), np.empty(slab, np.uint8),
         np.empty(width * n, q.dtype), np.empty(rows * width, pos.dtype))
        for share in shares
    ]
    _fill_row_blocks(fill, jobs)
    return counts


def _pattern_tiles(sat: np.ndarray, cap: int) -> tuple[np.ndarray, list[tuple[int, int, np.ndarray]]]:
    """The rows sorted by saturation pattern, and that order cut into row tiles.

    ``sat[i, e]`` says that row i wins every comparison in column e. Sorting
    the rows by their packed pattern makes each pattern's rows contiguous,
    with patterns that share their leading columns next to each other. A tile
    ``(a, b, cols)`` covers the sorted rows a..b-1, and ``cols`` are the
    columns where at least one of them is unsaturated. A pattern of at least
    ``_TILE_FLOOR`` rows makes its own tiles; shorter runs of patterns merge
    with their neighbours until a tile reaches ``_TILE_FLOOR`` rows, so that
    every numpy call stays large. No tile has more than ``cap`` rows.
    """
    n, m = sat.shape
    packed = np.packbits(sat, axis=1)
    order = np.lexsort(packed.T[::-1])
    packed = packed[order]
    starts = [0, *(np.flatnonzero((packed[1:] != packed[:-1]).any(axis=1)) + 1).tolist(), n]
    cuts = [0]

    def cut(stop: int) -> None:  # end tiles at ``stop``, none of them over ``cap`` rows
        cuts.extend(range(min(cuts[-1] + cap, stop), stop + 1, cap))
        if cuts[-1] < stop:
            cuts.append(stop)

    for a, b in zip(starts, starts[1:]):  # the rows of one pattern
        long = b - a >= _TILE_FLOOR
        if long and cuts[-1] < a:
            cut(a)  # the short runs before a long one make their own tile
        if long or b - cuts[-1] >= _TILE_FLOOR:
            cut(b)
    if cuts[-1] < n:
        cut(n)
    # a column is skipped only where every row of the tile is saturated
    everywhere = np.unpackbits(np.bitwise_and.reduceat(packed, cuts[:-1], axis=0), axis=1, count=m)
    return order, [(a, b, np.flatnonzero(everywhere[t] == 0)) for t, (a, b) in enumerate(zip(cuts, cuts[1:]))]


def _cost_shares(tiles: list[tuple[int, int, np.ndarray]], workers: int) -> list[list[tuple[int, int, np.ndarray]]]:
    """The tiles' rows cut into at most ``workers`` contiguous shares of about equal cost.

    A row costs its tile's compared columns plus one, for its sums. Each row
    goes to the share in which the middle of its cost falls, so no share costs
    more than an even share plus one row, at most m + 1. A tile that a share
    boundary cuts is split between the two shares, each part keeping the
    tile's columns: a saturated cell in a compared column compares as 1, so
    the split is exact. A share that no row falls in is dropped.
    """
    cost = np.repeat([len(cols) + 1 for _, _, cols in tiles], [b - a for a, b, _ in tiles])
    ends = np.cumsum(cost)
    share = (2 * ends - cost) * workers // (2 * int(ends[-1]))  # the share of each row's middle
    bounds = np.searchsorted(share, np.arange(workers + 1)).tolist()
    return [
        [(max(a, lo), min(b, hi), cols) for a, b, cols in tiles if a < hi and lo < b]
        for lo, hi in zip(bounds, bounds[1:])
        if lo < hi
    ]


def _difference_table(d: np.ndarray) -> np.ndarray:
    """Difference-mode table, summed over row tiles of all m columns.

    The workers take the tiles in contiguous shares (see ``_cost_shares``).
    Each subtracts one tile at a time into its own buffer, sized to its
    largest tile, and sums it into those rows of the table. The buffers
    together hold at most ``_BLOCK_CELLS`` differences, or one row each, so
    there are no more workers than budgeted rows. Each cell is the same
    pairwise sum over the same contiguous m values as the whole-tensor
    expression, so it is bit-identical to it.
    """
    n, m = d.shape
    budget_rows = max(1, _BLOCK_CELLS // (n * m))
    workers = min(_worker_count(n * n * m), budget_rows)
    height, columns = budget_rows // workers, np.arange(m)
    shares = _cost_shares([(a, min(a + height, n), columns) for a in range(0, n, height)], workers)
    counts = np.empty((n, n))

    def fill(share: list, buf: np.ndarray) -> None:
        for a, b, _ in share:
            np.subtract(d[a:b, None, :], d[None, :, :], out=buf[: b - a])
            buf[: b - a].sum(axis=2, out=counts[a:b])

    jobs = [(share, np.empty((max(b - a for a, b, _ in share), n, m))) for share in shares]
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
    unknown = {*labels.values()} - {*_PREDICTION_FOR_LABEL} | {*predictions.values()} - {HIGH_RISK, HEALTHY}
    if unknown:
        raise ValueError(
            f"unknown classes {sorted(map(repr, unknown))}: labels must be {PATIENT!r} or "
            f"{HEALTHY_CONTROL!r} and predictions {HIGH_RISK!r} or {HEALTHY!r}"
        )
    correct = sum(predictions[oid] == _PREDICTION_FOR_LABEL[label] for oid, label in labels.items())
    return correct / len(labels)
