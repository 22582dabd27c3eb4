import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fuzzysoft import scoring
from fuzzysoft import (
    HEALTHY,
    HEALTHY_CONTROL,
    HIGH_RISK,
    PATIENT,
    FuzzySoftSet,
    PipelineConfig,
    classify,
    comparison_table,
    evaluate,
    format_report_text,
    fuzzify_cohort,
    load_csv,
    product,
    product_n,
    report_to_csv,
    run_pipeline,
    scores,
)
from fuzzysoft.scoring import COMPARISON_EPSILON, MODES
from fuzzysoft.fixtures import (
    GROUND_TRUTH,
    PUBLISHED_SCORE_ROWS,
    published_comparison_table,
    published_product_table,
)
from reference import dense_count, dense_difference, dense_saturation, soft_set

MU = "μ_"


def test_two_object_count_table_by_hand():
    s = FuzzySoftSet(("a", "b"), ("p", "q"), np.array([[0.5, 0.5], [0.3, 0.7]]))
    table = comparison_table(s, "count")
    assert table.counts.tolist() == [[2, 1], [1, 2]]


def test_comparison_epsilon_is_one_billionth():
    # a gap of 5e-9 is a tie at 1e-8 but not at 1e-9
    s = FuzzySoftSet(("a", "b"), ("p", "q"), np.array([[0.5, 0.25], [0.5 - 5e-9, 0.25]]))
    table = comparison_table(s, "count")
    assert table.counts.tolist() == [[2, 2], [1, 2]]
    assert scores(table).scores.tolist() == [1, -1]


def test_count_diagonal_equals_parameter_count(computed_sets):
    for s in computed_sets.values():
        table = comparison_table(s, "count")
        assert np.all(np.diag(table.counts) == len(s.parameters))


def test_published_product_diagonal_is_72():
    table = comparison_table(published_product_table(), "count")
    assert np.all(np.diag(table.counts) == 72)


@pytest.mark.parametrize("m, dtype", [(32766, np.int16), (32767, np.int32)])
def test_count_table_is_held_in_its_level_code_dtype(m, dtype):
    degrees = np.random.default_rng(m).random((2, m))
    table = comparison_table(soft_set(degrees), "count")
    want = dense_count(degrees)
    assert table.counts.dtype == dtype
    assert np.array_equal(table.counts, want)
    report = scores(table)
    # the row sums pass 2**15: summed in int16 they would wrap
    assert report.row_sums.dtype == report.column_sums.dtype == np.int64
    assert report.row_sums.tolist() == want.sum(axis=1).tolist()
    assert report.column_sums.tolist() == want.sum(axis=0).tolist()


def test_scores_of_unsigned_counts_can_be_negative():
    counts = np.array([[2, 0], [2, 2]], dtype=np.uint8)
    table = scoring.ComparisonTable(("a", "b"), counts, "count", parameter_count=2)
    assert scores(table).scores.tolist() == [-2, 2]


def test_a_contiguous_comparison_table_is_kept_and_made_read_only():
    counts = np.array([[2, 0], [2, 2]], dtype=np.int16)
    table = scoring.ComparisonTable(("a", "b"), counts, "count", parameter_count=2)
    assert table.counts is counts and not counts.flags.writeable
    other = np.asfortranarray([[0.0, -1.5], [1.5, 0.0]])
    table = scoring.ComparisonTable(("a", "b"), other, "difference", parameter_count=2)
    assert table.counts is not other and other.flags.writeable and not table.counts.flags.writeable


def _near_epsilon_column(rng, n):
    """Degrees exactly eps apart, and eps plus or minus one ulp apart, in every order."""
    base = np.round(rng.uniform(0.1, 0.9, size=max(1, n // 6)), 3)
    gap = base + COMPARISON_EPSILON
    column = np.concatenate([
        base, gap, np.nextafter(gap, 2.0), np.nextafter(gap, -1.0),
        base - COMPARISON_EPSILON, np.nextafter(base - COMPARISON_EPSILON, -1.0),
    ])
    return rng.permutation(column)[:n]


@pytest.mark.parametrize("seed", range(6))
def test_count_table_equals_dense_tensor_with_forced_ties(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 80)), int(rng.integers(1, 60))
    degrees = np.round(rng.random((n, m)), int(rng.integers(1, 3)))  # 1-2 decimals: many ties
    assert np.array_equal(comparison_table(soft_set(degrees), "count").counts, dense_count(degrees))


@pytest.mark.parametrize("seed", range(4))
def test_count_table_equals_dense_tensor_at_epsilon_boundaries(seed):
    rng = np.random.default_rng(100 + seed)
    n = 60
    degrees = np.column_stack([_near_epsilon_column(rng, n) for _ in range(8)])
    assert len(np.unique(degrees)) > n  # the boundary values really are distinct floats
    assert np.array_equal(comparison_table(soft_set(degrees), "count").counts, dense_count(degrees))


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (9, 1)])
def test_count_table_equals_dense_tensor_at_minimal_shapes(shape):
    degrees = np.round(np.random.default_rng(7).random(shape), 1)
    assert np.array_equal(comparison_table(soft_set(degrees), "count").counts, dense_count(degrees))


def test_count_table_equals_dense_tensor_on_published_product():
    s = published_product_table()
    assert np.array_equal(comparison_table(s, "count").counts, dense_count(s.degrees))


def test_count_table_flushes_its_accumulator_without_overflow():
    # over 255 columns, and a pair that ties on every one: cells above uint8's range
    degrees = np.round(np.random.default_rng(11).random((30, 600)), 1)
    degrees[1] = degrees[0]
    counts = comparison_table(soft_set(degrees), "count").counts
    assert counts[0, 1] == counts[1, 0] == 600
    assert np.array_equal(counts, dense_count(degrees))


def _level_edge_degrees(rng, n, m):
    """Degrees with ties at eps and eps plus or minus one ulp, -0.0 beside 0.0, 5e-324 and 1.0."""
    pool = np.concatenate([
        _near_epsilon_column(rng, 30), [-0.0, 0.0, 5e-324, 1.0, COMPARISON_EPSILON, 1.0 - COMPARISON_EPSILON],
        np.nextafter([COMPARISON_EPSILON, 1.0 - COMPARISON_EPSILON], 2.0),
        np.nextafter([COMPARISON_EPSILON, 1.0 - COMPARISON_EPSILON], -1.0),
    ])
    return rng.choice(pool, size=(n, m))


def _check_levels(s):
    values, codes = s.levels
    assert np.all(np.diff(values) > 0) and not np.signbit(values).any()
    assert np.array_equal(values[codes], s.degrees)  # -0.0 == 0.0: one level


@pytest.mark.parametrize("seed", range(4))
def test_count_table_from_sorted_levels_equals_dense_tensor_at_level_edges(seed):
    rng = np.random.default_rng(200 + seed)
    s = soft_set(_level_edge_degrees(rng, 40, 9))
    assert np.signbit(s.degrees).any() and (s.degrees == 5e-324).any()
    _check_levels(s)
    assert np.array_equal(comparison_table(s, "count").counts, dense_count(s.degrees))


@pytest.mark.parametrize("combiner", ["max", "min"])
@pytest.mark.parametrize("seed", range(3))
def test_count_table_from_product_levels_equals_dense_tensor_at_level_edges(combiner, seed):
    rng = np.random.default_rng(300 + seed)
    n = 40
    sets = [
        soft_set(_level_edge_degrees(rng, n, m), f"v{k}e")
        for k, m in enumerate((3, 2, 4))
    ]
    prod = product_n(sets, combiner)
    assert "levels" in vars(prod)  # filled by product, not sorted on first use
    _check_levels(prod)
    assert np.array_equal(comparison_table(prod, "count").counts, dense_count(prod.degrees))
    # the same degrees with levels from a sort give the same table
    assert np.array_equal(comparison_table(soft_set(prod.degrees), "count").counts, dense_count(prod.degrees))


def test_product_levels_hold_int16_codes_and_widen_past_them():
    few = soft_set(np.round(np.random.default_rng(8).random((50, 4)), 2))
    assert few.levels.codes.dtype == np.int16
    many = soft_set(np.arange(2**15).reshape(-1, 2) / 2**15)
    assert many.levels.codes.dtype == np.int32
    wide = product(FuzzySoftSet(many.universe, ("a",), many.degrees[:, :1]),
                   FuzzySoftSet(many.universe, ("b",), many.degrees[:, 1:]), "max")
    assert len(wide.levels.values) == 2**15 and wide.levels.codes.dtype == np.int32
    _check_levels(wide)


@pytest.mark.parametrize("block_cells", [1, 5000, 1 << 21])
@pytest.mark.parametrize("shape", [(37, 17), (116, 30), (150, 100)])
def test_blocked_difference_table_is_bit_identical_to_dense(monkeypatch, block_cells, shape):
    monkeypatch.setattr(scoring, "_BLOCK_CELLS", block_cells)
    degrees = np.random.default_rng(shape[0]).random(shape)
    table = comparison_table(soft_set(degrees), "difference")
    assert np.array_equal(table.counts.view(np.int64), dense_difference(degrees).view(np.int64))


def test_count_table_memory_is_bounded():
    # the dense n x n x m boolean tensor alone would be about 432 MB here
    degrees = np.random.default_rng(5).random((1000, 432))
    s = soft_set(degrees)
    tracemalloc.start()
    try:
        comparison_table(s, "count")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def _force_workers(monkeypatch, workers):
    """Fill every table in row blocks on ``workers`` usable CPUs, however small.

    Returns the list to which each table appends the number of row blocks it used.
    """
    monkeypatch.setattr(scoring, "_usable_cpus", lambda: workers)
    monkeypatch.setattr(scoring, "_PARALLEL_TESTS", 0)
    used = []
    fill = scoring._fill_row_blocks
    monkeypatch.setattr(scoring, "_fill_row_blocks", lambda f, jobs: (used.append(len(jobs)), fill(f, jobs)))
    return used


def _partition_set(rng, name, n, k):
    """A variable's fuzzy partition of k triangles at integer centres: rows at half steps, so many 1.0 cells."""
    x = rng.integers(0, 2 * (k - 1) + 1, size=n)[:, None] / 2
    degrees = np.maximum(0.0, 1.0 - np.abs(x - np.arange(k)))
    return soft_set(degrees, name)


def _patterned_degrees(rng, runs, m, share=0.5):
    """Rows repeating a few saturation patterns, ``runs[p]`` rows of pattern p: 1.0 where saturated, below elsewhere.

    Each pattern saturates a column with probability ``share``.
    """
    patterns = rng.random((len(runs), m)) < share
    sat = np.repeat(patterns, runs, axis=0)
    return rng.permutation(np.where(sat, 1.0, np.round(rng.uniform(0.1, 0.9, sat.shape), 1)))


def _parallel_cases():
    rng = np.random.default_rng(400)
    flush = np.round(rng.random((30, 600)), 1)
    flush[1] = flush[0]  # ties on all 600 columns: a cell above uint8's range
    edge_sets = [
        soft_set(_level_edge_degrees(rng, 40, m), f"v{k}e")
        for k, m in enumerate((3, 2, 4))
    ]
    # a column's top level 1.0 tied within eps by 1 - 5e-10: rows at either saturate it
    tied = np.round(rng.random((50, 6)), 1)
    tied[rng.random(tied.shape) < 0.3] = 1.0
    tied[rng.random(tied.shape) < 0.3] = 1.0 - 5e-10
    tied[:, 0] = np.where(np.arange(50) % 2, 1.0 - 2e-9, 1.0 - 5e-10)  # 2e-9 below is not tied
    # every column constant, or all within eps of its top: every cell saturated
    flat = np.tile(np.round(rng.random(7), 2), (40, 1))
    flat[::3, 3:] += 5e-10
    # each column's top on its own row: one saturated cell per column, the fewest there can be
    lone = np.round(rng.uniform(0.0, 0.9, (40, 30)), 1)
    lone[np.arange(30), np.arange(30)] = 1.0
    return {
        "ties": soft_set(np.round(rng.random((53, 41)), 1)),
        "epsilon-ulps": soft_set(np.column_stack([_near_epsilon_column(rng, 60) for _ in range(8)])),
        "product-level-edges": product_n(edge_sets, "max"),
        "flush-600": soft_set(flush),
        "n=1": soft_set(np.round(rng.random((1, 5)), 1)),
        "n=2": soft_set(np.round(rng.random((2, 9)), 1)),
        "n=37": soft_set(np.round(rng.random((37, 13)), 1)),  # uneven over 2, 3 and 7 blocks
        "partition-max-product": product_n([_partition_set(rng, v, 120, k) for v, k in zip("abc", (3, 4, 3))], "max"),
        "top-tied-within-eps": soft_set(tied),
        "all-saturated": soft_set(flat),
        "one-saturated-row-per-column": soft_set(lone),
        # short runs of patterns merge up to the tile floor, around one run past it
        "patterns-merged-across-the-floor": soft_set(_patterned_degrees(rng, [3, 1, 5, 2, 4, 30, 2, 1, 6, 3, 5], 20)),
        # one pattern, with few saturated cells, holds nearly every row: one tile of 290 rows
        # (the last row tops every column, so that no other row saturates one by chance)
        "one-dominant-pattern": soft_set(np.vstack([_patterned_degrees(rng, [290, 4, 3, 2], 24, share=0.1), np.ones(24)])),
    }


PARALLEL_CASES = _parallel_cases()


@pytest.mark.parametrize("workers", [1, 2, 3, 7])
@pytest.mark.parametrize("case", sorted(PARALLEL_CASES))
def test_row_block_tables_equal_dense_tensor_on_any_worker_count(monkeypatch, case, workers):
    s = PARALLEL_CASES[case]
    n, m = s.degrees.shape
    used = _force_workers(monkeypatch, workers)
    want_count = dense_count(s.degrees)
    # the default tiles, then tiles of at most three rows, then compare chunks of one or
    # two columns, so that most tiles sum several chunks, the last one partial
    for tile_cells, chunk_cells in ((scoring._TILE_CELLS, scoring._CHUNK_CELLS), (3 * n, scoring._CHUNK_CELLS),
                                    (scoring._TILE_CELLS, 3 * scoring._TILE_FLOOR * n)):
        monkeypatch.setattr(scoring, "_TILE_CELLS", tile_cells)
        monkeypatch.setattr(scoring, "_CHUNK_CELLS", chunk_cells)
        assert np.array_equal(comparison_table(s, "count").counts, want_count)
    want = dense_difference(s.degrees).view(np.int64)
    # the default budget, then five rows of differences at a time
    for block_cells in (scoring._BLOCK_CELLS, 5 * n * m):
        monkeypatch.setattr(scoring, "_BLOCK_CELLS", block_cells)
        assert np.array_equal(comparison_table(s, "difference").counts.view(np.int64), want)
    assert used == [min(workers, n)] * 4 + [min(workers, n, 5)]


@pytest.mark.parametrize("case", sorted(PARALLEL_CASES))
def test_count_tiles_skip_only_the_columns_every_row_of_the_tile_wins(case):
    s = PARALLEL_CASES[case]
    n, m = s.degrees.shape
    sat = dense_saturation(s)
    values, codes = s.levels
    q = np.take(values.searchsorted(values - COMPARISON_EPSILON), codes.T)
    assert np.array_equal(codes >= q.max(axis=1), sat)
    for cap in (max(1, scoring._TILE_CELLS // n), 3):
        order, tiles = scoring._pattern_tiles(sat, cap)
        assert sorted(order.tolist()) == list(range(n))
        assert [a for a, _, _ in tiles] == [0] + [b for _, b, _ in tiles[:-1]] and tiles[-1][1] == n
        for a, b, cols in tiles:
            assert 0 < b - a <= cap
            skipped = np.setdiff1d(np.arange(m), cols)
            assert sat[order[a:b]][:, skipped].all()
            assert not sat[order[a:b]][:, cols].all(axis=0).any()
    # the default tiles of these cases skip all, none and some merged columns
    order, tiles = scoring._pattern_tiles(sat, max(1, scoring._TILE_CELLS // n))
    patterns = [len(np.unique(np.packbits(sat[order[a:b]], axis=1), axis=0)) for a, b, _ in tiles]
    if case == "all-saturated":
        assert [len(cols) for *_, cols in tiles] == [0]
    if case == "one-saturated-row-per-column":
        assert sat.sum(axis=0).tolist() == [1] * m and all(len(cols) == m for *_, cols in tiles)
    if case == "patterns-merged-across-the-floor":
        assert max(patterns) > 1 and any(p == 1 and b - a >= scoring._TILE_FLOOR for p, (a, b, _) in zip(patterns, tiles))
        assert any(p > 1 and len(cols) < m for p, (_, _, cols) in zip(patterns, tiles))
    if case == "top-tied-within-eps":
        tied = s.degrees == 1.0 - 5e-10
        assert tied.any() and sat[tied].all() and not sat[s.degrees == 1.0 - 2e-9].any()


@pytest.mark.parametrize("workers", [2, 3, 7])
@pytest.mark.parametrize("mode, case, budget_rows", [
    ("count", "partition-max-product", None),
    ("count", "one-dominant-pattern", None),
    ("difference", "partition-max-product", None),
    ("difference", "partition-max-product", 5),  # tiles of 5 // workers rows
    ("difference", "n=2", 5),
], ids=str)
def test_shares_cut_the_rows_into_even_costs(monkeypatch, mode, case, budget_rows, workers):
    s = PARALLEL_CASES[case]
    n, m = s.degrees.shape
    _force_workers(monkeypatch, workers)
    if budget_rows is not None:
        monkeypatch.setattr(scoring, "_BLOCK_CELLS", budget_rows * n * m)
    jobs = []
    fill = scoring._fill_row_blocks
    monkeypatch.setattr(scoring, "_fill_row_blocks", lambda f, js: (jobs.extend(js), fill(f, js)))
    counts = comparison_table(s, mode).counts
    if mode == "count":
        assert np.array_equal(counts, dense_count(s.degrees))
    else:
        assert np.array_equal(counts.view(np.int64), dense_difference(s.degrees).view(np.int64))
    shares = [[(tile[0], tile[1], len(tile[2])) for tile in job[0]] for job in jobs]
    # one worker a row; difference mode never more than it has budgeted rows
    assert len(shares) == min(workers, n, budget_rows or n)
    # one contiguous run of the (sorted) rows each, in order, every row once
    spans = [(a, b) for share in shares for a, b, _ in share]
    assert [a for a, _ in spans] == [0] + [b for _, b in spans[:-1]] and spans[-1][1] == n
    # a row costs its compared columns plus one: no share over an even share plus one row
    costs = [sum((b - a) * (k + 1) for a, b, k in share) for share in shares]
    assert max(costs) <= sum(costs) / len(shares) + m + 1
    # so no worker compares more cells than a row block of the even split, plus a row
    assert max(sum((b - a) * k for a, b, k in share) for share in shares) <= (n / len(shares) + 1) * (m + 1)
    if mode == "difference":  # each buffer holds its share's largest tile, together no more than the budgeted rows
        assert [job[1].shape for job in jobs] == [(max(b - a for a, b, _ in share), n, m) for share in shares]
        assert sum(job[1].shape[0] for job in jobs) <= (budget_rows or n)
    if case == "one-dominant-pattern":  # its 290-row tile was split between workers
        order, tiles = scoring._pattern_tiles(dense_saturation(s), max(1, scoring._TILE_CELLS // n))
        assert max(b - a for a, b, _ in tiles) == 290 > n / workers + 1


class _CountingNumpy:
    """numpy, whose ``greater_equal`` also counts the cells it writes."""

    def __init__(self):
        self.cells = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def greater_equal(self, *args, out):
        self.cells += out.size
        return np.greater_equal(*args, out=out)


def test_count_table_compares_fewer_cells_than_the_dense_tensor(monkeypatch, csv_116, specs):
    # the 116-row file with reduction off: 432 max-product columns, 53% of the cells saturated
    prod = product_n(fuzzify_cohort(load_csv(csv_116, specs=specs), specs), "max")
    n, m = prod.degrees.shape
    counting = _CountingNumpy()
    monkeypatch.setattr(scoring, "np", counting)
    counts = comparison_table(prod, "count").counts
    monkeypatch.undo()
    assert (n, m) == (116, 432)
    assert np.array_equal(counts, dense_count(prod.degrees))
    assert round(dense_saturation(prod).mean(), 3) == 0.531
    # two thirds of n * n * m = 5,812,992: the 30 row patterns merge into tiles of at least 16 rows
    assert counting.cells == 3_873_936


def test_row_block_threads_under_frequent_switches_lose_no_cell(monkeypatch):
    # more workers than cores, each making many small numpy calls into one shared table
    rng = np.random.default_rng(14)
    s = soft_set(np.round(rng.random((211, 57)), 1))
    want_count, want_difference = dense_count(s.degrees), dense_difference(s.degrees).view(np.int64)
    # and tables whose tiles skip saturated columns, in tiles of up to 7, 13, 16 and 2 rows
    saturated = [PARALLEL_CASES[c] for c in ("partition-max-product", "patterns-merged-across-the-floor", "top-tied-within-eps",
                                             "one-dominant-pattern")]
    want_saturated = [dense_count(t.degrees) for t in saturated]
    _force_workers(monkeypatch, 7)
    monkeypatch.setattr(scoring, "_TILE_CELLS", 4 * 211)
    monkeypatch.setattr(scoring, "_BLOCK_CELLS", 7 * 211 * 57)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert np.array_equal(comparison_table(s, "count").counts, want_count)
            assert np.array_equal(comparison_table(s, "difference").counts.view(np.int64), want_difference)
            for t, want in zip(saturated, want_saturated):
                assert np.array_equal(comparison_table(t, "count").counts, want)
    finally:
        sys.setswitchinterval(interval)


def test_row_blocks_run_on_threads_only_above_the_threshold(monkeypatch):
    import concurrent.futures

    pools = []
    real = concurrent.futures.ThreadPoolExecutor
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", lambda k: pools.append(k) or real(k))
    monkeypatch.setattr(scoring, "_usable_cpus", lambda: 2)
    s = soft_set(np.round(np.random.default_rng(13).random((64, 4096)), 1))
    assert 64 * 64 * 4096 == scoring._PARALLEL_TESTS
    for mode in MODES:
        comparison_table(s, mode)
    monkeypatch.setattr(scoring, "_PARALLEL_TESTS", 64 * 64 * 4096 + 1)
    for mode in MODES:
        comparison_table(s, mode)
    # one pool thread for each of the two blocks
    assert pools == [2, 2]


def test_row_blocks_run_every_job_on_a_pool_thread():
    ran = []
    scoring._fill_row_blocks(lambda k: ran.append((k, threading.get_ident())), [(k,) for k in range(4)])
    assert sorted(k for k, _ in ran) == [0, 1, 2, 3]
    assert [k for k, thread in ran if thread == threading.get_ident()] == []


class _JobError(Exception):
    pass


@pytest.mark.parametrize("failing", [{0}, {2}, {1, 2}], ids=["the-first-job", "the-last-job", "two-jobs"])
def test_a_failing_row_block_raises_its_own_error_after_every_job_finishes(failing):
    threads = threading.active_count()
    finished = []

    def fill(k):
        if k in failing:
            time.sleep(0.02 * (3 - k))  # a later job fails first
            raise _JobError(k)
        time.sleep(0.1)
        finished.append(k)

    with pytest.raises(_JobError) as raised:
        scoring._fill_row_blocks(fill, [(k,) for k in range(3)])
    assert raised.value.args == (min(failing),)
    assert sorted(finished) == sorted({0, 1, 2} - failing)
    assert threading.active_count() == threads


def test_count_buffers_are_bounded_by_their_tiles(monkeypatch):
    # two workers each buffering their whole 1500-row share would hold 18 MB besides the table
    s = soft_set(np.round(np.random.default_rng(6).random((3000, 8)), 2))
    used = _force_workers(monkeypatch, 2)
    tracemalloc.start()
    try:
        comparison_table(s, "count")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert used == [2]
    # the 18 MB int16 table and at most 2 MB of buffers per worker
    assert peak < 3000 * 3000 * 2 + 6 * 2**20


@pytest.mark.parametrize("workers", [None, 1, 2, 3, 7])
def test_difference_table_memory_is_bounded(monkeypatch, workers):
    # the dense n x n x m float64 tensor would be about 3.5 GB here
    if workers is not None:
        monkeypatch.setattr(scoring, "_usable_cpus", lambda: workers)
    s = soft_set(np.random.default_rng(5).random((1000, 432)))
    tracemalloc.start()
    try:
        comparison_table(s, "difference")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 8 MB table and at most 16 MB of differences
    assert peak < 24 * 2**20


def test_comparison_rejects_empty():
    with pytest.raises(ValueError):
        comparison_table(FuzzySoftSet((), ("p",), np.zeros((0, 1))), "count")
    with pytest.raises(ValueError):
        comparison_table(FuzzySoftSet(("a",), (), np.zeros((1, 0))), "count")
    with pytest.raises(ValueError):
        comparison_table(FuzzySoftSet(("a",), ("p",), np.array([[0.5]])), "median")


def test_count_table_rejects_cells_outside_zero_to_m():
    ids = ("a", "b")
    table = scoring.ComparisonTable(ids, np.array([[2, 0], [1, 2]]), "count", parameter_count=2)
    assert table.levels.values.tolist() == [0, 1, 2] and table.levels.codes is table.counts
    # a negative code would wrap in np.take; a float one cannot index
    for bad in ([[2, -1], [1, 2]], [[2, 3], [1, 2]], [[2.0, 0.0], [1.0, 2.0]]):
        with pytest.raises(ValueError, match=r"integers in \[0, 2\]"):
            scoring.ComparisonTable(ids, np.array(bad), "count", parameter_count=2)
        # difference cells are any sums, rendered from each block's own levels
        assert scoring.ComparisonTable(ids, np.array(bad), "difference", parameter_count=2).levels is None


def test_published_comparison_scores_exactly():
    report = scores(published_comparison_table())
    assert report.triple(f"{MU}60") == (176, 617, -441)
    assert report.triple(f"{MU}3") == (459, 509, -50)
    for oid, want in PUBLISHED_SCORE_ROWS.items():
        assert report.triple(oid) == want
    assert int(report.scores.sum()) == 0


def test_scores_sum_to_zero_on_random_tables():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 13))
        s = soft_set(rng.random((n, m)))
        for mode in ("count", "difference"):
            report = scores(comparison_table(s, mode))
            assert abs(float(report.scores.sum())) < 1e-9


def test_classify_published_scores_at_zero_threshold():
    report = scores(published_comparison_table())
    predictions = classify(report, 0.0)
    high = {oid for oid, p in predictions.items() if p == HIGH_RISK}
    assert high == {f"{MU}31", f"{MU}45", f"{MU}71", f"{MU}82", f"{MU}91", f"{MU}104"}


def test_score_of_exactly_zero_is_healthy():
    report = scores(
        comparison_table(FuzzySoftSet(("a", "b"), ("p",), np.array([[0.5], [0.5]])), "count")
    )
    assert report.scores.tolist() == [0, 0]
    assert set(classify(report, 0.0).values()) == {HEALTHY}


def test_all_negative_scores_mean_no_high_risk():
    report = scores(published_comparison_table())
    predictions = classify(report, 1000.0)
    assert set(predictions.values()) == {HEALTHY}


def test_evaluate_published_split_is_seventy_percent():
    report = scores(published_comparison_table())
    predictions = classify(report, 0.0)
    assert evaluate(predictions, GROUND_TRUTH) == pytest.approx(0.70)


def test_evaluate_perfect_and_flipped():
    labels = {f"o{i}": (PATIENT if i < 4 else HEALTHY_CONTROL) for i in range(10)}
    perfect = {o: (HIGH_RISK if l == PATIENT else HEALTHY) for o, l in labels.items()}
    assert evaluate(perfect, labels) == 1.0
    seventy = dict(perfect)
    for o in ("o0", "o4", "o5"):  # break three calls: 7 correct
        seventy[o] = HIGH_RISK if seventy[o] == HEALTHY else HEALTHY
    assert evaluate(seventy, labels) == pytest.approx(0.7)
    flipped = {o: (HIGH_RISK if p == HEALTHY else HEALTHY) for o, p in seventy.items()}
    assert evaluate(flipped, labels) == pytest.approx(0.3)


def test_evaluate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        evaluate({}, {})
    with pytest.raises(ValueError):
        evaluate({"a": HIGH_RISK}, {"b": PATIENT})
    # an unknown label or prediction is an error, not a miss
    with pytest.raises(ValueError, match="'foo'"):
        evaluate({"a": HIGH_RISK}, {"a": "foo"})
    with pytest.raises(ValueError, match="'maybe'"):
        evaluate({"a": "maybe", "b": HEALTHY}, {"a": PATIENT, "b": HEALTHY_CONTROL})
    with pytest.raises(ValueError, match=f"'{PATIENT}'"):  # a label in place of a call
        evaluate({"a": PATIENT}, {"a": PATIENT})
    with pytest.raises(ValueError, match=f"'{HEALTHY}'"):  # a call in place of a label
        evaluate({"a": HEALTHY}, {"a": HEALTHY})


def _score_by_hand(sets, combiner="max", mode="count", threshold=0.0):
    report = scores(comparison_table(product_n(sets, combiner), mode))
    return replace(report, predictions=classify(report, threshold))


def test_pipeline_equals_hand_composition(tmp_path, cohort, specs):
    cfg = PipelineConfig(combiner="min", mode="difference", threshold=0.1, reduction="off",
                         out_dir=str(tmp_path))
    report = run_pipeline(cfg).report
    by_hand = _score_by_hand(fuzzify_cohort(cohort, specs), "min", "difference", 0.1)
    assert np.array_equal(report.scores, by_hand.scores)
    assert report.parameter_count == by_hand.parameter_count == 432
    assert report.predictions == by_hand.predictions


def test_pipeline_on_single_set_matches_direct_comparison(computed_sets):
    s = computed_sets["LPN"]
    report = _score_by_hand([s])
    direct = scores(comparison_table(s, "count"))
    assert np.array_equal(report.scores, direct.scores)


def test_pipeline_is_deterministic(computed_sets):
    sets = list(computed_sets.values())
    a = _score_by_hand(sets)
    b = _score_by_hand(sets)
    assert np.array_equal(a.scores, b.scores)
    assert a.predictions == b.predictions


def test_difference_table_is_antisymmetric(computed_sets):
    table = comparison_table(computed_sets["ADP"], "difference")
    assert np.allclose(table.counts, -table.counts.T)
    assert np.allclose(np.diag(table.counts), 0.0)


def test_difference_scores_are_twice_centered_choice_values():
    # score_i = 2 * (n * f_i - sum of choice values) in difference mode
    rng = np.random.default_rng(9)
    for _ in range(20):
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 13))
        degrees = rng.random((n, m))
        s = soft_set(degrees)
        report = scores(comparison_table(s, "difference"))
        f = degrees.sum(axis=1)
        assert np.allclose(report.scores, 2 * (n * f - f.sum()))


def test_report_csv_layout():
    report = scores(published_comparison_table())
    report = replace(report, predictions=classify(report, 0.0))
    text = report_to_csv(report, GROUND_TRUTH)
    lines = text.splitlines()
    assert lines[0] == "object,row_sum,column_sum,score,prediction,label"
    assert lines[1] == f"{MU}3,459,509,-50,healthy,healthy-control"
    assert lines[6] == f"{MU}60,176,617,-441,healthy,patient"


def test_report_text_contains_accuracy_line():
    report = scores(published_comparison_table())
    report = replace(report, predictions=classify(report, 0.0), accuracy=0.7)
    text = format_report_text(report)
    assert "accuracy: 0.70" in text
    assert text.splitlines()[1].startswith(f"{MU}3")
