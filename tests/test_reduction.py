import gc
import importlib.util
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fuzzysoft import (
    FuzzySoftSet,
    choice_values,
    find_reductions,
    fuzzify_cohort,
    load_csv,
    optimal_objects,
    reduction,
    restrict,
    specs_from_json,
)
from fuzzysoft.reduction import _BLOCK_CELLS, TIE_EPSILON, _minimal_masks, _subset_sums
from reference import brute_force_reductions, dispensable, minimal_flagged, per_subset_reductions, soft_set, subset_sum

MU = "μ_"

OPTIMAL_COHORT = frozenset({f"{MU}3", f"{MU}31", f"{MU}45", f"{MU}82", f"{MU}91"})


def test_choice_values_on_published_age_table(published_sets):
    f = choice_values(published_sets["AGE"])
    by_id = dict(zip(published_sets["AGE"].universe, f))
    assert by_id[f"{MU}3"] == pytest.approx(1.0)
    assert by_id[f"{MU}104"] == pytest.approx(0.66)


def test_choice_values_all_zero_set():
    s = FuzzySoftSet(("a", "b"), ("p", "q"), np.zeros((2, 2)))
    assert choice_values(s).tolist() == [0.0, 0.0]


def test_optimal_objects_of_published_age_table(published_sets):
    assert optimal_objects(published_sets["AGE"]) == OPTIMAL_COHORT


def test_optimal_objects_single_object():
    s = FuzzySoftSet(("only",), ("p",), np.array([[0.4]]))
    assert optimal_objects(s) == frozenset({"only"})


def test_optimal_objects_exact_tie():
    s = FuzzySoftSet(("a", "b"), ("p", "q"), np.array([[0.3, 0.7], [0.3, 0.7]]))
    assert optimal_objects(s) == frozenset({"a", "b"})


def test_optimal_objects_absorbs_gaps_up_to_tie_epsilon():
    degrees = np.array([[0.5, 0.5], [0.5, 0.5 - TIE_EPSILON / 2], [0.5, 0.5 - 2 * TIE_EPSILON]])
    s = FuzzySoftSet(("a", "b", "c"), ("p", "q"), degrees)
    assert optimal_objects(s) == frozenset({"a", "b"})


def test_optimal_objects_rejects_empty_universe():
    s = FuzzySoftSet((), ("p",), np.zeros((0, 1)))
    with pytest.raises(ValueError):
        optimal_objects(s)


def test_constant_column_is_dispensable(computed_sets):
    s = computed_sets["AGE"]
    widened = FuzzySoftSet(
        s.universe,
        s.parameters + ("const",),
        np.hstack([s.degrees, np.full((len(s.universe), 1), 0.42)]),
    )
    assert dispensable(widened, {"const"})


def test_dispensability_flip_example():
    s = FuzzySoftSet(("h1", "h2"), ("e1", "e2"), np.array([[1.0, 0.0], [0.0, 0.5]]))
    # dropping e1 moves the optimum from h1 to h2
    assert optimal_objects(s) == frozenset({"h1"})
    assert optimal_objects(restrict(s, {"e2"})) == frozenset({"h2"})
    assert not dispensable(s, {"e1"})


def test_empty_subset_is_vacuously_dispensable(computed_sets):
    assert dispensable(computed_sets["BMI"], set())


def test_single_determining_column_appears_as_reduct():
    degrees = np.array(
        [
            [1.0, 0.2, 0.3],
            [0.4, 0.8, 0.1],
            [0.1, 0.1, 0.3],
        ]
    )
    s = FuzzySoftSet(("h1", "h2", "h3"), ("e1", "e2", "e3"), degrees)
    results = find_reductions(s)
    # e1 alone pins the optimum to h1, so it is the unique minimal reduct;
    # all 7 subsets are enumerated by the oracle
    assert [frozenset(r.reduct) for r in results] == brute_force_reductions(s) == [frozenset({"e1"})]


def test_full_parameter_set_is_fallback_reduct():
    # optimum needs both columns, so the only reduct is the full set
    s = FuzzySoftSet(("h1", "h2"), ("e1", "e2"), np.array([[1.0, 0.0], [0.0, 1.0]]))
    results = find_reductions(s)
    assert len(results) == 1
    assert results[0].reduct == ("e1", "e2")
    assert results[0].dispensable == ()


def test_parameter_cap_refusal():
    # the optimal row is non-zero on all three parameters, so all three are searched
    s = FuzzySoftSet(("h1", "h2"), ("e1", "e2", "e3"), np.array([[0.5, 0.25, 0.75], [0.25, 0.5, 0.25]]))
    with pytest.raises(ValueError, match=r"over 3 parameters \(cap is 2\)"):
        find_reductions(s, cap=2)


def _age_triangles(count, half):
    """``count`` triangles with peaks evenly spread over the cohort's ages, ``half`` spacings wide on each side."""
    peaks = np.linspace(24.0, 89.0, count)
    width = half * (peaks[1] - peaks[0])
    parts = [{"label": f"P{k:02d}", "nodes": [[p - width, 0.0], [p, 1.0], [p + width, 0.0]]} for k, p in enumerate(peaks)]
    specs = specs_from_json(json.dumps([{"name": "AGE", "column": "Age", "partitions": parts}]))
    (s,) = fuzzify_cohort(load_csv(Path(__file__).parent / "data" / "blood_markers_116.csv", specs=specs), specs)
    return s


def test_a_variable_wider_than_the_cap_reduces_when_its_optimal_rows_are_narrow():
    # 24 partitions; each age is non-zero on at most three neighbouring triangles,
    # and the optimal ages sit at two peaks, so six parameters are searched
    s = _age_triangles(24, 1.5)
    target = optimal_objects(s)
    in_target = [oid in target for oid in s.universe]
    searched = {s.parameters[j] for j in np.flatnonzero((s.degrees[in_target] != 0).any(axis=0))}
    assert len(s.parameters) == 24 and len(searched) == 6
    results = find_reductions(s)
    assert results
    for result in results:
        assert set(result.reduct) <= searched
        assert optimal_objects(restrict(s, result.reduct)) == target
        for drop in result.reduct:
            remaining = [p for p in result.reduct if p != drop]
            assert not remaining or optimal_objects(restrict(s, remaining)) != target


def test_a_dense_variable_wider_than_the_cap_is_refused():
    # 24 triangles, each wide enough to cover every age: every row is non-zero on all of them
    s = _age_triangles(24, 30.0)
    assert (s.degrees != 0).all()
    with pytest.raises(ValueError, match=r"over 24 parameters \(cap is 20\)"):
        find_reductions(s)


def test_age_set_reduces_to_old_alone(computed_sets):
    results = find_reductions(computed_sets["AGE"])
    assert [r.reduct for r in results] == [("(AGE)_O",)]
    assert results[0].optimal_objects == OPTIMAL_COHORT
    assert results[0].dispensable == ("(AGE)_C", "(AGE)_Y", "(AGE)_M")


def test_per_variable_reducts_of_the_cohort(computed_sets):
    expected = {
        "AGE": [("(AGE)_O",)],
        "BMI": [("(BMI)_OIII",)],
        "INS": [("(INS)_H",)],
        "LPN": [("(LPN)_VH",)],
        "ADP": [("(ADP)_L", "(ADP)_H")],
    }
    for var, want in expected.items():
        got = [r.reduct for r in find_reductions(computed_sets[var])]
        assert got == want, var


def test_every_reduct_preserves_the_optimal_set(computed_sets):
    for var, s in computed_sets.items():
        target = optimal_objects(s)
        for result in find_reductions(s):
            assert optimal_objects(restrict(s, result.reduct)) == target, var


def test_reducts_are_minimal(computed_sets):
    for s in computed_sets.values():
        for result in find_reductions(s):
            for drop in result.reduct:
                remaining = tuple(p for p in result.reduct if p != drop)
                if remaining:
                    assert optimal_objects(restrict(s, remaining)) != optimal_objects(s)


def test_choice_values_additive_over_disjoint_column_splits(computed_sets):
    # summing over all parameters equals the sum of any complementary restriction pair
    s = computed_sets["LPN"]
    part_b = {"(LPN)_L", "(LPN)_VH"}
    part_rest = set(s.parameters) - part_b
    total = choice_values(s)
    split = choice_values(restrict(s, part_b)) + choice_values(restrict(s, part_rest))
    assert np.allclose(total, split)


def test_agreement_with_brute_force_on_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        degrees = rng.random((n, m)).round(1)  # rounding provokes ties
        s = soft_set(degrees)
        got = [frozenset(r.reduct) for r in find_reductions(s)]
        assert got == brute_force_reductions(s)


def _tied_degrees(rng, n, m):
    """Coarsely rounded degrees, with some rows copied and moved by eps or eps +- 1 ulp."""
    degrees = rng.random((n, m)).round(int(rng.integers(0, 3)))
    for _ in range(int(rng.integers(0, 4)) if n > 1 else 0):
        src, dst = rng.choice(n, size=2, replace=False)
        j = int(rng.integers(m))
        row = degrees[src].copy()
        gap = TIE_EPSILON * rng.choice([0.0, 1.0, 0.5])
        shifted = row[j] - gap if row[j] >= gap else row[j] + gap
        row[j] = np.clip([shifted, np.nextafter(shifted, 0.0), np.nextafter(shifted, 1.0)][int(rng.integers(3))], 0, 1)
        degrees[dst] = row
    return np.asfortranarray(degrees) if rng.random() < 0.5 else degrees


def test_search_equals_per_subset_reference_on_tied_inputs():
    rng = np.random.default_rng(2026)
    shapes = [(1, m) for m in range(1, 10)] + [(700, 10), (700, 9)]
    shapes += [(int(rng.integers(2, 40)), int(rng.integers(1, 11))) for _ in range(150)]
    for n, m in shapes:
        s = soft_set(_tied_degrees(rng, n, m))
        assert find_reductions(s) == per_subset_reductions(s), (n, m)


def _partition_degrees(rng, n, m):
    """Rows shaped like fuzzy partitions, with ties that cross row supports.

    Most rows are non-zero on 2-4 neighbouring parameters (quarter steps, so
    equal sums are exact); some are all zero, some dense. Then rows are
    copied (groups of several rows), moved to another window (equal sums over
    another support), cut at one end (a strict subset of a support) or moved
    by eps, eps +- 1 ulp or eps / 2, and some zero cells become -0.0.
    """
    degrees = np.zeros((n, m))
    for i in range(n):
        kind = rng.random()
        if kind < 0.1:
            continue
        if kind < 0.2:
            degrees[i] = rng.integers(0, 5, size=m) / 4
            continue
        width = min(m, int(rng.integers(2, 5)))
        start = int(rng.integers(0, m - width + 1))
        degrees[i, start : start + width] = rng.integers(1, 5, size=width) / 4
    for _ in range(int(rng.integers(0, 2 * n + 1)) if n > 1 else 0):
        src, dst = (int(i) for i in rng.choice(n, size=2, replace=False))
        if rng.random() < 0.3:  # often the best row, so ties reach the optimal set
            src = int(np.argmax(degrees.sum(axis=1)))
        row = degrees[src].copy()
        support = np.flatnonzero(row)
        op = rng.integers(4)
        if op == 1 and support.size and support[-1] + 1 < m:
            row = np.roll(row, int(rng.integers(1, m - support[-1])))
        elif op == 2 and support.size > 1:
            row[support[0] if rng.random() < 0.5 else support[-1]] = 0.0
        elif op == 3 and support.size:
            j = int(rng.choice(support))
            shifted = row[j] - TIE_EPSILON * rng.choice([1.0, 0.5]) if row[j] > 0.5 else row[j] + TIE_EPSILON
            row[j] = [shifted, np.nextafter(shifted, 0.0), np.nextafter(shifted, 1.0)][int(rng.integers(3))]
        degrees[dst] = row
    degrees[(degrees == 0) & (rng.random((n, m)) < 0.3)] = -0.0
    return degrees


def test_search_equals_per_subset_reference_on_fuzzy_partition_rows():
    rng = np.random.default_rng(1604)
    shapes = [(1, m) for m in range(1, 8)] + [(116, 14), (60, 14), (40, 13), (200, 12)]
    shapes += [(int(rng.integers(2, 40)), int(rng.integers(1, 11))) for _ in range(250)]
    seen = {"targets of 2+ supports": 0, "strict sub-support": 0, "-0.0 cells": 0, "empty rows": 0, "1-row supports": 0}
    for n, m in shapes:
        degrees = _partition_degrees(rng, n, m)
        s = soft_set(degrees)
        assert find_reductions(s) == per_subset_reductions(s), (n, m)
        supports = [frozenset(np.flatnonzero(row).tolist()) for row in degrees]
        target = [i for i, oid in enumerate(s.universe) if oid in optimal_objects(s)]
        seen["targets of 2+ supports"] += len({supports[i] for i in target}) > 1
        seen["strict sub-support"] += any(a < b for a in set(supports) for b in set(supports))
        seen["-0.0 cells"] += bool(np.signbit(degrees).any())
        seen["empty rows"] += frozenset() in supports
        seen["1-row supports"] += any(supports.count(a) == 1 for a in set(supports))
    assert min(seen.values()) >= 20, seen


def test_search_splits_eps_ties_across_row_supports():
    # Rows 0 and 1 share a support, so their min and max decide the
    # threshold; rows 2 and 3 each have their own support and sum to the
    # threshold, or 1 ulp above it, or 1 ulp below it (t - 0.75 is exact).
    threshold = 1.25 - TIE_EPSILON
    for t2, t3 in [(threshold, np.nextafter(threshold, 0.0)), (np.nextafter(threshold, 2.0), threshold)]:
        degrees = np.array(
            [
                [0.75, 0.5, 0.0, 0.0, 0.0],
                [0.75, 0.5, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.75, t2 - 0.75, 0.0],
                [0.0, 0.0, 0.0, 0.75, t3 - 0.75],
            ]
        )
        s = soft_set(degrees)
        assert choice_values(s).tolist() == [1.25, 1.25, t2, t3]
        assert optimal_objects(s) == ({"h0", "h1", "h2", "h3"} if t3 == threshold else {"h0", "h1", "h2"})
        assert find_reductions(s) == per_subset_reductions(s), (t2, t3)


def test_tie_epsilon_is_one_billionth():
    # a gap of 5e-9 is a tie at 1e-8 but not at 1e-9
    s = soft_set(np.array([[0.5, 0.2], [0.5 - 5e-9, 0.2]]))
    assert optimal_objects(s) == frozenset({"h0"})
    assert [r.reduct for r in find_reductions(s)] == [("e0",)]
    # the same gap between row pairs on two supports
    pair = np.array([[0.5, 0.2, 0.0, 0.0], [0.0, 0.0, 0.2, 0.5 - 5e-9]])
    s = soft_set(pair.repeat(2, axis=0))
    assert optimal_objects(s) == frozenset({"h0", "h1"})
    assert [r.reduct for r in find_reductions(s)] == [("e0",), ("e1",)]


def test_reference_agrees_on_the_cohort(computed_sets, published_sets):
    for s in [*computed_sets.values(), *published_sets.values()]:
        assert find_reductions(s) == per_subset_reductions(s)


def _assert_bitwise_per_subset_sums(degrees, block_cells):
    n, m = degrees.shape
    yielded = np.zeros(1 << m, dtype=int)
    for first, sums in _subset_sums(degrees, block_cells):
        assert sums.shape[0] == n
        for k in range(sums.shape[1]):
            want = subset_sum(degrees, first + k)
            assert sums[:, k].tobytes() == want.tobytes(), (first + k, block_cells)
        yielded[first : first + sums.shape[1]] += 1
    assert (yielded == 1).all(), block_cells  # every mask exactly once


@pytest.mark.parametrize(
    "n,m,block_cells",
    [(2, 6, 1 << 16), (3, 7, 8), (8, 9, 64), (40, 8, 1 << 16), (700, 9, 1 << 16), (5, 8, 1), (116, 14, None), (1000, 16, None)],
)
def test_subset_sums_are_bitwise_the_per_subset_sums(n, m, block_cells):
    rng = np.random.default_rng(n * 100 + m)
    for degrees in (rng.random((n, m)), np.asfortranarray(rng.random((n, m)).round(2))):
        # None is the default block size: a table and a block per depth, 7 blocks at (116, 14) and 12 at (1000, 16)
        _assert_bitwise_per_subset_sums(degrees, _BLOCK_CELLS if block_cells is None else block_cells)


@pytest.mark.parametrize("n,m,block_cells", [(116, 14, _BLOCK_CELLS), (1000, 16, _BLOCK_CELLS), (116, 17, _BLOCK_CELLS), (3, 7, 8)])
def test_subset_sums_keep_one_buffer_per_depth(n, m, block_cells):
    degrees = np.random.default_rng(n + m).random((n, m))
    masks, buffers, low = [], set(), None
    for first, sums in _subset_sums(degrees, block_cells):
        if low is None:  # the prefix table over the low parameters comes first
            low = sums.shape[1].bit_length() - 1
        masks.extend(range(first, first + sums.shape[1]))
        buffers.add(sums.__array_interface__["data"][0])
    assert sorted(masks) == list(range(1 << m))
    # the table and one block for each depth of the high masks
    assert len(buffers) == m - low + 1, (len(buffers), m - low + 1)


def test_full_set_preserves_its_own_optimal_objects_near_the_tie_guard():
    # Row 1 trails row 0 by about TIE_EPSILON, so whether it is optimal depends
    # on the last bits of its sum: the search's full-set sum and choice_values
    # must agree bit for bit.
    rng = np.random.default_rng(5)
    for _ in range(300):
        n, m = int(rng.integers(2, 12)), int(rng.integers(8, 15))
        degrees = rng.random((n, m)) * 0.5
        degrees[0] = 0.5 + rng.random(m) * 0.5
        degrees[1] = degrees[0]
        degrees[1, int(rng.integers(m))] -= TIE_EPSILON + rng.integers(-4, 5) * 2.0**-53
        s = soft_set(degrees)
        f = np.zeros(n)
        for j in range(m):
            f += degrees[:, j]
        assert choice_values(s).tobytes() == f.tobytes()
        search_full_set = {s.universe[i] for i in np.flatnonzero(f >= f.max() - TIE_EPSILON)}
        assert optimal_objects(s) == search_full_set
        assert find_reductions(s)


def _assert_search_memory_in_blocks(s):
    tracemalloc.start()
    try:
        find_reductions(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (2^16, 1000) table of sums would be 524 MB
    assert peak < 4 * 2**20, peak


def test_search_memory_stays_in_blocks():
    rng = np.random.default_rng(3)
    _assert_search_memory_in_blocks(soft_set(rng.random((1000, 16)).round(2)))


def test_search_memory_stays_in_blocks_on_fuzzy_partition_rows():
    # its six optimal rows touch 15 of the 16 parameters, so the 994 others are walked over 2^15 masks
    _assert_search_memory_in_blocks(soft_set(_partition_degrees(np.random.default_rng(3), 1000, 16)))


def test_repeated_searches_free_their_blocks_without_the_cycle_collector():
    # m = 17 at n = 116 walks high masks 9 deep, one block per depth
    s = soft_set(np.random.default_rng(4).random((116, 17)).round(2))
    find_reductions(s)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        for _ in range(5):
            find_reductions(s)
        kept = tracemalloc.get_traced_memory()[0] - baseline
        unreachable = gc.collect()
    finally:
        tracemalloc.stop()
        gc.enable()
    # One block of sums is 232 KB and a search holds ten, so blocks kept
    # alive by a reference cycle would show in MB. What remains is small
    # objects on CPython's free lists, which only a collection empties.
    assert kept < 2**18, kept
    assert unreachable == 0


def test_minimality_equals_a_brute_force_for_every_width_up_to_12():
    # along bit b the flags pair runs of 2^b masks, from neighbours at b = 0 to halves at b = m - 1
    rng = np.random.default_rng(1812)
    for m in range(1, 13):
        size = 1 << m
        full_only = np.arange(size) == size - 1
        cases = [np.zeros(size, dtype=bool), np.ones(size, dtype=bool), np.arange(size) > 0, full_only]
        cases += [rng.random(size) < density for density in (0.01, 0.1, 0.5, 0.9)]
        for flags in cases:
            got = _minimal_masks(flags)
            assert got.tolist() == minimal_flagged(flags).tolist(), (m, int(flags.sum()))
    assert _minimal_masks(np.ones(8, dtype=bool)).tolist() == [0]
    assert _minimal_masks(np.arange(8) > 0).tolist() == [1, 2, 4]
    assert _minimal_masks(np.arange(1 << 7) == 127).tolist() == [127]


def _two_window_degrees(rng):
    """Ten parameters; the target rows sum to 1.0 on supports {0,1,2}, {1,2,3},
    {6,7,8} and {7,8,9}, four rows each, one of them eps / 2 less. A -0.0
    cell sits in parameter 3 of the {0,1,2} rows, inside the searched
    parameters but outside those rows' support. The other rows
    sum to less, on windows between the two, and one trails the best by
    2 eps. There are over 116 of them: the eight parameters the optimal rows
    touch are searched, and n * 2^8 sums fill more than one block."""
    rows = []
    for start in (0, 1, 6, 7):
        for _ in range(4):
            row = np.zeros(10)
            row[start : start + 3] = rng.permutation([0.25, 0.25, 0.5])
            if start == 0:
                row[3] = -0.0
            rows.append(row)
    tied = rows[int(rng.integers(len(rows)))]
    tied[np.argmax(tied)] -= TIE_EPSILON / 2  # still optimal
    for _ in range(int(rng.integers(116, 132))):
        row = np.zeros(10)
        start = int(rng.integers(2, 5))
        row[start : start + 3] = rng.choice([0.25, 0.5], size=3)
        if row.sum() >= 1.0:
            row /= 2
        rows.append(row)
    near = np.zeros(10)
    near[2:5] = [0.5, 0.25, 0.25 - 2 * TIE_EPSILON]
    rows.append(near)
    return np.array(rows)[rng.permutation(len(rows))]


def test_optimal_rows_on_two_windows_over_several_blocks_equal_the_per_subset_reference():
    rng = np.random.default_rng(1818)
    for _ in range(20):
        degrees = _two_window_degrees(rng)
        s = soft_set(degrees)
        assert len(optimal_objects(s)) == 16
        # the search sees parameters 0-3 and 6-9 only, and the other rows' sums fill several blocks
        assert len(degrees) << 8 > _BLOCK_CELLS
        assert np.signbit(degrees[:, 3]).any()
        assert find_reductions(s) == per_subset_reductions(s)


def _benchmark_fine_spec_sets():
    """The five 14-partition variables of the benchmark's fine spec, on the 116-row file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "cohort.py"
    loader = importlib.util.spec_from_file_location("perfbench_cohort", path)
    cohort = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(cohort)
    specs = specs_from_json(cohort.fine_spec_json())
    return fuzzify_cohort(load_csv(Path(__file__).parent / "data" / "blood_markers_116.csv", specs=specs), specs)


def test_fine_spec_variables_are_searched_over_their_optimal_rows_support(monkeypatch):
    # A count of work, not a timing: each variable is searched over the
    # parameters its optimal rows touch, three per optimal value (AGE has two,
    # at two peaks).
    shapes = []
    preserving_masks = reduction._preserving_masks

    def spy(degrees, in_target):
        shapes.append(degrees.shape)
        return preserving_masks(degrees, in_target)

    monkeypatch.setattr(reduction, "_preserving_masks", spy)
    searched = {}
    for s in _benchmark_fine_spec_sets():
        shapes.clear()
        find_reductions(s)
        searched[s.parameters[0].split("_")[0]] = list(shapes)
    assert searched == {"(AGE)": [(116, 6)], "(BMI)": [(116, 3)], "(INS)": [(116, 3)], "(LPN)": [(116, 3)],
                        "(ADP)": [(116, 3)]}


def test_every_object_optimal_makes_each_all_zero_column_a_reduct():
    # both rows sum to 0.75, on supports {0, 1} and {3}; columns 2 and 4 are zero, some cells -0.0
    s = soft_set(np.array([[0.5, 0.25, 0.0, 0.0, -0.0], [0.0, 0.0, -0.0, 0.75, 0.0]]))
    assert optimal_objects(s) == {"h0", "h1"}
    got = find_reductions(s)
    assert got == per_subset_reductions(s)
    assert [frozenset(r.reduct) for r in got] == brute_force_reductions(s)
    assert [r.reduct for r in got] == [("e2",), ("e4",), ("e0", "e1", "e3")]
    # no row is non-zero anywhere: nothing is searched, and each column alone is a reduct
    s = soft_set(np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, 0.0]]))
    assert [r.reduct for r in find_reductions(s)] == [("e0",), ("e1",), ("e2",)] == [
        tuple(sorted(b)) for b in brute_force_reductions(s)]


def test_rows_outside_the_optimal_support_are_bounded_by_their_part_inside_it():
    # h1 trails h0 by eps + 1 ulp, eps or eps - 1 ulp only through e2, which h0 does
    # not touch: over e0 and e1 alone h1 falls further behind
    for gap in (np.nextafter(TIE_EPSILON, 1.0), TIE_EPSILON, np.nextafter(TIE_EPSILON, 0.0)):
        degrees = np.array([[0.5, 0.5, -0.0], [0.5, 0.25, 0.25 - gap], [0.0, 0.0, 0.0]])
        s = soft_set(degrees)
        assert find_reductions(s) == per_subset_reductions(s), gap
        assert [frozenset(r.reduct) for r in find_reductions(s)] == brute_force_reductions(s), gap


def _narrow_optimal_degrees(rng, n, m):
    """Sparse quarter-step rows, where the optimal rows touch few of the parameters.

    Then rows are copied from the best row onto a disjoint window (optimal
    rows on disjoint supports), or copied with one cell moved outside the
    best row's support so that they trail it by eps, eps +- 1 ulp or eps / 2;
    some rows are all zero. Sometimes every row is rebuilt to sum to 1.0 on
    its own support, so every object is optimal. Some zero cells become -0.0.
    """
    degrees = rng.integers(1, 5, size=(n, m)) / 4 * (rng.random((n, m)) < 0.3)
    if rng.random() < 0.2:
        degrees[:] = 0.0
        for row in degrees:
            np.add.at(row, rng.integers(0, m, size=4), 0.25)
    else:
        for _ in range(int(rng.integers(0, n)) if n > 1 else 0):
            best = degrees[int(np.argmax(degrees.sum(axis=1)))]
            dst = int(rng.integers(n))
            support = np.flatnonzero(best)
            op = rng.integers(3)
            if op == 0 and support.size and support[-1] + 1 + support[-1] - support[0] < m:
                degrees[dst] = np.roll(best, int(support[-1] - support[0] + 1))
            elif op == 1 and support.size and support.size < m:
                row = best.copy()
                j, k = int(rng.choice(support)), int(rng.choice(np.flatnonzero(best == 0)))
                gap = [TIE_EPSILON, np.nextafter(TIE_EPSILON, 1.0), np.nextafter(TIE_EPSILON, 0.0), TIE_EPSILON / 2][
                    int(rng.integers(4))]
                row[k] = min(row[j], 0.25)
                row[j] -= row[k] + gap
                degrees[dst] = np.clip(row, 0.0, 1.0)
            elif op == 2:
                degrees[dst] = 0.0
    degrees[(degrees == 0) & (rng.random((n, m)) < 0.3)] = -0.0
    return degrees


def test_search_over_the_optimal_support_equals_the_per_subset_reference():
    rng = np.random.default_rng(1919)
    seen = {"every object optimal": 0, "-0.0 cells": 0, "eps gaps": 0, "empty rows": 0,
            "disjoint optimal supports": 0, "columns left out": 0}
    for _ in range(300):
        n, m = int(rng.integers(1, 30)), int(rng.integers(1, 10))
        degrees = _narrow_optimal_degrees(rng, n, m)
        s = soft_set(degrees)
        got = find_reductions(s)
        assert got == per_subset_reductions(s), (n, m)
        if m <= 6:
            assert [frozenset(r.reduct) for r in got] == brute_force_reductions(s), (n, m)
        f = choice_values(s)
        in_target = f >= f.max() - TIE_EPSILON
        supports = {frozenset(np.flatnonzero(row).tolist()) for row in degrees[in_target]}
        seen["every object optimal"] += bool(in_target.all()) and n > 1
        seen["-0.0 cells"] += bool(np.signbit(degrees).any())
        seen["eps gaps"] += bool(((f < f.max()) & (f > f.max() - 2 * TIE_EPSILON)).any())
        seen["empty rows"] += bool((degrees == 0).all(axis=1).any())
        seen["disjoint optimal supports"] += any(a and b and not a & b for a in supports for b in supports)
        seen["columns left out"] += len(set().union(*supports)) < m
    assert min(seen.values()) >= 20, seen
