"""Slow references: the definitions the fast paths must reproduce, written out directly.

Every oracle the tests compare a fast path with lives here and only here, with
no tiles, level codes, blocks or caches; each docstring names the fast path it
guards. ``tests/test_structure.py`` keeps it that way.
"""
import csv
import io
import itertools
from functools import lru_cache, reduce

import numpy as np

from fuzzysoft import HEALTHY_CONTROL, PATIENT, Cohort, DataError, FuzzySoftSet, ReductionResult
from fuzzysoft import fuzzify_cohort, optimal_objects, restrict
from fuzzysoft.ingest import _parse_measurement
from fuzzysoft.reduction import TIE_EPSILON
from fuzzysoft.scoring import COMPARISON_EPSILON
from fuzzysoft.softset import COMBINERS, PRODUCT_SEPARATOR

# The measurement columns the default variables read, in the order ``load_csv`` returns them.
COLUMNS = ["Age", "BMI", "Insulin", "Leptin", "Adiponectin"]


def soft_set(degrees, tag="e"):
    """A set over objects ``h0, h1, ...`` and parameters ``<tag>0, <tag>1, ...``."""
    n, m = degrees.shape
    return FuzzySoftSet(tuple(f"h{i}" for i in range(n)), tuple(f"{tag}{j}" for j in range(m)), degrees)


def reference_load(path):
    """Guards ``load_csv``'s column read: a default-layout file read cell by cell with ``_parse_measurement``."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = [r for r in csv.reader(fh) if r and any(cell.strip() for cell in r)]
    header = [h.strip() for h in rows[0]]
    values = {col: [] for col in COLUMNS}
    labels = []
    for pos, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise DataError(f"{path}: row {pos} has {len(row)} cells, expected {len(header)}")
        for col in COLUMNS:
            values[col].append(_parse_measurement(row[header.index(col)], pos, col))
        label = row[header.index("Classification")].strip()
        if label not in ("1", "2"):
            raise DataError(f"{path}: row {pos}: unknown label value {label!r} (expected one of ['1', '2'])")
        labels.append(HEALTHY_CONTROL if label == "1" else PATIENT)
    return {col: np.array(xs, dtype=float) for col, xs in values.items()}, tuple(labels)


def interp_clip(mf, xs):
    """Guards ``membership.evaluate_columns``: ``np.interp`` over one function's nodes, clipped to [0, 1]."""
    return np.clip(np.interp(xs, *zip(*mf.nodes), left=mf.left_tail, right=mf.right_tail), 0.0, 1.0)


def fuzzify_value(spec, x):
    """Degrees of ``x`` in each partition of ``spec``, keyed by code, from a one-record cohort."""
    (s,) = fuzzify_cohort(Cohort(("x",), {spec.column: [x]}, (PATIENT,)), [spec])
    return dict(zip(spec.codes, s.degrees[0].tolist()))


def per_cell_product(sets, combiner):
    """Guards ``product_n``'s fold of level codes: each cell combined on its
    own, first operand slowest. Returns the degrees and the labels."""
    columns = list(itertools.product(*(range(len(s.parameters)) for s in sets)))
    degrees = np.array([
        [reduce(COMBINERS[combiner], [s.degrees[i, j] for s, j in zip(sets, column)]) for column in columns]
        for i in range(len(sets[0].universe))
    ])
    return degrees, tuple(PRODUCT_SEPARATOR.join(s.parameters[j] for s, j in zip(sets, column)) for column in columns)


def per_cell_table(s, decimals=None):
    """Guards ``to_table``'s rendering by levels: one format call per cell."""
    fmt = repr if decimals is None else f"{{:.{decimals}f}}".format
    buf = io.StringIO()
    rows = [[oid] + [fmt(v) for v in row] for oid, row in zip(s.universe, s.degrees.tolist())]
    csv.writer(buf, lineterminator="\n").writerows([("object",) + s.parameters] + rows)
    return buf.getvalue()


def dense_count(d):
    """Guards the count table's tiles of level codes: the whole n x n x m tensor comparison."""
    return (d[:, None, :] >= d[None, :, :] - COMPARISON_EPSILON).sum(axis=2)


def dense_difference(d):
    """Guards the difference table's row tiles: the whole n x n x m tensor of differences."""
    return (d[:, None, :] - d[None, :, :]).sum(axis=2)


def dense_saturation(s):
    """Guards the saturation behind ``scoring._pattern_tiles``: whether each cell's row wins its whole column."""
    d = s.degrees
    return (d[:, None, :] >= d[None, :, :] - COMPARISON_EPSILON).all(axis=1)


# The parameter reduction. A subset is a bitmask: bit j holds parameter j.

def mask_indices(mask):
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


@lru_cache(maxsize=None)
def subset_masks(m):
    """Every subset of ``m`` parameters, the empty one first, by size and then
    by index tuple: the order ``find_reductions`` lists its reducts in."""
    return tuple(sorted(range(1 << m), key=lambda mask: (mask.bit_count(), mask_indices(mask))))


def keep_minimal(masks, holds):
    """The masks on which ``holds`` is true and false on every strict subset, in the order of ``masks``,
    which lists a subset before its supersets; ``holds`` is not asked about a superset of a kept mask."""
    kept = []
    for mask in masks:
        if not any(prior & mask == prior for prior in kept) and holds(mask):
            kept.append(mask)
    return kept


def subset_sum(degrees, mask):
    """Guards ``reduction._subset_sums``: the choice values over the columns in ``mask``, one numpy sum."""
    combo = mask_indices(mask)
    return degrees[:, combo].sum(axis=1) if combo else np.zeros(degrees.shape[0])


def minimal_flagged(flags):
    """Guards ``reduction._minimal_masks``: the flagged masks with no flagged strict subset, ascending."""
    m = flags.size.bit_length() - 1
    return np.array(sorted(keep_minimal(subset_masks(m), lambda mask: flags[mask])), dtype=int)


def dispensable(s, drop):
    """Removing ``drop`` leaves the optimal-object set unchanged."""
    return optimal_objects(restrict(s, [p for p in s.parameters if p not in drop])) == optimal_objects(s)


def brute_force_reductions(s):
    """Guards ``find_reductions`` by definition: the minimal subsets whose restriction keeps ``optimal_objects``."""
    target = optimal_objects(s)

    def names(mask):
        return [s.parameters[j] for j in mask_indices(mask)]

    kept = keep_minimal(subset_masks(len(s.parameters))[1:], lambda m: optimal_objects(restrict(s, names(m))) == target)
    return [frozenset(names(mask)) for mask in kept]


def per_subset_reductions(s):
    """Guards ``find_reductions``' block walk: one numpy sum per subset, none over a superset of a reduct."""
    target = optimal_objects(s)
    target_rows = [i for i, oid in enumerate(s.universe) if oid in target]

    def preserves(mask):
        f = subset_sum(s.degrees, mask)
        return np.flatnonzero(f >= f.max() - TIE_EPSILON).tolist() == target_rows

    reducts = [tuple(s.parameters[j] for j in mask_indices(mask))
               for mask in keep_minimal(subset_masks(len(s.parameters))[1:], preserves)]
    return [ReductionResult(reduct=kept, optimal_objects=target,
                            dispensable=tuple(p for p in s.parameters if p not in kept)) for kept in reducts]


def matmul_reduct_masks(degrees):
    """Guards ``find_reductions`` with sums in another order: the minimal reducts as masks, every subset's
    choice values from one matrix product, the tolerance written out. numpy and BLAS add ``degrees.sum`` and
    ``degrees @ bits.T`` in orders of their own, not left to right, so a row an ulp from the tie guard can fall
    on the other side of it here than in ``brute_force_reductions``: the two are kept apart."""
    m = degrees.shape[1]
    eps = 1e-9
    full = degrees.sum(axis=1)
    target = frozenset(np.flatnonzero(full >= full.max() - eps).tolist())
    masks = np.arange(1, 2**m, dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(m)) & 1).astype(float)  # (2^m - 1, m)
    sums = degrees @ bits.T  # n x (2^m - 1)
    best = sums.max(axis=0)
    preserving = {int(mask) for col, mask in enumerate(masks)
                  if frozenset(np.flatnonzero(sums[:, col] >= best[col] - eps).tolist()) == target}
    return keep_minimal(subset_masks(m)[1:], preserving.__contains__)
