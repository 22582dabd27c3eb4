"""Parameter reduction of fuzzy soft sets that preserves the optimal objects.

An object's choice value is its row sum of degrees; the optimal-object set
collects the objects attaining the maximum choice value (a set-valued argmax
with a tiny tie guard). A parameter subset is dispensable if removing it
leaves the optimal-object set unchanged, and a reduction is a minimal subset
that preserves it on its own.

This is the parameterization reduction of Chen et al. 2005 (Comput. Math.
Appl. 49): only the optimal-object set is kept. The *normal* parameter
reduction of Kong et al. 2008 (Comput. Math. Appl. 56) is stricter: it keeps
the whole ranking by choice value, and it is not implemented here.

Choice values are added left to right in parameter order,
``((d_0 + d_1) + d_2) + ...``, both in ``choice_values`` and for every subset
the search visits, so the full parameter set always preserves its own target.

Only the subsets of U, the parameters where some optimal row is not zero,
are searched. Let S preserve and S' = S & U. Each optimal row's sum over S'
is bit for bit its sum over S, since the cells left out are +-0.0; each
other row's sum over S' is at most its sum over S, since degrees lie in
[0, 1] and rounded addition is monotone. So over S' the maximum, its tie
guard and the optimal set are those over S, and S' preserves whenever it is
not empty. Every minimal reduct is therefore a subset of U, except when every
object is optimal: then each all-zero column is a minimal reduct on its own.
The argument keeps only the optimal set; a reduction that keeps the whole
ranking (the normal parameter reduction) cannot use it.

The search decides all 2^u subsets of the u = |U| parameters. Within one
block of sums every row is summed over every parameter. Beyond that, rows are
summed only over the parameters where they can be non-zero: rows that share
a support (the parameters where a row's degree is not zero) form a group, and
neighbouring groups on one side of the target form a cluster, summed over the
subsets of the union of its supports. With clusters c of |c| rows on u_c
parameters, it costs O(sum |c| * 2^u_c + C * 2^u) for C clusters. A subset
is minimal when it preserves and none of its strict subsets does; that is
decided on the 2^u flags packed 64 to a word. On the five 14-parameter
variables of the benchmark's fine spec at n = 116, U holds 3 parameters (6
for AGE), and the search went from about 1.5 to 0.4 ms (all 2^14 subsets
before; Python 3.11, numpy 2.4, a shared 2-vCPU machine). Besides at most one
block of sums per parameter, O(n * u) floats, it holds one 2^u float
threshold and the 2^u preserve flags (8 MB and 1 MB at the cap of u = 20),
the table of one cluster summed on its own at a time (at most 2^(u-1)
floats), and the min tables of the target clusters summed on their own.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .softset import FuzzySoftSet

__all__ = [
    "TIE_EPSILON",
    "ReductionResult",
    "choice_values",
    "optimal_objects",
    "find_reductions",
]

# Degrees are sums of at most dozens of doubles from exact piecewise-linear
# arithmetic, so true ties are common; the guard only absorbs rounding noise.
TIE_EPSILON = 1e-9

DEFAULT_PARAMETER_CAP = 20

# Cells (objects x subsets) in one block of subset sums; 256 KB of float64.
_BLOCK_CELLS = 1 << 15

# _LOW[b]: the bits of a 64-bit word whose position within the word has bit b
# clear; shifted up by _SHIFT[b], each lands on its position with bit b set.
_LOW = tuple(np.uint64(w) for w in (
    0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
    0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF,
))
_SHIFT = tuple(np.uint64(1 << b) for b in range(6))


@dataclass(frozen=True)
class ReductionResult:
    """A minimal optimal-set-preserving parameter subset and what it removed."""

    reduct: tuple[str, ...]
    optimal_objects: frozenset[str]
    dispensable: tuple[str, ...]


def choice_values(s: FuzzySoftSet) -> np.ndarray:
    """Per-object sum of degrees across all parameters, in universe order.

    The columns are added left to right in parameter order, the order
    ``find_reductions`` uses for every subset.
    """
    f = np.zeros(s.degrees.shape[0])
    for j in range(s.degrees.shape[1]):
        f += s.degrees[:, j]
    return f


def optimal_objects(s: FuzzySoftSet) -> frozenset[str]:
    """Objects whose choice value is within ``TIE_EPSILON`` of the maximum."""
    if not s.universe:
        raise ValueError("optimal_objects needs a non-empty universe")
    f = choice_values(s)
    best = f.max()
    return frozenset(s.universe[i] for i in np.flatnonzero(f >= best - TIE_EPSILON))


def _subset_sums(degrees: np.ndarray, block_cells: int = _BLOCK_CELLS) -> Iterator[tuple[int, np.ndarray]]:
    """Choice values of every parameter subset, one block of subsets at a time.

    Subset ``mask`` holds parameter ``j`` iff bit ``j`` is set. Yields
    ``(first, sums)`` where ``sums[:, k]`` holds the choice values of subset
    ``first + k``, added left to right in parameter order exactly as
    ``choice_values`` adds them. The yielded array is reused: read it before
    advancing the iterator.

    The low parameters' sums are a prefix table built by doubling, one block
    of at most ``block_cells`` cells. A high mask's block is its parent's
    block plus the column of its highest bit, where the parent is the mask
    without that bit: one broadcast fill and one flat add per block. The high
    masks are visited depth first, and each depth has one block, so a
    parent's block is kept until its subtree is done: ``m - low + 1`` blocks
    in all, counting the table.
    """
    n, m = degrees.shape
    low = min(m, max(1, block_cells // n).bit_length() - 1)
    table = np.zeros((n, 1 << low))
    for b in range(low):
        np.add(table[:, : 1 << b], degrees[:, b, None], out=table[:, 1 << b : 2 << b])
    yield 0, table
    top = m - low
    stack = [table] + [np.empty_like(table) for _ in range(top)]
    # (high mask, its highest bit, depth); a mask's children add each bit above its highest
    todo = [(1 << b, b, 1) for b in reversed(range(top))]
    while todo:
        high, last, depth = todo.pop()
        block = stack[depth]
        np.copyto(block, degrees[:, low + last, None])
        np.add(block, stack[depth - 1], out=block)
        yield high << low, block
        todo.extend((high | 1 << b, b, depth + 1) for b in reversed(range(last + 1, top)))


def _run_shapes(support: int, m: int) -> tuple[list[int], list[int]]:
    """Shapes that broadcast a table over the sub-masks of ``support`` onto all 2^m masks.

    The first shape splits the mask axis into one axis per run of neighbouring
    bits that are all in ``support`` or all out of it, highest bits first. The
    second is the same with each non-support run of length 1, so a table
    indexed by sub-mask (``support``'s bits packed in order) takes that shape
    and lines each mask up with its intersection with ``support``.
    """
    full: list[int] = []
    part: list[int] = []
    b = m
    while b:
        inside = support >> (b - 1) & 1
        run = 1
        while run < b and (support >> (b - 1 - run) & 1) == inside:
            run += 1
        full.append(1 << run)
        part.append(1 << run if inside else 1)
        b -= run
    return full, part


def _spread(degrees: np.ndarray, support: int, with_min: bool) -> tuple[list[int], list[np.ndarray]]:
    """The rows' max, and if asked min, choice value for every subset of ``support``.

    Returns the first shape of ``_run_shapes(support, m)`` and the tables in
    the second, ready to broadcast onto all 2^m masks.
    """
    m = degrees.shape[1]
    cols = degrees[:, [j for j in range(m) if support >> j & 1]]
    tables = [np.empty(1 << cols.shape[1]) for _ in range(1 + with_min)]
    for first, sums in _subset_sums(cols):
        stop = first + sums.shape[1]
        sums.max(axis=0, out=tables[0][first:stop])
        if with_min:
            sums.min(axis=0, out=tables[1][first:stop])
    shape, part = _run_shapes(support, m)
    return shape, [table.reshape(part) for table in tables]


def _clusters(degrees: np.ndarray, in_target: np.ndarray) -> list[tuple[bool, int, np.ndarray]]:
    """The (side, union of supports, rows) of each cluster that saves work summed on its own.

    Rows are grouped by support and by side (in the target or not), and each
    side's groups, in ``np.unique`` order, are gathered into clusters: the
    next group joins the current cluster while summing them together over the
    union of their supports costs no more than summing them apart plus one
    pass over the 2^m masks. A cluster is kept when summing it over its union
    costs less than summing its rows over every parameter.
    """
    m = degrees.shape[1]
    supports = (degrees != 0) @ (1 << np.arange(m))
    keys, group_of, sizes = np.unique(supports << 1 | in_target, return_inverse=True, return_counts=True)

    def cost(rows: int, union: int) -> int:
        # rows summed over the subsets of union, and one pass over the 2^m masks
        return (rows << union.bit_count()) + (1 << m)

    # [union of supports, rows, index], the last cluster of each side
    last: dict[bool, list[int]] = {}
    clusters: list[tuple[bool, list[int]]] = []
    cluster_of = np.empty(len(keys), dtype=np.intp)
    for g, (key, size) in enumerate(zip(keys.tolist(), sizes.tolist())):
        support, side = key >> 1, bool(key & 1)
        c = last.get(side)
        if c is not None and cost(c[1] + size, c[0] | support) <= cost(c[1], c[0]) + cost(size, support):
            c[0] |= support
            c[1] += size
        else:
            c = last[side] = [support, size, len(clusters)]
            clusters.append((side, c))
        cluster_of[g] = c[2]
    row_cluster = cluster_of[group_of]
    return [
        (side, union, row_cluster == index)
        for side, (union, size, index) in clusters
        if cost(size, union) < size << m
    ]


def _preserving_masks(degrees: np.ndarray, in_target: np.ndarray) -> np.ndarray:
    """Flags, by mask, of the parameter subsets whose optimal rows are exactly the target rows.

    A row's sum over a subset is bit for bit its sum over the subset's
    intersection with the row's support, the parameters where its degree is
    not zero: sums start at +0.0 and never become -0.0, and x + (+-0.0) == x
    for every other x. So a row can be summed over any superset of its
    support. When the sums of all rows over all 2^m masks fill more than one
    block, ``_clusters`` picks the clusters of rows that are cheaper summed
    over the union of their supports; ``_spread`` sums each over its union
    only, reduces it to a max (and on the target side a min) per sub-mask,
    and shapes that to broadcast onto all 2^m masks. The other rows form
    their side's full-support group, which is summed over every parameter and
    read block by block. Within one block every row is read once either way,
    so there all rows are in the full-support groups.

    Each mask's threshold is final before any row is compared with it: the
    target clusters summed on their own fold their max into it first and keep
    their min per sub-mask until then, and the full-support target group
    finishes it block by block. No 2^m table of sums is kept for the other
    rows.
    """
    n, m = degrees.shape
    alone: dict[bool, list[tuple[int, np.ndarray]]] = {True: [], False: []}
    wide = np.ones(n, dtype=bool)
    for side, union, rows in _clusters(degrees, in_target) if n << m > _BLOCK_CELLS else ():
        alone[side].append((union, rows))
        wide &= ~rows

    threshold = np.full(1 << m, -np.inf)
    preserves = np.ones(1 << m, dtype=bool)
    lows = []
    for support, rows in alone[True]:
        shape, (hi, lo) = _spread(degrees[rows], support, with_min=True)
        view = threshold.reshape(shape)
        np.maximum(view, hi, out=view)
        lows.append((shape, lo))
        del hi  # one cluster's max table at a time
    if (wide & in_target).any():
        for first, sums in _subset_sums(degrees[wide & in_target]):
            stop = first + sums.shape[1]
            block = threshold[first:stop]
            np.maximum(block, sums.max(axis=0), out=block)
            block -= TIE_EPSILON
            preserves[first:stop] = sums.min(axis=0) >= block
    else:
        threshold -= TIE_EPSILON
    for shape, lo in lows:
        view = preserves.reshape(shape)
        view &= lo >= threshold.reshape(shape)
    # where another object reaches the target's best, hi < threshold fails either way
    for support, rows in alone[False]:
        shape, (hi,) = _spread(degrees[rows], support, with_min=False)
        view = preserves.reshape(shape)
        view &= hi < threshold.reshape(shape)
        del hi
    if (wide & ~in_target).any():
        for first, sums in _subset_sums(degrees[wide & ~in_target]):
            stop = first + sums.shape[1]
            preserves[first:stop] &= sums.max(axis=0) < threshold[first:stop]
    return preserves


def _lift(words: np.ndarray, b: int) -> np.ndarray:
    """Packed flags moved from each mask to the mask with bit ``b`` added; 0 where bit ``b`` is clear."""
    if b < 6:
        return (words & _LOW[b]) << _SHIFT[b]
    lifted = np.zeros_like(words)
    lifted.reshape(-1, 2, 1 << (b - 6))[:, 1] = words.reshape(-1, 2, 1 << (b - 6))[:, 0]
    return lifted


def _minimal_masks(preserves: np.ndarray) -> np.ndarray:
    """The masks flagged in ``preserves`` (2^m flags) none of whose strict subsets is flagged.

    The flags are packed into little-endian 64-bit words, bit i of word w
    flagging mask 64 * w + i; below m = 6 one word holds them all. ``_lift``
    moves them along one mask bit: a shift and a mask within each word for
    bits 0-5, a copy between word halves for bits 6 and up. Lifting and ORing
    along every bit gives ``covered``, the masks with a flagged subset
    (themselves included), and a flagged mask is minimal when no mask one bit
    smaller is covered.
    """
    m = len(preserves).bit_length() - 1
    words = np.zeros(max(1, (1 << m) >> 6), dtype="<u8")
    flags = np.packbits(preserves, bitorder="little")
    words.view(np.uint8)[: flags.size] = flags
    covered = words.copy()
    for b in range(m):
        covered |= _lift(covered, b)
    minimal = words
    for b in range(m):
        minimal &= ~_lift(covered, b)
    return np.flatnonzero(np.unpackbits(minimal.view(np.uint8), bitorder="little")[: 1 << m])


def find_reductions(s: FuzzySoftSet, cap: int = DEFAULT_PARAMETER_CAP) -> list[ReductionResult]:
    """All minimal parameter subsets that preserve the optimal-object set.

    Every returned subset B satisfies optimal(restrict(s, B)) == optimal(s) and
    no proper non-empty subset of B does. The result is exactly the minimal
    family, ordered by size and then by parameter position.

    Only the subsets of U, the parameters where some optimal row is not
    zero, are searched: for a preserving S, S & U keeps each optimal row's
    sum bit for bit (the cells left out are +-0.0) and can only lower each
    other row's sum (rounded addition of non-negative degrees is monotone),
    so it preserves too unless it is empty. It is empty only when every object
    is optimal; then the columns outside U are all zero, and each on its own
    is a minimal reduct. The argument keeps the optimal set, not the ranking.

    ``_preserving_masks`` flags the subsets of U that preserve the optimal
    set, and ``_minimal_masks`` keeps those none of whose strict subsets
    does. The search is exponential in |U|; ``cap`` refuses inputs whose U
    is too wide.
    """
    target = optimal_objects(s)
    in_target = np.array([oid in target for oid in s.universe])
    searched = np.flatnonzero((s.degrees[in_target] != 0).any(axis=0)).tolist()
    if len(searched) > cap:
        raise ValueError(
            f"refusing to enumerate reductions over {len(searched)} parameters (cap is {cap})"
        )
    preserves = _preserving_masks(s.degrees[:, searched], in_target)
    preserves[0] = False
    combos = [
        tuple(j for k, j in enumerate(searched) if mask >> k & 1)
        for mask in _minimal_masks(preserves).tolist()
    ]
    if in_target.all():
        combos += [(j,) for j in range(len(s.parameters)) if j not in searched]
    combos.sort(key=lambda combo: (len(combo), combo))
    results: list[ReductionResult] = []
    for combo in combos:
        kept = tuple(s.parameters[j] for j in combo)
        results.append(
            ReductionResult(
                reduct=kept,
                optimal_objects=target,
                dispensable=tuple(p for p in s.parameters if p not in kept),
            )
        )
    return results
