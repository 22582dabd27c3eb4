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

The search decides all 2^u subsets of the u = |U| parameters in two walks
of ``_subset_sums``, one over the optimal rows and one over the others, so
it costs O(n * 2^u). Besides at most one block of sums per parameter,
O(n * u) floats, it holds the 2^u float threshold and the 2^u preserve flags
(8 MB and 1 MB at the cap of u = 20). The minimal subsets then take 2u
boolean passes over the flags.
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


def _preserving_masks(degrees: np.ndarray, in_target: np.ndarray) -> np.ndarray:
    """Flags, by mask, of the parameter subsets whose optimal rows are exactly the target rows.

    The target rows are walked first: each mask's threshold is their best
    choice value less ``TIE_EPSILON``, and the mask is flagged where their
    worst reaches it. So each threshold is final before the other rows, if
    any, are walked; a mask loses its flag where one of them reaches it.
    """
    m = degrees.shape[1]
    threshold = np.empty(1 << m)
    preserves = np.empty(1 << m, dtype=bool)
    for first, sums in _subset_sums(degrees[in_target]):
        stop = first + sums.shape[1]
        block = threshold[first:stop]
        sums.max(axis=0, out=block)
        block -= TIE_EPSILON
        preserves[first:stop] = sums.min(axis=0) >= block
    if not in_target.all():
        for first, sums in _subset_sums(degrees[~in_target]):
            stop = first + sums.shape[1]
            preserves[first:stop] &= sums.max(axis=0) < threshold[first:stop]
    return preserves


def _minimal_masks(preserves: np.ndarray) -> np.ndarray:
    """The masks flagged in ``preserves`` (2^m flags) none of whose strict subsets is flagged.

    Viewed as ``reshape(-1, 2, 1 << b)``, the flags pair each mask without
    bit ``b`` (``[:, 0]``) with the same mask plus bit ``b`` (``[:, 1]``).
    ORing each pair upward along every bit gives ``covered``, the masks with
    a flagged subset (themselves included), and a flagged mask is minimal
    when no mask one bit smaller is covered.
    """
    m = len(preserves).bit_length() - 1
    covered = preserves.copy()
    for b in range(m):
        pairs = covered.reshape(-1, 2, 1 << b)
        pairs[:, 1] |= pairs[:, 0]
    minimal = preserves.copy()
    for b in range(m):
        pairs, below = minimal.reshape(-1, 2, 1 << b), covered.reshape(-1, 2, 1 << b)
        pairs[:, 1] &= ~below[:, 0]
    return np.flatnonzero(minimal)


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
    set, in one walk over the optimal rows and one over the others, and
    ``_minimal_masks`` keeps those none of whose strict subsets does. The
    search is exponential in |U|; ``cap`` refuses inputs whose U is too
    wide.
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
