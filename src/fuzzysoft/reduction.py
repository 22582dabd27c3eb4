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
The search visits all 2^m subsets but holds at most one block of sums per
parameter, O(n * m) floats.
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


def find_reductions(s: FuzzySoftSet, cap: int = DEFAULT_PARAMETER_CAP) -> list[ReductionResult]:
    """All minimal parameter subsets that preserve the optimal-object set.

    Every returned subset B satisfies optimal(restrict(s, B)) == optimal(s) and
    no proper non-empty subset of B does. The result is exactly the minimal
    family, ordered by size and then by parameter position.

    Every subset's choice values come from ``_subset_sums``; a subset is
    minimal when it preserves the optimal set and none of its strict subsets
    does. The search is exponential in the parameter count; ``cap`` refuses
    inputs that are too wide.
    """
    m = len(s.parameters)
    if m > cap:
        raise ValueError(
            f"refusing to enumerate reductions over {m} parameters (cap is {cap})"
        )
    target = optimal_objects(s)
    # Objects are summed independently, so putting the target objects first
    # splits every block of sums into two row slices.
    in_target = np.array([oid in target for oid in s.universe])
    k = int(in_target.sum())
    degrees = np.concatenate([s.degrees[in_target], s.degrees[~in_target]])
    preserves = np.zeros(1 << m, dtype=bool)
    for first, sums in _subset_sums(degrees):
        rest = sums[k:].max(axis=0, initial=-np.inf)
        # where another object reaches the target's best, rest < threshold fails either way
        threshold = sums[:k].max(axis=0) - TIE_EPSILON
        ok = (sums[:k].min(axis=0) >= threshold) & (rest < threshold)
        preserves[first : first + sums.shape[1]] = ok
    preserves[0] = False
    # covered[mask]: some subset of mask (itself included) preserves.
    covered = preserves.copy()
    minimal = preserves.copy()
    for b in range(m):
        half = covered.reshape(-1, 2, 1 << b)
        half[:, 1] |= half[:, 0]
    for b in range(m):
        minimal.reshape(-1, 2, 1 << b)[:, 1] &= ~covered.reshape(-1, 2, 1 << b)[:, 0]
    combos = sorted(
        (tuple(j for j in range(m) if mask >> j & 1) for mask in np.flatnonzero(minimal).tolist()),
        key=lambda combo: (len(combo), combo),
    )
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
