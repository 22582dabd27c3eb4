"""Fuzzy soft sets and their algebra.

A fuzzy soft set is an objects-by-parameters matrix of membership degrees in
[0, 1]. The algebra here covers parameter-wise products (cellwise min or max
over the Cartesian product of parameter lists) and column restriction. Its
text, a table that round-trips at full precision, is in ``text``.

The product combiner is an explicit argument because the study this library
reproduces applies MAX while calling the operation AND; the classical soft-set
AND is cellwise min. Both are one call away.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, partial, reduce
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "COMBINERS",
    "FuzzySoftSet",
    "Levels",
    "product",
    "product_n",
    "restrict",
]

PRODUCT_SEPARATOR = "×"  # multiplication sign, joins parameter labels

# Product combiners by name: max is what the study applied, min the classical AND.
COMBINERS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "max": np.maximum,
    "min": np.minimum,
}


class Levels(NamedTuple):
    """A grid's distinct values in increasing order, and each cell's index into them.

    -0.0 and 0.0 are one level, held as 0.0, so a cell's text cannot be read
    from its code alone. ``_levels`` gives int16 codes below 2**15 levels (so
    one more index still fits), int32 otherwise. ``product_n`` merges all its
    operands' levels once, so a product's levels may hold degrees no cell
    takes. A count table's levels are 0..m, each count its own code.
    """

    values: np.ndarray
    codes: np.ndarray


def _code_dtype(n_levels: int) -> type:
    return np.int16 if n_levels < 2**15 else np.int32


@dataclass(frozen=True, eq=False)
class FuzzySoftSet:
    """An ordered universe of object IDs, parameter labels, and a degree matrix."""

    universe: tuple[str, ...]
    parameters: tuple[str, ...]
    degrees: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        universe = tuple(str(o) for o in self.universe)
        parameters = tuple(str(p) for p in self.parameters)
        degrees = np.ascontiguousarray(self.degrees, dtype=float)
        if degrees.shape != (len(universe), len(parameters)):
            raise ValueError(
                f"degree matrix shape {degrees.shape} does not match "
                f"{len(universe)} objects x {len(parameters)} parameters"
            )
        if len(set(universe)) != len(universe):
            raise ValueError("object IDs must be unique")
        if len(set(parameters)) != len(parameters):
            raise ValueError("parameter labels must be unique")
        # min and max propagate NaN, which fails both comparisons, so no finiteness pass is needed
        if degrees.size and not (0.0 <= degrees.min() and degrees.max() <= 1.0):
            raise ValueError("degrees must lie in [0, 1]")
        degrees.setflags(write=False)
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "parameters", parameters)
        object.__setattr__(self, "degrees", degrees)

    @property
    def shape(self) -> tuple[int, int]:
        return self.degrees.shape

    @cached_property
    def levels(self) -> Levels:
        """The set's ``Levels``, found by one sort on first use (``product_n`` fills them in)."""
        return _levels(self.degrees)

    def degree(self, object_id: str, parameter: str) -> float:
        return float(self.degrees[self.universe.index(object_id), self.parameters.index(parameter)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FuzzySoftSet):
            return NotImplemented
        return (
            self.universe == other.universe
            and self.parameters == other.parameters
            and np.array_equal(self.degrees, other.degrees)
        )

    def __hash__(self) -> int:
        # + 0.0 folds -0.0 into 0.0, which __eq__ holds equal
        return hash((self.universe, self.parameters, (self.degrees + 0.0).tobytes()))


def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of ``x`` in increasing order, with -0.0 and 0.0 as one value, 0.0."""
    ordered = np.sort(x, axis=None)
    first = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first] + 0  # turns -0.0 into 0.0 and keeps every other value


def _levels(x: np.ndarray) -> Levels:
    """The ``Levels`` of ``x``: one sort, then each cell's index into the distinct values."""
    values = _distinct(x)
    return _frozen_levels(values, values.searchsorted(x).astype(_code_dtype(len(values))))


def _frozen_levels(values: np.ndarray, codes: np.ndarray) -> Levels:
    values.setflags(write=False)
    codes.setflags(write=False)
    return Levels(values, codes)


def product(a: FuzzySoftSet, b: FuzzySoftSet, combiner: str = "max") -> FuzzySoftSet:
    """Parameter-product of two fuzzy soft sets: ``product_n((a, b), combiner)``."""
    return product_n((a, b), combiner)


def product_n(sets: Sequence[FuzzySoftSet], combiner: str = "max") -> FuzzySoftSet:
    """Parameter-product of one or more fuzzy soft sets over a shared universe.

    One column per tuple of the operands' labels, row-major (the first
    operand's label varies slowest), labeled by joining the tuple with "×";
    each cell folds combiner "min" (classical AND) or "max" over the
    operands' degrees, left to right. The result arrives with its levels:
    max and min commute with an order-preserving code, so all operands'
    levels are merged once, and each operand's codes, mapped onto the merge
    once, are folded as the degrees are instead of sorting the product.
    """
    if not sets:
        raise ValueError("product_n needs at least one fuzzy soft set")
    universe = sets[0].universe
    for s in sets[1:]:
        if s.universe != universe:
            raise ValueError(f"universe mismatch: {universe} vs {s.universe} (same IDs in the same order required)")
    try:
        combine = COMBINERS[combiner]
    except KeyError:
        raise ValueError(f"combiner must be one of {list(COMBINERS)}, got {combiner!r}") from None
    fold = partial(reduce, partial(_combine_columns, combine))  # left to right over the operands
    labels = tuple(map(PRODUCT_SEPARATOR.join, itertools.product(*(s.parameters for s in sets))))
    out = FuzzySoftSet(universe, labels, fold([s.degrees for s in sets]))
    values = _distinct(np.concatenate([s.levels.values for s in sets]))
    codes = fold([values.searchsorted(s.levels.values).astype(_code_dtype(len(values)))[s.levels.codes] for s in sets])
    vars(out)["levels"] = _frozen_levels(values, codes)  # seeds the cached property
    return out


def _combine_columns(combine: Callable, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``combine(x[:, i], y[:, j])`` in column ``i * y.shape[1] + j``.

    One call per column of ``y`` over all of ``x``: broadcasting both at once
    runs the ufunc's inner loop over only ``y.shape[1]`` cells at a time.
    """
    out = np.empty((x.shape[0], x.shape[1], y.shape[1]), dtype=x.dtype)
    for j in range(y.shape[1]):
        combine(x, y[:, j : j + 1], out=out[:, :, j])
    return out.reshape(x.shape[0], -1)


def restrict(s: FuzzySoftSet, keep: Iterable[str]) -> FuzzySoftSet:
    """Column subset of ``s``, preserving object order and relative label order."""
    keep_set = set(keep)
    if not keep_set:
        raise ValueError("restrict needs a non-empty set of parameter labels")
    unknown = keep_set - set(s.parameters)
    if unknown:
        raise ValueError(f"unknown parameter labels: {sorted(unknown)}")
    cols = [j for j, p in enumerate(s.parameters) if p in keep_set]
    return FuzzySoftSet(
        s.universe,
        tuple(s.parameters[j] for j in cols),
        s.degrees[:, cols],
    )
