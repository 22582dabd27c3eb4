"""Fuzzy soft sets and their algebra.

A fuzzy soft set is an objects-by-parameters matrix of membership degrees in
[0, 1]. The algebra here covers parameter-wise products (cellwise min or max
over the Cartesian product of parameter lists), column restriction, and a
tabular text serialization that round-trips at full precision.

The product combiner is an explicit argument because the study this library
reproduces applies MAX while calling the operation AND; the classical soft-set
AND is cellwise min. Both are one call away.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError

__all__ = [
    "COMBINERS",
    "FuzzySoftSet",
    "product",
    "product_n",
    "restrict",
    "to_table",
    "table_chunks",
    "grid_chunks",
    "csv_field",
    "from_table",
    "format_rows",
    "positional_labels",
]

PRODUCT_SEPARATOR = "×"  # multiplication sign, joins parameter labels

# Product combiners by name: max is what the study applied, min the classical AND.
COMBINERS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "max": np.maximum,
    "min": np.minimum,
}


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
        if degrees.size and (not np.all(np.isfinite(degrees)) or degrees.min() < 0.0 or degrees.max() > 1.0):
            raise ValueError("degrees must lie in [0, 1]")
        degrees.setflags(write=False)
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "parameters", parameters)
        object.__setattr__(self, "degrees", degrees)

    @property
    def shape(self) -> tuple[int, int]:
        return self.degrees.shape

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
        return hash((self.universe, self.parameters, self.degrees.tobytes()))


def _check_same_universe(a: FuzzySoftSet, b: FuzzySoftSet) -> None:
    if a.universe != b.universe:
        raise ValueError(
            f"universe mismatch: {a.universe} vs {b.universe} (same IDs in the same order required)"
        )


def product(a: FuzzySoftSet, b: FuzzySoftSet, combiner: str = "max") -> FuzzySoftSet:
    """Parameter-product of two fuzzy soft sets over a shared universe.

    The result has one column per (pa, pb) pair in row-major order (a's label
    varies slower), labeled "pa{x}pb", and cell value combiner(a[o,pa], b[o,pb])
    with combiner "min" (classical AND) or "max".
    """
    _check_same_universe(a, b)
    try:
        combine = COMBINERS[combiner]
    except KeyError:
        raise ValueError(f"combiner must be one of {list(COMBINERS)}, got {combiner!r}") from None
    labels = tuple(
        f"{pa}{PRODUCT_SEPARATOR}{pb}" for pa in a.parameters for pb in b.parameters
    )
    degrees = combine(a.degrees[:, :, None], b.degrees[:, None, :]).reshape(len(a.universe), -1)
    return FuzzySoftSet(a.universe, labels, degrees)


def product_n(sets: Sequence[FuzzySoftSet], combiner: str = "max") -> FuzzySoftSet:
    """Left fold of ``product`` over one or more fuzzy soft sets."""
    if not sets:
        raise ValueError("product_n needs at least one fuzzy soft set")
    return reduce(lambda acc, s: product(acc, s, combiner), sets)


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


def positional_labels(s: FuzzySoftSet, prefix: str = "€") -> dict[str, str]:
    """Display aliases keyed by column index, in the study's positional style."""
    return {p: f"{prefix}{j + 1}" for j, p in enumerate(s.parameters)}


# Cells formatted at once by format_rows. It bounds the temporaries, above all
# the block's formatted strings, which would otherwise raise peak RSS.
_FORMAT_BLOCK_CELLS = 1 << 14

# Characters that make csv_field quote a cell.
_QUOTED_CHARS = frozenset(',"\r\n')


def csv_field(text: str) -> str:
    """``text`` as one cell of a CSV row of several cells.

    Quoted where the csv module quotes it (a comma, a double quote or a line
    feed), and also where it holds a carriage return, which the csv module
    leaves bare although readers end a line there, or starts with ``#``,
    which ``from_table`` and the outputs' footers use for comment lines.
    """
    if text.startswith("#") or not _QUOTED_CHARS.isdisjoint(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _row_blocks(grid: np.ndarray, fmt: Callable) -> Iterator[list[list[str]]]:
    """``format_rows``, one list of rows per block of at most ``_FORMAT_BLOCK_CELLS`` cells."""
    grid = np.ascontiguousarray(grid)
    n_rows, n_cols = grid.shape
    step = max(1, _FORMAT_BLOCK_CELLS // max(1, n_cols))
    bits = f"u{grid.itemsize}"
    lookup = None
    if grid.size and grid.dtype.kind in "iu":
        lo, hi = grid.min(), grid.max()
        if int(hi) - int(lo) < grid.size:
            lookup = np.array([fmt(v) for v in range(int(lo), int(hi) + 1)], dtype=object)
    for start in range(0, n_rows, step):
        block = grid[start : start + step]
        if lookup is not None:
            # block - lo wraps in the grid's dtype; read unsigned it is the
            # exact offset, since it lies in [0, hi - lo].
            texts, index = lookup, (block - lo).view(bits)
        else:
            values, index = np.unique(block.view(bits).ravel(), return_inverse=True)
            texts = np.array([fmt(v) for v in values.view(grid.dtype).tolist()], dtype=object)
        yield texts[index].reshape(block.shape).tolist()


def format_rows(grid: np.ndarray, fmt: Callable) -> Iterator[list[str]]:
    """Each row of a 2-D numeric array as a list of ``fmt(value)`` strings.

    Equal to ``[fmt(v) for v in row.tolist()]`` per row, but each distinct
    value is formatted once. An integer grid whose values span fewer integers
    than it has cells formats every integer in that span once and looks the
    cells up by offset. Any other grid formats the distinct values of each
    block of rows; values are told apart by bit pattern, so -0.0 and 0.0
    keep their own text.
    """
    for rows in _row_blocks(grid, fmt):
        yield from rows


def grid_chunks(header: Sequence[str], ids: Iterable[str], grid: np.ndarray, fmt: Callable) -> Iterator[str]:
    """CSV text of a grid with one ID per row: the header line, then one chunk per row block.

    Header cells and IDs go through ``csv_field``; formatted numbers never
    need quoting. Only one block's text exists at a time.
    """
    yield ",".join(map(csv_field, header)) + "\n"
    sep = "," if grid.shape[1] else ""
    ids = iter(ids)
    for rows in _row_blocks(grid, fmt):
        # rows first, so zip stops without drawing the next block's first ID
        yield "".join(f"{csv_field(oid)}{sep}{','.join(cells)}\n" for cells, oid in zip(rows, ids))


def table_chunks(s: FuzzySoftSet, decimals: int | None = None) -> Iterator[str]:
    """The text of ``to_table(s, decimals)`` as the header line and then one chunk per row block."""
    fmt = repr if decimals is None else f"{{:.{decimals}f}}".format
    return grid_chunks(("object", *s.parameters), s.universe, s.degrees, fmt)


def to_table(s: FuzzySoftSet, decimals: int | None = None) -> str:
    """Serialize as CSV text: header ``object,<label>,...``, one row per object.

    With ``decimals=None`` degrees print at full precision (repr), so
    ``from_table(to_table(s)) == s`` exactly. Pass ``decimals=6`` for the
    export format.
    """
    return "".join(table_chunks(s, decimals))


def from_table(text: str) -> FuzzySoftSet:
    """Parse CSV text produced by ``to_table`` (or compatible external files).

    Blank rows and rows whose text starts with an unquoted ``#`` are
    ignored, so a quoted ID such as ``"#a"`` is data. A quoted cell may span
    lines. Errors name the 1-based line the offending row ends on: ragged
    rows, non-numeric cells, duplicate headers.
    """
    rows: list[tuple[int, list[str]]] = []
    lines = list(io.StringIO(text, newline=""))
    reader = csv.reader(lines)
    end = 0
    for row in reader:
        start, end = end, reader.line_num  # the row's lines are lines[start:end]
        if not row or (len(row) == 1 and not row[0].strip()) or lines[start].lstrip().startswith("#"):
            continue
        rows.append((end, row))
    if not rows:
        raise DataError("empty table")
    header_line, header = rows[0]
    if not header or header[0] != "object":
        raise DataError(f"line {header_line}: header must start with 'object', got {header[:1]}")
    labels = header[1:]
    if len(set(labels)) != len(labels):
        dupes = sorted({p for p in labels if labels.count(p) > 1})
        raise DataError(f"line {header_line}: duplicate header labels {dupes}")
    universe: list[str] = []
    degrees: list[list[float]] = []
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise DataError(f"line {lineno}: expected {len(header)} cells, got {len(row)}")
        universe.append(row[0])
        values = []
        for j, cell in enumerate(row[1:], start=2):
            try:
                values.append(float(cell))
            except ValueError:
                raise DataError(f"line {lineno}: non-numeric cell {cell!r} in column {j}") from None
        degrees.append(values)
    try:
        return FuzzySoftSet(
            tuple(universe), tuple(labels), np.array(degrees, dtype=float).reshape(len(universe), len(labels))
        )
    except ValueError as exc:
        raise DataError(str(exc)) from exc
