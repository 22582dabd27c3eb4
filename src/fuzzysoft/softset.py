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
import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial, reduce
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DataError

__all__ = [
    "COMBINERS",
    "FuzzySoftSet",
    "Levels",
    "product",
    "product_n",
    "restrict",
    "to_table",
    "table_chunks",
    "grid_chunks",
    "csv_field",
    "from_table",
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


# Cells rendered at once. A larger block makes fewer numpy calls and fewer,
# larger writes; the size bounds the block's temporaries (its gathered bytes
# and those bytes without their padding), which would otherwise raise peak
# RSS. 2**16 came out of a sweep of 2**12 to 2**17 (see the README, "How
# scoring and rendering scale").
_FORMAT_BLOCK_CELLS = 1 << 16

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


def _padded(encoded: list[bytes]) -> np.ndarray:
    """UTF-8 texts as one fixed-width bytes array, padded with 0xFF, a byte UTF-8 never holds."""
    width = max([1, *map(len, encoded)])
    return np.array([e.ljust(width, b"\xff") for e in encoded], dtype=f"S{width}")


@lru_cache(maxsize=1)
def quoted_ids(ids: tuple[str, ...]) -> tuple[tuple[str, ...], np.ndarray]:
    """Row IDs as CSV cells: ``csv_field`` of each, and their UTF-8 bytes
    padded (see ``_padded``), built once for every table of a run.

    A run writes its IDs as the row heads of every grid, the header of the
    comparison table and the rows of the score report; the cache, keyed by
    the IDs themselves, quotes and encodes them once for all of them.
    """
    fields = tuple(map(csv_field, ids))
    padded = _padded([f.encode() for f in fields])
    padded.setflags(write=False)
    return fields, padded


class FixedPoint:
    """``'{:.<decimals>f}'.format`` as a callable, and ``texts``, the same
    texts of a whole array at once."""

    def __init__(self, decimals: int) -> None:
        self.decimals = decimals
        self._format = f"{{:.{decimals}f}}".format
        self._format(0.0)  # a ValueError where the format refuses the decimals: negative, fractional, bool

    def __call__(self, value: float) -> str:
        return self._format(value)

    def texts(self, values: np.ndarray, lead: bytes = b"") -> np.ndarray:
        """``lead`` and each value's text in one fixed-width bytes array,
        padded with 0xFF, by integer arithmetic (see ``_fixed_point``)."""
        # here, not at import: where no bytecode is cached, compiling it and
        # building its tables is about 0.5 ms of ``import fuzzysoft``
        from ._fixed_point import fixed_point_texts

        return fixed_point_texts(values, self.decimals, self._format, lead)


def _cell_texts(fmt: Callable, values: np.ndarray) -> np.ndarray:
    """Each of ``values`` as ``fmt`` writes it, after a comma, padded (see ``_padded``)."""
    if isinstance(fmt, FixedPoint):
        return fmt.texts(values, lead=b",")
    return _padded([b"," + fmt(v).encode() for v in values.tolist()])


def _block_text(lead: np.ndarray, cells: np.ndarray, index: np.ndarray) -> bytes:
    """The UTF-8 text of a block of rows: each row's head ``lead[row]``
    (padded, see ``_padded``), its cells' texts ``cells[index[row]]`` (see
    ``_cell_texts``), and a line feed.

    Every byte of the block is gathered into one fixed-width array and the
    padding is dropped, so no Python string exists per cell or per row, and
    the block is never decoded: it goes to disk as it is.
    """
    width = lead.itemsize
    raw = np.empty((len(index), width + index.shape[1] * cells.itemsize + 1), dtype=np.uint8)
    raw[:, :width] = lead.view(np.uint8).reshape(len(index), width)
    # np.take(..., out=) into this strided view kept wide-1k's benchmark peak
    # RSS about 5 MB higher
    raw[:, width:-1].view(cells.dtype)[...] = np.take(cells, index)
    raw[:, -1] = ord("\n")
    return raw.tobytes().replace(b"\xff", b"")


def _text_blocks(
    ids: tuple[str, ...], grid: np.ndarray, fmt: Callable, levels: Levels | None = None
) -> Iterator[bytes]:
    """UTF-8 CSV rows of a 2-D numeric array, each led by its ID, one chunk
    per block of at most ``_FORMAT_BLOCK_CELLS`` cells.

    A row is ``csv_field(id)`` (from the run's ``quoted_ids``), then
    ``fmt(value)`` of each cell, joined by commas; formatted numbers need no
    quoting. Rows past the last ID are dropped. With no value columns an
    empty ID is written ``""``, as the csv module writes a row of one empty
    cell, so it does not read as a blank line.

    Cells become text one way: each level is formatted once (a ``FixedPoint``
    formats them all at once) and the cells are looked up by code. The levels
    are the grid's ``levels`` where given (a soft set's, or a count table's
    counts), else each block's own (``_levels``). A float grid's -0.0 cells
    (``np.signbit`` on a zero) look up one more text, so signed zeros keep
    their own text.
    """
    grid = np.ascontiguousarray(grid)[: len(ids)]
    n_rows, n_cols = grid.shape
    step = max(1, _FORMAT_BLOCK_CELLS // max(1, n_cols))
    fields, heads = quoted_ids(ids)
    if not n_cols:
        heads = _padded([(f or '""').encode() for f in fields])
    for start in range(0, n_rows, step):
        block = grid[start : start + step]
        if levels is None:
            values, index = _levels(block)
        else:
            values, index = levels.values, levels.codes[start : start + step]
        if levels is None or start == 0:  # the grid's levels are formatted once
            cells = _cell_texts(fmt, values)
        # only float grids hold -0.0; a negative difference has the sign bit too
        if grid.dtype.kind == "f" and (signed := np.signbit(block)).any():
            signed &= block == 0
            if signed.any():
                # the -0.0 text joins the table only once a cell needs it: a
                # wider text pads every cell, and padding is slow to drop
                if len(cells) == len(values):
                    cells = _cell_texts(fmt, np.append(values, -0.0))
                index = np.where(signed, len(values), index)
        yield _block_text(heads[start : start + step], cells, index)


def grid_chunks(
    header: Sequence[str], ids: Iterable[str], grid: np.ndarray, fmt: Callable, levels: Levels | None = None
) -> Iterator[bytes]:
    """UTF-8 CSV text of a grid with one ID per row: the header line, then one chunk per row block.

    Header cells and IDs go through ``csv_field``, cells through their levels'
    texts (see ``_text_blocks``). Only one block's text exists at a time.
    """
    header = tuple(header)
    ids = tuple(itertools.islice(ids, len(grid)))
    # a table of pairs (the comparison table) is headed by its rows' own IDs
    if ids and header[1:] == ids:
        yield (",".join((csv_field(header[0]), *quoted_ids(ids)[0])) + "\n").encode()
    else:
        yield (",".join(map(csv_field, header)) + "\n").encode()
    yield from _text_blocks(ids, grid, fmt, levels)


def table_chunks(s: FuzzySoftSet, decimals: int | None = None) -> Iterator[bytes]:
    """The UTF-8 text of ``to_table(s, decimals)``: the header line, then one chunk per row block."""
    fmt = repr if decimals is None else FixedPoint(decimals)
    # a generator, so s.levels is read only once its file is written
    yield from grid_chunks(("object", *s.parameters), s.universe, s.degrees, fmt, s.levels)


def to_table(s: FuzzySoftSet, decimals: int | None = None) -> str:
    """Serialize as CSV text: header ``object,<label>,...``, one row per object.

    With ``decimals=None`` degrees print at full precision (repr), so
    ``from_table(to_table(s)) == s`` exactly. Pass ``decimals=6`` for the
    export format.
    """
    return b"".join(table_chunks(s, decimals)).decode()


def from_table(text: str) -> FuzzySoftSet:
    """Parse CSV text produced by ``to_table`` (or compatible external files).

    Rows whose text is only whitespace and rows whose text starts with an
    unquoted ``#`` are ignored, so quoted IDs such as ``""`` and ``"#a"`` are
    data. A quoted cell may span
    lines. Errors name the 1-based line the offending row ends on: ragged
    rows, non-numeric cells, duplicate headers.
    """
    rows: list[tuple[int, list[str]]] = []
    lines = list(io.StringIO(text, newline=""))
    reader = csv.reader(lines)
    end = 0
    for row in reader:
        start, end = end, reader.line_num
        raw = "".join(lines[start:end]).lstrip()
        if not raw or raw.startswith("#"):
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
