"""Text of the run's outputs: CSV grids, the soft-set table, score reports.

Every CSV and report renderer is here, apart from what it renders. A grid
becomes UTF-8 bytes one block of rows at a time, each level formatted once
(``grid_chunks``); fixed-decimal levels are written by integer arithmetic
(``FixedPoint``). ``to_table`` and ``from_table`` round-trip a soft set.
"""
from __future__ import annotations

import csv
import io
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DataError
from .scoring import ScoreReport
from .softset import FuzzySoftSet, Levels, _levels

__all__ = [
    "FixedPoint",
    "csv_field",
    "quoted_ids",
    "grid_chunks",
    "table_chunks",
    "to_table",
    "from_table",
    "number_format",
    "report_to_csv",
    "format_report_text",
]

# Cells rendered at once. A larger block makes fewer numpy calls and fewer,
# larger writes; the size bounds the block's temporaries (its gathered bytes
# and those bytes without their padding), which would otherwise raise peak
# RSS. 2**16 came out of a sweep of 2**12 to 2**17 (see the README, "How
# scoring and rendering scale").
_FORMAT_BLOCK_CELLS = 1 << 16

# Characters that make csv_field quote a cell.
_QUOTED_CHARS = frozenset(',"\r\n')

# Digit pairs "00".."99" as ASCII bytes; rows 100..199 blank the tens digit
# and rows 200..299 both, for the leading zeros of an integer part. A pair is
# written as one uint16, as its two bytes lie in memory.
_PAIRS = np.array(
    [[48 + k // 10, 48 + k % 10] for k in range(100)]
    + [[0xFF, 48 + k % 10] for k in range(100)]
    + [[0xFF, 0xFF]] * 100,
    dtype=np.uint8,
)
_PAIR_CODES = _PAIRS.view(np.uint16).ravel()
# Fixed-point texts by integer arithmetic need an exact int64 10**decimals.
_MAX_FAST_DECIMALS = 17
# Scaled values from here on are formatted by Python: their spacing is a
# quarter or more, too coarse to tell a rounding's side.
_FAST_LIMIT = 2.0**50


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


def _put_pair(raw: np.ndarray, end: int, pair: np.ndarray) -> None:
    """Write the digit pairs ``_PAIRS[pair]`` into the two columns of ``raw`` before ``end``."""
    raw[:, end - 2 : end].view(np.uint16)[:, 0] = _PAIR_CODES[pair]


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
        padded with 0xFF (between any sign and the digits, and after the
        texts that are too long for the digits' place).

        Digits come from ``rint(|x| * 10**decimals)`` by integer arithmetic,
        the sign from ``np.signbit``. A value goes to Python's format instead
        where that product may round otherwise than Python's exact decimal
        conversion: where the scaled value s lies within s * 2**-52 of a half
        (the product is rounded once, by at most half its spacing, and the
        spacing is at most s * 2**-52), where s is 2**50 or more, and where it
        is not finite.
        """
        d, fmt = self.decimals, self._format
        x = np.asarray(values, dtype=float).ravel()
        if d > _MAX_FAST_DECIMALS:
            return _padded([lead + fmt(v).encode() for v in x.tolist()])
        with np.errstate(over="ignore"):
            scaled = np.abs(x) * 10.0**d
        fast = scaled < _FAST_LIMIT
        scaled = np.where(fast, scaled, 0.0)
        fast &= np.abs(scaled - np.floor(scaled) - 0.5) > scaled * 2.0**-52
        units = np.rint(scaled).astype(np.int64)
        whole = units // 10**d
        frac = units - whole * 10**d
        slow = np.flatnonzero(~fast)
        slow_texts = [lead + fmt(v).encode() for v in x[slow].tolist()]
        sign = np.signbit(x) & fast
        has_sign = bool(sign.any())
        int_width = len(str(whole.max())) if len(x) else 1
        width = max([len(lead) + has_sign + int_width + (d and d + 1), *map(len, slow_texts)])
        raw = np.full((len(x), width), 0xFF, dtype=np.uint8)
        raw[:, : len(lead)] = np.frombuffer(lead, dtype=np.uint8)
        if has_sign:
            raw[:, len(lead)] = np.where(sign, ord("-"), 0xFF)
        end = width
        for _ in range(d // 2):
            rest = frac // 100
            _put_pair(raw, end, frac - rest * 100)
            frac = rest
            end -= 2
        if d % 2:
            raw[:, end - 1] = ord("0") + frac
            end -= 1
        if d:
            raw[:, end - 1] = ord(".")
            end -= 1
        for place in range(0, int_width, 2):
            # leading zeros: the tens digit below 10, the whole pair at 0 (but a lone "0")
            blanks = (whole < 10).astype(np.int64)
            if place:
                blanks += whole == 0
            rest = whole // 100
            pair = whole - rest * 100 + 100 * blanks
            whole = rest
            if place + 1 < int_width:
                _put_pair(raw, end, pair)
            else:
                raw[:, end - 1] = _PAIRS[pair, 1]
            end -= 2
        cells = raw.view(f"S{width}").ravel()
        cells[slow] = [t.ljust(width, b"\xff") for t in slow_texts]
        return cells


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
    quoting. With no value columns an empty ID is written ``""``, as the csv
    module writes a row of one empty cell, so it does not read as a blank
    line.

    Cells become text one way: each level is formatted once (a ``FixedPoint``
    formats them all at once) and the cells are looked up by code. The levels
    are the grid's ``levels`` where given (a soft set's, or a count table's
    counts), else each block's own (``_levels``). A float grid's -0.0 cells
    (``np.signbit`` on a zero) look up one more text, so signed zeros keep
    their own text.
    """
    grid = np.ascontiguousarray(grid)
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
    texts (see ``_text_blocks``). Only one block's text exists at a time. A
    ``ValueError`` where the IDs and the grid's rows differ in number.
    """
    header, ids = tuple(header), tuple(ids)
    if len(ids) != len(grid):
        raise ValueError(f"{len(ids)} IDs for a grid of {len(grid)} rows")
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
    data. A quoted cell may span lines. Errors name the 1-based line the
    offending row ends on: ragged rows, non-numeric cells, duplicate headers.
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


def number_format(mode: str, decimals: int = 6) -> Callable[[object], str]:
    """Counts as integers, differences to ``decimals`` places, in tables and reports."""
    return (lambda v: str(int(v))) if mode == "count" else FixedPoint(decimals)


def _score_rows(report: ScoreReport):
    """``(object, row_sum, column_sum, score)`` per object, each array read once as Python numbers."""
    return zip(report.universe, report.row_sums.tolist(), report.column_sums.tolist(), report.scores.tolist())


def report_to_csv(report: ScoreReport, labels: Mapping[str, str] | None = None) -> str:
    """CSV rendering: ``object,row_sum,column_sum,score,prediction,label``."""
    fmt = number_format(report.mode)
    lines = ["object,row_sum,column_sum,score,prediction,label"]
    quoted, _ = quoted_ids(tuple(report.universe))  # the run's quoted IDs, shared with its tables
    for head, (oid, row_sum, column_sum, score) in zip(quoted, _score_rows(report)):
        pred = report.predictions.get(oid, "") if report.predictions else ""
        label = labels.get(oid, "") if labels else ""
        lines.append(f"{head},{fmt(row_sum)},{fmt(column_sum)},{fmt(score)},{pred},{label}")
    return "\n".join(lines) + "\n"


def format_report_text(report: ScoreReport, decimals: int = 2) -> str:
    """Aligned text table of row sums, column sums, scores and predictions."""
    fmt = number_format(report.mode, decimals)
    rows = [("Sample No", "Row Sum", "Column Sum", "Score", "Prediction")]
    for oid, row_sum, column_sum, score in _score_rows(report):
        pred = report.predictions.get(oid, "") if report.predictions else ""
        rows.append((oid, fmt(row_sum), fmt(column_sum), fmt(score), pred))
    widths = [max(len(r[c]) for r in rows) for c in range(5)]
    lines = ["  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip() for row in rows]
    if report.accuracy is not None:
        lines.append(f"accuracy: {report.accuracy:.2f}")
    return "\n".join(lines) + "\n"
