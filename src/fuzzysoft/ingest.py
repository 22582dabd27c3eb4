"""Loading the blood-marker CSV and the built-in ten-patient cohort, by column.

The expected file layout is the Coimbra breast-cancer dataset from the UCI
Machine Learning Repository: a header row, comma delimiter, UTF-8, with
columns Age, BMI, Glucose, Insulin, HOMA, Leptin, Adiponectin, Resistin,
MCP.1 and Classification (1 = healthy control, 2 = patient). Only the columns
the variable specs name and the class column are read; the rest are ignored.
Column names and label codes are remappable through ``DatasetSchema``.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Mapping, NoReturn, Sequence

import numpy as np

from .errors import ConfigError, DataError, InternalError
from .variables import HEALTHY_CONTROL, PATIENT, Cohort, VariableSpec, default_variable_specs

__all__ = [
    "DatasetSchema",
    "DEFAULT_SCHEMA",
    "load_csv",
    "builtin_table1",
]

LABEL_COLUMN = "Classification"

OBJECT_ID_PREFIX = "μ_"  # mu, matching the study's sample subscripts


@dataclass(frozen=True)
class DatasetSchema:
    """Maps canonical column names and label codes onto a source file's headers.

    A canonical name missing from ``column_map`` is read from the header of
    the same name.
    """

    # The identity entries change nothing that is read, but the config hash
    # covers this map, so the default keeps them.
    column_map: dict[str, str] = field(
        default_factory=lambda: {
            c: c for c in ("Age", "BMI", "Insulin", "Leptin", "Adiponectin", LABEL_COLUMN)
        }
    )
    label_encoding: dict[str, str] = field(
        default_factory=lambda: {"1": HEALTHY_CONTROL, "2": PATIENT}
    )
    id_column: str | None = None  # None: ids are mu_<row position>, 1-based

    def __post_init__(self) -> None:
        for what, mapping in (("column map", self.column_map), ("label encoding", self.label_encoding)):
            if not isinstance(mapping, Mapping) or not all(isinstance(s, str) for pair in mapping.items() for s in pair):
                raise ConfigError(f"{what} must map strings to strings, got {mapping!r}")
        if not isinstance(self.id_column, (str, type(None))):
            raise ConfigError(f"id column must be a string or None, got {self.id_column!r}")
        unknown = set(self.label_encoding.values()) - {HEALTHY_CONTROL, PATIENT}
        if unknown:
            raise ConfigError(
                f"label encoding must map onto {HEALTHY_CONTROL!r} or {PATIENT!r}, "
                f"got {sorted(unknown, key=str)}"
            )


DEFAULT_SCHEMA = DatasetSchema()


def _parse_measurement(cell: str, row: int, column: str) -> float:
    token = cell.strip()
    # float() would accept "1_000", "nan" and non-ASCII digits such as "٣٣";
    # measurements must be plain locale-independent decimals.
    if not token or "_" in token or not token.isascii():
        raise DataError(f"row {row}, column {column!r}: cannot parse {cell!r} as a number")
    try:
        value = float(token)
    except ValueError:
        raise DataError(f"row {row}, column {column!r}: cannot parse {cell!r} as a number") from None
    if not (value == value and abs(value) != float("inf")):
        raise DataError(f"row {row}, column {column!r}: value {cell!r} is not finite")
    if value < 0:
        raise DataError(f"row {row}, column {column!r}: value {cell!r} is negative")
    return value


def load_csv(
    path, schema: DatasetSchema = DEFAULT_SCHEMA, specs: Sequence[VariableSpec] | None = None
) -> Cohort:
    """Read a cohort from a CSV file, in file order.

    The cohort holds the measurement columns ``specs`` name (default: the
    built-in variables) and the class labels. Object IDs are mu_1 ... mu_n by
    1-based data-row position unless the schema names an explicit ID column,
    whose values must be unique. Every column read (the class and ID columns
    included) must be named exactly once in the header; other columns may
    repeat. Parse failures name the row and column.

    Each column is read in one pass (see ``_read_columns``). Where any check
    fails, the rows are walked in file order (``_raise_first_bad_cell``), so
    the error is the one for the first bad cell, as a cell-by-cell read gives.
    """
    if specs is None:
        specs = default_variable_specs()
    columns = list(dict.fromkeys(s.column for s in specs))
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # a leading BOM is not part of the header
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    rows = [r for r in rows if r and any(map(str.strip, r))]
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]

    def position(source: str, what: str) -> int:
        # a read column named twice would silently read its first copy
        if header.count(source) > 1:
            raise DataError(f"{path}: header names column {source!r} {header.count(source)} times")
        if source not in header:
            raise DataError(f"{path}: missing {what} {source!r}")
        return header.index(source)

    index = {
        canonical: position(schema.column_map.get(canonical, canonical), "header column")
        for canonical in columns + [LABEL_COLUMN]
    }
    id_index = None if schema.id_column is None else position(schema.id_column, "ID column")
    read = (rows[1:], header, index, columns, schema.label_encoding, id_index)
    cohort = _read_columns(*read)
    if cohort is None:
        _raise_first_bad_cell(path, *read)
    return cohort


def _read_columns(
    body: list[list[str]], header: list[str], index: dict[str, int], columns: list[str],
    encoding: Mapping[str, str], id_index: int | None,
) -> Cohort | None:
    """The cohort, read one column at a time, or None if any cell fails a check.

    Each measurement column is stripped, checked as ``_parse_measurement``
    checks a cell (not empty, no ``_``, ASCII only) on the whole column at
    once, mapped through ``float`` and checked for finiteness and sign with
    numpy. The rows' widths, the labels and the IDs are checked as a whole too.
    """
    if any(len(row) != len(header) for row in body):
        return None
    values = {}
    for col in columns:
        tokens = [row[index[col]].strip() for row in body]
        joined = "".join(tokens)
        if not all(tokens) or "_" in joined or not joined.isascii():
            return None
        try:
            xs = np.fromiter(map(float, tokens), float, len(tokens))
        except ValueError:
            return None
        if not (np.isfinite(xs).all() and (xs >= 0).all()):
            return None
        values[col] = xs
    raw_labels = [row[index[LABEL_COLUMN]].strip() for row in body]
    if not encoding.keys() >= set(raw_labels):
        return None
    if id_index is None:
        ids = [f"{OBJECT_ID_PREFIX}{pos}" for pos in range(1, len(body) + 1)]
    else:
        ids = [row[id_index].strip() for row in body]
        if len(set(ids)) != len(ids):
            return None
    return Cohort(tuple(ids), values, tuple(map(encoding.__getitem__, raw_labels)))


def _raise_first_bad_cell(
    path, body: list[list[str]], header: list[str], index: dict[str, int], columns: list[str],
    encoding: Mapping[str, str], id_index: int | None,
) -> NoReturn:
    """Raise the ``DataError`` of the first bad cell, walking the rows in file
    order: a row's width, its measurements in ``columns`` order, its label,
    then its ID. Raise ``InternalError`` if no cell is bad, since
    ``_read_columns`` then refused a file it should have read."""
    ids: set[str] = set()
    for pos, row in enumerate(body, start=1):
        if len(row) != len(header):
            raise DataError(f"{path}: row {pos} has {len(row)} cells, expected {len(header)}")
        for col in columns:
            _parse_measurement(row[index[col]], pos, header[index[col]])
        raw_label = row[index[LABEL_COLUMN]].strip()
        if raw_label not in encoding:
            raise DataError(
                f"{path}: row {pos}: unknown label value {raw_label!r} "
                f"(expected one of {sorted(encoding)})"
            )
        oid = row[id_index].strip() if id_index is not None else f"{OBJECT_ID_PREFIX}{pos}"
        if oid in ids:
            raise DataError(f"{path}: row {pos}: duplicate object ID {oid!r}")
        ids.add(oid)
    raise InternalError(f"{path}: the column checks refused a file whose every cell is valid")


# The published ten-patient sample, with ground-truth classes: the first five
# are healthy controls, the last five are patients. The numbers are the rows'
# 1-based positions in the full dataset.
_TABLE1_ROWS = (3, 11, 19, 31, 45, 60, 71, 82, 91, 104)
_TABLE1_COLUMNS = {
    "Age": (82, 49, 64, 66, 71, 62, 44, 71, 82, 57),
    "BMI": (23.12, 23.01, 34.53, 36.21, 30.30, 22.66, 24.74, 25.51, 31.22, 34.84),
    "Insulin": (4.50, 5.66, 4.43, 15.53, 8.34, 3.48, 58.46, 10.40, 18.08, 12.55),
    "Leptin": (17.94, 35.59, 21.21, 74.71, 56.50, 9.86, 18.16, 19.07, 31.65, 33.16),
    "Adiponectin": (22.43, 26.72, 5.46, 7.54, 8.13, 11.24, 16.10, 5.49, 9.92, 2.36),
}
_TABLE1_LABELS = (HEALTHY_CONTROL,) * 5 + (PATIENT,) * 5


def builtin_table1() -> Cohort:
    """The published ten-patient cohort, so the pipeline runs with no external file."""
    return Cohort(
        tuple(f"{OBJECT_ID_PREFIX}{row}" for row in _TABLE1_ROWS), _TABLE1_COLUMNS, _TABLE1_LABELS
    )
