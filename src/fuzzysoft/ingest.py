"""Loading the blood-marker CSV and the built-in ten-patient cohort.

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
from typing import Iterable, Sequence

from .errors import DataError
from .variables import HEALTHY_CONTROL, PATIENT, PatientRecord, VariableSpec, default_variable_specs

__all__ = [
    "DatasetSchema",
    "DEFAULT_SCHEMA",
    "load_csv",
    "select_samples",
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


DEFAULT_SCHEMA = DatasetSchema()


def _parse_measurement(cell: str, row: int, column: str) -> float:
    token = cell.strip()
    # float() would accept "1_000" and "nan"; measurements must be plain
    # locale-independent decimals.
    if not token or "_" in token:
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
) -> list[PatientRecord]:
    """Read patient records from a CSV file, in file order.

    Each record holds the measurement columns ``specs`` name (default: the
    built-in variables) and the class label. Object IDs are mu_1 ... mu_n by
    1-based data-row position unless the schema names an explicit ID column,
    whose values must be unique. Parse failures name the row and column.
    """
    if specs is None:
        specs = default_variable_specs()
    columns = list(dict.fromkeys(s.column for s in specs))
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    index: dict[str, int] = {}
    for canonical in columns + [LABEL_COLUMN]:
        source = schema.column_map.get(canonical, canonical)
        if source not in header:
            raise DataError(f"{path}: missing header column {source!r}")
        index[canonical] = header.index(source)
    id_index = None
    if schema.id_column is not None:
        if schema.id_column not in header:
            raise DataError(f"{path}: missing ID column {schema.id_column!r}")
        id_index = header.index(schema.id_column)

    records = []
    seen_ids: set[str] = set()
    for pos, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise DataError(f"{path}: row {pos} has {len(row)} cells, expected {len(header)}")
        measurements = {
            col: _parse_measurement(row[index[col]], pos, header[index[col]]) for col in columns
        }
        raw_label = row[index[LABEL_COLUMN]].strip()
        if raw_label not in schema.label_encoding:
            raise DataError(
                f"{path}: row {pos}: unknown label value {raw_label!r} "
                f"(expected one of {sorted(schema.label_encoding)})"
            )
        oid = row[id_index].strip() if id_index is not None else f"{OBJECT_ID_PREFIX}{pos}"
        if oid in seen_ids:
            raise DataError(f"{path}: row {pos}: duplicate object ID {oid!r}")
        seen_ids.add(oid)
        records.append(
            PatientRecord(id=oid, measurements=measurements, label=schema.label_encoding[raw_label])
        )
    return records


def select_samples(
    records: Sequence[PatientRecord], selection: Iterable[int | str]
) -> list[PatientRecord]:
    """Pick records by 1-based position (int) or object ID (str), in request order."""
    by_id = {r.id: r for r in records}
    picked = []
    for key in selection:
        if isinstance(key, int):
            if not 1 <= key <= len(records):
                raise DataError(f"index {key} out of range 1..{len(records)}")
            picked.append(records[key - 1])
        else:
            if key not in by_id:
                raise DataError(f"unknown object ID {key!r}")
            picked.append(by_id[key])
    return picked


# The published ten-patient sample, with ground-truth classes: the first five
# are healthy controls, the last five are patients.
_TABLE1 = (
    ("3", 82, 23.12, 4.50, 17.94, 22.43, HEALTHY_CONTROL),
    ("11", 49, 23.01, 5.66, 35.59, 26.72, HEALTHY_CONTROL),
    ("19", 64, 34.53, 4.43, 21.21, 5.46, HEALTHY_CONTROL),
    ("31", 66, 36.21, 15.53, 74.71, 7.54, HEALTHY_CONTROL),
    ("45", 71, 30.30, 8.34, 56.50, 8.13, HEALTHY_CONTROL),
    ("60", 62, 22.66, 3.48, 9.86, 11.24, PATIENT),
    ("71", 44, 24.74, 58.46, 18.16, 16.10, PATIENT),
    ("82", 71, 25.51, 10.40, 19.07, 5.49, PATIENT),
    ("91", 82, 31.22, 18.08, 31.65, 9.92, PATIENT),
    ("104", 57, 34.84, 12.55, 33.16, 2.36, PATIENT),
)


def builtin_table1() -> list[PatientRecord]:
    """The published ten-patient cohort, so the pipeline runs with no external file."""
    return [
        PatientRecord(
            id=f"{OBJECT_ID_PREFIX}{num}",
            measurements={
                "Age": float(age),
                "BMI": bmi,
                "Insulin": insulin,
                "Leptin": leptin,
                "Adiponectin": adiponectin,
            },
            label=label,
        )
        for num, age, bmi, insulin, leptin, adiponectin, label in _TABLE1
    ]
