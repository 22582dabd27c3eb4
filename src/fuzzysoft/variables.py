"""Clinical variable definitions and fuzzification.

Five variables (age, body mass index, insulin, leptin, adiponectin) are each
partitioned into labeled fuzzy sets. Fuzzifying a cohort evaluates every
partition's membership function at each record's measurement, producing one
fuzzy soft set per variable over the cohort.

The default partitions reproduce a published risk-ranking study, whose
printed tables and the errata found against them are in ``fixtures``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .membership import MembershipFunction, evaluate_columns, left_shoulder, make_piecewise, right_shoulder, triangle
from .softset import FuzzySoftSet

__all__ = [
    "HEALTHY_CONTROL",
    "PATIENT",
    "Partition",
    "VariableSpec",
    "Cohort",
    "default_variable_specs",
    "fuzzify_cohort",
    "specs_to_json",
    "specs_from_json",
    "load_variable_specs",
]

# Ground-truth classes a record may carry.
HEALTHY_CONTROL = "healthy-control"
PATIENT = "patient"


@dataclass(frozen=True)
class Partition:
    """One labeled fuzzy set of a variable.

    ``code`` is the short label used in parameter names (e.g. "O" in
    "(AGE)_O"); ``name`` is the descriptive label (e.g. "Old").
    """

    code: str
    name: str
    mf: MembershipFunction


@dataclass(frozen=True)
class VariableSpec:
    """A named clinical variable with its ordered fuzzy partitions."""

    name: str
    column: str
    partitions: tuple[Partition, ...]
    display_range: tuple[float, float] = (0.0, 100.0)

    def __post_init__(self) -> None:
        if not self.partitions:
            raise ValueError(f"variable {self.name!r} needs at least one partition")
        codes = [p.code for p in self.partitions]
        if len(set(codes)) != len(codes):
            raise ValueError(f"variable {self.name!r} has duplicate partition codes: {codes}")
        # The name and codes are written into UTF-8 text and the name into file names.
        if not self.name or not all(codes):
            raise ValueError(f"variable {self.name!r}: a name or partition code may not be empty")
        for text in (self.name, *codes):
            if "\0" in text or any("\ud800" <= ch <= "\udfff" for ch in text):
                raise ValueError(f"variable {self.name!r}: {text!r} holds a NUL or a lone surrogate")
        if "/" in self.name or "\\" in self.name:
            raise ValueError(f"variable {self.name!r}: a name may not hold a path separator")
        lo, hi = self.display_range
        # curves sample linspace(lo, hi), whose step is inf when hi - lo overflows
        if not (lo < hi and math.isfinite(hi - lo)):
            raise ValueError(
                f"variable {self.name!r} needs a display range lo < hi of finite width, got {self.display_range}"
            )

    @property
    def codes(self) -> list[str]:
        return [p.code for p in self.partitions]

    @property
    def labels(self) -> list[str]:
        """Qualified parameter labels, e.g. ["(AGE)_C", "(AGE)_Y", ...]."""
        return [f"({self.name})_{p.code}" for p in self.partitions]


@dataclass(frozen=True, eq=False)
class Cohort:
    """Patients held by column: object IDs, one float array per measurement
    column, and one ground-truth class per row, all in row order."""

    ids: tuple[str, ...]
    columns: Mapping[str, np.ndarray] = field(repr=False)
    labels: tuple[str, ...] = field(repr=False)

    def __post_init__(self) -> None:
        ids, labels = tuple(self.ids), tuple(self.labels)
        if len(labels) != len(ids):
            raise ValueError(f"cohort has {len(labels)} label(s) for {len(ids)} ID(s)")
        unknown = set(labels) - {HEALTHY_CONTROL, PATIENT}
        if unknown:
            raise ValueError(
                f"labels must be {HEALTHY_CONTROL!r} or {PATIENT!r}, got {sorted(unknown, key=str)}"
            )
        columns = {}
        for col, values in self.columns.items():
            xs = np.array(values, dtype=float)
            if xs.shape != (len(ids),):
                raise ValueError(f"column {col!r} has shape {xs.shape}, expected one value per ID")
            bad = np.flatnonzero(~(np.isfinite(xs) & (xs >= 0)))
            if bad.size:
                i = bad[0]
                raise ValueError(
                    f"record {ids[i]!r}: measurement {col}={float(xs[i])!r} must be finite and non-negative"
                )
            xs.setflags(write=False)
            columns[col] = xs
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "columns", MappingProxyType(columns))
        object.__setattr__(self, "labels", labels)


def default_variable_specs() -> list[VariableSpec]:
    """The five study variables with their published membership breakpoints.

    17 labels in total: AGE {C,Y,M,O}, BMI {OI,OII,OIII}, INS {L,M,H},
    LPN {L,M,H,VH}, ADP {L,M,H}. Two printed case expressions are
    discontinuous at a breakpoint (the child-age falling edge and the
    very-high-leptin rising edge); the breakpoints below use the continuous
    reading, which is flagged in the errata documentation.
    """
    return [
        VariableSpec(
            name="AGE",
            column="Age",
            display_range=(0.0, 100.0),
            partitions=(
                Partition("C", "Child", left_shoulder(5, 15)),
                Partition("Y", "Young", triangle(10, 25, 40)),
                Partition("M", "Mild", triangle(30, 45, 60)),
                Partition("O", "Old", right_shoulder(50, 65)),
            ),
        ),
        VariableSpec(
            name="BMI",
            column="BMI",
            display_range=(0.0, 40.0),
            partitions=(
                Partition("OI", "ObesityClassI", left_shoulder(2, 22)),
                Partition("OII", "ObesityClassII", triangle(20, 26, 33)),
                Partition("OIII", "ObesityClassIII", right_shoulder(30, 35)),
            ),
        ),
        VariableSpec(
            name="INS",
            column="Insulin",
            display_range=(0.0, 40.0),
            partitions=(
                Partition("L", "Hypoglycemia", left_shoulder(0, 5)),
                Partition("M", "Normal", triangle(3, 6.5, 10)),
                Partition("H", "Hyperinsulinemia", right_shoulder(8, 10)),
            ),
        ),
        VariableSpec(
            name="LPN",
            column="Leptin",
            display_range=(0.0, 100.0),
            partitions=(
                Partition("L", "LowLeptin", left_shoulder(5, 20)),
                Partition("M", "MediumLeptin", triangle(15, 30, 45)),
                Partition("H", "HighLeptin", triangle(40, 55, 70)),
                Partition("VH", "VeryHighLeptin", right_shoulder(65, 75)),
            ),
        ),
        VariableSpec(
            name="ADP",
            column="Adiponectin",
            display_range=(0.0, 40.0),
            partitions=(
                Partition("L", "LowAdiponectin", left_shoulder(3, 10)),
                Partition("M", "MediumAdiponectin", triangle(7, 15, 23)),
                Partition("H", "HighAdiponectin", right_shoulder(20, 25)),
            ),
        ),
    ]


def _first_ids(ids: Sequence[str]) -> str:
    return ", ".join(ids[:5]) + (", ..." if len(ids) > 5 else "")


def fuzzify_cohort(cohort: Cohort, specs: Sequence[VariableSpec]) -> list[FuzzySoftSet]:
    """Fuzzify a cohort into one fuzzy soft set per variable.

    Row order follows the cohort; parameter labels are the qualified
    per-variable labels. Each variable's column is evaluated at once, every
    partition into one matrix (``membership.evaluate_columns``, which
    ``pipeline.emit_curves`` shares). A record landing outside every
    partition's support is legal (an all-zero row); each variable logs one
    warning counting them.
    """
    universe = cohort.ids
    sets = []
    for spec in specs:
        if spec.column not in cohort.columns:
            raise DataError(
                f"no {spec.column!r} measurement for any of the {len(universe)} record(s): "
                f"{_first_ids(universe)}"
            )
        degrees = evaluate_columns([p.mf for p in spec.partitions], cohort.columns[spec.column])
        outside = [universe[i] for i in np.flatnonzero(degrees.max(axis=1) == 0.0)]
        if outside:
            # here, not at import: importing logging is several ms of `import fuzzysoft`
            import logging

            logging.getLogger(__name__).warning(
                "%d record(s) have %s outside every %s partition (all degrees zero): %s",
                len(outside), spec.column, spec.name, _first_ids(outside),
            )
        sets.append(FuzzySoftSet(universe=universe, parameters=tuple(spec.labels), degrees=degrees))
    return sets


def specs_to_json(specs: Iterable[VariableSpec]) -> str:
    """Serialize variable specs to the JSON config format."""
    out = []
    for spec in specs:
        out.append(
            {
                "name": spec.name,
                "column": spec.column,
                "display_range": list(spec.display_range),
                "partitions": [
                    {
                        "label": p.code,
                        "name": p.name,
                        "nodes": [[x, y] for x, y in p.mf.nodes],
                        "left_tail": p.mf.left_tail,
                        "right_tail": p.mf.right_tail,
                    }
                    for p in spec.partitions
                ],
            }
        )
    return json.dumps(out, indent=2)


def specs_from_json(text: str) -> list[VariableSpec]:
    """Parse the JSON config format back into variable specs."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"variable spec config is not valid JSON: {exc}") from exc
    if not isinstance(raw, list) or not raw:
        raise ConfigError("variable spec config must be a non-empty JSON list")
    specs = []
    for position, entry in enumerate(raw, start=1):
        if not isinstance(entry, dict):
            raise ConfigError(
                f"variable spec entry {position} must be a JSON object, got {type(entry).__name__}"
            )
        try:
            partitions = tuple(
                Partition(
                    code=str(p["label"]),
                    name=str(p.get("name", p["label"])),
                    mf=make_piecewise(
                        p["nodes"],
                        left_tail=float(p.get("left_tail", 0.0)),
                        right_tail=float(p.get("right_tail", 0.0)),
                    ),
                )
                for p in entry["partitions"]
            )
            specs.append(
                VariableSpec(
                    name=str(entry["name"]),
                    column=str(entry["column"]),
                    partitions=partitions,
                    display_range=tuple(entry.get("display_range", (0.0, 100.0))),  # type: ignore[arg-type]
                )
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad variable spec entry {entry.get('name', '?')!r}: {exc}") from exc
    names = [spec.name for spec in specs]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        # each variable writes fuzzy_<name>.csv, so a repeated name would overwrite a table
        raise ConfigError(f"variable spec names must be unique, got duplicates {duplicates}")
    return specs


def load_variable_specs(path) -> list[VariableSpec]:
    """Load variable specs from a JSON config file."""
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a leading BOM is not JSON
            return specs_from_json(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read variable spec config {path}: {exc}") from exc
