"""Clinical variable definitions and fuzzification.

Five variables (age, body mass index, insulin, leptin, adiponectin) are each
partitioned into labeled fuzzy sets. Fuzzifying a patient record evaluates
every partition's membership function at the record's measurement, producing
one fuzzy soft set per variable over the cohort.

The default partitions reproduce a published risk-ranking study. The study's
printed fuzzy-soft-set tables are not always consistent with its own membership
formulas; ``errata_report`` lists every such cell instead of patching the math.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .membership import MembershipFunction, left_shoulder, make_piecewise, right_shoulder, triangle
from .softset import FuzzySoftSet

__all__ = [
    "HEALTHY_CONTROL",
    "PATIENT",
    "Partition",
    "VariableSpec",
    "PatientRecord",
    "ErrataCell",
    "default_variable_specs",
    "fuzzify_value",
    "fuzzify_cohort",
    "errata_report",
    "specs_to_json",
    "specs_from_json",
    "load_variable_specs",
]

log = logging.getLogger(__name__)

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
        lo, hi = self.display_range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(
                f"variable {self.name!r} needs a finite display range lo < hi, got {self.display_range}"
            )

    @property
    def codes(self) -> list[str]:
        return [p.code for p in self.partitions]

    @property
    def labels(self) -> list[str]:
        """Qualified parameter labels, e.g. ["(AGE)_C", "(AGE)_Y", ...]."""
        return [f"({self.name})_{p.code}" for p in self.partitions]


@dataclass(frozen=True)
class PatientRecord:
    """One row of clinical measurements, with optional ground-truth class."""

    id: str
    measurements: dict[str, float]
    label: str | None = None

    def __post_init__(self) -> None:
        for col, val in self.measurements.items():
            if not (isinstance(val, (int, float)) and math.isfinite(val)) or val < 0:
                raise ValueError(
                    f"record {self.id!r}: measurement {col}={val!r} must be finite and non-negative"
                )
        if self.label is not None and self.label not in (HEALTHY_CONTROL, PATIENT):
            raise ValueError(
                f"record {self.id!r}: label must be {HEALTHY_CONTROL!r} or {PATIENT!r}, got {self.label!r}"
            )


class ErrataCell(NamedTuple):
    """One cell where a printed reference table contradicts the formulas."""

    object_id: str
    parameter: str
    printed: float
    computed: float
    delta: float


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


def fuzzify_value(spec: VariableSpec, x: float) -> dict[str, float]:
    """Degrees of ``x`` in every partition of ``spec``, keyed by partition code."""
    if not math.isfinite(x):
        raise ValueError(f"measurement for {spec.name} must be finite, got {x}")
    return {p.code: p.mf.evaluate(x) for p in spec.partitions}


def fuzzify_cohort(
    records: Sequence[PatientRecord], specs: Sequence[VariableSpec]
) -> list[FuzzySoftSet]:
    """Fuzzify a cohort into one fuzzy soft set per variable.

    Row order follows the input records; parameter labels are the qualified
    per-variable labels. A record landing outside every partition's support is
    legal (an all-zero row); each variable logs one warning counting them.
    """
    universe = tuple(r.id for r in records)
    sets = []
    for spec in specs:
        missing = next((r.id for r in records if spec.column not in r.measurements), None)
        if missing is not None:
            raise DataError(f"record {missing!r} has no {spec.column!r} measurement")
        xs = np.array([r.measurements[spec.column] for r in records], dtype=float)
        degrees = np.column_stack([p.mf.evaluate_many(xs) for p in spec.partitions])
        outside = [universe[i] for i in np.flatnonzero(degrees.max(axis=1) == 0.0)]
        if outside:
            log.warning(
                "%d record(s) have %s outside every %s partition (all degrees zero): %s%s",
                len(outside), spec.column, spec.name, ", ".join(outside[:5]),
                ", ..." if len(outside) > 5 else "",
            )
        sets.append(FuzzySoftSet(universe=universe, parameters=tuple(spec.labels), degrees=degrees))
    return sets


def errata_report(
    computed: FuzzySoftSet, printed: FuzzySoftSet, tolerance: float
) -> list[ErrataCell]:
    """Cells where |computed - printed| exceeds ``tolerance``, largest delta first.

    Both sets must share universe and parameters. The report is the mechanism
    for surfacing defects in printed reference tables; the computed values are
    never adjusted to match.
    """
    if computed.universe != printed.universe or computed.parameters != printed.parameters:
        raise ValueError("errata_report needs identical universe and parameters")
    if tolerance < 0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance}")
    delta = np.abs(computed.degrees - printed.degrees)
    cells = [
        ErrataCell(
            object_id=computed.universe[i],
            parameter=computed.parameters[j],
            printed=float(printed.degrees[i, j]),
            computed=float(computed.degrees[i, j]),
            delta=float(delta[i, j]),
        )
        for i, j in np.argwhere(delta > tolerance)
    ]
    cells.sort(key=lambda c: (-c.delta, c.object_id, c.parameter))
    return cells


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
        except (KeyError, TypeError, ValueError) as exc:
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
        with open(path, encoding="utf-8") as fh:
            return specs_from_json(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read variable spec config {path}: {exc}") from exc
