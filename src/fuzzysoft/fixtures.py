"""The published study: its printed tables and every comparison made against them.

The per-variable, comparison and score tables are transcribed verbatim from
the source study's printed tables, including cells that contradict the
study's own membership formulas. They are verification fixtures and errata
baselines only; none of the computational paths read results from them, with
one deliberate exception: the 72-column product table that the
study-faithful scoring stage consumes.

The study's two printed product tables are not transcribed: each is, bit for
bit, the max product of the printed per-variable tables. The 12-column one is
AGE x BMI, whole. The 72-column one departs from the reduced sets the study
states (AGE {M, O}, LPN {L, M}, the rest whole, which give 108 columns and
keep BMI OI): it drops BMI OI and folds LPN M and H into one factor, their
cellwise max. Each of its columns is a conjunction of one partition per
marker, which is likely what the study's abstract calls its "fuzzy
inference rules"; that reading is an inference, as only the abstract is at
hand.

Where a printed cell contradicts the formulas, ``errata_report`` lists it
instead of patching the math; ``errata_cells`` is the one errata pass against
the printed per-variable tables, whose cells ``run`` writes to ``errata.csv``.
``verify_fixtures`` checks each recomputed stage against its printed table:
"hard" where it should be reproducible up to its known misprints (which must
then show up in the errata and nowhere else), "soft" where the study is
internally inconsistent and only a match rate can be reported.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .ingest import builtin_table1
from .scoring import HIGH_RISK, ComparisonTable, ScoreReport, classify, comparison_table, evaluate, scores
from .softset import PRODUCT_SEPARATOR, FuzzySoftSet, product, product_n, restrict
from .variables import default_variable_specs, fuzzify_cohort

__all__ = [
    "COHORT_IDS", "GROUND_TRUTH", "published_variable_table", "published_variable_tables",
    "published_age_bmi_product", "published_product_table", "published_comparison_table",
    "PUBLISHED_SCORE_ROWS", "PUBLISHED_ACCURACY", "TOLERANCE", "ErrataCell", "errata_report",
    "errata_cells", "CheckResult", "VerificationReport", "verify_fixtures",
]

# Table 1's IDs and classes, as ingest transcribes them.
_TABLE1 = builtin_table1()
COHORT_IDS = _TABLE1.ids
GROUND_TRUTH = dict(zip(_TABLE1.ids, _TABLE1.labels))

# Printed per-variable fuzzy-soft-set tables (rows in cohort order).
_PRINTED_TABLES = {
    "AGE": [
        [0.00, 0.00, 0.00, 1.00],
        [0.00, 0.00, 0.73, 0.00],
        [0.00, 0.00, 0.00, 0.93],
        [0.00, 0.00, 0.00, 1.00],
        [0.00, 0.00, 0.00, 1.00],
        [0.00, 0.00, 0.00, 0.80],
        [0.00, 0.00, 0.93, 0.00],
        [0.00, 0.00, 0.00, 1.00],
        [0.00, 0.00, 0.00, 1.00],
        [0.00, 0.00, 0.20, 0.46],
    ],
    "BMI": [
        [0.00, 0.50, 0.00],
        [0.00, 0.50, 0.00],
        [0.00, 0.00, 0.80],
        [0.00, 0.00, 1.00],
        [0.00, 0.83, 0.00],
        [0.00, 0.33, 0.00],
        [0.00, 0.80, 0.00],
        [0.00, 0.83, 0.00],
        [0.00, 0.35, 0.24],
        [0.00, 0.00, 0.96],
    ],
    "INS": [
        [0.10, 0.42, 0.00],
        [0.00, 0.76, 0.00],
        [0.11, 0.40, 0.00],
        [0.00, 0.00, 1.00],
        [0.00, 0.47, 0.14],
        [0.43, 0.13, 0.00],
        [0.00, 0.00, 1.00],
        [0.00, 0.00, 1.00],
        [0.00, 0.00, 1.00],
        [0.00, 0.00, 1.00],
    ],
    "LPN": [
        [0.17, 0.16, 0.00, 0.00],
        [0.00, 0.62, 0.00, 0.00],
        [0.00, 0.41, 0.00, 0.00],
        [0.00, 0.00, 0.64, 0.00],
        [0.00, 0.00, 0.99, 0.00],
        [0.68, 0.00, 0.00, 0.00],
        [0.00, 0.21, 0.00, 0.00],
        [0.06, 0.27, 0.00, 0.00],
        [0.00, 0.89, 0.00, 0.00],
        [0.00, 0.78, 0.00, 0.00],
    ],
    "ADP": [
        [0.00, 0.07, 0.48],
        [0.00, 0.00, 1.00],
        [0.64, 0.00, 0.00],
        [0.35, 0.06, 0.00],
        [0.26, 0.14, 0.00],
        [0.00, 0.53, 0.00],
        [0.00, 0.86, 0.00],
        [0.65, 0.00, 0.00],
        [0.02, 0.36, 0.00],
        [1.00, 0.00, 0.00],
    ],
}

_PARAMETER_LABELS = {spec.name: tuple(spec.labels) for spec in default_variable_specs()}


def published_variable_table(name: str) -> FuzzySoftSet | None:
    """The printed per-variable table of variable ``name``; None if none was printed."""
    rows = _PRINTED_TABLES.get(name)
    if rows is None:
        return None
    return FuzzySoftSet(COHORT_IDS, _PARAMETER_LABELS[name], np.array(rows, dtype=float))


def published_variable_tables() -> dict[str, FuzzySoftSet]:
    """The five printed per-variable tables, keyed by variable name."""
    return {var: published_variable_table(var) for var in _PRINTED_TABLES}


def published_age_bmi_product() -> FuzzySoftSet:
    """The printed max-combined product of the age and BMI tables."""
    return product(published_variable_table("AGE"), published_variable_table("BMI"), "max")


def published_product_table() -> FuzzySoftSet:
    """The study's 72-column product table, labeled €1..€72 in its own style.

    The max product of the printed tables, AGE varying slowest, over
    AGE {M, O}, BMI {OII, OIII}, INS, LPN as L and the cellwise max of M and
    H, and ADP.
    """
    t = published_variable_tables()
    lpn = t["LPN"].degrees
    lpn_folded = np.stack([lpn[:, 0], np.maximum(lpn[:, 1], lpn[:, 2])], axis=1)
    factors = [
        restrict(t["AGE"], ["(AGE)_M", "(AGE)_O"]),
        restrict(t["BMI"], ["(BMI)_OII", "(BMI)_OIII"]),
        t["INS"],
        FuzzySoftSet(COHORT_IDS, ("(LPN)_L", "(LPN)_MH"), lpn_folded),
        t["ADP"],
    ]
    degrees = product_n(factors, "max").degrees
    return FuzzySoftSet(COHORT_IDS, tuple(f"€{k}" for k in range(1, 73)), degrees)


# Printed pairwise comparison counts (rows and columns in cohort order).
_COMPARISON = [
    [72, 36, 48, 48, 48, 42, 36, 43, 46, 40],
    [48, 72, 36, 32, 30, 64, 28, 32, 32, 28],
    [24, 36, 72, 12, 12, 63, 24, 12, 10, 12],
    [60, 60, 60, 72, 60, 60, 60, 60, 62, 60],
    [48, 54, 60, 48, 72, 62, 36, 52, 48, 44],
    [30, 8, 9, 12, 11, 72, 8, 6, 12, 8],
    [48, 53, 48, 36, 48, 64, 72, 48, 48, 40],
    [65, 56, 60, 60, 64, 66, 48, 72, 56, 56],
    [62, 56, 62, 60, 64, 60, 48, 64, 72, 56],
    [52, 52, 62, 48, 48, 64, 56, 48, 48, 72],
]


def published_comparison_table() -> ComparisonTable:
    """The printed comparison table, as published (not recomputed)."""
    return ComparisonTable(
        COHORT_IDS, np.array(_COMPARISON, dtype=np.int64), mode="count", parameter_count=72
    )


# Printed score table: object -> (row sum, column sum, score).
PUBLISHED_SCORE_ROWS = {
    COHORT_IDS[0]: (459, 509, -50),
    COHORT_IDS[1]: (402, 483, -81),
    COHORT_IDS[2]: (277, 517, -240),
    COHORT_IDS[3]: (614, 428, 186),
    COHORT_IDS[4]: (524, 457, 67),
    COHORT_IDS[5]: (176, 617, -441),
    COHORT_IDS[6]: (505, 416, 89),
    COHORT_IDS[7]: (603, 437, 166),
    COHORT_IDS[8]: (604, 434, 170),
    COHORT_IDS[9]: (550, 416, 134),
}

PUBLISHED_ACCURACY = 0.70

# A cell that differs from the formulas by more than this is an erratum.
TOLERANCE = 0.01


class ErrataCell(NamedTuple):
    """One cell where a printed reference table contradicts the formulas."""

    object_id: str
    parameter: str
    printed: float
    computed: float
    delta: float

    def __str__(self) -> str:
        return (
            f"({self.object_id}, {self.parameter}): computed {self.computed:.4f} "
            f"vs printed {self.printed:.4f}"
        )


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
    if not tolerance >= 0:  # a NaN tolerance would hide every cell
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


def errata_cells(name: str, computed: FuzzySoftSet) -> list[ErrataCell] | None:
    """The ``errata_report`` cells of ``computed`` against the printed table
    named ``name``, at TOLERANCE; None when there is no such table or its
    universe or parameters differ from ``computed``'s."""
    printed = published_variable_table(name)
    if printed is None or (printed.universe, printed.parameters) != (
        computed.universe, computed.parameters
    ):
        return None
    return errata_report(computed, printed, TOLERANCE)


# Minimum cells of each per-variable table that must match the published
# values within TOLERANCE.
_TABLE_BARS = {"AGE": 40, "ADP": 30, "INS": 28, "LPN": 33, "BMI": 22}

# The published insulin table must diverge at exactly these cells.
_INSULIN_ERRATA = {("μ_45", "(INS)_H"), ("μ_60", "(INS)_L")}

# Off-diagonal agreement bar for the published comparison table when it is
# recomputed from the published 72-column product table.
_CONSISTENCY_BAR = 0.85


@dataclass
class CheckResult:
    name: str
    passed: bool
    hard: bool
    summary: str
    details: list[str] = field(default_factory=list)

    def format(self, verbose: bool = False) -> str:
        status = "PASS" if self.passed else ("FAIL" if self.hard else "SOFT-FAIL")
        lines = [f"[{status}] {self.name}: {self.summary}"]
        if verbose or not self.passed:
            lines.extend(f"    {d}" for d in self.details)
        return "\n".join(lines)


@dataclass
class VerificationReport:
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        """True when every hard check passed (soft checks never gate this)."""
        return all(c.passed for c in self.checks if c.hard)

    def format(self, verbose: bool = False) -> str:
        return "\n".join(c.format(verbose) for c in self.checks) + "\n"


def _check_variable_table(var: str, computed: FuzzySoftSet) -> CheckResult:
    cells = errata_cells(var, computed)
    total = computed.degrees.size
    within = total - len(cells)
    passed = within >= _TABLE_BARS[var]
    if var == "INS":
        found = {(c.object_id, c.parameter) for c in cells}
        passed = passed and found == _INSULIN_ERRATA
    return CheckResult(
        name=f"{var.lower()}-table",
        passed=passed,
        hard=True,
        summary=f"{within}/{total} cells within {TOLERANCE}"
        + (f", {len(cells)} divergent cell(s) in errata" if cells else ""),
        details=[str(c) for c in cells],
    )


def _check_age_bmi_product(sets: dict[str, FuzzySoftSet]) -> CheckResult:
    computed = product(sets["AGE"], sets["BMI"], "max")
    input_errata = {
        (c.object_id, c.parameter) for var in ("AGE", "BMI") for c in errata_cells(var, sets[var])
    }
    # Row-major, as the product is laid out.
    cells = sorted(
        errata_report(computed, published_age_bmi_product(), TOLERANCE),
        key=lambda c: (computed.universe.index(c.object_id), computed.parameters.index(c.parameter)),
    )

    def traceable(c: ErrataCell) -> bool:
        return any((c.object_id, label) in input_errata for label in c.parameter.split(PRODUCT_SEPARATOR))

    details = [str(c) + ("" if traceable(c) else " [NOT traceable to an input erratum]") for c in cells]
    all_traceable = all(map(traceable, cells))
    total = computed.degrees.size
    return CheckResult(
        name="age-bmi-product",
        passed=all_traceable,
        hard=True,
        summary=f"{total - len(cells)}/{total} cells within {TOLERANCE}; "
        f"all divergences traceable to input errata: {all_traceable}",
        details=details,
    )


def _check_score_table(report: ScoreReport) -> CheckResult:
    details = [
        f"{oid}: computed {report.triple(oid)} vs printed {printed}"
        for oid, printed in PUBLISHED_SCORE_ROWS.items()
        if report.triple(oid) != printed
    ]
    total = int(report.scores.sum())
    if total != 0:
        details.append(f"scores sum to {total}, expected 0")
    return CheckResult(
        name="score-table",
        passed=not details,
        hard=True,
        summary="score table mismatch" if details else "all ten (row sum, column sum, score) triples exact; scores sum to 0",
        details=details,
    )


def _check_comparison_consistency() -> CheckResult:
    computed = comparison_table(published_product_table(), "count")
    printed = published_comparison_table()
    m = computed.parameter_count
    diag_ok = bool(np.all(np.diag(computed.counts) == m))
    off = ~np.eye(len(computed.universe), dtype=bool)
    agree = (computed.counts == printed.counts) & off
    n_agree, n_off = int(agree.sum()), int(off.sum())
    rate = n_agree / n_off
    details = [
        f"({computed.universe[i]}, {computed.universe[j]}): "
        f"computed {computed.counts[i, j]} vs printed {printed.counts[i, j]}"
        for i, j in np.argwhere(off & ~agree)
    ]
    return CheckResult(
        name="comparison-consistency",
        passed=diag_ok and rate >= _CONSISTENCY_BAR,
        hard=False,
        summary=f"diagonal {m}/{m} match: {diag_ok}; off-diagonal {n_agree}/{n_off} = {rate:.1%} "
        f"(bar {_CONSISTENCY_BAR:.0%}); every mismatch listed",
        details=details,
    )


def _check_accuracy(report: ScoreReport) -> CheckResult:
    predictions = classify(report, threshold=0.0)
    acc = evaluate(predictions, GROUND_TRUTH)
    high = [oid for oid, p in predictions.items() if p == HIGH_RISK]  # in cohort order
    # The published split: the objects the printed score table scores above 0.
    expected_high = [oid for oid, (_, _, score) in PUBLISHED_SCORE_ROWS.items() if score > 0]
    passed = acc == PUBLISHED_ACCURACY and high == expected_high
    return CheckResult(
        name="accuracy",
        passed=passed,
        hard=True,
        summary=f"threshold-0 accuracy {acc:.2f} (published {PUBLISHED_ACCURACY:.2f}); "
        f"high-risk set {'matches' if high == expected_high else 'differs from'} the published split",
        details=[f"high-risk: {', '.join(high)}"],
    )


def verify_fixtures() -> VerificationReport:
    """Run every fixture check and return the per-check report."""
    specs = default_variable_specs()
    sets = {spec.name: s for spec, s in zip(specs, fuzzify_cohort(_TABLE1, specs))}
    checks = [_check_variable_table(var, sets[var]) for var in ("AGE", "BMI", "INS", "LPN", "ADP")]
    checks.append(_check_age_bmi_product(sets))
    published_scores = scores(published_comparison_table())
    checks.append(_check_score_table(published_scores))
    checks.append(_check_comparison_consistency())
    checks.append(_check_accuracy(published_scores))
    return VerificationReport(checks)
