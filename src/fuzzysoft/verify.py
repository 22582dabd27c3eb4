"""Verification of computed results against the published reference tables.

Each check recomputes one stage from the variable definitions and compares it
with the corresponding published table. Checks are "hard" when the published
table should be reproducible (up to its known misprints, which must then show
up in the errata and nowhere else) and "soft" where the study is internally
inconsistent and only a match rate can be reported. ``errata_cells`` is the
one errata pass against the printed per-variable tables; ``run`` writes its
cells to ``errata.csv``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fixtures
from .ingest import builtin_table1
from .scoring import HIGH_RISK, ScoreReport, classify, comparison_table, evaluate, scores
from .softset import PRODUCT_SEPARATOR, FuzzySoftSet, product
from .variables import ErrataCell, default_variable_specs, errata_report, fuzzify_cohort

__all__ = ["CheckResult", "VerificationReport", "errata_cells", "verify_fixtures"]

TOLERANCE = 0.01

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


def errata_cells(name: str, computed: FuzzySoftSet) -> list[ErrataCell] | None:
    """The ``errata_report`` cells of ``computed`` against the printed table
    named ``name``, at TOLERANCE; None when there is no such table or its
    universe or parameters differ from ``computed``'s."""
    printed = fixtures.published_variable_table(name)
    if printed is None or (printed.universe, printed.parameters) != (
        computed.universe, computed.parameters
    ):
        return None
    return errata_report(computed, printed, TOLERANCE)


def _computed_variable_sets() -> dict[str, FuzzySoftSet]:
    specs = default_variable_specs()
    return {spec.name: s for spec, s in zip(specs, fuzzify_cohort(builtin_table1(), specs))}


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
        errata_report(computed, fixtures.published_age_bmi_product(), TOLERANCE),
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
        for oid, printed in fixtures.PUBLISHED_SCORE_ROWS.items()
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
    computed = comparison_table(fixtures.published_product_table(), "count")
    printed = fixtures.published_comparison_table()
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
    acc = evaluate(predictions, fixtures.GROUND_TRUTH)
    high = [oid for oid, p in predictions.items() if p == HIGH_RISK]  # in cohort order
    # The published split: the objects the printed score table scores above 0.
    expected_high = [oid for oid, (_, _, score) in fixtures.PUBLISHED_SCORE_ROWS.items() if score > 0]
    passed = acc == fixtures.PUBLISHED_ACCURACY and high == expected_high
    return CheckResult(
        name="accuracy",
        passed=passed,
        hard=True,
        summary=f"threshold-0 accuracy {acc:.2f} (published {fixtures.PUBLISHED_ACCURACY:.2f}); "
        f"high-risk set {'matches' if high == expected_high else 'differs from'} the published split",
        details=[f"high-risk: {', '.join(high)}"],
    )


def verify_fixtures() -> VerificationReport:
    """Run every fixture check and return the per-check report."""
    sets = _computed_variable_sets()
    checks = [_check_variable_table(var, sets[var]) for var in ("AGE", "BMI", "INS", "LPN", "ADP")]
    checks.append(_check_age_bmi_product(sets))
    published_scores = scores(fixtures.published_comparison_table())
    checks.append(_check_score_table(published_scores))
    checks.append(_check_comparison_consistency())
    checks.append(_check_accuracy(published_scores))
    return VerificationReport(checks)
