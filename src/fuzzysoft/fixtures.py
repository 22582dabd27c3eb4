"""Published reference tables for the ten-patient cohort study.

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
"""
from __future__ import annotations

import numpy as np

from .ingest import builtin_table1
from .scoring import ComparisonTable
from .softset import FuzzySoftSet, product, product_n, restrict
from .variables import default_variable_specs

__all__ = [
    "COHORT_IDS",
    "GROUND_TRUTH",
    "published_variable_table",
    "published_variable_tables",
    "published_age_bmi_product",
    "published_product_table",
    "published_comparison_table",
    "PUBLISHED_SCORE_ROWS",
    "PUBLISHED_ACCURACY",
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
