"""Published reference tables for the ten-patient cohort study.

Everything here is transcribed verbatim from the source study's printed
tables, including cells that contradict the study's own membership formulas.
These tables are verification fixtures and errata baselines only; none of the
computational paths read results from them, with one deliberate exception:
the 72-column product table. That table cannot be derived from the study's
own variable definitions (the reduced parameter counts imply 108 columns,
and its row values match no recomputation), so it is kept as an opaque input
that the study-faithful scoring stage consumes.
"""
from __future__ import annotations

import numpy as np

from .ingest import builtin_table1
from .scoring import ComparisonTable
from .softset import FuzzySoftSet

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

_PARAMETER_LABELS = {
    "AGE": ("(AGE)_C", "(AGE)_Y", "(AGE)_M", "(AGE)_O"),
    "BMI": ("(BMI)_OI", "(BMI)_OII", "(BMI)_OIII"),
    "INS": ("(INS)_L", "(INS)_M", "(INS)_H"),
    "LPN": ("(LPN)_L", "(LPN)_M", "(LPN)_H", "(LPN)_VH"),
    "ADP": ("(ADP)_L", "(ADP)_M", "(ADP)_H"),
}


def published_variable_table(name: str) -> FuzzySoftSet | None:
    """The printed per-variable table of variable ``name``; None if none was printed."""
    rows = _PRINTED_TABLES.get(name)
    if rows is None:
        return None
    return FuzzySoftSet(COHORT_IDS, _PARAMETER_LABELS[name], np.array(rows, dtype=float))


def published_variable_tables() -> dict[str, FuzzySoftSet]:
    """The five printed per-variable tables, keyed by variable name."""
    return {var: published_variable_table(var) for var in _PRINTED_TABLES}


# Printed age/BMI product table (12 columns, age label varying slower).
_AGE_BMI_PRODUCT = [
    [0.00, 0.50, 0.00, 0.00, 0.50, 0.00, 0.00, 0.50, 0.00, 1.00, 1.00, 1.00],
    [0.00, 0.50, 0.00, 0.00, 0.50, 0.00, 0.73, 0.73, 0.73, 0.00, 0.50, 0.00],
    [0.00, 0.00, 0.80, 0.00, 0.00, 0.80, 0.00, 0.00, 0.80, 0.93, 0.93, 0.93],
    [0.00, 0.00, 1.00, 0.00, 0.00, 1.00, 0.00, 0.00, 1.00, 1.00, 1.00, 1.00],
    [0.00, 0.83, 0.00, 0.00, 0.83, 0.00, 0.00, 0.83, 0.00, 1.00, 1.00, 1.00],
    [0.00, 0.33, 0.00, 0.00, 0.33, 0.00, 0.00, 0.33, 0.00, 0.80, 0.80, 0.80],
    [0.00, 0.80, 0.00, 0.00, 0.80, 0.00, 0.93, 0.93, 0.93, 0.00, 0.80, 0.00],
    [0.00, 0.83, 0.00, 0.00, 0.83, 0.00, 0.00, 0.83, 0.00, 1.00, 1.00, 1.00],
    [0.00, 0.35, 0.24, 0.00, 0.35, 0.24, 0.00, 0.35, 0.24, 1.00, 1.00, 1.00],
    [0.00, 0.00, 0.96, 0.00, 0.00, 0.96, 0.20, 0.20, 0.96, 0.46, 0.46, 0.96],
]


def published_age_bmi_product() -> FuzzySoftSet:
    """The printed max-combined product of the age and BMI tables."""
    labels = tuple(
        f"{a}×{b}" for a in _PARAMETER_LABELS["AGE"] for b in _PARAMETER_LABELS["BMI"]
    )
    return FuzzySoftSet(COHORT_IDS, labels, np.array(_AGE_BMI_PRODUCT, dtype=float))


# The opaque 72-column product table, row per cohort object, columns labeled
# positionally in the study's own style.
_PRODUCT_72 = {
    "μ_3":
        "0.50 0.50 0.50 0.50 0.50 0.50 0.50 0.50 0.50 0.50 0.50 0.50 0.50 0.50 0.50 "
        "0.50 0.50 0.50 0.17 0.17 0.48 0.16 0.16 0.48 0.42 0.42 0.48 0.42 0.42 0.48 "
        "0.17 0.17 0.48 0.16 0.16 0.48 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 "
        "1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 "
        "1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00",
    "μ_11":
        "0.73 0.73 1.00 0.73 0.73 1.00 0.76 0.76 1.00 0.76 0.76 1.00 0.73 0.73 1.00 "
        "0.73 0.73 1.00 0.73 0.73 1.00 0.73 0.73 1.00 0.76 0.76 1.00 0.76 0.76 1.00 "
        "0.73 0.73 1.00 0.73 0.73 1.00 0.50 0.50 1.00 0.62 0.62 1.00 0.76 0.76 1.00 "
        "0.76 0.76 1.00 0.50 0.50 1.00 0.62 0.62 1.00 0.00 0.00 1.00 0.62 0.62 1.00 "
        "0.76 0.76 1.00 0.76 0.76 1.00 0.00 0.00 1.00 0.62 0.62 1.00",
    "μ_19":
        "0.64 0.11 0.11 0.64 0.41 0.41 0.64 0.40 0.40 0.64 0.41 0.41 0.64 0.00 0.00 "
        "0.64 0.41 0.41 0.80 0.80 0.80 0.80 0.80 0.80 0.80 0.80 0.80 0.80 0.80 0.80 "
        "0.80 0.80 0.80 0.80 0.80 0.80 0.93 0.93 0.93 0.93 0.93 0.93 0.93 0.93 0.93 "
        "0.93 0.93 0.93 0.93 0.93 0.93 0.93 0.93 0.93 0.93 0.93 0.93 0.93 0.93 0.93 "
        "0.93 0.93 0.93 0.93 0.93 0.93 0.93 0.93 0.93 0.93 0.93 0.93",
    "μ_31":
        "0.35 0.06 0.00 0.64 0.64 0.64 0.35 0.06 0.00 0.64 0.64 0.64 1.00 1.00 1.00 "
        "1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 "
        "1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 "
        "1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 "
        "1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00",
    "μ_45":
        "0.83 0.83 0.83 0.99 0.99 0.99 0.83 0.83 0.83 0.99 0.99 0.99 0.83 0.83 0.83 "
        "0.99 0.99 0.99 0.26 0.14 0.00 0.99 0.99 0.99 0.47 0.47 0.47 0.99 0.99 0.99 "
        "0.26 0.14 0.14 0.99 0.99 0.99 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 "
        "1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 "
        "1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00",
    "μ_60":
        "0.68 0.68 0.68 0.43 0.53 0.43 0.68 0.68 0.68 0.33 0.53 0.33 0.68 0.68 0.68 "
        "0.33 0.53 0.33 0.68 0.68 0.68 0.43 0.53 0.43 0.68 0.68 0.68 0.13 0.53 0.13 "
        "0.68 0.68 0.68 0.00 0.53 0.00 0.80 0.80 0.80 0.80 0.80 0.80 0.80 0.80 0.80 "
        "0.80 0.80 0.80 0.80 0.80 0.80 0.80 0.80 0.80 0.80 0.80 0.80 0.80 0.80 0.80 "
        "0.80 0.80 0.80 0.80 0.80 0.80 0.80 0.80 0.80 0.80 0.80 0.80",
    "μ_71":
        "0.93 0.93 0.93 0.93 0.93 0.93 0.93 0.93 0.93 0.93 0.93 0.93 1.00 1.00 1.00 "
        "1.00 1.00 1.00 0.93 0.93 0.93 0.93 0.93 0.93 0.93 0.93 0.93 0.93 0.93 0.93 "
        "1.00 1.00 1.00 1.00 1.00 1.00 0.80 0.86 0.80 0.80 0.86 0.80 0.80 0.86 0.80 "
        "0.80 0.86 0.80 1.00 1.00 1.00 1.00 1.00 1.00 0.00 0.86 0.00 0.21 0.86 0.21 "
        "0.00 0.86 0.00 0.21 0.86 0.21 1.00 1.00 1.00 1.00 1.00 1.00",
    "μ_82":
        "0.83 0.83 0.83 0.83 0.83 0.83 0.83 0.83 0.83 0.83 0.83 0.83 1.00 1.00 1.00 "
        "1.00 1.00 1.00 0.65 0.06 0.06 0.65 0.27 0.27 0.65 0.06 0.06 0.65 0.27 0.27 "
        "1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 "
        "1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 "
        "1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00",
    "μ_91":
        "0.35 0.36 0.35 0.89 0.89 0.89 0.35 0.36 0.35 0.89 0.89 0.89 1.00 1.00 1.00 "
        "1.00 1.00 1.00 0.24 0.36 0.24 0.89 0.89 0.89 0.24 0.36 0.24 0.89 0.89 0.89 "
        "1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 "
        "1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 "
        "1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00 1.00",
    "μ_104":
        "1.00 0.20 0.20 1.00 0.78 0.78 1.00 0.20 0.20 1.00 0.78 0.78 1.00 1.00 1.00 "
        "1.00 1.00 1.00 1.00 0.96 0.96 1.00 0.96 0.96 1.00 0.96 0.96 1.00 0.96 0.96 "
        "1.00 1.00 1.00 1.00 1.00 1.00 1.00 0.46 0.46 1.00 0.78 0.78 1.00 0.46 0.46 "
        "1.00 0.78 0.78 1.00 1.00 1.00 1.00 1.00 1.00 1.00 0.96 0.96 1.00 0.96 0.96 "
        "1.00 0.96 0.96 1.00 0.96 0.96 1.00 1.00 1.00 1.00 1.00 1.00",
}


def published_product_table() -> FuzzySoftSet:
    """The opaque 72-column product table feeding the study-faithful scoring."""
    degrees = np.array([[float(v) for v in _PRODUCT_72[oid].split()] for oid in COHORT_IDS])
    labels = tuple(f"€{k}" for k in range(1, 73))
    return FuzzySoftSet(COHORT_IDS, labels, degrees)


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
