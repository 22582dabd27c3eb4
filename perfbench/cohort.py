"""Seeded benchmark inputs: jittered cohort resamples and a fine partition spec.

Every input the program receives is generated here from a seed, so the same
seed always gives byte-identical files. The cohorts resample the 116 real
rows of ``tests/data/blood_markers_116.csv`` with replacement and multiply
every measurement by an independent factor in [1 - JITTER, 1 + JITTER]; the
class column is copied unchanged.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

SOURCE_CSV = Path(__file__).resolve().parent.parent / "tests" / "data" / "blood_markers_116.csv"
JITTER = 0.05
FINE_PARTITIONS = 14
LABEL_COLUMN = "Classification"

# Spans covering every real row of each modelled measurement, with margin for
# the jitter. The fine spec places its partition peaks evenly over them.
FINE_SPEC_RANGES = {
    "AGE": ("Age", 20.0, 95.0),
    "BMI": ("BMI", 17.0, 40.0),
    "INS": ("Insulin", 3.0, 64.0),
    "LPN": ("Leptin", 5.0, 95.0),
    "ADP": ("Adiponectin", 1.5, 40.0),
}


def read_source() -> tuple[list[str], np.ndarray]:
    """Header and float matrix of the real cohort file."""
    with open(SOURCE_CSV, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r]
    return rows[0], np.array(rows[1:], dtype=float)


def resample(header: list[str], source: np.ndarray, n: int, seed: int) -> np.ndarray:
    """n rows drawn with replacement, measurements jittered multiplicatively."""
    rng = np.random.default_rng(seed)
    rows = source[rng.integers(0, len(source), size=n)]
    factors = rng.uniform(1.0 - JITTER, 1.0 + JITTER, size=rows.shape)
    factors[:, header.index(LABEL_COLUMN)] = 1.0
    return rows * factors


def cohort_csv(header: list[str], rows: np.ndarray) -> str:
    """CSV text in the source layout; measurements printed to 4 decimals."""
    label = header.index(LABEL_COLUMN)
    lines = [",".join(header)]
    for row in rows:
        cells = [str(int(v)) if j == label else f"{v:.4f}" for j, v in enumerate(row)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def parse_cohort(text: str) -> tuple[list[str], np.ndarray]:
    """Inverse of ``cohort_csv``: the exact values the program will read."""
    rows = [line.split(",") for line in text.splitlines() if line]
    return rows[0], np.array(rows[1:], dtype=float)


def fine_spec() -> list[dict]:
    """Variable specs with ``FINE_PARTITIONS`` evenly spaced triangles per variable.

    Neighbouring triangles overlap by three spacings, so the degrees of one
    object do not sum to a constant and each variable's optimal-object set
    is small; a small reduct then keeps the product narrow while the reduct
    search still walks every one of the 2^FINE_PARTITIONS - 1 subsets.
    """
    specs = []
    for name, (column, lo, hi) in FINE_SPEC_RANGES.items():
        peaks = np.linspace(lo, hi, FINE_PARTITIONS)
        half = 1.5 * (peaks[1] - peaks[0])
        parts = []
        for k, peak in enumerate(peaks):
            if k == 0:
                nodes, left, right = [[peak, 1.0], [peak + half, 0.0]], 1.0, 0.0
            elif k == FINE_PARTITIONS - 1:
                nodes, left, right = [[peak - half, 0.0], [peak, 1.0]], 0.0, 1.0
            else:
                nodes, left, right = [[peak - half, 0.0], [peak, 1.0], [peak + half, 0.0]], 0.0, 0.0
            parts.append({
                "label": f"P{k:02d}",
                "nodes": [[round(float(x), 6), y] for x, y in nodes],
                "left_tail": left,
                "right_tail": right,
            })
        specs.append({"name": name, "column": column, "display_range": [lo, hi], "partitions": parts})
    return specs


def fine_spec_json() -> str:
    return json.dumps(fine_spec(), indent=2) + "\n"
