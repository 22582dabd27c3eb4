"""Independent oracle for ``scores.csv``.

Recomputes the scores straight from the cohort values and the partition
nodes of the spec JSON, without calling the program: ``np.interp`` plus a
clip per partition, the cartesian min/max product over the columns that
``reduction.txt`` says were kept, and a blocked pairwise comparison that
never holds the n x n x m tensor. Count-mode scores must match exactly;
difference-mode sums must match to the 6 decimals the file prints.
"""
from __future__ import annotations

import numpy as np

EPSILON = 1e-9  # the program's documented comparison tie guard
PRINTED_TOLERANCE = 5e-7 + 1e-9  # half a unit in the 6th decimal, plus float noise
BLOCK_ELEMENTS = 2_000_000
HIGH_RISK, HEALTHY = "high-risk", "healthy"
LABELS = {1: "healthy-control", 2: "patient"}


def fuzzify(header: list[str], rows: np.ndarray, specs: list[dict]) -> list[tuple[list[str], np.ndarray]]:
    """(labels, n x partitions degrees) per variable, in spec order."""
    out = []
    for spec in specs:
        x = rows[:, header.index(spec["column"])]
        labels, cols = [], []
        for p in spec["partitions"]:
            xs = np.array([node[0] for node in p["nodes"]], dtype=float)
            ys = np.array([node[1] for node in p["nodes"]], dtype=float)
            y = np.interp(x, xs, ys, left=p.get("left_tail", 0.0), right=p.get("right_tail", 0.0))
            cols.append(np.clip(y, 0.0, 1.0))
            labels.append(f"({spec['name']})_{p['label']}")
        out.append((labels, np.column_stack(cols)))
    return out


def kept_labels(reduction_txt: str) -> dict[str, list[str]] | None:
    """Variable -> kept labels from ``reduction.txt``; None when reduction was off."""
    kept = {}
    for line in reduction_txt.splitlines():
        if line.startswith("#") or not line:
            continue
        if line.startswith("reduction off"):
            return None
        name, rest = line.split(": kept ", 1)
        kept[name] = rest.split("; dropped", 1)[0].split(", ")
    return kept


def product(header, rows, specs, reduction_txt: str, combiner: str) -> np.ndarray:
    """The scored product's degree matrix, first variable varying slowest."""
    combine = {"min": np.minimum, "max": np.maximum}[combiner]
    kept = kept_labels(reduction_txt)
    acc = None
    for spec, (labels, degrees) in zip(specs, fuzzify(header, rows, specs)):
        if kept is not None:
            wanted = set(kept[spec["name"]])
            degrees = degrees[:, [j for j, label in enumerate(labels) if label in wanted]]
        acc = degrees if acc is None else combine(acc[:, :, None], degrees[:, None, :]).reshape(len(rows), -1)
    return acc


def row_column_sums(d: np.ndarray, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Comparison-table row and column sums, built one block of rows at a time."""
    n, m = d.shape
    dtype = np.int64 if mode == "count" else float
    rows, cols = np.zeros(n, dtype=dtype), np.zeros(n, dtype=dtype)
    step = max(1, BLOCK_ELEMENTS // (n * m))
    for lo in range(0, n, step):
        blk = d[lo:lo + step, None, :]
        if mode == "count":
            table = (blk >= d[None, :, :] - EPSILON).sum(axis=2, dtype=np.int64)
        else:
            table = (blk - d[None, :, :]).sum(axis=2)
        rows[lo:lo + step] = table.sum(axis=1)
        cols += table.sum(axis=0)
    return rows, cols


def check_scores(header, rows, specs, reduction_txt: str, scores_csv: str, combiner: str, mode: str) -> list[str]:
    """Problems found in ``scores.csv`` (footer stripped); empty when it matches."""
    d = product(header, rows, specs, reduction_txt, combiner)
    r, t = row_column_sums(d, mode)
    s = r - t
    labels = [LABELS[int(v)] for v in rows[:, header.index("Classification")]]
    lines = scores_csv.rstrip("\n").split("\n")
    problems = []
    if lines[0] != "object,row_sum,column_sum,score,prediction,label":
        problems.append(f"header {lines[0]!r}")
    if len(lines) - 1 != len(rows):
        return problems + [f"{len(lines) - 1} score rows for {len(rows)} objects"]
    for i, line in enumerate(lines[1:]):
        oid, row_sum, col_sum, score, pred, label = line.split(",")
        want_pred = HIGH_RISK if s[i] > 0 else HEALTHY
        if mode == "count":
            ok_numbers = (row_sum, col_sum, score) == (str(r[i]), str(t[i]), str(s[i]))
        else:
            got = np.array([float(row_sum), float(col_sum), float(score)])
            ok_numbers = bool(np.all(np.abs(got - [r[i], t[i], s[i]]) <= PRINTED_TOLERANCE))
            if abs(s[i]) <= PRINTED_TOLERANCE:
                want_pred = pred  # the sign of a zero difference score is rounding noise
        if oid != f"μ_{i + 1}" or not ok_numbers or pred != want_pred or label != labels[i]:
            problems.append(f"row {i + 1}: got {line!r}, oracle {r[i]},{t[i]},{s[i]},{want_pred},{labels[i]}")
    return problems

