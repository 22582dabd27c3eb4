"""Outside-in trace of one ``run_pipeline`` call.

``run_pipeline`` imports its stage functions by name, so the wrappers are
installed on ``fuzzysoft.pipeline`` itself, where the calls resolve; the
program is not changed. Each wrapped call records a span (name, start, end,
parent, run id) in memory, plus counts computed from the shapes of its
arguments and result. Inside ``comparison_table`` the wrapper also turns on
``tracemalloc`` (numpy reports its array buffers to it) and records the peak
bytes allocated during the call. A layer's self time is its span minus the
part of that interval its child spans cover.
"""
from __future__ import annotations

import functools
import os
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median

# Every stage function run_pipeline calls through its module namespace.
WRAPPED = (
    "load_csv", "load_variable_specs", "fuzzify_cohort", "find_reductions", "restrict", "product_n",
    "to_table", "comparison_table", "scores", "classify", "evaluate", "report_to_csv", "format_report_text",
)
PARENT = "run_pipeline"

# Calls whose peak allocation is measured, and the metric it is reported as.
ALLOCATION = {"comparison_table": "scoring.tensor_bytes"}
# Per-layer time metric -> the wrapped functions whose spans it sums.
LAYER_TIMES = {
    "ingest.load_csv_s": ("load_csv",),
    "variables.fuzzify_cohort_s": ("fuzzify_cohort",),
    "softset.product_n_s": ("product_n",),
    "softset.to_table_s": ("to_table",),
    "scoring.comparison_table_s": ("comparison_table",),
    "scoring.scores_s": ("scores", "classify", "evaluate"),
    "scoring.render_s": ("report_to_csv", "format_report_text"),
}
# Per-layer time metric -> the two spans whose gap it measures: all that
# run_pipeline does between the end of the first and the start of the second,
# in its own code or in wrapped calls. The reduction stage is timed this way
# so that it is measured also where the reduct search is switched off.
STAGE_TIMES = {"reduction.stage_s": ("fuzzify_cohort", "product_n")}
COUNT_UNITS = {
    "variables.cells": "count",
    "reduction.subsets": "count",
    "reduction.params_kept": "count",
    "softset.product_width": "count",
    "softset.product_bytes": "bytes",
    "scoring.ops": "count",
    "scoring.tensor_bytes": "bytes",
    "pipeline.bytes_written": "bytes",
}
# Counts that depend only on the inputs, so every traced run must repeat them.
EXACT_COUNTS = [name for name in COUNT_UNITS if name not in ALLOCATION.values()]
# Every per-layer metric a traced run reports, with its unit.
UNITS = {name: "s" for name in (*LAYER_TIMES, *STAGE_TIMES, "pipeline.self_s")} | COUNT_UNITS | {"trace.overhead_s": "s"}


def _counts(name: str, args: tuple, result) -> dict[str, int]:
    """Work done by one call, from array shapes and dtypes only."""
    if name == "fuzzify_cohort":
        return {"variables.cells": sum(s.degrees.size for s in result)}
    if name == "find_reductions":
        return {"reduction.subsets": 2 ** len(args[0].parameters) - 1}
    if name == "product_n":
        return {
            "reduction.params_kept": sum(len(s.parameters) for s in args[0]),
            "softset.product_width": len(result.parameters),
            "softset.product_bytes": result.degrees.nbytes,
        }
    if name == "comparison_table":
        n, m = args[0].degrees.shape
        # The size of the naive pairwise comparison, whatever the algorithm.
        return {"scoring.ops": n * n * m}
    if name == PARENT:
        return {"pipeline.bytes_written": sum(os.path.getsize(p) for p in result.files.values())}
    return {}


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    run_id: int
    end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    """Collects the spans of the calls it wraps, all in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, self._stack[-1] if self._stack else None, self.run_id)
            self.spans.append(span)
            self._stack.append(index)
            allocation = ALLOCATION.get(name) if not tracemalloc.is_tracing() else None
            if allocation:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if allocation:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            span.counts = _counts(name, args, result)
            if allocation:
                span.counts[allocation] = peak
            return result

        return traced

    @contextmanager
    def installed(self, module):
        """Replace the stage functions ``module`` resolves; restore them on exit."""
        originals = {name: getattr(module, name) for name in WRAPPED}
        try:
            for name, fn in originals.items():
                setattr(module, name, self.wrap(name, fn))
            yield
        finally:
            for name, fn in originals.items():
                setattr(module, name, fn)

    def run(self, module, run_id: int, *args, **kwargs):
        """One traced ``module.run_pipeline`` call; returns its result."""
        self.run_id = run_id
        with self.installed(module):
            return self.wrap(PARENT, module.run_pipeline)(*args, **kwargs)


def self_time(spans: list[Span], index: int) -> float:
    """Duration of span ``index`` minus the union of its children's intervals."""
    span = spans[index]
    children = sorted(
        (max(c.start, span.start), min(c.end, span.end))
        for c in spans if c.parent == index and c.run_id == span.run_id
    )
    covered, reach = 0.0, span.start
    for start, end in children:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return (span.end - span.start) - covered


def run_metrics(spans: list[Span], run_id: int) -> dict[str, float]:
    """Per-layer times and counts of one traced run."""
    indices = [i for i, s in enumerate(spans) if s.run_id == run_id]
    metrics = {name: 0.0 for name in (*LAYER_TIMES, *STAGE_TIMES)}
    metrics.update({name: 0 for name in COUNT_UNITS})
    for metric, (after, before) in STAGE_TIMES.items():
        ends = [spans[i].end for i in indices if spans[i].name == after]
        starts = [spans[i].start for i in indices if spans[i].name == before]
        if ends and starts:
            metrics[metric] = min(starts) - max(ends)
    for i in indices:
        span = spans[i]
        for metric, names in LAYER_TIMES.items():
            if span.name in names:
                metrics[metric] += span.end - span.start
        for metric, value in span.counts.items():
            metrics[metric] += value
        if span.name == PARENT and span.parent is None:
            metrics["pipeline.self_s"] = self_time(spans, i)
    return metrics


def function_times(spans: list[Span], run_id: int) -> dict[str, float]:
    """Summed span time per wrapped function name in one run."""
    out: dict[str, float] = {}
    for s in spans:
        if s.run_id == run_id:
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start)
    return out


def medians(per_run: list[dict[str, float]]) -> dict[str, float]:
    """Median over runs of each key; a key missing from a run counts as 0."""
    keys = sorted({k for run in per_run for k in run})
    return {k: median(run.get(k, 0) for run in per_run) for k in keys}
