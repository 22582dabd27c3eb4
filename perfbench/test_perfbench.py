"""Self-tests of the benchmark: seeded inputs, the oracle, the trace wrappers and counts.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import cohort
import oracle
import spans
from fuzzysoft import FuzzySoftSet, default_variable_specs, pipeline, scoring, specs_from_json, specs_to_json
from workloads import WORKLOADS, Inputs, generate, output_digests, strip_footer



def _inputs(tmp_path: Path, n: int, seed: int = 5, ties: bool = False) -> Inputs:
    """A small cohort; with ``ties`` its second half repeats the first exactly."""
    header, real = cohort.read_source()
    rows = cohort.resample(header, real, n, seed)
    if ties:
        rows[n // 2:] = rows[: n - n // 2]
    text = cohort.cohort_csv(header, rows)
    data = tmp_path / "cohort.csv"
    data.write_text(text, encoding="utf-8")
    header, rows = cohort.parse_cohort(text)
    return Inputs(str(data), None, header, rows)


def _body(path: Path) -> str:
    return strip_footer(path.read_text(encoding="utf-8"))


def test_cohort_is_deterministic_per_seed(tmp_path):
    workload = WORKLOADS["study-116"]
    a = generate(workload, 7, tmp_path / "a")
    b = generate(workload, 7, tmp_path / "b")
    c = generate(workload, 8, tmp_path / "c")
    assert Path(a.data).read_bytes() == Path(b.data).read_bytes()
    assert Path(a.data).read_bytes() != Path(c.data).read_bytes()
    assert a.rows.shape == (116, 10)

    header, real = cohort.read_source()
    label = header.index(cohort.LABEL_COLUMN)
    assert set(a.rows[:, label]) <= {1.0, 2.0}
    # every generated row is some real row scaled by at most the jitter
    ratios = a.rows[:, None, :] / real[None, :, :]
    within = np.all(np.abs(ratios - 1.0) <= cohort.JITTER + 1e-3, axis=2)
    assert within.any(axis=1).all()


def test_fine_spec_is_deterministic_and_loads(tmp_path):
    assert cohort.fine_spec_json() == cohort.fine_spec_json()
    specs = specs_from_json(cohort.fine_spec_json())
    assert [len(s.partitions) for s in specs] == [cohort.FINE_PARTITIONS] * 5
    assert [s.column for s in specs] == [c for c, _, _ in cohort.FINE_SPEC_RANGES.values()]


@pytest.mark.parametrize("mode", ["count", "difference"])
@pytest.mark.parametrize("combiner,reduction", [("max", "per-variable"), ("min", "off")])
def test_oracle_agrees_with_pipeline_on_forced_ties(tmp_path, mode, combiner, reduction):
    inputs = _inputs(tmp_path, 24, ties=True)
    out = tmp_path / "out"
    pipeline.run_pipeline(pipeline.PipelineConfig(
        data_source=inputs.data, out_dir=str(out), combiner=combiner, mode=mode, reduction=reduction,
    ))
    specs = json.loads(specs_to_json(default_variable_specs()))
    scores_csv = _body(out / "scores.csv")
    args = (inputs.header, inputs.rows, specs, _body(out / "reduction.txt"))
    assert oracle.check_scores(*args, scores_csv, combiner, mode) == []

    # A one-unit change in any score is caught.
    lines = scores_csv.split("\n")
    fields = lines[3].split(",")
    fields[3] = str(int(fields[3]) + 1) if mode == "count" else f"{float(fields[3]) + 1e-6:.6f}"
    lines[3] = ",".join(fields)
    assert oracle.check_scores(*args, "\n".join(lines), combiner, mode)


def test_oracle_blocks_match_the_whole_table(monkeypatch):
    monkeypatch.setattr(oracle, "BLOCK_ELEMENTS", 3 * 37 * 5)  # blocks of 3 rows, the last one short
    rng = np.random.default_rng(0)
    d = rng.choice([0.0, 0.25, 0.5, 1.0], size=(37, 5))
    for mode in ("count", "difference"):
        full = scoring.comparison_table(FuzzySoftSet(tuple(map(str, range(37))), tuple("abcde"), d), mode).counts
        r, t = oracle.row_column_sums(d, mode)
        np.testing.assert_allclose(r, full.sum(axis=1), rtol=0, atol=1e-9)
        np.testing.assert_allclose(t, full.sum(axis=0), rtol=0, atol=1e-9)


def test_wrappers_are_transparent(tmp_path):
    inputs = _inputs(tmp_path, 30)
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    pipeline.run_pipeline(pipeline.PipelineConfig(data_source=inputs.data, out_dir=str(plain)))
    tracer = spans.Tracer()
    result = tracer.run(pipeline, 4, pipeline.PipelineConfig(data_source=inputs.data, out_dir=str(traced)))

    assert output_digests(plain) == output_digests(traced)
    assert result.files.keys() == {p.name for p in traced.iterdir()}
    assert pipeline.comparison_table is scoring.comparison_table  # restored after the run
    assert pipeline.run_pipeline.__name__ == "run_pipeline"

    parent = [i for i, s in enumerate(tracer.spans) if s.name == spans.PARENT]
    assert len(parent) == 1 and tracer.spans[parent[0]].parent is None
    children = [s for s in tracer.spans if s.name != spans.PARENT]
    assert {s.name for s in children} <= set(spans.WRAPPED)
    assert all(s.parent == parent[0] and s.run_id == 4 for s in children)
    assert all(s.start <= s.end for s in tracer.spans)


def test_wrapper_passes_exceptions_through_and_restores(tmp_path):
    tracer = spans.Tracer()
    bad = pipeline.PipelineConfig(data_source=str(tmp_path / "missing.csv"), out_dir=str(tmp_path / "o"))
    with pytest.raises(pipeline.DataError):
        tracer.run(pipeline, 0, bad)
    assert pipeline.load_csv.__module__ == "fuzzysoft.ingest" and not hasattr(pipeline.load_csv, "__wrapped__")
    assert [s.name for s in tracer.spans] == [spans.PARENT, "load_csv"]
    assert all(s.end >= s.start > 0 for s in tracer.spans)


def test_counts_for_a_hand_sized_case(tmp_path):
    """n=10 with reduction off: 17 fuzzified columns, 4*3*3*4*3 = 432 product columns."""
    inputs = _inputs(tmp_path, 10)
    tracer = spans.Tracer()
    tracer.run(pipeline, 0, pipeline.PipelineConfig(data_source=inputs.data, out_dir=str(tmp_path / "o"),
                                                    reduction="off"))
    tracer.run(pipeline, 1, pipeline.PipelineConfig(data_source=inputs.data, out_dir=str(tmp_path / "o"),
                                                    mode="difference"))
    off, on = spans.run_metrics(tracer.spans, 0), spans.run_metrics(tracer.spans, 1)
    assert off["variables.cells"] == 10 * 17
    assert off["reduction.subsets"] == 0 and off["reduction.params_kept"] == 17
    assert off["softset.product_width"] == 432
    assert off["softset.product_bytes"] == 10 * 432 * 8
    assert off["scoring.ops"] == 43_200
    # the peak allocation holds at least the boolean n x n x m tensor
    assert off["scoring.tensor_bytes"] >= 43_200
    assert on["reduction.subsets"] == 15 + 7 + 7 + 15 + 7
    width = on["softset.product_width"]
    assert on["scoring.ops"] == 100 * width and on["scoring.tensor_bytes"] >= 800 * width
    assert on["pipeline.bytes_written"] == sum(p.stat().st_size for p in (tmp_path / "o").iterdir())


def test_self_time_subtracts_the_union_of_child_spans():
    s = [
        spans.Span("run_pipeline", 0.0, None, 1, end=10.0),
        spans.Span("load_csv", 1.0, 0, 1, end=3.0),
        spans.Span("fuzzify_cohort", 2.0, 0, 1, end=5.0),  # overlaps the previous child
        spans.Span("to_table", 7.0, 0, 1, end=8.0),
        spans.Span("to_table", 0.0, None, 2, end=9.0),  # another run's span
    ]
    assert spans.self_time(s, 0) == pytest.approx(5.0)
    assert spans.run_metrics(s, 1)["pipeline.self_s"] == pytest.approx(5.0)
    assert spans.run_metrics(s, 1)["softset.to_table_s"] == pytest.approx(1.0)


def test_reduction_stage_is_the_gap_between_fuzzify_and_product():
    s = [
        spans.Span("run_pipeline", 0.0, None, 1, end=10.0),
        spans.Span("fuzzify_cohort", 1.0, 0, 1, end=2.0),
        spans.Span("find_reductions", 2.5, 0, 1, end=6.0),
        spans.Span("product_n", 6.5, 0, 1, end=7.0),
    ]
    assert spans.run_metrics(s, 1)["reduction.stage_s"] == pytest.approx(4.5)
    assert spans.run_metrics(s[:2], 1)["reduction.stage_s"] == 0.0  # no product in this run


def test_reference_scales_each_sample_by_the_loops_around_it(monkeypatch):
    import run

    loops = iter([0.02, 0.03, 0.05])
    monkeypatch.setattr(run, "reference_loop", lambda: next(loops))
    reference = run.Reference()
    assert reference.scale(1.0) == pytest.approx(run.REFERENCE_S / 0.025)
    assert reference.scale(2.0) == pytest.approx(2.0 * run.REFERENCE_S / 0.04)
    assert reference.loops == [0.02, 0.03, 0.05]
