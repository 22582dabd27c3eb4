"""Whole-run behaviour of ``run_pipeline``: memory, all-or-nothing writes, CSV quoting."""
import collections
import csv
import errno
import io
import itertools
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from fuzzysoft import ConfigError, DatasetSchema, from_table, pipeline, text
from fuzzysoft.cli import main
from fuzzysoft.pipeline import PipelineConfig, emit_curves, run_pipeline

# Files whose rows a run renders in row blocks, in the order they are written.
BLOCK_RENDERED = ("comparison.csv", "fuzzy_ADP.csv", "fuzzy_AGE.csv", "fuzzy_BMI.csv",
                  "fuzzy_INS.csv", "fuzzy_LPN.csv", "product.csv")


def _cohort_csv(path, csv_116, n):
    """The 116-row file's rows, cycled to ``n`` rows."""
    header, *rows = csv_116.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join([header, *itertools.islice(itertools.cycle(rows), n)]) + "\n", encoding="utf-8")
    return path


def _named_cohort_csv(path, csv_116, ids):
    """The 116-row file's first rows, each led by its ID from ``ids`` in a "Name" column."""
    header, *rows = csv_116.read_text(encoding="utf-8").splitlines()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["Name", *header.split(",")])
        writer.writerows([oid, *row.split(",")] for oid, row in zip(ids, rows))
    return path


def test_run_memory_is_bounded(tmp_path, csv_116):
    # n = 1000 with reduction off: a 432-column product and a 1000 x 1000 table
    cfg = PipelineConfig(
        data_source=str(_cohort_csv(tmp_path / "c.csv", csv_116, 1000)),
        reduction="off",
        out_dir=str(tmp_path / "out"),
    )
    tracemalloc.start()
    try:
        result = run_pipeline(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.report.parameter_count == 432
    # rendering every output before writing any peaked at about 46 MB, and an
    # int64 comparison table (6 MB more than int16) at about 16 MB
    assert peak < 14 * 2**20


def _fail_in_block_rendering(monkeypatch, failing_call, exc):
    """Make the ``failing_call``-th row-block rendering raise ``exc`` after its first block."""
    real = text._text_blocks
    calls = itertools.count()

    def text_blocks(*args):
        blocks = real(*args)
        if next(calls) != failing_call:
            return blocks
        return itertools.chain(itertools.islice(blocks, 1), _raise(exc))

    monkeypatch.setattr(text, "_text_blocks", text_blocks)
    monkeypatch.setattr(text, "_FORMAT_BLOCK_CELLS", 64)  # several blocks per table


def _raise(exc):
    raise exc
    yield  # a generator: raises when first drawn from


@pytest.mark.parametrize("failing_call", range(len(BLOCK_RENDERED)), ids=BLOCK_RENDERED)
def test_write_failing_halfway_leaves_no_outputs(tmp_path, monkeypatch, failing_call):
    _fail_in_block_rendering(monkeypatch, failing_call, OSError(errno.ENOSPC, "No space left on device"))
    out = tmp_path / "out"
    assert main(["run", "--out", str(out), "--reduction", "off", "--product-source", "computed"]) == 1
    assert list(out.iterdir()) == []


def test_render_error_halfway_leaves_no_outputs(tmp_path, monkeypatch):
    _fail_in_block_rendering(monkeypatch, len(BLOCK_RENDERED) - 1, RuntimeError("render failed"))
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="render failed"):
        main(["run", "--out", str(out)])
    assert list(out.iterdir()) == []


def test_failed_rerun_keeps_the_earlier_outputs(tmp_path, monkeypatch):
    out = tmp_path / "out"
    assert main(["run", "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    _fail_in_block_rendering(monkeypatch, len(BLOCK_RENDERED) - 1, OSError(errno.ENOSPC, "No space left on device"))
    assert main(["run", "--out", str(out)]) == 1
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_rename_failing_halfway_leaves_no_outputs(tmp_path, monkeypatch):
    real = pipeline.os.replace
    calls = itertools.count()

    def replace(src, dst):
        if next(calls) == 4:
            raise OSError(errno.EIO, "I/O error")
        real(src, dst)

    monkeypatch.setattr(pipeline.os, "replace", replace)
    out = tmp_path / "out"
    assert main(["run", "--out", str(out)]) == 1
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, message", [
    ("run", "error: cannot write outputs to "),
    ("curves", "error: cannot write curves to "),
])
def test_failed_rename_is_a_config_error(tmp_path, monkeypatch, capsys, command, message):
    def fail(src, dst):
        raise OSError(errno.EIO, "I/O error")

    monkeypatch.setattr(pipeline.os, "replace", fail)
    out = tmp_path / "out"
    assert main([command, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(message)
    assert list(out.iterdir()) == []


def test_every_field_but_the_output_location_moves_the_hash():
    base = PipelineConfig()
    changed = {
        "data_source": "cohort.csv",
        "schema": DatasetSchema(id_column="Name"),
        "spec_path": "spec.json",
        "combiner": "min",
        "mode": "difference",
        "reduction": "off",
        "threshold": 0.5,
        "round_digits": 3,
        "product_source": "computed",
    }
    # a new field must be added here, and so to semantic_dict, or this fails
    assert set(changed) == {f.name for f in fields(PipelineConfig)} - {"out_dir"}
    for name, value in changed.items():
        assert replace(base, **{name: value}).hash() != base.hash(), name
    assert replace(base, out_dir="elsewhere").hash() == base.hash()


@pytest.mark.parametrize("command, kwargs", [
    ("run", {"mode": "difference", "round_digits": 2.5}),
    ("run", {"round_digits": np.int64(2)}),
    ("run", {"round_digits": True}),
    ("run", {"data_source": Path("cohort.csv")}),
    ("run", {"spec_path": Path("spec.json")}),
    ("run", {"threshold": "0"}),
    ("run", {"threshold": None}),
    ("run", {"combiner": ["max"]}),
    ("run", {"out_dir": 5}),
    ("run", {"schema": "x"}),
    ("curves", {"samples_per_curve": 5.5}),
    ("curves", {"samples_per_curve": np.int64(5)}),
], ids=repr)
def test_config_values_of_the_wrong_type_are_config_errors(tmp_path, command, kwargs):
    out = tmp_path / "out"
    kind = r"a DatasetSchema" if "schema" in kwargs else r"(an? (string|number|integer)|one of)"
    with pytest.raises(ConfigError, match=f"must be {kind}"):
        if command == "run":
            run_pipeline(PipelineConfig(**{"out_dir": str(out), **kwargs}))
        else:
            emit_curves(out_dir=out, **kwargs)
    assert not out.exists()


def _csv_rows(path):
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n") and text.splitlines()[-1].startswith("# config=")
    return list(csv.reader(io.StringIO(text[: text.rindex("# config=")], newline="")))


def test_every_csv_output_quotes_ids(tmp_path, csv_116, monkeypatch):
    ids = ["p0,x", 'q"1', "#r", "s\nt", "plain"]
    data = _named_cohort_csv(tmp_path / "named.csv", csv_116, ids)
    # the CLI has no schema flag; a run takes the module default schema
    monkeypatch.setattr(pipeline, "DEFAULT_SCHEMA", DatasetSchema(id_column="Name"))
    out = tmp_path / "out"
    assert main(["run", "--out", str(out), "--data", str(data), "--reduction", "off"]) == 0

    comparison = _csv_rows(out / "comparison.csv")
    assert comparison[0] == ["object", *ids]
    assert [row[0] for row in comparison[1:]] == ids
    assert {len(row) for row in comparison} == {len(ids) + 1}
    scores = _csv_rows(out / "scores.csv")
    assert [row[0] for row in scores[1:]] == ids
    assert {len(row) for row in scores} == {6}
    for name in ("product.csv", "fuzzy_AGE.csv"):
        assert from_table((out / name).read_text(encoding="utf-8")).universe == tuple(ids)


def test_a_run_quotes_each_id_once(tmp_path, csv_116, monkeypatch):
    # IDs no other test uses, so no earlier run has quoted them
    ids = [f"once,{i}" for i in range(116)]
    data = _named_cohort_csv(tmp_path / "named.csv", csv_116, ids)
    calls = collections.Counter()
    real = text.csv_field

    def counted(cell):
        calls[cell] += 1
        return real(cell)

    for module in (text, pipeline):
        monkeypatch.setattr(module, "csv_field", counted)
    cfg = PipelineConfig(
        data_source=str(data), schema=DatasetSchema(id_column="Name"), reduction="off", out_dir=str(tmp_path / "out")
    )
    result = run_pipeline(cfg)
    assert result.report.universe == tuple(ids)
    # seven grids, the comparison header and the score rows share one quoting of each ID
    assert {oid: calls[oid] for oid in ids} == dict.fromkeys(ids, 1)


_FRESH_RUN = """
import sys
from fuzzysoft import DatasetSchema
from fuzzysoft.pipeline import PipelineConfig, run_pipeline
run_pipeline(PipelineConfig(data_source=sys.argv[1], schema=DatasetSchema(id_column="Name"), out_dir=sys.argv[2]))
"""


def test_runs_in_one_process_write_what_fresh_processes_write(tmp_path, csv_116):
    # two cohorts of one size whose IDs differ, some of them quoted
    cohorts = [
        _named_cohort_csv(tmp_path / "first.csv", csv_116, [f"a{i}" if i % 3 else f"a,{i}" for i in range(20)]),
        _named_cohort_csv(tmp_path / "second.csv", csv_116, [f'b"{i}' if i % 2 else f"b{i}" for i in range(20)]),
    ]
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for k, data in enumerate(cohorts):
        run_pipeline(PipelineConfig(
            data_source=str(data), schema=DatasetSchema(id_column="Name"), out_dir=str(tmp_path / f"in{k}")
        ))
    for k, data in enumerate(cohorts):
        command = [sys.executable, "-c", _FRESH_RUN, str(data), str(tmp_path / f"fresh{k}")]
        subprocess.run(command, env=env, check=True, timeout=120)
        fresh = {p.name: p.read_bytes() for p in (tmp_path / f"fresh{k}").iterdir()}
        assert {p.name: p.read_bytes() for p in (tmp_path / f"in{k}").iterdir()} == fresh
