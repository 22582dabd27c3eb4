"""Whole-run behaviour of ``run_pipeline``: memory, all-or-nothing writes, CSV quoting."""
import csv
import errno
import io
import itertools
import tracemalloc

import pytest

from fuzzysoft import DatasetSchema, from_table, pipeline, softset
from fuzzysoft.cli import main
from fuzzysoft.pipeline import PipelineConfig, run_pipeline

# Files whose rows a run renders in row blocks, in the order they are written.
BLOCK_RENDERED = ("comparison.csv", "fuzzy_ADP.csv", "fuzzy_AGE.csv", "fuzzy_BMI.csv",
                  "fuzzy_INS.csv", "fuzzy_LPN.csv", "product.csv")


def _cohort_csv(path, csv_116, n):
    """The 116-row file's rows, cycled to ``n`` rows."""
    header, *rows = csv_116.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join([header, *itertools.islice(itertools.cycle(rows), n)]) + "\n", encoding="utf-8")
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
    # rendering every output before writing any peaked at about 46 MB
    assert peak < 24 * 2**20


def _fail_in_block_rendering(monkeypatch, failing_call, exc):
    """Make the ``failing_call``-th row-block rendering raise ``exc`` after its first block."""
    real = softset._row_blocks
    calls = itertools.count()

    def row_blocks(grid, fmt):
        blocks = real(grid, fmt)
        if next(calls) != failing_call:
            return blocks
        return itertools.chain(itertools.islice(blocks, 1), _raise(exc))

    monkeypatch.setattr(softset, "_row_blocks", row_blocks)
    monkeypatch.setattr(softset, "_FORMAT_BLOCK_CELLS", 64)  # several blocks per table


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


def _csv_rows(path):
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n") and text.splitlines()[-1].startswith("# config=")
    return list(csv.reader(io.StringIO(text[: text.rindex("# config=")], newline="")))


def test_every_csv_output_quotes_ids(tmp_path, csv_116, monkeypatch):
    ids = ["p0,x", 'q"1', "#r", "s\nt", "plain"]
    header, *rows = csv_116.read_text(encoding="utf-8").splitlines()
    data = tmp_path / "named.csv"
    with open(data, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["Name", *header.split(",")])
        writer.writerows([oid, *row.split(",")] for oid, row in zip(ids, rows))
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
