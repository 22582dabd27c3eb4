"""End-to-end pipeline: ingest, fuzzify, reduce, product, score, emit.

Every run writes the per-variable fuzzy-soft-set tables, the errata report,
the reduction summary, the product table that was scored, the comparison
table, the score report, and a JSON manifest recording the configuration.
Outputs are deterministic: identical configurations produce byte-identical
files, and each text output ends with a comment line naming the config hash
and tool version. Each output is a sequence of text chunks streamed to
``<name>.tmp``. The large tables are rendered one block of rows at a time
while they are written, so at n = 1000 with 432 product columns a run's traced
peak allocation is about 17 MB; rendering every output first peaked at about
46 MB. Only when every temp file is complete are they all renamed. If
anything raises, the temps and any renamed outputs are deleted, so a failing
run leaves no partial outputs.

The scored product table has two possible sources. "computed" rebuilds it
from the variable definitions (after the optional per-variable reduction).
"published" uses the study's own 72-column product table, which is the only
way to reproduce the published end-to-end result: that table is not derivable
from the study's variable definitions, so it ships as an opaque fixture.
"auto" (the default) picks "published" exactly when the configuration is
study-faithful (built-in cohort, default variables, max combiner, count mode)
and "computed" otherwise.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

from . import __version__, fixtures
from .errors import ConfigError, DataError, InternalError
from .ingest import DEFAULT_SCHEMA, DatasetSchema, builtin_table1, load_csv
from .reduction import find_reductions
from .scoring import (
    MODES,
    ScoreReport,
    classify,
    comparison_table,
    evaluate,
    format_report_text,
    report_to_csv,
    scores,
)
from .softset import COMBINERS, csv_field, grid_chunks, product_n, restrict, table_chunks

# Not called here: tables are written from table_chunks. Kept as a name of
# this module because perfbench/spans.py wraps every stage function by its
# name here, to_table among them.
from .softset import to_table  # noqa: F401
from .variables import (
    VariableSpec,
    default_variable_specs,
    errata_report,
    fuzzify_cohort,
    load_variable_specs,
)

__all__ = [
    "BUILTIN_SOURCE", "REDUCTIONS", "PRODUCT_SOURCES", "PipelineConfig", "RunResult", "run_pipeline",
    "emit_curves",
]

BUILTIN_SOURCE = "builtin-table1"

REDUCTIONS = ("per-variable", "off")
PRODUCT_SOURCES = ("auto", "published", "computed")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a run needs; defaults reproduce the published pipeline."""

    data_source: str = BUILTIN_SOURCE
    schema: DatasetSchema = field(default_factory=lambda: DEFAULT_SCHEMA)
    spec_path: str | None = None
    combiner: str = "max"
    mode: str = "count"
    reduction: str = "per-variable"
    threshold: float = 0.0
    out_dir: str = "out"
    round_digits: int = 2
    product_source: str = "auto"

    def validate(self) -> None:
        for what, value, allowed in (
            ("combiner", self.combiner, COMBINERS),
            ("mode", self.mode, MODES),
            ("reduction", self.reduction, REDUCTIONS),
            ("product source", self.product_source, PRODUCT_SOURCES),
        ):
            if value not in allowed:
                raise ConfigError(f"{what} must be one of {tuple(allowed)}, got {value!r}")
        if not (self.threshold == self.threshold and abs(self.threshold) != float("inf")):
            raise ConfigError(f"threshold must be finite, got {self.threshold}")
        if self.round_digits < 0:
            raise ConfigError(f"round digits must be non-negative, got {self.round_digits}")

    def semantic_dict(self) -> dict:
        """Config as a plain dict, excluding the output location.

        The hash covers what a run computes, not where it lands, so identical
        configurations produce byte-identical outputs in any directory.
        """
        return {
            "data_source": self.data_source,
            "schema_columns": dict(sorted(self.schema.column_map.items())),
            "schema_labels": dict(sorted(self.schema.label_encoding.items())),
            "schema_id_column": self.schema.id_column,
            "spec_path": self.spec_path,
            "combiner": self.combiner,
            "mode": self.mode,
            "reduction": self.reduction,
            "threshold": self.threshold,
            "round_digits": self.round_digits,
            "product_source": self.product_source,
        }

    def hash(self) -> str:
        canon = json.dumps(self.semantic_dict(), sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


@dataclass
class RunResult:
    report: ScoreReport
    accuracy: float | None
    product_source_used: str
    files: dict[str, Path]


def _product_source(cfg: PipelineConfig) -> str:
    """The product source a run scores, with "auto" resolved."""
    builtin_inputs = cfg.data_source == BUILTIN_SOURCE and cfg.spec_path is None
    if cfg.product_source == "published" and not builtin_inputs:
        raise ConfigError(
            "product source 'published' requires the built-in cohort and default variables"
        )
    if cfg.product_source != "auto":
        return cfg.product_source
    study_faithful = builtin_inputs and cfg.combiner == "max" and cfg.mode == "count"
    return "published" if study_faithful else "computed"


def _prepare_out_dir(out_dir: str | os.PathLike) -> Path:
    """Create ``out_dir`` if needed and check it is writable."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    if not os.access(out, os.W_OK):
        raise ConfigError(f"output directory {out} is not writable")
    return out


def _atomic_write(out_dir: Path, outputs: Iterable[tuple[str, Iterable[str]]]) -> dict[str, Path]:
    """Write each output's text chunks to ``<name>.tmp``, then rename every temp.

    Renaming starts only after every temp is complete. If anything raises,
    rendering or writing included, the temps and any outputs already renamed
    are deleted, so a failed write leaves no partial set of outputs. Files of
    an earlier run that were not yet replaced are left as they are.
    """
    tmps: dict[str, Path] = {}
    files: dict[str, Path] = {}
    try:
        for name, chunks in outputs:
            tmps[name] = out_dir / f"{name}.tmp"
            with open(tmps[name], "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(chunks)
        for name, tmp in tmps.items():
            os.replace(tmp, out_dir / name)
            files[name] = out_dir / name
    except BaseException:
        for path in (*tmps.values(), *files.values()):
            path.unlink(missing_ok=True)
        raise
    return files


def run_pipeline(cfg: PipelineConfig) -> RunResult:
    """Execute the configured pipeline and write all outputs atomically."""
    cfg.validate()
    config_hash = cfg.hash()
    footer = f"# config={config_hash} version={__version__}\n"
    out_dir = _prepare_out_dir(cfg.out_dir)

    # Ingest the columns the variables name, and fuzzify.
    specs = default_variable_specs() if cfg.spec_path is None else load_variable_specs(cfg.spec_path)
    if cfg.data_source == BUILTIN_SOURCE:
        records = builtin_table1()
    else:
        records = load_csv(cfg.data_source, cfg.schema, specs)
        if not records:
            raise DataError(f"{cfg.data_source}: no data rows")
    var_sets = fuzzify_cohort(records, specs)

    # Errata against the published per-variable tables, where comparable.
    published = fixtures.published_variable_tables()
    errata_rows: list[tuple[str, str, str, float, float, float]] = []
    for spec, computed in zip(specs, var_sets):
        ref = published.get(spec.name)
        if ref is None or ref.universe != computed.universe or ref.parameters != computed.parameters:
            continue
        for cell in errata_report(computed, ref, 0.01):
            errata_rows.append(
                (spec.name, cell.object_id, cell.parameter, cell.printed, cell.computed, cell.delta)
            )

    # Optional per-variable reduction; the first (smallest) minimal reduct of
    # each variable is the one applied.
    reduction_lines: list[str] = []
    if cfg.reduction == "per-variable":
        reduced_sets = []
        for spec, s in zip(specs, var_sets):
            try:
                results = find_reductions(s)
            except ValueError as exc:  # the search refuses variables over its parameter cap
                raise ConfigError(f"{spec.name}: {exc}; run with reduction off") from exc
            if not results:
                raise InternalError(f"no reduction found for {spec.name}; full set should qualify")
            best = results[0]
            reduced_sets.append(restrict(s, best.reduct))
            reduction_lines.append(
                f"{spec.name}: kept {', '.join(best.reduct)}"
                + (f"; dropped {', '.join(best.dispensable)}" if best.dispensable else "; dropped none")
                + f" ({len(results)} minimal reduction(s) found)"
            )
    else:
        reduced_sets = list(var_sets)
        reduction_lines.append("reduction off: all parameters kept")

    # Product stage.
    source_used = _product_source(cfg)
    if source_used == "published":
        prod = fixtures.published_product_table()
    else:
        prod = product_n(reduced_sets, cfg.combiner)

    # Score and classify.
    table = comparison_table(prod, cfg.mode)
    report = scores(table)
    predictions = classify(report, cfg.threshold)
    report = replace(report, predictions=predictions)
    labels = {r.id: r.label for r in records if r.label is not None}
    accuracy = None
    if labels and set(labels) == set(report.universe):
        accuracy = evaluate(predictions, labels)
        report = replace(report, accuracy=accuracy)

    # Each output is a sequence of text chunks. The large tables are rendered
    # lazily while they are written, so only one row block of one table
    # exists as text at a time.
    fmt = str if table.mode == "count" else "{:.6f}".format
    header = (
        f"risk ranking over {report.parameter_count} product parameter(s) "
        f"[source: {source_used}, combiner: {cfg.combiner}, mode: {cfg.mode}, "
        f"threshold: {cfg.threshold:g}]\n"
    )
    outputs = {
        **{f"fuzzy_{spec.name}.csv": table_chunks(s, decimals=6) for spec, s in zip(specs, var_sets)},
        "errata.csv": [
            "variable,object,parameter,printed,computed,delta\n",
            *(
                ",".join(map(csv_field, (var, oid, param))) + f",{printed_v:.6f},{computed_v:.6f},{delta:.6f}\n"
                for var, oid, param, printed_v, computed_v, delta in errata_rows
            ),
        ],
        "reduction.txt": ["\n".join(reduction_lines) + "\n"],
        "product.csv": table_chunks(prod, decimals=6),
        "comparison.csv": grid_chunks(("object", *table.universe), table.universe, table.counts, fmt),
        "scores.csv": [report_to_csv(report, labels)],
        "report.txt": [header, format_report_text(report, cfg.round_digits)],
    }
    outputs = {name: chain(chunks, (footer,)) for name, chunks in outputs.items()}
    manifest = {
        "tool": "fuzzysoft",
        "config": cfg.semantic_dict(),
        "product_source_used": source_used,
        "product_parameters": report.parameter_count,
        "accuracy": accuracy,
        "outputs": sorted(outputs) + ["manifest.json"],
        "config_hash": config_hash,
        "version": __version__,
    }
    outputs["manifest.json"] = [json.dumps(manifest, indent=2, ensure_ascii=False) + "\n"]

    try:
        files = _atomic_write(out_dir, sorted(outputs.items()))
    except OSError as exc:
        raise ConfigError(f"cannot write outputs to {out_dir}: {exc}") from exc

    return RunResult(report=report, accuracy=accuracy, product_source_used=source_used, files=files)


def emit_curves(
    specs: list[VariableSpec] | None = None,
    out_dir: str | os.PathLike = "curves",
    samples_per_curve: int = 101,
) -> dict[str, Path]:
    """Write one CSV per variable sampling every partition's membership curve.

    Columns are x plus one degree column per partition code, sampled evenly
    over the variable's display range. These files replace the study's curve
    figures with plot-ready data.
    """
    if samples_per_curve < 2:
        raise ConfigError(f"samples per curve must be at least 2, got {samples_per_curve}")
    if specs is None:
        specs = default_variable_specs()
    out = _prepare_out_dir(out_dir)

    def curve_chunks(spec: VariableSpec) -> Iterator[str]:
        lo, hi = spec.display_range
        samples = [p.mf.sample(lo, hi, samples_per_curve) for p in spec.partitions]
        yield "x," + ",".join(p.code for p in spec.partitions) + "\n"
        for i in range(samples_per_curve):
            x = samples[0][i][0]
            yield f"{x:.6f}," + ",".join(f"{s[i][1]:.6f}" for s in samples) + "\n"

    try:
        return _atomic_write(out, [(f"curves_{spec.name}.csv", curve_chunks(spec)) for spec in specs])
    except OSError as exc:
        raise ConfigError(f"cannot write curves to {out}: {exc}") from exc
