"""End-to-end pipeline: ingest, fuzzify, reduce, product, score, emit.

Every run writes the per-variable fuzzy-soft-set tables, the errata report,
the reduction summary, the product table that was scored, the comparison
table, the score report, and a JSON manifest recording the configuration.
Outputs are deterministic: identical configurations produce byte-identical
files, and each text output ends with a comment line naming the config hash
and tool version. Every output is UTF-8 bytes from the moment it is rendered:
the small texts are encoded once, and every numeric CSV grid (the fuzzy and
product tables, ``comparison.csv`` and the curves) is ``text.grid_chunks``
bytes, rendered one block of rows at a time while it is written to
``<name>.tmp``, with no decoding or re-encoding on the way. The temps are
renamed only once all are complete. If anything raises, they and any
renamed outputs are deleted, so a failing run leaves no partial outputs.

The scored product table has two possible sources. "computed" rebuilds it
from the variable definitions (after the optional per-variable reduction).
"published" uses the study's own 72-column product table, which is the only
way to reproduce the published end-to-end result. That table is derived from
the study's printed per-variable tables, not from the formulas, and it
departs from the study's stated reduced sets (see ``fixtures``).
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
from typing import Iterable

import numpy as np

from . import __version__, fixtures
from .errors import ConfigError, DataError, InternalError
from .ingest import DEFAULT_SCHEMA, DatasetSchema, builtin_table1, load_csv
from .membership import evaluate_columns
from .reduction import find_reductions
from .scoring import MODES, ScoreReport, classify, comparison_table, evaluate, scores
from .softset import COMBINERS, product_n, restrict
from .text import FixedPoint, csv_field, format_report_text, grid_chunks, number_format, report_to_csv, table_chunks

# Not called here: tables are written by table_chunks, which to_table only
# joins. perfbench/spans.py wraps it by this name, so its span,
# softset.to_table_s, is installed but reads 0.
from .text import to_table  # noqa: F401
from .variables import (
    VariableSpec,
    default_variable_specs,
    fuzzify_cohort,
    load_variable_specs,
)
from .verify import errata_cells

__all__ = [
    "BUILTIN_SOURCE", "REDUCTIONS", "PRODUCT_SOURCES", "PipelineConfig", "RunResult", "run_pipeline",
    "emit_curves",
]

BUILTIN_SOURCE = "builtin-table1"

REDUCTIONS = ("per-variable", "off")
PRODUCT_SOURCES = ("auto", "published", "computed")

# A double holds at most 17 significant digits, so more report decimals show
# nothing more of a value of 0.1 or more, and a huge count would format
# strings of that many characters.
_MAX_ROUND_DIGITS = 17
# Samples a curve may take: each costs a row in every curve file and its
# floats in memory, so an unbounded count runs out of memory.
_MAX_CURVE_SAMPLES = 10**6


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
        for what, value, types, kind in (
            ("data source", self.data_source, str, "a string"),
            ("schema", self.schema, DatasetSchema, "a DatasetSchema"),
            ("spec path", self.spec_path, (str, type(None)), "a string or None"),
            ("threshold", self.threshold, (int, float), "a number"),
            ("round digits", self.round_digits, int, "an integer"),
            ("output directory", self.out_dir, (str, os.PathLike), "a string or a path"),
        ):
            if isinstance(value, bool) or not isinstance(value, types):
                raise ConfigError(f"{what} must be {kind}, got {value!r}")
        for what, value, allowed in (
            ("combiner", self.combiner, COMBINERS),
            ("mode", self.mode, MODES),
            ("reduction", self.reduction, REDUCTIONS),
            ("product source", self.product_source, PRODUCT_SOURCES),
        ):
            if value not in tuple(allowed):  # a dict's membership test hashes the value
                raise ConfigError(f"{what} must be one of {tuple(allowed)}, got {value!r}")
        if not (self.threshold == self.threshold and abs(self.threshold) != float("inf")):
            raise ConfigError(f"threshold must be finite, got {self.threshold}")
        if self.round_digits < 0:
            raise ConfigError(f"round digits must be non-negative, got {self.round_digits}")
        if self.round_digits > _MAX_ROUND_DIGITS:
            raise ConfigError(f"round digits must be at most {_MAX_ROUND_DIGITS}, got {self.round_digits}")
        if self.product_source == "published":
            if self.data_source != BUILTIN_SOURCE or self.spec_path is not None:
                raise ConfigError(
                    "product source 'published' requires the built-in cohort and default variables"
                )
            if self.combiner != "max":
                raise ConfigError(
                    f"product source 'published' is the study's max-combined table; it cannot use combiner {self.combiner!r}"
                )

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
    accuracy: float
    product_source_used: str
    files: dict[str, Path]


def _product_source(cfg: PipelineConfig) -> str:
    """The product source a run scores, with "auto" resolved."""
    if cfg.product_source != "auto":
        return cfg.product_source
    builtin_inputs = cfg.data_source == BUILTIN_SOURCE and cfg.spec_path is None
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


def _atomic_write(out_dir: Path, outputs: Iterable[tuple[str, Iterable[bytes]]], what: str) -> dict[str, Path]:
    """Write each output's UTF-8 chunks to ``<name>.tmp`` as they are, then rename every temp.

    Renaming starts only after every temp is complete. If anything raises,
    rendering or writing included, the temps and any outputs already renamed
    are deleted, so a failed write leaves no partial set of outputs. Files of
    an earlier run that were not yet replaced are left as they are. An
    ``OSError`` is raised as a ``ConfigError`` saying it could not write
    ``what``.
    """
    tmps: dict[str, Path] = {}
    files: dict[str, Path] = {}
    try:
        for name, chunks in outputs:
            tmps[name] = out_dir / f"{name}.tmp"
            with open(tmps[name], "wb") as fh:
                fh.writelines(chunks)
        # replaced over the old file, so a reader sees the old output or the new, never a gap
        for name, tmp in tmps.items():
            os.replace(tmp, out_dir / name)
            files[name] = out_dir / name
    except BaseException as exc:
        for path in (*tmps.values(), *files.values()):
            path.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {what} to {out_dir}: {exc}") from exc
        raise
    return files


def run_pipeline(cfg: PipelineConfig) -> RunResult:
    """Execute the configured pipeline and write all outputs atomically."""
    cfg.validate()
    config_hash = cfg.hash()
    footer = f"# config={config_hash} version={__version__}\n".encode()
    out_dir = _prepare_out_dir(cfg.out_dir)

    # Ingest the columns the variables name, and fuzzify.
    specs = default_variable_specs() if cfg.spec_path is None else load_variable_specs(cfg.spec_path)
    if cfg.data_source == BUILTIN_SOURCE:
        cohort = builtin_table1()
    else:
        cohort = load_csv(cfg.data_source, cfg.schema, specs)
        if not cohort.ids:
            raise DataError(f"{cfg.data_source}: no data rows")
    var_sets = fuzzify_cohort(cohort, specs)

    # Errata against the published per-variable tables, where comparable.
    errata = [(spec.name, c) for spec, s in zip(specs, var_sets) for c in errata_cells(spec.name, s) or ()]

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
        try:
            prod = product_n(reduced_sets, cfg.combiner)
        except ValueError as exc:  # two label pairs joined into one product label
            raise ConfigError(f"product of the variables: {exc}; change the partition codes") from exc

    # Score and classify.
    table = comparison_table(prod, cfg.mode)
    report = scores(table)
    predictions = classify(report, cfg.threshold)
    # the product's universe is the cohort's IDs, so every object has a label
    labels = dict(zip(cohort.ids, cohort.labels))
    accuracy = evaluate(predictions, labels)
    report = replace(report, predictions=predictions, accuracy=accuracy)

    header = (
        f"risk ranking over {report.parameter_count} product parameter(s) "
        f"[source: {source_used}, combiner: {cfg.combiner}, mode: {cfg.mode}, "
        f"threshold: {cfg.threshold:g}]\n"
    )
    texts = {
        "errata.csv": "variable,object,parameter,printed,computed,delta\n"
        + "".join(
            ",".join(map(csv_field, (var, c.object_id, c.parameter)))
            + f",{c.printed:.6f},{c.computed:.6f},{c.delta:.6f}\n"
            for var, c in errata
        ),
        "reduction.txt": "\n".join(reduction_lines) + "\n",
        "scores.csv": report_to_csv(report, labels),
        "report.txt": header + format_report_text(report, cfg.round_digits),
    }
    outputs = {
        **{f"fuzzy_{spec.name}.csv": table_chunks(s, decimals=6) for spec, s in zip(specs, var_sets)},
        "product.csv": table_chunks(prod, decimals=6),
        "comparison.csv": grid_chunks(
            ("object", *table.universe), table.universe, table.counts, number_format(table.mode), table.levels
        ),
        **{name: [text.encode()] for name, text in texts.items()},
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
    outputs["manifest.json"] = [(json.dumps(manifest, indent=2, ensure_ascii=False) + "\n").encode()]

    files = _atomic_write(out_dir, sorted(outputs.items()), "outputs")
    return RunResult(report=report, accuracy=accuracy, product_source_used=source_used, files=files)


def emit_curves(
    specs: list[VariableSpec] | None = None,
    out_dir: str | os.PathLike = "curves",
    samples_per_curve: int = 101,
) -> dict[str, Path]:
    """Write one CSV per variable sampling every partition's membership curve.

    Columns are x plus one degree column per partition code, sampled evenly
    over the variable's display range, written by ``grid_chunks`` with x as
    the row ID. The degrees are ``membership.evaluate_columns``, the same
    per-variable evaluation as ``fuzzify_cohort``'s. These files replace the
    study's curve figures with plot-ready data.
    """
    if isinstance(samples_per_curve, bool) or not isinstance(samples_per_curve, int):
        raise ConfigError(f"samples per curve must be an integer, got {samples_per_curve!r}")
    if samples_per_curve < 2:
        raise ConfigError(f"samples per curve must be at least 2, got {samples_per_curve}")
    if samples_per_curve > _MAX_CURVE_SAMPLES:
        raise ConfigError(f"samples per curve must be at most {_MAX_CURVE_SAMPLES}, got {samples_per_curve}")
    if specs is None:
        specs = default_variable_specs()
    out = _prepare_out_dir(out_dir)
    fmt = FixedPoint(6)
    outputs = []
    for spec in specs:
        xs = np.linspace(*spec.display_range, samples_per_curve)
        degrees = evaluate_columns([p.mf for p in spec.partitions], xs)
        header = ("x", *(p.code for p in spec.partitions))
        outputs.append((f"curves_{spec.name}.csv", grid_chunks(header, map(fmt, xs.tolist()), degrees, fmt)))
    return _atomic_write(out, outputs, "curves")
