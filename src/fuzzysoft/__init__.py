"""Fuzzy soft sets for clinical risk ranking.

Fuzzifies clinical measurements through piecewise-linear membership functions,
builds fuzzy soft sets over a patient cohort, applies soft-set products and
a parameter reduction that preserves the optimal objects (Chen et al. 2005's
parameterization reduction, not Kong et al. 2008's normal reduction, which
keeps the whole ranking), and ranks objects by comparison-table scores. The
default configuration reproduces a published breast-cancer risk-ranking case
study end to end, including a machine-readable errata report for every cell
where the study's printed tables contradict its own formulas.
"""

__version__ = "0.1.0"

from .errors import ConfigError, DataError, FuzzySoftError, InternalError
from .membership import MembershipFunction, left_shoulder, make_piecewise, right_shoulder, triangle
from .softset import FuzzySoftSet, product, product_n, restrict
from .variables import (
    HEALTHY_CONTROL,
    PATIENT,
    Cohort,
    Partition,
    VariableSpec,
    default_variable_specs,
    fuzzify_cohort,
    load_variable_specs,
    specs_from_json,
    specs_to_json,
)
from .reduction import ReductionResult, choice_values, find_reductions, optimal_objects
from .scoring import (
    HEALTHY,
    HIGH_RISK,
    ComparisonTable,
    ScoreReport,
    classify,
    comparison_table,
    evaluate,
    scores,
)
from .text import format_report_text, from_table, report_to_csv, to_table
from .ingest import DEFAULT_SCHEMA, DatasetSchema, builtin_table1, load_csv
from .pipeline import BUILTIN_SOURCE, PipelineConfig, RunResult, emit_curves, run_pipeline
from .fixtures import ErrataCell, errata_report, verify_fixtures

__all__ = [
    "__version__",
    "ConfigError",
    "DataError",
    "FuzzySoftError",
    "InternalError",
    "MembershipFunction",
    "make_piecewise",
    "triangle",
    "left_shoulder",
    "right_shoulder",
    "FuzzySoftSet",
    "product",
    "product_n",
    "restrict",
    "to_table",
    "from_table",
    "HEALTHY_CONTROL",
    "PATIENT",
    "Partition",
    "VariableSpec",
    "Cohort",
    "ErrataCell",
    "default_variable_specs",
    "fuzzify_cohort",
    "errata_report",
    "specs_to_json",
    "specs_from_json",
    "load_variable_specs",
    "ReductionResult",
    "choice_values",
    "optimal_objects",
    "find_reductions",
    "HIGH_RISK",
    "HEALTHY",
    "ComparisonTable",
    "ScoreReport",
    "comparison_table",
    "scores",
    "classify",
    "evaluate",
    "report_to_csv",
    "format_report_text",
    "DatasetSchema",
    "DEFAULT_SCHEMA",
    "load_csv",
    "builtin_table1",
    "BUILTIN_SOURCE",
    "PipelineConfig",
    "RunResult",
    "run_pipeline",
    "emit_curves",
    "verify_fixtures",
]
