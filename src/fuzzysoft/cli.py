"""Command-line interface.

Subcommands: run, curves, verify. A command that fails exits with the
``exit_code`` of the error type it raised (see ``fuzzysoft.errors``);
``verify`` also exits with ``ConfigError``'s code when a hard fixture check fails.
"""
from __future__ import annotations

import argparse
import inspect
import sys

from . import __version__
from .errors import ConfigError, DataError, FuzzySoftError
from .pipeline import (
    BUILTIN_SOURCE, PRODUCT_SOURCES, REDUCTIONS, PipelineConfig, emit_curves, run_pipeline,
)
from .scoring import MODES
from .softset import COMBINERS
from .variables import default_variable_specs, load_variable_specs
from .fixtures import verify_fixtures

class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; bad flags are configuration errors here.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(ConfigError.exit_code, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fuzzysoft", description=__doc__)
    parser.add_argument("--version", action="version", version=f"fuzzysoft {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("run", help="run the full pipeline and write every output")
    # each flag's dest is a PipelineConfig field, and its default that field's default
    config = PipelineConfig()
    p.add_argument(
        "--data",
        dest="data_source",
        default=config.data_source,
        help=f"CSV path, or '{BUILTIN_SOURCE}' for the built-in cohort (default: %(default)s)",
    )
    p.add_argument("--spec", dest="spec_path", default=config.spec_path,
                   help="variable definitions JSON (default: built-in)")
    p.add_argument("--combiner", choices=COMBINERS, default=config.combiner,
                   help="product combiner (default: %(default)s, as published)")
    p.add_argument("--mode", choices=MODES, default=config.mode,
                   help="comparison mode (default: %(default)s, as published)")
    p.add_argument("--reduction", choices=REDUCTIONS, default=config.reduction,
                   help="parameter reduction preserving the optimal objects (default: %(default)s)")
    p.add_argument("--threshold", type=float, default=config.threshold,
                   help="risk threshold on scores (default: %(default)s)")
    p.add_argument("--out", dest="out_dir", default=config.out_dir,
                   help="output directory (default: %(default)s)")
    p.add_argument("--round", type=int, dest="round_digits", default=config.round_digits,
                   help="display rounding for text reports (default: %(default)s)")
    p.add_argument("--product-source", choices=PRODUCT_SOURCES, dest="product_source",
                   default=config.product_source,
                   help="score the published 72-column product table or a recomputed one "
                        "(default: %(default)s = published for the study-faithful configuration)")

    p = sub.add_parser("curves", help="write plot-ready membership-curve samples per variable")
    # the defaults are emit_curves' own keyword defaults
    curves = {name: param.default for name, param in inspect.signature(emit_curves).parameters.items()}
    p.add_argument("--spec", default=curves["specs"], help="variable definitions JSON (default: built-in)")
    p.add_argument("--out", default=curves["out_dir"], help="output directory (default: %(default)s)")
    p.add_argument("--samples", type=int, default=curves["samples_per_curve"],
                   help="samples per curve (default: %(default)s)")

    p = sub.add_parser("verify", help="check every published reference table and report deltas")
    p.add_argument("--verbose", action="store_true", help="show per-cell details for passing checks too")

    return parser


def main(argv: list[str] | None = None) -> int:
    # IDs such as μ_1 and output paths may not fit the terminal's encoding:
    # escape what it cannot show rather than fail after the run
    reconfigure = getattr(sys.stdout, "reconfigure", None)
    if reconfigure is not None:
        reconfigure(errors="backslashreplace")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            report = verify_fixtures()
            sys.stdout.write(report.format(verbose=args.verbose))
            return 0 if report.ok else ConfigError.exit_code

        if args.command == "curves":
            specs = default_variable_specs() if args.spec is None else load_variable_specs(args.spec)
            files = emit_curves(specs, args.out, args.samples)
            for name in sorted(files):
                print(f"wrote {files[name]}")
            return 0

        fields = {name: value for name, value in vars(args).items() if name != "command"}
        result = run_pipeline(PipelineConfig(**fields))
        for name in sorted(result.files):
            print(f"wrote {result.files[name]}")
        print(f"product source: {result.product_source_used} "
              f"({result.report.parameter_count} parameters)")
        print(f"accuracy: {result.accuracy:.2f}")
        return 0
    except FuzzySoftError as exc:
        # configuration and data errors are bad input; any other is a bug
        kind = "error" if isinstance(exc, (ConfigError, DataError)) else "internal error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
