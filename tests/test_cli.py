import csv
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fuzzysoft import (
    ConfigError, DataError, DatasetSchema, FuzzySoftError, InternalError, PipelineConfig, pipeline, specs_to_json,
    default_variable_specs,
)
from fuzzysoft import cli
from fuzzysoft.cli import build_parser, main
from fuzzysoft.fixtures import published_product_table
from fuzzysoft.scoring import MODES, comparison_table, scores
from fuzzysoft.softset import COMBINERS

MU = "μ_"
X = "×"


def run_cli(*argv):
    return main(list(argv))


def read_bytes_tree(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def _empty_or_absent(path: Path) -> bool:
    return not path.exists() or list(path.iterdir()) == []


def test_run_defaults_reports_published_accuracy(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("run", "--out", str(out)) == 0
    stdout = capsys.readouterr().out
    assert "accuracy: 0.70" in stdout
    assert "product source: published (72 parameters)" in stdout
    report = (out / "report.txt").read_text(encoding="utf-8")
    assert "accuracy: 0.70" in report
    expected = {
        "comparison.csv", "errata.csv", "fuzzy_ADP.csv", "fuzzy_AGE.csv", "fuzzy_BMI.csv",
        "fuzzy_INS.csv", "fuzzy_LPN.csv", "manifest.json", "product.csv", "reduction.txt",
        "report.txt", "scores.csv",
    }
    assert {p.name for p in out.iterdir()} == expected


def test_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", "--out", str(out1)) == 0
    assert run_cli("run", "--out", str(out2)) == 0
    assert read_bytes_tree(out1) == read_bytes_tree(out2)


def test_every_output_ends_with_manifest_line(tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    config_hash = manifest["config_hash"]
    for path in out.iterdir():
        if path.name == "manifest.json":
            continue
        last_line = path.read_text(encoding="utf-8").rstrip("\n").splitlines()[-1]
        assert last_line == f"# config={config_hash} version={manifest['version']}", path.name


def test_manifest_records_flags_and_products(tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--out", str(out), "--threshold", "5") == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["threshold"] == 5.0
    assert manifest["config"]["combiner"] == "max"
    assert manifest["product_source_used"] == "published"
    assert manifest["product_parameters"] == 72
    assert manifest["accuracy"] is not None


def test_computed_product_source(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("run", "--out", str(out), "--product-source", "computed", "--reduction", "off") == 0
    stdout = capsys.readouterr().out
    assert "product source: computed (432 parameters)" in stdout
    assert "accuracy: 0.80" in stdout


def test_reduced_computed_product(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("run", "--out", str(out), "--product-source", "computed") == 0
    stdout = capsys.readouterr().out
    assert "product source: computed (2 parameters)" in stdout
    reduction = (out / "reduction.txt").read_text(encoding="utf-8")
    assert "AGE: kept (AGE)_O" in reduction
    assert "ADP: kept (ADP)_L, (ADP)_H" in reduction


def test_published_product_requires_builtin_data(tmp_path, csv_116):
    out = tmp_path / "out"
    assert run_cli("run", "--out", str(out), "--data", str(csv_116), "--product-source", "published") == 1


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_a_threshold_that_is_not_finite_exits_1(tmp_path, capsys, value):
    out = tmp_path / "out"
    assert run_cli("run", "--out", str(out), "--threshold", value) == 1
    assert f"threshold must be finite, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("combiner", [c for c in COMBINERS if c != "max"])
def test_published_product_requires_the_max_combiner(tmp_path, capsys, combiner):
    out = tmp_path / "out"
    assert run_cli("run", "--out", str(out), "--product-source", "published", "--combiner", combiner) == 1
    assert "max-combined" in capsys.readouterr().err
    assert _empty_or_absent(out)


def test_published_product_scores_in_difference_mode(tmp_path, capsys):
    # published refuses other data, --spec and a combiner other than max, not --mode difference
    out = tmp_path / "out"
    assert run_cli("run", "--out", str(out), "--product-source", "published", "--mode", "difference") == 0
    assert "product source: published (72 parameters)" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert (manifest["product_source_used"], manifest["config"]["mode"]) == ("published", "difference")
    want = scores(comparison_table(published_product_table(), "difference"))
    with open(out / "scores.csv", encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if not row[0].startswith("#")][1:]
    assert [row[0] for row in rows] == list(want.universe)
    assert [float(row[3]) for row in rows] == pytest.approx(want.scores.tolist(), abs=5e-7)


def test_csv_data_source_runs_computed(tmp_path, csv_116, capsys):
    out = tmp_path / "out"
    assert run_cli("run", "--out", str(out), "--data", str(csv_116)) == 0
    stdout = capsys.readouterr().out
    assert "product source: computed" in stdout
    with open(out / "scores.csv", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    assert len(rows) == 1 + 116


def test_missing_csv_exits_2(tmp_path):
    assert run_cli("run", "--out", str(tmp_path / "o"), "--data", str(tmp_path / "nope.csv")) == 2


def test_header_only_csv_exits_2(tmp_path, capsys):
    data = tmp_path / "empty.csv"
    data.write_text("Age,BMI,Insulin,Leptin,Adiponectin,Classification\n", encoding="utf-8")
    out = tmp_path / "o"
    assert run_cli("run", "--out", str(out), "--data", str(data)) == 2
    assert "no data rows" in capsys.readouterr().err
    assert _empty_or_absent(out)


def test_csv_naming_a_read_column_twice_exits_2(tmp_path, capsys):
    data = tmp_path / "twice.csv"
    data.write_text(
        "Age,BMI,Insulin,Leptin,Adiponectin,Classification,Age\n"
        "50,23.01,5.66,35.59,26.72,1,90\n"
        "44,24.74,58.46,18.16,16.10,2,80\n",
        encoding="utf-8",
    )
    out = tmp_path / "o"
    assert run_cli("run", "--out", str(out), "--data", str(data)) == 2
    assert "'Age' 2 times" in capsys.readouterr().err
    assert _empty_or_absent(out)


def test_csv_with_non_ascii_digits_exits_2(tmp_path, capsys):
    data = tmp_path / "digits.csv"
    data.write_text(
        "Age,BMI,Insulin,Leptin,Adiponectin,Classification\n"
        "50,23.01,5.66,35.59,26.72,1\n"
        "٣٣,24.74,58.46,18.16,16.10,2\n",
        encoding="utf-8",
    )
    out = tmp_path / "o"
    assert run_cli("run", "--out", str(out), "--data", str(data)) == 2
    assert "row 2, column 'Age': cannot parse '٣٣' as a number" in capsys.readouterr().err
    assert _empty_or_absent(out)


def test_bad_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--not-a-flag")
    assert exc.value.code == 1


def test_unusable_output_path_exits_1(tmp_path):
    # a file where the output directory should be (works even as root,
    # where permission bits are ignored)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    assert run_cli("run", "--out", str(blocker / "out")) == 1


def test_failed_run_leaves_no_partial_outputs(tmp_path, csv_116, capsys):
    out = tmp_path / "out"
    # this config fails late (product stage: two product labels collide), after
    # ingest and fuzzification; the render-then-write design must leave the directory empty
    spec = _two_variable_spec(tmp_path / "collide.json", ["x", f"x{X}(BMI)_y"], [f"y{X}(BMI)_z", "z"])
    code = run_cli(
        "run", "--out", str(out), "--data", str(csv_116), "--spec", str(spec), "--reduction", "off",
    )
    assert code == 1
    assert "parameter labels must be unique" in capsys.readouterr().err
    assert _empty_or_absent(out)


@pytest.mark.parametrize("flag, message", [
    ("--data", "requires the built-in cohort and default variables"),
    ("--spec", "requires the built-in cohort and default variables"),
    ("--combiner", "max-combined table; it cannot use combiner 'min'"),
], ids=["data", "spec", "combiner"])
def test_config_only_errors_come_before_any_work(tmp_path, csv_116, capsys, monkeypatch, flag, message):
    spec = tmp_path / "spec.json"
    spec.write_text(specs_to_json(default_variable_specs()), encoding="utf-8")
    value = {"--data": str(csv_116), "--spec": str(spec), "--combiner": "min"}[flag]

    def no_work(*args, **kwargs):
        raise AssertionError("a config-only error must come before any stage runs")

    for stage in ("load_variable_specs", "load_csv", "fuzzify_cohort"):
        monkeypatch.setattr(pipeline, stage, no_work)
    out = tmp_path / "out"
    assert run_cli("run", "--out", str(out), "--product-source", "published", flag, value) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: product source 'published' ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("error, code, prefix", [
    (ConfigError, 1, "error: "),
    (DataError, 2, "error: "),
    (InternalError, 3, "internal error: "),
    (FuzzySoftError, 3, "internal error: "),
])
def test_each_error_type_sets_the_exit_code_and_prefix(tmp_path, capsys, monkeypatch, error, code, prefix):
    def run_pipeline(cfg):
        raise error("boom")

    monkeypatch.setattr(cli, "run_pipeline", run_pipeline)
    assert run_cli("run", "--out", str(tmp_path / "out")) == code
    assert capsys.readouterr().err == f"{prefix}boom\n"


def test_auto_scores_the_computed_product_in_difference_mode(tmp_path, capsys):
    # the published table was scored with count mode only, so auto picks it only there
    out = tmp_path / "out"
    assert run_cli("run", "--out", str(out), "--mode", "difference") == 0
    assert "product source: computed" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["product_source_used"] == "computed"


def test_run_writes_tables_and_errata(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("run", "--out", str(out)) == 0
    stdout = capsys.readouterr().out
    assert "fuzzy_AGE.csv" in stdout and "errata.csv" in stdout
    with open(out / "errata.csv", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    assert rows[0] == ["variable", "object", "parameter", "printed", "computed", "delta"]
    cells = {(r[0], r[1], r[2]) for r in rows[1:]}
    assert ("INS", f"{MU}45", "(INS)_H") in cells
    assert ("INS", f"{MU}60", "(INS)_L") in cells
    assert ("LPN", f"{MU}31", "(LPN)_VH") in cells
    # 8 BMI + 6 LPN + 2 INS divergent cells, none for AGE or ADP
    assert len(rows) - 1 == 16
    assert not any(r[0] in ("AGE", "ADP") for r in rows[1:])


def test_run_writes_scores_and_accuracy(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("run", "--out", str(out)) == 0
    stdout = capsys.readouterr().out
    assert "scores.csv" in stdout
    assert "accuracy: 0.70" in stdout
    scores_text = (out / "scores.csv").read_text(encoding="utf-8")
    assert scores_text.startswith("object,row_sum,column_sum,score,prediction,label\n")


def test_run_writes_reduction_and_published_product(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("run", "--out", str(out)) == 0
    stdout = capsys.readouterr().out
    assert "reduction.txt" in stdout and "product.csv" in stdout
    reduction = (out / "reduction.txt").read_text(encoding="utf-8")
    assert "AGE: kept (AGE)_O" in reduction
    header = (out / "product.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header.split(",")[1] == "€1"  # published positional labels


def _subcommands() -> dict:
    return next(a for a in build_parser()._actions if a.dest == "command").choices


def test_parser_has_only_the_pipeline_curves_and_verify_commands():
    assert sorted(_subcommands()) == ["curves", "run", "verify"]


def test_run_choices_are_the_library_lists():
    choices = {a.dest: a.choices for a in _subcommands()["run"]._actions if a.choices is not None}
    assert list(choices["combiner"]) == list(COMBINERS)
    assert list(choices["mode"]) == list(MODES)
    assert list(choices["reduction"]) == list(pipeline.REDUCTIONS)
    assert list(choices["product_source"]) == list(pipeline.PRODUCT_SOURCES)


def test_curves_defaults_are_emit_curves_keyword_defaults():
    defaults = {name: p.default for name, p in inspect.signature(pipeline.emit_curves).parameters.items()}
    args = build_parser().parse_args(["curves"])
    assert (args.spec, args.out, args.samples) == (defaults["specs"], defaults["out_dir"], defaults["samples_per_curve"])


def test_run_without_flags_builds_the_default_config(monkeypatch):
    configs = []

    def capture(config):
        configs.append(config)
        raise ConfigError("captured")

    monkeypatch.setattr(cli, "run_pipeline", capture)
    assert run_cli("run") == 1
    assert configs == [PipelineConfig()]
    assert run_cli("run", "--data", "x.csv", "--spec", "v.json", "--out", "o", "--round", "3") == 1
    assert configs[1] == PipelineConfig(data_source="x.csv", spec_path="v.json", out_dir="o", round_digits=3)


def test_spec_on_an_unmodeled_csv_column_runs(tmp_path, csv_116):
    # Glucose is in the file but not among the default variables.
    spec = [{"name": "GLU", "column": "Glucose",
             "partitions": [{"label": "L", "nodes": [[70, 1], [100, 0]], "left_tail": 1},
                            {"label": "H", "nodes": [[90, 0], [130, 1]], "right_tail": 1}]}]
    spec_file = tmp_path / "glucose.json"
    spec_file.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("run", "--out", str(out), "--data", str(csv_116), "--spec", str(spec_file)) == 0
    assert (out / "fuzzy_GLU.csv").read_text(encoding="utf-8").startswith("object,(GLU)_L,(GLU)_H\n")


def test_spec_on_a_column_the_builtin_cohort_lacks_exits_2(tmp_path, capsys):
    # the built-in cohort holds only the five default marker columns
    spec = [{"name": "GLU", "column": "Glucose", "partitions": [{"label": "H", "nodes": [[90, 0], [130, 1]]}]}]
    spec_file = tmp_path / "glucose.json"
    spec_file.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("run", "--out", str(out), "--spec", str(spec_file)) == 2
    assert "'Glucose'" in capsys.readouterr().err
    assert _empty_or_absent(out)


def test_reduction_over_the_parameter_cap_exits_1(tmp_path, capsys):
    # 21 triangles that each cover every age: the optimal rows are non-zero on all 21
    partitions = [{"label": f"p{k}", "nodes": [[0, 0], [k + 40, 1], [200, 0]]} for k in range(21)]
    spec_file = tmp_path / "wide.json"
    spec_file.write_text(json.dumps([{"name": "AGE", "column": "Age", "partitions": partitions}]),
                         encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("run", "--out", str(out), "--spec", str(spec_file)) == 1
    assert "over 21 parameters (cap is 20)" in capsys.readouterr().err
    assert _empty_or_absent(out)
    assert run_cli("run", "--out", str(out), "--spec", str(spec_file), "--reduction", "off") == 0


def test_reduction_of_a_variable_wider_than_the_cap_runs_when_its_optimal_rows_are_narrow(tmp_path):
    # 24 triangles 1.5 spacings wide on each side: each age touches at most three of them
    peaks = [24 + 65 * k / 23 for k in range(24)]
    half = 1.5 * 65 / 23
    partitions = [{"label": f"p{k}", "nodes": [[p - half, 0], [p, 1], [p + half, 0]]} for k, p in enumerate(peaks)]
    spec_file = tmp_path / "wide.json"
    spec_file.write_text(json.dumps([{"name": "AGE", "column": "Age", "partitions": partitions}]),
                         encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("run", "--out", str(out), "--spec", str(spec_file)) == 0
    assert (out / "reduction.txt").read_text(encoding="utf-8").startswith("AGE: kept (AGE)_p")


@pytest.mark.parametrize("entry", [1, "AGE", [], None])
def test_spec_entry_that_is_not_an_object_exits_1(tmp_path, capsys, entry):
    spec = json.loads(specs_to_json(default_variable_specs()))
    spec_file = tmp_path / "bad.json"
    spec_file.write_text(json.dumps(spec[:2] + [entry]), encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("run", "--out", str(out), "--spec", str(spec_file)) == 1
    assert "entry 3 must be a JSON object" in capsys.readouterr().err
    assert _empty_or_absent(out)


def test_duplicate_spec_names_exit_1(tmp_path, capsys):
    spec = json.loads(specs_to_json(default_variable_specs()))
    bmi = next(entry for entry in spec if entry["name"] == "BMI")
    bmi["name"] = "AGE"
    spec_file = tmp_path / "dup.json"
    spec_file.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("run", "--out", str(out), "--spec", str(spec_file)) == 1
    assert "duplicates ['AGE']" in capsys.readouterr().err
    assert _empty_or_absent(out)


def test_curves_with_degenerate_display_range_exits_1(tmp_path):
    spec = json.loads(specs_to_json(default_variable_specs()))
    spec[0]["display_range"] = [50.0, 50.0]
    spec_file = tmp_path / "flat.json"
    spec_file.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "curves"
    assert run_cli("curves", "--out", str(out), "--spec", str(spec_file)) == 1
    assert _empty_or_absent(out)


@pytest.mark.parametrize("command", ["run", "curves"])
def test_display_range_of_overflowing_width_exits_1(tmp_path, capsys, command):
    spec = json.loads(specs_to_json(default_variable_specs()))
    spec[0]["display_range"] = [-1e308, 1e308]  # each end finite, hi - lo is not
    spec_file = tmp_path / "wide.json"
    spec_file.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli(command, "--out", str(out), "--spec", str(spec_file)) == 1
    assert "finite width" in capsys.readouterr().err
    assert _empty_or_absent(out)


@pytest.mark.parametrize("command", ["run", "curves"])
@pytest.mark.parametrize("name", ["x/../../escaped", "A/B", "A\\B"])
def test_spec_name_with_a_path_separator_exits_1(tmp_path, capsys, command, name):
    spec = json.loads(specs_to_json(default_variable_specs()))
    spec[0]["name"] = name
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "a" / "out"
    # with these present, fuzzy_x/../../escaped.csv would resolve to a/escaped.csv
    for sub in ("fuzzy_x", "curves_x"):
        (out / sub).mkdir(parents=True)
    assert run_cli(command, "--out", str(out), "--spec", str(spec_file)) == 1
    assert "path separator" in capsys.readouterr().err
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "a", "a/out", "a/out/curves_x", "a/out/fuzzy_x", "spec.json",
    ]


@pytest.mark.parametrize("command", ["run", "curves"])
@pytest.mark.parametrize("field", ["name", "label"])
def test_empty_spec_name_or_partition_label_exits_1(tmp_path, capsys, command, field):
    spec = json.loads(specs_to_json(default_variable_specs()))
    if field == "name":
        spec[0]["name"] = ""  # would write fuzzy_.csv, with labels like ()_C
    else:
        spec[0]["partitions"][0]["label"] = ""  # would write the header (AGE)_
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli(command, "--out", str(out), "--spec", str(spec_file)) == 1
    assert "a name or partition code may not be empty" in capsys.readouterr().err
    assert _empty_or_absent(out)


def test_duplicate_ids_exit_2(tmp_path, monkeypatch):
    data = tmp_path / "dup.csv"
    data.write_text(
        "pid,Age,BMI,Insulin,Leptin,Adiponectin,Classification\n"
        "P-1,44,24.74,58.46,18.16,16.10,2\n"
        "P-1,49,23.01,5.66,35.59,26.72,1\n",
        encoding="utf-8",
    )
    # the CLI has no schema flag; a run takes the module default schema
    monkeypatch.setattr(pipeline, "DEFAULT_SCHEMA", DatasetSchema(id_column="pid"))
    out = tmp_path / "out"
    assert run_cli("run", "--out", str(out), "--data", str(data)) == 2
    assert _empty_or_absent(out)


def test_threshold_flag_changes_predictions(tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--out", str(out), "--threshold", "150") == 0
    scores_text = (out / "scores.csv").read_text(encoding="utf-8")
    high_risk_rows = [l for l in scores_text.splitlines() if ",high-risk," in l]
    assert len(high_risk_rows) == 2  # only scores 220 and 170 clear a 150 threshold


def test_min_combiner_and_difference_mode_run(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "run", "--out", str(out), "--combiner", "min", "--mode", "difference",
        "--reduction", "off",
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["product_source_used"] == "computed"  # not study-faithful


def test_spec_flag_round_trip(tmp_path, capsys):
    spec_file = tmp_path / "vars.json"
    spec_file.write_text(specs_to_json(default_variable_specs()), encoding="utf-8")
    out = tmp_path / "out"
    # explicit spec file: no longer the study-faithful default config
    assert run_cli("run", "--out", str(out), "--spec", str(spec_file)) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["product_source_used"] == "computed"


def test_spec_with_a_byte_order_mark_runs_like_the_spec(tmp_path):
    text = specs_to_json(default_variable_specs())
    scores = []
    for name, data in [("plain.json", text.encode("utf-8")), ("bom.json", b"\xef\xbb\xbf" + text.encode("utf-8"))]:
        (tmp_path / name).write_bytes(data)
        out = tmp_path / name.replace(".json", "")
        assert run_cli("run", "--out", str(out), "--spec", str(tmp_path / name)) == 0
        lines = (out / "scores.csv").read_bytes().splitlines(keepends=True)
        assert lines[-1].startswith(b"# config=")
        scores.append(lines[:-1])  # the footer hashes the config, spec path included
    assert scores[0] == scores[1]


def test_curves_defaults(tmp_path):
    out = tmp_path / "curves"
    assert run_cli("curves", "--out", str(out)) == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == [
        "curves_ADP.csv", "curves_AGE.csv", "curves_BMI.csv", "curves_INS.csv", "curves_LPN.csv",
    ]
    degree_columns = 0
    for name in files:
        with open(out / name, encoding="utf-8") as fh:
            header = next(csv.reader(fh))
        assert header[0] == "x"
        degree_columns += len(header) - 1
    assert degree_columns == 17
    with open(out / "curves_AGE.csv", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    at82 = [r for r in rows[1:] if float(r[0]) == 82.0]
    assert len(at82) == 1
    assert float(at82[0][rows[0].index("O")]) == 1.0


def _two_variable_spec(path, age_codes, bmi_codes):
    """A spec of AGE and BMI, each partition flat at degree 1 over every measurement."""
    flat = {"nodes": [[0.0, 1.0], [1000.0, 1.0]], "left_tail": 1.0, "right_tail": 1.0}
    path.write_text(json.dumps([
        {"name": name, "column": column, "partitions": [{"label": code, **flat} for code in codes]}
        for name, column, codes in (("AGE", "Age", age_codes), ("BMI", "BMI", bmi_codes))
    ]), encoding="utf-8")
    return path


def test_colliding_product_labels_exit_1(tmp_path, capsys):
    # (AGE)_x × (BMI)_y×(BMI)_z and (AGE)_x×(BMI)_y × (BMI)_z are one label
    spec = _two_variable_spec(tmp_path / "collide.json", ["x", f"x{X}(BMI)_y"], [f"y{X}(BMI)_z", "z"])
    out = tmp_path / "out"
    assert run_cli("run", "--out", str(out), "--spec", str(spec), "--reduction", "off") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "parameter labels must be unique" in err
    assert _empty_or_absent(out)


def test_a_product_over_the_cell_cap_exits_1(tmp_path, capsys, monkeypatch):
    # 30 variables of two partitions on Age: 2^30 product columns over the 10 built-in rows
    monkeypatch.setattr(pipeline, "product_n", lambda *args: pytest.fail("product_n ran past the cell cap"))
    halves = [{"label": "lo", "nodes": [[0, 1], [200, 0]]}, {"label": "hi", "nodes": [[0, 0], [200, 1]]}]
    spec = tmp_path / "wide.json"
    spec.write_text(json.dumps([{"name": f"V{v:02d}", "column": "Age", "partitions": halves} for v in range(30)]),
                    encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("run", "--out", str(out), "--spec", str(spec), "--reduction", "off") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: product of the variables: 1073741824 columns over 10 rows is 10737418240 cells")
    assert "over the cap of 134217728; run with reduction per-variable" in err
    assert _empty_or_absent(out)


def test_curves_quote_codes_into_a_rectangular_csv(tmp_path):
    spec = _two_variable_spec(tmp_path / "quoted.json", ["lo,w", 'h"i', "#c"], ["m"])
    out = tmp_path / "curves"
    assert run_cli("curves", "--out", str(out), "--spec", str(spec), "--samples", "5") == 0
    with open(out / "curves_AGE.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "lo,w", 'h"i', "#c"]
    assert [len(row) for row in rows] == [4] * 6
    assert [float(cell) for cell in rows[1][1:]] == [1.0, 1.0, 1.0]


def test_curves_single_sample_exits_1(tmp_path):
    assert run_cli("curves", "--out", str(tmp_path / "c"), "--samples", "1") == 1


def test_curves_over_a_million_samples_exit_1(tmp_path, capsys):
    out = tmp_path / "c"
    assert run_cli("curves", "--out", str(out), "--samples", str(10**6 + 1)) == 1
    assert "samples per curve must be at most 1000000" in capsys.readouterr().err
    assert _empty_or_absent(out)


def test_round_is_capped_at_17_digits(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("run", "--out", str(out), "--mode", "difference", "--round", "17") == 0
    assert run_cli("run", "--out", str(tmp_path / "o18"), "--mode", "difference", "--round", "18") == 1
    assert "round digits must be at most 17, got 18" in capsys.readouterr().err
    assert _empty_or_absent(tmp_path / "o18")
    # a difference score printed to 17 decimals
    assert any(len(cell.rpartition(".")[2]) == 17 for cell in (out / "report.txt").read_text("utf-8").split())


def _cli_in_ascii_terminal(*argv):
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONIOENCODING": "ascii", "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-m", "fuzzysoft.cli", *argv], env=env, capture_output=True, timeout=120)


def test_stdout_that_cannot_encode_an_id_or_path_escapes_it(tmp_path):
    done = _cli_in_ascii_terminal("verify")
    recorded = (Path(__file__).parent / "data" / "verify.txt").read_text("utf-8")
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == recorded.encode("ascii", "backslashreplace")
    out = tmp_path / "\xf6"
    done = _cli_in_ascii_terminal("run", "--out", str(out))
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.decode("ascii").count("\\xf6") == 12 and len(list(out.iterdir())) == 12


def test_verify_exits_clean(capsys):
    assert run_cli("verify") == 0
    stdout = capsys.readouterr().out
    assert "[PASS] age-table" in stdout
    assert "[PASS] accuracy" in stdout
    assert "[SOFT-FAIL] comparison-consistency" in stdout


def test_undecodable_csv_exits_2(tmp_path, capsys):
    data = tmp_path / "latin1.csv"
    data.write_bytes(b"Age,BMI,Insulin,Leptin,Adiponectin,Classification\n48,23.5,2.7,8.8,9.7,1\xff\n")
    out = tmp_path / "out"
    assert run_cli("run", "--out", str(out), "--data", str(data)) == 2
    err = capsys.readouterr().err
    assert f"cannot read {data}" in err and "can't decode byte 0xff" in err
    assert _empty_or_absent(out)


def test_csv_cell_over_the_field_limit_exits_2(tmp_path, capsys):
    data = tmp_path / "huge.csv"
    data.write_text(
        "Age,BMI,Insulin,Leptin,Adiponectin,Classification\n"
        f"48,23.5,2.7,8.8,9.7,{'1' * 140_000}\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert run_cli("run", "--out", str(out), "--data", str(data)) == 2
    err = capsys.readouterr().err
    assert f"cannot read {data}" in err and "field larger than field limit" in err
    assert _empty_or_absent(out)


@pytest.mark.parametrize("command", ["run", "curves"])
def test_undecodable_spec_exits_1(tmp_path, capsys, command):
    spec_file = tmp_path / "latin1.json"
    spec_file.write_bytes(specs_to_json(default_variable_specs()).replace("Old", "\xd6ld").encode("latin-1"))
    out = tmp_path / "out"
    assert run_cli(command, "--out", str(out), "--spec", str(spec_file)) == 1
    err = capsys.readouterr().err
    assert f"cannot read variable spec config {spec_file}" in err and "can't decode byte 0xd6" in err
    assert _empty_or_absent(out)


@pytest.mark.parametrize("command", ["run", "curves"])
@pytest.mark.parametrize("field, value", [
    pytest.param("name", "A\u0000GE", id="nul-in-name"),
    pytest.param("name", "\ud800", id="lone-surrogate-name"),
    pytest.param("label", "\udfff", id="lone-surrogate-label"),
    pytest.param("node", 10**400, id="int-past-float-node"),
    pytest.param("display_range", 10**400, id="int-past-float-range"),
])
def test_spec_text_or_number_outside_what_outputs_can_hold_exits_1(tmp_path, capsys, command, field, value):
    spec = json.loads(specs_to_json(default_variable_specs()))
    if field == "name":
        spec[0]["name"] = value
    elif field == "label":
        spec[0]["partitions"][0]["label"] = value
    elif field == "node":
        spec[0]["partitions"][0]["nodes"][0][0] = value
    else:
        spec[0]["display_range"][1] = value
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec), encoding="utf-8")  # ASCII: "\ud800" stays a JSON escape
    out = tmp_path / "out"
    assert run_cli(command, "--out", str(out), "--spec", str(spec_file)) == 1
    assert "bad variable spec entry" in capsys.readouterr().err
    assert _empty_or_absent(out)
