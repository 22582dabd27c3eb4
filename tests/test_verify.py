import hashlib
from pathlib import Path

import numpy as np
import pytest

from fuzzysoft import FuzzySoftSet, fixtures, verify_fixtures
from fuzzysoft.cli import main
from fuzzysoft.fixtures import (
    COHORT_IDS,
    PUBLISHED_SCORE_ROWS,
    ErrataCell,
    errata_cells,
    errata_report,
    published_age_bmi_product,
    published_comparison_table,
    published_product_table,
    published_variable_table,
    published_variable_tables,
)
from fuzzysoft.softset import product, restrict


def test_fixture_shapes():
    tables = published_variable_tables()
    assert {v: s.shape for v, s in tables.items()} == {
        "AGE": (10, 4), "BMI": (10, 3), "INS": (10, 3), "LPN": (10, 4), "ADP": (10, 3),
    }
    assert published_age_bmi_product().shape == (10, 12)
    assert published_product_table().shape == (10, 72)
    assert published_comparison_table().counts.shape == (10, 10)
    assert len(PUBLISHED_SCORE_ROWS) == 10


def test_each_printed_table_is_built_alone(monkeypatch, computed_sets):
    tables = published_variable_tables()
    for var, table in tables.items():
        one = published_variable_table(var)
        assert (one.universe, one.parameters, one.degrees.tobytes()) == (
            table.universe, table.parameters, table.degrees.tobytes()
        )
    assert published_variable_table("GLU") is None
    built = []
    monkeypatch.setattr(fixtures, "FuzzySoftSet", lambda *args: built.append(args[1]) or tables["AGE"])
    assert errata_cells("AGE", computed_sets["AGE"]) is not None
    assert errata_cells("GLU", computed_sets["AGE"]) is None
    assert built == [tables["AGE"].parameters]  # the named table only, and none for an unknown name


def test_errata_report_tolerance_is_strict_and_never_nan():
    computed = FuzzySoftSet(("a", "b"), ("p",), np.array([[0.75], [0.25]]))
    printed = FuzzySoftSet(("a", "b"), ("p",), np.array([[0.25], [0.25]]))
    assert errata_report(computed, printed, 0.25) == [ErrataCell("a", "p", 0.25, 0.75, 0.5)]
    assert errata_report(computed, printed, 0.5) == []  # a delta at the tolerance is within it
    assert errata_report(computed, printed, float("inf")) == []
    for bad in (-0.01, float("nan")):  # a NaN tolerance would hide every cell
        with pytest.raises(ValueError, match="tolerance must be non-negative"):
            errata_report(computed, printed, bad)


def test_errata_cells_skip_a_set_of_other_parameters_or_objects(computed_sets):
    age = computed_sets["AGE"]
    assert errata_cells("AGE", restrict(age, age.parameters[:2])) is None
    assert errata_cells("AGE", FuzzySoftSet(age.universe[::-1], age.parameters, age.degrees[::-1])) is None


def test_ins_check_needs_exactly_its_two_misprints():
    # the printed table against itself is within TOLERANCE everywhere, so only the
    # missing misprints fail the check
    check = fixtures._check_variable_table("INS", published_variable_table("INS"))
    assert check.summary == "30/30 cells within 0.01"
    assert not check.passed


def test_age_bmi_check_fails_on_a_divergence_no_input_erratum_explains(monkeypatch, computed_sets):
    assert fixtures._check_age_bmi_product(computed_sets).passed
    explained = {c.object_id for var in ("AGE", "BMI") for c in errata_cells(var, computed_sets[var])}
    row = next(i for i, oid in enumerate(COHORT_IDS) if oid not in explained)
    printed = published_age_bmi_product()
    degrees = printed.degrees.copy()
    degrees[row, 0] = 1.0 if degrees[row, 0] < 0.5 else 0.0
    monkeypatch.setattr(fixtures, "published_age_bmi_product",
                        lambda: FuzzySoftSet(printed.universe, printed.parameters, degrees))
    check = fixtures._check_age_bmi_product(computed_sets)
    assert not check.passed
    assert "all divergences traceable to input errata: False" in check.summary
    untraceable = [d for d in check.details if d.endswith(" [NOT traceable to an input erratum]")]
    assert len(untraceable) == 1
    assert untraceable[0].startswith(f"({COHORT_IDS[row]}, {printed.parameters[0]}): ")


def _two_decimal_sha256(s):
    text = "\n".join(" ".join(f"{v:.2f}" for v in row) for row in s.degrees.tolist())
    return hashlib.sha256(text.encode()).hexdigest()


def test_derived_product_tables_match_the_transcribed_ones():
    # sha256 of the two-decimal text of the study's printed product tables,
    # recorded from their transcription before it was replaced by derivation
    assert _two_decimal_sha256(published_age_bmi_product()) == (
        "e0b8f8d3f4df59d585b5db31afa1e9bdcc9db2749c13b1b75726ba750a80d144"
    )
    assert _two_decimal_sha256(published_product_table()) == (
        "723c907e0ca62b7b27cecd3d8a43d2d7290595b39586d115786d928b2ad2b5b2"
    )
    # the printed AGE x BMI product is max-combined: min differs in 64 of its 120 cells,
    # which is why the published product source refuses other combiners
    tables = published_variable_tables()
    by_min = product(tables["AGE"], tables["BMI"], "min")
    assert int((by_min.degrees != published_age_bmi_product().degrees).sum()) == 64


def test_published_comparison_diagonal():
    assert np.all(np.diag(published_comparison_table().counts) == 72)


def test_verify_report_names_and_hardness():
    report = verify_fixtures()
    by_name = {c.name: c for c in report.checks}
    assert set(by_name) == {
        "age-table", "bmi-table", "ins-table", "lpn-table", "adp-table",
        "age-bmi-product", "score-table", "comparison-consistency", "accuracy",
    }
    assert not by_name["comparison-consistency"].hard
    assert all(c.hard for name, c in by_name.items() if name != "comparison-consistency")


def test_all_hard_checks_pass():
    report = verify_fixtures()
    assert report.ok
    failing_hard = [c.name for c in report.checks if c.hard and not c.passed]
    assert failing_hard == []


def test_soft_consistency_check_reports_mismatches():
    report = verify_fixtures()
    soft = next(c for c in report.checks if c.name == "comparison-consistency")
    assert not soft.passed  # 64% agreement, below the 85% bar
    assert len(soft.details) == 32
    assert "64.4%" in soft.summary


def test_report_formatting():
    text = verify_fixtures().format()
    assert "[PASS] age-table" in text
    assert "[SOFT-FAIL] comparison-consistency" in text


@pytest.mark.parametrize("argv, recorded", [
    (["verify"], "verify.txt"),
    (["verify", "--verbose"], "verify_verbose.txt"),
])
def test_verify_output_matches_the_recording(capsys, argv, recorded):
    # The recordings pin verify's text: re-record them only for an intended change.
    assert main(argv) == 0
    expected = (Path(__file__).parent / "data" / recorded).read_bytes().decode("utf-8")
    assert capsys.readouterr().out == expected
