import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fuzzysoft import (
    PATIENT,
    Cohort,
    ConfigError,
    DataError,
    errata_report,
    fuzzify_cohort,
    load_csv,
    specs_from_json,
    specs_to_json,
)
from fuzzysoft.softset import FuzzySoftSet
from reference import fuzzify_value

MU = "μ_"


def test_five_specs_with_seventeen_labels(specs):
    assert len(specs) == 5
    assert [s.name for s in specs] == ["AGE", "BMI", "INS", "LPN", "ADP"]
    assert sum(len(s.labels) for s in specs) == 17
    assert [len(s.partitions) for s in specs] == [4, 3, 3, 4, 3]


def test_age_spec_has_four_partitions(specs_by_name):
    age = specs_by_name["AGE"]
    assert len(age.partitions) == 4
    assert age.codes == ["C", "Y", "M", "O"]
    assert age.labels == ["(AGE)_C", "(AGE)_Y", "(AGE)_M", "(AGE)_O"]


def test_insulin_partitions_carry_clinical_names(specs_by_name):
    ins = specs_by_name["INS"]
    assert [p.name for p in ins.partitions] == ["Hypoglycemia", "Normal", "Hyperinsulinemia"]


def test_fuzzify_adiponectin_sample(specs_by_name):
    degrees = fuzzify_value(specs_by_name["ADP"], 22.43)
    assert degrees["L"] == 0.0
    assert degrees["M"] == pytest.approx(0.07125, abs=1e-9)
    assert degrees["H"] == pytest.approx(0.486, abs=1e-9)


def test_fuzzify_age_82_is_pure_old(specs_by_name):
    assert fuzzify_value(specs_by_name["AGE"], 82) == {"C": 0.0, "Y": 0.0, "M": 0.0, "O": 1.0}


def test_fuzzify_bmi_sample_disagrees_with_printed_table(specs_by_name):
    # direct evaluation of the rising branch gives (23.12 - 20) / 6 = 0.52; the
    # printed reference table says 0.50, which the errata report surfaces.
    degrees = fuzzify_value(specs_by_name["BMI"], 23.12)
    assert degrees == pytest.approx({"OI": 0.0, "OII": 0.52, "OIII": 0.0}, abs=1e-9)


def test_cohort_age_set_matches_published_within_tolerance(computed_sets, published_sets):
    got = computed_sets["AGE"]
    ref = published_sets["AGE"]
    assert got.universe == ref.universe
    assert got.parameters == ref.parameters
    assert np.abs(got.degrees - ref.degrees).max() <= 0.01


def test_cohort_adiponectin_matches_published_within_tolerance(computed_sets, published_sets):
    delta = np.abs(computed_sets["ADP"].degrees - published_sets["ADP"].degrees)
    assert delta.max() <= 0.01


def test_cohort_set_shapes(computed_sets):
    assert [computed_sets[v].shape[1] for v in ("AGE", "BMI", "INS", "LPN", "ADP")] == [4, 3, 3, 4, 3]
    assert all(s.shape[0] == 10 for s in computed_sets.values())


def test_cohort_preserves_record_order(cohort, specs):
    sets = fuzzify_cohort(cohort, specs)
    for s in sets:
        assert s.universe == cohort.ids


def test_empty_cohort_gives_empty_universe(specs):
    sets = fuzzify_cohort(Cohort((), {spec.column: [] for spec in specs}, ()), specs)
    assert all(s.universe == () and s.shape == (0, len(spec.labels)) for spec, s in zip(specs, sets))


def test_missing_column_names_record_and_column(specs):
    cohort = Cohort(("r1",), {"Age": [30.0]}, (PATIENT,))
    with pytest.raises(DataError, match=r"r1.*BMI|BMI.*r1"):
        fuzzify_cohort(cohort, specs)


def test_out_of_support_measurement_warns_and_yields_zero_row(caplog):
    from fuzzysoft import Partition, VariableSpec, triangle

    spec = VariableSpec(name="T", column="X", partitions=(Partition("a", "a", triangle(0, 1, 2)),))
    ids = [f"edge{i}" for i in range(7)]
    values = [9.0 + i for i in range(7)]
    ids.insert(3, "inside")
    values.insert(3, 1.0)
    cohort = Cohort(tuple(ids), {"X": values}, (PATIENT,) * 8)
    with caplog.at_level(logging.WARNING):
        sets = fuzzify_cohort(cohort, [spec])
    assert sets[0].degrees.tolist() == [[0.0]] * 3 + [[1.0]] + [[0.0]] * 4
    # one line per variable, with the count and the first few IDs
    assert len(caplog.records) == 1
    message = caplog.records[0].message
    assert "outside every" in message and "7 record(s)" in message
    assert "edge0, edge1, edge2, edge3, edge4, ..." in message and "inside" not in message


def test_import_leaves_logging_unimported():
    # logging is imported only where the out-of-support warning is logged
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    check = "import sys, fuzzysoft, fuzzysoft.cli; print('logging' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


def test_fuzzify_cohort_is_bit_identical_to_scalar_evaluation(csv_116, specs):
    rng = np.random.default_rng(11)
    file = load_csv(csv_116)
    # every breakpoint, both sides of it, and values far outside the supports
    edges = sorted({x for s in specs for p in s.partitions for x, _ in p.mf.nodes} | {0.0, 1e6})
    values = [v for x in edges for v in (x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)) if v >= 0]
    values += rng.uniform(0, 120, 200).tolist()
    cohort = Cohort(
        file.ids + tuple(f"v{i}" for i in range(len(values))),
        {col: xs.tolist() + [float(v) for v in values] for col, xs in file.columns.items()},
        file.labels + (PATIENT,) * len(values),
    )
    for spec, s in zip(specs, fuzzify_cohort(cohort, specs)):
        scalar = np.array([[p.mf.evaluate(x) for p in spec.partitions]
                           for x in cohort.columns[spec.column].tolist()])
        assert s.degrees.tobytes() == scalar.tobytes(), spec.name  # sign of zero included


def test_default_variables_have_no_support_gaps(specs, cohort):
    # the published variables saturate at both ends, so no cohort measurement
    # can produce an all-zero row
    sets = fuzzify_cohort(cohort, specs)
    for s in sets:
        assert s.degrees.max(axis=1).min() > 0.0


def test_errata_report_identity_is_empty(computed_sets):
    assert errata_report(computed_sets["AGE"], computed_sets["AGE"], 0.0) == []


def test_errata_report_insulin_exact_cells(computed_sets, published_sets):
    cells = errata_report(computed_sets["INS"], published_sets["INS"], 0.01)
    found = {(c.object_id, c.parameter) for c in cells}
    assert found == {(f"{MU}45", "(INS)_H"), (f"{MU}60", "(INS)_L")}
    by_key = {(c.object_id, c.parameter): c for c in cells}
    h45 = by_key[(f"{MU}45", "(INS)_H")]
    assert h45.computed == pytest.approx(0.17, abs=1e-9)
    assert h45.printed == 0.14
    l60 = by_key[(f"{MU}60", "(INS)_L")]
    assert l60.computed == pytest.approx(0.304, abs=1e-9)
    assert l60.printed == 0.43


def test_errata_report_sorted_by_delta_descending(computed_sets, published_sets):
    cells = errata_report(computed_sets["LPN"], published_sets["LPN"], 0.01)
    deltas = [c.delta for c in cells]
    assert deltas == sorted(deltas, reverse=True)


def test_errata_report_rejects_shape_mismatch(computed_sets):
    a = computed_sets["AGE"]
    b = computed_sets["BMI"]
    with pytest.raises(ValueError):
        errata_report(a, b, 0.01)
    narrowed = FuzzySoftSet(a.universe[:5], a.parameters, a.degrees[:5])
    with pytest.raises(ValueError):
        errata_report(a, narrowed, 0.01)


def test_specs_json_round_trip(specs):
    text = specs_to_json(specs)
    loaded = specs_from_json(text)
    assert [s.name for s in loaded] == [s.name for s in specs]
    for orig, back in zip(specs, loaded):
        assert back.column == orig.column
        assert back.codes == orig.codes
        for p_orig, p_back in zip(orig.partitions, back.partitions):
            assert p_back.mf.nodes == p_orig.mf.nodes
            assert p_back.mf.left_tail == p_orig.mf.left_tail
            assert p_back.mf.right_tail == p_orig.mf.right_tail
            for x in np.linspace(0, 100, 23):
                assert p_back.mf.evaluate(x) == p_orig.mf.evaluate(x)


@pytest.mark.parametrize("text", [
    "not json", "[]", "{}", '[{"name": "A"}]',
    '[{"name": "A", "column": "Age", "display_range": [5, 5], "partitions": [{"label": "a", "nodes": [[0, 1]]}]}]',
])
def test_specs_from_json_rejects_bad_config(text):
    with pytest.raises(ConfigError):
        specs_from_json(text)


def one_record(age, label=PATIENT):
    return Cohort(("x",), {"Age": age}, (label,))


def test_fuzzify_value_rejects_non_finite(specs_by_name):
    with pytest.raises(ValueError, match="finite and non-negative"):
        fuzzify_value(specs_by_name["AGE"], math.inf)


def test_patient_record_validation():
    for age in ([-1.0], [math.nan], [math.inf]):
        with pytest.raises(ValueError, match="finite and non-negative"):
            one_record(age)
    with pytest.raises(ValueError):
        one_record([10.0], label="sick")


def test_cohort_validation():
    # one value per ID in every column, and one label per ID
    with pytest.raises(ValueError, match="one value per ID"):
        one_record([10.0, 20.0])
    with pytest.raises(ValueError, match="label"):
        Cohort(("x", "y"), {"Age": [1.0, 2.0]}, (PATIENT,))
    cohort = one_record([10.0])
    assert cohort.columns["Age"].tolist() == [10.0]
    with pytest.raises(ValueError):
        cohort.columns["Age"][0] = 1.0
    with pytest.raises(TypeError):
        cohort.columns["BMI"] = np.zeros(1)
