import pytest

from fuzzysoft import (
    DataError,
    DatasetSchema,
    HEALTHY_CONTROL,
    PATIENT,
    Partition,
    VariableSpec,
    builtin_table1,
    load_csv,
    right_shoulder,
    select_samples,
)

MU = "μ_"

TABLE1_POSITIONS = [3, 11, 19, 31, 45, 60, 71, 82, 91, 104]


def test_builtin_cohort_shape_and_labels():
    records = builtin_table1()
    assert len(records) == 10
    assert [r.id for r in records] == [f"{MU}{n}" for n in TABLE1_POSITIONS]
    assert sum(r.label == HEALTHY_CONTROL for r in records) == 5
    assert sum(r.label == PATIENT for r in records) == 5


def test_builtin_cohort_spot_values():
    by_id = {r.id: r for r in builtin_table1()}
    assert by_id[f"{MU}71"].measurements["Insulin"] == 58.46
    assert by_id[f"{MU}104"].measurements["Adiponectin"] == 2.36
    assert by_id[f"{MU}3"].measurements == {
        "Age": 82.0,
        "BMI": 23.12,
        "Insulin": 4.50,
        "Leptin": 17.94,
        "Adiponectin": 22.43,
    }


def test_load_csv_reads_all_rows(csv_116):
    records = load_csv(csv_116)
    assert len(records) == 116
    assert records[0].id == f"{MU}1"
    assert records[-1].id == f"{MU}116"


def test_load_csv_row_3_matches_cohort(csv_116):
    records = load_csv(csv_116)
    mu3 = records[2]
    assert mu3.id == f"{MU}3"
    assert mu3.measurements["Age"] == 82.0
    assert mu3.measurements["BMI"] == 23.12
    assert mu3.measurements["Insulin"] == 4.50
    assert mu3.measurements["Leptin"] == 17.94
    assert mu3.measurements["Adiponectin"] == 22.43
    assert mu3.label == HEALTHY_CONTROL


def test_select_samples_reproduces_builtin_cohort(csv_116):
    records = load_csv(csv_116)
    picked = select_samples(records, TABLE1_POSITIONS)
    for got, want in zip(picked, builtin_table1()):
        assert got.id == want.id
        assert got.measurements == want.measurements
        assert got.label == want.label


def test_select_samples_by_id_and_order(csv_116):
    records = load_csv(csv_116)
    picked = select_samples(records, [f"{MU}104", f"{MU}3"])
    assert [r.id for r in picked] == [f"{MU}104", f"{MU}3"]


def test_select_samples_empty_and_errors(csv_116):
    records = load_csv(csv_116)
    assert select_samples(records, []) == []
    with pytest.raises(DataError):
        select_samples(records, [999])
    with pytest.raises(DataError):
        select_samples(records, ["nope"])


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


HEADER = "Age,BMI,Glucose,Insulin,HOMA,Leptin,Adiponectin,Resistin,MCP.1,Classification"


def test_missing_header_column(tmp_path):
    path = _write(tmp_path, "Age,BMI,Glucose,HOMA,Leptin,Adiponectin,Resistin,MCP.1,Classification\n")
    with pytest.raises(DataError, match="Insulin"):
        load_csv(path)


def test_blank_cell_names_row_and_column(tmp_path):
    path = _write(tmp_path, HEADER + "\n50,25.0,90,,2.1,10,12,8,300,1\n")
    with pytest.raises(DataError, match=r"row 1.*Insulin"):
        load_csv(path)


def test_non_numeric_cell_names_row_and_column(tmp_path):
    path = _write(tmp_path, HEADER + "\n50,25.0,90,4.2,2.1,ten,12,8,300,1\n")
    with pytest.raises(DataError, match=r"row 1.*Leptin"):
        load_csv(path)


def test_unknown_label_value(tmp_path):
    path = _write(tmp_path, HEADER + "\n50,25.0,90,4.2,2.1,10,12,8,300,3\n")
    with pytest.raises(DataError, match="unknown label"):
        load_csv(path)


def test_underscored_number_is_rejected(tmp_path):
    # float() would accept 1_000; locale-independent parsing must not
    path = _write(tmp_path, HEADER + "\n50,25.0,90,4.2,2.1,1_0,12,8,300,1\n")
    with pytest.raises(DataError, match="Leptin"):
        load_csv(path)


def test_negative_measurement_is_rejected(tmp_path):
    path = _write(tmp_path, HEADER + "\n50,25.0,90,-4.2,2.1,10,12,8,300,1\n")
    with pytest.raises(DataError, match="negative"):
        load_csv(path)


def test_ragged_row_is_rejected(tmp_path):
    path = _write(tmp_path, HEADER + "\n50,25.0,90,4.2\n")
    with pytest.raises(DataError, match="row 1"):
        load_csv(path)


def test_nonexistent_file(tmp_path):
    with pytest.raises(DataError):
        load_csv(tmp_path / "missing.csv")


def test_schema_with_explicit_id_column(tmp_path):
    text = (
        "pid,years,bmi,ins,lpn,adp,cls\n"
        "P-7,44,24.74,58.46,18.16,16.10,case\n"
        "P-9,49,23.01,5.66,35.59,26.72,control\n"
    )
    path = _write(tmp_path, text)
    schema = DatasetSchema(
        column_map={
            "Age": "years",
            "BMI": "bmi",
            "Insulin": "ins",
            "Leptin": "lpn",
            "Adiponectin": "adp",
            "Classification": "cls",
        },
        label_encoding={"control": HEALTHY_CONTROL, "case": PATIENT},
        id_column="pid",
    )
    records = load_csv(path, schema)
    assert [r.id for r in records] == ["P-7", "P-9"]
    assert records[0].label == PATIENT
    assert records[0].measurements["Age"] == 44.0


def test_spec_columns_are_read_through_the_schema_at_load_time(tmp_path, csv_116):
    text = csv_116.read_text(encoding="utf-8").replace("Age,", "years,", 1)
    # only Age is mapped; the other names read the header of the same name
    records = load_csv(_write(tmp_path, text), DatasetSchema(column_map={"Age": "years"}))
    assert records[0].measurements == load_csv(csv_116)[0].measurements
    glucose = VariableSpec("GLU", "Glucose", (Partition("H", "High", right_shoulder(90, 130)),))
    assert list(load_csv(csv_116, specs=[glucose])[0].measurements) == ["Glucose"]
    no_glucose = _write(tmp_path, text.replace("Glucose,", "Other,", 1), "other.csv")
    with pytest.raises(DataError, match="Glucose"):
        load_csv(no_glucose, specs=[glucose])


def test_duplicate_ids_name_the_id(tmp_path):
    text = (
        "pid,Age,BMI,Insulin,Leptin,Adiponectin,Classification\n"
        "P-7,44,24.74,58.46,18.16,16.10,2\n"
        "P-9,49,23.01,5.66,35.59,26.72,1\n"
        "P-7,57,34.84,12.55,33.16,2.36,2\n"
    )
    path = _write(tmp_path, text)
    with pytest.raises(DataError, match="row 3.*'P-7'"):
        load_csv(path, DatasetSchema(id_column="pid"))
