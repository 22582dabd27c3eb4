import numpy as np
import pytest

from fuzzysoft import (
    ConfigError,
    DataError,
    DatasetSchema,
    HEALTHY_CONTROL,
    PATIENT,
    Partition,
    VariableSpec,
    builtin_table1,
    load_csv,
    right_shoulder,
)
from reference import COLUMNS, reference_load

MU = "μ_"

TABLE1_POSITIONS = [3, 11, 19, 31, 45, 60, 71, 82, 91, 104]



def test_builtin_cohort_shape_and_labels():
    cohort = builtin_table1()
    assert len(cohort.ids) == 10
    assert list(cohort.ids) == [f"{MU}{n}" for n in TABLE1_POSITIONS]
    assert list(cohort.columns) == COLUMNS
    assert all(xs.shape == (10,) and xs.dtype == float for xs in cohort.columns.values())
    assert cohort.labels.count(HEALTHY_CONTROL) == 5
    assert cohort.labels.count(PATIENT) == 5


def test_builtin_cohort_spot_values():
    cohort = builtin_table1()
    row = {oid: i for i, oid in enumerate(cohort.ids)}
    assert cohort.columns["Insulin"][row[f"{MU}71"]] == 58.46
    assert cohort.columns["Adiponectin"][row[f"{MU}104"]] == 2.36
    assert {col: xs[row[f"{MU}3"]] for col, xs in cohort.columns.items()} == {
        "Age": 82.0,
        "BMI": 23.12,
        "Insulin": 4.50,
        "Leptin": 17.94,
        "Adiponectin": 22.43,
    }


def test_load_csv_reads_all_rows(csv_116):
    cohort = load_csv(csv_116)
    assert len(cohort.ids) == len(cohort.labels) == 116
    assert all(xs.shape == (116,) for xs in cohort.columns.values())
    assert cohort.ids[0] == f"{MU}1"
    assert cohort.ids[-1] == f"{MU}116"


def test_load_csv_row_3_matches_cohort(csv_116):
    cohort = load_csv(csv_116)
    assert cohort.ids[2] == f"{MU}3"
    assert cohort.columns["Age"][2] == 82.0
    assert cohort.columns["BMI"][2] == 23.12
    assert cohort.columns["Insulin"][2] == 4.50
    assert cohort.columns["Leptin"][2] == 17.94
    assert cohort.columns["Adiponectin"][2] == 22.43
    assert cohort.labels[2] == HEALTHY_CONTROL


def test_builtin_cohort_is_the_file_rows_at_table1_positions(csv_116):
    full, builtin = load_csv(csv_116), builtin_table1()
    rows = [n - 1 for n in TABLE1_POSITIONS]
    assert builtin.ids == tuple(full.ids[i] for i in rows)
    assert list(builtin.columns) == list(full.columns) == COLUMNS
    for col in COLUMNS:
        assert builtin.columns[col].tolist() == full.columns[col][rows].tolist(), col
    assert builtin.labels == tuple(full.labels[i] for i in rows)


def test_byte_order_mark_is_not_part_of_the_header(tmp_path, csv_116):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + csv_116.read_bytes())
    bom, plain = load_csv(path), load_csv(csv_116)
    assert bom.ids == plain.ids and bom.labels == plain.labels
    assert list(bom.columns) == list(plain.columns)
    for col in plain.columns:
        assert bom.columns[col].tobytes() == plain.columns[col].tobytes(), col


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


@pytest.mark.parametrize("cell", ["٣٣", "３３", "3٣", "1e٢"], ids=["arabic-indic", "fullwidth", "mixed", "exponent"])
def test_non_ascii_digits_are_rejected(tmp_path, cell):
    # float() reads each of these as a number: "٣٣" is 33.0
    float(cell)
    path = _write(tmp_path, HEADER + f"\n50,25.0,90,4.2,2.1,10,12,8,300,1\n{cell},25.0,90,4.2,2.1,10,12,8,300,1\n")
    with pytest.raises(DataError, match=r"row 2, column 'Age': cannot parse"):
        load_csv(path)


def test_negative_measurement_is_rejected(tmp_path):
    path = _write(tmp_path, HEADER + "\n50,25.0,90,-4.2,2.1,10,12,8,300,1\n")
    with pytest.raises(DataError, match="negative"):
        load_csv(path)


def test_ragged_row_is_rejected(tmp_path):
    path = _write(tmp_path, HEADER + "\n50,25.0,90,4.2\n")
    with pytest.raises(DataError, match="row 1"):
        load_csv(path)


def test_first_bad_cell_in_file_order_is_reported(tmp_path):
    path = _write(tmp_path, HEADER + "\n50,25.0,90,4.2,2.1,ten,12,8,300,1\nfifty,25.0,90,4.2,2.1,10,12,8,300,1\n")
    with pytest.raises(DataError, match=r"row 1, column 'Leptin'"):
        load_csv(path)
    # a bad label on an earlier row comes before bad cells in two columns
    path = _write(tmp_path, HEADER + "\n50,25.0,90,4.2,2.1,10,12,8,300,3\nfifty,25.0,90,-4,2.1,ten,12,8,300,1\n")
    with pytest.raises(DataError, match=r"row 1: unknown label value '3'"):
        load_csv(path)
    # within a row, the columns in order; a later column's bad cell on an earlier row first
    path = _write(tmp_path, HEADER + "\n50,25.0,90,4.2,2.1,10,nan,8,300,1\n,25.0,90,x,2.1,ten,12,8,300,3\n")
    with pytest.raises(DataError, match=r"row 1, column 'Adiponectin': value 'nan' is not finite"):
        load_csv(path)
    path = _write(tmp_path, HEADER + "\n50,25.0,90,4.2,2.1,10,12,8,300,1\n50,25.0,90,x,2.1,ten,12,8,300,3\n")
    with pytest.raises(DataError, match=r"row 2, column 'Insulin': cannot parse 'x'"):
        load_csv(path)


def test_header_only_file_gives_an_empty_cohort(tmp_path):
    cohort = load_csv(_write(tmp_path, HEADER + "\n"))
    assert cohort.ids == () and cohort.labels == ()
    assert list(cohort.columns) == COLUMNS
    assert all(xs.shape == (0,) and xs.dtype == float for xs in cohort.columns.values())


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
    cohort = load_csv(path, schema)
    assert cohort.ids == ("P-7", "P-9")
    assert cohort.labels == (PATIENT, HEALTHY_CONTROL)
    assert cohort.columns["Age"].tolist() == [44.0, 49.0]


def test_spec_columns_are_read_through_the_schema_at_load_time(tmp_path, csv_116):
    text = csv_116.read_text(encoding="utf-8").replace("Age,", "years,", 1)
    # only Age is mapped; the other names read the header of the same name
    cohort = load_csv(_write(tmp_path, text), DatasetSchema(column_map={"Age": "years"}))
    reference = load_csv(csv_116)
    assert list(cohort.columns) == list(reference.columns)
    assert all(cohort.columns[c].tolist() == reference.columns[c].tolist() for c in cohort.columns)
    glucose = VariableSpec("GLU", "Glucose", (Partition("H", "High", right_shoulder(90, 130)),))
    assert list(load_csv(csv_116, specs=[glucose]).columns) == ["Glucose"]
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


def test_read_columns_named_twice_are_rejected(tmp_path):
    # a second Age would otherwise be ignored: the run would fuzzify age 50, not 90
    path = _write(tmp_path, HEADER + ",Age\n50,25.0,90,4.2,2.1,10,12,8,300,1,90\n")
    with pytest.raises(DataError, match="'Age' 2 times"):
        load_csv(path)
    # names are compared after strip(), and the class and ID columns count too
    path = _write(tmp_path, HEADER + ", Classification\n50,25.0,90,4.2,2.1,10,12,8,300,1,2\n")
    with pytest.raises(DataError, match="'Classification' 2 times"):
        load_csv(path)
    path = _write(tmp_path, "pid," + HEADER + ",pid\nP-1,50,25.0,90,4.2,2.1,10,12,8,300,1,P-2\n")
    with pytest.raises(DataError, match="'pid' 2 times"):
        load_csv(path, DatasetSchema(id_column="pid"))


def test_ignored_columns_may_repeat(tmp_path):
    path = _write(tmp_path, HEADER + ",Glucose,Note,Note\n50,25.0,90,4.2,2.1,10,12,8,300,1,91,a,b\n")
    cohort = load_csv(path)
    assert cohort.columns["Age"].tolist() == [50.0] and cohort.labels == (HEALTHY_CONTROL,)


def test_label_encoding_onto_unknown_classes_is_a_config_error():
    with pytest.raises(ConfigError, match=r"got \['case', 'control'\]"):
        DatasetSchema(label_encoding={"1": "control", "2": "case"})
    assert DatasetSchema(label_encoding={"0": HEALTHY_CONTROL, "1": PATIENT}).label_encoding["1"] == PATIENT


@pytest.mark.parametrize("kwargs, message", [
    ({"column_map": None}, "column map must map strings to strings"),
    ({"column_map": {"Age": 3}}, "column map must map strings to strings"),
    ({"label_encoding": None}, "label encoding must map strings to strings"),
    ({"label_encoding": {1: PATIENT}}, "label encoding must map strings to strings"),
    ({"id_column": 0}, "id column must be a string or None"),
], ids=repr)
def test_schema_fields_of_the_wrong_type_are_config_errors(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        DatasetSchema(**kwargs)


# Cells that a column-at-a-time read must take exactly as a cell-by-cell read does:
# str.strip removes "\x1c" and "\u00a0" but float() refuses the first, and the second
# is not ASCII until stripped.
VALID_TOKENS = ["\x1c5", "5\x1f", "\u00a05", "\t 5 \t", " 5", "+5", ".5", "5.", "1e3", "-0"]
TOKENS = VALID_TOKENS + ["infinity", "nan", "0x10", "1_0", "٣", "", "   "]


def _outcome(read, path):
    try:
        return read(path)
    except DataError as exc:
        return str(exc)


def _assert_reads_alike(path):
    """``load_csv`` reads ``path`` as ``reference_load`` does; returns the reference's outcome."""
    got, want = _outcome(load_csv, path), _outcome(reference_load, path)
    if isinstance(want, str):
        assert got == want
    else:
        columns, labels = want
        assert got.labels == labels
        # bit for bit, the sign of -0.0 included
        assert {c: xs.tobytes() for c, xs in got.columns.items()} == {c: xs.tobytes() for c, xs in columns.items()}
    return want


def _rows_csv(rows):
    return HEADER + "\n" + "".join(",".join(row) + "\n" for row in rows)


GOOD_ROW = ["50", "25.0", "90", "4.2", "2.1", "10", "12", "8", "300", "1"]


@pytest.mark.parametrize("token", TOKENS, ids=repr)
@pytest.mark.parametrize("column", [0, 3, 6], ids=["Age", "Insulin", "Adiponectin"])
def test_each_token_alone_reads_as_a_cell_by_cell_read(tmp_path, token, column):
    bad = list(GOOD_ROW)
    bad[column] = token
    _assert_reads_alike(_write(tmp_path, _rows_csv([GOOD_ROW, bad, GOOD_ROW])))


@pytest.mark.parametrize("seed", range(12))
def test_tokens_mixed_in_one_file_read_as_a_cell_by_cell_read(tmp_path, seed):
    rng = np.random.default_rng(seed)
    rows = []
    for r in range(len(TOKENS)):
        row = list(GOOD_ROW)
        for k, col in enumerate((0, 1, 3, 5, 6)):
            if seed == 0:  # every valid token in every column read
                row[col] = VALID_TOKENS[(r + k) % len(VALID_TOKENS)]
            elif rng.random() < 0.4:  # mixtures in which the first bad cell moves about
                row[col] = TOKENS[rng.integers(len(TOKENS))]
        rows.append(row)
    outcome = _assert_reads_alike(_write(tmp_path, _rows_csv(rows)))
    assert seed != 0 or not isinstance(outcome, str)
    # a row of extra cells or a bad label after the mixture's rows
    _assert_reads_alike(_write(tmp_path, _rows_csv(rows + [GOOD_ROW + ["7"]]), "long.csv"))
    _assert_reads_alike(_write(tmp_path, _rows_csv(rows + [GOOD_ROW[:-1] + ["0"]]), "label.csv"))
