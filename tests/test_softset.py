import csv
import io

import numpy as np
import pytest

from fuzzysoft import softset
from fuzzysoft import (
    DataError,
    FuzzySoftSet,
    from_table,
    positional_labels,
    product,
    product_n,
    restrict,
    to_table,
)
from fuzzysoft.softset import format_rows

MU = "μ_"
X = "×"


@pytest.fixture
def small_pair():
    a = FuzzySoftSet(("h1", "h2"), ("p", "q"), np.array([[0.2, 0.8], [1.0, 0.0]]))
    b = FuzzySoftSet(("h1", "h2"), ("r",), np.array([[0.5], [0.3]]))
    return a, b


def test_product_max_reproduces_published_cell(published_sets):
    prod = product(published_sets["AGE"], published_sets["BMI"], "max")
    # old age (1.0) combined with obesity class II (0.5)
    assert prod.degree(f"{MU}3", f"(AGE)_O{X}(BMI)_OII") == 1.0


def test_product_min_is_classical_and(published_sets):
    prod = product(published_sets["AGE"], published_sets["BMI"], "min")
    assert prod.degree(f"{MU}3", f"(AGE)_O{X}(BMI)_OII") == 0.5


def test_product_max_with_zero_left_operand(published_sets):
    prod = product(published_sets["AGE"], published_sets["BMI"], "max")
    assert prod.degree(f"{MU}3", f"(AGE)_C{X}(BMI)_OII") == 0.5


def test_product_of_zero_cells_is_zero():
    a = FuzzySoftSet(("o",), ("p",), np.array([[0.0]]))
    b = FuzzySoftSet(("o",), ("q",), np.array([[0.0]]))
    assert product(a, b, "max").degrees[0, 0] == 0.0
    assert product(a, b, "min").degrees[0, 0] == 0.0


def test_product_parameter_order_is_row_major(small_pair):
    a, b = small_pair
    prod = product(a, b, "max")
    assert prod.parameters == (f"p{X}r", f"q{X}r")
    wide = product(b, a, "max")
    assert wide.parameters == (f"r{X}p", f"r{X}q")


def test_product_rejects_universe_mismatch(small_pair):
    a, _ = small_pair
    c = FuzzySoftSet(("h2", "h1"), ("r",), np.array([[0.5], [0.3]]))
    with pytest.raises(ValueError, match="universe"):
        product(a, c, "max")


def test_product_rejects_unknown_combiner(small_pair):
    a, b = small_pair
    with pytest.raises(ValueError, match="combiner"):
        product(a, b, "avg")


def test_product_n_single_set_is_identity(computed_sets):
    s = computed_sets["AGE"]
    assert product_n([s], "max") == s


def test_product_n_rejects_empty_list():
    with pytest.raises(ValueError):
        product_n([], "max")


def test_product_n_column_count_for_reduced_label_sets(computed_sets):
    # the study's own reduced label sets have sizes 2, 3, 3, 2, 3, so the
    # n-ary product must carry 2*3*3*2*3 = 108 parameters
    reduced = [
        restrict(computed_sets["AGE"], {"(AGE)_M", "(AGE)_O"}),
        computed_sets["BMI"],
        computed_sets["INS"],
        restrict(computed_sets["LPN"], {"(LPN)_L", "(LPN)_M"}),
        computed_sets["ADP"],
    ]
    prod = product_n(reduced, "max")
    assert len(prod.parameters) == 108
    assert prod.universe == computed_sets["AGE"].universe


def test_min_product_never_exceeds_max_product(computed_sets):
    lo = product_n([computed_sets["AGE"], computed_sets["LPN"]], "min")
    hi = product_n([computed_sets["AGE"], computed_sets["LPN"]], "max")
    assert np.all(lo.degrees <= hi.degrees)


def test_restrict_age_to_two_labels(published_sets):
    reduced = restrict(published_sets["AGE"], {"(AGE)_M", "(AGE)_O"})
    assert reduced.shape == (10, 2)
    assert reduced.parameters == ("(AGE)_M", "(AGE)_O")


def test_restrict_with_all_labels_is_identity(computed_sets):
    s = computed_sets["BMI"]
    assert restrict(s, s.parameters) == s


def test_restrict_rejects_unknown_and_empty(computed_sets):
    with pytest.raises(ValueError):
        restrict(computed_sets["BMI"], {"nope"})
    with pytest.raises(ValueError):
        restrict(computed_sets["BMI"], set())


def test_restrict_composition_equals_intersection(computed_sets):
    s = computed_sets["LPN"]
    one = restrict(restrict(s, {"(LPN)_L", "(LPN)_M", "(LPN)_H"}), {"(LPN)_M", "(LPN)_H"})
    two = restrict(s, {"(LPN)_M", "(LPN)_H"})
    assert one == two


def test_table_round_trip_is_exact(computed_sets):
    s = computed_sets["INS"]
    assert from_table(to_table(s)) == s


def test_published_table_text_parses(published_sets):
    text = to_table(published_sets["AGE"])
    s = from_table(text)
    assert s.shape == (10, 4)
    assert s == published_sets["AGE"]


def test_from_table_skips_comment_lines(computed_sets):
    s = computed_sets["ADP"]
    text = to_table(s) + "# config=abc version=0.0.0\n"
    assert from_table(text) == s


def test_round_trip_with_multi_line_ids():
    s = FuzzySoftSet(("a\nb", "c"), ("p",), [[0.5], [0.25]])
    text = to_table(s) + "\n# config=abc version=0.0.0\n"
    assert text.startswith('object,p\n"a\nb",0.5\n')
    assert from_table(text) == s


def test_from_table_reports_the_line_a_multi_line_row_ends_on():
    with pytest.raises(DataError, match="line 5: non-numeric"):
        from_table('object,p\n"a\nb",0.5\n"c\nd",high\n')


def test_from_table_reports_ragged_line_number():
    text = "object,a,b\no1,0.5,0.5\no2,0.25\n"
    with pytest.raises(DataError, match="line 3"):
        from_table(text)


def test_from_table_rejects_duplicate_headers():
    with pytest.raises(DataError, match="duplicate"):
        from_table("object,a,a\no1,0.5,0.5\n")


def test_from_table_rejects_non_numeric_cell():
    with pytest.raises(DataError, match="line 2"):
        from_table("object,a\no1,high\n")


def test_from_table_rejects_out_of_range_degree():
    with pytest.raises(DataError):
        from_table("object,a\no1,1.5\n")


def test_export_precision_is_six_decimals(computed_sets):
    text = to_table(computed_sets["AGE"], decimals=6)
    row = text.splitlines()[2]  # mu_11
    assert row.split(",")[3] == "0.733333"


def test_validation_rejects_bad_matrices():
    with pytest.raises(ValueError):
        FuzzySoftSet(("a", "b"), ("p",), np.array([[0.5]]))
    with pytest.raises(ValueError):
        FuzzySoftSet(("a",), ("p",), np.array([[1.5]]))
    with pytest.raises(ValueError):
        FuzzySoftSet(("a", "a"), ("p",), np.array([[0.5], [0.5]]))
    with pytest.raises(ValueError):
        FuzzySoftSet(("a",), ("p", "p"), np.array([[0.5, 0.5]]))


def test_degree_matrix_is_read_only(computed_sets):
    with pytest.raises(ValueError):
        computed_sets["AGE"].degrees[0, 0] = 0.5


def test_positional_labels_alias(published_sets):
    aliases = positional_labels(published_sets["BMI"])
    assert aliases["(BMI)_OI"] == "€1"
    assert aliases["(BMI)_OIII"] == "€3"


def test_product_permutation_equivariance(computed_sets):
    a = computed_sets["AGE"]
    b = computed_sets["BMI"]
    rng = np.random.default_rng(7)
    perm = rng.permutation(len(b.parameters))
    b_perm = FuzzySoftSet(b.universe, tuple(b.parameters[j] for j in perm), b.degrees[:, perm])
    prod = product(a, b, "max")
    prod_perm = product(a, b_perm, "max")
    for pa in a.parameters:
        for pb in b.parameters:
            label = f"{pa}{X}{pb}"
            for oid in a.universe:
                assert prod_perm.degree(oid, label) == prod.degree(oid, label)


# Values whose text per-cell formatting must keep: signed zero, tiny and exact ones.
_EDGE_VALUES = [-0.0, 0.0, 1e-7, 0.5, 1.0, 1 / 3, 0.1 + 0.2, 5e-324, 0.9999995]


def _per_cell_table(s, decimals=None):
    """``to_table`` as it was before value deduplication: one format call per cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("object",) + s.parameters)
    for i, oid in enumerate(s.universe):
        if decimals is None:
            row = [repr(v) for v in s.degrees[i].tolist()]
        else:
            row = [f"{v:.{decimals}f}" for v in s.degrees[i].tolist()]
        writer.writerow([oid] + row)
    return buf.getvalue()


def _edge_set(n=13, m=11, ids=None):
    rng = np.random.default_rng(n * m)
    degrees = rng.choice(np.array(_EDGE_VALUES + list(rng.random(6))), size=(n, m))
    universe = ids or tuple(f"o{i}" for i in range(n))
    return FuzzySoftSet(universe, tuple(f"e{j}" for j in range(m)), degrees)


_QUOTED_IDS = ("plain", "with,comma", 'with"quote', " spaced ", "", "semi;colon", "tab\tid")


@pytest.mark.parametrize("block_cells", [1, 7, 1 << 14])
@pytest.mark.parametrize("decimals", [None, 6, 2])
def test_to_table_equals_per_cell_formatting(monkeypatch, block_cells, decimals):
    monkeypatch.setattr(softset, "_FORMAT_BLOCK_CELLS", block_cells)
    for s in (_edge_set(), _edge_set(len(_QUOTED_IDS), 1, _QUOTED_IDS), _edge_set(3, 0)):
        assert to_table(s, decimals) == _per_cell_table(s, decimals)


def test_to_table_keeps_signed_zero_apart():
    s = FuzzySoftSet(("a", "b"), ("p", "q"), np.array([[-0.0, 0.0], [0.0, -0.0]]))
    assert to_table(s).splitlines()[1:] == ["a,-0.0,0.0", "b,0.0,-0.0"]
    assert to_table(s, 2).splitlines()[1:] == ["a,-0.00,0.00", "b,0.00,-0.00"]


def test_round_trip_with_quoted_ids_and_edge_values():
    s = _edge_set(len(_QUOTED_IDS), 9, _QUOTED_IDS)
    back = from_table(to_table(s))
    assert back == s
    assert np.array_equal(back.degrees.view(np.int64), s.degrees.view(np.int64))


@pytest.mark.parametrize("block_cells", [1, 10, 1 << 14])
def test_format_rows_equals_per_cell_formatting(monkeypatch, block_cells):
    monkeypatch.setattr(softset, "_FORMAT_BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(4)
    counts = rng.integers(-40, 40, size=(9, 12))
    floats = rng.choice(np.array(_EDGE_VALUES + [-1e-7, -0.5, 123.456789]), size=(9, 12))
    for grid, fmt in ((counts, str), (floats, "{:.6f}".format), (floats, repr)):
        assert list(format_rows(grid, fmt)) == [[fmt(v) for v in row.tolist()] for row in grid]
    assert list(format_rows(np.zeros((2, 0)), repr)) == [[], []]
