import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzysoft import (
    DataError,
    FuzzySoftSet,
    from_table,
    product,
    product_n,
    restrict,
    to_table,
)
from fuzzysoft.scoring import ComparisonTable
from fuzzysoft.text import FixedPoint, csv_field, grid_chunks, table_chunks

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
    # the study's stated reduced label sets have sizes 2, 3, 3, 2, 3, so the
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


@pytest.mark.parametrize("ids", [("#a", "b"), ("a\n#b", "c"), ("#", "# x", 'say "#1"')])
def test_round_trip_with_ids_that_start_like_comments(ids):
    s = FuzzySoftSet(ids, ("#p", "q"), [[0.5, 0.0], [0.25, 1.0], [0.125, 0.75]][: len(ids)])
    text = to_table(s)
    assert text.splitlines()[1].startswith('"')  # the first ID is quoted
    assert from_table(text + "# config=abc version=0.0.0\n") == s


def test_from_table_skips_only_rows_of_whitespace():
    s = from_table('object\n""\n  \n\n" "\nb\n')
    assert s.universe == ("", " ", "b")
    assert s.shape == (3, 0)


def test_from_table_skips_comment_lines_anywhere():
    text = '# head\nobject,p\n  # indented, "quoted" comment\n"#a",0.5\n\n#b,0.25\nc,1.0\n# tail\n'
    s = from_table(text)
    assert s.universe == ("#a", "c")
    assert s.degrees.ravel().tolist() == [0.5, 1.0]


def test_csv_field_quotes_like_the_csv_module():
    for text in ("plain", "with,comma", 'with"quote', "a\nb", " spaced ", "", "semi;colon", "tab\tid", "μ_1", "x#"):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow((text, "0"))
        assert csv_field(text) + ",0\n" == buf.getvalue()
    # beyond the csv module: a carriage return, and a leading # (comment lines)
    assert csv_field("a\rb") == '"a\rb"'
    assert csv_field("#a") == '"#a"'
    assert csv_field('#"') == '"#"""'
    for text in ("a\rb", "#a", '#"', "a\r\n#b"):
        assert next(csv.reader(io.StringIO(csv_field(text) + ",0\n", newline=""))) == [text, "0"]


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


@pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf, -5e-324, np.nextafter(1.0, 2.0)], ids=repr)
def test_degrees_outside_the_unit_interval_are_rejected(cell):
    for degrees in ([[cell]], [[0.5, cell], [1.0, 0.0]], [[cell, 0.5], [0.5, 0.5]]):
        with pytest.raises(ValueError, match=r"^degrees must lie in \[0, 1\]$"):
            FuzzySoftSet(tuple("ab"[: len(degrees)]), tuple("pq"[: len(degrees[0])]), np.array(degrees))


def test_signed_zero_and_one_are_degrees():
    s = FuzzySoftSet(("a", "b"), ("p", "q"), np.array([[-0.0, 1.0], [1.0, -0.0]]))
    assert s.degrees.tobytes() == np.array([[-0.0, 1.0], [1.0, -0.0]]).tobytes()


def test_degree_matrix_is_read_only(computed_sets):
    with pytest.raises(ValueError):
        computed_sets["AGE"].degrees[0, 0] = 0.5


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
    monkeypatch.setattr("fuzzysoft.text._FORMAT_BLOCK_CELLS", block_cells)
    for s in (
        _edge_set(), _edge_set(len(_QUOTED_IDS), 1, _QUOTED_IDS), _edge_set(3, 0),
        _edge_set(len(_QUOTED_IDS), 0, _QUOTED_IDS),
    ):
        assert to_table(s, decimals) == _per_cell_table(s, decimals)


def test_to_table_keeps_signed_zero_apart():
    s = FuzzySoftSet(("a", "b"), ("p", "q"), np.array([[-0.0, 0.0], [0.0, -0.0]]))
    assert to_table(s).splitlines()[1:] == ["a,-0.0,0.0", "b,0.0,-0.0"]
    assert to_table(s, 2).splitlines()[1:] == ["a,-0.00,0.00", "b,0.00,-0.00"]


@pytest.mark.parametrize("block_cells", [1, 1 << 12])  # one row per block: -0.0 first in a later block
@pytest.mark.parametrize("combiner", ["max", "min"])
@pytest.mark.parametrize("decimals", [None, 6])
def test_product_tying_signed_zeros_renders_its_float_degrees(monkeypatch, block_cells, combiner, decimals):
    monkeypatch.setattr("fuzzysoft.text._FORMAT_BLOCK_CELLS", block_cells)
    # np.maximum and np.minimum return the second operand on a -0.0/0.0 tie,
    # and the product's codes hold both zeros as one level
    a = FuzzySoftSet(("w", "x", "y", "z"), ("p", "q"), np.array([[0.5, 1.0], [-0.0, 0.0], [0.0, -0.0], [0.5, -0.0]]))
    b = FuzzySoftSet(("w", "x", "y", "z"), ("r", "s"), np.array([[0.5, 0.75], [0.0, -0.0], [-0.0, 0.0], [-0.0, 1.0]]))
    prod = product(a, b, combiner)
    zeros = prod.degrees == 0.0
    assert np.signbit(prod.degrees[zeros]).any() and not np.signbit(prod.degrees[zeros]).all()
    assert len(set(prod.levels.codes[zeros].tolist())) == 1
    assert to_table(prod, decimals) == _per_cell_table(prod, decimals)


def test_levels_are_the_sorted_distinct_degrees():
    s = FuzzySoftSet(("a", "b"), ("p", "q", "r"), np.array([[0.5, -0.0, 1.0], [0.0, 0.5, 5e-324]]))
    values, codes = s.levels
    assert values.tolist() == [0.0, 5e-324, 0.5, 1.0] and not np.signbit(values).any()
    assert codes.tolist() == [[2, 0, 3], [0, 2, 1]] and codes.dtype == np.int16
    assert s.levels is s.levels
    with pytest.raises(ValueError):
        codes[0, 0] = 1


def test_sets_equal_up_to_signed_zeros_hash_alike():
    a = FuzzySoftSet(("x", "y"), ("p",), np.array([[0.0], [0.5]]))
    b = FuzzySoftSet(("x", "y"), ("p",), np.array([[-0.0], [0.5]]))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a.degrees.tobytes() != b.degrees.tobytes()


def test_rows_keep_ids_with_nul_and_non_ascii_text():
    ids = ("a\x00b", "\x00", "é,ü", "plain\x00")
    s = FuzzySoftSet(ids, ("p", "q"), np.array([[0.5, 1.0], [0.0, -0.0], [0.25, 0.5], [1.0, 0.0]]))
    rows = to_table(s).splitlines()[1:]
    assert rows == ["a\x00b,0.5,1.0", "\x00,0.0,-0.0", '"é,ü",0.25,0.5', "plain\x00,1.0,0.0"]
    counts = b"".join(grid_chunks(("object", "c"), ids, np.array([[3], [0], [12], [7]]), str)).decode()
    assert counts.splitlines()[1:] == ["a\x00b,3", "\x00,0", '"é,ü",12', "plain\x00,7"]


def test_round_trip_with_quoted_ids_and_edge_values():
    # with no parameters, the empty ID is a row of one empty cell
    for m in (9, 0):
        s = _edge_set(len(_QUOTED_IDS), m, _QUOTED_IDS)
        back = from_table(to_table(s))
        assert back == s
        assert np.array_equal(back.degrees.view(np.int64), s.degrees.view(np.int64))


def _grid_text(grid, fmt, per_cell_fmt=None, levels=None):
    """``grid_chunks`` of ``grid`` with ``fmt`` (and ``levels``), and the same
    CSV text with one ``per_cell_fmt`` call (default ``fmt``) per cell."""
    ids = [f"r{i}" for i in range(grid.shape[0])]
    header = ["object", *(f"c{j}" for j in range(grid.shape[1]))]
    rows = [header, *([oid, *map(per_cell_fmt or fmt, row.tolist())] for oid, row in zip(ids, grid))]
    got = b"".join(grid_chunks(header, ids, grid, fmt, levels)).decode()
    return got, "".join(",".join(row) + "\n" for row in rows)


@pytest.mark.parametrize("block_cells", [1, 6, 1 << 14])
def test_grid_chunks_are_the_per_cell_text_in_utf8(monkeypatch, block_cells):
    monkeypatch.setattr("fuzzysoft.text._FORMAT_BLOCK_CELLS", block_cells)
    ids = ("a\x00b", "é,ü", f"{MU}1", "\x00", f"{MU}10")
    header = ("object", "p", "é", MU)
    # repr gives level texts of unequal width: 0.5 against 0.30000000000000004
    grid = np.array(
        [[0.5, -0.0, 0.1 + 0.2], [1.0, 0.0, 5e-324], [-0.0, 1 / 3, 0.5], [0.25, 1.0, -0.0], [0.0, 0.0, 1.0]]
    )
    rows = [header, *([oid, *map(repr, row)] for oid, row in zip(ids, grid.tolist()))]
    want = "".join(",".join(map(csv_field, row)) + "\n" for row in rows).encode("utf-8")
    s = FuzzySoftSet(ids, header[1:], grid)
    blocks = -(-len(ids) // max(1, block_cells // len(s.parameters)))
    # each block's own levels, and the soft set's levels
    for chunks in (list(grid_chunks(header, ids, grid, repr)), list(table_chunks(s))):
        assert len(chunks) == 1 + blocks
        assert all(type(chunk) is bytes and b"\xff" not in chunk for chunk in chunks)
        assert b"".join(chunks) == want


@pytest.mark.parametrize("n_ids", [2, 4])
def test_grid_chunks_refuses_ids_and_rows_that_differ_in_number(n_ids):
    ids = [f"r{i}" for i in range(n_ids)]
    with pytest.raises(ValueError, match=f"{n_ids} IDs for a grid of 3 rows"):
        list(grid_chunks(("object", "c"), ids, np.zeros((3, 1)), repr))


@pytest.mark.parametrize("block_cells", [1, 10, 1 << 14])
def test_format_rows_equals_per_cell_formatting(monkeypatch, block_cells):
    monkeypatch.setattr("fuzzysoft.text._FORMAT_BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(4)
    counts = rng.integers(-40, 40, size=(9, 12))
    floats = rng.choice(np.array(_EDGE_VALUES + [-1e-7, -0.5, 123.456789]), size=(9, 12))
    for grid, fmt in (
        (counts, str), (floats, "{:.6f}".format), (floats, FixedPoint(6)), (floats, repr), (np.zeros((2, 0)), repr)
    ):
        got, want = _grid_text(grid, fmt)
        assert got == want, fmt


def _counting(fmt):
    calls = []
    def counted(v):
        calls.append(v)
        return fmt(v)
    return counted, calls


@pytest.mark.parametrize("block_cells", [1, 5, 1 << 14])
@pytest.mark.parametrize(
    "grid",
    [
        np.random.default_rng(1).integers(0, 256, size=(40, 30)).astype(np.uint8),
        np.random.default_rng(2).integers(-300, 300, size=(25, 31)).astype(np.int16),
        np.random.default_rng(3).integers(-7, 5, size=(8, 9)),  # int64 with negatives
        np.array([[-128, 127], [0, -1]] * 70, dtype=np.int8),  # both extremes of the dtype
        np.array([[np.iinfo(np.int64).min, -1], [0, np.iinfo(np.int64).max]]),
        np.array([[7, 7], [7, 900]], dtype=np.uint16),
        np.array([[2**64 - 1, 2**63]], dtype=np.uint64),  # values above int64
        np.array([[-5]]),
        np.zeros((0, 4), dtype=np.int64),
        np.zeros((3, 0), dtype=np.int32),
    ],
    ids=lambda g: f"{g.dtype}-{g.shape}",
)
def test_format_rows_on_integer_grids_equals_per_cell_formatting(monkeypatch, block_cells, grid):
    monkeypatch.setattr("fuzzysoft.text._FORMAT_BLOCK_CELLS", block_cells)
    got, want = _grid_text(grid, str)
    assert got == want


@pytest.mark.parametrize("block_cells", [1, 5, 1 << 14])
def test_count_table_formats_each_count_once(monkeypatch, block_cells):
    monkeypatch.setattr("fuzzysoft.text._FORMAT_BLOCK_CELLS", block_cells)
    counts = np.random.default_rng(5).integers(0, 7, size=(12, 12))
    table = ComparisonTable(tuple(f"r{i}" for i in range(12)), counts, "count", parameter_count=9)
    fmt, calls = _counting(str)
    got, want = _grid_text(table.counts, fmt, str, table.levels)
    assert got == want
    # every count in [0, m] is formatted once, for the whole table
    assert calls == list(range(10))


def _fixed_point_texts(decimals, values, lead=b""):
    """``FixedPoint(decimals).texts`` without its padding, and the per-value texts of ``format``."""
    cells = FixedPoint(decimals).texts(np.array(values, dtype=float), lead)
    want = [lead + f"{{:.{decimals}f}}".format(v).encode() for v in values]
    return [c.replace(b"\xff", b"") for c in cells.tolist()], want


@pytest.mark.parametrize("decimals", range(18))
def test_fixed_point_texts_equal_per_value_formatting(decimals):
    scale = 10.0**decimals
    halves = (np.arange(-1999, 2000) + 0.5) / scale  # the ties, and the values one ulp either side
    limit = 2.0**50 / scale  # from here on, Python formats the value
    values = [
        0.0, -0.0, -1e-12, 5e-324, -5e-324, 0.0078125, 431.9999995, -431.9999995,
        *halves, *np.nextafter(halves, np.inf), *np.nextafter(halves, -np.inf),
        limit, -limit, np.nextafter(limit, 0), np.nextafter(limit, np.inf), 2 * limit, 1e300, -1e300,
        *np.random.default_rng(decimals).uniform(-1e3, 1e3, 500),
    ]
    for lead in (b"", b","):
        got, want = _fixed_point_texts(decimals, values, lead)
        assert got == want
    # a sign column only where some value has the sign bit
    cells = FixedPoint(decimals).texts(np.array([0.5, 12.25, 0.0]))
    assert cells.itemsize == max(len(f"{{:.{decimals}f}}".format(v)) for v in (0.5, 12.25, 0.0))


@pytest.mark.parametrize("decimals", [-1, 2.5, True])
def test_fixed_point_refuses_what_the_format_refuses(decimals):
    s = FuzzySoftSet(("a",), ("p",), np.array([[0.5]]))
    with pytest.raises(ValueError):
        to_table(s, decimals)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.integers(min_value=0, max_value=17),
    st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=0, max_size=40),
)
def test_fixed_point_texts_equal_per_value_formatting_on_any_values(decimals, values):
    got, want = _fixed_point_texts(decimals, values)
    assert got == want
