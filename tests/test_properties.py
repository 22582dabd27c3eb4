"""Property-based tests for the algebraic invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzysoft import (
    FuzzySoftSet,
    builtin_table1,
    comparison_table,
    default_variable_specs,
    find_reductions,
    fuzzify_cohort,
    make_piecewise,
    optimal_objects,
    product,
    product_n,
    restrict,
    scores,
)
from fuzzysoft.softset import COMBINERS
from reference import per_cell_product, soft_set

degrees_strategy = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def membership_functions(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    xs = sorted(draw(st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        min_size=n, max_size=n, unique=True,
    )))
    ys = draw(st.lists(degrees_strategy, min_size=n, max_size=n))
    tails = draw(st.tuples(degrees_strategy, degrees_strategy))
    return make_piecewise(list(zip(xs, ys)), *tails)


@st.composite
def soft_sets(draw, max_objects=6, max_parameters=6):
    n = draw(st.integers(min_value=1, max_value=max_objects))
    m = draw(st.integers(min_value=1, max_value=max_parameters))
    cells = draw(st.lists(degrees_strategy, min_size=n * m, max_size=n * m))
    return soft_set(np.array(cells).reshape(n, m))


@given(membership_functions(), st.floats(min_value=-150, max_value=150, allow_nan=False))
def test_membership_stays_in_unit_interval(mf, x):
    assert 0.0 <= mf.evaluate(x) <= 1.0


@given(membership_functions())
def test_membership_exact_at_every_node(mf):
    for x, y in mf.nodes:
        assert mf.evaluate(x) == y


@given(membership_functions(), st.integers(min_value=2, max_value=40))
def test_sample_agrees_with_evaluate(mf, n):
    # curves are sampled as evaluate_many over a linspace
    xs = np.linspace(-120, 120, n)
    for x, y in zip(xs.tolist(), mf.evaluate_many(xs).tolist()):
        assert mf.evaluate(x) == mf.evaluate_many([x])[0] == y


@st.composite
def soft_set_pairs(draw, max_objects=5, max_parameters=5):
    """Two sets over the same universe, for product laws."""
    n = draw(st.integers(min_value=1, max_value=max_objects))
    sets = []
    for tag in "ab":
        m = draw(st.integers(min_value=1, max_value=max_parameters))
        cells = draw(st.lists(degrees_strategy, min_size=n * m, max_size=n * m))
        sets.append(soft_set(np.array(cells).reshape(n, m), tag))
    return sets[0], sets[1]


@settings(max_examples=60)
@given(soft_set_pairs())
def test_product_min_below_max(pair):
    a, b = pair
    lo = product(a, b, "min")
    hi = product(a, b, "max")
    assert np.all(lo.degrees <= hi.degrees)
    assert lo.universe == hi.universe == a.universe
    assert lo.degrees.min() >= 0.0 and hi.degrees.max() <= 1.0


# Both zeros, the smallest subnormal, and 1.0 with its predecessor; cells drawn
# from this pool repeat, so operands share levels and products hold ties.
_PRODUCT_DEGREES = (0.0, -0.0, 5e-324, 0.25, 0.5, 1.0 - 2**-53, 1.0)


@st.composite
def product_operands(draw):
    """1-4 sets of 1-4 parameters each over one universe of 1-6 objects."""
    n = draw(st.integers(min_value=1, max_value=6))
    sets = []
    for k in range(draw(st.integers(min_value=1, max_value=4))):
        m = draw(st.integers(min_value=1, max_value=4))
        cells = draw(st.lists(st.sampled_from(_PRODUCT_DEGREES), min_size=n * m, max_size=n * m))
        sets.append(soft_set(np.array(cells).reshape(n, m), f"s{k}p"))
    return sets


@settings(derandomize=True, max_examples=150, deadline=None)
@given(product_operands(), st.sampled_from(sorted(COMBINERS)))
def test_product_n_equals_a_per_cell_reference(sets, combiner):
    prod = product_n(sets, combiner)
    reference, labels = per_cell_product(sets, combiner)
    assert prod.degrees.tobytes() == reference.tobytes()
    assert prod.parameters == labels
    # the levels are an order-preserving code of the degrees
    values, codes = prod.levels
    assert np.all(np.diff(values) > 0) and not np.signbit(values).any()
    assert codes.dtype == np.int16 and np.array_equal(values[codes], prod.degrees)
    c, d = codes.ravel().astype(int), prod.degrees.ravel()
    assert np.array_equal(np.sign(c[:, None] - c[None, :]), np.sign(d[:, None] - d[None, :]))
    # one set is checked like two: an unknown combiner is refused either way
    with pytest.raises(ValueError) as single:
        product_n(sets[:1], "avg")
    with pytest.raises(ValueError) as pair:
        product(sets[0], sets[0], "avg")
    assert str(single.value) == str(pair.value)


def test_product_n_of_five_sets_constructs_one_set(monkeypatch):
    sets = fuzzify_cohort(builtin_table1(), default_variable_specs())
    for s in sets:
        s.levels  # cached before the count starts
    built = []
    post_init = FuzzySoftSet.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(FuzzySoftSet, "__post_init__", counted)
    prod = product_n(sets, "max")
    assert len(sets) == 5 and len(built) == 1 and built[0] is prod


@settings(max_examples=60)
@given(soft_sets(), st.randoms(use_true_random=False))
def test_restrict_composition(s, rnd):
    params = list(s.parameters)
    first = rnd.sample(params, k=max(1, len(params) // 2 + 1))
    second = rnd.sample(first, k=max(1, len(first) - 1))
    composed = restrict(restrict(s, first), second)
    assert composed == restrict(s, second)


@settings(max_examples=80)
@given(soft_sets(max_objects=8, max_parameters=10))
def test_comparison_count_invariants(s):
    table = comparison_table(s, "count")
    m = len(s.parameters)
    assert np.all(np.diag(table.counts) == m)
    assert np.all(table.counts + table.counts.T >= m)
    # sharper: the excess over m is exactly the number of within-epsilon ties,
    # so equality holds iff no parameter ties the two objects
    d = s.degrees
    ties = (np.abs(d[:, None, :] - d[None, :, :]) <= 1e-9).sum(axis=2)
    assert np.all(table.counts + table.counts.T == m + ties)
    report = scores(table)
    assert int(report.scores.sum()) == 0


@settings(max_examples=60)
@given(soft_sets(max_objects=6, max_parameters=8))
def test_tie_column_leaves_scores_unchanged(s):
    table = comparison_table(s, "count")
    base = scores(table)
    widened = FuzzySoftSet(
        s.universe,
        s.parameters + ("tie",),
        np.hstack([s.degrees, np.full((len(s.universe), 1), 0.5)]),
    )
    wide_table = comparison_table(widened, "count")
    assert np.all(wide_table.counts == table.counts + 1)
    assert np.array_equal(scores(wide_table).scores, base.scores)


@settings(max_examples=60)
@given(soft_sets(max_objects=6, max_parameters=8), st.data())
def test_score_monotone_in_own_degrees(s, data):
    i = data.draw(st.integers(min_value=0, max_value=len(s.universe) - 1))
    j = data.draw(st.integers(min_value=0, max_value=len(s.parameters) - 1))
    bump = data.draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    before = scores(comparison_table(s, "count")).scores[i]
    degrees = s.degrees.copy()
    degrees[i, j] = min(1.0, degrees[i, j] + bump)
    bumped = FuzzySoftSet(s.universe, s.parameters, degrees)
    after = scores(comparison_table(bumped, "count")).scores[i]
    assert after >= before


@settings(max_examples=60)
@given(soft_sets(max_objects=6, max_parameters=8), st.randoms(use_true_random=False))
def test_scores_permutation_equivariant(s, rnd):
    perm = list(range(len(s.universe)))
    rnd.shuffle(perm)
    permuted = FuzzySoftSet(
        tuple(s.universe[i] for i in perm), s.parameters, s.degrees[perm, :]
    )
    base = scores(comparison_table(s, "count"))
    moved = scores(comparison_table(permuted, "count"))
    for oid in s.universe:
        assert moved.score(oid) == base.score(oid)


@settings(max_examples=40, deadline=None)
@given(soft_sets(max_objects=5, max_parameters=6))
def test_reductions_preserve_optimum_and_are_minimal(s):
    target = optimal_objects(s)
    results = find_reductions(s)
    assert results, "the full parameter set always qualifies"
    for result in results:
        assert optimal_objects(restrict(s, result.reduct)) == target
        for drop in result.reduct:
            rest = tuple(p for p in result.reduct if p != drop)
            if rest:
                assert optimal_objects(restrict(s, rest)) != target
