import math

import numpy as np
import pytest

from fuzzysoft import make_piecewise, left_shoulder, right_shoulder, triangle
from fuzzysoft.membership import evaluate_columns


def test_old_age_saturates_above_last_node():
    old = right_shoulder(50, 65)
    assert old.evaluate(82) == 1.0
    assert old.evaluate(65) == 1.0
    assert old.evaluate(50) == 0.0
    assert old.evaluate(40) == 0.0


def test_mild_age_falling_branch():
    mild = triangle(30, 45, 60)
    assert mild.evaluate(49) == pytest.approx(11 / 15)  # 0.7333


def test_left_tail_below_support():
    high_leptin = triangle(40, 55, 70)
    assert high_leptin.evaluate(10) == 0.0


def test_normal_insulin_rising_branch():
    normal = triangle(3, 6.5, 10)
    assert normal.evaluate(5.66) == pytest.approx(0.76)


def test_valid_shoulder_from_raw_nodes():
    old = make_piecewise([(50, 0), (65, 1)], left_tail=0, right_tail=1)
    assert old.evaluate(80) == 1.0
    assert old.evaluate(57.5) == pytest.approx(0.5)


@pytest.mark.parametrize(
    "nodes,tails",
    [
        ([(5, 1), (5, 0)], (0, 0)),      # duplicate x
        ([(10, 0), (5, 1)], (0, 0)),     # decreasing x
        ([(0, 1.5)], (0, 0)),            # degree out of range
        ([(0, -0.1)], (0, 0)),           # degree below range
        ([], (0, 0)),                    # no nodes
        ([(0, 1)], (2, 0)),              # left tail out of range
        ([(0, 1)], (0, -1)),             # right tail out of range
    ],
)
def test_construction_rejects_bad_input(nodes, tails):
    with pytest.raises(ValueError):
        make_piecewise(nodes, *tails)


def test_evaluate_rejects_non_finite():
    mf = triangle(0, 1, 2)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            mf.evaluate(bad)


def test_node_values_are_exact():
    mf = make_piecewise([(1, 0.25), (2, 0.75), (4, 0.5)])
    for x, y in mf.nodes:
        assert mf.evaluate(x) == y


def test_sample_endpoints_are_node_values():
    # a curve sampled over a breakpoint span starts and ends at its breakpoint degrees
    old = right_shoulder(50, 65)
    assert old.evaluate_many(np.linspace(50, 65, 2)).tolist() == [0.0, 1.0]


def test_sample_matches_evaluate_exactly():
    # curve samples (evaluate_many over a linspace) equal evaluate point by point
    child = left_shoulder(5, 15)
    xs = np.linspace(0, 20, 5)
    for x, y in zip(xs.tolist(), child.evaluate_many(xs).tolist()):
        assert y == child.evaluate(x)


def test_degrees_always_within_unit_interval():
    mf = make_piecewise([(0, 0.2), (1, 1.0), (3, 0.0), (7, 0.8)], left_tail=0.5, right_tail=0.1)
    xs = np.linspace(-5, 12, 400)
    ys = mf.evaluate_many(xs)
    assert ys.min() >= 0.0 and ys.max() <= 1.0


def test_piecewise_continuity_between_nodes():
    # within the node span, small steps in x give small steps in degree
    mf = triangle(10, 25, 40)
    xs = np.linspace(10, 40, 10001)
    ys = mf.evaluate_many(xs)
    assert np.abs(np.diff(ys)).max() < 1e-2


def test_monotone_between_first_and_last_node():
    rising = make_piecewise([(0, 0.0), (2, 0.3), (5, 0.9), (6, 1.0)])
    xs = np.linspace(0, 6, 500)
    ys = rising.evaluate_many(xs)
    assert np.all(np.diff(ys) >= -1e-12)


def test_functions_are_immutable():
    mf = triangle(0, 1, 2)
    with pytest.raises(Exception):
        mf.left_tail = 0.5  # type: ignore[misc]


def test_single_node_function():
    mf = make_piecewise([(5, 0.7)], left_tail=0.0, right_tail=1.0)
    assert mf.evaluate(5) == 0.7
    assert mf.evaluate(4.9) == 0.0
    assert mf.evaluate(5.1) == 1.0
    assert math.isclose(mf.evaluate(5.0), 0.7)


def _interp_clip(mf, xs):
    """One function's degrees as ``np.interp`` over its nodes, clipped to [0, 1]."""
    return np.clip(np.interp(xs, *zip(*mf.nodes), left=mf.left_tail, right=mf.right_tail), 0.0, 1.0)


def test_evaluate_columns_is_evaluate_many_column_by_column():
    tiny = 5e-324  # the smallest subnormal
    functions = [
        # nodes written -0.0, at x and in degree
        make_piecewise([(-0.0, -0.0), (1, 1.0), (2, -0.0)]),
        make_piecewise([(0, 0.5), (3, -0.0)], left_tail=-0.0, right_tail=0.0),
        # subnormal degrees: interpolating from 2 * tiny down to 0 rounds to -tiny
        # at some points, which the clip takes back to zero
        make_piecewise([(4.27704282037358, 3 * tiny), (6.219002487819857, 0.0)]),
        make_piecewise([(-9.93081344549575, 2 * tiny), (-6.194542692081166, 0.0)], right_tail=tiny),
        make_piecewise([(0, tiny), (1, 1.0 - 2**-53), (2, 1.0)], left_tail=0.25, right_tail=0.75),
        triangle(10, 25, 40),
    ]
    nodes = sorted({x for mf in functions for x, _ in mf.nodes})
    xs = np.array(
        [v for x in nodes for v in (x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf))]
        + [-1e6, -0.0, 0.0, 1e6, 6.086728198479897, -7.409605530883176]  # both tails, signed zeros
        + np.linspace(-12, 45, 2001).tolist()
    )
    # the subnormal functions do step below zero before the clip
    assert (np.interp(xs, *zip(*functions[2].nodes)) < 0).any()
    assert (np.interp(xs, *zip(*functions[3].nodes)) < 0).any()
    got = evaluate_columns(functions, xs)
    assert got.shape == (len(xs), len(functions)) and got.flags.c_contiguous
    for j, mf in enumerate(functions):
        want = _interp_clip(mf, xs).tobytes()
        assert got[:, j].tobytes() == mf.evaluate_many(xs).tobytes() == want, j  # sign of zero included
    assert evaluate_columns(functions, []).shape == (0, len(functions))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="measurements must be finite"):
            evaluate_columns(functions, [1.0, bad])
