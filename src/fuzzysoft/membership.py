"""Piecewise-linear membership functions.

Every membership shape used in the clinical variable definitions (triangles
and shoulder/trapezoid tails) is represented by one canonical form: a list of
(x, degree) breakpoints with constant tails on either side. Evaluation is
linear interpolation between the bracketing breakpoints, which makes the
functions continuous on the breakpoint span and exact at every breakpoint.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "MembershipFunction",
    "evaluate_columns",
    "make_piecewise",
    "triangle",
    "left_shoulder",
    "right_shoulder",
]


@dataclass(frozen=True)
class MembershipFunction:
    """A piecewise-linear map from a raw measurement to a degree in [0, 1].

    nodes
        Ordered (x, degree) breakpoints; x strictly increasing.
    left_tail, right_tail
        Constant degree returned below the first / above the last breakpoint.
    """

    nodes: tuple[tuple[float, float], ...]
    left_tail: float = 0.0
    right_tail: float = 0.0
    _xs: np.ndarray = field(init=False, repr=False, compare=False)
    _ys: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        nodes = tuple((float(x), float(y)) for x, y in self.nodes)
        if not nodes:
            raise ValueError("membership function needs at least one breakpoint")
        # a few breakpoints each: plain floats check them faster than numpy
        xs = [x for x, _ in nodes]
        ys = [y for _, y in nodes]
        if not all(map(math.isfinite, xs + ys)):
            raise ValueError("breakpoints must be finite")
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise ValueError(f"breakpoint x values must be strictly increasing, got {xs}")
        for val, what in [(self.left_tail, "left_tail"), (self.right_tail, "right_tail")]:
            if not (math.isfinite(val) and 0.0 <= val <= 1.0):
                raise ValueError(f"{what} must be a degree in [0, 1], got {val}")
        if not all(0.0 <= y <= 1.0 for y in ys):
            raise ValueError(f"breakpoint degrees must lie in [0, 1], got {ys}")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "left_tail", float(self.left_tail))
        object.__setattr__(self, "right_tail", float(self.right_tail))
        for name, values in [("_xs", xs), ("_ys", ys)]:
            array = np.array(values)
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def evaluate(self, x: float) -> float:
        """Degree at one measurement ``x``: ``evaluate_many`` at that point."""
        return float(self.evaluate_many(x))

    def evaluate_many(self, xs) -> np.ndarray:
        """Degree at each measurement; linear between breakpoints, tails outside."""
        xs = np.asarray(xs, dtype=float)
        if not np.all(np.isfinite(xs)):
            raise ValueError("measurements must be finite")
        ys = np.interp(xs, self._xs, self._ys, left=self.left_tail, right=self.right_tail)
        # interpolation rounding can step a hair outside [0, 1] at subnormal
        # breakpoint degrees; the clip is identity everywhere else
        return np.clip(ys, 0.0, 1.0)


def evaluate_columns(functions: Sequence[MembershipFunction], xs) -> np.ndarray:
    """Degree of each function at each measurement of the 1-D ``xs``, one
    column per function: column j is bit for bit ``functions[j].evaluate_many(xs)``.

    The measurements are checked once for all the functions, each column is
    one ``np.interp`` into one preallocated matrix, and one clip covers the
    whole matrix, so a variable costs a few numpy calls per partition, not
    ``evaluate_many``'s checks, clip and stacking for each.
    """
    xs = np.asarray(xs, dtype=float)
    if not np.isfinite(xs).all():
        raise ValueError("measurements must be finite")
    out = np.empty((len(xs), len(functions)))
    for j, mf in enumerate(functions):
        out[:, j] = np.interp(xs, mf._xs, mf._ys, left=mf.left_tail, right=mf.right_tail)
    return np.clip(out, 0.0, 1.0, out=out)


def make_piecewise(nodes, left_tail: float = 0.0, right_tail: float = 0.0) -> MembershipFunction:
    """Validated construction from (x, degree) pairs plus tail degrees."""
    return MembershipFunction(tuple((x, y) for x, y in nodes), left_tail, right_tail)


def triangle(a: float, peak: float, b: float) -> MembershipFunction:
    """Triangular function: 0 at a, 1 at peak, 0 at b, 0 outside."""
    return make_piecewise([(a, 0.0), (peak, 1.0), (b, 0.0)])


def left_shoulder(high_until: float, zero_at: float) -> MembershipFunction:
    """Falling edge: 1 up to ``high_until``, linear down to 0 at ``zero_at``."""
    return make_piecewise([(high_until, 1.0), (zero_at, 0.0)], left_tail=1.0, right_tail=0.0)


def right_shoulder(zero_until: float, high_at: float) -> MembershipFunction:
    """Rising edge: 0 up to ``zero_until``, linear up to 1 at ``high_at`` and beyond."""
    return make_piecewise([(zero_until, 0.0), (high_at, 1.0)], left_tail=0.0, right_tail=1.0)
