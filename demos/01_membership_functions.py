"""
Piecewise-linear membership functions
======================================

Every linguistic label (Child, Old, Hyperinsulinemia, ...) maps a raw
measurement to a degree in [0, 1] through one canonical shape: ordered
(x, degree) breakpoints with constant tails outside them. Triangles and
shoulders are just special cases.
"""
import numpy as np

from fuzzysoft import default_variable_specs, left_shoulder, make_piecewise, right_shoulder, triangle

# A shoulder that saturates for old ages: 0 below 50, rising to 1 at 65.
old = right_shoulder(50, 65)
for age in (40, 50, 57.5, 65, 82):
    print(f"old-age degree at {age:>5}: {old.evaluate(age):.4f}")

# Triangles peak at a single point.
mild = triangle(30, 45, 60)
print(f"\nmild-age degree at 49: {mild.evaluate(49):.4f}   (the falling branch: (60-49)/15)")

# Arbitrary breakpoints work too; construction validates them.
bumpy = make_piecewise([(0, 0.2), (2, 1.0), (5, 0.4)], left_tail=0.2, right_tail=0.4)
xs = np.linspace(-1, 6, 8)
print("\na custom shape sampled on a grid:")
for x, y in zip(xs, bumpy.evaluate_many(xs)):
    print(f"  x = {x:5.2f} -> {y:.4f}")

# The five clinical variables ship with their published partitions.
print("\nthe default clinical variables:")
for spec in default_variable_specs():
    labels = ", ".join(f"{p.code} ({p.name})" for p in spec.partitions)
    print(f"  {spec.name:>3} from column {spec.column!r}: {labels}")

# Curve samples are plot-ready: x plus one degree per label.
age_spec = default_variable_specs()[0]
print(f"\nage curves sampled at five points over {age_spec.display_range}:")
xs = np.linspace(*age_spec.display_range, 5)
for part in age_spec.partitions:
    rendered = "  ".join(f"{x:5.1f}:{y:.2f}" for x, y in zip(xs, part.mf.evaluate_many(xs)))
    print(f"  {part.code:>2}  {rendered}")
