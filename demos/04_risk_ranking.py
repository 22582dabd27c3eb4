"""
Comparison-table scoring and risk ranking
==========================================

Objects are ranked pairwise: count mode tallies, for each ordered pair, on
how many parameters the first object's degree is at least the second's. An
object's score is its row sum minus its column sum; scores above the
threshold are called high-risk.

The published end-to-end result (70% accuracy on the ten-patient cohort)
flows through the study's own 72-column product table. That table is the max
product of the study's printed per-variable tables over the partitions it
kept, with LPN M and H folded into one factor, not the product of the
formulas. Rebuilding the product from the formulas instead is one flag away
and happens to score better.
"""
from fuzzysoft import (
    builtin_table1,
    classify,
    comparison_table,
    default_variable_specs,
    evaluate,
    fuzzify_cohort,
    product_n,
    scores,
)
from fuzzysoft.fixtures import GROUND_TRUTH, published_product_table

# The study-faithful route: score the published 72-column product table.
table = comparison_table(published_product_table(), mode="count")
report = scores(table)
predictions = classify(report, threshold=0.0)
accuracy = evaluate(predictions, GROUND_TRUTH)

print("scores over the published product table:")
for oid in report.universe:
    r, t, s = report.triple(oid)
    print(f"  {oid:>6}  row {r:4d}  column {t:4d}  score {s:5d}  -> {predictions[oid]}")
print(f"accuracy against the ground-truth split: {accuracy:.2f}")

# The recomputed route: fuzzify, then product, compare, score and classify.
specs = default_variable_specs()
cohort = builtin_table1()
sets = fuzzify_cohort(cohort, specs)
recomputed = scores(comparison_table(product_n(sets, combiner="max"), mode="count"))
recomputed_predictions = classify(recomputed, threshold=0.0)
labels = dict(zip(cohort.ids, cohort.labels))
print(f"\nrecomputed product ({recomputed.parameter_count} columns) instead:")
for oid in recomputed.universe:
    print(f"  {oid:>6}  score {recomputed.score(oid):6d}  -> {recomputed_predictions[oid]}")
print(f"accuracy: {evaluate(recomputed_predictions, labels):.2f}")
