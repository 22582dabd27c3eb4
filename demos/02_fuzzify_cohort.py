"""
Fuzzifying a patient cohort
============================

Fuzzification turns each clinical measurement into degrees across its
variable's labels, giving one fuzzy soft set per variable: rows are patients,
columns are labels, cells are degrees.

The built-in ten-patient cohort reproduces a published case study. The study
also printed its fuzzified tables, and some printed cells contradict its own
membership formulas; the errata report makes every such cell visible instead
of silently preferring either side.
"""
from fuzzysoft import builtin_table1, default_variable_specs, errata_report, fuzzify_cohort, to_table
from fuzzysoft.fixtures import published_variable_tables

cohort = builtin_table1()  # IDs, one array per measurement column, labels
specs = default_variable_specs()

print("the cohort:")
for i, oid in enumerate(cohort.ids):
    vals = "  ".join(f"{col}={xs[i]:g}" for col, xs in cohort.columns.items())
    print(f"  {oid:>6}  {vals}  [{cohort.labels[i]}]")

sets = fuzzify_cohort(cohort, specs)
age = sets[0]
print("\nthe age variable as a fuzzy soft set:")
print(to_table(age, decimals=2))

# Compare every computed table against its published counterpart.
published = published_variable_tables()
print("errata (|computed - printed| > 0.01), worst first:")
for spec, computed in zip(specs, sets):
    cells = errata_report(computed, published[spec.name], tolerance=0.01)
    if not cells:
        print(f"  {spec.name}: printed table fully consistent with the formulas")
    for c in cells:
        print(
            f"  {spec.name} ({c.object_id}, {c.parameter}): printed {c.printed:.2f}, "
            f"formula gives {c.computed:.4f} (delta {c.delta:.4f})"
        )
