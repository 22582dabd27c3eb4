"""
Soft-set algebra: products, restriction, parameter reduction
=============================================================

Combining two fuzzy soft sets takes the Cartesian product of their parameter
lists; each product cell combines the two input degrees. The classical AND
uses min, while the case study this library reproduces applied max, so the
combiner is always an explicit choice.

The parameterization reduction of Chen et al. 2005 then asks: which columns
can be dropped without changing the set of top-ranked objects? (The stricter
normal parameter reduction of Kong et al. 2008 keeps the whole ranking; it is
not implemented.)
"""
from fuzzysoft import (
    builtin_table1,
    choice_values,
    default_variable_specs,
    find_reductions,
    fuzzify_cohort,
    optimal_objects,
    product,
    product_n,
    restrict,
)

specs = default_variable_specs()
sets = dict(zip((s.name for s in specs), fuzzify_cohort(builtin_table1(), specs)))

# Products: age x BMI gives 4 * 3 = 12 combined parameters.
for combiner in ("max", "min"):
    prod = product(sets["AGE"], sets["BMI"], combiner)
    cell = prod.degree("μ_3", "(AGE)_O×(BMI)_OII")
    print(f"{combiner}-product: {len(prod.parameters)} columns; "
          f"mu_3 at (AGE)_O x (BMI)_OII = {cell:.2f}")

# All five variables at once: 4*3*3*4*3 = 432 columns.
full = product_n(list(sets.values()), "max")
print(f"\nfull product over all variables: {len(full.parameters)} columns")

# Choice values rank objects by their row sums; the optimal set is the argmax.
age = sets["AGE"]
print("\nage choice values:")
for oid, f in zip(age.universe, choice_values(age)):
    print(f"  {oid:>6}: {f:.4f}")
print("optimal objects:", ", ".join(sorted(optimal_objects(age), key=age.universe.index)))

# Reduction: the old-age column alone preserves that optimal set.
for name, s in sets.items():
    results = find_reductions(s)
    kept = " | ".join(", ".join(r.reduct) for r in results)
    print(f"{name}: minimal reductions -> {kept}")

# Restriction keeps chosen columns; order and objects are untouched.
reduced = restrict(age, find_reductions(age)[0].reduct)
print(f"\nage restricted to its reduction: {reduced.shape[0]} objects x "
      f"{reduced.shape[1]} column(s), optimal set unchanged: "
      f"{optimal_objects(reduced) == optimal_objects(age)}")
