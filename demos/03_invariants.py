"""Differential invariants: verification report and the elimination table."""

from liesindy.expr import to_string
from liesindy.invariants import builtin_set, eliminate_translations, verify_set

for system in ("kdv", "ks", "burgers", "nkdv", "so2-demo"):
    s = builtin_set(system)
    names = [to_string(e) for e in s.etas]
    print(f"{system}: {len(s.generators)} generators, "
          f"invariants {names}")

print()

# full numeric + symbolic verification of one set.  Every (generator,
# invariant) pair must vanish symbolically and hold to round-off, and the
# invariant Jacobian must keep full rank, on one set of 1000 jet points
# drawn at a fixed seed.
rep = verify_set(builtin_set("kdv"))
print(f"kdv verification: passed={rep.passed}")
print(f"  numeric max        {rep.numeric_max:.3e}")
print(f"  jacobian min sv    {rep.jacobian_min_sv:.3e}")
print(f"  full-rank fraction {rep.jacobian_ok_fraction:.3f}")

print()

# translation generators act by coordinate shifts, so invariance is just
# "drop the shifted coordinate".  The table shows the library shrinking.
kdv = builtin_set("kdv")
for label, gens in (("{}", []),
                    ("{d/dx}", kdv.generators[:1]),
                    ("{d/dx, d/dt}", kdv.generators[:2])):
    kept, dropped = eliminate_translations(gens, 4)
    print(f"{label:14s} keeps {kept}")
