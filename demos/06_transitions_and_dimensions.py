"""Chart transitions, their nonlinearity, and the dimension tables.

The moduli space fibers over projective (q-1)-space with affine fibers of
dimension (q-1)(n-2).  Chart transitions fix the zero section and are
affine-space maps.  The fiber column of u^e has weight e - 1, so for
n = 3 the transition is linear in the fiber, and for n = 4 a fixed
witness shows that it is not linear in these chart coordinates.  That
the fibration is an affine bundle that is not a vector bundle is
Iarrobino's theorem (Punctual Hilbert schemes, Mem. AMS 188, 1977), not
something the witness proves.
"""

from fractions import Fraction

from nilmoduli import (ModuliPoint, dimension_report, ideal_from_point,
                       linearity_witness, make_context, transition_map,
                       zero_fiber, PrimeField)

ctx = make_context(2, 4)

print("== a transition between the two charts ==")
pt = ModuliPoint(ctx, 1, (Fraction(1), Fraction(1)), ((Fraction(1), Fraction(0)),))
other = transition_map(pt, 2)
print("chart-1 coordinates:", pt)
print("chart-2 coordinates:", other)
print("same ideal underneath:", ideal_from_point(pt) == ideal_from_point(other))
zero = ModuliPoint(ctx, 1, (Fraction(1), Fraction(1)), zero_fiber(ctx))
print("the zero section maps to the zero section:",
      transition_map(zero, 2).b == zero_fiber(ctx))

print()
print("== linearity of the fiber component ==")
print("n = 3:", linearity_witness(2, 3, 1, 2) or "linear: every fiber coordinate has weight 1")
w = linearity_witness(2, 4, 1, 2)
print(f"n = 4: {w['kind']} fails at c = {w['c']}, b = {w['b']}:")
print("  transition(2b) =", w["lhs"])
print("  2 transition(b) =", w["rhs"])
w5 = linearity_witness(2, 4, 1, 2, field=PrimeField(5))
print("the same violation exists over F_5:", w5 is not None)

print()
print("== dimension tables ==")
for (q, n) in [(2, 3), (2, 4), (3, 4)]:
    print(dimension_report(q, n).to_text())
    print()
