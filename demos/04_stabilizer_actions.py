"""Actions of the chart stabilizer on fiber coordinates.

The invertible block matrices [[p11, R], [0, Q]] act on the fiber matrix
b.  The script computes the action along two independent routes and
degenerates it along a twist parameter: at t = 0 the action becomes
linear with column j scaled by p11^j — the twisted family interpolates
between the honest action and its linear model.
"""

from fractions import Fraction

from nilmoduli import (P1Element, fiber_scale, make_context,
                       p1_action_bruteforce, p1_action_closed,
                       p1_action_twisted, p1_weight_action, weight_scale)

ctx = make_context(2, 4)
b = ((Fraction(1), Fraction(2)),)
print("fiber vector b =", b, " (s_2(z) = z^2 + 2 z^3)")

print()
print("== diagonal elements act by weights ==")
p = P1Element(ctx.field, [[3, 0], [0, 1]])
print("p = diag(3, 1):", p1_action_bruteforce(ctx, p, b),
      " (column j scales by 3^j)")

print()
print("== two independent routes agree ==")
p = P1Element(ctx.field, [[2, 1], [0, 1]])
via_ideal = p1_action_bruteforce(ctx, p, b)
closed = p1_action_closed(ctx, p, b)
print("through the ideal:   ", via_ideal)
print("read in the quotient:", closed)
print("equal:", via_ideal == closed)

print()
print("== the action is not linear in b ==")
double = p1_action_bruteforce(ctx, p, fiber_scale(b, Fraction(2)))
twice = fiber_scale(p1_action_bruteforce(ctx, p, b), Fraction(2))
print("action(2b) =", double)
print("2 action(b) =", twice)

print()
print("== the twist family ==")
for t in (0, 1, 5):
    print(f"t = {t}:", p1_action_twisted(ctx, p, b, t))
print("t = 0 equals the weighted linear model:",
      p1_action_twisted(ctx, p, b, 0) == p1_weight_action(ctx, p, b))
t = Fraction(5)
conj = weight_scale(ctx, p1_action_bruteforce(ctx, p, weight_scale(ctx, b, t)), 1 / t)
print("t = 5 is the plain action conjugated by the weight map:",
      p1_action_twisted(ctx, p, b, t) == conj)
