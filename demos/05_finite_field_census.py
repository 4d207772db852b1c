"""Counting points over small prime fields.

The moduli enumeration (normalized covector times free fiber matrix) has
the closed count (p^q - 1)/(p - 1) * p^((q-1)(n-2)).  An independent
enumeration of every colength-n ideal, staircase by staircase, recovers
the same points through moduli_point, and the strata by associated graded
type are the fibres over base points: the fibration over the projective
space of base covectors.
"""

from nilmoduli import CensusReport, brute_force_ideals, is_linear_ideal, is_arr

for (q, n, p) in [(2, 3, 2), (2, 3, 3), (2, 4, 2), (3, 3, 2)]:
    report = CensusReport(q, n, p)
    print(report.to_text())
    print()

print("== the two notions of a degree-one ideal ==")
print("in two variables, colength-n ideals meeting degree one are exactly")
print("the regular annihilators:")
for (q, n, p) in [(2, 3, 2), (2, 4, 2)]:
    _, ideals = brute_force_ideals(q, n, p)
    agree = all(is_linear_ideal(i) == is_arr(i) for i in ideals)
    print(f"  ({q},{n}) over F_{p}: predicates agree on all {len(ideals)} ideals:", agree)
print("in three variables they diverge:")
_, ideals = brute_force_ideals(3, 3, 2)
diff = [i for i in ideals if is_linear_ideal(i) != is_arr(i)]
print(f"  (3,3) over F_2: {len(diff)} of {len(ideals)} colength-3 ideals meet")
print("  degree one without annihilating any regular tuple, e.g.")
print("  ", diff[0].basis_polynomials())
