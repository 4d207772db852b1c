"""nilmoduli: exact classification of commuting nilpotent matrix tuples.

The library computes, over Q or F_p with exact arithmetic throughout:

* the truncated polynomial algebra on q generators with n-th power zero,
  its automorphism group and the filtration by linearly trivial maps;
* ideals as their quotients (staircase and normal forms), with colength,
  membership, sums/products/intersections, associated graded, truncation;
* commuting nilpotent tuples, their annihilator ideals, cyclic bases and
  explicit simultaneous conjugators;
* moduli coordinates (base covector on projective space plus fiber
  matrix) of ideals and tuples, chart transitions, stabilizer actions,
  a versal generator family and the two-variable embedding;
* finite-field censuses of moduli points, matched through moduli_point
  against a staircase walk over every colength-n ideal, with graded
  strata the fibres over base points.
"""

from .fields import QQ, PrimeField, RationalField, parse_field, ContextMismatch
from .algebra import (AlgebraContext, NilPolynomial, AlgebraMap, Automorphism,
                      make_context, lift_linear, compose, invert,
                      automorphism_from_images, identity_automorphism,
                      filtration_level, is_linearly_trivial, linear_polynomial,
                      InternalCheckError, BudgetExceeded)
from .ideals import (Ideal, ideal_from_generators, ideal_from_span, zero_ideal,
                     base_ideal, power_of_max_ideal, apply_automorphism,
                     associated_graded, truncate, base_point, is_arr,
                     is_linear_ideal, regular_parameter)
from .reps import (NilTuple, InputInvariantError, evaluate, is_regular,
                   is_cyclic, annihilator, multiplication_matrices,
                   express_in_cyclic, conjugate, recover_conjugator,
                   random_regular_tuple)
from .moduli import (ModuliPoint, P1Element, fiber_coordinates,
                     moduli_point, tuple_point, ideal_from_point,
                     normal_form_ideal, gamma_factor, random_point, random_p1,
                     p1_action_bruteforce, p1_action_closed, p1_action_twisted,
                     p1_weight_action, weight_scale, fiber_add, fiber_scale,
                     transition_map, linearity_witness,
                     universal_ideal_specialize, embed_from_two_variables,
                     dimension_report, DimensionReport, zero_fiber)
from .census import (CensusReport, enumerate_moduli_points,
                     brute_force_ideals, stratify_by_graded,
                     moduli_count_formula)

__version__ = "0.1.0"
