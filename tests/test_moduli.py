import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilmoduli import (QQ, P1Element, PrimeField, annihilator,
                       apply_automorphism, automorphism_from_images,
                       base_ideal, base_point, compose,
                       dimension_report, embed_from_two_variables,
                       fiber_add, fiber_coordinates, fiber_scale,
                       gamma_factor, ideal_from_generators, ideal_from_point,
                       is_arr, linearity_witness, lift_linear,
                       make_context, moduli_point, multiplication_matrices,
                       normal_form_ideal, p1_action_bruteforce,
                       p1_action_closed, p1_action_twisted, p1_weight_action,
                       random_p1, random_point, recover_conjugator,
                       transition_map, universal_ideal_specialize,
                       weight_scale, zero_fiber, ModuliPoint, NilTuple)
from nilmoduli.linalg import mat_mul
from nilmoduli.moduli import _gamma_from_fiber

from conftest import chart_section, shift_matrix, x
from test_ideals import random_arr_ideal


# --- base point and fiber coordinates --------------------------------------

def test_base_point_examples(ctx23):
    assert base_point(base_ideal(ctx23)) == (1, (Fraction(1), Fraction(0)))
    assert base_point(ideal_from_generators(ctx23, [x(ctx23, 1)])) \
        == (2, (Fraction(0), Fraction(1)))
    assert base_point(ideal_from_generators(ctx23, [x(ctx23, 2) - x(ctx23, 1) ** 2])) \
        == (1, (Fraction(1), Fraction(0)))


def test_base_point_rejects_non_hyperplane(ctx23):
    from nilmoduli import power_of_max_ideal
    with pytest.raises(ValueError):
        base_point(power_of_max_ideal(ctx23, 2))


def test_fiber_coordinates_examples(ctx23, ctx24):
    assert fiber_coordinates(base_ideal(ctx23)) == ((Fraction(0),),)
    ideal = ideal_from_generators(ctx23, [x(ctx23, 2) - x(ctx23, 1) ** 2])
    assert fiber_coordinates(ideal) == ((Fraction(1),),)
    ideal2 = ideal_from_generators(
        ctx24, [x(ctx24, 2) - (x(ctx24, 1) ** 2).scale(2) - (x(ctx24, 1) ** 3).scale(3)])
    assert fiber_coordinates(ideal2) == ((Fraction(2), Fraction(3)),)


def test_fiber_coordinates_requires_standard_chart(ctx23):
    with pytest.raises(ValueError):
        fiber_coordinates(ideal_from_generators(ctx23, [x(ctx23, 1)]))


# --- round trips -------------------------------------------------------------

def test_moduli_point_of_base_ideal(ctx34):
    pt = moduli_point(base_ideal(ctx34))
    assert pt.chart == 1
    assert all(not v for v in pt.c[1:])
    assert pt.b == zero_fiber(ctx34)
    assert pt.is_canonical()


def test_round_trip_both_ways():
    rng = random.Random(40)
    for (q, n) in [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4)]:
        ctx = make_context(q, n)
        for _ in range(8):
            ideal = random_arr_ideal(ctx, rng)
            pt = moduli_point(ideal)
            assert pt.is_canonical()
            assert ideal_from_point(pt) == ideal
            pt2 = random_point(ctx, rng)
            assert moduli_point(ideal_from_point(pt2)) == pt2


def test_round_trip_prime_field():
    ctx = make_context(2, 4, PrimeField(5))
    rng = random.Random(41)
    for _ in range(5):
        pt = random_point(ctx, rng)
        assert moduli_point(ideal_from_point(pt)) == pt


def test_classification_example(ctx23):
    f = ctx23.field
    t = NilTuple(ctx23, [shift_matrix(f, 3), shift_matrix(f, 3, 2)])
    pt = moduli_point(annihilator(t))
    assert pt.chart == 1
    assert [int(v) for v in pt.c] == [1, 0]
    assert [[int(v) for v in r] for r in pt.b] == [[1]]


def test_conjugacy_complete_invariant(ctx24):
    # equal moduli points <=> simultaneously conjugate
    from nilmoduli import random_regular_tuple
    t1 = random_regular_tuple(ctx24, 51)
    t2 = random_regular_tuple(ctx24, 52)
    p1, p2 = moduli_point(annihilator(t1)), moduli_point(annihilator(t2))
    assert (p1 == p2) == (recover_conjugator(t1, t2) is not None)


def test_chart_section_moves_base_ideal(ctx34):
    rng = random.Random(42)
    for _ in range(5):
        pt = random_point(ctx34, rng)
        sec = chart_section(ctx34, pt.chart, pt.c)
        moved = apply_automorphism(sec, base_ideal(ctx34))
        assert base_point(moved) == (pt.chart, pt.c)


# --- factorization -----------------------------------------------------------

def test_gamma_factor_of_gamma_element(ctx34):
    x1 = x(ctx34, 1)
    sigma = automorphism_from_images(
        ctx34, [x1, x(ctx34, 2) + (x1 ** 2).scale(2), x(ctx34, 3) - x1 ** 3])
    gamma, h = gamma_factor(sigma)
    assert gamma.fwd == sigma.fwd
    assert h.fwd.is_identity()


def test_gamma_factor_of_stabilizer_element(ctx34):
    sigma = automorphism_from_images(
        ctx34, [x(ctx34, 1), x(ctx34, 2) + x(ctx34, 1) * x(ctx34, 2), x(ctx34, 3)])
    gamma, h = gamma_factor(sigma)
    assert gamma.fwd.is_identity()
    assert h.fwd == sigma.fwd


def random_linearly_trivial(ctx, rng, height=2):
    from test_algebra import rand_poly
    imgs = [x(ctx, i + 1) + rand_poly(ctx, rng, min_deg=2, height=height)
            for i in range(ctx.q)]
    return automorphism_from_images(ctx, imgs)


def test_gamma_factor_random(ctx34):
    rng = random.Random(43)
    q1 = base_ideal(ctx34)
    for _ in range(10):
        sigma = random_linearly_trivial(ctx34, rng)
        gamma, h = gamma_factor(sigma)
        # factor shapes: gamma fixes x1 and moves x_i by pure powers of x1
        assert gamma.images[0] == x(ctx34, 1)
        for img in gamma.images[1:]:
            for e in img.terms:
                assert not any(e[1:]) or sum(e) == 1
        assert apply_automorphism(h, q1) == q1
        assert compose(gamma, h).fwd == sigma.fwd
        # uniqueness: gamma is the one read from the moved ideal itself
        moved = apply_automorphism(sigma, q1)
        assert gamma.fwd == _gamma_from_fiber(ctx34, fiber_coordinates(moved)).fwd


def test_gamma_factor_rejects_nontrivial_linear_part(ctx34):
    with pytest.raises(ValueError):
        gamma_factor(lift_linear(ctx34, [[2, 0, 0], [0, 1, 0], [0, 0, 1]]))


# --- stabilizer actions --------------------------------------------------------

def test_p1_element_validation():
    f = make_context(2, 4).field
    with pytest.raises(ValueError):
        P1Element(f, [[1, 0], [1, 1]])   # nonzero below the corner
    with pytest.raises(ValueError):
        P1Element(f, [[0, 1], [0, 1]])   # zero corner
    with pytest.raises(ValueError):
        P1Element(f, [[1, 0], [0, 0]])   # singular block


def test_p1_identity_action(ctx24):
    p = P1Element(ctx24.field, [[1, 0], [0, 1]])
    b = ((Fraction(2), Fraction(-1)),)
    assert p1_action_bruteforce(ctx24, p, b) == b
    assert p1_action_closed(ctx24, p, b) == b


def test_p1_diagonal_weights(ctx24):
    # p = diag(t, 1) multiplies the column of weight j by t^j
    t = Fraction(3)
    p = P1Element(ctx24.field, [[t, 0], [0, 1]])
    b = ((Fraction(1), Fraction(2)),)
    expect = ((t ** 2, Fraction(2) * t ** 3),)
    assert p1_action_bruteforce(ctx24, p, b) == expect
    assert p1_action_closed(ctx24, p, b) == expect
    assert p1_weight_action(ctx24, p, b) == expect


def test_p1_action_not_linear_in_b(ctx24):
    # with a nonzero off-diagonal entry the action picks up b-quadratic terms
    p = P1Element(ctx24.field, [[1, 1], [0, 1]])
    b1 = ((Fraction(1), Fraction(0)),)
    lhs = p1_action_bruteforce(ctx24, p, fiber_scale(b1, Fraction(2)))
    rhs = fiber_scale(p1_action_bruteforce(ctx24, p, b1), Fraction(2))
    assert lhs != rhs


def test_p1_oracle_equality_random():
    rng = random.Random(44)
    for field, (q, n), samples in [(QQ, (2, 4), 10), (QQ, (3, 4), 10),
                                   (PrimeField(7), (2, 4), 10), (PrimeField(7), (3, 4), 10),
                                   (QQ, (4, 6), 3), (PrimeField(7), (4, 6), 3)]:
        ctx = make_context(q, n, field)
        for _ in range(samples):
            p = random_p1(ctx, rng)
            pt = random_point(ctx, rng)
            b = pt.b
            assert p1_action_bruteforce(ctx, p, b) == p1_action_closed(ctx, p, b)


@st.composite
def p1_and_fiber(draw):
    """A stabilizer element (corner unit, lower block L U with L unit lower
    and U invertible upper triangular) and a fiber matrix, small entries."""
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(7)]))
    q, n = draw(st.sampled_from([(1, 2), (1, 4), (2, 2), (2, 3), (2, 4), (3, 3), (3, 4)]))
    scalar = st.integers(-3, 3).map(field.scalar)
    unit = scalar.filter(bool)
    lower = [[draw(scalar) if j < i else field.one if j == i else field.zero
              for j in range(q - 1)] for i in range(q - 1)]
    upper = [[draw(unit) if j == i else draw(scalar) if j > i else field.zero
              for j in range(q - 1)] for i in range(q - 1)]
    block = mat_mul(lower, upper) if q > 1 else []
    rows = [[draw(unit)] + [draw(scalar) for _ in range(q - 1)]]
    rows += [[field.zero] + row for row in block]
    b = [[draw(scalar) for _ in range(n - 2)] for _ in range(q - 1)]
    return make_context(q, n, field), P1Element(field, rows), b


@settings(max_examples=60, deadline=None)
@given(p1_and_fiber())
def test_closed_action_moves_the_ideal(case):
    # compares ideals, so it shares no frame reading with the closed form
    ctx, p, b = case
    moved = apply_automorphism(lift_linear(ctx, p.matrix), normal_form_ideal(ctx, b))
    assert normal_form_ideal(ctx, p1_action_closed(ctx, p, b)) == moved


def test_twisted_action_endpoints(ctx24):
    rng = random.Random(45)
    for _ in range(5):
        p = random_p1(ctx24, rng)
        b = random_point(ctx24, rng).b
        assert p1_action_twisted(ctx24, p, b, 1) == p1_action_bruteforce(ctx24, p, b)
        assert p1_action_twisted(ctx24, p, b, 0) == p1_weight_action(ctx24, p, b)


def test_twisted_action_conjugate_to_plain(ctx24):
    # scale-conjugation intertwines the twisted and plain actions:
    # twisted_t(p, b) = scale_{1/t}( plain(p, scale_t(b)) )
    rng = random.Random(46)
    t = Fraction(5)
    for _ in range(5):
        p = random_p1(ctx24, rng)
        b = random_point(ctx24, rng).b
        lhs = p1_action_twisted(ctx24, p, b, t)
        rhs = weight_scale(ctx24, p1_action_bruteforce(ctx24, p, weight_scale(ctx24, b, t)),
                           Fraction(1, 5))
        assert lhs == rhs


def test_weight_action_block_structure(ctx34):
    # t = 0 action is linear in b and acts on column j through the inverse
    # lower block scaled by the corner to the j-th power
    rng = random.Random(47)
    p = random_p1(ctx34, rng)
    b1, b2 = random_point(ctx34, rng).b, random_point(ctx34, rng).b
    lam = Fraction(7)
    lhs = p1_weight_action(ctx34, p, fiber_add(b1, fiber_scale(b2, lam)))
    rhs = fiber_add(p1_weight_action(ctx34, p, b1),
                    fiber_scale(p1_weight_action(ctx34, p, b2), lam))
    assert lhs == rhs


# --- transitions -----------------------------------------------------------------

def test_transition_preserves_ideal(ctx24):
    rng = random.Random(48)
    hit = 0
    while hit < 5:
        pt = random_point(ctx24, rng)
        if pt.chart != 1 or not pt.c[1]:
            continue
        other = transition_map(pt, 2)
        assert other.chart == 2
        assert ideal_from_point(other) == ideal_from_point(pt)
        back = transition_map(other, 1)
        assert back == pt  # renormalizing recovers the canonical chart
        hit += 1


def test_transition_requires_chart_membership(ctx24):
    pt = moduli_point(base_ideal(ctx24))  # c = (1, 0)
    with pytest.raises(ValueError):
        transition_map(pt, 2)


def test_zero_section_is_preserved(ctx24):
    c = (Fraction(1), Fraction(1))
    pt = ModuliPoint(ctx24, 1, c, zero_fiber(ctx24))
    moved = transition_map(pt, 2)
    assert moved.b == zero_fiber(ctx24)


def test_transition_linearity_small_case():
    # one-dimensional fiber: the transition is linear on the search grid
    assert linearity_witness(2, 3, 1, 2) is None


def test_transition_nonlinearity_witness():
    w = linearity_witness(2, 4, 1, 2)
    assert w is not None and w["kind"] == "homogeneity"
    # reproduce the violation over F_5
    w5 = linearity_witness(2, 4, 1, 2, field=PrimeField(5))
    assert w5 is not None


# --- versal family and embedding ---------------------------------------------------

def test_universal_specialization_examples(ctx24):
    ident = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert universal_ideal_specialize(ctx24, ident, zero_fiber(ctx24)) \
        == base_ideal(ctx24)
    b = ((Fraction(2), Fraction(-1)),)
    assert universal_ideal_specialize(ctx24, ident, b) == normal_form_ideal(ctx24, b)
    with pytest.raises(ValueError):
        universal_ideal_specialize(ctx24, [[1, 1], [1, 1]], b)


def test_universal_specialization_random(ctx34):
    from nilmoduli.linalg import mat_inv
    rng = random.Random(49)
    for _ in range(10):
        while True:
            a = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
            if mat_inv(ctx34.field, a) is not None:
                break
        b = random_point(ctx34, rng).b
        ideal = universal_ideal_specialize(ctx34, a, b)
        assert is_arr(ideal)
        assert ideal_from_point(moduli_point(ideal)) == ideal


def test_embedding_examples():
    ctx23 = make_context(2, 3)
    ctx33 = make_context(3, 3)
    assert embed_from_two_variables(base_ideal(ctx23), 3) == base_ideal(ctx33)
    lifted = embed_from_two_variables(
        ideal_from_generators(ctx23, [x(ctx23, 2) - x(ctx23, 1) ** 2]), 3)
    assert lifted == ideal_from_generators(
        ctx33, [x(ctx33, 2) - x(ctx33, 1) ** 2, x(ctx33, 3) - x(ctx33, 2)])
    t = multiplication_matrices(lifted)
    f = ctx33.field
    expect = NilTuple(ctx33, [shift_matrix(f, 3), shift_matrix(f, 3, 2),
                              shift_matrix(f, 3, 2)])
    assert recover_conjugator(t, expect) is not None


def test_embedding_commutes_with_base_point():
    # the relations x_j = x_2 force equal trailing covector entries, so on
    # base covectors the embedding is (c1 : c2) -> (c1 : c2 : c2 : c2)
    ctx24 = make_context(2, 4)
    rng = random.Random(50)
    for _ in range(5):
        ideal = random_arr_ideal(ctx24, rng)
        k, c = base_point(ideal)
        lifted = embed_from_two_variables(ideal, 4)
        k2, c2 = base_point(lifted)
        assert k2 == k
        assert c2 == c + (c[1], c[1])


# --- dimension report ----------------------------------------------------------------

def test_dimension_report_small():
    r = dimension_report(2, 3)
    assert (r.dim_lin_trivial, r.dim_lin_stab) == (6, 5)
    assert (r.dim_aut, r.dim_stab) == (10, 8)
    assert (r.dim_orbit, r.dim_fiber, r.dim_base) == (2, 1, 1)
    assert r.all_match
    assert all(f["matches"] == "variant_b" for f in r.flags)


def test_dimension_report_fiber_dims():
    assert dimension_report(2, 4).dim_fiber == 2
    assert dimension_report(2, 4).dim_base == 1
    for q in (2, 3):
        r = dimension_report(q, 2)
        assert r.dim_fiber == 0
        assert r.dim_orbit == q - 1
