import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from nilmoduli import (QQ, InternalCheckError, NilPolynomial,
                       PrimeField, annihilator, apply_automorphism,
                       associated_graded, automorphism_from_images, base_ideal,
                       brute_force_ideals, ideal_from_generators,
                       ideal_from_point, is_arr, is_linear_ideal, lift_linear,
                       linear_polynomial, make_context, power_of_max_ideal,
                       random_point, random_regular_tuple, regular_parameter,
                       truncate, zero_ideal)
from nilmoduli.ideals import ideal_from_span
from nilmoduli.linalg import mat_inv

from conftest import dense_product, monomial_multiple_ideal, row_image_ideal, x
from test_algebra import rand_poly


def random_arr_ideal(ctx, rng):
    """Independent generator of regular-annihilator ideals: a random linear
    change of variables applied to a random normal-form ideal."""
    x1 = x(ctx, 1)
    gens = []
    for i in range(2, ctx.q + 1):
        s = NilPolynomial.zero(ctx)
        for j in range(2, ctx.n):
            s = s + (x1 ** j).scale(rng.randint(-3, 3))
        gens.append(x(ctx, i) - s)
    ideal = ideal_from_generators(ctx, gens)
    while True:
        mat = [[ctx.field.scalar(rng.randint(-2, 2)) for _ in range(ctx.q)]
               for _ in range(ctx.q)]
        try:
            sigma = lift_linear(ctx, mat)
            break
        except ValueError:
            continue
    return apply_automorphism(sigma, ideal)


# --- construction and canonical bases --------------------------------------

def test_base_ideal_colength():
    for (q, n) in [(1, 3), (2, 3), (2, 4), (3, 4), (4, 5)]:
        ctx = make_context(q, n)
        assert base_ideal(ctx).colength == n


@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=str)
def test_base_ideal_is_generated_by_the_other_variables(field):
    # written down directly; the dense closure of x_2..x_q is the oracle
    for q in range(1, 5):
        for n in range(2, 6):
            ctx = make_context(q, n, field)
            want = ideal_from_generators(ctx, [x(ctx, i) for i in range(2, q + 1)])
            got = base_ideal(ctx)
            assert (got.stair, got.tails) == (want.stair, want.tails)
            same_ideal(got, want)


def test_zero_ideal(ctx23):
    assert zero_ideal(ctx23).colength == ctx23.dim
    assert ideal_from_generators(ctx23, []).colength == ctx23.dim


def test_hand_expanded_rref(ctx23):
    # generators of <x2 - x1^2>: monomial multiples reduce to the rows
    # x2 - x1^2, x1*x2, x2^2 in the graded order
    ideal = ideal_from_generators(ctx23, [x(ctx23, 2) - x(ctx23, 1) ** 2])
    assert ideal.colength == 3
    f = ctx23.field
    expect = [
        (f.zero, f.zero, f.one, -f.one, f.zero, f.zero),
        (f.zero, f.zero, f.zero, f.zero, f.one, f.zero),
        (f.zero, f.zero, f.zero, f.zero, f.zero, f.one),
    ]
    assert list(ideal.rows) == expect
    assert ideal.pivots == (2, 4, 5)


def test_rref_canonical_for_equal_spans(ctx24):
    g = x(ctx24, 2) - x(ctx24, 1) ** 2
    i1 = ideal_from_generators(ctx24, [g])
    i2 = ideal_from_generators(ctx24, [g.scale(Fraction(3, 2)),
                                       (x(ctx24, 1) * g).scale(-2)])
    assert i1 == i2
    assert i1.rows == i2.rows


def test_closure_holds(ctx34):
    rng = random.Random(10)
    for _ in range(5):
        gens = [rand_poly(ctx34, rng, min_deg=1) for _ in range(2)]
        ideal = ideal_from_generators(ctx34, gens)
        ideal.verify_closure()
        for g in gens:
            assert ideal.contains(g)


# --- subspace calculus ------------------------------------------------------

def test_colength_and_membership(ctx23):
    q1 = base_ideal(ctx23)
    assert q1.colength == 3
    assert q1.contains(x(ctx23, 2) * x(ctx23, 1))
    assert not q1.contains(x(ctx23, 1))


def test_sum_with_zero(ctx23):
    q1 = base_ideal(ctx23)
    assert q1.sum(zero_ideal(ctx23)) == q1


def test_power_of_max_ideal_dims():
    ctx = make_context(2, 4)
    assert power_of_max_ideal(ctx, 0).colength == 0
    assert power_of_max_ideal(ctx, 1).rank == 9
    assert power_of_max_ideal(ctx, 2).rank == 7  # 10 - 3
    assert power_of_max_ideal(ctx, 4).rank == 0
    with pytest.raises(ValueError):
        power_of_max_ideal(ctx, 5)


def test_intersection_equals_product(ctx24):
    q1 = base_ideal(ctx24)
    m = power_of_max_ideal(ctx24, 1)
    m2 = power_of_max_ideal(ctx24, 2)
    q1m = q1.product(m)
    assert q1m.rank == 5
    assert q1.intersect(m2) == q1m


def test_product_against_basis_products(ctx24):
    # products computed from generators agree with the span of pairwise
    # products of basis vectors
    rng = random.Random(11)
    for _ in range(5):
        i1 = ideal_from_generators(ctx24, [rand_poly(ctx24, rng, min_deg=1)])
        i2 = ideal_from_generators(ctx24, [rand_poly(ctx24, rng, min_deg=1)])
        prod = i1.product(i2)
        vecs = [(a * b).to_vector() for a in i1.basis_polynomials()
                for b in i2.basis_polynomials()]
        assert prod == ideal_from_span(ctx24, vecs)


@st.composite
def monomial_ideals(draw, ctx):
    """The ideal of a few random monomials (none: the zero ideal; 1: the
    whole algebra)."""
    monos = draw(st.lists(st.sampled_from(ctx.monomials), max_size=4))
    return ideal_from_generators(ctx, [NilPolynomial.monomial(ctx, e) for e in monos])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_monomial_product_equals_dense_route(data):
    q, n = data.draw(st.integers(1, 5)), data.draw(st.integers(2, 5))
    ctx = make_context(q, n, data.draw(st.sampled_from([QQ, PrimeField(3)])))
    i, j = data.draw(monomial_ideals(ctx)), data.draw(monomial_ideals(ctx))
    assert i.product(j) == dense_product(i, j)


@pytest.mark.parametrize("q,n", [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (4, 3)])
def test_dimension_identities(q, n):
    ctx = make_context(q, n)
    D = ctx.dim
    m = power_of_max_ideal(ctx, 1)
    m2 = power_of_max_ideal(ctx, 2)
    q1 = base_ideal(ctx)
    q1m = q1.product(m)
    assert m.rank == D - 1
    assert m2.rank == D - q - 1
    assert q1.rank == D - n
    assert q1m.rank == D - q - n + 1
    assert q1.intersect(m2) == q1m


# --- automorphism action ----------------------------------------------------

def test_apply_automorphism_examples(ctx24):
    q1 = base_ideal(ctx24)
    sigma = automorphism_from_images(
        ctx24, [x(ctx24, 1), x(ctx24, 2) + x(ctx24, 1) ** 2])
    moved = apply_automorphism(sigma, q1)
    assert moved == ideal_from_generators(ctx24, [x(ctx24, 2) + x(ctx24, 1) ** 2])
    assert moved.colength == 4
    swap = lift_linear(ctx24, [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
    assert apply_automorphism(swap, q1) == ideal_from_generators(ctx24, [x(ctx24, 1)])


def test_apply_automorphism_preserves_colength(ctx34):
    rng = random.Random(12)
    ideal = random_arr_ideal(ctx34, rng)
    sigma = automorphism_from_images(
        ctx34, [x(ctx34, 1) + x(ctx34, 2) * x(ctx34, 3),
                x(ctx34, 2) + x(ctx34, 1) ** 2,
                x(ctx34, 3)])
    moved = apply_automorphism(sigma, ideal)
    moved.verify_closure()
    assert moved.colength == ideal.colength


# --- associated graded -------------------------------------------------------

def graded_slice_dims_oracle(ideal):
    """Independent oracle: dim gr_d = dim(I cap m^d) - dim(I cap m^(d+1))."""
    ctx = ideal.ctx
    dims = []
    for d in range(ctx.n):
        a = ideal.intersect(power_of_max_ideal(ctx, d)).rank
        b = ideal.intersect(power_of_max_ideal(ctx, d + 1)).rank
        dims.append(a - b)
    return dims


def graded_slice_dims(ideal):
    ctx = ideal.ctx
    dims = [0] * ctx.n
    for p in ideal.pivots:
        dims[ctx.degree_of_index(p)] += 1
    return dims


def test_associated_graded_examples(ctx23):
    ideal = ideal_from_generators(ctx23, [x(ctx23, 2) - x(ctx23, 1) ** 2])
    gr = associated_graded(ideal)
    assert gr.colength == ideal.colength == 3
    assert gr == base_ideal(ctx23)
    assert graded_slice_dims(gr) == graded_slice_dims_oracle(ideal)


def test_associated_graded_cubic_base(ctx24):
    ideal = ideal_from_generators(ctx24, [x(ctx24, 2) - x(ctx24, 1) ** 3])
    gr = associated_graded(ideal)
    assert gr == base_ideal(ctx24)
    assert graded_slice_dims(gr) == graded_slice_dims_oracle(ideal)


def test_associated_graded_properties(ctx34):
    rng = random.Random(13)
    homogeneous = power_of_max_ideal(ctx34, 2)
    assert associated_graded(homogeneous) == homogeneous
    for _ in range(5):
        ideal = random_arr_ideal(ctx34, rng)
        gr = associated_graded(ideal)
        gr.verify_closure()
        assert gr.colength == ideal.colength
        assert associated_graded(gr) == gr
        assert graded_slice_dims(gr) == graded_slice_dims_oracle(ideal)


# --- truncation --------------------------------------------------------------

def test_truncate_examples():
    ctx24 = make_context(2, 4)
    ctx23 = make_context(2, 3)
    assert truncate(base_ideal(ctx24), 3) == base_ideal(ctx23)
    ideal = ideal_from_generators(
        ctx24, [x(ctx24, 2) - x(ctx24, 1) ** 2 - x(ctx24, 1) ** 3])
    assert truncate(ideal, 3) == ideal_from_generators(
        ctx23, [x(ctx23, 2) - x(ctx23, 1) ** 2])
    with pytest.raises(ValueError):
        truncate(ideal, 4)
    with pytest.raises(ValueError):
        truncate(ideal, 1)


def test_truncate_to_degree_two_gives_base_covector(ctx34):
    from nilmoduli import base_point
    rng = random.Random(14)
    for _ in range(5):
        ideal = random_arr_ideal(ctx34, rng)
        k, c = base_point(ideal)
        cut = truncate(ideal, 2)
        k2, c2 = base_point(cut)
        assert (k, [str(v) for v in c]) == (k2, [str(v) for v in c2])


# --- regular-annihilator test -------------------------------------------------

def test_is_arr_examples(ctx23):
    assert is_arr(base_ideal(ctx23))
    assert regular_parameter(base_ideal(ctx23)) is not None
    # the square of the maximal ideal has the right colength but every
    # linear form squares into it
    m2 = power_of_max_ideal(ctx23, 2)
    assert m2.colength == 3
    assert not is_arr(m2)
    assert not is_arr(power_of_max_ideal(ctx23, 1))  # wrong colength


def test_is_arr_preserved_by_automorphisms(ctx34):
    rng = random.Random(15)
    ideal = random_arr_ideal(ctx34, rng)
    assert is_arr(ideal)
    sigma = automorphism_from_images(
        ctx34, [x(ctx34, 1), x(ctx34, 2) + x(ctx34, 1) ** 2,
                x(ctx34, 3) + x(ctx34, 1) * x(ctx34, 2)])
    assert is_arr(apply_automorphism(sigma, ideal))


def test_is_arr_over_prime_field():
    ctx = make_context(2, 3, PrimeField(2))
    assert is_arr(base_ideal(ctx))
    assert not is_arr(power_of_max_ideal(ctx, 2))


def test_linear_ideal_disagrees_with_arr_in_three_variables():
    # colength-3 ideal in three variables that meets degree one but kills
    # every linear square: "linear" without annihilating a regular tuple
    ctx = make_context(3, 3)
    ideal = ideal_from_generators(
        ctx, [x(ctx, 3), x(ctx, 1) ** 2, x(ctx, 1) * x(ctx, 2), x(ctx, 2) ** 2])
    assert ideal.colength == 3
    assert is_linear_ideal(ideal)
    assert not is_arr(ideal)


# --- the closure step against the monomial-multiple and row-image oracles ---

CLOSURE_FIELDS = [QQ, PrimeField(2), PrimeField(7)]
CLOSURE_SHAPES = [(2, 3), (2, 4), (3, 3), (3, 4)]


def scalars(field):
    if field == QQ:  # non-integral rationals
        return st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    return st.integers(0, field.p - 1).map(field.scalar)


@st.composite
def contexts(draw):
    q, n = draw(st.sampled_from(CLOSURE_SHAPES))
    return make_context(q, n, draw(st.sampled_from(CLOSURE_FIELDS)))


@st.composite
def polys(draw, ctx, lo, hi=None):
    """A polynomial supported on degrees lo..hi (default n - 1)."""
    hi = ctx.n - 1 if hi is None else hi
    monos = [e for e in ctx.monomials if lo <= sum(e) <= hi]
    terms = draw(st.lists(st.tuples(st.sampled_from(monos), scalars(ctx.field)),
                          max_size=4))
    return NilPolynomial(ctx, dict(terms))


@st.composite
def generator_lists(draw, ctx):
    """Zero polynomials, units, repeats, top-degree elements (every multiple
    truncates) and sparse elements of the maximal ideal."""
    gens = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["zero", "unit", "repeat", "top", "sparse"]))
        if kind == "repeat" and gens:
            gens.append(draw(st.sampled_from(gens)))
        elif kind == "zero":
            gens.append(NilPolynomial.zero(ctx))
        elif kind == "unit":
            c = draw(scalars(ctx.field).filter(bool))
            gens.append(NilPolynomial.one(ctx).scale(c) + draw(polys(ctx, 1)))
        else:
            gens.append(draw(polys(ctx, ctx.n - 1 if kind == "top" else 1)))
    return gens


@st.composite
def automorphisms(draw, ctx):
    """A linear automorphism, or one with higher-degree terms added."""
    q = ctx.q
    mat = draw(st.lists(st.lists(scalars(ctx.field), min_size=q, max_size=q),
                        min_size=q, max_size=q))
    assume(mat_inv(ctx.field, mat) is not None)
    if not draw(st.booleans()):
        return lift_linear(ctx, mat)
    return automorphism_from_images(
        ctx, [linear_polynomial(ctx, row) + draw(polys(ctx, 2)) for row in mat])


def same_ideal(got, want):
    assert (got.rows, got.pivots, got.generators) == \
        (want.rows, want.pivots, want.generators)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_closure_matches_monomial_multiples(data):
    ctx = data.draw(contexts())
    gens = data.draw(generator_lists(ctx))
    ideal = ideal_from_generators(ctx, gens)
    same_ideal(ideal, monomial_multiple_ideal(ctx, gens))
    ideal.verify_closure()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_moving_generators_matches_moving_rows(data):
    ctx = data.draw(contexts())
    kind = data.draw(st.sampled_from(["generated", "annihilator", "point"]))
    if kind == "generated":
        ideal = ideal_from_generators(ctx, data.draw(generator_lists(ctx)))
    elif kind == "annihilator":
        ideal = annihilator(random_regular_tuple(ctx, data.draw(st.integers(0, 50))))
    else:
        rng = random.Random(data.draw(st.integers(0, 50)))
        ideal = ideal_from_point(random_point(ctx, rng))
    sigma = data.draw(automorphisms(ctx))
    same_ideal(apply_automorphism(sigma, ideal), row_image_ideal(sigma, ideal))


@cache
def census_ideals(q, n, p):
    return brute_force_ideals(q, n, p)[1]


@pytest.mark.parametrize("q,n,p", [(2, 3, 2), (2, 4, 2), (3, 3, 2), (3, 4, 2),
                                   (2, 3, 7)])
def test_census_ideals_move_like_their_rows(q, n, p):
    # census ideals are built from their staircase and tails alone
    ctx = make_context(q, n, PrimeField(p))
    f = ctx.field.scalar
    linear = lift_linear(ctx, [[f(1 if i == j else 3 if j == i + 1 else 0)
                                for j in range(q)] for i in range(q)])
    tame = automorphism_from_images(
        ctx, [x(ctx, 1) + x(ctx, q) ** 2] + [x(ctx, i) + x(ctx, 1) * x(ctx, i - 1)
                                             for i in range(2, q + 1)])
    for ideal in census_ideals(q, n, p):
        for sigma in (linear, tame):
            same_ideal(apply_automorphism(sigma, ideal), row_image_ideal(sigma, ideal))


def test_verify_closure_rejects_an_open_span(ctx34):
    # x1 alone spans no ideal: x1^2 is outside the span
    with pytest.raises(InternalCheckError, match="multiplication by x1"):
        ideal_from_span(ctx34, [x(ctx34, 1).to_vector()]).verify_closure()
    # the monomials in x1, x2 alone are closed under x1 and x2, not x3
    no_x3 = [NilPolynomial.monomial(ctx34, e).to_vector()
             for e in ctx34.monomials if sum(e) and not e[2]]
    with pytest.raises(InternalCheckError, match="multiplication by x3"):
        ideal_from_span(ctx34, no_x3).verify_closure()
    # x1 moves every row but the last inside the span, x1 * x2^2 leaves it
    late = [x(ctx34, 1), x(ctx34, 1) ** 2, x(ctx34, 1) ** 3, x(ctx34, 2) ** 2]
    with pytest.raises(InternalCheckError, match="multiplication by x1"):
        ideal_from_span(ctx34, [f.to_vector() for f in late]).verify_closure()

