"""The staircase-and-tails form of an ideal against the dense routes.

Every ideal is compared with a fresh dense RowSpace of all monomial
multiples of its generators: the derived rows and pivots must be that
RREF, reduction its normal form, the intersection the null space of the
stacked complements, and regularity the reading of the degree-1 rows.
The generators are the rows of the corners of the staircase, one per
corner, and they generate the ideal again.  An ideal moved by an
automorphism, an orbit kernel on its quotient, is the span of the moved
echelon rows.
"""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from nilmoduli import (QQ, ContextMismatch, NilPolynomial, PrimeField,
                       annihilator, apply_automorphism, associated_graded,
                       automorphism_from_images, base_ideal, base_point,
                       compose, ideal_from_generators, ideal_from_point,
                       invert, is_arr, lift_linear, linear_polynomial,
                       make_context, power_of_max_ideal, random_point,
                       random_regular_tuple, truncate, zero_ideal)
from nilmoduli.ideals import ideal_from_span
from nilmoduli.linalg import mat_inv

from conftest import (hyperplane_base_point, hyperplane_is_arr,
                      monomial_multiple_ideal, monomial_multiple_space,
                      nullspace_intersect, row_image_ideal, x)
from test_ideals import (CLOSURE_FIELDS, CLOSURE_SHAPES, census_ideals,
                         contexts, generator_lists, polys, same_ideal, scalars)

KINDS = ["generated", "span", "annihilator", "point", "census", "power",
         "base", "sum", "product", "intersect", "graded", "truncate"]


@st.composite
def ideals(draw, ctx, kinds=KINDS):
    """An ideal of ctx (of a smaller context for truncate) from one of the
    constructors; census ideals are drawn over F_2 only."""
    kind = draw(st.sampled_from(kinds))

    def generated():
        return ideal_from_generators(ctx, draw(generator_lists(ctx)))
    if kind == "span":  # the rows mixed by a triangular change of basis
        gen = generated()
        rows = [list(r) for r in gen.rows]
        for a, b in zip(rows, rows[1:]):
            c = draw(scalars(ctx.field))
            a[:] = [u + c * v for u, v in zip(a, b)]
        return ideal_from_span(ctx, rows)
    if kind == "annihilator":
        return annihilator(random_regular_tuple(ctx, draw(st.integers(0, 50))))
    if kind == "point" or (kind == "census" and ctx.field != PrimeField(2)):
        return ideal_from_point(random_point(ctx, random.Random(draw(st.integers(0, 50)))))
    if kind == "census":
        found = census_ideals(ctx.q, ctx.n, 2)
        return found[draw(st.integers(0, len(found) - 1))]
    if kind == "power":
        return power_of_max_ideal(ctx, draw(st.integers(0, ctx.n)))
    if kind == "base":
        return base_ideal(ctx)
    if kind in ("sum", "product", "intersect"):
        return getattr(generated(), kind)(generated())
    if kind == "graded":
        return associated_graded(draw(ideals(ctx, ["generated", "point"])))
    if kind == "truncate":
        return truncate(generated(), draw(st.integers(2, ctx.n - 1)))
    return generated()


def dense_space(ideal):
    return monomial_multiple_space(ideal.ctx, ideal.generators)


def corners(ideal):
    """The pivots m with every m / x_i on the staircase, read by division."""
    ctx, stair = ideal.ctx, set(ideal.stair)

    def divisors(e):
        return [ctx.index[e[:i] + (e[i] - 1,) + e[i + 1:]] for i in range(ctx.q) if e[i]]
    return [m for m in ideal.pivots if stair.issuperset(divisors(ctx.monomials[m]))]


def same_regularity(ideal):
    assert is_arr(ideal) == hyperplane_is_arr(ideal)
    try:
        want = hyperplane_base_point(ideal)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            base_point(ideal)
    else:
        assert base_point(ideal) == want


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_rows_are_the_rref_of_the_span(data):
    ctx = data.draw(contexts())
    ideal = data.draw(ideals(ctx))
    sp = dense_space(ideal)
    assert ideal.rows == tuple(sp.basis())
    assert ideal.pivots == tuple(sp.pivots)
    assert sorted(ideal.stair + ideal.pivots) == list(range(ideal.ctx.dim))
    assert ideal.rank + ideal.colength == ideal.ctx.dim
    oracle = ideal_from_span(ideal.ctx, sp.basis())
    assert ideal == oracle and hash(ideal) == hash(oracle)
    ideal.verify_closure()
    same_regularity(ideal)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_reduce_is_the_dense_normal_form(data):
    ctx = data.draw(contexts())
    ideal = data.draw(ideals(ctx))
    ctx, sp = ideal.ctx, dense_space(ideal)
    f = data.draw(polys(ctx, 0))
    if ideal.generators and data.draw(st.booleans()):  # an element of the ideal, plus f
        f = f + data.draw(st.sampled_from(ideal.generators)) * data.draw(polys(ctx, 0))
    assert ideal.reduce(f).to_vector() == sp.reduce(f.to_vector())
    assert ideal.contains(f) == sp.contains(f.to_vector())


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_intersect_is_the_nullspace_stack(data):
    ctx = data.draw(contexts())
    kinds = [k for k in KINDS if k != "truncate"]
    i, j = data.draw(ideals(ctx, kinds)), data.draw(ideals(ctx, kinds))
    same_ideal(i.intersect(j), nullspace_intersect(i, j))


@pytest.mark.parametrize("q,n,p", [(2, 3, 2), (2, 4, 3), (2, 5, 2), (3, 3, 2),
                                   (3, 3, 3), (3, 4, 2), (4, 3, 2)])
def test_regularity_reads_like_the_hyperplane_rows(q, n, p):
    # the census walks every staircase of colength n
    for ideal in census_ideals(q, n, p):
        same_regularity(ideal)


@pytest.mark.parametrize("field", CLOSURE_FIELDS, ids=str)
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_generators_are_the_corner_rows(kind, field, data):
    ctx = make_context(*data.draw(st.sampled_from(CLOSURE_SHAPES)), field)
    ideal = data.draw(ideals(ctx, [kind]))
    ctx, gens = ideal.ctx, ideal.generators
    assert ideal_from_generators(ctx, gens) == ideal
    # one generator per corner, each an echelon row led by its corner
    assert [min(ctx.index[e] for e in g.terms) for g in gens] == corners(ideal)
    assert set(gens) <= set(ideal.basis_polynomials())
    assert tuple(monomial_multiple_space(ctx, gens).basis()) == ideal.rows


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_sum_product_truncate_close_their_inputs(data):
    # the oracle is the dense closure of the inputs' own generators, not of
    # the corner rows the results derive
    ctx = data.draw(contexts())
    g, h = data.draw(generator_lists(ctx)), data.draw(generator_lists(ctx))
    i, j = ideal_from_generators(ctx, g), ideal_from_generators(ctx, h)
    same_ideal(i.sum(j), monomial_multiple_ideal(ctx, g + h))
    same_ideal(i.product(j), monomial_multiple_ideal(ctx, [a * b for a in g for b in h]))
    m = data.draw(st.integers(2, ctx.n - 1))
    tgt = make_context(ctx.q, m, ctx.field)
    cut = [NilPolynomial(tgt, {e: c for e, c in a.terms.items() if sum(e) < m}) for a in g]
    same_ideal(truncate(i, m), monomial_multiple_ideal(tgt, cut))


MOVES = ["linear", "tame", "composed", "inverted"]


@st.composite
def moves(draw, ctx, kind):
    """An automorphism of ctx: linear (lift_linear), tame (linear plus
    higher-degree terms, automorphism_from_images), or a composite or
    inverse of those."""
    if kind == "composed":
        return compose(draw(moves(ctx, "tame")), draw(moves(ctx, "linear")))
    if kind == "inverted":
        return invert(draw(moves(ctx, draw(st.sampled_from(["linear", "tame"])))))
    q = ctx.q
    mat = draw(st.lists(st.lists(scalars(ctx.field), min_size=q, max_size=q),
                        min_size=q, max_size=q).filter(
                            lambda m: mat_inv(ctx.field, m) is not None))
    if kind == "linear" or ctx.n == 2:  # at n = 2 every automorphism is linear
        return lift_linear(ctx, mat)
    return automorphism_from_images(
        ctx, [linear_polynomial(ctx, row) + draw(polys(ctx, 2)) for row in mat])


def same_move(sigma, ideal):
    moved = apply_automorphism(sigma, ideal)
    want = row_image_ideal(sigma, ideal)
    assert (moved.stair, moved.tails) == (want.stair, want.tails)
    assert apply_automorphism(invert(sigma), moved) == ideal


@pytest.mark.parametrize("field", CLOSURE_FIELDS, ids=str)
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_moved_ideal_is_the_span_of_the_moved_rows(kind, field, data):
    ctx = make_context(*data.draw(st.sampled_from(CLOSURE_SHAPES)), field)
    ideal = data.draw(ideals(ctx, [kind]))
    same_move(data.draw(moves(ideal.ctx, data.draw(st.sampled_from(MOVES)))), ideal)


@pytest.mark.parametrize("field", CLOSURE_FIELDS, ids=str)
@pytest.mark.parametrize("move", MOVES)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_extreme_ideals_move_like_their_rows(move, field, data):
    # colength dim (zero ideal) down to 0 (the whole algebra, m^0)
    ctx = make_context(*data.draw(st.sampled_from(CLOSURE_SHAPES)), field)
    sigma = data.draw(moves(ctx, move))
    for ideal in [zero_ideal(ctx), base_ideal(ctx),
                  *(power_of_max_ideal(ctx, j) for j in range(ctx.n + 1))]:
        same_move(sigma, ideal)


def test_apply_automorphism_rejects_other_contexts():
    ctx = make_context(2, 4)
    ideal = base_ideal(ctx)
    for other in [make_context(2, 4, PrimeField(7)), make_context(2, 3, QQ),
                  make_context(3, 4, QQ)]:
        sigma = lift_linear(other, [[1 if i == j else 0 for j in range(other.q)]
                                    for i in range(other.q)])
        with pytest.raises(ContextMismatch):
            apply_automorphism(sigma, ideal)


def test_apply_automorphism_rejects_wrong_types():
    ctx = make_context(2, 4)
    sigma = lift_linear(ctx, [[1, 1], [0, 1]])
    for bad in [None, [], "ideal", x(ctx, 1), base_ideal(ctx).tails]:
        with pytest.raises(TypeError, match=f"^ideal must be an Ideal, not {type(bad).__name__}$"):
            apply_automorphism(sigma, bad)
    # a bare AlgebraMap has no inverse to read the moved quotient with
    for bad in [None, sigma.fwd, sigma.fwd.images]:
        with pytest.raises(TypeError, match=f"^sigma must be an Automorphism, not {type(bad).__name__}$"):
            apply_automorphism(bad, base_ideal(ctx))
