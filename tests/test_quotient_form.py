"""The staircase-and-tails form of an ideal against the dense routes.

Every ideal is compared with a fresh dense RowSpace of all monomial
multiples of its generators: the derived rows and pivots must be that
RREF, reduction its normal form, the intersection the null space of the
stacked complements, and regularity the reading of the degree-1 rows.
The generators are the rows of the corners of the staircase, one per
corner, and they generate the ideal again.
"""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from nilmoduli import (NilPolynomial, PrimeField, annihilator,
                       associated_graded, base_ideal, base_point,
                       ideal_from_generators, ideal_from_point, is_arr,
                       make_context, power_of_max_ideal, random_point,
                       random_regular_tuple, truncate)
from nilmoduli.ideals import ideal_from_span

from conftest import (hyperplane_base_point, hyperplane_is_arr,
                      monomial_multiple_ideal, monomial_multiple_space,
                      nullspace_intersect)
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
