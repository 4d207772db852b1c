from itertools import chain, product

import pytest

from nilmoduli import (NilPolynomial, NilTuple, PrimeField, apply_automorphism,
                       chart_section, evaluate, fiber_coordinates,
                       ideal_from_span, invert, linear_polynomial,
                       make_context)
from nilmoduli.linalg import nullspace, transpose


def shift_matrix(field, n, power=1):
    """Nilpotent shift J (ones on the subdiagonal) raised to a power."""
    m = [[field.zero] * n for _ in range(n)]
    for i in range(n - power):
        m[i + power][i] = field.one
    return m


def e_matrix(field, n, r, c):
    """Elementary matrix with a single 1 at (row r, col c), 1-based."""
    m = [[field.zero] * n for _ in range(n)]
    m[r - 1][c - 1] = field.one
    return m


def x(ctx, i):
    return NilPolynomial.variable(ctx, i)


@pytest.fixture
def ctx23():
    return make_context(2, 3)


@pytest.fixture
def ctx24():
    return make_context(2, 4)


@pytest.fixture
def ctx34():
    return make_context(3, 4)


@pytest.fixture
def cyclic_not_regular(ctx23):
    f = ctx23.field
    return NilTuple(ctx23, [e_matrix(f, 3, 2, 1), e_matrix(f, 3, 3, 1)])


def grid_witness(target):
    """Regularity by exhaustive search, the oracle for the rank test.

    The first coefficient vector a, unit vectors first and then the grid
    {0..n-1}^q over Q or all of F_p^q, for which u = sum a_i x_i has
    u^(n-1) outside the ideal (target an Ideal) or acting as a nonzero
    matrix (target a NilTuple); None when there is none.  Over Q the grid
    decides, since u^(n-1) has degree n-1 in each a_i.
    """
    ctx = target.ctx
    field, q, n = ctx.field, ctx.q, ctx.n

    def top_survives(a):
        top = linear_polynomial(ctx, a) ** (n - 1)
        if isinstance(target, NilTuple):
            return any(c for row in evaluate(target, top) for c in row)
        return not target.contains(top)

    units = ([field.one if j == i else field.zero for j in range(q)]
             for i in range(q))
    values = range(field.p) if isinstance(field, PrimeField) else range(n)
    grid = ([field.scalar(v) for v in a] for a in product(values, repeat=q))
    return next((a for a in chain(units, grid) if any(a) and top_survives(a)),
                None)


def two_pass_annihilator(t):
    """The annihilator in two eliminations, the oracle for the one-pass
    route: null space of the evaluation map, then an RREF of its span."""
    ctx = t.ctx
    n = ctx.n
    cols = []
    for e in ctx.monomials:
        mat = evaluate(t, NilPolynomial.monomial(ctx, e))
        cols.append([mat[r][s] for r in range(n) for s in range(n)])
    return ideal_from_span(ctx, nullspace(ctx.field, transpose(cols), ctx.dim))


def section_fiber(ideal, k, c):
    """Fiber matrix by moving the ideal, the oracle for the quotient
    reading: pull the ideal back by the chart section of (k, c) and read
    the chart-normalized ideal."""
    section = chart_section(ideal.ctx, k, c)
    return fiber_coordinates(apply_automorphism(invert(section), ideal))
