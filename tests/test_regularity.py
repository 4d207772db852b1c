"""The rank test for regularity against the exhaustive grid search.

is_arr and regular_parameter read the degree-1 hyperplane off the RREF
pivots, and is_regular looks only at the single matrices N_i; the grid
search in conftest.grid_witness decides both questions independently.
"""

import pytest

from nilmoduli import (annihilator, base_point, brute_force_ideals, conjugate,
                       ideal_from_generators, is_arr, is_regular, make_context,
                       multiplication_matrices, random_regular_tuple,
                       regular_parameter)

from conftest import grid_witness, x


def check_ideal(ideal):
    witness = grid_witness(ideal)
    assert is_arr(ideal) == (witness is not None)
    assert regular_parameter(ideal) == witness
    if witness is not None:
        chart, _ = base_point(ideal)
        assert witness[chart - 1] == ideal.ctx.field.one


def check_tuple(t):
    witness = grid_witness(t)
    assert is_regular(t) == (witness is not None, witness)


def mixed(t):
    """t conjugated by the unit upper-triangular matrix of ones."""
    n, field = t.ctx.n, t.ctx.field
    g = [[field.one if c >= r else field.zero for c in range(n)] for r in range(n)]
    return conjugate(t, g)


def non_curvilinear(ctx):
    """(x1^(n-1), x1 x2, x2^2, x3, ..., xq): colength n, but its degree-1
    span has dimension q - 2."""
    gens = [x(ctx, 1) ** (ctx.n - 1), x(ctx, 1) * x(ctx, 2), x(ctx, 2) ** 2]
    return ideal_from_generators(ctx, gens + [x(ctx, i) for i in range(3, ctx.q + 1)])


@pytest.mark.parametrize("q,n,p", [(2, 3, 2), (2, 3, 3), (2, 4, 2), (3, 3, 2)])
def test_rank_test_matches_grid_on_census(q, n, p):
    _, ideals = brute_force_ideals(q, n, p)
    verdicts = set()
    for ideal in ideals:
        check_ideal(ideal)
        check_tuple(mixed(multiplication_matrices(ideal)))
        verdicts.add(is_arr(ideal))
    assert verdicts == {True, False}


def test_rank_test_matches_grid_over_q(cyclic_not_regular):
    check_tuple(cyclic_not_regular)
    for (q, n) in [(2, 4), (3, 4)]:
        ideal = non_curvilinear(make_context(q, n))
        assert ideal.colength == n
        check_ideal(ideal)
        check_tuple(mixed(multiplication_matrices(ideal)))
    for seed in range(3):
        t = random_regular_tuple(make_context(3, 4), seed)
        check_tuple(t)
        check_ideal(annihilator(t))
