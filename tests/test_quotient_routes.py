"""The quotient routes against the dim-sized routes kept as oracles.

annihilator is the orbit kernel of the module generators and must give
the two-pass ideal; ideal_from_point and normal_form_ideal are orbit
kernels in k[u]/u^n and must give the ideals built from generators;
moduli_point, transition_map and tuple_point read the point in a basis of
the quotient and must agree with pulling the ideal back by the chart
section and with the annihilator; recover_conjugator decides conjugacy by
the Krylov frame alone.
"""

import random
from fractions import Fraction

import pytest

from nilmoduli import (QQ, ModuliPoint, NilTuple, PrimeField, annihilator,
                       brute_force_ideals, conjugate, enumerate_moduli_points,
                       ideal_from_generators, ideal_from_point, is_arr,
                       is_regular, make_context, moduli_count_formula,
                       moduli_point, multiplication_matrices,
                       normal_form_ideal, random_regular_tuple,
                       recover_conjugator, transition_map, tuple_point)
from nilmoduli.linalg import mat_mul

from conftest import (coset_moduli_point, e_matrix, section_fiber,
                      section_ideal, shift_matrix, two_pass_annihilator, x)
from test_regularity import mixed, non_curvilinear

F5 = PrimeField(5)


def draw(field, rng, nonzero=False):
    return field.scalar(rng.choice((-2, -1, 1, 2) if nonzero else (-2, -1, 0, 1, 2)))


def point_on_chart(ctx, chart, rng, all_nonzero=False):
    """Random point on the chart; canonical unless all_nonzero, which also
    fills the covector entries before the chart."""
    field = ctx.field
    c = [field.zero] * ctx.q
    for j in range(ctx.q):
        if j > chart - 1 or all_nonzero:
            c[j] = draw(field, rng, all_nonzero)
    c[chart - 1] = field.one
    b = [[draw(field, rng) for _ in range(ctx.n - 2)] for _ in range(ctx.q - 1)]
    return ModuliPoint(ctx, chart, c, b)


def sample_tuples(field):
    """Regular, cyclic non-regular and non-cyclic tuples over the field."""
    out = []
    for (q, n) in [(2, 3), (3, 4)]:
        ctx = make_context(q, n, field)
        out += [random_regular_tuple(ctx, seed) for seed in (1, 2)]
        out.append(mixed(multiplication_matrices(non_curvilinear(ctx)))
                   if q > 2 else
                   NilTuple(ctx, [e_matrix(ctx.field, 3, 2, 1),
                                  e_matrix(ctx.field, 3, 3, 1)]))
    ctx = make_context(2, 3, field)
    zero = [[ctx.field.zero] * 3 for _ in range(3)]
    out.append(NilTuple(ctx, [zero, zero]))
    out.append(NilTuple(ctx, [e_matrix(ctx.field, 3, 2, 1), zero]))
    return out


@pytest.mark.parametrize("field", [QQ, F5])
def test_annihilator_matches_two_pass(field):
    kinds = set()
    for t in sample_tuples(field):
        got, want = annihilator(t), two_pass_annihilator(t)
        assert got == want
        assert got.pivots == want.pivots
        assert got.generators == want.generators
        kinds.add((got.colength == t.ctx.n, is_regular(t)[0]))
    assert kinds == {(True, True), (True, False), (False, False)}


@pytest.mark.parametrize("q,n,p", [(2, 3, 3), (2, 4, 2), (3, 3, 2)])
def test_moduli_point_matches_section_route_on_census(q, n, p):
    _, ideals = brute_force_ideals(q, n, p)
    regular = [ideal for ideal in ideals if is_arr(ideal)]
    assert len(regular) == moduli_count_formula(q, n, p)
    for ideal in regular:
        point = moduli_point(ideal)
        assert point.b == section_fiber(ideal, point.chart, point.c)


@pytest.mark.parametrize("q,n,p", [(2, 4, 3), (3, 3, 2)])
def test_moduli_point_matches_coset_route_on_census(q, n, p):
    points = enumerate_moduli_points(q, n, p)
    assert len(points) == moduli_count_formula(q, n, p)
    for point in points:
        ideal = ideal_from_point(point)
        assert moduli_point(ideal) == coset_moduli_point(ideal) == point


@pytest.mark.parametrize("q,n", [(3, 5), (4, 6)])
def test_moduli_point_matches_coset_route_on_rational_points(q, n):
    """Canonical points on every chart with entries p/d, |p| <= 3, d <= 5."""
    rng = random.Random(q * 10 + n)
    ctx = make_context(q, n)
    frac = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 5))
    for chart in range(1, q + 1):
        for _ in range(3):
            c = [0] * (chart - 1) + [1] + [frac() for _ in range(q - chart)]
            b = [[frac() for _ in range(n - 2)] for _ in range(q - 1)]
            ideal = ideal_from_point(ModuliPoint(ctx, chart, c, b))
            assert moduli_point(ideal) == coset_moduli_point(ideal)
            assert moduli_point(ideal) == ModuliPoint(ctx, chart, c, b)


def test_moduli_point_matches_section_route_on_every_chart():
    rng = random.Random(41)
    for (q, n) in [(2, 5), (3, 4), (4, 4)]:
        ctx = make_context(q, n)
        for chart in range(1, q + 1):
            point = point_on_chart(ctx, chart, rng)
            ideal = ideal_from_point(point)
            assert moduli_point(ideal) == point
            assert point.b == section_fiber(ideal, chart, point.c)


def assert_same_ideal(got, want):
    assert got == want
    assert got.pivots == want.pivots
    assert got.generators == want.generators


@pytest.mark.parametrize("q,n,p", [(2, 3, 3), (2, 4, 2), (3, 3, 2)])
def test_ideal_from_point_matches_section_route_on_census(q, n, p):
    for point in enumerate_moduli_points(q, n, p):
        assert_same_ideal(ideal_from_point(point), section_ideal(point))


def test_ideal_from_point_matches_section_route_on_every_chart():
    rng = random.Random(53)
    for (q, n) in [(2, 5), (3, 4), (4, 4)]:
        ctx = make_context(q, n)
        for chart in range(1, q + 1):
            for all_nonzero in (False, True):
                point = point_on_chart(ctx, chart, rng, all_nonzero)
                assert_same_ideal(ideal_from_point(point), section_ideal(point))


@pytest.mark.parametrize("field", [QQ, F5])
def test_normal_form_ideal_matches_generators(field):
    rng = random.Random(59)
    for (q, n) in [(2, 3), (2, 5), (3, 4), (4, 4)]:
        ctx = make_context(q, n, field)
        b = [[draw(field, rng) for _ in range(n - 2)] for _ in range(q - 1)]
        gens = []
        for i, row in enumerate(b, 2):
            g = x(ctx, i)
            for j, coef in enumerate(row, 2):
                g = g - (x(ctx, 1) ** j).scale(coef)
            gens.append(g)
        assert_same_ideal(normal_form_ideal(ctx, b), ideal_from_generators(ctx, gens))


def test_transition_map_matches_section_route():
    rng = random.Random(43)
    ctx = make_context(3, 4)
    for chart in range(1, 4):
        for _ in range(2):
            point = point_on_chart(ctx, chart, rng, all_nonzero=True)
            ideal = ideal_from_point(point)
            for target in range(1, 4):
                if target == chart:
                    continue
                c = tuple(v / point.c[target - 1] for v in point.c)
                want = ModuliPoint(ctx, target, c, section_fiber(ideal, target, c))
                assert transition_map(point, target) == want


def test_recover_conjugator_by_krylov_frame():
    rng = random.Random(47)
    ctx = make_context(3, 4, F5)
    for chart in range(1, 4):
        point = point_on_chart(ctx, chart, rng)
        other = point
        while other == point:
            other = point_on_chart(ctx, chart, rng)
        t1, t2, t3 = (random_regular_tuple(ctx, seed, point=pt)
                      for seed, pt in ((1, point), (2, point), (3, other)))
        g = recover_conjugator(t1, t2)
        assert g is not None and conjugate(t1, g) == t2
        # same first regular index, distinct points
        assert is_regular(t1) == is_regular(t3)
        assert recover_conjugator(t1, t3) is None
    # different first regular index
    ctx = make_context(2, 3, F5)
    j = shift_matrix(ctx.field, 3)
    zero = [[ctx.field.zero] * 3 for _ in range(3)]
    assert recover_conjugator(NilTuple(ctx, [j, zero]), NilTuple(ctx, [zero, j])) is None


def test_recover_conjugator_rejects_non_regular(cyclic_not_regular):
    regular = random_regular_tuple(cyclic_not_regular.ctx, 5)
    for pair in [(cyclic_not_regular, cyclic_not_regular),
                 (regular, cyclic_not_regular), (cyclic_not_regular, regular)]:
        with pytest.raises(ValueError):
            recover_conjugator(*pair)


def dense_unimodular(field, n, rng):
    """L U with L unit lower and U unit upper triangular, every entry below
    (above) the diagonal nonzero: a dense matrix of determinant 1."""
    lower = [[field.one if r == c else draw(field, rng, True) if r > c else field.zero
              for c in range(n)] for r in range(n)]
    upper = [[field.one if r == c else draw(field, rng, True) if r < c else field.zero
              for c in range(n)] for r in range(n)]
    return mat_mul(lower, upper)


@pytest.mark.parametrize("field", [QQ, F5])
def test_tuple_point_matches_annihilator_route(field):
    rng = random.Random(61)
    for (q, n) in [(2, 4), (3, 4), (3, 5)]:
        ctx = make_context(q, n, field)
        for seed in (1, 2):
            t = random_regular_tuple(ctx, seed)
            assert tuple_point(t) == moduli_point(annihilator(t))
        for chart in range(1, q + 1):
            point = point_on_chart(ctx, chart, rng)
            model = multiplication_matrices(ideal_from_point(point))
            for t in (random_regular_tuple(ctx, chart, point=point),
                      conjugate(model, dense_unimodular(field, n, rng))):
                assert tuple_point(t) == moduli_point(annihilator(t)) == point


def test_tuple_point_rejects_non_regular(cyclic_not_regular):
    with pytest.raises(ValueError):
        tuple_point(cyclic_not_regular)
