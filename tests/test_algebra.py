import random
from fractions import Fraction
from math import comb

import pytest

from nilmoduli import (BudgetExceeded, ContextMismatch, NilPolynomial,
                       PrimeField, automorphism_from_images, compose, filtration_level,
                       identity_automorphism, invert, is_linearly_trivial,
                       lift_linear, linear_polynomial, make_context)
from nilmoduli import census
from nilmoduli.algebra import MAX_DIM, AlgebraContext, AlgebraMap
from nilmoduli.linalg import identity_matrix, mat_eq, mat_mul

from conftest import x


def rand_poly(ctx, rng, min_deg=0, height=3):
    terms = {}
    for e in ctx.monomials:
        if sum(e) >= min_deg and rng.random() < 0.4:
            c = ctx.field.scalar(rng.randint(-height, height))
            if c:
                terms[e] = c
    return NilPolynomial(ctx, terms)


# --- contexts -------------------------------------------------------------

def test_context_dimensions():
    assert make_context(2, 3).dim == 6
    assert make_context(2, 4).dim == 10
    ctx = make_context(1, 2)
    assert ctx.dim == 2
    assert ctx.monomials == [(0,), (1,)]


@pytest.mark.parametrize("q", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_dimension_formula_and_slices(q, n):
    ctx = make_context(q, n)
    assert ctx.dim == comb(q + n - 1, n - 1)
    for d in range(n):
        stop = ctx.deg_start[d + 1]
        assert stop - ctx.deg_start[d] == comb(q + d - 1, d)


def test_context_validation():
    with pytest.raises(ValueError):
        make_context(0, 3)
    with pytest.raises(ValueError):
        make_context(2, 1)
    with pytest.raises(ValueError):
        make_context(2, 3, "Fp:10")


def test_monomial_order_is_graded_lex():
    ctx = make_context(2, 3)
    assert ctx.monomials == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


# --- ring arithmetic ------------------------------------------------------

def test_multiply_truncates(ctx23):
    x1, x2 = x(ctx23, 1), x(ctx23, 2)
    assert x1 * x2 == NilPolynomial.monomial(ctx23, (1, 1))
    assert (x1 ** 2 * x2).is_zero()


def test_binomial_expansion_oracle(ctx24):
    # expand (x1+x2)^3 by repeated multiplication and compare against the
    # binomial formula computed independently
    x1, x2 = x(ctx24, 1), x(ctx24, 2)
    lhs = (x1 + x2) ** 3
    rhs = NilPolynomial.zero(ctx24)
    for k in range(4):
        rhs = rhs + NilPolynomial.monomial(ctx24, (3 - k, k)).scale(comb(3, k))
    assert lhs == rhs


def test_nilpotency_of_max_ideal():
    rng = random.Random(3)
    for (q, n) in [(2, 3), (3, 4)]:
        ctx = make_context(q, n)
        prod = NilPolynomial.one(ctx)
        for _ in range(n):
            f = rand_poly(ctx, rng, min_deg=1)
            while f.is_zero():
                f = rand_poly(ctx, rng, min_deg=1)
            prod = prod * f
        assert prod.is_zero()


def test_context_mismatch_rejected(ctx23, ctx24):
    with pytest.raises(ContextMismatch):
        x(ctx23, 1) + x(ctx24, 1)


# --- substitution ---------------------------------------------------------

def test_apply_map_identity(ctx24):
    rng = random.Random(4)
    ident = identity_automorphism(ctx24)
    for _ in range(5):
        f = rand_poly(ctx24, rng)
        assert ident(f) == f


def test_apply_map_substitution_examples(ctx24):
    x1, x2 = x(ctx24, 1), x(ctx24, 2)
    sigma = automorphism_from_images(ctx24, [x1, x2 + x1 ** 2])
    assert sigma(x2) == x2 + x1 ** 2
    # x2^2 -> x2^2 + 2 x1^2 x2 (the x1^4 term truncates)
    assert sigma(x2 ** 2) == x2 ** 2 + (x1 ** 2 * x2).scale(2)


def test_apply_map_is_ring_homomorphism(ctx34):
    rng = random.Random(5)
    imgs = [x(ctx34, 1) + x(ctx34, 2) ** 2,
            x(ctx34, 2) + x(ctx34, 1) * x(ctx34, 3),
            x(ctx34, 3) - x(ctx34, 1) ** 2]
    sigma = automorphism_from_images(ctx34, imgs)
    for _ in range(5):
        f, g = rand_poly(ctx34, rng), rand_poly(ctx34, rng)
        assert sigma(f * g) == sigma(f) * sigma(g)
        assert sigma(f + g) == sigma(f) + sigma(g)


def test_nonzero_constant_term_rejected(ctx23):
    with pytest.raises(ValueError):
        AlgebraMap(ctx23, [x(ctx23, 1) + NilPolynomial.one(ctx23), x(ctx23, 2)])


# --- linear parts and the composition convention --------------------------

def test_linear_part_examples(ctx23):
    ident = identity_automorphism(ctx23)
    assert mat_eq(ident.linear_part(), identity_matrix(ctx23.field, 2))
    swap = automorphism_from_images(ctx23, [x(ctx23, 2), x(ctx23, 1)])
    assert [[int(c) for c in row] for row in swap.linear_part()] == [[0, 1], [1, 0]]
    quadratic = automorphism_from_images(
        ctx23, [x(ctx23, 1) + x(ctx23, 2) ** 2, x(ctx23, 2) + x(ctx23, 1) ** 2])
    assert mat_eq(quadratic.linear_part(), identity_matrix(ctx23.field, 2))
    assert is_linearly_trivial(quadratic)


def test_composition_convention(ctx23):
    # compose(s, t) applies t first; hence linear parts multiply reversed
    # and lifts satisfy lift(A) o lift(B) = lift(B @ A)
    a = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]
    b = [[Fraction(1), Fraction(0)], [Fraction(3), Fraction(1)]]
    la, lb = lift_linear(ctx23, a), lift_linear(ctx23, b)
    lhs = compose(la, lb)
    assert mat_eq(lhs.linear_part(), mat_mul(b, a))
    assert lhs.fwd == lift_linear(ctx23, mat_mul(b, a)).fwd
    rng = random.Random(6)
    s = automorphism_from_images(
        ctx23, [x(ctx23, 1) + x(ctx23, 2) + x(ctx23, 1) ** 2, x(ctx23, 2)])
    t = automorphism_from_images(
        ctx23, [x(ctx23, 1), x(ctx23, 1) - x(ctx23, 2) + x(ctx23, 1) * x(ctx23, 2)])
    st = compose(s, t)
    assert mat_eq(st.linear_part(), mat_mul(t.linear_part(), s.linear_part()))
    f = rand_poly(ctx23, rng)
    assert st(f) == s(t(f))


def test_lift_linear_examples(ctx23):
    t = lift_linear(ctx23, [[Fraction(5), Fraction(0)], [Fraction(0), Fraction(1)]])
    assert t(x(ctx23, 1)) == x(ctx23, 1).scale(5)
    assert t(x(ctx23, 2)) == x(ctx23, 2)
    u = lift_linear(ctx23, [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]])
    x1, x2 = x(ctx23, 1), x(ctx23, 2)
    assert u(x1 ** 2) == x1 ** 2 + (x1 * x2).scale(2) + x2 ** 2
    with pytest.raises(ValueError):
        lift_linear(ctx23, [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]])


# --- inversion -------------------------------------------------------------

def test_invert_examples(ctx24):
    ident = identity_automorphism(ctx24)
    assert invert(ident).fwd == ident.fwd
    x1, x2 = x(ctx24, 1), x(ctx24, 2)
    sigma = automorphism_from_images(ctx24, [x1, x2 + x1 ** 2])
    assert invert(sigma).images == (x1, x2 - x1 ** 2)


def test_invert_random_round_trip():
    ctx = make_context(3, 4)
    rng = random.Random(7)
    for _ in range(10):
        while True:
            imgs = []
            for i in range(3):
                lin = [ctx.field.scalar(rng.randint(-2, 2)) for _ in range(3)]
                imgs.append(linear_polynomial(ctx, lin) + rand_poly(ctx, rng, min_deg=2, height=2))
            try:
                sigma = automorphism_from_images(ctx, imgs)
                break
            except ValueError:
                continue  # singular linear part, redraw
        assert compose(sigma, invert(sigma)).fwd.is_identity()
        assert compose(invert(sigma), sigma).fwd.is_identity()


def test_invert_over_prime_field():
    ctx = make_context(2, 4, PrimeField(5))
    x1, x2 = x(ctx, 1), x(ctx, 2)
    sigma = automorphism_from_images(
        ctx, [x1 + (x2 ** 2).scale(3), x2 + (x1 ** 2).scale(2) + (x1 ** 3).scale(4)])
    assert compose(sigma, invert(sigma)).fwd.is_identity()


# --- filtration -------------------------------------------------------------

def test_filtration_levels():
    ctx = make_context(2, 5)
    x1, x2 = x(ctx, 1), x(ctx, 2)
    assert filtration_level(identity_automorphism(ctx)) == 3  # n - 2
    assert filtration_level(automorphism_from_images(ctx, [x1, x2 + x1 ** 2])) == 0
    assert filtration_level(automorphism_from_images(ctx, [x1, x2 + x1 ** 3])) == 1
    swap = automorphism_from_images(ctx, [x2, x1])
    assert filtration_level(swap) is None


def test_filtration_additivity_mod_next_level():
    # at level >= j the defect of a composition is the sum of the defects
    # modulo m^(j+3)
    ctx = make_context(2, 5)
    rng = random.Random(8)
    for j in (0, 1):
        for _ in range(5):
            def draw():
                imgs = [x(ctx, i + 1) + rand_poly(ctx, rng, min_deg=j + 2, height=2)
                        for i in range(2)]
                return automorphism_from_images(ctx, imgs)
            s, t = draw(), draw()
            st = compose(s, t)
            assert (filtration_level(st) or 0) >= j
            for i in range(2):
                xi = x(ctx, i + 1)
                diff = (st.images[i] - xi) - (s.images[i] - xi) - (t.images[i] - xi)
                assert diff.is_zero() or diff.order() >= j + 3


def test_context_dimension_cap():
    assert BudgetExceeded is census.BudgetExceeded
    assert AlgebraContext(1, MAX_DIM, PrimeField(2)).dim == MAX_DIM
    for q, n in [(1, MAX_DIM + 1), (30, 30), (10 ** 9, 10 ** 9)]:
        with pytest.raises(BudgetExceeded):
            make_context(q, n)
