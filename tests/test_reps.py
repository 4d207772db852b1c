import random
from fractions import Fraction
from itertools import product

import pytest

from nilmoduli import (QQ, InputInvariantError, NilTuple, PrimeField,
                       annihilator, apply_automorphism, base_ideal,
                       automorphism_from_images, conjugate, evaluate,
                       express_in_cyclic,
                       ideal_from_generators, ideal_from_point, invert,
                       is_cyclic, is_regular,
                       make_context, moduli_point, multiplication_matrices,
                       power_of_max_ideal, random_point,
                       random_regular_tuple, recover_conjugator)
from nilmoduli.linalg import identity_matrix, mat_eq, mat_inv, mat_mul
from nilmoduli.reps import _random_unimodular

from conftest import (e_matrix, grid_witness, scalar_mat_mul, shift_matrix,
                      two_pass_annihilator, x)


@pytest.fixture
def jj2(ctx23):
    f = ctx23.field
    return NilTuple(ctx23, [shift_matrix(f, 3), shift_matrix(f, 3, 2)])


# --- validation ---------------------------------------------------------

def test_noncommuting_rejected(ctx23):
    f = ctx23.field
    with pytest.raises(InputInvariantError, match="commute"):
        NilTuple(ctx23, [e_matrix(f, 3, 2, 1), e_matrix(f, 3, 3, 2)])


def test_nonnilpotent_rejected(ctx23):
    f = ctx23.field
    diag = [[f.one if i == j else f.zero for j in range(3)] for i in range(3)]
    with pytest.raises(InputInvariantError, match="nilpotent"):
        NilTuple(ctx23, [diag, [[f.zero] * 3 for _ in range(3)]])


def rational_conjugate(field, mats):
    """g m g^-1 for g = [[1, 1/2, 1/7], [0, 1/3, 0], [1/5, 0, 1]] over Q (the
    entries come out non-integral); the matrices as they are over F_p."""
    if field != QQ:
        return mats
    g = [[Fraction(1), Fraction(1, 2), Fraction(1, 7)],
         [Fraction(0), Fraction(1, 3), Fraction(0)],
         [Fraction(1, 5), Fraction(0), Fraction(1)]]
    ginv = mat_inv(QQ, g)
    out = [scalar_mat_mul(scalar_mat_mul(g, m), ginv) for m in mats]
    assert all(any(c.denominator > 1 for row in m for c in row) for m in out)
    return out


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
def test_rejections_over_fp_and_rational_q(field):
    ctx = make_context(2, 3, field)
    f = ctx.field
    noncommuting = rational_conjugate(f, [e_matrix(f, 3, 2, 1), e_matrix(f, 3, 3, 2)])
    with pytest.raises(InputInvariantError, match="^matrices 1 and 2 do not commute$"):
        NilTuple(ctx, noncommuting)
    half = [[f.scalar(3) if i == j else f.zero for j in range(3)] for i in range(3)]
    if field == QQ:
        half = [[c / 6 for c in row] for row in half]
    commuting = rational_conjugate(f, [shift_matrix(f, 3), half])
    with pytest.raises(InputInvariantError, match="^matrix 2 is not nilpotent of order 3$"):
        NilTuple(ctx, commuting)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
def test_powers_equal_scalar_products(field):
    ctx = make_context(2, 3, field)
    f = ctx.field
    mats = rational_conjugate(f, [shift_matrix(f, 3), shift_matrix(f, 3, 2)])
    t = NilTuple(ctx, mats)
    for m, pw in zip(t.mats, t.powers):
        want = [identity_matrix(f, 3), m]
        for _ in range(3 - 1):
            want.append(scalar_mat_mul(want[-1], m))
        assert [[list(r) for r in p] for p in pw] == [[list(r) for r in p] for p in want]
    assert annihilator(t) == two_pass_annihilator(t)


def test_checks_over_fp_are_modular():
    """Residue products that differ over the integers but agree mod 5:
    the pair commutes in F_5, and [[1, 1], [4, 4]] squares to 0 there."""
    f5 = PrimeField(5)
    a = [[f5.scalar(v) for v in row] for row in ([0, 0, 0], [1, 0, 0], [0, 2, 0])]
    b = [[f5.scalar(v) for v in row] for row in ([0, 0, 0], [3, 0, 0], [0, 1, 0])]
    NilTuple(make_context(2, 3, "Fp:5"), [a, b])
    m = [[f5.scalar(v) for v in row] for row in ([1, 1], [4, 4])]
    assert NilTuple(make_context(1, 2, "Fp:5"), [m]).powers[0][2] == [[0, 0], [0, 0]]


def test_wrong_shape_rejected(ctx23):
    f = ctx23.field
    with pytest.raises(InputInvariantError):
        NilTuple(ctx23, [shift_matrix(f, 3)])


# --- evaluation -----------------------------------------------------------

def test_evaluate_examples(jj2, ctx23):
    assert evaluate(jj2, x(ctx23, 1)) == [list(r) for r in jj2.mats[0]]
    comm = x(ctx23, 1) * x(ctx23, 2) - x(ctx23, 2) * x(ctx23, 1)
    assert all(not c for row in evaluate(jj2, comm) for c in row)
    top = evaluate(jj2, (x(ctx23, 1) + x(ctx23, 2)) ** 2)
    assert any(c for row in top for c in row)  # (J + J^2)^2 = J^2 != 0


def test_representation_is_multiplicative(jj2, ctx23):
    rng = random.Random(20)
    from test_algebra import rand_poly
    for _ in range(5):
        f, g = rand_poly(ctx23, rng), rand_poly(ctx23, rng)
        assert mat_eq(evaluate(jj2, f * g),
                      mat_mul(evaluate(jj2, f), evaluate(jj2, g)))


# --- regular and cyclic -----------------------------------------------------

def test_regular_examples(ctx23, jj2, cyclic_not_regular):
    f = ctx23.field
    zero = [[f.zero] * 3 for _ in range(3)]
    flag, witness = is_regular(NilTuple(ctx23, [shift_matrix(f, 3), zero]))
    assert flag and [int(w) for w in witness] == [1, 0]
    assert not is_regular(NilTuple(ctx23, [zero, zero]))[0]
    assert is_regular(jj2)[0]
    # symbolic oracle: (a E21 + b E31)^2 = 0 for all a, b on the grid
    t = cyclic_not_regular
    for a, b in product(range(3), repeat=2):
        u = [[a * p + b * q for p, q in zip(r1, r2)]
             for r1, r2 in zip(t.mats[0], t.mats[1])]
        sq = mat_mul(u, u)
        assert all(not c for row in sq for c in row)
    assert not is_regular(t)[0]


def test_cyclic_examples(ctx23, jj2, cyclic_not_regular):
    f = ctx23.field
    zero = [[f.zero] * 3 for _ in range(3)]
    assert is_cyclic(NilTuple(ctx23, [shift_matrix(f, 3), zero]))
    assert not is_cyclic(NilTuple(ctx23, [zero, zero]))
    assert is_cyclic(cyclic_not_regular)
    assert not is_regular(cyclic_not_regular)[0]  # cyclic strictly larger


def test_regular_implies_cyclic_on_samples():
    for seed in range(5):
        for (q, n) in [(2, 3), (2, 4), (3, 4)]:
            t = random_regular_tuple(make_context(q, n), seed)
            assert is_regular(t)[0]
            assert is_cyclic(t)


# --- annihilators -------------------------------------------------------------

def test_annihilator_examples(ctx23, jj2):
    f = ctx23.field
    zero = [[f.zero] * 3 for _ in range(3)]
    j0 = NilTuple(ctx23, [shift_matrix(f, 3), zero])
    assert annihilator(j0) == base_ideal(ctx23)
    assert annihilator(jj2) == ideal_from_generators(
        ctx23, [x(ctx23, 2) - x(ctx23, 1) ** 2])


def test_annihilator_of_cyclic_not_regular(ctx23, cyclic_not_regular):
    ideal = annihilator(cyclic_not_regular)
    assert ideal == power_of_max_ideal(ctx23, 2)
    assert ideal.colength == 3  # cyclic <=> colength n


def test_annihilator_conjugation_invariance(ctx24):
    rng = random.Random(21)
    t = random_regular_tuple(ctx24, 99)
    for _ in range(3):
        g = [[Fraction(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
        for i in range(4):
            g[i][i] = g[i][i] + Fraction(1 if rng.random() < 0.5 else -1)
        from nilmoduli.linalg import mat_inv
        if mat_inv(ctx24.field, g) is None:
            continue
        assert annihilator(conjugate(t, g)) == annihilator(t)


def test_annihilator_compatible_with_algebra_action(ctx23):
    # twisting the tuple through an automorphism pulls the annihilator
    # back through the inverse automorphism
    t = random_regular_tuple(ctx23, 5)
    alpha = automorphism_from_images(
        ctx23, [x(ctx23, 1) + x(ctx23, 2) ** 2, x(ctx23, 2) + x(ctx23, 1) ** 2])
    twisted = NilTuple(ctx23, [evaluate(t, alpha(x(ctx23, i + 1)))
                               for i in range(2)])
    assert annihilator(twisted) == apply_automorphism(invert(alpha), annihilator(t))


# --- multiplication matrices ---------------------------------------------------

def test_multiplication_matrices_examples(ctx23):
    f = ctx23.field
    mm = multiplication_matrices(base_ideal(ctx23))
    assert mat_eq([list(r) for r in mm.mats[0]], shift_matrix(f, 3))
    assert all(not c for row in mm.mats[1] for c in row)
    mm2 = multiplication_matrices(
        ideal_from_generators(ctx23, [x(ctx23, 2) - x(ctx23, 1) ** 2]))
    n1 = [list(r) for r in mm2.mats[0]]
    assert mat_eq(n1, shift_matrix(f, 3))
    assert mat_eq([list(r) for r in mm2.mats[1]], mat_mul(n1, n1))


def test_multiplication_matrices_require_colength(ctx23):
    with pytest.raises(ValueError):
        multiplication_matrices(power_of_max_ideal(ctx23, 1))
    with pytest.raises(ValueError):
        multiplication_matrices(power_of_max_ideal(ctx23, 2), require_arr=True)


def test_annihilator_round_trip_on_random_ideals():
    from test_ideals import random_arr_ideal
    rng = random.Random(22)
    for (q, n) in [(2, 3), (2, 4), (3, 3)]:
        ctx = make_context(q, n)
        for _ in range(10):
            ideal = random_arr_ideal(ctx, rng)
            assert annihilator(multiplication_matrices(ideal)) == ideal


# --- polynomials in a cyclic matrix ---------------------------------------------

def test_express_examples(ctx23, jj2):
    assert express_in_cyclic(jj2, 1, 2) == x(ctx23, 1) ** 2
    assert express_in_cyclic(jj2, 1, 1) == x(ctx23, 1)
    ctx24 = make_context(2, 4)
    f = ctx24.field
    j = shift_matrix(f, 4)
    n2 = [[2 * a + 3 * b for a, b in zip(r1, r2)]
          for r1, r2 in zip(shift_matrix(f, 4, 2), shift_matrix(f, 4, 3))]
    t = NilTuple(ctx24, [j, n2])
    got = express_in_cyclic(t, 1, 2)
    x1 = x(ctx24, 1)
    assert got == (x1 ** 2).scale(2) + (x1 ** 3).scale(3)


def test_express_consistency(ctx34):
    t = random_regular_tuple(ctx34, 7)
    flag, witness = is_regular(t)
    assert flag
    idx = next((i + 1 for i in range(3) if has_single_regular(t, i)), None)
    if idx is None:
        pytest.skip("no single regular generator for this seed")
    for j in range(1, 4):
        f = express_in_cyclic(t, idx, j)
        assert mat_eq(evaluate(t, x(ctx34, j) - f),
                      [[ctx34.field.zero] * 4 for _ in range(4)])


def has_single_regular(t, i):
    from nilmoduli.reps import _is_zero_matrix
    return not _is_zero_matrix(t.powers[i][t.ctx.n - 1])


def test_express_rejects_irregular_index(ctx23, cyclic_not_regular):
    with pytest.raises(ValueError):
        express_in_cyclic(cyclic_not_regular, 1, 2)


# --- conjugacy ---------------------------------------------------------------

def test_recover_conjugator_round_trip(ctx24):
    t = random_regular_tuple(ctx24, 31)
    g = [[Fraction(v) for v in row] for row in
         [[1, 2, 0, -1], [0, 1, 1, 0], [0, 0, 1, 3], [0, 0, 0, 1]]]
    t2 = conjugate(t, g)
    h = recover_conjugator(t, t2)
    assert h is not None
    assert conjugate(t, h) == t2


def test_not_conjugate_example():
    ctx = make_context(2, 4)
    f = ctx.field
    j = shift_matrix(f, 4)
    t1 = NilTuple(ctx, [j, shift_matrix(f, 4, 2)])
    t2 = NilTuple(ctx, [j, shift_matrix(f, 4, 3)])
    assert recover_conjugator(t1, t2) is None
    b1 = moduli_point(annihilator(t1)).b
    b2 = moduli_point(annihilator(t2)).b
    assert [[int(v) for v in r] for r in b1] == [[1, 0]]
    assert [[int(v) for v in r] for r in b2] == [[0, 1]]


def test_conjugate_to_canonical_model(ctx23, jj2):
    mm = multiplication_matrices(annihilator(jj2))
    g = recover_conjugator(jj2, mm)
    assert g is not None and conjugate(jj2, g) == mm


# --- seeded generator ----------------------------------------------------------

def test_random_regular_tuple_deterministic(ctx24):
    assert random_regular_tuple(ctx24, 3) == random_regular_tuple(ctx24, 3)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(7)],
                         ids=str)
def test_random_tuple_reads_the_point_on_its_last_chart(field):
    # oracle: the multiplication matrices of the point's dim-sized ideal,
    # conjugated by the same unimodular matrix
    for q in range(1, 6):
        for n in range(2, 7):
            ctx = make_context(q, n, field)
            for seed in range(4):
                rng = random.Random(seed)
                point = random_point(ctx, rng)
                want = conjugate(multiplication_matrices(ideal_from_point(point)),
                                 _random_unimodular(ctx, rng))
                assert random_regular_tuple(ctx, seed) == want


def test_equal_points_conjugate_distinct_points_not(ctx24):
    from nilmoduli import random_point
    rng = random.Random(23)
    pt = random_point(ctx24, rng)
    t1 = random_regular_tuple(ctx24, 101, point=pt)
    t2 = random_regular_tuple(ctx24, 202, point=pt)
    assert recover_conjugator(t1, t2) is not None
    other = pt
    while other == pt:
        other = random_point(ctx24, rng)
    t3 = random_regular_tuple(ctx24, 303, point=other)
    assert recover_conjugator(t1, t3) is None


def test_single_generator_regularity_matches_general():
    # exhaustive check over every regular-annihilator ideal in the small
    # finite-field censuses: the tuple always has a single regular matrix,
    # so the unit-vector test finds the grid search's first witness
    from nilmoduli import enumerate_moduli_points, ideal_from_point
    for (q, n, p) in [(2, 3, 2), (2, 3, 3), (2, 4, 2), (3, 3, 2)]:
        for pt in enumerate_moduli_points(q, n, p):
            t = multiplication_matrices(ideal_from_point(pt))
            assert is_regular(t) == (True, grid_witness(t))
