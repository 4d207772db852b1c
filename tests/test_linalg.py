import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilmoduli import ContextMismatch, PrimeField, QQ
from nilmoduli.linalg import (RowSpace, identity_matrix, mat_eq, mat_inv,
                              mat_mul, mat_vec, nullspace)

from conftest import (ScalarRowSpace, gauss_jordan_inverse, scalar_mat_inv,
                      scalar_mat_mul, scalar_mat_vec, scalar_nullspace)


def rref(field, rows):
    """Canonical RREF of a list of row vectors: (rows, pivots)."""
    space = RowSpace(field, len(rows[0]))
    space.extend(rows)
    return space.basis(), tuple(space.pivots)


def rand_matrix(rng, rows, cols, lo=-4, hi=4):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(cols)] for _ in range(rows)]


def test_rref_is_canonical_under_row_mixing():
    rng = random.Random(0)
    for _ in range(20):
        m = rand_matrix(rng, 4, 6)
        basis1, piv1 = rref(QQ, m)
        # random invertible recombination of the same rows
        mixed = []
        for _ in range(6):
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
            mixed.append([sum(c * row[j] for c, row in zip(coeffs, m))
                          for j in range(6)])
        basis2, piv2 = rref(QQ, m + mixed)
        assert basis1 == basis2 and piv1 == piv2


def test_rowspace_membership():
    sp = RowSpace(QQ, 3)
    sp.insert([Fraction(1), Fraction(2), Fraction(0)])
    sp.insert([Fraction(0), Fraction(1), Fraction(1)])
    assert sp.contains([Fraction(1), Fraction(3), Fraction(1)])
    assert not sp.contains([Fraction(0), Fraction(0), Fraction(1)])


def test_nullspace_annihilates():
    rng = random.Random(1)
    for field in (QQ, PrimeField(5)):
        for _ in range(10):
            m = [[field.scalar(rng.randint(-4, 4)) for _ in range(5)]
                 for _ in range(3)]
            for v in nullspace(field, m, 5):
                for row in m:
                    s = field.zero
                    for a, b in zip(row, v):
                        s = s + a * b
                    assert not s
    # rank-nullity on a fixed example
    m = [[Fraction(1), Fraction(0), Fraction(1)], [Fraction(0), Fraction(1), Fraction(1)]]
    assert len(nullspace(QQ, m, 3)) == 1


def test_mat_inv_round_trip():
    rng = random.Random(2)
    for field in (QQ, PrimeField(7)):
        done = 0
        while done < 10:
            m = [[field.scalar(rng.randint(-4, 4)) for _ in range(4)]
                 for _ in range(4)]
            inv = mat_inv(field, m)
            if inv is None:
                continue
            assert mat_eq(mat_mul(m, inv), identity_matrix(field, 4))
            assert mat_eq(mat_mul(inv, m), identity_matrix(field, 4))
            done += 1


def test_mat_inv_detects_singular():
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert mat_inv(QQ, m) is None


# --- the integer kernels against the scalar loops -------------------------

FIELDS = [QQ, PrimeField(2), PrimeField(7)]


def scalars(field):
    """Q: numerators -20..20 over denominators 1..12, so negative and
    non-integral; F_p: every residue."""
    if field is QQ:
        return st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
    return st.integers(0, field.p - 1).map(field.scalar)


def matrix(field, rows, cols, zero=False):
    entry = st.just(field.zero) if zero else scalars(field)
    return st.lists(st.lists(entry, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def product_operands(draw):
    """(a, b, v, w) over one field: a is r x k, b is k x m, v has length
    k and w length m.  Shapes include 1 x k rows, tall dim x n blocks and
    zero matrices."""
    field = draw(st.sampled_from(FIELDS))
    r, k, m = draw(st.sampled_from([(1, 1, 1), (1, 5, 3), (4, 1, 4), (3, 3, 3),
                                    (10, 3, 2), (2, 6, 10), (6, 6, 6)]))
    zero_a, zero_b = draw(st.booleans()), draw(st.booleans())
    a = draw(matrix(field, r, k, zero_a and draw(st.booleans())))
    b = draw(matrix(field, k, m, zero_b and draw(st.booleans())))
    v = draw(matrix(field, 1, k, zero_b and draw(st.booleans())))[0]
    w = draw(matrix(field, 1, m))[0]
    return a, b, v, w


@settings(max_examples=150, deadline=None)
@given(product_operands())
def test_int_products_equal_scalar_loops(ops):
    a, b, v, w = ops
    got, want = mat_mul(a, b), scalar_mat_mul(a, b)
    assert got == want
    assert [type(c) for row in got for c in row] == [type(c) for row in want for c in row]
    assert mat_vec(a, v) == scalar_mat_vec(a, v)
    assert mat_vec(b, w) == scalar_mat_vec(b, w)


@st.composite
def square_matrices(draw):
    """n x n for n = 1..7 over Q, F_2 or F_7; one row is sometimes a
    combination of the others, so singular matrices come up often."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 7))
    a = draw(matrix(field, n, n))
    if n > 1 and draw(st.booleans()):
        c = draw(scalars(field))
        a[-1] = [x + c * y for x, y in zip(a[0], a[1])]
    return field, a


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_inverse_equals_gauss_jordan(case):
    field, a = case
    got = mat_inv(field, a)
    assert got == gauss_jordan_inverse(field, a)
    if got is not None:
        assert mat_eq(mat_mul(a, got), identity_matrix(field, len(a)))


# --- the int elimination against the scalar RREF ---------------------------

KERNEL_FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(7)]


def kernel_scalars(field):
    """Q: small, negative and large (30-digit numerators over 12-digit
    denominators) rationals and zeros; F_p: residues of ints outside
    0..p-1, and zeros."""
    if field is QQ:
        return st.one_of(st.just(Fraction(0)),
                         st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
                         st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
                                   st.integers(1, 10 ** 12)))
    return st.one_of(st.just(field.zero),
                     st.integers(-3 * field.p, 3 * field.p).map(field.scalar))


@st.composite
def eliminations(draw, square=False):
    """(field, ncols, rows): random rows with zero rows, non-primitive
    multiples (a row times a scalar) and dependent rows (a combination of
    two earlier rows) mixed in; square gives ncols rows."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    ncols = draw(st.integers(1, 7))
    rows = []
    for _ in range(ncols if square else draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["random", "random", "zero", "multiple", "dependent"]))
        a, b = draw(kernel_scalars(field)), draw(kernel_scalars(field))
        if kind == "zero":
            rows.append([field.zero] * ncols)
        elif kind == "multiple" and rows:
            rows.append([a * x for x in draw(st.sampled_from(rows))])
        elif kind == "dependent" and rows:
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([a * x + b * y for x, y in zip(u, v)])
        else:
            rows.append(draw(st.lists(kernel_scalars(field), min_size=ncols, max_size=ncols)))
    return field, ncols, rows


@settings(max_examples=120, deadline=None)
@given(eliminations(), st.data())
def test_rowspace_equals_scalar_rref(case, data):
    field, ncols, rows = case
    got, want = RowSpace(field, ncols), ScalarRowSpace(field, ncols)
    for row in rows:
        assert got.insert(row) == want.insert(row)
    assert got.pivots == want.pivots and got.rank == len(want.rows)
    assert got.basis() == [tuple(r) for r in want.rows]
    assert all(type(c) is type(field.zero) for row in got.basis() for c in row)
    probe = data.draw(st.lists(kernel_scalars(field), min_size=ncols, max_size=ncols))
    assert got.reduce(probe) == want.reduce(probe)
    assert got.contains(probe) == (not any(want.reduce(probe)))


@settings(max_examples=120, deadline=None)
@given(eliminations())
def test_nullspace_equals_scalar_rref(case):
    field, ncols, rows = case
    got = nullspace(field, rows, ncols)
    assert got == scalar_nullspace(field, rows, ncols)
    assert all(type(c) is type(field.zero) for v in got for c in v)


@settings(max_examples=120, deadline=None)
@given(eliminations(square=True))
def test_inverse_equals_scalar_rref(case):
    field, _, a = case
    got = mat_inv(field, a)
    assert got == scalar_mat_inv(field, a) == gauss_jordan_inverse(field, a)


def test_rational_products_keep_lowest_terms():
    a = [[Fraction(1, 6), Fraction(-3, 4)]]
    b = [[Fraction(2, 3)], [Fraction(2, 9)]]
    out = mat_mul(a, b)[0][0]
    assert out == Fraction(1, 9) - Fraction(1, 6)
    assert (out.numerator, out.denominator) == (-1, 18)
    assert mat_vec([[Fraction(1, 2), Fraction(1, 2)]], [Fraction(1), Fraction(1)]) == [1]


@pytest.mark.parametrize("left,right", [(QQ, PrimeField(5)), (PrimeField(5), QQ),
                                        (PrimeField(5), PrimeField(7)),
                                        (PrimeField(7), PrimeField(5))])
def test_mixed_fields_raise_context_mismatch(left, right):
    a = identity_matrix(left, 2)
    b = identity_matrix(right, 2)
    with pytest.raises(ContextMismatch):
        mat_mul(a, b)
    with pytest.raises(ContextMismatch):
        mat_vec(a, b[0])
    space = RowSpace(left, 2)
    space.insert(a[0])
    for call in (space.insert, space.reduce, space.contains):
        with pytest.raises(ContextMismatch):
            call(b[1])
    with pytest.raises(ContextMismatch):
        nullspace(left, b, 2)
    with pytest.raises(ContextMismatch):
        nullspace(left, [a[0], b[1]], 2)
    with pytest.raises(ContextMismatch):
        mat_inv(left, b)
    with pytest.raises(ContextMismatch):
        mat_inv(left, [a[0], b[1]])


def test_mixed_entries_inside_one_operand_raise():
    f5 = PrimeField(5)
    with pytest.raises(ContextMismatch, match="cannot mix F_5 with other scalars"):
        mat_mul([[f5.one, PrimeField(7).one]], [[f5.one], [f5.one]])
    with pytest.raises(ContextMismatch, match="cannot mix Q with non-rational scalars"):
        mat_vec([[QQ.one, QQ.one]], [QQ.one, f5.one])


def test_shape_mismatch_raises():
    with pytest.raises(ValueError, match="inner dimensions 2 and 3 differ"):
        mat_mul(identity_matrix(QQ, 2), identity_matrix(QQ, 3))
    with pytest.raises(ValueError, match="inner dimensions 2 and 1 differ"):
        mat_vec(identity_matrix(QQ, 2), [QQ.one])
