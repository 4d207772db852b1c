"""Commuting nilpotent matrix tuples as modules over the truncated algebra.

A NilTuple is q pairwise-commuting nilpotent n x n matrices over an exact
field; evaluating polynomials on it realizes the corresponding algebra
representation.  The annihilator ideal is a complete invariant for
simultaneous conjugation of regular tuples, and the functions here move
back and forth between tuples and ideals: annihilator, multiplication
matrices on the staircase basis, and explicit conjugators.
"""

from __future__ import annotations

import random
from functools import reduce

from .algebra import AlgebraContext, NilPolynomial, InternalCheckError
from .fields import InputInvariantError, PrimeField
from .ideals import Ideal, is_arr, orbit_ideal
from . import linalg


class NilTuple:
    """q commuting nilpotent n x n matrices; both properties are checked.

    chain[i] is (pw, d), kept from the nilpotency check: pw[k - 1] is the
    int matrix d^k N_(i+1)^k, k = 1..n.  powers[i][k] is N_(i+1)^k for
    k = 0..n, decoded from the chain on demand."""

    __slots__ = ("ctx", "mats", "chain")

    def __init__(self, ctx: AlgebraContext, mats):
        mats = [tuple(tuple(ctx.field.scalar(c) for c in row) for row in m)
                for m in mats]
        if len(mats) != ctx.q:
            raise InputInvariantError(f"expected {ctx.q} matrices, got {len(mats)}")
        n = ctx.n
        for k, m in enumerate(mats):
            if len(m) != n or any(len(r) != n for r in m):
                raise InputInvariantError(f"matrix {k+1} is not {n} x {n}")
        # checked on the int encodings, mats[k] = ints[k] / d[k]
        field = ctx.field
        ints, d = zip(*(field.encode(m) for m in mats))
        cols = [list(zip(*m)) for m in ints]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                if (linalg.int_dots(ints[i], cols[j], field.p)
                        != linalg.int_dots(ints[j], cols[i], field.p)):
                    raise InputInvariantError(
                        f"matrices {i+1} and {j+1} do not commute")
        chain = []
        for k in range(len(mats)):
            pw = [ints[k]]
            for _ in range(n - 1):
                pw.append(linalg.int_dots(pw[-1], cols[k], field.p))
            if not _is_zero_matrix(pw[-1]):
                raise InputInvariantError(f"matrix {k+1} is not nilpotent of order {n}")
            chain.append((pw, d[k]))
        self.ctx = ctx
        self.mats = tuple(mats)
        self.chain = tuple(chain)

    @property
    def powers(self) -> tuple:
        field, n = self.ctx.field, self.ctx.n
        return tuple((linalg.identity_matrix(field, n), m,
                      *(field.decode(x, d ** e) for e, x in enumerate(pw[1:], 2)))
                     for m, (pw, d) in zip(self.mats, self.chain))

    def __eq__(self, other):
        return (isinstance(other, NilTuple) and self.ctx.same(other.ctx)
                and self.mats == other.mats)

    def __repr__(self):
        return f"NilTuple(q={self.ctx.q}, n={self.ctx.n}, field={self.ctx.field})"


def evaluate(t: NilTuple, f: NilPolynomial):
    """The matrix f(N_1, ..., N_q)."""
    t.ctx.check_same(f.ctx)
    out = [[t.ctx.field.zero] * t.ctx.n for _ in range(t.ctx.n)]
    for e, c in f.terms.items():
        term = reduce(linalg.mat_mul, [t.powers[i][k] for i, k in enumerate(e)])
        out = [[x + c * y for x, y in zip(ro, rt)] for ro, rt in zip(out, term)]
    return out


def _is_zero_matrix(m) -> bool:
    return not any(any(c for c in row) for row in m)


def _regular_index(t: NilTuple):
    """Index of the first N_i with N_i^(n-1) != 0, or None."""
    return next((i for i, (pw, _) in enumerate(t.chain)
                 if not _is_zero_matrix(pw[t.ctx.n - 2])), None)


def is_regular(t: NilTuple):
    """(flag, witness): whether some linear combination u = sum a_i N_i has
    u^(n-1) != 0, with witness the unit vector e_i of the first N_i that
    is regular on its own, or (False, None).

    Unit vectors suffice.  A regular u generates the commutant, so each
    N_j = b_j u + (higher powers of u) and sum a_j b_j = 1; any N_j with
    b_j != 0 is regular too.  Linear combinations suffice for the general
    one-jordan-block test: perturbing u by a product of two or more of
    the matrices changes u^(n-1) only by terms that vanish.
    """
    i = _regular_index(t)
    if i is None:
        return False, None
    field = t.ctx.field
    return True, [field.one if j == i else field.zero for j in range(t.ctx.q)]


def _module_generators(t: NilTuple):
    """Unit vectors completing the span of the images of the N_i to k^n, in
    index order.  Their classes span M/mM, so by Nakayama they generate
    the module M = k^n over the algebra."""
    n = t.ctx.n
    # the columns of N_i, scaled to ints: the same span
    space = linalg.RowSpace(t.ctx.field, n, (c for pw, _ in t.chain for c in zip(*pw[0])))
    units = linalg.identity_matrix(t.ctx.field, n)
    return [e for e in units if space.insert(e)]


def is_cyclic(t: NilTuple) -> bool:
    """Cyclic over the algebra iff one vector generates the module: the sum
    of the images of the N_i has dimension n - 1."""
    return len(_module_generators(t)) == 1


def annihilator(t: NilTuple) -> Ideal:
    """The ideal of algebra elements acting as zero: the orbit kernel of
    the module generators, since f(N) commutes with every m(N) and so
    vanishes once it kills the generators.  A cyclic tuple gives a system
    of n rows, one per coordinate of the single generator's orbit."""
    return orbit_ideal(t.ctx, t.mats, _module_generators(t))


def multiplication_matrices(ideal: Ideal, require_arr: bool = False) -> NilTuple:
    """The regular representation of A/I on the staircase basis (the
    non-pivot monomials in monomial order), for a colength-n ideal.  The
    annihilator of the result is the input ideal."""
    ctx = ideal.ctx
    if ideal.colength != ctx.n:
        raise ValueError(f"colength {ideal.colength} != n = {ctx.n}")
    if require_arr and not is_arr(ideal):
        raise ValueError("ideal does not annihilate a regular tuple")
    return NilTuple(ctx, ideal.matrices())


def _krylov_frame(t: NilTuple, i: int):
    """Columns v, N v, ..., N^(n-1) v for N = N_(i+1), with v the first
    standard basis vector not killed by N^(n-1); they form a basis of k^n.
    ValueError when N^(n-1) = 0."""
    n, field = t.ctx.n, t.ctx.field
    pw, d = t.chain[i]
    k = next((k for k in range(n) if any(row[k] for row in pw[n - 2])), None)
    if k is None:
        raise ValueError(f"matrix {i + 1} is not regular (rank of N^{n-1} is 0)")
    cols = [[int(r == k) for r in range(n)]] + [[row[k] for row in x] for x in pw[:n - 1]]
    return linalg.transpose([field.decode([c], d ** e)[0] for e, c in enumerate(cols)])


def express_in_cyclic(t: NilTuple, i: int, j: int) -> NilPolynomial:
    """The polynomial f with f(N_i) = N_j and zero constant term: the
    coordinates of N_j v in the Krylov frame v, N_i v, ..., N_i^(n-1) v
    of N_i.  Requires N_i^(n-1) != 0 (1-based indices)."""
    ctx = t.ctx
    if not (1 <= i <= ctx.q) or not (1 <= j <= ctx.q):
        raise ValueError("matrix index out of range")
    frame = _krylov_frame(t, i - 1)
    v = [row[0] for row in frame]
    target = linalg.mat_vec(t.mats[j - 1], v)
    coeffs = linalg.mat_vec(linalg.mat_inv(ctx.field, frame), target)
    if coeffs[0]:
        raise InternalCheckError("commutant polynomial has a constant term")
    return NilPolynomial(ctx, {tuple(k if m == i - 1 else 0 for m in range(ctx.q)):
                               coeffs[k] for k in range(1, ctx.n)})


def conjugate(t: NilTuple, g) -> NilTuple:
    """The tuple (g N_i g^-1)."""
    ctx = t.ctx
    g = [[ctx.field.scalar(c) for c in row] for row in g]
    ginv = linalg.mat_inv(ctx.field, g)
    if ginv is None:
        raise ValueError("conjugating matrix is singular")
    return NilTuple(ctx, [linalg.mat_mul(linalg.mat_mul(g, m), ginv) for m in t.mats])


def recover_conjugator(t1: NilTuple, t2: NilTuple):
    """A verified matrix g with (g N_i g^-1) = N'_i for all i, or None when
    the two regular tuples are not simultaneously conjugate.

    With i the first regular index of t1 and C, C' the Krylov frames of
    N_i and N'_i, g = C' C^-1 sends f(N) v to f(N') v' for every f.  That
    is well defined, and then a conjugator, exactly when the annihilators
    agree, so checking g decides.  Conjugate tuples share their first
    regular index; ValueError when either tuple is not regular.
    """
    t1.ctx.check_same(t2.ctx)
    i, i2 = _regular_index(t1), _regular_index(t2)
    if i is None or i2 is None:
        raise ValueError("tuple is not regular")
    if i != i2:
        return None
    c1 = _krylov_frame(t1, i)
    g = linalg.mat_mul(_krylov_frame(t2, i), linalg.mat_inv(t1.ctx.field, c1))
    # g is invertible, so g N_j = N'_j g for all j is g N_j g^-1 = N'_j
    ok = all(linalg.mat_eq(linalg.mat_mul(g, a), linalg.mat_mul(b, g))
             for a, b in zip(t1.mats, t2.mats))
    return g if ok else None


def random_regular_tuple(ctx: AlgebraContext, seed: int,
                         point=None) -> NilTuple:
    """Deterministic regular tuple: multiplication matrices of the ideal of
    a random small-height moduli point, conjugated by a random unimodular
    integer matrix (over F_p, a random product of transvections).  With m
    the last nonzero covector index, the coset basis of the ideal is 1,
    x_m, ..., x_m^(n-1), so they are the f_j(J) of the point on chart m."""
    from .moduli import _multiplication, _series, random_point, transition_map
    rng = random.Random(seed)
    if point is None:
        point = random_point(ctx, rng)
    m = max(j for j, cj in enumerate(point.c, 1) if cj)
    base = NilTuple(ctx, [_multiplication(ctx.field, f)
                          for f in _series(transition_map(point, m))])
    g = _random_unimodular(ctx, rng)
    return conjugate(base, g)


def _random_unimodular(ctx: AlgebraContext, rng: random.Random):
    field, n = ctx.field, ctx.n
    g = linalg.identity_matrix(field, n)
    if isinstance(field, PrimeField):
        coeffs = list(range(field.p))
    else:
        coeffs = [-2, -1, 1, 2]
    for _ in range(2 * n + 2):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = field.scalar(rng.choice(coeffs))
        if not c:
            continue
        for k in range(n):
            g[i][k] = g[i][k] + c * g[j][k]
    return g
