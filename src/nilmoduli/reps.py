"""Commuting nilpotent matrix tuples as modules over the truncated algebra.

A NilTuple is q pairwise-commuting nilpotent n x n matrices over an exact
field; evaluating polynomials on it realizes the corresponding algebra
representation.  The annihilator ideal is a complete invariant for
simultaneous conjugation of regular tuples, and the functions here move
back and forth between tuples and ideals: annihilator, multiplication
matrices on the canonical coset basis, and explicit conjugators.
"""

from __future__ import annotations

import random

from .algebra import AlgebraContext, NilPolynomial, InternalCheckError
from .fields import PrimeField
from .ideals import Ideal, ideal_from_span
from . import linalg


class InputInvariantError(ValueError):
    """An input matrix tuple violates a required structural invariant."""


class NilTuple:
    """q commuting nilpotent n x n matrices; both properties are checked."""

    __slots__ = ("ctx", "mats", "_power_cache")

    def __init__(self, ctx: AlgebraContext, mats):
        mats = [tuple(tuple(ctx.field.scalar(c) for c in row) for row in m)
                for m in mats]
        if len(mats) != ctx.q:
            raise InputInvariantError(f"expected {ctx.q} matrices, got {len(mats)}")
        n = ctx.n
        for k, m in enumerate(mats):
            if len(m) != n or any(len(r) != n for r in m):
                raise InputInvariantError(f"matrix {k+1} is not {n} x {n}")
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                ab = linalg.mat_mul(mats[i], mats[j])
                ba = linalg.mat_mul(mats[j], mats[i])
                if not linalg.mat_eq(ab, ba):
                    raise InputInvariantError(
                        f"matrices {i+1} and {j+1} do not commute")
        for k, m in enumerate(mats):
            pw = m
            for _ in range(n - 1):
                pw = linalg.mat_mul(pw, m)
            if any(any(c for c in row) for row in pw):
                raise InputInvariantError(f"matrix {k+1} is not nilpotent of order {n}")
        self.ctx = ctx
        self.mats = tuple(mats)
        self._power_cache = [{0: linalg.identity_matrix(ctx.field, n), 1: [list(r) for r in m]}
                             for m in mats]

    def _power(self, i: int, k: int):
        cache = self._power_cache[i]
        if k not in cache:
            cache[k] = linalg.mat_mul(self._power(i, k - 1), cache[1])
        return cache[k]

    def __eq__(self, other):
        return (isinstance(other, NilTuple) and self.ctx.same(other.ctx)
                and self.mats == other.mats)

    def __repr__(self):
        return f"NilTuple(q={self.ctx.q}, n={self.ctx.n}, field={self.ctx.field})"


def evaluate(t: NilTuple, f: NilPolynomial):
    """The matrix f(N_1, ..., N_q)."""
    t.ctx.check_same(f.ctx)
    n = t.ctx.n
    out = linalg.zero_matrix(t.ctx.field, n)
    for e, c in f.terms.items():
        term = None
        for i, k in enumerate(e):
            if k:
                pw = t._power(i, k)
                term = pw if term is None else linalg.mat_mul(term, pw)
        if term is None:
            term = linalg.identity_matrix(t.ctx.field, n)
        for r in range(n):
            for s in range(n):
                if term[r][s]:
                    out[r][s] = out[r][s] + c * term[r][s]
    return out


def _is_zero_matrix(m) -> bool:
    return not any(any(c for c in row) for row in m)


def _regular_index(t: NilTuple):
    """Index of the first N_i with N_i^(n-1) != 0, or None."""
    return next((i for i in range(t.ctx.q)
                 if not _is_zero_matrix(t._power(i, t.ctx.n - 1))), None)


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


def is_cyclic(t: NilTuple) -> bool:
    """Cyclic over the algebra iff dim(sum of images of the N_i) = n - 1:
    the quotient by the radical action must be a line."""
    ctx = t.ctx
    space = linalg.RowSpace(ctx.field, ctx.n)
    for m in t.mats:
        for col in linalg.transpose(m):
            space.insert(list(col))
    return space.rank == ctx.n - 1


def annihilator(t: NilTuple) -> Ideal:
    """The ideal of algebra elements acting as zero, as the null space of
    the evaluation map on the monomial basis."""
    ctx = t.ctx
    n = ctx.n
    cols = []
    for e in ctx.monomials:
        mat = evaluate(t, NilPolynomial.monomial(ctx, e))
        cols.append([mat[r][s] for r in range(n) for s in range(n)])
    # coefficient vectors c with sum_m c_m * eval(m) = 0
    vecs = linalg.nullspace(ctx.field, linalg.transpose(cols), ctx.dim)
    return ideal_from_span(ctx, vecs)


def multiplication_matrices(ideal: Ideal, require_arr: bool = False) -> NilTuple:
    """The regular representation of A/I on the canonical coset basis (the
    non-pivot monomials in monomial order), for a colength-n ideal.  The
    annihilator of the result is the input ideal."""
    from .ideals import is_arr
    ctx = ideal.ctx
    if ideal.colength != ctx.n:
        raise ValueError(f"colength {ideal.colength} != n = {ctx.n}")
    if require_arr and not is_arr(ideal):
        raise ValueError("ideal does not annihilate a regular tuple")
    comp = ideal.complement_monomials()
    pos = {idx: k for k, idx in enumerate(comp)}
    space = ideal._space()
    mats = []
    for i in range(ctx.q):
        mat = linalg.zero_matrix(ctx.field, ctx.n)
        for c_col, mono_idx in enumerate(comp):
            tgt = ctx.shift[i][mono_idx]
            if tgt is None:
                continue
            vec = [ctx.field.zero] * ctx.dim
            vec[tgt] = ctx.field.one
            red = space.reduce(vec)
            for idx, coef in enumerate(red):
                if coef:
                    mat[pos[idx]][c_col] = coef
        mats.append(mat)
    return NilTuple(ctx, mats)


def express_in_cyclic(t: NilTuple, i: int, j: int) -> NilPolynomial:
    """The polynomial f with f(N_i) = N_j and zero constant term, computed
    in the cyclic basis {v, N_i v, ..., N_i^(n-1) v}.  Requires
    N_i^(n-1) != 0 (1-based indices)."""
    ctx = t.ctx
    n = ctx.n
    if not (1 <= i <= ctx.q) or not (1 <= j <= ctx.q):
        raise ValueError("matrix index out of range")
    ni = [list(r) for r in t.mats[i - 1]]
    top = t._power(i - 1, n - 1)
    v = None
    for k in range(n):
        if any(top[r][k] for r in range(n)):
            v = [ctx.field.one if r == k else ctx.field.zero for r in range(n)]
            break
    if v is None:
        raise ValueError(f"matrix {i} is not regular (rank of N^{n-1} is 0)")
    basis = []
    w = v
    for _ in range(n):
        basis.append(w)
        w = linalg.mat_vec(ni, w)
    bm = linalg.transpose(basis)
    binv = linalg.mat_inv(ctx.field, bm)
    if binv is None:
        raise InternalCheckError("cyclic vectors failed to form a basis")
    target = linalg.mat_vec([list(r) for r in t.mats[j - 1]], v)
    coeffs = linalg.mat_vec(binv, target)
    if coeffs[0]:
        raise InternalCheckError("commutant polynomial has a constant term")
    xi = NilPolynomial.variable(ctx, i)
    out = NilPolynomial.zero(ctx)
    for k in range(1, n):
        if coeffs[k]:
            out = out + (xi ** k).scale(coeffs[k])
    return out


def conjugate(t: NilTuple, g) -> NilTuple:
    """The tuple (g N_i g^-1)."""
    ctx = t.ctx
    g = [[ctx.field.scalar(c) for c in row] for row in g]
    ginv = linalg.mat_inv(ctx.field, g)
    if ginv is None:
        raise ValueError("conjugating matrix is singular")
    return NilTuple(ctx, [linalg.mat_mul(linalg.mat_mul(g, m), ginv) for m in t.mats])


def _cyclic_frame(t: NilTuple, ideal: Ideal):
    """Matrix whose columns are (coset monomial)(N) . v for the canonical
    coset basis of the annihilator, where v is the first standard basis
    vector not killed by N_i^(n-1) for the first regular N_i."""
    ctx = t.ctx
    n = ctx.n
    i = _regular_index(t)
    if i is None:
        raise ValueError("tuple is not regular")
    top = t._power(i, n - 1)
    k = next(k for k in range(n) if any(top[r][k] for r in range(n)))
    v = [ctx.field.one if r == k else ctx.field.zero for r in range(n)]
    cols = []
    for mono_idx in ideal.complement_monomials():
        mat = evaluate(t, NilPolynomial.monomial(ctx, ctx.monomials[mono_idx]))
        cols.append(linalg.mat_vec(mat, v))
    return linalg.transpose(cols)


def recover_conjugator(t1: NilTuple, t2: NilTuple):
    """A matrix g with (g N_i g^-1) = N'_i for all i, or None when the two
    regular tuples are not simultaneously conjugate (distinct annihilators).

    Both tuples are rebased onto the canonical coset frame of the shared
    annihilator, so the output is deterministic and verified before return.
    """
    t1.ctx.check_same(t2.ctx)
    i1 = annihilator(t1)
    if i1 != annihilator(t2):
        return None
    c1 = _cyclic_frame(t1, i1)
    c2 = _cyclic_frame(t2, i1)
    g = linalg.mat_mul(c2, linalg.mat_inv(t1.ctx.field, c1))
    check = conjugate(t1, g)
    if check != t2:
        raise InternalCheckError("conjugator failed verification")
    return g


def random_regular_tuple(ctx: AlgebraContext, seed: int,
                         point=None) -> NilTuple:
    """Deterministic regular tuple: multiplication matrices of the ideal of
    a random small-height moduli point, conjugated by a random unimodular
    integer matrix (over F_p, a random product of transvections)."""
    from .moduli import ideal_from_point, random_point
    rng = random.Random(seed)
    if point is None:
        point = random_point(ctx, rng)
    base = multiplication_matrices(ideal_from_point(point))
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
