"""Ideals of the truncated algebra as canonical linear subspaces.

An ideal is stored as the reduced row echelon basis of its coefficient
span over the ordered monomial basis, together with the generators it
was built from.  RREF is unique for the fixed monomial order, so ideal
equality is literal equality of basis matrices.

Every constructor keeps the generator invariant: the stored generators
generate the ideal.  An ideal is its generators closed under x_1..x_q,
and one multiplication step, _times, builds ideals (ideal_from_generators),
moves them (apply_automorphism maps only the generators) and checks them
(Ideal.verify_closure).

Because the monomial order is graded, multiplication by a generator
moves every basis column strictly to the right.  Two structural
consequences are used throughout: the span of an ideal's rows with pivot
degree >= j is exactly its intersection with m^j, and the span of the
per-row lowest-degree components is exactly the associated graded ideal.
"""

from __future__ import annotations

from .algebra import (AlgebraContext, NilPolynomial, Automorphism,
                      InternalCheckError, make_context)
from .linalg import RowSpace, int_dots, nullspace, transpose


class Ideal:
    """An ideal as the RREF rows of its span (pivots are their leading
    columns) and generators that generate it; apply_automorphism moves
    only the generators, so a direct Ideal(...) must keep that true."""

    __slots__ = ("ctx", "rows", "pivots", "generators")

    def __init__(self, ctx: AlgebraContext, rows, pivots, generators):
        self.ctx = ctx
        self.rows = tuple(tuple(r) for r in rows)
        self.pivots = tuple(pivots)
        self.generators = tuple(generators)

    # --- basic data ------------------------------------------------------
    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def colength(self) -> int:
        return self.ctx.dim - self.rank

    def basis_polynomials(self) -> list[NilPolynomial]:
        return [NilPolynomial.from_vector(self.ctx, r) for r in self.rows]

    def complement_monomials(self) -> list[int]:
        """Indices of the non-pivot monomials, the canonical coset basis of
        the quotient algebra, in monomial order."""
        pivset = set(self.pivots)
        return [i for i in range(self.ctx.dim) if i not in pivset]

    def _space(self) -> RowSpace:
        """A RowSpace that shares the basis rows, for reading only."""
        sp = RowSpace(self.ctx.field, self.ctx.dim)
        sp.rows, sp.pivots = self.rows, self.pivots
        return sp

    def reduce(self, f: NilPolynomial) -> NilPolynomial:
        """Canonical representative of f modulo the ideal (supported on the
        complement monomials)."""
        self.ctx.check_same(f.ctx)
        return NilPolynomial.from_vector(self.ctx, self._space().reduce(f.to_vector()))

    def contains(self, f: NilPolynomial) -> bool:
        return self.reduce(f).is_zero()

    def verify_closure(self) -> None:
        """Check x_i * row stays in the span for every variable and row."""
        sp = self._space()
        for i in range(self.ctx.q):
            if not all(sp.contains(_times(self.ctx, i, row)) for row in self.rows):
                raise InternalCheckError(
                    f"span is not closed under multiplication by x{i+1}")

    # --- subspace calculus ------------------------------------------------
    def sum(self, other: "Ideal") -> "Ideal":
        self.ctx.check_same(other.ctx)
        return ideal_from_span(self.ctx, self.rows + other.rows,
                               self.generators + other.generators)

    def product(self, other: "Ideal") -> "Ideal":
        """The ideal spanned by pairwise products.

        Generated by the pairwise products of the two generator lists,
        which span the same ideal as products of basis vectors.
        """
        self.ctx.check_same(other.ctx)
        gens = [g * h for g in self.generators for h in other.generators]
        return ideal_from_generators(self.ctx, gens)

    def intersect(self, other: "Ideal") -> "Ideal":
        """Intersection via stacked complements: each row space is cut out
        by its complement functionals, so the intersection is the null
        space of the two functional stacks together."""
        self.ctx.check_same(other.ctx)
        field, dim = self.ctx.field, self.ctx.dim
        funcs = (nullspace(field, [list(r) for r in self.rows], dim)
                 + nullspace(field, [list(r) for r in other.rows], dim))
        return ideal_from_span(self.ctx, nullspace(field, funcs, dim))

    def __eq__(self, other):
        return (isinstance(other, Ideal) and self.ctx.same(other.ctx)
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ctx.q, self.ctx.n, self.rows))

    def __repr__(self):
        gens = ", ".join(repr(g) for g in self.generators[:4])
        more = ", ..." if len(self.generators) > 4 else ""
        return (f"Ideal(colength={self.colength}, rank={self.rank}, "
                f"generators=[{gens}{more}])")


def _times(ctx: AlgebraContext, i: int, vec) -> list:
    """x_(i+1) * vec: each monomial moves to its shift.  The move is one to
    one on the monomials it does not truncate, so nothing accumulates."""
    out = [ctx.field.zero] * ctx.dim
    for c, tgt in zip(vec, ctx.shift[i]):
        if tgt is not None:
            out[tgt] = c
    return out


def ideal_from_generators(ctx: AlgebraContext, gens) -> Ideal:
    """Ideal generated by the given elements: their span closed under
    x_1..x_q.  Each vector that raises the rank queues its q multiples; a
    vector already in the span has its multiples there too."""
    gens = list(gens)
    for g in gens:
        ctx.check_same(g.ctx)
    sp = RowSpace(ctx.field, ctx.dim)
    todo = [g.to_vector() for g in gens]
    while todo:
        vec = todo.pop()
        if sp.insert(vec):
            todo.extend(_times(ctx, i, vec) for i in range(ctx.q))
    return Ideal(ctx, sp.basis(), sp.pivots, gens)


def ideal_from_span(ctx: AlgebraContext, vectors, generators=None) -> Ideal:
    """Ideal whose underlying subspace is spanned by the given coefficient
    vectors.  The span must already be closed under multiplication by the
    generators."""
    sp = RowSpace(ctx.field, ctx.dim)
    sp.extend(vectors)
    gens = (list(generators) if generators is not None
            else [NilPolynomial.from_vector(ctx, r) for r in sp.basis()])
    return Ideal(ctx, sp.basis(), sp.pivots, gens)


def orbit_ideal(ctx: AlgebraContext, mats, vecs) -> Ideal:
    """The ideal of all f with f(N) w = 0 for every w in vecs, where N is a
    q-tuple of commuting n x n matrices; generators are its basis rows.

    The images m(N) w are built in monomial order, each one matrix-vector
    product N_i (m'(N) w) with m = x_i m' earlier in the graded order.
    Their null space is eliminated with the columns in reverse monomial
    order, so each null vector, read back in order, is 1 at its own free
    column and nonzero only on later pivot columns (the coset basis): it
    is already a canonical RREF row.  The images are built on the int
    encodings, each decoded with its exact scale."""
    field = ctx.field
    images, scales = [None] * ctx.dim, [None] * ctx.dim
    images[0], scales[0] = field.encode(vecs)
    enc = [field.encode(m) for m in mats]
    for idx in range(ctx.dim):
        for i, (mat, d) in enumerate(enc):
            tgt = ctx.shift[i][idx]
            if tgt is not None and images[tgt] is None:
                images[tgt], scales[tgt] = int_dots(images[idx], mat, field.p), scales[idx] * d
    cols = [[c for w in field.decode(img, d) for c in w]
            for img, d in zip(reversed(images), reversed(scales))]
    rows = [v[::-1] for v in reversed(nullspace(ctx.field, transpose(cols), ctx.dim))]
    pivots = [next(k for k, c in enumerate(v) if c) for v in rows]
    return Ideal(ctx, rows, pivots, [NilPolynomial.from_vector(ctx, v) for v in rows])


def ideal_coset(ideal: Ideal):
    """The map from a monomial index (None for a truncated monomial) to
    the coordinates of its class modulo the ideal on the canonical coset
    basis (the complement monomials, in monomial order), read off the RREF
    rows: a pivot monomial is minus its row, any other its unit vector."""
    comp, field, row_of = (ideal.complement_monomials(), ideal.ctx.field,
                           dict(zip(ideal.pivots, ideal.rows)))

    def coset(m):
        row = row_of.get(m)
        if row is not None:
            return [-row[j] for j in comp]
        return [field.one if j == m else field.zero for j in comp]
    return coset


def zero_ideal(ctx: AlgebraContext) -> Ideal:
    return Ideal(ctx, (), (), ())


def base_ideal(ctx: AlgebraContext) -> Ideal:
    """The ideal generated by x_2, ..., x_q (zero ideal when q = 1); its
    quotient is the one-variable truncated algebra, so its colength is n."""
    gens = [NilPolynomial.variable(ctx, i) for i in range(2, ctx.q + 1)]
    return ideal_from_generators(ctx, gens)


def power_of_max_ideal(ctx: AlgebraContext, j: int) -> Ideal:
    """m^j: the span of all monomials of total degree >= j (0 <= j <= n)."""
    if not 0 <= j <= ctx.n:
        raise ValueError(f"power {j} out of range 0..{ctx.n}")
    start = ctx.deg_start[j]
    end = ctx.deg_start[j + 1] if j < ctx.n else start
    rows = [[ctx.field.zero] * ctx.dim for _ in range(start, ctx.dim)]
    for idx, row in enumerate(rows, start):
        row[idx] = ctx.field.one
    gens = [NilPolynomial.monomial(ctx, ctx.monomials[i]) for i in range(start, end)]
    return Ideal(ctx, rows, list(range(start, ctx.dim)), gens)


def apply_automorphism(sigma: Automorphism, ideal: Ideal) -> Ideal:
    """Image ideal sigma(I), generated by the images of I's generators.
    sigma is a bijection, so the stored generators generate I exactly when
    they lie in I and their images generate an ideal of I's rank."""
    sigma.ctx.check_same(ideal.ctx)
    out = ideal_from_generators(ideal.ctx, [sigma(g) for g in ideal.generators])
    if out.rank != ideal.rank or not all(map(ideal.contains, ideal.generators)):
        raise InternalCheckError(
            f"the generators of the ideal do not generate it: they move to "
            f"rank {out.rank}, the ideal has rank {ideal.rank}")
    return out


def associated_graded(ideal: Ideal) -> Ideal:
    """Span of the lowest-degree components of the elements of the ideal.

    With the graded monomial order, the rows of pivot degree >= d span
    exactly I intersect m^d, so the lowest-degree components of the RREF
    rows give a basis; the result is closed and colength is preserved.
    """
    ctx = ideal.ctx
    vecs = []
    for row, piv in zip(ideal.rows, ideal.pivots):
        d = ctx.degree_of_index(piv)
        lo, hi = ctx.deg_start[d], ctx.deg_start[d + 1]
        vecs.append([c if lo <= i < hi else ctx.field.zero for i, c in enumerate(row)])
    out = ideal_from_span(ctx, vecs)
    if out.rank != ideal.rank:
        raise InternalCheckError("associated graded changed the colength")
    return out


def truncate(ideal: Ideal, m: int) -> Ideal:
    """Image of the ideal in the smaller algebra truncated at degree m
    (2 <= m < n): drop all terms of degree >= m and re-span."""
    ctx = ideal.ctx
    if not 2 <= m < ctx.n:
        raise ValueError(f"truncation order {m} out of range 2..{ctx.n - 1}")
    tgt = make_context(ctx.q, m, ctx.field)

    def cut(f):
        return NilPolynomial(tgt, {e: c for e, c in f.terms.items() if sum(e) < m})
    vecs = [cut(f).to_vector() for f in ideal.basis_polynomials()]
    gens = [g for g in map(cut, ideal.generators) if not g.is_zero()]
    return ideal_from_span(tgt, vecs, generators=gens)


def _hyperplane_rows(ideal: Ideal):
    """{pivot: degree-1 part} of the rows with a degree-1 pivot.

    The order is graded, so these rows restrict to the RREF basis of the
    span H of the degree-1 parts of the ideal; every other row is zero in
    degree 1.  Keys and parts index x_1..x_q from 0."""
    ctx = ideal.ctx
    lo, hi = ctx.deg_start[1], ctx.deg_start[2]
    return {p - lo: row[lo:hi] for row, p in zip(ideal.rows, ideal.pivots)
            if lo <= p < hi}


def base_point(ideal: Ideal):
    """(chart, covector) of the hyperplane H spanned by the degree-1 parts
    of the ideal: c spans the annihilator of H, and the chart is the
    index of its first nonzero entry, on which c is normalized to 1.
    Fails unless H is a hyperplane, which for a colength-n ideal is
    exactly the regular-annihilator condition (see is_arr)."""
    ctx = ideal.ctx
    field = ctx.field
    rows = _hyperplane_rows(ideal)
    if len(rows) != ctx.q - 1:
        raise ValueError(
            f"degree-1 span has dimension {len(rows)}, expected {ctx.q - 1}")
    free = next(j for j in range(ctx.q) if j not in rows)
    c = [field.zero] * ctx.q
    c[free] = field.one
    for j, part in rows.items():
        c[j] = -part[free]
    k = next(i for i, v in enumerate(c) if v)
    lead = c[k]
    return k + 1, tuple(v / lead for v in c)


def is_arr(ideal: Ideal) -> bool:
    """True iff the ideal annihilates a regular tuple: it has colength n
    and the degree-1 parts of its elements span a hyperplane H.

    By Nakayama, H being a hyperplane means the maximal ideal of A/I is
    generated by one linear form u, so A/I = k[u]/u^n.  If H is smaller,
    the maximal ideal of A/I needs two generators, and every u^(n-1)
    lies in the ideal; H = everything forces colength <= 1.
    """
    ctx = ideal.ctx
    return ideal.colength == ctx.n and len(_hyperplane_rows(ideal)) == ctx.q - 1


def regular_parameter(ideal: Ideal):
    """Unit coefficient vector e_k at the chart k of a regular-annihilator
    ideal, or None when the ideal is not one (see is_arr).

    x_k generates the maximal ideal of A/I, so x_k^(n-1) lies outside the
    ideal; e_k is also the first unit vector with that property, since
    each x_i with c_i = 0 is congruent modulo the ideal to an element of
    m^2, whose (n-1)-th power is zero."""
    if not is_arr(ideal):
        return None
    k, _ = base_point(ideal)
    field = ideal.ctx.field
    return [field.one if j == k - 1 else field.zero for j in range(ideal.ctx.q)]


def is_linear_ideal(ideal: Ideal) -> bool:
    """True iff the ideal is not contained in m^2, i.e. some element has a
    nonzero linear part.  Kept separate from is_arr on purpose: the two
    predicates agree for colength-n ideals in two variables but diverge
    for q >= 3 (see tests)."""
    ctx = ideal.ctx
    if any(ctx.degree_of_index(p) == 0 for p in ideal.pivots):
        return False  # contains a unit: the whole algebra
    return any(ctx.degree_of_index(p) == 1 for p in ideal.pivots)
