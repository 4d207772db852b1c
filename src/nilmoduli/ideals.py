"""Ideals of the truncated algebra, stored as their quotients.

An ideal I is fixed by A/I.  The monomials that are not pivots of the
reduced row echelon basis of I form its staircase, a basis of A/I, and
each pivot m has a tail: its RREF row on the staircase columns.  A row is
zero on the other pivot columns, so it is its pivot plus its tail, and an
ideal is stored as staircase and tails, nothing else.  Normal forms (-tail
for a pivot, a unit vector on the staircase) give reduction, membership
and the multiplication matrices of A/I; the dense rows are derived on
demand, for JSON output and the test oracles.  Generators are derived
too: the rows of the corners of the staircase, the minimal pivots.
ideal_from_generators closes any generators under x_1..x_q, and
apply_automorphism moves an ideal as an orbit kernel on its quotient.

Because the monomial order is graded, multiplication by a generator
moves every basis column strictly to the right.  Two structural
consequences are used throughout: the span of an ideal's rows with pivot
degree >= j is exactly its intersection with m^j, and the span of the
per-row lowest-degree components is exactly the associated graded ideal.
"""

from __future__ import annotations

from math import lcm
from operator import ge

from .algebra import (AlgebraContext, NilPolynomial, Automorphism,
                      InternalCheckError, make_context)
from .linalg import RowSpace, int_dots, transpose


class Ideal:
    """An ideal as its staircase (the sorted non-pivot monomials, a basis
    of A/I) and the tails {pivot: RREF row on the staircase columns} in
    pivot order."""

    __slots__ = ("ctx", "stair", "tails")

    def __init__(self, ctx: AlgebraContext, stair, tails):
        self.ctx = ctx
        self.stair = tuple(stair)
        self.tails = {m: tuple(tails[m]) for m in sorted(tails)}

    # --- basic data ------------------------------------------------------
    @property
    def pivots(self) -> tuple:
        return tuple(self.tails)

    def dense_rows(self, zero, one, fmt) -> list:
        """The dense RREF rows written with zero and one, each a zero row
        with the pivot's one and its nonzero tail entries through fmt."""
        out = []
        for m, tail in self.tails.items():
            row = [zero] * self.ctx.dim
            row[m] = one
            for s, t in zip(self.stair, tail):
                if t:
                    row[s] = fmt(t)
            out.append(row)
        return out

    @property
    def rows(self) -> tuple:
        """The dense RREF rows on field scalars."""
        field = self.ctx.field
        return tuple(map(tuple, self.dense_rows(field.zero, field.one, field.scalar)))

    @property
    def rank(self) -> int:
        return len(self.tails)

    @property
    def colength(self) -> int:
        return len(self.stair)

    def _row(self, m, tail) -> NilPolynomial:
        ms = self.ctx.monomials
        return NilPolynomial(self.ctx, {ms[m]: self.ctx.field.one,
                                        **{ms[s]: t for s, t in zip(self.stair, tail)}})

    def basis_polynomials(self) -> list[NilPolynomial]:
        """The RREF rows as polynomials: each pivot plus its tail."""
        return [self._row(m, tail) for m, tail in self.tails.items()]

    @property
    def generators(self) -> tuple:
        """The rows of the corners: the pivots m with every m / x_i on the
        staircase, i.e. no x_i times a pivot.  In the graded order the pivot
        of u * row is u * pivot, and every pivot is a monomial times a
        corner, so the corner rows generate an ideal with every pivot of I:
        I itself."""
        moved = {shift[p] for shift in self.ctx.shift for p in self.tails}
        return tuple(self._row(m, tail) for m, tail in self.tails.items()
                     if m not in moved)

    def coset(self, m) -> list:
        """Coordinates on the staircase of the class of the monomial of
        index m: -tail for a pivot, the unit vector for a staircase
        monomial, zero for None (a truncated monomial)."""
        tail = self.tails.get(m)
        if tail is not None:
            return [-t for t in tail]
        field = self.ctx.field
        return [field.one if s == m else field.zero for s in self.stair]

    def normal_form(self, f: NilPolynomial) -> list:
        """The class of f on the staircase: the sum of its terms' classes."""
        ctx = self.ctx
        ctx.check_same(f.ctx)
        nf = [ctx.field.zero] * len(self.stair)
        for e, c in f.terms.items():
            for j, v in enumerate(self.coset(ctx.index[e])):
                if v:
                    nf[j] = nf[j] + c * v
        return nf

    def reduce(self, f: NilPolynomial) -> NilPolynomial:
        """Canonical representative of f modulo the ideal."""
        ms, nf = self.ctx.monomials, self.normal_form(f)
        return NilPolynomial(self.ctx, {ms[s]: v for s, v in zip(self.stair, nf)})

    def contains(self, f: NilPolynomial) -> bool:
        return not any(self.normal_form(f))

    def matrices(self) -> list:
        """Multiplication by x_1..x_q on A/I in the staircase basis: column
        s of the i-th matrix is the class of x_i times s."""
        return [transpose([self.coset(shift[s]) for s in self.stair])
                for shift in self.ctx.shift]

    def verify_closure(self) -> None:
        """Check x_i * row stays in the span for every variable and row."""
        for i in range(1, self.ctx.q + 1):
            xi = NilPolynomial.variable(self.ctx, i)
            if not all(self.contains(xi * f) for f in self.basis_polynomials()):
                raise InternalCheckError(
                    f"span is not closed under multiplication by x{i}")

    # --- subspace calculus ------------------------------------------------
    def sum(self, other: "Ideal") -> "Ideal":
        self.ctx.check_same(other.ctx)
        return ideal_from_span(self.ctx, self.rows + other.rows)

    def product(self, other: "Ideal") -> "Ideal":
        """The ideal spanned by pairwise products.

        Generated by the pairwise products of the two corner-row lists,
        which span the same ideal as products of basis vectors.  Monomial
        ones (every tail zero) give the multiples of their monomials.
        """
        ctx = self.ctx
        ctx.check_same(other.ctx)
        gens = [g * h for g in self.generators for h in other.generators]
        if any(map(any, [*self.tails.values(), *other.tails.values()])):
            return ideal_from_generators(ctx, gens)
        prods = [e for g in gens for e in g.terms]  # both monomial
        piv = [m for m, e in enumerate(ctx.monomials)
               if any(all(map(ge, e, p)) for p in prods)]
        stair = sorted(set(range(ctx.dim)).difference(piv))
        return Ideal(ctx, stair, dict.fromkeys(piv, [ctx.field.zero] * len(stair)))

    def intersect(self, other: "Ideal") -> "Ideal":
        """The kernel of A -> A/I + A/J: the orbit kernel of the class of 1
        under the block-diagonal multiplication matrices."""
        self.ctx.check_same(other.ctx)
        zero, a, b = self.ctx.field.zero, self.colength, other.colength
        mats = [[[*row, *[zero] * b] for row in mi] + [[*[zero] * a, *row] for row in mj]
                for mi, mj in zip(self.matrices(), other.matrices())]
        return orbit_ideal(self.ctx, mats, [self.coset(0) + other.coset(0)])

    def __eq__(self, other):
        return (isinstance(other, Ideal) and self.ctx.same(other.ctx)
                and self.stair == other.stair and self.tails == other.tails)

    def __hash__(self):
        return hash((self.ctx.q, self.ctx.n, self.stair, tuple(self.tails.values())))

    def __repr__(self):
        gens = self.generators
        more = ", ..." if len(gens) > 4 else ""
        return (f"Ideal(colength={self.colength}, rank={self.rank}, "
                f"corner_rows=[{', '.join(map(repr, gens[:4]))}{more}])")


def _from_space(ctx: AlgebraContext, sp: RowSpace) -> Ideal:
    """The ideal of a closed RowSpace: its non-pivots are the staircase."""
    stair = sorted(set(range(ctx.dim)).difference(sp.pivots))
    rref, d = sp.scaled_rref()
    tails = ctx.field.decode([[row[s] for s in stair] for row in rref], d)
    return Ideal(ctx, stair, dict(zip(sp.pivots, tails)))


def _times(ctx: AlgebraContext, i: int, vec) -> list:
    """x_(i+1) * vec on ints: each monomial moves to its shift.  The move is
    one to one on the monomials it does not truncate, so nothing accumulates."""
    out = [0] * ctx.dim
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
    todo, _ = ctx.field.encode([g.to_vector() for g in gens])
    while todo:
        vec = todo.pop()
        if sp.insert_ints(vec):
            todo.extend(_times(ctx, i, vec) for i in range(ctx.q))
    return _from_space(ctx, sp)


def ideal_from_span(ctx: AlgebraContext, vectors) -> Ideal:
    """Ideal whose underlying subspace is spanned by the given coefficient
    vectors.  The span must already be closed under multiplication by the
    generators."""
    sp = RowSpace(ctx.field, ctx.dim)
    sp.extend(vectors)
    return _from_space(ctx, sp)


def _orbit(ctx: AlgebraContext, mats, vecs, monos) -> list:
    """(int rows, scale) of the images m(N) w, w in vecs, of the order ideal
    monos in monomial order: each one int product N_i (m'(N) w) with m =
    x_i m' earlier in the graded order."""
    field, at = ctx.field, {m: k for k, m in enumerate(monos)}
    enc = [field.encode(m) for m in mats]
    images = [field.encode(vecs)] + [None] * (len(monos) - 1)
    for k, m in enumerate(monos):
        for i, (mat, d) in enumerate(enc):
            t = at.get(ctx.shift[i][m])
            if t is not None and images[t] is None:
                images[t] = int_dots(images[k][0], mat, field.p), images[k][1] * d
    return images


def orbit_ideal(ctx: AlgebraContext, mats, vecs) -> Ideal:
    """The ideal of all f with f(N) w = 0 for every w in vecs, where N is a
    q-tuple of commuting matrices.

    The images m(N) w are built in monomial order (_orbit).  Eliminated as
    columns in reverse monomial order, a pivot is a monomial whose image
    is independent of those of later ones: the pivots, reversed, are the
    staircase, and a free column m, minus its entries, is the tail of m
    (the null vector of m read back in order)."""
    field, dim = ctx.field, ctx.dim
    images = _orbit(ctx, mats, vecs, range(dim))[::-1]
    # one scale for all: scaling a single column moves the null vectors
    scale = lcm(*(d for _, d in images))
    cols = [[c * (scale // d) for w in img for c in w] for img, d in images]
    sp = RowSpace(field, dim, zip(*cols))
    stair = [dim - 1 - p for p in reversed(sp.pivots)]
    (rref, d), on_stair = sp.scaled_rref(), set(stair)
    free = [m for m in range(dim) if m not in on_stair]
    tails = field.decode([[-row[dim - 1 - m] for row in reversed(rref)] for m in free], d)
    return Ideal(ctx, stair, dict(zip(free, tails)))


def zero_ideal(ctx: AlgebraContext) -> Ideal:
    return Ideal(ctx, range(ctx.dim), {})


def base_ideal(ctx: AlgebraContext) -> Ideal:
    """The ideal generated by x_2, ..., x_q (zero ideal when q = 1); its
    quotient is the one-variable truncated algebra: its staircase is 1,
    x_1, ..., x_1^(n-1), and every tail is zero."""
    stair = [ctx.index[(d,) + (0,) * (ctx.q - 1)] for d in range(ctx.n)]
    zero = [ctx.field.zero] * ctx.n
    return Ideal(ctx, stair, dict.fromkeys(set(range(ctx.dim)).difference(stair), zero))


def power_of_max_ideal(ctx: AlgebraContext, j: int) -> Ideal:
    """m^j: the span of all monomials of total degree >= j (0 <= j <= n);
    its staircase is the monomials of degree < j, and every tail is zero."""
    if not 0 <= j <= ctx.n:
        raise ValueError(f"power {j} out of range 0..{ctx.n}")
    start = ctx.deg_start[j]
    zero = [ctx.field.zero] * start
    return Ideal(ctx, range(start), dict.fromkeys(range(start, ctx.dim), zero))


def apply_automorphism(sigma: Automorphism, ideal: Ideal) -> Ideal:
    """sigma(I), read in A/I of colength c: g is in sigma(I) iff sigma^-1(g)
    is in I, iff g(N) kills the class of 1, N_j = sigma^-1(x_j)(M) for the
    matrices M of A/I.  Column s of N_j is s(M) v_j, v_j the class of
    sigma^-1(x_j), walked over the staircase: O(q c^2 dim + q c^3)."""
    if not isinstance(ideal, Ideal):
        raise TypeError(f"ideal must be an Ideal, not {type(ideal).__name__}")
    if not isinstance(sigma, Automorphism):
        raise TypeError(f"sigma must be an Automorphism, not {type(sigma).__name__}")
    ctx, field, stair = ideal.ctx, ideal.ctx.field, ideal.stair
    sigma.ctx.check_same(ctx)
    if not stair:  # the whole algebra
        return ideal
    vs = [ideal.normal_form(f) for f in sigma.inv.images]
    cols = [field.decode(img, d) for img, d in _orbit(ctx, ideal.matrices(), vs, stair)]
    mats = [transpose([col[j] for col in cols]) for j in range(ctx.q)]
    return orbit_ideal(ctx, mats, [ideal.coset(0)])


def associated_graded(ideal: Ideal) -> Ideal:
    """Span of the lowest-degree components of the elements of the ideal.

    With the graded monomial order, the rows of pivot degree >= d span
    exactly I intersect m^d, so the lowest-degree components of the RREF
    rows give a basis.  Each is its pivot plus the tail entries of the
    pivot's degree, again an RREF row: the staircase is kept.
    """
    ctx = ideal.ctx
    deg, zero = ctx.degree_of_index, ctx.field.zero
    tails = {m: [t if deg(s) == deg(m) else zero for s, t in zip(ideal.stair, tail)]
             for m, tail in ideal.tails.items()}
    return Ideal(ctx, ideal.stair, tails)


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
    return ideal_from_span(tgt, vecs)


def _linear_stair(ideal: Ideal) -> list[int]:
    """Staircase positions of the variables on it; the degree-1 parts of
    the ideal span a space H of dimension q minus their number."""
    lo, hi = ideal.ctx.deg_start[1], ideal.ctx.deg_start[2]
    return [j for j, s in enumerate(ideal.stair) if lo <= s < hi]


def base_point(ideal: Ideal):
    """(chart, covector) of the hyperplane H spanned by the degree-1 parts
    of the ideal: c spans the annihilator of H, and the chart is the
    index of its first nonzero entry, on which c is normalized to 1.
    Fails unless H is a hyperplane, which for a colength-n ideal is
    exactly the regular-annihilator condition (see is_arr).

    With x_f the variable on the staircase, c_f = 1 and c_i = -(the tail
    of x_i at x_f): x_i + tail lies in the ideal, so H is c-orthogonal."""
    ctx = ideal.ctx
    free = _linear_stair(ideal)
    if len(free) != 1:
        raise ValueError(
            f"degree-1 span has dimension {ctx.q - len(free)}, expected {ctx.q - 1}")
    c = [-ideal.tails[m][free[0]] if m in ideal.tails else ctx.field.one
         for m in range(ctx.deg_start[1], ctx.deg_start[2])]
    k = next(i for i, v in enumerate(c) if v)
    return k + 1, tuple(v / c[k] for v in c)


def is_arr(ideal: Ideal) -> bool:
    """True iff the ideal annihilates a regular tuple: it has colength n
    and exactly one variable lies on its staircase, i.e. the degree-1
    parts of its elements span a hyperplane H.

    By Nakayama, H being a hyperplane means the maximal ideal of A/I is
    generated by one linear form u, so A/I = k[u]/u^n.  If H is smaller,
    the maximal ideal of A/I needs two generators, and every u^(n-1)
    lies in the ideal; H = everything forces colength <= 1.
    """
    return ideal.colength == ideal.ctx.n and len(_linear_stair(ideal)) == 1


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
    if 0 not in ideal.stair:
        return False  # contains a unit: the whole algebra
    return len(_linear_stair(ideal)) < ideal.ctx.q
