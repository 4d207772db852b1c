"""The truncated polynomial algebra k[x_1..x_q]/(x_1..x_q)^n and its
automorphism group.

An AlgebraContext fixes q, n, the scalar field, and the ordered monomial
basis: all exponent vectors of total degree < n, sorted by degree and
within each degree lexicographically with x_1 > x_2 > ... > x_q.  Every
linear-algebra normal form in the package (ideal bases, coset bases,
moduli coordinates) is canonical relative to this order.

Composition convention, fixed once and tested: ``compose(s, t)`` applies
t first, then s, i.e. ``compose(s, t)(f) = s(t(f))``.  Consequently
``linear_part(compose(s, t)) == linear_part(t) @ linear_part(s)`` and
``compose(lift_linear(A), lift_linear(B)) == lift_linear(B @ A)``.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .fields import Field, ContextMismatch, InputInvariantError, parse_field
from . import linalg


class InternalCheckError(RuntimeError):
    """A structural property the implementation relies on failed to hold."""


class BudgetExceeded(RuntimeError):
    """An enumeration would exceed its configured hard cap."""


# Largest algebra dimension C(q+n-1, n-1) a context may enumerate.
MAX_DIM = 10 ** 5


def _monomials(q: int, n: int) -> list[tuple[int, ...]]:
    def forms(deg, nvars):
        if nvars == 1:
            yield (deg,)
            return
        for e in range(deg, -1, -1):
            for rest in forms(deg - e, nvars - 1):
                yield (e,) + rest

    out = []
    for d in range(n):
        out.extend(forms(d, q))
    return out


class AlgebraContext:
    """Shared immutable description of one algebra k[x]/m^n over one field."""

    def __init__(self, q: int, n: int, field: Field):
        if q < 1:
            raise InputInvariantError(f"q must be >= 1, got {q}")
        if n < 2:
            raise InputInvariantError(f"n must be >= 2, got {n}")
        lo, hi, dim = min(q, n - 1), max(q, n - 1), 1
        for i in range(1, lo + 1):  # dim = C(hi+i, i): at least doubles
            dim = dim * (hi + i) // i
            if dim > MAX_DIM:
                raise BudgetExceeded(f"the algebra for q={q}, n={n} has more "
                                     f"than {MAX_DIM} monomials")
        self.q = q
        self.n = n
        self.field = field
        self.monomials = _monomials(q, n)
        self.index = {e: i for i, e in enumerate(self.monomials)}
        self.dim = len(self.monomials)
        assert self.dim == comb(q + n - 1, n - 1)
        # first basis index of each total degree; deg_start[n] == dim
        self.deg_start = [0] * (n + 1)
        for d in range(1, n + 1):
            self.deg_start[d] = self.deg_start[d - 1] + comb(q + d - 2, d - 1)
        # index map of multiplication by each generator (None = truncated away)
        self.shift = []
        for i in range(q):
            col = []
            for e in self.monomials:
                if sum(e) + 1 >= n:
                    col.append(None)
                else:
                    e2 = e[:i] + (e[i] + 1,) + e[i + 1:]
                    col.append(self.index[e2])
            self.shift.append(col)

    def degree_of_index(self, idx: int) -> int:
        return sum(self.monomials[idx])

    def same(self, other: "AlgebraContext") -> bool:
        return (self.q, self.n, self.field) == (other.q, other.n, other.field)

    def check_same(self, other: "AlgebraContext") -> None:
        if not self.same(other):
            raise ContextMismatch(
                f"context mismatch: (q={self.q}, n={self.n}, {self.field}) vs "
                f"(q={other.q}, n={other.n}, {other.field})")

    def __eq__(self, other):
        return isinstance(other, AlgebraContext) and self.same(other)

    def __hash__(self):
        return hash((self.q, self.n, self.field))

    def __repr__(self):
        return f"AlgebraContext(q={self.q}, n={self.n}, field={self.field})"


@lru_cache(maxsize=None)
def _cached_context(q: int, n: int, field: Field) -> AlgebraContext:
    return AlgebraContext(q, n, field)


def make_context(q: int, n: int, field: Field | str = "Q") -> AlgebraContext:
    """Create (or fetch) the algebra context for q variables truncated at
    degree n over the given field ('Q', 'Fp:<p>' or a field object)."""
    if isinstance(field, str):
        field = parse_field(field)
    return _cached_context(q, n, field)


class NilPolynomial:
    """Element of the truncated algebra: sparse map exponent -> coefficient.

    Zero coefficients are never stored; all exponents have total degree
    < n.  Values are immutable by convention.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: AlgebraContext, terms: dict):
        self.ctx = ctx
        self.terms = {e: c for e, c in terms.items() if c}

    # --- constructors -------------------------------------------------
    @staticmethod
    def zero(ctx):
        return NilPolynomial(ctx, {})

    @staticmethod
    def one(ctx):
        return NilPolynomial(ctx, {(0,) * ctx.q: ctx.field.one})

    @staticmethod
    def variable(ctx, i: int):
        """The generator x_i, 1-based."""
        if not 1 <= i <= ctx.q:
            raise ValueError(f"variable index {i} out of range 1..{ctx.q}")
        e = tuple(1 if j == i - 1 else 0 for j in range(ctx.q))
        return NilPolynomial(ctx, {e: ctx.field.one})

    @staticmethod
    def monomial(ctx, exp, coef=None):
        exp = tuple(exp)
        if exp not in ctx.index:
            raise ValueError(f"exponent {exp} not in the basis (degree >= {ctx.n}?)")
        return NilPolynomial(ctx, {exp: ctx.field.one if coef is None else coef})

    @staticmethod
    def from_vector(ctx, vec):
        return NilPolynomial(ctx, {ctx.monomials[i]: c for i, c in enumerate(vec) if c})

    # --- linear structure ---------------------------------------------
    def _check(self, other):
        self.ctx.check_same(other.ctx)

    def __add__(self, other):
        self._check(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e)
            t[e] = c if s is None else s + c
        return NilPolynomial(self.ctx, t)

    def __sub__(self, other):
        self._check(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e)
            t[e] = -c if s is None else s - c
        return NilPolynomial(self.ctx, t)

    def __neg__(self):
        return NilPolynomial(self.ctx, {e: -c for e, c in self.terms.items()})

    def scale(self, c):
        c = self.ctx.field.scalar(c)
        if not c:
            return NilPolynomial.zero(self.ctx)
        return NilPolynomial(self.ctx, {e: c * v for e, v in self.terms.items()})

    # --- ring structure -------------------------------------------------
    def __mul__(self, other):
        if not isinstance(other, NilPolynomial):
            return self.scale(other)
        self._check(other)
        n = self.ctx.n
        t: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                if sum(e1) + sum(e2) >= n:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = t.get(e)
                t[e] = c if s is None else s + c
        return NilPolynomial(self.ctx, t)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power in a truncated algebra")
        out = NilPolynomial.one(self.ctx)
        for _ in range(k):
            out = out * self
            if not out.terms:
                break
        return out

    # --- inspection -----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def order(self) -> int:
        """Minimal total degree of a nonzero term (the poly must be nonzero)."""
        if not self.terms:
            raise ValueError("the zero element has no order")
        return min(sum(e) for e in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * self.ctx.q, self.ctx.field.zero)

    def linear_coeffs(self) -> list:
        """Coefficients of x_1..x_q as a row vector."""
        out = []
        for i in range(self.ctx.q):
            e = tuple(1 if j == i else 0 for j in range(self.ctx.q))
            out.append(self.terms.get(e, self.ctx.field.zero))
        return out

    def to_vector(self) -> list:
        vec = [self.ctx.field.zero] * self.ctx.dim
        for e, c in self.terms.items():
            vec[self.ctx.index[e]] = c
        return vec

    def substitute(self, images: list["NilPolynomial"]) -> "NilPolynomial":
        """Evaluate at x_i = images[i-1] by truncated arithmetic."""
        if len(images) != self.ctx.q:
            raise ValueError("need one image per generator")
        powers: list[dict] = [dict() for _ in range(self.ctx.q)]
        out = NilPolynomial.zero(self.ctx)
        for e, c in self.terms.items():
            term = None
            for i, k in enumerate(e):
                if k == 0:
                    continue
                pw = powers[i].get(k)
                if pw is None:
                    pw = images[i] ** k
                    powers[i][k] = pw
                term = pw if term is None else term * pw
            if term is None:
                term = NilPolynomial.one(self.ctx)
            out = out + term.scale(c)
        return out

    def __eq__(self, other):
        return (isinstance(other, NilPolynomial) and self.ctx.same(other.ctx)
                and self.terms == other.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=self.ctx.index.get):
            c = self.terms[e]
            mono = "*".join(
                f"x{i+1}" + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(e) if k)
            if not mono:
                bits.append(str(c))
            elif c == self.ctx.field.one:
                bits.append(mono)
            else:
                bits.append(f"{c}*{mono}")
        return " + ".join(bits)


def linear_polynomial(ctx: AlgebraContext, coeffs) -> NilPolynomial:
    """Sum of coeffs[i] * x_{i+1}."""
    terms = {}
    for i, c in enumerate(coeffs):
        if c:
            e = tuple(1 if j == i else 0 for j in range(ctx.q))
            terms[e] = c
    return NilPolynomial(ctx, terms)


class AlgebraMap:
    """Endomorphism of the algebra given by the images of the generators.

    Images must have zero constant term; otherwise substitution is not
    compatible with the truncation.
    """

    def __init__(self, ctx: AlgebraContext, images: list[NilPolynomial]):
        if len(images) != ctx.q:
            raise ValueError(f"expected {ctx.q} generator images, got {len(images)}")
        for i, g in enumerate(images):
            ctx.check_same(g.ctx)
            if g.constant_term():
                raise ValueError(f"image of x{i+1} has a nonzero constant term")
        self.ctx = ctx
        self.images = tuple(images)

    def __call__(self, f: NilPolynomial) -> NilPolynomial:
        self.ctx.check_same(f.ctx)
        return f.substitute(list(self.images))

    def linear_part(self):
        """q x q matrix with entry (i, j) = coefficient of x_{j+1} in the
        image of x_{i+1}."""
        return [g.linear_coeffs() for g in self.images]

    def is_identity(self) -> bool:
        return all(g == NilPolynomial.variable(self.ctx, i + 1)
                   for i, g in enumerate(self.images))

    def __eq__(self, other):
        return (isinstance(other, AlgebraMap) and self.ctx.same(other.ctx)
                and self.images == other.images)

    def __repr__(self):
        ims = ", ".join(f"x{i+1} -> {g}" for i, g in enumerate(self.images))
        return f"AlgebraMap({ims})"


def map_compose(s: AlgebraMap, t: AlgebraMap) -> AlgebraMap:
    """The endomorphism f -> s(t(f)): apply t first, then s."""
    s.ctx.check_same(t.ctx)
    return AlgebraMap(s.ctx, [s(g) for g in t.images])


def identity_map(ctx: AlgebraContext) -> AlgebraMap:
    return AlgebraMap(ctx, [NilPolynomial.variable(ctx, i + 1) for i in range(ctx.q)])


class Automorphism:
    """An invertible AlgebraMap bundled with its exact inverse.

    Use ``automorphism`` / ``lift_linear`` / ``compose`` / ``invert`` to
    build these; the pairing (fwd, inv) is maintained so inversion is free.
    """

    __slots__ = ("fwd", "inv")

    def __init__(self, fwd: AlgebraMap, inv: AlgebraMap):
        self.fwd = fwd
        self.inv = inv

    @property
    def ctx(self):
        return self.fwd.ctx

    @property
    def images(self):
        return self.fwd.images

    def __call__(self, f: NilPolynomial) -> NilPolynomial:
        return self.fwd(f)

    def linear_part(self):
        return self.fwd.linear_part()

    def is_identity(self) -> bool:
        return self.fwd.is_identity()

    def __eq__(self, other):
        return isinstance(other, Automorphism) and self.fwd == other.fwd

    def __repr__(self):
        return f"Automorphism({self.fwd!r})"


def identity_automorphism(ctx: AlgebraContext) -> Automorphism:
    e = identity_map(ctx)
    return Automorphism(e, e)


def lift_linear(ctx: AlgebraContext, matrix) -> Automorphism:
    """The linear automorphism x_i -> sum_j A[i][j] x_j for invertible A."""
    a = [[ctx.field.scalar(c) for c in row] for row in matrix]
    ainv = linalg.mat_inv(ctx.field, a)
    if ainv is None:
        raise ValueError("matrix is singular, not an automorphism")
    fwd = AlgebraMap(ctx, [linear_polynomial(ctx, row) for row in a])
    inv = AlgebraMap(ctx, [linear_polynomial(ctx, row) for row in ainv])
    return Automorphism(fwd, inv)


def compose(s: Automorphism, t: Automorphism) -> Automorphism:
    """Group law: apply t first, then s."""
    return Automorphism(map_compose(s.fwd, t.fwd), map_compose(t.inv, s.inv))


def invert(s: Automorphism) -> Automorphism:
    return Automorphism(s.inv, s.fwd)


def _invert_linearly_trivial(m: AlgebraMap) -> AlgebraMap:
    """Exact inverse of a map whose linear part is the identity.

    Successive approximation: each correction round composes with the map
    x_i -> x_i - d_i built from the current defect d_i = m(x_i) - x_i, which
    strictly raises the order of the defect, so at most n - 2 rounds occur
    before the defect lands in m^n = 0.
    """
    ctx = m.ctx
    phi = identity_map(ctx)
    rho = m
    for _ in range(ctx.n):
        defects = [rho.images[i] - NilPolynomial.variable(ctx, i + 1)
                   for i in range(ctx.q)]
        if all(d.is_zero() for d in defects):
            return phi
        kappa = AlgebraMap(ctx, [NilPolynomial.variable(ctx, i + 1) - defects[i]
                                 for i in range(ctx.q)])
        phi = map_compose(phi, kappa)
        rho = map_compose(rho, kappa)
    raise InternalCheckError("inversion did not terminate in n rounds")


def automorphism(m: AlgebraMap) -> Automorphism:
    """Promote a map with invertible linear part to an Automorphism.

    The inverse is computed exactly and verified two-sided on generators.
    """
    ctx = m.ctx
    lin = m.linear_part()
    lin_inv = linalg.mat_inv(ctx.field, lin)
    if lin_inv is None:
        raise ValueError("linear part is singular, not an automorphism")
    head = AlgebraMap(ctx, [linear_polynomial(ctx, row) for row in lin_inv])
    psi = map_compose(head, m)          # linearly trivial
    phi = _invert_linearly_trivial(psi)
    inv = map_compose(phi, head)        # m o inv = identity
    for chk in (map_compose(m, inv), map_compose(inv, m)):
        if not chk.is_identity():
            raise InternalCheckError("computed inverse failed the round trip")
    return Automorphism(m, inv)


def automorphism_from_images(ctx: AlgebraContext, images) -> Automorphism:
    return automorphism(AlgebraMap(ctx, list(images)))


def is_linearly_trivial(s: Automorphism | AlgebraMap) -> bool:
    ident = linalg.identity_matrix(s.ctx.field, s.ctx.q)
    return linalg.mat_eq(s.linear_part(), ident)


def filtration_level(s: Automorphism | AlgebraMap):
    """Largest j >= 0 with s(x_i) - x_i in m^(j+2) for every i.

    Returns None when the linear part is not the identity.  The identity
    automorphism reports the maximal meaningful level n - 2 (its defects
    vanish outright), avoiding an infinity sentinel.
    """
    ctx = s.ctx
    if not is_linearly_trivial(s):
        return None
    level = ctx.n - 2
    imgs = s.images if isinstance(s, AlgebraMap) else s.fwd.images
    for i, g in enumerate(imgs):
        d = g - NilPolynomial.variable(ctx, i + 1)
        if not d.is_zero():
            level = min(level, d.order() - 2)
    return level
