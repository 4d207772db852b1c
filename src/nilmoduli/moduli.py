"""Coordinates for the moduli of regular commuting nilpotent tuples.

A colength-n ideal that annihilates a regular tuple determines, and is
determined by, a pair of coordinates:

* a base covector c on projective (q-1)-space: the hyperplane cut out by
  the ideal inside the degree-1 coefficient space, normalized so that the
  first nonzero entry (the chart index) equals 1;
* a fiber matrix b, rows i = 2..q and columns j = 2..n-1, read off from
  the chart-normalized ideal <x_i - s_i(x_1)> with s_i(z) = sum_j b_ij z^j.

A point is the algebra map A -> A/I = k[u]/u^n with x_chart -> u and
every other x_j -> f_j(u) = c_j u + s_j(u), the rows of b holding the
coefficients of the series s_j, and its ideal is the kernel of that map.
Reading the f_j in a basis of the quotient gives the point of an ideal,
of a tuple, or of a point on another chart; the kernel gives the ideal
back, so the round trip ideal <-> (chart, c, b) is exact in both
directions and chart transitions are reproducible functions of the
coordinates.  An automorphism sigma moves the ideal to the kernel of
x_j -> sigma^-1(x_j)(f_1(u), ..., f_q(u)), so the stabilizer of the
standard hyperplane acts on fiber coordinates by reading that quotient;
the action is computed two independent ways (through the ideal, and in
the quotient) plus a one-parameter twist that degenerates to a linear
weighted action.  Chart transitions and the gamma factor of a linearly
trivial automorphism are read the same way.
"""

from __future__ import annotations

import random
from itertools import product
from math import comb

from .algebra import (AlgebraContext, NilPolynomial, AlgebraMap, Automorphism,
                      InternalCheckError, make_context, lift_linear, compose,
                      invert, is_linearly_trivial, linear_polynomial)
from .fields import InputInvariantError, PrimeField, QQ
from .ideals import (Ideal, ideal_from_generators, apply_automorphism,
                     base_ideal, base_point, ideal_coset, orbit_ideal,
                     power_of_max_ideal)
from .reps import NilTuple, _krylov_frame, _regular_index
from . import linalg


class ModuliPoint:
    """Chart coordinates of a classified tuple: (chart k, covector c, b).

    Canonical points (as produced by moduli_point) have chart equal to the
    least index with a nonzero covector entry; transition_map deliberately
    produces representations on other charts, where entries before the
    chart index may be nonzero.
    """

    __slots__ = ("ctx", "chart", "c", "b")

    def __init__(self, ctx: AlgebraContext, chart: int, c, b):
        field = ctx.field
        c = tuple(field.scalar(v) for v in c)
        b = tuple(tuple(field.scalar(v) for v in row) for row in b)
        if not 1 <= chart <= ctx.q:
            raise ValueError(f"chart {chart} out of range 1..{ctx.q}")
        if len(c) != ctx.q:
            raise ValueError("covector has wrong length")
        if c[chart - 1] != field.one:
            raise ValueError("covector is not normalized on its chart")
        if len(b) != ctx.q - 1 or any(len(r) != ctx.n - 2 for r in b):
            raise ValueError(f"fiber matrix must be {ctx.q - 1} x {ctx.n - 2}")
        self.ctx = ctx
        self.chart = chart
        self.c = c
        self.b = b

    def is_canonical(self) -> bool:
        return all(not v for v in self.c[:self.chart - 1])

    def __eq__(self, other):
        return (isinstance(other, ModuliPoint) and self.ctx.same(other.ctx)
                and (self.chart, self.c, self.b) == (other.chart, other.c, other.b))

    def __hash__(self):
        return hash((self.chart, self.c, self.b))

    def __repr__(self):
        fmt = self.ctx.field.format
        c = "[" + ", ".join(fmt(v) for v in self.c) + "]"
        b = "[" + ", ".join("[" + ", ".join(fmt(v) for v in row) + "]"
                            for row in self.b) + "]"
        return f"ModuliPoint(chart={self.chart}, c={c}, b={b})"


def zero_fiber(ctx: AlgebraContext):
    return tuple(tuple(ctx.field.zero for _ in range(ctx.n - 2))
                 for _ in range(ctx.q - 1))


def random_point(ctx: AlgebraContext, rng: random.Random) -> ModuliPoint:
    """Canonical point with small-height coordinates, deterministic in rng."""
    field = ctx.field
    if isinstance(field, PrimeField):
        draw = lambda: field.scalar(rng.randrange(field.p))
    else:
        draw = lambda: field.scalar(rng.randint(-3, 3))
    chart = rng.randrange(1, ctx.q + 1)
    c = [field.zero] * ctx.q
    c[chart - 1] = field.one
    for j in range(chart, ctx.q):
        c[j] = draw()
    b = [[draw() for _ in range(ctx.n - 2)] for _ in range(ctx.q - 1)]
    return ModuliPoint(ctx, chart, c, b)


# --- points and their quotients ------------------------------------------

def _read_point(ctx: AlgebraContext, k: int, frame, classes) -> ModuliPoint:
    """The point on chart k of a quotient A/I = k[u]/u^n with u = x_k.

    frame has the classes of 1, x_k, ..., x_k^(n-1) as its columns and
    classes holds those of x_1..x_q, all in one basis of A/I.  One inverse
    writes each x_j as f_j(u) = c_j u + s_j(u): c_j = f_j[1], and the
    coefficients of s_j (j != k, in index order) are the rows of b."""
    inv = linalg.mat_inv(ctx.field, frame)
    if inv is None:
        raise InternalCheckError(f"powers of x{k} do not span the quotient")
    series = [linalg.mat_vec(inv, v) for v in classes]
    if any(f[0] for f in series):
        raise InternalCheckError("a generator has a constant term modulo the ideal")
    return ModuliPoint(ctx, k, [f[1] for f in series],
                       [f[2:] for j, f in enumerate(series, 1) if j != k])


def _series(point: ModuliPoint):
    """Coefficients on 1, u, ..., u^(n-1) of the images f_j(u) of x_1..x_q
    under A -> k[u]/u^n: f_chart = u, and the other x_j, in index order
    with the rows of b, go to c_j u + s(u)."""
    zero = point.ctx.field.zero
    rows = list(point.b)
    rows.insert(point.chart - 1, (zero,) * (point.ctx.n - 2))
    return [[zero, cj, *row] for cj, row in zip(point.c, rows)]


def _series_in_chart(point: ModuliPoint):
    """The f_j(x_chart), j = 1..q, each congruent to x_j modulo the ideal."""
    ctx, k = point.ctx, point.chart
    pure = [tuple(d if m == k - 1 else 0 for m in range(ctx.q)) for d in range(ctx.n)]
    return [NilPolynomial(ctx, dict(zip(pure, f))) for f in _series(point)]


def _act(point: ModuliPoint, inverse_images, chart: int) -> ModuliPoint:
    """The point on the given chart of sigma(I), I the ideal of point and
    inverse_images the g_j = sigma^-1(x_j): sigma(I) is the kernel of
    x_j -> g_j(f_1(u), ..., f_q(u)), each class is one substitution of
    univariate series, and the frame holds the powers of the class of
    x_chart."""
    ctx, k = point.ctx, point.chart
    series = _series_in_chart(point)
    classes = [g.substitute(series) for g in inverse_images]

    def coefficients(f):  # f is a polynomial in x_k alone
        vec = [ctx.field.zero] * ctx.n
        for e, c in f.terms.items():
            vec[e[k - 1]] = c
        return vec
    powers = [NilPolynomial.one(ctx)]
    for _ in range(ctx.n - 1):
        powers.append(powers[-1] * classes[chart - 1])
    frame = linalg.transpose([coefficients(f) for f in powers])
    return _read_point(ctx, chart, frame, [coefficients(f) for f in classes])


def _standard_point(ctx: AlgebraContext, b) -> ModuliPoint:
    return ModuliPoint(ctx, 1, [ctx.field.one] + [ctx.field.zero] * (ctx.q - 1), b)


def _multiplication(field, f):
    """The matrix f(J) of multiplication by f on k[u]/u^n, basis u^0..u^(n-1)."""
    n = len(f)
    return [[f[r - s] if r >= s else field.zero for s in range(n)] for r in range(n)]


def moduli_point(ideal: Ideal) -> ModuliPoint:
    """Complete conjugacy invariant of a regular-annihilator ideal: its base
    point (k, c) and the fiber matrix read in A/I by reduction, where x_j
    is c_j x_k + s(x_k)."""
    k, c = base_point(ideal)
    ctx = ideal.ctx
    if ideal.colength != ctx.n:
        raise ValueError(f"colength {ideal.colength} != {ctx.n}")
    coset = ideal_coset(ideal)
    xk = NilPolynomial.variable(ctx, k)
    frame = linalg.transpose([coset((xk ** d).to_vector()) for d in range(ctx.n)])
    point = _read_point(ctx, k, frame, [coset(NilPolynomial.variable(ctx, j).to_vector())
                                        for j in range(1, ctx.q + 1)])
    if point.c != c:
        raise InternalCheckError("the quotient reads a covector other than the base point")
    return point


def tuple_point(t: NilTuple) -> ModuliPoint:
    """moduli_point(annihilator(t)) of a regular tuple, without the ideal.

    With N = N_k the first regular matrix and v its Krylov start, f -> f(N) v
    identifies A/I with k^n: the Krylov frame holds the classes of 1, x_k,
    ..., x_k^(n-1), and N_j v that of x_j.  No N_j before N_k is regular,
    so the point is canonical.  ValueError when the tuple is not regular."""
    i = _regular_index(t)
    if i is None:
        raise ValueError("tuple is not regular")
    frame = _krylov_frame(t, i)
    v = [row[0] for row in frame]
    return _read_point(t.ctx, i + 1, frame, [linalg.mat_vec(m, v) for m in t.mats])


def fiber_coordinates(ideal: Ideal):
    """Fiber matrix b of a chart-normalized ideal (base covector e_1): each
    x_i, i >= 2, is s_i(x_1) modulo the ideal, read on the basis 1, x_1,
    ..., x_1^(n-1) of the quotient; b collects the coefficients."""
    point = moduli_point(ideal)
    if point.chart != 1 or any(point.c[1:]):
        raise ValueError("ideal is not normalized onto the standard chart")
    return point.b


def ideal_from_point(point: ModuliPoint) -> Ideal:
    """Exact inverse of moduli_point (on canonical points): the kernel of
    x_j -> f_j(u), i.e. the orbit kernel of the multiplications f_j(J) on
    1 in k[u]/u^n, generated by x_j - f_j(x_chart) for j != chart."""
    ctx = point.ctx
    one = [ctx.field.one] + [ctx.field.zero] * (ctx.n - 1)
    kernel = orbit_ideal(ctx, [_multiplication(ctx.field, f) for f in _series(point)], [one])
    gens = [NilPolynomial.variable(ctx, j) - f
            for j, f in enumerate(_series_in_chart(point), 1) if j != point.chart]
    return Ideal(ctx, kernel.rows, kernel.pivots, gens)


def normal_form_ideal(ctx: AlgebraContext, b) -> Ideal:
    """The chart-normalized ideal <x_i - s_i(x_1)> with coefficients b."""
    return ideal_from_point(_standard_point(ctx, b))


# --- factorization of linearly trivial automorphisms --------------------

def _gamma_from_fiber(ctx: AlgebraContext, b) -> Automorphism:
    """The automorphism fixing x_1 with x_i -> x_i - s_i(x_1); its inverse
    flips the sign of s, exactly, because x_1 is fixed."""
    x1, *s = _series_in_chart(_standard_point(ctx, b))
    xs = [NilPolynomial.variable(ctx, i) for i in range(2, ctx.q + 1)]
    return Automorphism(AlgebraMap(ctx, [x1] + [x - f for x, f in zip(xs, s)]),
                        AlgebraMap(ctx, [x1] + [x + f for x, f in zip(xs, s)]))


def gamma_factor(sigma: Automorphism):
    """Unique factorization sigma = gamma o h of a linearly trivial
    automorphism, where gamma fixes x_1 and moves x_i by a polynomial in
    x_1 only, and h stabilizes the standard-position ideal.

    gamma is determined by the fiber coordinates of sigma applied to the
    standard-position ideal, read in the quotient of the base point from
    the images of sigma^-1; both factor properties are verified."""
    ctx = sigma.ctx
    if not is_linearly_trivial(sigma):
        raise ValueError("automorphism is not linearly trivial")
    q1 = base_ideal(ctx)
    moved = _act(_standard_point(ctx, zero_fiber(ctx)), sigma.inv.images, 1)
    gamma = _gamma_from_fiber(ctx, moved.b)
    h = compose(invert(gamma), sigma)
    if apply_automorphism(h, q1) != q1:
        raise InternalCheckError("complement factor failed to stabilize the base ideal")
    if compose(gamma, h).fwd != sigma.fwd:
        raise InternalCheckError("factorization does not recompose")
    return gamma, h


# --- the stabilizer of the standard hyperplane and its actions ----------

class P1Element:
    """Invertible q x q matrix with zero first column below the corner:
    the stabilizer of the standard chart.  Block form [[p11, R], [0, Q]]."""

    __slots__ = ("field", "matrix", "inverse")

    def __init__(self, field, matrix):
        matrix = tuple(tuple(field.scalar(v) for v in row) for row in matrix)
        q = len(matrix)
        if any(len(r) != q for r in matrix):
            raise ValueError("matrix is not square")
        if any(matrix[i][0] for i in range(1, q)):
            raise ValueError("matrix does not stabilize the standard chart "
                             "(first column has entries below the corner)")
        if not matrix[0][0]:
            raise ValueError("corner entry is zero")
        inv = linalg.mat_inv(field, [list(r) for r in matrix])
        if inv is None:
            raise ValueError("matrix is singular")
        self.field = field
        self.matrix = matrix
        self.inverse = tuple(tuple(r) for r in inv)

    @property
    def q(self) -> int:
        return len(self.matrix)

    @property
    def p11(self):
        return self.matrix[0][0]

    def lower_block(self):
        return [list(row[1:]) for row in self.matrix[1:]]

    def twist(self, t) -> "P1Element":
        """Scale the off-diagonal row block R by t (the corner and the
        lower block are untouched); t = 1 is the identity twist, t = 0
        kills R and linearizes the fiber action."""
        t = self.field.scalar(t)
        rows = [[self.matrix[0][0]] + [t * v for v in self.matrix[0][1:]]]
        rows.extend(list(r) for r in self.matrix[1:])
        return P1Element(self.field, rows)

    def __eq__(self, other):
        return isinstance(other, P1Element) and self.matrix == other.matrix

    def __repr__(self):
        return f"P1Element({[list(r) for r in self.matrix]})"


def random_p1(ctx: AlgebraContext, rng: random.Random) -> P1Element:
    """Small-height random stabilizer element (deterministic in rng)."""
    field, q = ctx.field, ctx.q
    if isinstance(field, PrimeField):
        units = [field.scalar(v) for v in range(1, field.p)]
        draw = lambda: field.scalar(rng.randrange(field.p))
    else:
        units = [field.scalar(v) for v in (-2, -1, 1, 2, 3)]
        draw = lambda: field.scalar(rng.randint(-2, 2))
    while True:
        rows = [[field.zero] * q for _ in range(q)]
        rows[0][0] = rng.choice(units)
        for j in range(1, q):
            rows[0][j] = draw()
        for i in range(1, q):
            for j in range(1, q):
                rows[i][j] = draw()
        block = [r[1:] for r in rows[1:]]
        if q == 1 or linalg.mat_inv(field, block) is not None:
            return P1Element(field, rows)


def p1_action_bruteforce(ctx: AlgebraContext, p: P1Element, b):
    """Action on fiber coordinates via the ideal: substitute the linear
    automorphism of p into the normalized ideal and renormalize."""
    ideal = normal_form_ideal(ctx, b)
    moved = apply_automorphism(lift_linear(ctx, p.matrix), ideal)
    return fiber_coordinates(moved)


def p1_action_closed(ctx: AlgebraContext, p: P1Element, b):
    """Same action read in the quotient, never building the ideal: the
    moved ideal is the kernel of x_j -> sum_i p^-1[j][i] f_i(u), read on
    chart 1."""
    moved = _act(_standard_point(ctx, b),
                 [linear_polynomial(ctx, row) for row in p.inverse], 1)
    if any(moved.c[1:]):
        raise InternalCheckError("the moved point left the standard covector")
    return moved.b


def p1_action_twisted(ctx: AlgebraContext, p: P1Element, b, t):
    """The twisted action: act by p with its off-diagonal block scaled by
    t.  At t = 1 this is the plain action; at t = 0 it is linear in b and
    equals the weighted formula of p1_weight_action."""
    return p1_action_closed(ctx, p.twist(t), b)


def p1_weight_action(ctx: AlgebraContext, p: P1Element, b):
    """Closed linear form of the t = 0 action: mix the rows of b by the
    inverse lower block and scale column j by the corner to the power j."""
    field = ctx.field
    if ctx.q == 1:
        return tuple()
    block_inv = linalg.mat_inv(field, p.lower_block())
    out = []
    for k in range(ctx.q - 1):
        row = []
        for j in range(2, ctx.n):
            s = field.zero
            for i in range(ctx.q - 1):
                if block_inv[k][i] and b[i][j - 2]:
                    s = s + block_inv[k][i] * b[i][j - 2]
            row.append(s * p.p11 ** j)
        out.append(tuple(row))
    return tuple(out)


def weight_scale(ctx: AlgebraContext, b, t):
    """Entry map b_ij -> t^j b_ij: the fiber effect of rescaling x_1 by t.
    Conjugating the plain action by this map realizes the twisted action."""
    t = ctx.field.scalar(t)
    return tuple(tuple(b[i][j - 2] * t ** j for j in range(2, ctx.n))
                 for i in range(ctx.q - 1))


def fiber_add(b1, b2):
    return tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(b1, b2))


def fiber_scale(b, lam):
    return tuple(tuple(lam * x for x in r) for r in b)


# --- chart transitions ---------------------------------------------------

def transition_map(point: ModuliPoint, target_chart: int) -> ModuliPoint:
    """Re-express a point in the coordinates of another chart.  The point
    must lie on the target chart (nonzero covector entry there).  It is
    read in its own quotient k[u]/u^n, without its ideal: x_j has the
    class f_j(u), and the frame holds the powers of f_l(u)."""
    ctx = point.ctx
    l = target_chart
    if not 1 <= l <= ctx.q:
        raise ValueError(f"chart {l} out of range 1..{ctx.q}")
    if not point.c[l - 1]:
        raise ValueError(f"point does not lie on chart {l}")
    return _act(point, [NilPolynomial.variable(ctx, j) for j in range(1, ctx.q + 1)], l)


def linearity_witness(q: int, n: int, chart_from: int, chart_to: int,
                      field=QQ):
    """Search for a violation of linearity of the chart-transition fiber
    map at a fixed base point.

    Scans a deterministic small-height grid of fiber vectors and checks
    homogeneity (doubling) and additivity of b -> transition(b).  Returns
    a witness dict, or None when the map is linear on the whole grid.
    """
    ctx = make_context(q, n, field)
    if not (1 <= chart_from <= q and 1 <= chart_to <= q):
        raise InputInvariantError(f"charts must lie in 1..{q}")
    if chart_from == chart_to:
        raise InputInvariantError("charts must differ")
    shape = (q - 1) * (n - 2)
    if shape == 0:
        return None
    two = field.scalar(2)
    heights = (0, 1, -1, 2, -2, 3, -3) if shape <= 2 else (0, 1, -1, 2)

    def unflatten(flat):
        it = iter(flat)
        return tuple(tuple(field.scalar(next(it)) for _ in range(n - 2))
                     for _ in range(q - 1))

    for t_c in (1, 2, 3):
        c = [field.zero] * q
        c[chart_from - 1] = field.one
        c[chart_to - 1] = field.scalar(t_c)
        if not c[chart_to - 1]:
            continue  # t_c can vanish mod p
        c = tuple(c)

        def trans(b):
            return transition_map(ModuliPoint(ctx, chart_from, c, b), chart_to).b

        for flat in product(heights, repeat=shape):
            b = unflatten(flat)
            lhs = trans(fiber_scale(b, two))
            rhs = fiber_scale(trans(b), two)
            if lhs != rhs:
                return {"kind": "homogeneity", "c": c, "b": b, "lam": two,
                        "lhs": lhs, "rhs": rhs}
        singles = []
        for pos in range(shape):
            flat = [0] * shape
            flat[pos] = 1
            singles.append(unflatten(flat))
        for b1 in singles:
            for b2 in singles:
                lhs = trans(fiber_add(b1, b2))
                rhs = fiber_add(trans(b1), trans(b2))
                if lhs != rhs:
                    return {"kind": "additivity", "c": c, "b": b1, "b2": b2,
                            "lhs": lhs, "rhs": rhs}
    return None


# --- versal family and the two-variable embedding ------------------------

def universal_ideal_specialize(ctx: AlgebraContext, a, b) -> Ideal:
    """Specialize the versal generator family: the ideal generated by
    sum_l a_il x_l - sum_j b_ij (sum_l a_1l x_l)^j for i = 2..q, for an
    invertible coefficient matrix a.  Always annihilates a regular tuple."""
    field = ctx.field
    a = [[field.scalar(v) for v in row] for row in a]
    if linalg.mat_inv(field, a) is None:
        raise ValueError("coefficient matrix is singular")
    images = [linear_polynomial(ctx, row) for row in a]
    _, *s = _series_in_chart(_standard_point(ctx, b))
    return ideal_from_generators(ctx, [(NilPolynomial.variable(ctx, i) - f).substitute(images)
                                       for i, f in enumerate(s, 2)])


def embed_from_two_variables(ideal: Ideal, q_target: int) -> Ideal:
    """Push a regular-annihilator ideal in two variables into q variables
    by adding the relations x_j = x_2 for j >= 3; the associated tuple is
    (N_1, N_2, N_2, ..., N_2) up to conjugation."""
    ctx2 = ideal.ctx
    if ctx2.q != 2:
        raise ValueError("source ideal must live in two variables")
    if q_target < 3:
        raise ValueError("target must have at least three variables")
    ctx = make_context(q_target, ctx2.n, ctx2.field)
    pad = (0,) * (q_target - 2)
    gens = [NilPolynomial(ctx, {e + pad: c for e, c in p.terms.items()})
            for p in ideal.basis_polynomials()]
    x2 = NilPolynomial.variable(ctx, 2)
    for j in range(3, q_target + 1):
        gens.append(NilPolynomial.variable(ctx, j) - x2)
    out = ideal_from_generators(ctx, gens)
    if out.colength != ctx.n:
        raise InternalCheckError("embedded ideal has the wrong colength")
    return out


# --- dimension bookkeeping ------------------------------------------------

class DimensionReport:
    """Directly computed subspace and group dimensions for one (q, n),
    checked against the closed formulas, with flags for the two closed-form
    variants that disagree with the direct computation."""

    def __init__(self, q: int, n: int, field=QQ):
        if q < 2:
            raise InputInvariantError("the report needs at least two variables")
        ctx = make_context(q, n, field)
        D = ctx.dim
        m = power_of_max_ideal(ctx, 1)
        m2 = power_of_max_ideal(ctx, 2)
        q1 = base_ideal(ctx)
        q1m = q1.product(m)
        self.q, self.n, self.D = q, n, D
        self.dim_m = m.rank
        self.dim_m2 = m2.rank
        self.dim_q1 = q1.rank
        self.dim_q1m = q1m.rank
        self.q1_cap_m2_equals_q1m = (q1.intersect(m2) == q1m)
        # group dimensions through the product structure of the
        # linearly trivial group and its base-ideal stabilizer
        self.dim_lin_trivial = q * self.dim_m2
        self.dim_lin_stab = self.dim_m2 + (q - 1) * self.dim_q1m
        self.dim_aut = q * q + self.dim_lin_trivial
        self.dim_stab = (q * q - q + 1) + self.dim_lin_stab
        self.dim_orbit = self.dim_aut - self.dim_stab
        self.dim_fiber = self.dim_lin_trivial - self.dim_lin_stab
        self.dim_base = q - 1
        self.checks = [
            ("dim m == D - 1", self.dim_m, D - 1),
            ("dim m^2 == D - q - 1", self.dim_m2, D - q - 1),
            ("dim q1 == D - n", self.dim_q1, D - n),
            ("dim q1*m == D - q - n + 1", self.dim_q1m, D - q - n + 1),
            ("q1 cap m^2 == q1*m", int(self.q1_cap_m2_equals_q1m), 1),
            ("dim lin-trivial == q(D - q - 1)", self.dim_lin_trivial,
             q * (D - q - 1)),
            ("dim automorphisms == qD - q", self.dim_aut, q * D - q),
            ("dim stabilizer == qD - qn + n - 1", self.dim_stab,
             q * D - q * n + n - 1),
            ("dim orbit space == (q-1)(n-1)", self.dim_orbit,
             (q - 1) * (n - 1)),
            ("fiber dim == (q-1)(n-2)", self.dim_fiber, (q - 1) * (n - 2)),
        ]
        self.all_match = all(got == want for _, got, want in self.checks)
        # Two published closed-form variants disagree with the direct
        # computation; report both values next to the computed ones.
        stated_lin_stab = D + (q - 1) * (D - q - 1 - (n - 2))
        derived_lin_stab = (D - q - 1) + (q - 1) * (D - q - 1 - (n - 2))
        stated_q1m = comb(q + n + 1, n - 1) - q - n + 1
        derived_q1m = comb(q + n - 1, n - 1) - q - n + 1
        self.flags = [
            {"name": "stabilizer-intersection dimension",
             "computed": self.dim_lin_stab,
             "variant_a": stated_lin_stab,
             "variant_a_formula": "binom(q+n-1,n-1) + (q-1)(binom(q+n-1,n-1)-(q+1)-(n-2))",
             "variant_b": derived_lin_stab,
             "variant_b_formula": "(binom(q+n-1,n-1)-(q+1)) + (q-1)(binom(q+n-1,n-1)-(q+1)-(n-2))",
             "matches": "variant_b" if self.dim_lin_stab == derived_lin_stab else "neither"},
            {"name": "dim q1*m closed form",
             "computed": self.dim_q1m,
             "variant_a": stated_q1m,
             "variant_a_formula": "binom(q+n+1,n-1) - q - n + 1",
             "variant_b": derived_q1m,
             "variant_b_formula": "binom(q+n-1,n-1) - q - n + 1",
             "matches": "variant_b" if self.dim_q1m == derived_q1m else "neither"},
        ]

    def to_dict(self) -> dict:
        return {
            "q": self.q, "n": self.n, "dim_algebra": self.D,
            "subspaces": {
                "dim_m": self.dim_m, "dim_m2": self.dim_m2,
                "dim_q1": self.dim_q1, "dim_q1m": self.dim_q1m,
                "q1_cap_m2_equals_q1m": self.q1_cap_m2_equals_q1m,
            },
            "groups": {
                "dim_linearly_trivial": self.dim_lin_trivial,
                "dim_lin_trivial_cap_stabilizer": self.dim_lin_stab,
                "dim_automorphisms": self.dim_aut,
                "dim_stabilizer": self.dim_stab,
                "dim_orbit_space": self.dim_orbit,
                "dim_fiber": self.dim_fiber,
                "dim_base": self.dim_base,
            },
            "checks": [{"name": name, "computed": got, "formula": want,
                        "match": got == want} for name, got, want in self.checks],
            "all_match": self.all_match,
            "flags": self.flags,
        }

    def to_text(self) -> str:
        lines = [f"dimension report for q={self.q}, n={self.n} "
                 f"(algebra dimension {self.D})"]
        width = max(len(name) for name, _, _ in self.checks)
        for name, got, want in self.checks:
            mark = "match" if got == want else "MISMATCH"
            lines.append(f"  {name:<{width}}  computed={got:<4} formula={want:<4} {mark}")
        lines.append(f"  base dim = {self.dim_base}, fiber dim = {self.dim_fiber}, "
                     f"total = {self.dim_orbit}")
        for f in self.flags:
            lines.append(f"  note: {f['name']}: computed {f['computed']}; "
                         f"variant A = {f['variant_a']} ({f['variant_a_formula']}), "
                         f"variant B = {f['variant_b']} ({f['variant_b_formula']}); "
                         f"computation matches {f['matches']}")
        return "\n".join(lines)


def dimension_report(q: int, n: int, field=QQ) -> DimensionReport:
    return DimensionReport(q, n, field)
