from itertools import chain, product

import pytest

from nilmoduli import (QQ, InputInvariantError, ModuliPoint,
                       NilPolynomial, NilTuple, PrimeField,
                       base_point, associated_graded, evaluate,
                       fiber_add, fiber_coordinates, fiber_scale,
                       ideal_from_generators, ideal_from_span, invert,
                       lift_linear, linear_polynomial, make_context,
                       transition_map)
from nilmoduli.linalg import RowSpace, mat_inv, nullspace, transpose


def shift_matrix(field, n, power=1):
    """Nilpotent shift J (ones on the subdiagonal) raised to a power."""
    m = [[field.zero] * n for _ in range(n)]
    for i in range(n - power):
        m[i + power][i] = field.one
    return m


def e_matrix(field, n, r, c):
    """Elementary matrix with a single 1 at (row r, col c), 1-based."""
    m = [[field.zero] * n for _ in range(n)]
    m[r - 1][c - 1] = field.one
    return m


def x(ctx, i):
    return NilPolynomial.variable(ctx, i)


@pytest.fixture
def ctx23():
    return make_context(2, 3)


@pytest.fixture
def ctx24():
    return make_context(2, 4)


@pytest.fixture
def ctx34():
    return make_context(3, 4)


@pytest.fixture
def cyclic_not_regular(ctx23):
    f = ctx23.field
    return NilTuple(ctx23, [e_matrix(f, 3, 2, 1), e_matrix(f, 3, 3, 1)])


def grid_witness(target):
    """Regularity by exhaustive search, the oracle for the rank test.

    The first coefficient vector a, unit vectors first and then the grid
    {0..n-1}^q over Q or all of F_p^q, for which u = sum a_i x_i has
    u^(n-1) outside the ideal (target an Ideal) or acting as a nonzero
    matrix (target a NilTuple); None when there is none.  Over Q the grid
    decides, since u^(n-1) has degree n-1 in each a_i.
    """
    ctx = target.ctx
    field, q, n = ctx.field, ctx.q, ctx.n

    def top_survives(a):
        top = linear_polynomial(ctx, a) ** (n - 1)
        if isinstance(target, NilTuple):
            return any(c for row in evaluate(target, top) for c in row)
        return not target.contains(top)

    units = ([field.one if j == i else field.zero for j in range(q)]
             for i in range(q))
    values = range(field.p) if isinstance(field, PrimeField) else range(n)
    grid = ([field.scalar(v) for v in a] for a in product(values, repeat=q))
    return next((a for a in chain(units, grid) if any(a) and top_survives(a)),
                None)


def scalar_mat_mul(a, b):
    """The product on field scalars, one multiply-add at a time: the oracle
    for the integer kernel of linalg.mat_mul."""
    out = []
    for ai in a:
        row = []
        for j in range(len(b[0])):
            s = None
            for t in range(len(b)):
                if ai[t]:
                    term = ai[t] * b[t][j]
                    s = term if s is None else s + term
            row.append(s if s is not None else ai[0] * 0)
        out.append(row)
    return out


def sum_entries(row, v):
    s = row[0] * v[0]
    for t in range(1, len(row)):
        if row[t]:
            s = s + row[t] * v[t]
    return s


def scalar_mat_vec(a, v):
    """The oracle for linalg.mat_vec, on field scalars."""
    return [sum_entries(row, v) for row in a]


class ScalarRowSpace:
    """The RREF kept on field scalars, one multiply-add at a time: the
    oracle for the int elimination of linalg.RowSpace."""

    def __init__(self, field, ncols):
        self.field = field
        self.ncols = ncols
        self.rows = []      # kept sorted by pivot column
        self.pivots = []

    def reduce(self, vec):
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                for k in range(p, self.ncols):
                    if row[k]:
                        v[k] = v[k] - c * row[k]
        return v

    def insert(self, vec):
        v = self.reduce(vec)
        piv = next((i for i, c in enumerate(v) if c), None)
        if piv is None:
            return False
        lead = v[piv]
        if lead != self.field.one:
            v = [c / lead for c in v]
        for row in self.rows:
            c = row[piv]
            if c:
                for k in range(piv, self.ncols):
                    if v[k]:
                        row[k] = row[k] - c * v[k]
        at = next((i for i, p in enumerate(self.pivots) if p > piv), len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, piv)
        return True


def scalar_nullspace(field, rows, ncols):
    """The oracle for linalg.nullspace: the non-pivot trick on the scalar
    RREF."""
    space = ScalarRowSpace(field, ncols)
    for row in rows:
        space.insert(row)
    basis = []
    for free in range(ncols):
        if free in space.pivots:
            continue
        v = [field.zero] * ncols
        v[free] = field.one
        for p, row in zip(space.pivots, space.rows):
            v[p] = -row[free]
        basis.append(v)
    return basis


def scalar_mat_inv(field, a):
    """The oracle for linalg.mat_inv: the scalar RREF of [A | I]."""
    n = len(a)
    space = ScalarRowSpace(field, 2 * n)
    for i, row in enumerate(a):
        space.insert([*row, *(field.one if j == i else field.zero for j in range(n))])
    if any(p >= n for p in space.pivots):
        return None
    return [row[n:] for row in space.rows]


def gauss_jordan_inverse(field, a):
    """Inverse of a square matrix by its own Gauss-Jordan loop on [A | I],
    or None if singular: a second oracle for linalg.mat_inv."""
    n = len(a)
    aug = [list(a[i]) + [field.one if j == i else field.zero for j in range(n)]
           for i in range(n)]
    for i in range(n):
        r = next((r for r in range(i, n) if aug[r][i]), None)
        if r is None:
            return None
        aug[i], aug[r] = aug[r], aug[i]
        lead = aug[i][i]
        if lead != field.one:
            aug[i] = [c / lead for c in aug[i]]
        for r2 in range(n):
            if r2 != i and aug[r2][i]:
                c = aug[r2][i]
                aug[r2] = [x - c * y for x, y in zip(aug[r2], aug[i])]
    return [row[n:] for row in aug]


def _monomial_multiple(ctx, vec, mono_idx):
    """Coefficient vector of (monomial at mono_idx) * (poly with vector
    vec), walking the shift chain of the monomial for every term; None
    when the product truncates to zero."""
    exp = ctx.monomials[mono_idx]
    out = [ctx.field.zero] * ctx.dim
    hit = False
    for idx, c in enumerate(vec):
        if not c:
            continue
        tgt = idx
        for i, k in enumerate(exp):
            for _ in range(k):
                if tgt is not None:
                    tgt = ctx.shift[i][tgt]
        if tgt is not None:
            out[tgt] = out[tgt] + c
            hit = True
    return out if hit else None


def monomial_multiple_space(ctx, gens):
    """The dense RowSpace of every monomial multiple m * g, |m| <= n - 1,
    of the given generators."""
    sp = RowSpace(ctx.field, ctx.dim)
    for g in gens:
        base = g.to_vector()
        for mono in range(ctx.dim):
            vec = _monomial_multiple(ctx, base, mono)
            if vec is not None:
                sp.insert(vec)
    return sp


def monomial_multiple_ideal(ctx, gens):
    """The ideal generated by gens as the span of every monomial multiple:
    the oracle for the closure worklist of ideal_from_generators."""
    return ideal_from_span(ctx, monomial_multiple_space(ctx, gens).basis())


def dense_product(i, j):
    """I * J closed from the pairwise products of the corner rows, the
    oracle for the monomial route of Ideal.product."""
    return ideal_from_generators(i.ctx, [g * h for g in i.generators for h in j.generators])


def nullspace_intersect(i, j):
    """I cap J through stacked complements, the oracle for the orbit kernel
    of Ideal.intersect: each row space is cut out by its complement
    functionals, so the intersection is the null space of both stacks."""
    field, dim = i.ctx.field, i.ctx.dim
    funcs = (nullspace(field, [list(r) for r in i.rows], dim)
             + nullspace(field, [list(r) for r in j.rows], dim))
    return ideal_from_span(i.ctx, nullspace(field, funcs, dim))


def hyperplane_rows(ideal):
    """{pivot: degree-1 part} of the dense rows with a degree-1 pivot, keys
    and parts indexing x_1..x_q from 0: the RREF of the span H of the
    degree-1 parts of the ideal."""
    ctx = ideal.ctx
    lo, hi = ctx.deg_start[1], ctx.deg_start[2]
    return {p - lo: row[lo:hi] for row, p in zip(ideal.rows, ideal.pivots)
            if lo <= p < hi}


def hyperplane_is_arr(ideal):
    """is_arr read off the dense rows, the oracle for the staircase test:
    colength n and q - 1 rows with a degree-1 pivot."""
    return (ideal.colength == ideal.ctx.n
            and len(hyperplane_rows(ideal)) == ideal.ctx.q - 1)


def hyperplane_base_point(ideal):
    """base_point read off the dense rows, the oracle for the reading of
    the tails: the covector spanning the annihilator of H, normalized at
    its first nonzero entry; ValueError unless H is a hyperplane."""
    ctx = ideal.ctx
    field = ctx.field
    rows = hyperplane_rows(ideal)
    if len(rows) != ctx.q - 1:
        raise ValueError(
            f"degree-1 span has dimension {len(rows)}, expected {ctx.q - 1}")
    free = next(j for j in range(ctx.q) if j not in rows)
    c = [field.zero] * ctx.q
    c[free] = field.one
    for j, part in rows.items():
        c[j] = -part[free]
    k = next(i for i, v in enumerate(c) if v)
    return k + 1, tuple(v / c[k] for v in c)


def row_image_ideal(sigma, ideal):
    """sigma(I) as the span of sigma of every basis row, the oracle for
    apply_automorphism's orbit kernel on the quotient."""
    vecs = [sigma(p).to_vector() for p in ideal.basis_polynomials()]
    return ideal_from_span(ideal.ctx, vecs)


def coset_moduli_point(ideal):
    """moduli_point by reducing dim-sized vectors, the oracle for reading
    classes off the RREF rows: the classes of the powers x_k^d and of the
    x_j modulo the ideal, then one inverse of the frame."""
    k, _ = base_point(ideal)
    ctx, comp = ideal.ctx, ideal.stair

    def coset(f):
        red = ideal.reduce(f).to_vector()
        return [red[m] for m in comp]
    frame = transpose([coset(x(ctx, k) ** d) for d in range(ctx.n)])
    inv = mat_inv(ctx.field, frame)
    series = [scalar_mat_vec(inv, coset(x(ctx, j))) for j in range(1, ctx.q + 1)]
    return ModuliPoint(ctx, k, [f[1] for f in series],
                       [f[2:] for j, f in enumerate(series, 1) if j != k])


def two_pass_annihilator(t):
    """The annihilator in two eliminations, the oracle for the one-pass
    route: null space of the evaluation map, then an RREF of its span."""
    ctx = t.ctx
    n = ctx.n
    cols = []
    for e in ctx.monomials:
        mat = evaluate(t, NilPolynomial.monomial(ctx, e))
        cols.append([mat[r][s] for r in range(n) for s in range(n)])
    return ideal_from_span(ctx, nullspace(ctx.field, transpose(cols), ctx.dim))


def section_fiber(ideal, k, c):
    """Fiber matrix by moving the ideal, the oracle for the quotient
    reading: pull the ideal back by the chart section of (k, c) and read
    the chart-normalized ideal."""
    section = chart_section(ideal.ctx, k, c)
    return fiber_coordinates(row_image_ideal(invert(section), ideal))


def chart_section(ctx, k, c):
    """Deterministic linear automorphism sending the standard-position
    ideal to covector c on chart k (c_k must be 1): x_1 maps to x_k and
    the remaining generators map, in index order, to x_i - c_i x_k, a
    basis of the hyperplane of c."""
    field = ctx.field
    if c[k - 1] != field.one:
        raise ValueError("covector is not normalized on the requested chart")
    rows = [[field.one if j == k - 1 else field.zero for j in range(ctx.q)]]
    for i in range(ctx.q):
        if i == k - 1:
            continue
        row = [field.zero] * ctx.q
        row[i] = field.one
        row[k - 1] = row[k - 1] - c[i]
        rows.append(row)
    return lift_linear(ctx, rows)


def section_ideal(point):
    """The ideal of a point by moving an ideal, the oracle for the orbit
    kernel: the chart-normalized ideal <x_i - s_i(x_1)>, built from its
    generators, pushed forward by the chart section of (chart, c)."""
    ctx = point.ctx
    x1 = NilPolynomial.variable(ctx, 1)
    gens = []
    for i, row in enumerate(point.b, 2):
        g = NilPolynomial.variable(ctx, i)
        for j, coef in enumerate(row, 2):
            g = g - (x1 ** j).scale(coef)
        gens.append(g)
    section = chart_section(ctx, point.chart, point.c)
    return row_image_ideal(section, ideal_from_generators(ctx, gens))


def grid_linearity_witness(q, n, chart_from, chart_to, field=QQ):
    """Transition linearity by exhaustive search, the oracle for the weight
    rule of linearity_witness.

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


def blind_echelon_sweep(q, n, p):
    """Every colength-n ideal over F_p by a blind echelon sweep, the oracle
    for the staircase walk of brute_force_ideals.

    Builds echelon rows from the largest pivot down, trying every value on
    every free column to the right of the pivot and keeping a row when its
    products with the generators reduce to zero modulo the rows already
    chosen.  Returns the ideals sorted by their integer rows.
    """
    ctx = make_context(q, n, PrimeField(p))
    dim = ctx.dim
    found = []

    def mult(row, i):
        out = [0] * dim
        for idx, v in enumerate(row):
            tgt = ctx.shift[i][idx]
            if v and tgt is not None:
                out[tgt] = (out[tgt] + v) % p
        return out

    def reduces_to_zero(vec, pivot_map):
        v = list(vec)
        for idx in range(dim):
            c = v[idx]
            if c:
                row = pivot_map.get(idx)
                if row is None:
                    return False
                for t in range(idx, dim):
                    if row[t]:
                        v[t] = (v[t] - c * row[t]) % p
        return True

    def sweep(pivot_map, min_pivot, need):
        if need == 0:
            found.append(tuple(tuple(pivot_map[piv]) for piv in sorted(pivot_map)))
            return
        for pos in range(min_pivot - 1, need - 2, -1):
            free = [c for c in range(pos + 1, dim) if c not in pivot_map]
            for vals in product(range(p), repeat=len(free)):
                row = [0] * dim
                row[pos] = 1
                for c, v in zip(free, vals):
                    row[c] = v
                if all(reduces_to_zero(mult(row, i), pivot_map)
                       for i in range(q)):
                    pivot_map[pos] = row
                    sweep(pivot_map, pos, need - 1)
                    del pivot_map[pos]

    sweep({}, dim, dim - n)
    field = ctx.field
    return [ideal_from_span(ctx, [[field.scalar(v) for v in r] for r in rows])
            for rows in sorted(found)]


def graded_strata_oracle(ideals):
    """Ideals grouped by the RREF rows of their associated graded ideal, the
    oracle for stratify_by_graded's grouping by base point.  Returns a dict
    from those rows to the list of ideals with them."""
    groups: dict = {}
    for ideal in ideals:
        groups.setdefault(associated_graded(ideal).rows, []).append(ideal)
    return groups
