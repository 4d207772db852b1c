"""Exact dense linear algebra over Q or F_p.

Matrices are lists of row lists whose entries are field scalars
(Fraction or Fp); nothing here ever touches floating point.  The
workhorse is RowSpace, an incrementally maintained reduced row echelon
form used for span membership, canonical subspace bases and rank.
Products run on python ints: scalars are encoded at the boundary, the
dot products of int_dots stay in ints, and each entry is decoded once.
"""

from __future__ import annotations

from operator import mul

from .fields import QQ, Fp, PrimeField


class RowSpace:
    """A subspace of k^ncols kept in reduced row echelon form.

    Rows are inserted one at a time; each insertion reduces the vector
    against the current rows, and on success normalizes the new pivot to 1
    and back-substitutes into the older rows.  The resulting basis is the
    canonical RREF of the span, so two equal subspaces produce identical
    row lists.
    """

    def __init__(self, field, ncols: int):
        self.field = field
        self.ncols = ncols
        self.rows: list[list] = []      # kept sorted by pivot column
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: list) -> list:
        """Return the residual of vec after elimination by the current rows."""
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                for k in range(p, self.ncols):
                    if row[k]:
                        v[k] = v[k] - c * row[k]
        return v

    def insert(self, vec: list) -> bool:
        """Add vec to the span; returns True if it increased the rank."""
        v = self.reduce(vec)
        piv = next((i for i, c in enumerate(v) if c), None)
        if piv is None:
            return False
        lead = v[piv]
        if lead != self.field.one:
            v = [c / lead for c in v]
        # clear the new pivot column in the existing rows
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

    def extend(self, vecs) -> None:
        for v in vecs:
            self.insert(v)

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    def basis(self) -> list[tuple]:
        return [tuple(r) for r in self.rows]


def nullspace(field, rows, ncols: int):
    """Basis of the right null space {x : M x = 0} of the matrix with the
    given rows.  Computed from the RREF by the standard non-pivot trick."""
    space = RowSpace(field, ncols)
    space.extend(rows)
    piv_of_col = {p: i for i, p in enumerate(space.pivots)}
    basis = []
    for free in range(ncols):
        if free in piv_of_col:
            continue
        v = [field.zero] * ncols
        v[free] = field.one
        for p, r in piv_of_col.items():
            v[p] = -space.rows[r][free]
        basis.append(v)
    return basis


def identity_matrix(field, n: int):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def zero_matrix(field, n: int, m: int | None = None):
    m = n if m is None else m
    return [[field.zero] * m for _ in range(n)]


def int_dots(rows, cols, p: int):
    """[[r . c for c in cols] for r in rows] on int vectors, reduced mod p
    when p is nonzero (the F_p encoding); cols is a list."""
    if p:
        return [[sum(map(mul, r, c)) % p for c in cols] for r in rows]
    return [[sum(map(mul, r, c)) for c in cols] for r in rows]


def _dots(a, cols):
    """Rows of a dotted with cols on the int encodings in the field of a;
    scalars of another field raise ContextMismatch."""
    field = PrimeField(a[0][0].p) if isinstance(a[0][0], Fp) else QQ
    (ia, da), (ic, dc) = field.encode(a), field.encode(cols)
    if ic and len(ic[0]) != len(ia[0]):
        raise ValueError(f"inner dimensions {len(ia[0])} and {len(ic[0])} differ")
    return field.decode(int_dots(ia, ic, field.p), da * dc)


def mat_mul(a, b):
    return _dots(a, list(zip(*b))) if a else []


def mat_vec(a, v):
    return [row[0] for row in _dots(a, [v])] if a else []


def mat_inv(field, a):
    """Inverse of a square matrix, or None if singular: the RREF of [A | I]
    is [I | A^-1] unless a pivot lands at a column >= n."""
    n = len(a)
    space = RowSpace(field, 2 * n)
    space.extend([*row, *unit] for row, unit in zip(a, identity_matrix(field, n)))
    if any(p >= n for p in space.pivots):
        return None
    return [row[n:] for row in space.rows]


def mat_eq(a, b) -> bool:
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def transpose(a):
    return [list(col) for col in zip(*a)]
