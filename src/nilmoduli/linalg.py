"""Exact dense linear algebra over Q or F_p.

Matrices are lists of row lists whose entries are field scalars
(Fraction or Fp); nothing here ever touches floating point.  Every kernel
runs on python ints: scalars are encoded at the boundary, the work stays
in ints (the dot products of int_dots; one elimination, RowSpace, behind
nullspace and mat_inv: residues over F_p, fraction-free integer rows over
Q) and each entry is decoded once.
"""

from __future__ import annotations

from bisect import bisect_left
from math import gcd, lcm
from operator import mul

from .fields import QQ, Fp, PrimeField


class RowSpace:
    """A subspace of k^ncols kept in reduced row echelon form on int rows:
    residues with lead 1 over F_p, primitive rows with a positive lead
    over Q.  A row is zero on the other pivot columns, so row / lead is the
    canonical RREF row.  insert and reduce take field scalars; insert_ints
    takes an int sequence (residues over F_p) at any scale, and so does
    the constructor, for its initial rows."""

    def __init__(self, field, ncols: int, ints=()):
        self.field = field
        self.ncols = ncols
        self.ints: list[list[int]] = []  # kept sorted by pivot column
        self.pivots: list[int] = []
        for v in ints:
            self.insert_ints(v)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def scaled_rref(self):
        """(rows, d), read-only: the RREF rows are rows / d."""
        d = 1 if self.field.p else lcm(*(r[k] for r, k in zip(self.ints, self.pivots)))
        if d == 1:  # every lead is 1, as always over F_p
            return self.ints, d
        return [[x * (d // r[k]) for x in r] for r, k in zip(self.ints, self.pivots)], d

    def _reduce(self, v):
        """(w, m): v minus its combination of the rows is w / m."""
        p, m = self.field.p, 1
        for row, k in zip(self.ints, self.pivots):
            if v[k]:
                v = _cancel(p, v, v[k], row, row[k])
                m *= row[k]
        return v, m

    def reduce(self, vec: list) -> list:
        """Return the residual of vec after elimination by the current rows."""
        (v,), d = self.field.encode([vec])
        w, m = self._reduce(v)
        return self.field.decode([w], d * m)[0]

    def insert_ints(self, v) -> bool:
        """Add the int vector v to the span; returns True if the rank rose."""
        v, p = self._reduce(v)[0], self.field.p
        lead = next(filter(None, v), 0)
        if not lead:
            return False
        piv, v = v.index(lead), _normalize(p, v, lead)
        for j, (row, k) in enumerate(zip(self.ints, self.pivots)):
            if row[piv]:  # clear the new pivot column
                row = _cancel(p, row, row[piv], v, v[piv])
                self.ints[j] = _normalize(p, row, row[k])
        at = bisect_left(self.pivots, piv)
        self.ints.insert(at, v)
        self.pivots.insert(at, piv)
        return True

    def insert(self, vec: list) -> bool:
        """Add vec to the span; returns True if it increased the rank."""
        return self.insert_ints(self.field.encode([vec])[0][0])

    def extend(self, vecs) -> None:
        for v in vecs:
            self.insert(v)

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    def basis(self) -> list[tuple]:
        """The canonical RREF rows, decoded once."""
        return [tuple(r) for r in self.field.decode(*self.scaled_rref())]


def _cancel(p: int, v, c: int, row, a: int) -> list:
    """a v - c row, clearing the entry c of v at the pivot a of row; over
    F_p (p nonzero) a is 1 and the result is reduced mod p."""
    if p:
        return [(x - c * y) % p for x, y in zip(v, row)]
    return [a * x - c * y for x, y in zip(v, row)]


def _normalize(p: int, v, lead: int) -> list:
    """The multiple of v (lead its first nonzero entry) with lead 1 over
    F_p; over Q the primitive one with a positive lead."""
    if p:
        inv = pow(lead, -1, p)
        return list(v) if inv == 1 else [x * inv % p for x in v]
    g = gcd(*v) if lead > 0 else -gcd(*v)
    return list(v) if g == 1 else [x // g for x in v]


def nullspace(field, rows, ncols: int):
    """Basis of the right null space {x : M x = 0} of the matrix with the
    given rows, one vector per free column f: x_f = 1, the other free
    columns 0, and x_k = -row[f] for the RREF row of pivot k."""
    space = RowSpace(field, ncols, field.encode(rows)[0])
    rref, d = space.scaled_rref()
    row_of = dict(zip(space.pivots, rref))
    basis = [[-row_of[c][f] if c in row_of else d * (c == f) for c in range(ncols)]
             for f in range(ncols) if f not in row_of]
    return field.decode(basis, d)


def identity_matrix(field, n: int):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


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
    is [I | A^-1] unless a pivot lands at a column >= n.  With A = ia / d,
    the rows [ia | d I] span the same space."""
    n, (ia, d) = len(a), field.encode(a)
    space = RowSpace(field, 2 * n, ([*row, *(d * (j == i) for j in range(n))]
                                    for i, row in enumerate(ia)))
    if any(p >= n for p in space.pivots):
        return None
    rref, scale = space.scaled_rref()
    return field.decode([row[n:] for row in rref], scale)


def mat_eq(a, b) -> bool:
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def transpose(a):
    return [list(col) for col in zip(*a)]
