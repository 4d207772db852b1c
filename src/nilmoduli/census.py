"""Finite-field enumeration of the moduli and of colength-n ideals.

Two independent enumerations are compared: chart-by-chart moduli points
(normalized covector, arbitrary fiber matrix), whose count has the closed
form (p^q - 1)/(p - 1) * p^((q-1)(n-2)), and every colength-n ideal,
filtered to the regular annihilators.  The regular ideals are matched
with the points through moduli_point, n x n work each.  Their associated
graded ideals are H + m^n, H the hyperplane of degree-1 parts (A/I is
k[u]/u^n), so the graded strata are the fibres over base points.

The ideals are walked staircase by staircase.  In the graded order the
pivot of x_i * row is x_i * pivot, so the non-pivot monomials of an ideal
form an order ideal S of n monomials, and each RREF row is its pivot plus
entries on the columns of S right of it.  With S and the rows of larger
pivots fixed, "x_i * row reduces to zero" is affine-linear in the row's
entries: one elimination solves it, and only its solutions are walked.
The budget counts staircases walked plus solution rows produced.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import islice, product

from .algebra import BudgetExceeded, make_context
from .fields import PrimeField
from .ideals import Ideal, base_point, is_arr
from .linalg import nullspace
from .moduli import ModuliPoint, moduli_point

DEFAULT_POINT_BUDGET = 10 ** 6
DEFAULT_SUBSPACE_BUDGET = 10 ** 7


def moduli_count_formula(q: int, n: int, p: int) -> int:
    return (p ** q - 1) // (p - 1) * p ** ((q - 1) * (n - 2))


def enumerate_moduli_points(q: int, n: int, p: int,
                            budget: int = DEFAULT_POINT_BUDGET):
    """All moduli points over F_p, chart by chart: covector normalized to 1
    at the chart index and zero before it, free entries after it, and an
    arbitrary fiber matrix."""
    field = PrimeField(p)  # rejects p before the formula divides by p - 1
    total = moduli_count_formula(q, n, p)
    if total > budget:
        raise BudgetExceeded(f"{total} moduli points exceed the budget {budget}")
    ctx = make_context(q, n, field)
    points = []
    fiber_cells = (q - 1) * (n - 2)
    for chart in range(1, q + 1):
        for tail in product(range(p), repeat=q - chart):
            c = [field.zero] * q
            c[chart - 1] = field.one
            for j, v in enumerate(tail):
                c[chart + j] = field.scalar(v)
            for flat in product(range(p), repeat=fiber_cells):
                it = iter(flat)
                b = [[field.scalar(next(it)) for _ in range(n - 2)]
                     for _ in range(q - 1)]
                points.append(ModuliPoint(ctx, chart, c, b))
    assert len(points) == total
    return points


def _staircases(ctx):
    """Every order ideal of n monomials, as a sorted tuple of indices.

    Index order refines divisibility, so each prefix of a sorted order
    ideal is one: extend by a later monomial, of degree at most the size
    so far, whose divisors are all present."""
    def grow(stair):
        if len(stair) == ctx.n:
            yield stair
            return
        for m in range(stair[-1] + 1, ctx.deg_start[len(stair) + 1]):
            e = ctx.monomials[m]
            if all(ctx.index[e[:i] + (e[i] - 1,) + e[i + 1:]] in stair
                   for i in range(ctx.q) if e[i]):
                yield from grow(stair + (m,))
    return grow((0,))


def brute_force_ideals(q: int, n: int, p: int,
                       budget: int = DEFAULT_SUBSPACE_BUDGET):
    """(count, ideals): every colength-n ideal over F_p by a staircase walk.

    The budget caps staircases walked plus solution rows produced."""
    ctx = make_context(q, n, PrimeField(p))
    field, dim, shift = ctx.field, ctx.dim, ctx.shift
    stairs = list(islice(_staircases(ctx), budget + 1))
    if len(stairs) > budget:
        raise BudgetExceeded(f"echelon sweep exceeded the budget {budget}: "
                             f"more than {budget} staircases")
    work, found = len(stairs), []
    scalars = [field.scalar(v) for v in range(p)]
    for done, stair in enumerate(stairs):
        pos = {s: j for j, s in enumerate(stair)}
        pivots = [m for m in range(dim) if m not in pos]
        zero = [field.zero] * n
        tails = {m: zero for m in pivots}  # row entries on the staircase
        # minus the normal form of a monomial: a unit vector for one on the
        # staircase, zero past the truncation (None), a pivot's own tail
        images = {None: zero, **{u: [-field.one if t == j else field.zero
                                     for t in range(n)] for u, j in pos.items()}}

        def walk(rest):
            """Fill the rows of the pivots in rest, largest first; yield each ideal."""
            nonlocal work
            if not rest:
                yield Ideal(ctx, stair, tails)
                return
            m, j0 = rest[0], bisect_right(stair, rest[0])
            # x_i * row reduces to zero, as [A | b] (a, 1) = 0 over the
            # row's entries a on the staircase columns right of m
            system = []
            for i in range(q):
                if shift[i][m] is not None:  # else x_i * row truncates to 0
                    cols = [images.get(u) or tails[u]
                            for u in (shift[i][s] for s in stair[j0:])]
                    cols.append(tails[shift[i][m]])
                    system += (row for row in zip(*cols) if any(row))
            basis = nullspace(field, system, n - j0 + 1)
            if not basis or not basis[-1][-1]:
                return  # no solution with last entry 1: inconsistent
            *homog, last = basis
            for coeffs in product(scalars, repeat=len(homog)):
                work += 1
                if work > budget:
                    raise BudgetExceeded(
                        f"echelon sweep exceeded the budget {budget} "
                        f"after staircase {done} of {len(stairs)}")
                sol = last[:-1]
                for c, h in zip(coeffs, homog):
                    sol = [a + c * b for a, b in zip(sol, h)]
                tails[m] = zero[:j0] + sol
                yield from walk(rest[1:])
            tails[m] = zero

        # pivots past the last staircase monomial have no entries to fill
        found += walk([m for m in reversed(pivots) if m < stair[-1]])
    found.sort(key=_row_order)
    return len(found), found


def _row_order(ideal):
    """Sort key in the order of the dense rows, read sparsely: per row its
    nonzero (-column, value) pairs in column order.  Where two rows first
    differ, a zero sorts before a value, and so does a later column."""
    return [sorted([(-m, 1), *((-s, t.val) for s, t in zip(ideal.stair, tail) if t)],
                   reverse=True) for m, tail in ideal.tails.items()]


def stratify_by_graded(ideals) -> dict:
    """Histogram of regular-annihilator ideals by associated graded type.

    That type is the base point: the graded ideal is H + m^n, H the
    hyperplane of degree-1 parts, since A/I is k[u]/u^n (Nakayama)."""
    hist: dict = {}
    for ideal in ideals:
        key = base_point(ideal)
        hist[key] = hist.get(key, 0) + 1
    return hist


class CensusReport:
    """Counts of moduli points over F_p compared against the closed formula
    and, when feasible, against the staircase walk: its regular ideals are
    mapped to points by moduli_point and must give the same set.

    Counts compare sets of F_p-rational points only; nothing here sees a
    non-reduced structure."""

    def __init__(self, q: int, n: int, p: int,
                 point_budget: int = DEFAULT_POINT_BUDGET,
                 subspace_budget: int = DEFAULT_SUBSPACE_BUDGET,
                 brute_force: bool = True):
        self.q, self.n, self.p = q, n, p
        points = enumerate_moduli_points(q, n, p, budget=point_budget)
        self.formula = moduli_count_formula(q, n, p)
        self.chart_counts: dict[int, int] = {}
        for pt in points:
            self.chart_counts[pt.chart] = self.chart_counts.get(pt.chart, 0) + 1
        self.total = len(points)
        self.points = set(points)
        self.brute_all = self.brute_arr = self.arr_points = None
        self.graded_histogram = None
        if brute_force:
            _, all_ideals = brute_force_ideals(q, n, p, budget=subspace_budget)
            arr_ideals = [i for i in all_ideals if is_arr(i)]
            self.brute_all = len(all_ideals)
            self.brute_arr = len(arr_ideals)
            self.graded_histogram = stratify_by_graded(arr_ideals)
            self.arr_points = {moduli_point(i) for i in arr_ideals}
        self.note = ("counts compare F_p-rational ideals as sets; "
                     "no claim about scheme structure")

    @property
    def counts_match(self) -> bool:
        """The formula counts the enumerated points, all distinct; the
        oracle's regular ideals are as many and map onto the same points,
        so moduli_point is a bijection from them."""
        if not self.formula == self.total == len(self.points):
            return False
        return self.brute_arr is None or (self.brute_arr == self.total
                                          and self.arr_points == self.points)

    def to_dict(self) -> dict:
        out = {
            "q": self.q, "n": self.n, "p": self.p,
            "chart_counts": {str(k): v for k, v in sorted(self.chart_counts.items())},
            "total": self.total,
            "formula": self.formula,
            "brute_force_all": self.brute_all,
            "brute_force_arr": self.brute_arr,
            "counts_match": self.counts_match,
            "note": self.note,
        }
        if self.graded_histogram is not None:
            out["graded_strata"] = sorted(self.graded_histogram.values(),
                                          reverse=True)
        return out

    def to_csv(self) -> str:
        lines = ["q,n,p,key,value"]
        base = f"{self.q},{self.n},{self.p}"
        for k, v in sorted(self.chart_counts.items()):
            lines.append(f"{base},chart_{k},{v}")
        lines.append(f"{base},total,{self.total}")
        lines.append(f"{base},formula,{self.formula}")
        if self.brute_all is not None:
            lines.append(f"{base},brute_force_all,{self.brute_all}")
            lines.append(f"{base},brute_force_arr,{self.brute_arr}")
        lines.append(f"{base},counts_match,{int(self.counts_match)}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = [f"census for q={self.q}, n={self.n}, p={self.p}"]
        for k, v in sorted(self.chart_counts.items()):
            lines.append(f"  chart {k}: {v} points")
        lines.append(f"  total   = {self.total}")
        lines.append(f"  formula = {self.formula}")
        if self.brute_all is not None:
            lines.append(f"  brute-force colength-{self.n} ideals = {self.brute_all}")
            lines.append(f"  brute-force regular-annihilators    = {self.brute_arr}")
            sizes = sorted(self.graded_histogram.values(), reverse=True)
            lines.append(f"  graded strata sizes = {sizes}")
        lines.append("  counts match" if self.counts_match else "  COUNTS DISAGREE")
        lines.append(f"  note: {self.note}")
        return "\n".join(lines)
