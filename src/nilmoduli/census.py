"""Finite-field enumeration of the moduli and of colength-n ideals.

Two independent enumerations are compared:

* chart-by-chart moduli points (normalized covector, arbitrary fiber
  matrix) whose count has the closed form (p^q - 1)/(p - 1) * p^((q-1)(n-2));
* a brute-force sweep over echelon bases of subspaces of the right
  dimension, keeping those closed under multiplication by the generators.

The sweep builds echelon rows from the largest pivot upwards.  Because
the monomial order is graded, multiplying a partial row by a generator
lands strictly to the right, inside the span of the rows already chosen;
a candidate row whose products do not reduce to zero can be pruned with
its entire subtree.  That prunes the search far below the raw Gaussian
binomial count, which is what makes the sweep feasible at desk scale.
"""

from __future__ import annotations

from itertools import product

from .algebra import BudgetExceeded, make_context
from .fields import PrimeField
from .ideals import Ideal, ideal_from_span, is_arr, associated_graded
from .moduli import ModuliPoint, ideal_from_point

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


def _multiply_rows(ctx, p: int):
    """Return mult(row, i) -> product int vector for generator x_{i+1}."""
    def mult(row, i):
        out = [0] * ctx.dim
        shift = ctx.shift[i]
        for idx, v in enumerate(row):
            if v:
                tgt = shift[idx]
                if tgt is not None:
                    out[tgt] = (out[tgt] + v) % p
        return out
    return mult


def brute_force_ideals(q: int, n: int, p: int, arr_only: bool = False,
                       budget: int = DEFAULT_SUBSPACE_BUDGET):
    """(count, ideals): every colength-n ideal over F_p by echelon sweep,
    optionally filtered to those annihilating a regular tuple.

    The budget caps the number of candidate echelon rows examined."""
    ctx = make_context(q, n, PrimeField(p))
    dim = ctx.dim
    k = dim - n
    if k < 0:
        raise ValueError(f"colength {n} exceeds the algebra dimension {dim}")
    mult = _multiply_rows(ctx, p)
    examined = 0
    found: list[tuple] = []

    def reduces_to_zero(vec, pivot_map) -> bool:
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
        nonlocal examined
        if need == 0:
            rows = [pivot_map[piv] for piv in sorted(pivot_map)]
            found.append(tuple(tuple(r) for r in rows))
            return
        for pos in range(min_pivot - 1, need - 2, -1):
            free = [c for c in range(pos + 1, dim) if c not in pivot_map]
            for vals in product(range(p), repeat=len(free)):
                examined += 1
                if examined > budget:
                    raise BudgetExceeded(
                        f"echelon sweep exceeded the budget {budget}")
                row = [0] * dim
                row[pos] = 1
                for c, v in zip(free, vals):
                    row[c] = v
                if all(reduces_to_zero(mult(row, i), pivot_map)
                       for i in range(q)):
                    pivot_map[pos] = row
                    sweep(pivot_map, pos, need - 1)
                    del pivot_map[pos]

    sweep({}, dim, k)
    found.sort()
    field = ctx.field
    ideals = []
    for rows in found:
        vecs = [[field.scalar(v) for v in r] for r in rows]
        ideal = ideal_from_span(ctx, vecs)
        assert ideal.colength == n
        if not arr_only or is_arr(ideal):
            ideals.append(ideal)
    return len(ideals), ideals


def ideal_key(ideal: Ideal) -> tuple:
    """Canonical hashable key: the RREF rows as formatted strings."""
    fmt = ideal.ctx.field.format
    return tuple(tuple(fmt(c) for c in row) for row in ideal.rows)


def stratify_by_graded(ideals) -> dict:
    """Histogram of ideals keyed by the canonical form of their associated
    graded ideal (the structure map of the degeneration to monomial type)."""
    hist: dict = {}
    for ideal in ideals:
        key = ideal_key(associated_graded(ideal))
        hist[key] = hist.get(key, 0) + 1
    return hist


class CensusReport:
    """Counts of moduli points over F_p compared against the closed formula
    and, when feasible, against the independent subspace sweep.

    Counts compare sets of F_p-rational ideals only; nothing here sees a
    non-reduced structure."""

    def __init__(self, q: int, n: int, p: int,
                 point_budget: int = DEFAULT_POINT_BUDGET,
                 subspace_budget: int = DEFAULT_SUBSPACE_BUDGET,
                 brute_force: bool = True):
        self.q, self.n, self.p = q, n, p
        points = enumerate_moduli_points(q, n, p, budget=point_budget)
        self.formula = moduli_count_formula(q, n, p)
        self.chart_counts: dict[int, int] = {}
        seen = set()
        for pt in points:
            self.chart_counts[pt.chart] = self.chart_counts.get(pt.chart, 0) + 1
            key = ideal_key(ideal_from_point(pt))
            assert key not in seen, "two moduli points produced the same ideal"
            seen.add(key)
        self.total = len(points)
        self.point_ideal_keys = seen
        self.brute_all = None
        self.brute_arr = None
        self.graded_histogram = None
        if brute_force:
            _, all_ideals = brute_force_ideals(q, n, p, arr_only=False,
                                               budget=subspace_budget)
            arr_ideals = [i for i in all_ideals if is_arr(i)]
            self.brute_all = len(all_ideals)
            self.brute_arr = len(arr_ideals)
            self.graded_histogram = stratify_by_graded(arr_ideals)
            self.arr_ideal_keys = {ideal_key(i) for i in arr_ideals}
        self.note = ("counts compare F_p-rational ideals as sets; "
                     "no claim about scheme structure")

    @property
    def counts_match(self) -> bool:
        if self.total != self.formula:
            return False
        if self.brute_arr is not None and self.brute_arr != self.total:
            return False
        if self.brute_arr is not None and self.point_ideal_keys != self.arr_ideal_keys:
            return False
        return True

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
