import random

import pytest

from conftest import blind_echelon_sweep, graded_strata_oracle
from nilmoduli import census
from nilmoduli import (BudgetExceeded, CensusReport, base_ideal, base_point,
                       brute_force_ideals, enumerate_moduli_points,
                       ideal_from_point, is_arr, is_linear_ideal, make_context,
                       moduli_count_formula, moduli_point,
                       power_of_max_ideal, stratify_by_graded)


def regular_ideals(q, n, p):
    return [i for i in brute_force_ideals(q, n, p)[1] if is_arr(i)]


def test_count_formula():
    assert moduli_count_formula(2, 3, 2) == 6
    assert moduli_count_formula(2, 3, 3) == 12
    assert moduli_count_formula(2, 4, 2) == 12
    assert moduli_count_formula(3, 3, 2) == 28


@pytest.mark.parametrize("q,n,p,total", [(2, 3, 2, 6), (2, 3, 3, 12),
                                         (2, 4, 2, 12), (3, 3, 2, 28)])
def test_enumerate_counts_and_injectivity(q, n, p, total):
    points = enumerate_moduli_points(q, n, p)
    assert len(points) == total
    ideals = {ideal_from_point(pt) for pt in points}
    assert len(ideals) == total  # distinct points give distinct ideals


def test_enumerate_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_moduli_points(2, 4, 5, budget=10)


def test_brute_force_small():
    count_all, ideals = brute_force_ideals(2, 3, 2)
    arr = [i for i in ideals if is_arr(i)]
    assert len(arr) == 6
    assert count_all > len(arr)
    ctx = make_context(2, 3, "Fp:2")
    assert power_of_max_ideal(ctx, 2) in ideals  # the non-regular one
    assert power_of_max_ideal(ctx, 2) not in arr
    assert all(i.colength == 3 for i in ideals)


def test_brute_force_budget():
    with pytest.raises(BudgetExceeded):
        brute_force_ideals(2, 4, 2, budget=10)


def test_brute_force_budget_reports_progress():
    with pytest.raises(BudgetExceeded) as exc:
        brute_force_ideals(3, 4, 2, budget=1000)
    assert str(exc.value) == ("echelon sweep exceeded the budget 1000 "
                              "after staircase 12 of 13")
    with pytest.raises(BudgetExceeded) as exc:  # 13 staircases alone
        brute_force_ideals(3, 4, 2, budget=12)
    assert str(exc.value) == ("echelon sweep exceeded the budget 12: "
                              "more than 12 staircases")


@pytest.mark.parametrize("q,n,p", [(2, 3, 2), (2, 3, 3), (2, 3, 7), (2, 4, 2),
                                   (2, 4, 3), (2, 5, 2), (3, 3, 2)])
def test_staircase_walk_matches_blind_sweep(q, n, p):
    _, ideals = brute_force_ideals(q, n, p)
    oracle = blind_echelon_sweep(q, n, p)
    assert ideals == oracle
    assert all(a.pivots == b.pivots and a.generators == b.generators
               for a, b in zip(ideals, oracle))


@pytest.mark.parametrize("q,n,p", [(2, 3, 7), (2, 4, 2), (2, 4, 3), (2, 5, 2),
                                   (3, 3, 2), (3, 4, 2), (2, 6, 2), (3, 3, 3)])
def test_census_order_is_the_dense_row_order(q, n, p):
    # the sparse key sorts like the dense rows; shuffled first, so that a
    # stable sort cannot keep the walk's order by accident
    _, ideals = brute_force_ideals(q, n, p)
    shuffled = ideals[:]
    random.Random(q * 100 + n * 10 + p).shuffle(shuffled)
    assert shuffled != ideals
    dense = sorted(shuffled, key=lambda i: [[c.val for c in r] for r in i.rows])
    assert sorted(shuffled, key=census._row_order) == dense == ideals


@pytest.mark.parametrize("q,p,count", [(2, 2, 7), (3, 2, 35), (4, 2, 155),
                                       (2, 3, 13), (3, 3, 130), (2, 5, 31)])
def test_colength_three_count_is_curvilinear_plus_grassmannian(q, p, count):
    # a colength-3 ideal is curvilinear, a point of M_{q,3}: [q]_p p^(q-1)
    # of them; or it contains m^2 and cuts a codimension-2 space out of the
    # linear forms: #Gr(2, q)(F_p) of them
    qp = (p ** q - 1) // (p - 1)
    grassmannian = (p ** q - 1) * (p ** q - p) // ((p ** 2 - 1) * (p ** 2 - p))
    assert qp * p ** (q - 1) + grassmannian == count
    assert brute_force_ideals(q, 3, p)[0] == count


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


@pytest.mark.parametrize("n,p", [(n, 2) for n in range(2, 8)]
                         + [(n, 3) for n in range(2, 6)])
def test_plane_count_is_partition_sum(n, p):
    # cells of the punctual Hilbert scheme of the plane (Briancon 1977;
    # Ellingsrud-Stromme 1987): one affine cell p^(n - len) per partition
    count, ideals = brute_force_ideals(2, n, p)
    parts = list(_partitions(n))
    assert count == sum(p ** (n - len(lam)) for lam in parts)
    # every staircase carries its monomial ideal, so each partition shows
    assert len({i.stair for i in ideals}) == len(parts)


@pytest.mark.parametrize("q,n,p", [(3, 4, 2), (2, 7, 2), (4, 3, 2)])
def test_census_runs_oracle_on_larger_cases(q, n, p):
    rep = CensusReport(q, n, p)
    assert rep.brute_all is not None
    assert rep.counts_match


@pytest.mark.parametrize("q,n,p", [(3, 4, 2), (2, 4, 3), (4, 3, 2), (3, 3, 3)])
def test_regular_ideals_sit_on_line_staircases(q, n, p):
    # an ideal is a regular annihilator iff its staircase is a line
    # {1, x_m, ..., x_m^(n-1)}, m the last index with c_m != 0
    ctx = make_context(q, n, f"Fp:{p}")
    lines = {tuple(ctx.index[tuple(d if j == m else 0 for j in range(q))]
                   for d in range(n)): m + 1 for m in range(q)}
    _, ideals = brute_force_ideals(q, n, p)
    parts: dict = {}
    for ideal in ideals:
        m = lines.get(ideal.stair)
        assert (m is not None) == is_arr(ideal)
        if m is not None:
            parts[m] = parts.get(m, 0) + 1
    assert parts == {m: p ** (m - 1 + (q - 1) * (n - 2)) for m in range(1, q + 1)}


def test_single_variable_case():
    count, ideals = brute_force_ideals(1, 3, 5)
    assert count == 1
    assert ideals[0].rank == 0
    assert is_arr(ideals[0])
    assert len(enumerate_moduli_points(1, 3, 5)) == 1


def test_brute_force_matches_enumeration():
    for (q, n, p) in [(2, 3, 2), (2, 3, 3), (2, 4, 2)]:
        point_ideals = {ideal_from_point(pt)
                        for pt in enumerate_moduli_points(q, n, p)}
        assert set(regular_ideals(q, n, p)) == point_ideals


def test_every_brute_force_arr_ideal_round_trips():
    for ideal in regular_ideals(2, 4, 2):
        assert ideal_from_point(moduli_point(ideal)) == ideal


def test_stratification_shapes():
    hist = stratify_by_graded(regular_ideals(2, 3, 2))
    assert sorted(hist.values()) == [2, 2, 2]  # p+1 strata of size p
    hist24 = stratify_by_graded(regular_ideals(2, 4, 2))
    assert sorted(hist24.values()) == [4, 4, 4]  # p+1 strata of size p^2


def test_stratify_homogeneous_is_own_key():
    ctx = make_context(2, 3, "Fp:2")
    q1 = base_ideal(ctx)
    hist = stratify_by_graded([q1])
    assert hist == {base_point(q1): 1}


@pytest.mark.parametrize("q,n,p", [(2, 3, 2), (2, 4, 3), (3, 3, 2), (2, 5, 2)])
def test_strata_by_base_point_are_the_graded_types(q, n, p):
    # each associated graded type lies over one base point, and the
    # histogram counts exactly these groups, so the partitions agree
    arr = regular_ideals(q, n, p)
    groups = graded_strata_oracle(arr).values()
    assert all(len({base_point(i) for i in g}) == 1 for g in groups)
    assert stratify_by_graded(arr) == {base_point(g[0]): len(g) for g in groups}


def test_census_report():
    rep = CensusReport(2, 3, 2)
    assert rep.total == rep.formula == rep.brute_arr == 6
    assert rep.counts_match
    assert sum(rep.chart_counts.values()) == rep.total
    assert rep.chart_counts == {1: 4, 2: 2}
    csv = rep.to_csv()
    assert "total,6" in csv and "counts_match,1" in csv
    doc = rep.to_dict()
    assert doc["graded_strata"] == [2, 2, 2]


def test_census_report_catches_a_duplicating_oracle(monkeypatch):
    # the same ideal twice keeps the point sets equal; only the count differs
    from nilmoduli import census
    walk = census.brute_force_ideals

    def duplicating(q, n, p, **kw):
        count, ideals = walk(q, n, p, **kw)
        first_arr = next(i for i in ideals if is_arr(i))
        return count + 1, ideals + [first_arr]

    monkeypatch.setattr(census, "brute_force_ideals", duplicating)
    rep = CensusReport(2, 3, 2)
    assert rep.brute_arr == rep.total + 1
    assert rep.points == rep.arr_points
    assert not rep.counts_match


def test_census_report_catches_a_collapsing_point_map(monkeypatch):
    # two regular ideals sent to one point keep the counts equal; only the
    # point sets differ
    from nilmoduli import census
    first, second = regular_ideals(2, 3, 2)[:2]

    def collapsing(ideal):
        return moduli_point(first if ideal == second else ideal)

    monkeypatch.setattr(census, "moduli_point", collapsing)
    rep = CensusReport(2, 3, 2)
    assert rep.brute_arr == rep.total == rep.formula
    assert rep.arr_points < rep.points
    assert not rep.counts_match


def test_census_report_catches_a_repeated_point(monkeypatch):
    # without the oracle, a point enumerated twice in place of another
    # keeps the total at the formula; only the distinct count differs
    from nilmoduli import census
    enumerate_points = census.enumerate_moduli_points

    def repeating(*args, **kw):
        points = enumerate_points(*args, **kw)
        return points[:-1] + points[:1]

    monkeypatch.setattr(census, "enumerate_moduli_points", repeating)
    rep = CensusReport(2, 3, 2, brute_force=False)
    assert rep.total == rep.formula == len(rep.points) + 1
    assert not rep.counts_match


def test_census_report_without_brute_force():
    rep = CensusReport(3, 3, 2, brute_force=False)
    assert rep.total == rep.formula == 28
    assert rep.counts_match
    assert rep.brute_all is None and rep.arr_points is None


def test_linear_predicate_vs_arr_on_censuses():
    # in two variables the predicates agree on every colength-n ideal of
    # the sweep; in three variables they genuinely diverge
    for (q, n, p) in [(2, 3, 2), (2, 3, 3), (2, 4, 2)]:
        _, ideals = brute_force_ideals(q, n, p)
        assert all(is_linear_ideal(i) == is_arr(i) for i in ideals)
    _, ideals33 = brute_force_ideals(3, 3, 2)
    disagree = [i for i in ideals33 if is_linear_ideal(i) != is_arr(i)]
    assert disagree, "expected linear-but-not-regular ideals in three variables"
    assert all(is_linear_ideal(i) and not is_arr(i) for i in disagree)


def test_sweep_against_naive_enumeration():
    # independent re-derivation for (2,3) over F_2: enumerate ALL 1395
    # three-dimensional subspaces of F_2^6 from vector triples, keep the
    # multiplication-closed ones, and compare with the pruned sweep
    from itertools import combinations
    ctx = make_context(2, 3, "Fp:2")
    dim = ctx.dim

    def bits(v):
        return tuple((v >> i) & 1 for i in range(dim))

    def rref_key(rows):
        rows = [list(r) for r in rows]
        out = []
        for col in range(dim):
            pr = next((r for r in rows if r[col]), None)
            if pr is None:
                continue
            rows.remove(pr)
            rows = [[a ^ b for a, b in zip(r, pr)] if r[col] else r for r in rows]
            out = [[a ^ b for a, b in zip(r, pr)] if r[col] else r for r in out]
            out.append(pr)
        return tuple(tuple(r) for r in out)

    subspaces = set()
    for tri in combinations(range(1, 2 ** dim), 3):
        key = rref_key([bits(v) for v in tri])
        if len(key) == 3:
            subspaces.add(key)
    assert len(subspaces) == 1395  # gaussian binomial [6, 3] at 2

    def closed(rows):
        def reduce(vec, rows):
            v = list(vec)
            for r in rows:
                piv = next(i for i, c in enumerate(r) if c)
                if v[piv]:
                    v = [a ^ b for a, b in zip(v, r)]
            return not any(v)
        for i in range(ctx.q):
            for row in rows:
                prod = [0] * dim
                for idx, c in enumerate(row):
                    tgt = ctx.shift[i][idx]
                    if c and tgt is not None:
                        prod[tgt] ^= c
                if not reduce(prod, rows):
                    return False
        return True

    naive = {rows for rows in subspaces if closed(rows)}
    _, ideals = brute_force_ideals(2, 3, 2)
    sweep = {tuple(tuple(int(str(c)) for c in row) for row in i.rows)
             for i in ideals}
    assert naive == sweep
