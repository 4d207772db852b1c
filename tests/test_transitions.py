"""Transition linearity decided by weight, against independent oracles.

linearity_witness decides from the weight grading: scaling the fiber
column of u^e by lam^(e-1) commutes with transition_map.  The grid search
in conftest.grid_linearity_witness decides the same question by
exhaustive search; the weighted homogeneity itself and the graded pieces
J_kl(c) (c_k/c_l)^(e-1) are checked directly on transition_map.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from nilmoduli import (QQ, ModuliPoint, PrimeField, linearity_witness,
                       make_context, transition_map)
from nilmoduli import moduli

from conftest import grid_linearity_witness

F2, F3, F5, F7 = (PrimeField(p) for p in (2, 3, 5, 7))


def chart_pairs(q):
    return [(k, l) for k in range(1, q + 1) for l in range(1, q + 1) if k != l]


def weigh(b, lam):
    """Scale column u^e of a fiber matrix (e = 2..n-1) by lam^(e-1)."""
    return tuple(tuple(v * lam ** (e - 1) for e, v in enumerate(row, 2)) for row in b)


@pytest.mark.parametrize("field", [QQ, F2, F3, F5], ids=str)
def test_verdicts_match_the_grid(field):
    for q in (2, 3):
        for n in (2, 3, 4, 5):
            for k, l in chart_pairs(q):
                got = linearity_witness(q, n, k, l, field=field)
                want = grid_linearity_witness(q, n, k, l, field=field)
                assert (got is None) == (want is None), (q, n, k, l)
                if got is not None:
                    assert got["kind"] == want["kind"] and got["lhs"] != got["rhs"]
                if want is None or field == F2:
                    assert got == want, (q, n, k, l)


@st.composite
def transition_case(draw):
    field = draw(st.sampled_from([QQ, F3, F7]))
    q, n = draw(st.integers(2, 4)), draw(st.integers(3, 6))
    k, l = draw(st.sampled_from(chart_pairs(q)))
    scalar = st.integers(-3, 3).map(field.scalar)
    unit = scalar.filter(bool)
    c = [draw(scalar) for _ in range(q)]
    c[k - 1], c[l - 1] = field.one, draw(unit)
    b = [[draw(scalar) for _ in range(n - 2)] for _ in range(q - 1)]
    return make_context(q, n, field), k, l, c, b, draw(unit)


@settings(max_examples=80, deadline=None)
@given(transition_case())
def test_transition_is_weighted_homogeneous(case):
    ctx, k, l, c, b, lam = case
    plain = transition_map(ModuliPoint(ctx, k, c, b), l)
    scaled = transition_map(ModuliPoint(ctx, k, c, weigh(b, lam)), l)
    assert scaled.c == plain.c
    assert scaled.b == weigh(plain.b, lam)


@pytest.mark.parametrize("field", [QQ, F3, F5, F7], ids=str)
def test_graded_pieces_are_twisted_tangent_cocycles(field):
    # with the input columns below u^e zero, the output columns below u^e
    # stay zero and column e is J_kl(c) (c_k/c_l)^(e-1) times the input
    # column e; J_kl is the Jacobian of z_j = c_j/c_k -> w_j = c_j/c_l
    rng = random.Random(61)
    draw = lambda: field.scalar(rng.randint(-4, 4))
    one, zero = field.one, field.zero
    for q in (2, 3, 4):
        for n in (3, 4, 5, 6):
            ctx = make_context(q, n, field)
            for k, l in chart_pairs(q):
                c = [draw() for _ in range(q)]
                c[k - 1] = one
                while not c[l - 1]:
                    c[l - 1] = draw()
                jac = [[((one if i == j else zero) - (c[j - 1] / c[l - 1] if i == l else zero))
                        / c[l - 1] for i in range(1, q + 1) if i != k]
                       for j in range(1, q + 1) if j != l]
                for e in range(2, n):
                    b = [[zero if d < e else draw() for d in range(2, n)] for _ in range(q - 1)]
                    out = transition_map(ModuliPoint(ctx, k, c, b), l).b
                    assert all(not row[d - 2] for row in out for d in range(2, e))
                    col = [row[e - 2] for row in b]
                    twist = (one / c[l - 1]) ** (e - 1)
                    want = [twist * sum((a * v for a, v in zip(r, col)), zero) for r in jac]
                    assert [row[e - 2] for row in out] == want, (q, n, k, l, e)


def test_transition_call_counts(monkeypatch):
    calls = []

    def counted(point, target):
        calls.append(target)
        return transition_map(point, target)
    monkeypatch.setattr(moduli, "transition_map", counted)
    for field in (QQ, F2, F3, F7):
        for q in (2, 3, 4):
            for n in (2, 3, 4, 5, 6):
                s = (q - 1) * (n - 2)
                for k, l in chart_pairs(q):
                    calls.clear()
                    w = linearity_witness(q, n, k, l, field=field)
                    if n <= 3:
                        assert w is None and calls == []
                    elif field != F2:
                        assert w["kind"] == "homogeneity" and len(calls) == 2
                    else:
                        assert len(calls) <= s + s * (s - 1) // 2
                        if w is None:
                            assert len(calls) == s + s * (s - 1) // 2


def test_homogeneity_witness_is_the_u2_unit_of_the_target_row():
    for q, n, k, l, row in ((2, 4, 2, 1, 0), (3, 5, 1, 3, 1), (3, 5, 3, 2, 1), (4, 6, 4, 1, 0)):
        w = linearity_witness(q, n, k, l, field=F5)
        assert [(r, j) for r, vals in enumerate(w["b"]) for j, v in enumerate(vals) if v] \
            == [(row, 0)]
        assert w["lam"] == F5.scalar(2)
