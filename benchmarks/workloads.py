"""Operations of the three workloads and their correctness gates.

Every operation kind has a timed ``run`` and an untimed ``check``.  ``run``
calls only public nilmoduli entry points, looked up on the package at call
time so the span wrappers of a traced run see them.  ``check`` re-derives
the answer along a route independent of the timed one, mostly in plain
integer and Fraction code here, and raises GateFailure on a wrong answer.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction

import nilmoduli as nm
import nilmoduli.cli  # binds nm.cli and nm.serialize

import inputs


class GateFailure(Exception):
    """An operation returned a wrong answer."""


# --- exact helpers for the gates -------------------------------------------

def _rank(mat) -> int:
    rows = [list(map(Fraction, r)) for r in mat]
    rank, ncols = 0, len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _monomial_matrices(mats, q: int, n: int) -> dict:
    """Matrix of every monomial of degree < n on the tuple, by products."""
    out = {}
    for e in inputs.monomials(q, n):
        i = next((k for k, v in enumerate(e) if v), None)
        if i is None:
            out[e] = inputs.identity(n)
        else:
            prev = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[e] = inputs.mat_mul(out[prev], mats[i])
    return out


def _vanishes(polys, mats, q: int, n: int) -> bool:
    """Whether every polynomial (a dict exponent -> coefficient) evaluates
    to the zero matrix on the tuple."""
    mono = _monomial_matrices(mats, q, n)
    for terms in polys:
        acc = [[Fraction(0)] * n for _ in range(n)]
        for e, c in terms.items():
            m = mono[tuple(e)]
            acc = [[a + c * v for a, v in zip(ra, rm)] for ra, rm in zip(acc, m)]
        if any(any(row) for row in acc):
            return False
    return True


def _is_rref(rows) -> bool:
    """Whether the rows are in reduced row echelon form (hence independent)."""
    pivots = []
    for row in rows:
        lead = next((i for i, c in enumerate(row) if c), None)
        if lead is None or row[lead] != 1 or (pivots and lead <= pivots[-1]):
            return False
        pivots.append(lead)
    return all(not row[p] for p in pivots for k, row in enumerate(rows)
               if pivots[k] != p)


def _inv_mod(mat, p: int):
    n = len(mat)
    aug = [[v % p for v in row] + [int(i == j) for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], p - 2, p)
        aug[col] = [v * inv % p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _poly_mul(a: dict, b: dict, n: int, p: int) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            if sum(e1) + sum(e2) < n:
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = (out.get(e, 0) + c1 * c2) % p
    return {e: c for e, c in out.items() if c}


def _substitute(f: dict, images, q: int, n: int, p: int) -> dict:
    out: dict = {}
    for e, c in f.items():
        term = {(0,) * q: c}
        for i, k in enumerate(e):
            for _ in range(k):
                term = _poly_mul(term, images[i], n, p)
        for t, v in term.items():
            out[t] = (out.get(t, 0) + v) % p
    return {e: c for e, c in out.items() if c}


def _fp_poly(poly) -> dict:
    return {e: c.val for e, c in poly.terms.items()}


def _fp_rows(rows):
    return [[v.val for v in row] for row in rows]


def partition_count(n: int, p: int) -> int:
    """Colength-n ideals of F_p[x, y] supported at the origin:
    sum over partitions lambda of n of p^(n - len lambda)
    (Ellingsrud and Stromme, Invent. Math. 1987)."""
    def parts(m, largest):
        if m == 0:
            yield 0
            return
        for k in range(min(m, largest), 0, -1):
            for length in parts(m - k, k):
                yield length + 1
    return sum(p ** (n - length) for length in parts(n, n))


def moduli_count(q: int, n: int, p: int) -> int:
    return (p ** q - 1) // (p - 1) * p ** ((q - 1) * (n - 2))


# --- classify_q: in-process CLI calls over Q --------------------------------

def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = nm.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def run_classify(op):
    return _cli(["--json", "classify", op["paths"][0]])


def run_compare(op):
    return _cli(["--json", "compare"] + op["paths"])


def _cli_doc(out) -> dict:
    rc, text, err = out
    if rc != 0:
        raise GateFailure(f"exit code {rc}: {err.strip()}")
    return json.loads(text)


def check_classify(op, out) -> None:
    doc = _cli_doc(out)
    q, n, mats = op["q"], op["n"], op["tuples"][0]
    regular = op["kind"] == "classify_regular"
    if doc["cyclic"] is not True or doc["regular"] is not regular:
        raise GateFailure(f"verdict cyclic={doc['cyclic']} regular={doc['regular']}")
    ann = doc["annihilator"]
    dim = len(inputs.monomials(q, n))
    if ann["colength"] != n or len(ann["rref"]) != dim - n:
        raise GateFailure(f"annihilator colength {ann['colength']} != {n}")
    if regular:
        point = nm.serialize.point_from_json(doc["moduli_point"])
        ideal = nm.ideal_from_point(point)
        if [[str(c) for c in row] for row in ideal.rows] != ann["rref"]:
            raise GateFailure("moduli point does not rebuild the annihilator")
        polys = [g.terms for g in ideal.generators]
    else:
        if doc["moduli_point"] is not None:
            raise GateFailure("non-regular tuple was given a moduli point")
        rows = [[Fraction(c) for c in row] for row in ann["rref"]]
        if not _is_rref(rows):
            raise GateFailure("annihilator basis is not in reduced echelon form")
        monos = inputs.monomials(q, n)
        polys = [{monos[i]: c for i, c in enumerate(row) if c} for row in rows]
    # colength n plus vanishing on the tuple pins the ideal down: it is
    # contained in the annihilator and has the same colength
    if not _vanishes(polys, mats, q, n):
        raise GateFailure("annihilator does not vanish on the tuple")


def check_compare(op, out) -> None:
    doc = _cli_doc(out)
    conjugate = op["kind"] == "compare_conjugate"
    want = "conjugate" if conjugate else "not_conjugate"
    if doc["verdict"] != want:
        raise GateFailure(f"verdict {doc['verdict']}, expected {want}")
    if not conjugate:
        if doc["differs"] != op["differs"]:
            raise GateFailure(f"differs in {doc['differs']}, expected {op['differs']}")
        return
    g = [[Fraction(v) for v in row] for row in doc["conjugator"]]
    if _rank(g) != op["n"]:
        raise GateFailure("conjugator is singular")
    for a, b in zip(*op["tuples"]):
        if inputs.mat_mul(g, a) != inputs.mat_mul(b, g):
            raise GateFailure("conjugator does not carry the first tuple to the second")


# --- actions_fp: library calls over F_p -------------------------------------

def _ctx(op):
    return nm.make_context(op["q"], op["n"], f"Fp:{op['p']}")


def _fiber(ctx, rows):
    return tuple(tuple(ctx.field.scalar(v) for v in row) for row in rows)


def run_action(op):
    ctx = _ctx(op)
    g = nm.P1Element(ctx.field, op["matrix"])
    b = _fiber(ctx, op["b"])
    return nm.p1_action_bruteforce(ctx, g, b), nm.p1_action_closed(ctx, g, b)


def check_action(op, out) -> None:
    via_ideal, closed = out
    if via_ideal != closed:
        raise GateFailure("ideal route and closed form disagree")


def run_twist0(op):
    ctx = _ctx(op)
    g = nm.P1Element(ctx.field, op["matrix"])
    b = _fiber(ctx, op["b"])
    return nm.p1_action_twisted(ctx, g, b, 0), nm.p1_weight_action(ctx, g, b)


def check_twist0(op, out) -> None:
    twisted, weight = out
    p, mat, b = op["p"], op["matrix"], op["b"]
    block_inv = _inv_mod([row[1:] for row in mat[1:]], p)
    want = [[sum(block_inv[k][i] * b[i][j - 2] for i in range(len(b)))
             * pow(mat[0][0], j, p) % p for j in range(2, op["n"])]
            for k in range(len(b))]
    if _fp_rows(twisted) != want or _fp_rows(weight) != want:
        raise GateFailure("t = 0 twist differs from the weight formula")


def run_transition(op):
    ctx = _ctx(op)
    point = nm.ModuliPoint(ctx, 1, [ctx.field.scalar(v) for v in op["c"]],
                           _fiber(ctx, op["b"]))
    there = nm.transition_map(point, 2)
    return there, nm.transition_map(there, 1)


def check_transition(op, out) -> None:
    there, back = out
    p, c = op["p"], op["c"]
    inv = pow(c[1], p - 2, p)
    if there.chart != 2 or [v.val for v in there.c] != [v * inv % p for v in c]:
        raise GateFailure("transition to chart 2 has the wrong covector")
    if (back.chart != 1 or [v.val for v in back.c] != [v % p for v in c]
            or _fp_rows(back.b) != [[v % p for v in row] for row in op["b"]]):
        raise GateFailure("round trip 1 -> 2 -> 1 did not return the point")


def _sigma_images(op):
    q, p = op["q"], op["p"]
    out = []
    for i, extra in enumerate(op["images"]):
        img = {tuple(int(j == i) for j in range(q)): 1}
        for e, c in extra:
            img[tuple(e)] = c % p
        out.append(img)
    return out


def run_gamma(op):
    ctx = _ctx(op)
    images = [nm.NilPolynomial(ctx, {e: ctx.field.scalar(c) for e, c in img.items()})
              for img in _sigma_images(op)]
    sigma = nm.automorphism_from_images(ctx, images)
    return nm.gamma_factor(sigma)


def check_gamma(op, out) -> None:
    gamma, h = out
    q, n, p = op["q"], op["n"], op["p"]
    g_imgs = [_fp_poly(f) for f in gamma.fwd.images]
    h_imgs = [_fp_poly(f) for f in h.fwd.images]
    unit = [tuple(int(j == i) for j in range(q)) for i in range(q)]
    if g_imgs[0] != {unit[0]: 1}:
        raise GateFailure("gamma moves x1")
    for i in range(1, q):
        rest = dict(g_imgs[i])
        if rest.pop(unit[i], None) != 1 or any(
                any(e[1:]) or sum(e) < 2 for e in rest):
            raise GateFailure(f"gamma(x{i + 1}) - x{i + 1} is not in x1^2 k[x1]")
        if any(not any(e[1:]) for e in h_imgs[i]):
            raise GateFailure(f"h(x{i + 1}) leaves the ideal (x2, ..., xq)")
    sigma = _sigma_images(op)
    for i in range(q):
        if _substitute(h_imgs[i], g_imgs, q, n, p) != sigma[i]:
            raise GateFailure("gamma o h differs from sigma")


# --- census_fp ---------------------------------------------------------------

def run_census(op):
    return nm.CensusReport(op["q"], op["n"], op["p"])


def check_census(op, report) -> None:
    q, n, p = op["q"], op["n"], op["p"]
    if report.brute_all is None:
        raise GateFailure("brute-force oracle was skipped")
    if not report.counts_match:
        raise GateFailure("census reports disagreeing counts")
    if report.total != moduli_count(q, n, p):
        raise GateFailure(f"{report.total} points, closed formula gives "
                          f"{moduli_count(q, n, p)}")
    if q == 2 and report.brute_all != partition_count(n, p):
        raise GateFailure(f"{report.brute_all} colength-{n} ideals, partition "
                          f"count gives {partition_count(n, p)}")


KINDS = {
    "classify_regular": (run_classify, check_classify),
    "classify_nonregular": (run_classify, check_classify),
    "compare_conjugate": (run_compare, check_compare),
    "compare_distinct": (run_compare, check_compare),
    "action": (run_action, check_action),
    "twist0": (run_twist0, check_twist0),
    "transition": (run_transition, check_transition),
    "gamma": (run_gamma, check_gamma),
    "census": (run_census, check_census),
}


