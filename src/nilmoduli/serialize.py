"""JSON formats for contexts, polynomials, ideals, tuples and points.

Every scalar travels as an exact string: 'a' or 'a/b' over Q, the
canonical decimal representative over F_p.  No schema ever contains a
float.  Top-level CLI payloads carry the schema tag 'nilmoduli/1'.
"""

from __future__ import annotations

import json

from .algebra import AlgebraContext, NilPolynomial, make_context
from .fields import ParseError
from .ideals import Ideal, ideal_from_generators
from .moduli import ModuliPoint
from .reps import NilTuple

SCHEMA = "nilmoduli/1"


def context_to_json(ctx: AlgebraContext) -> dict:
    return {"q": ctx.q, "n": ctx.n, "field": ctx.field.name}


def context_from_json(doc) -> AlgebraContext:
    try:
        return make_context(int(doc["q"]), int(doc["n"]), str(doc["field"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad context header: {exc}") from exc


def poly_to_json(f: NilPolynomial) -> dict:
    fmt = f.ctx.field.format
    terms = [{"exp": list(e), "coef": fmt(c)}
             for e, c in sorted(f.terms.items(), key=lambda t: f.ctx.index[t[0]])]
    return {"terms": terms}


def poly_from_json(ctx: AlgebraContext, doc) -> NilPolynomial:
    try:
        terms = {}
        for t in doc["terms"]:
            exp = tuple(int(v) for v in t["exp"])
            if len(exp) != ctx.q or min(exp) < 0 or sum(exp) >= ctx.n:
                raise ParseError(f"exponent {exp} outside the algebra basis")
            terms[exp] = ctx.field.scalar(str(t["coef"]))
        return NilPolynomial(ctx, terms)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad polynomial: {exc}") from exc


def ideal_to_json(ideal: Ideal) -> dict:
    fmt = ideal.ctx.field.format
    return {"context": context_to_json(ideal.ctx),
            "generators": [poly_to_json(g) for g in ideal.generators],
            "rref": [[fmt(c) for c in row] for row in ideal.rows],
            "colength": ideal.colength}


def ideal_from_json(doc) -> Ideal:
    ctx = context_from_json(doc.get("context", {}))
    gens = [poly_from_json(ctx, g) for g in doc.get("generators", [])]
    return ideal_from_generators(ctx, gens)


def matrix_to_json(field, mat) -> list:
    return [[field.format(c) for c in row] for row in mat]


def matrix_from_json(field, doc, n: int | None = None):
    try:
        mat = [[field.scalar(str(c)) for c in row] for row in doc]
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad matrix: {exc}") from exc
    if not mat or any(len(r) != len(mat[0]) for r in mat):
        raise ParseError("matrix rows have unequal lengths")
    if n is not None and (len(mat) != n or len(mat[0]) != n):
        raise ParseError(f"expected a {n} x {n} matrix")
    return mat


def tuple_to_json(t: NilTuple) -> dict:
    return {"context": context_to_json(t.ctx),
            "matrices": [matrix_to_json(t.ctx.field, m) for m in t.mats]}


def tuple_from_json(doc) -> NilTuple:
    ctx = context_from_json(doc.get("context", {}))
    mats = doc.get("matrices")
    if not isinstance(mats, list) or len(mats) != ctx.q:
        raise ParseError(f"expected {ctx.q} matrices")
    parsed = [matrix_from_json(ctx.field, m, ctx.n) for m in mats]
    return NilTuple(ctx, parsed)


def point_to_json(point: ModuliPoint) -> dict:
    fmt = point.ctx.field.format
    return {"context": context_to_json(point.ctx),
            "chart": point.chart,
            "c": [fmt(v) for v in point.c],
            "b": [[fmt(v) for v in row] for row in point.b]}


def point_from_json(doc) -> ModuliPoint:
    ctx = context_from_json(doc.get("context", {}))
    try:
        chart = int(doc["chart"])
        c = [ctx.field.scalar(str(v)) for v in doc["c"]]
        b = [[ctx.field.scalar(str(v)) for v in row] for row in doc["b"]]
        return ModuliPoint(ctx, chart, c, b)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad moduli point: {exc}") from exc


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"
