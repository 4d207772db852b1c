"""Command line interface.

Subcommands: classify, compare, sample, act, dims, census, transition,
express.  All outputs are deterministic functions of the inputs, the
flags and the seed; JSON payloads carry the schema tag 'nilmoduli/1'.

Exit codes: 0 success, 2 parse error, 3 input invariant violation,
4 budget exceeded, 5 internal assertion failure.
"""

from __future__ import annotations

import argparse
import sys

from . import census as census_mod
from . import moduli, reps, serialize
from .algebra import BudgetExceeded, InternalCheckError, make_context
from .fields import ContextMismatch, parse_field
from .reps import InputInvariantError
from .serialize import SCHEMA, ParseError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5


GLOBAL_DEFAULTS = {"field": "Q", "q": 2, "n": 3, "seed": 0,
                   "as_json": False, "budget": None}


def _global_flags() -> argparse.ArgumentParser:
    # SUPPRESS defaults let the flags appear before or after the
    # subcommand without the subparser wiping out values parsed earlier
    g = argparse.ArgumentParser(add_help=False)
    sup = argparse.SUPPRESS
    g.add_argument("--field", default=sup, help="Q or Fp:<p> (default Q)")
    g.add_argument("--q", type=int, default=sup, help="number of matrices")
    g.add_argument("--n", type=int, default=sup,
                   help="matrix size / truncation order")
    g.add_argument("--seed", type=int, default=sup, help="seed for sample")
    g.add_argument("--json", dest="as_json", action="store_true", default=sup,
                   help="emit JSON instead of text")
    g.add_argument("--text", dest="as_json", action="store_false", default=sup)
    g.add_argument("--budget", type=int, default=sup,
                   help="hard cap for census enumerations")
    return g


def build_parser() -> argparse.ArgumentParser:
    flags = _global_flags()
    ap = argparse.ArgumentParser(
        prog="nilmoduli",
        parents=[flags],
        description="classify commuting nilpotent matrix tuples and explore "
                    "the moduli of their annihilator ideals")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[flags],
                       help="moduli coordinates of a tuple file")
    p.add_argument("tuple_file")

    p = sub.add_parser("compare", parents=[flags],
                       help="decide simultaneous conjugacy of two tuple files")
    p.add_argument("file_a")
    p.add_argument("file_b")

    sub.add_parser("sample", parents=[flags],
                   help="emit a seeded random regular tuple (uses --q --n --seed)")

    p = sub.add_parser("act", parents=[flags],
                       help="act on a chart-1 point by a stabilizer matrix")
    p.add_argument("point_file")
    p.add_argument("matrix_file")
    p.add_argument("--t", default=None,
                   help="twist parameter (scalar); omitted = plain action")

    p = sub.add_parser("dims", parents=[flags], help="dimension report")
    p.add_argument("dq", type=int)
    p.add_argument("dn", type=int)

    p = sub.add_parser("census", parents=[flags], help="finite-field point counts")
    p.add_argument("cq", type=int)
    p.add_argument("cn", type=int)
    p.add_argument("cp", type=int)

    p = sub.add_parser("transition", parents=[flags],
                       help="linearity of a chart transition")
    p.add_argument("tq", type=int)
    p.add_argument("tn", type=int)
    p.add_argument("tk", type=int)
    p.add_argument("tl", type=int)

    p = sub.add_parser("express", parents=[flags],
                       help="write matrix j as a polynomial in matrix i")
    p.add_argument("tuple_file")
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    return ap


def _emit(args, doc: dict, text: str) -> None:
    if args.as_json:
        doc = {"schema": SCHEMA, **doc}
        sys.stdout.write(serialize.dumps(doc))
    else:
        sys.stdout.write(text + "\n")


def cmd_classify(args) -> int:
    t = serialize.tuple_from_json(serialize.load_json(args.tuple_file))
    cyclic = reps.is_cyclic(t)
    regular, _ = reps.is_regular(t)
    ideal = reps.annihilator(t)
    doc = {"command": "classify", "cyclic": cyclic, "regular": regular,
           "annihilator": serialize.ideal_to_json(ideal)}
    lines = [f"cyclic:  {'yes' if cyclic else 'no'}",
             f"regular: {'yes' if regular else 'no'}",
             f"annihilator colength: {ideal.colength}"]
    if not cyclic:
        doc["error"] = (f"tuple is not cyclic: annihilator colength "
                        f"{ideal.colength} != {t.ctx.n}")
        _emit(args, doc, "\n".join(lines + ["not cyclic: rejected"]))
        return EXIT_INVARIANT
    for g in ideal.basis_polynomials():
        lines.append(f"  {g}")
    if regular:
        point = moduli.moduli_point(ideal)
        doc["moduli_point"] = serialize.point_to_json(point)
        lines.append(f"moduli point: {point}")
    else:
        doc["moduli_point"] = None
        lines.append("cyclic, not regular: ideal printed, no moduli point")
    _emit(args, doc, "\n".join(lines))
    return EXIT_OK


def cmd_compare(args) -> int:
    t1 = serialize.tuple_from_json(serialize.load_json(args.file_a))
    t2 = serialize.tuple_from_json(serialize.load_json(args.file_b))
    t1.ctx.check_same(t2.ctx)
    for name, t in (("first", t1), ("second", t2)):
        flag, _ = reps.is_regular(t)
        if not flag:
            raise InputInvariantError(f"{name} tuple is not regular")
    g = reps.recover_conjugator(t1, t2)
    if g is not None:
        doc = {"command": "compare", "verdict": "conjugate",
               "conjugator": serialize.matrix_to_json(t1.ctx.field, g)}
        text = "conjugate\nconjugator rows:\n" + "\n".join(
            "  [" + ", ".join(t1.ctx.field.format(c) for c in row) + "]" for row in g)
    else:
        p1, p2 = moduli.tuple_point(t1), moduli.tuple_point(t2)
        if p1 == p2:
            raise InternalCheckError("tuples with equal moduli points found not conjugate")
        if p1.chart != p2.chart or p1.c != p2.c:
            differs = "base covector"
        else:
            differs = "fiber coordinates"
        doc = {"command": "compare", "verdict": "not_conjugate",
               "differs": differs,
               "first": serialize.point_to_json(p1),
               "second": serialize.point_to_json(p2)}
        text = (f"not conjugate ({differs} differ)\n"
                f"first:  {p1}\nsecond: {p2}")
    _emit(args, doc, text)
    return EXIT_OK


def cmd_sample(args) -> int:
    ctx = make_context(args.q, args.n, parse_field(args.field))
    t = reps.random_regular_tuple(ctx, args.seed)
    doc = {"command": "sample", **serialize.tuple_to_json(t)}
    _emit(args, doc, serialize.dumps(serialize.tuple_to_json(t)).rstrip("\n"))
    return EXIT_OK


def cmd_act(args) -> int:
    point = serialize.point_from_json(serialize.load_json(args.point_file))
    ctx = point.ctx
    if point.chart != 1 or any(point.c[1:]):
        raise InputInvariantError("the action needs a chart-1 point with "
                                  "standard covector")
    mdoc = serialize.load_json(args.matrix_file)
    mat = serialize.matrix_from_json(ctx.field, mdoc.get("matrix", mdoc), ctx.q)
    try:
        p = moduli.P1Element(ctx.field, mat)
    except ValueError as exc:
        raise InputInvariantError(str(exc)) from exc
    if args.t is None:
        b = moduli.p1_action_bruteforce(ctx, p, point.b)
        closed = moduli.p1_action_closed(ctx, p, point.b)
        if b != closed:
            raise InternalCheckError("ideal route and closed form disagree")
    else:
        try:
            t = ctx.field.scalar(args.t)
        except ValueError as exc:
            raise ParseError(f"bad twist parameter {args.t!r}: {exc}") from exc
        b = moduli.p1_action_twisted(ctx, p, point.b, t)
    out = moduli.ModuliPoint(ctx, 1, point.c, b)
    doc = {"command": "act", **serialize.point_to_json(out)}
    _emit(args, doc, repr(out))
    return EXIT_OK


def cmd_dims(args) -> int:
    report = moduli.dimension_report(args.dq, args.dn)
    doc = {"command": "dims", **report.to_dict()}
    _emit(args, doc, report.to_text())
    return EXIT_OK if report.all_match else EXIT_INTERNAL


def cmd_census(args) -> int:
    kwargs = {}
    if args.budget is not None:
        kwargs = {"point_budget": args.budget, "subspace_budget": args.budget}
    skipped = {}
    try:
        report = census_mod.CensusReport(args.cq, args.cn, args.cp, **kwargs)
    except BudgetExceeded as exc:
        # counts alone may still fit the budget
        report = census_mod.CensusReport(args.cq, args.cn, args.cp,
                                         brute_force=False, **kwargs)
        skipped = {"brute_force_skipped": str(exc)}
        if not args.as_json:
            print(f"brute-force oracle skipped: {exc}", file=sys.stderr)
    doc = {"command": "census", **report.to_dict(), **skipped}
    _emit(args, doc, report.to_text())
    return EXIT_OK if report.counts_match else EXIT_INTERNAL


def cmd_transition(args) -> int:
    field = parse_field(args.field)
    witness = moduli.linearity_witness(args.tq, args.tn, args.tk, args.tl,
                                       field=field)
    if witness is None:
        doc = {"command": "transition", "verdict": "LINEAR",
               "detail": "no violation on the search grid"}
        _emit(args, doc, "LINEAR (no violation found on the search grid)")
        return EXIT_OK
    ctx = make_context(args.tq, args.tn, field)
    fmt = field.format

    def fmt_b(b):
        return [[fmt(v) for v in row] for row in b]

    doc = {"command": "transition", "verdict": "NONLINEAR",
           "kind": witness["kind"],
           "c": [fmt(v) for v in witness["c"]],
           "b": fmt_b(witness["b"]),
           "lhs": fmt_b(witness["lhs"]), "rhs": fmt_b(witness["rhs"])}
    text = [f"NONLINEAR ({witness['kind']} fails)",
            f"  base covector c = {[fmt(v) for v in witness['c']]}",
            f"  b = {fmt_b(witness['b'])}"]
    if witness["kind"] == "homogeneity":
        doc["lam"] = fmt(witness["lam"])
        text.append(f"  transition(lam*b) = {fmt_b(witness['lhs'])}")
        text.append(f"  lam*transition(b) = {fmt_b(witness['rhs'])}")
    else:
        doc["b2"] = fmt_b(witness["b2"])
        text.append(f"  b2 = {fmt_b(witness['b2'])}")
        text.append(f"  transition(b+b2)            = {fmt_b(witness['lhs'])}")
        text.append(f"  transition(b)+transition(b2) = {fmt_b(witness['rhs'])}")
    _emit(args, doc, "\n".join(text))
    return EXIT_OK


def cmd_express(args) -> int:
    t = serialize.tuple_from_json(serialize.load_json(args.tuple_file))
    try:
        f = reps.express_in_cyclic(t, args.i, args.j)
    except ValueError as exc:
        raise InputInvariantError(str(exc)) from exc
    doc = {"command": "express", "i": args.i, "j": args.j,
           "polynomial": serialize.poly_to_json(f)}
    _emit(args, doc, f"x{args.j} = f(x{args.i}) with f = {f}")
    return EXIT_OK


COMMANDS = {
    "classify": cmd_classify,
    "compare": cmd_compare,
    "sample": cmd_sample,
    "act": cmd_act,
    "dims": cmd_dims,
    "census": cmd_census,
    "transition": cmd_transition,
    "express": cmd_express,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for key, val in GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, val)
    try:
        return COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (InputInvariantError, ContextMismatch) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (InternalCheckError, AssertionError) as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
