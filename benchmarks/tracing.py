"""Span recorder for the traced run.

Wraps the public functions of each nilmoduli layer in every module
namespace that binds them (``ideals`` does ``from .linalg import RowSpace,
nullspace``, so patching ``linalg`` alone would miss its calls), and
methods on their classes.  Each span records its name, start, end and
parent span; spans stay in compact arrays in memory, and those of the
first traced pass are written out when the run ends (every pass repeats
the same round).  Self time is a span's duration minus the time its
child spans cover.  Only calls made while an operation is being timed are
recorded: the gates call the library too, and are not traced.

``fields`` gets no spans: wrapping per-scalar operators would swamp every
other span.  It shows through the Q / F_p split between workloads.
"""

from __future__ import annotations

import functools
import importlib
import json
from array import array
from time import perf_counter

MODULES = ("fields", "linalg", "algebra", "ideals", "reps", "moduli", "census",
           "serialize", "cli")

# (layer, span name); "Class.method" names wrap a method on the class, a
# bare class name wraps its __init__ (construction and validation).
SPANS = (
    ("linalg", "RowSpace.insert"), ("linalg", "RowSpace.reduce"),
    ("linalg", "nullspace"), ("linalg", "mat_mul"), ("linalg", "mat_inv"),
    ("reps", "NilTuple"), ("reps", "is_cyclic"), ("reps", "is_regular"),
    ("reps", "annihilator"), ("reps", "multiplication_matrices"),
    ("reps", "recover_conjugator"),
    ("moduli", "moduli_point"), ("moduli", "ideal_from_point"),
    ("moduli", "fiber_coordinates"), ("moduli", "p1_action_bruteforce"),
    ("moduli", "p1_action_closed"), ("moduli", "p1_action_twisted"),
    ("moduli", "p1_weight_action"), ("moduli", "transition_map"),
    ("moduli", "gamma_factor"),
    ("ideals", "ideal_from_generators"), ("ideals", "ideal_from_span"),
    ("ideals", "apply_automorphism"), ("ideals", "Ideal.reduce"),
    ("ideals", "is_arr"), ("ideals", "associated_graded"),
    ("algebra", "make_context"), ("algebra", "NilPolynomial.substitute"),
    ("algebra", "NilPolynomial.__mul__"), ("algebra", "lift_linear"),
    ("algebra", "automorphism"), ("algebra", "compose"),
    ("census", "enumerate_moduli_points"), ("census", "brute_force_ideals"),
    ("census", "stratify_by_graded"), ("census", "CensusReport"),
    ("serialize", "tuple_from_json"), ("serialize", "ideal_to_json"),
    ("serialize", "point_to_json"), ("serialize", "dumps"),
    ("cli", "main"),
)

# The root span of every operation: the benchmark's own code around the
# library calls (argument conversion, constructors without spans).
OP_SPAN = "bench.op"

def _is_unit_vector(a) -> bool:
    return a is not None and sum(1 for v in a if v) == 1 and any(v == 1 for v in a)


class Recorder:
    """Spans of one traced run plus the counters behind the ratios."""

    def __init__(self):
        self.names = [OP_SPAN] + [f"{layer}.{span}" for layer, span in SPANS]
        self.name_ix = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.active = False
        self.counters = {"insert": 0, "insert_accepted": 0, "is_regular": 0,
                         "is_regular_grid": 0, "brute_all": 0, "brute_arr": 0}
        self._patches: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------
    def open(self, ix: int) -> int:
        k = len(self.start)
        self.name_ix.append(ix)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.stack.append(k)
        return k

    def close(self, k: int) -> None:
        self.end[k] = perf_counter()
        self.stack.pop()

    def _wrap(self, ix: int, fn, observe):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            k = rec.open(ix)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(k)
            if observe is not None:
                observe(rec.counters, args, result)
            return result
        return wrapper

    # --- installing the wrappers ---------------------------------------------
    def install(self) -> None:
        mods = {m: importlib.import_module(f"nilmoduli.{m}") for m in MODULES}
        namespaces = [importlib.import_module("nilmoduli")] + list(mods.values())
        for ix, (layer, span) in enumerate(SPANS, start=1):
            observe = OBSERVERS.get(f"{layer}.{span}")
            owner_name, _, method = span.partition(".")
            owner = getattr(mods[layer], owner_name)
            if isinstance(owner, type):
                attrs = [method or "__init__"]
                if method == "__mul__":
                    attrs.append("__rmul__")
                for attr in attrs:
                    original = owner.__dict__[attr]
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(ix, original, observe))
                continue
            wrapped = self._wrap(ix, owner, observe)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is owner:
                        self._patches.append((ns, attr, owner))
                        setattr(ns, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- results ---------------------------------------------------------------
    def summary(self) -> dict:
        """name -> [calls, self seconds] over every recorded span."""
        covered = [0.0] * len(self.start)
        out = {name: [0, 0.0] for name in self.names}
        for k in range(len(self.start)):
            dur = self.end[k] - self.start[k]
            parent = self.parent[k]
            if parent >= 0:
                covered[parent] += dur
        for k in range(len(self.start)):
            row = out[self.names[self.name_ix[k]]]
            row[0] += 1
            row[1] += self.end[k] - self.start[k] - covered[k]
        return out

    def ratios(self) -> dict:
        c = self.counters

        def share(num, den):
            return c[num] / c[den] if c[den] else 0.0
        return {"linalg.RowSpace.insert.accept_ratio": share("insert_accepted", "insert"),
                "reps.is_regular.grid_share": share("is_regular_grid", "is_regular"),
                "census.arr_ratio": share("brute_arr", "brute_all")}

    def write(self, path: str, count: int) -> None:
        """The first ``count`` spans as parallel arrays (name index, parent,
        start, end)."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "name": self.name_ix[:count].tolist(),
                       "parent": self.parent[:count].tolist(),
                       "start": self.start[:count].tolist(),
                       "end": self.end[:count].tolist()}, fh)


def _observe_insert(counters, args, accepted):
    counters["insert"] += 1
    counters["insert_accepted"] += bool(accepted)


def _observe_is_regular(counters, args, result):
    counters["is_regular"] += 1
    counters["is_regular_grid"] += not _is_unit_vector(result[1])


def _observe_census(counters, args, result):
    report = args[0]
    counters["brute_all"] += report.brute_all or 0
    counters["brute_arr"] += report.brute_arr or 0


OBSERVERS = {"linalg.RowSpace.insert": _observe_insert,
             "reps.is_regular": _observe_is_regular,
             "census.CensusReport": _observe_census}
