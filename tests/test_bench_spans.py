"""Every span the benchmark's traced run wraps names a library function.

benchmarks/tracing.py looks each (layer, name) up on nilmoduli.<layer>; a
function renamed or moved out of its layer breaks the traced run.  The
span table is read from the source as a literal, without importing it.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def traced_spans():
    tree = ast.parse(TRACING.read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "SPANS" for t in node.targets))


def resolves(layer, span):
    obj = importlib.import_module(f"nilmoduli.{layer}")
    for part in span.split("."):
        obj = getattr(obj, part, None)
    return callable(obj)


def test_traced_spans_resolve():
    spans = traced_spans()
    assert spans
    assert [f"{layer}.{span}" for layer, span in spans
            if not resolves(layer, span)] == []
