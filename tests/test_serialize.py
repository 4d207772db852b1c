import json

import pytest
from hypothesis import given, settings, strategies as st

from nilmoduli import (NilPolynomial, annihilator, base_ideal, make_context,
                       moduli_point, multiplication_matrices, random_point,
                       random_regular_tuple)
from nilmoduli.serialize import (ParseError, context_from_json,
                                 context_to_json, dumps, ideal_from_json,
                                 ideal_to_json, point_from_json, point_to_json,
                                 poly_from_json, poly_to_json, tuple_from_json,
                                 tuple_to_json)

from conftest import x
from test_ideals import contexts
from test_quotient_form import ideals


def test_context_round_trip():
    for spec in [(2, 3, "Q"), (3, 4, "Fp:5")]:
        ctx = make_context(*spec)
        assert context_from_json(context_to_json(ctx)) == ctx
    with pytest.raises(ParseError):
        context_from_json({"q": 2})
    with pytest.raises(ParseError):
        context_from_json({"q": 2, "n": 3, "field": "Fp:4"})


def test_poly_round_trip(ctx23):
    f = x(ctx23, 1) ** 2 - x(ctx23, 2).scale(3) + NilPolynomial.one(ctx23)
    doc = poly_to_json(f)
    assert {"exp": [0, 0], "coef": "1"} in doc["terms"]
    assert poly_from_json(ctx23, doc) == f
    with pytest.raises(ParseError):
        poly_from_json(ctx23, {"terms": [{"exp": [9, 9], "coef": "1"}]})


def test_poly_fraction_strings(ctx23):
    f = x(ctx23, 1).scale("1/2")
    doc = poly_to_json(f)
    assert doc["terms"][0]["coef"] == "1/2"
    assert poly_from_json(ctx23, doc) == f


def test_prime_field_strings():
    ctx = make_context(2, 3, "Fp:7")
    f = x(ctx, 1).scale(-1)
    doc = poly_to_json(f)
    assert doc["terms"][0]["coef"] == "6"  # canonical representative
    assert poly_from_json(ctx, doc) == f


def test_ideal_round_trip(ctx23):
    ideal = base_ideal(ctx23)
    doc = ideal_to_json(ideal)
    assert doc["colength"] == 3
    assert len(doc["rref"]) == ideal.rank
    assert ideal_from_json(doc) == ideal
    # generators alone determine the ideal
    slim = {"context": doc["context"], "generators": doc["generators"]}
    assert ideal_from_json(slim) == ideal


def test_tuple_round_trip(ctx24):
    t = random_regular_tuple(ctx24, 17)
    doc = tuple_to_json(t)
    assert tuple_from_json(doc) == t
    bad = json.loads(json.dumps(doc))
    bad["matrices"] = bad["matrices"][:1]
    with pytest.raises(ParseError):
        tuple_from_json(bad)


def test_point_round_trip():
    import random
    for spec in [(2, 4, "Q"), (3, 3, "Fp:3")]:
        ctx = make_context(*spec)
        pt = random_point(ctx, random.Random(1))
        assert point_from_json(point_to_json(pt)) == pt


def test_point_matches_classification(ctx23):
    t = multiplication_matrices(base_ideal(ctx23))
    pt = moduli_point(annihilator(t))
    doc = point_to_json(pt)
    assert doc["chart"] == 1
    assert doc["c"] == ["1", "0"]
    assert doc["b"] == [["0"]]


def test_dumps_deterministic(ctx23):
    doc = ideal_to_json(base_ideal(ctx23))
    assert dumps(doc) == dumps(ideal_to_json(base_ideal(ctx23)))
    assert "\n" == dumps(doc)[-1]


# Arbitrary JSON: nesting, empty containers, escapes and non-ASCII text,
# and lists mixing str, int, bool (an int subclass), float and null.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=5), inner, max_size=5),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(max_size=5), JSON, max_size=5)
       | st.lists(JSON, max_size=5) | JSON)
def test_dumps_equals_stdlib_indent(doc):
    assert dumps(doc) == json.dumps(doc, indent=2) + "\n"


def test_dumps_edge_lists():
    for doc in ([1, True], [True, 1], ["a", 1], [1, "a"], ["\u00e9", "\n\""],
                [[], {}], {"k": [[1, 2], ["3"]]}, {1: [None], None: 2.5}):
        assert dumps(doc) == json.dumps(doc, indent=2) + "\n"


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rref_strings_are_the_dense_rows(data):
    ideal = data.draw(ideals(data.draw(contexts())))
    fmt = ideal.ctx.field.format
    want = [[fmt(c) for c in g.to_vector()] for g in ideal.basis_polynomials()]
    assert ideal_to_json(ideal)["rref"] == want
