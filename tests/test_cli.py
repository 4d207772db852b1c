import json

import pytest

from nilmoduli import NilTuple, make_context
from nilmoduli.cli import main
from nilmoduli.serialize import tuple_to_json, dumps

from conftest import shift_matrix


def write_tuple(path, q, n, mats, field="Q"):
    ctx = make_context(q, n, field)
    t = NilTuple(ctx, mats)
    path.write_text(dumps(tuple_to_json(t)))
    return t


@pytest.fixture
def jj2_file(tmp_path, ctx23):
    f = ctx23.field
    path = tmp_path / "jj2.json"
    write_tuple(path, 2, 3, [shift_matrix(f, 3), shift_matrix(f, 3, 2)])
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_regular(capsys, jj2_file):
    code, out, _ = run(capsys, "--json", "classify", jj2_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "nilmoduli/1"
    assert doc["regular"] and doc["cyclic"]
    assert doc["moduli_point"]["chart"] == 1
    assert doc["moduli_point"]["c"] == ["1", "0"]
    assert doc["moduli_point"]["b"] == [["1"]]


def test_classify_shift_only(capsys, tmp_path, ctx23):
    f = ctx23.field
    path = tmp_path / "j0.json"
    zero = [[f.zero] * 3 for _ in range(3)]
    write_tuple(path, 2, 3, [shift_matrix(f, 3), zero])
    code, out, _ = run(capsys, "--json", "classify", str(path))
    assert code == 0
    assert json.loads(out)["moduli_point"]["b"] == [["0"]]


def test_classify_cyclic_not_regular(capsys, tmp_path, ctx23):
    f = ctx23.field
    e21 = [[f.zero] * 3 for _ in range(3)]
    e21[1][0] = f.one
    e31 = [[f.zero] * 3 for _ in range(3)]
    e31[2][0] = f.one
    path = tmp_path / "cnr.json"
    write_tuple(path, 2, 3, [e21, e31])
    code, out, _ = run(capsys, "--json", "classify", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["cyclic"] and not doc["regular"]
    assert doc["moduli_point"] is None
    code, out, _ = run(capsys, "classify", str(path))
    assert "not regular" in out


def test_classify_noncommuting_exits_3(capsys, tmp_path):
    doc = {"context": {"q": 2, "n": 3, "field": "Q"},
           "matrices": [[["0", "0", "0"], ["1", "0", "0"], ["0", "0", "0"]],
                        [["0", "0", "0"], ["0", "0", "0"], ["0", "1", "0"]]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "classify", str(path))
    assert code == 3
    assert "commute" in err


def test_classify_parse_error_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "classify", str(path))
    assert code == 2


def test_compare_conjugate_and_not(capsys, tmp_path, ctx24):
    f = ctx24.field
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    c = tmp_path / "c.json"
    j = shift_matrix(f, 4)
    write_tuple(a, 2, 4, [j, shift_matrix(f, 4, 2)])
    write_tuple(c, 2, 4, [j, shift_matrix(f, 4, 3)])
    # b: conjugate of a by a unimodular matrix
    g = [[1, 1, 0, 0], [0, 1, 0, 2], [0, 0, 1, 0], [0, 0, 0, 1]]
    from nilmoduli import conjugate
    ctx = make_context(2, 4)
    ta = NilTuple(ctx, [j, shift_matrix(f, 4, 2)])
    tb = conjugate(ta, [[f.scalar(v) for v in row] for row in g])
    b.write_text(dumps(tuple_to_json(tb)))

    code, out, _ = run(capsys, "--json", "compare", str(a), str(b))
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "conjugate"
    assert "conjugator" in doc

    code, out, _ = run(capsys, "--json", "compare", str(a), str(c))
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "not_conjugate"
    assert doc["differs"] == "fiber coordinates"


def test_sample_round_trips_through_classify(capsys, tmp_path):
    code, out, _ = run(capsys, "sample", "--q", "2", "--n", "4", "--seed", "11")
    assert code == 0
    path = tmp_path / "sample.json"
    path.write_text(out)
    code, out2, _ = run(capsys, "--json", "classify", str(path))
    assert code == 0
    assert json.loads(out2)["regular"]


def test_sample_deterministic(capsys):
    code1, out1, _ = run(capsys, "sample", "--seed", "4")
    code2, out2, _ = run(capsys, "sample", "--seed", "4")
    assert code1 == code2 == 0
    assert out1 == out2


def test_act_plain_and_twisted(capsys, tmp_path):
    point = {"context": {"q": 2, "n": 4, "field": "Q"},
             "chart": 1, "c": ["1", "0"], "b": [["1", "2"]]}
    ppath = tmp_path / "pt.json"
    ppath.write_text(json.dumps(point))
    mpath = tmp_path / "mat.json"
    mpath.write_text(json.dumps({"matrix": [["2", "1"], ["0", "1"]]}))
    code, out, _ = run(capsys, "--json", "act", str(ppath), str(mpath))
    assert code == 0
    doc = json.loads(out)
    assert doc["b"] == [["4", "32"]]
    code, out, _ = run(capsys, "--json", "act", str(ppath), str(mpath), "--t", "0")
    assert code == 0
    assert json.loads(out)["b"] == [["4", "16"]]  # linear weight action
    point = {"context": {"q": 4, "n": 6, "field": "Fp:7"}, "chart": 1,
             "c": ["1", "0", "0", "0"],
             "b": [["3", "6", "3", "4"], ["2", "5", "0", "1"], ["0", "0", "1", "6"]]}
    ppath.write_text(json.dumps(point))
    mpath.write_text(json.dumps({"matrix": [["2", "1", "0", "6"], ["0", "0", "3", "3"],
                                            ["0", "4", "2", "1"], ["0", "1", "6", "0"]]}))
    # b after each action, one row per string of F_7 digits
    pinned = {(): ["5414", "5465", "6163"],
              ("--t", "0"): ["5205", "5252", "6041"],
              ("--t", "5"): ["5541", "5524", "6535"]}
    for twist, rows in pinned.items():
        code, out, _ = run(capsys, "--json", "act", str(ppath), str(mpath), *twist)
        assert code == 0
        assert json.loads(out)["b"] == [list(row) for row in rows]


def test_act_rejects_non_stabilizer(capsys, tmp_path):
    point = {"context": {"q": 2, "n": 4, "field": "Q"},
             "chart": 1, "c": ["1", "0"], "b": [["1", "2"]]}
    ppath = tmp_path / "pt.json"
    ppath.write_text(json.dumps(point))
    mpath = tmp_path / "mat.json"
    mpath.write_text(json.dumps({"matrix": [["1", "0"], ["1", "1"]]}))
    code, _, err = run(capsys, "act", str(ppath), str(mpath))
    assert code == 3


def test_dims_command(capsys):
    code, out, _ = run(capsys, "--json", "dims", "2", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_match"]
    assert doc["groups"]["dim_fiber"] == 2
    assert doc["groups"]["dim_base"] == 1
    assert len(doc["flags"]) == 2


def test_census_command(capsys):
    code, out, _ = run(capsys, "--json", "census", "2", "3", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == doc["formula"] == doc["brute_force_arr"] == 6
    assert doc["counts_match"]


def test_census_reports_skipped_oracle(capsys):
    code, out, err = run(capsys, "census", "2", "4", "2", "--budget", "1000")
    assert code == 0
    assert err == ("brute-force oracle skipped: "
                   "echelon sweep exceeded the budget 1000\n")
    assert "brute-force" not in out
    code, out, err = run(capsys, "--json", "census", "2", "4", "2",
                         "--budget", "1000")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["brute_force_all"] is None
    assert doc["brute_force_skipped"] == "echelon sweep exceeded the budget 1000"
    code, out, err = run(capsys, "--json", "census", "2", "3", "2")
    assert err == "" and "brute_force_skipped" not in json.loads(out)


def test_census_budget_exit(capsys):
    code, _, err = run(capsys, "--budget", "2", "census", "2", "3", "2")
    assert code == 4
    assert "budget" in err


def test_transition_command(capsys):
    code, out, _ = run(capsys, "--json", "transition", "2", "4", "1", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "NONLINEAR"
    assert doc["kind"] == "homogeneity"
    code, out, _ = run(capsys, "transition", "2", "3", "1", "2")
    assert code == 0
    assert "LINEAR" in out


def test_express_command(capsys, jj2_file):
    code, out, _ = run(capsys, "--json", "express", jj2_file, "1", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["polynomial"]["terms"] == [{"exp": [2, 0], "coef": "1"}]
    code, out, _ = run(capsys, "express", jj2_file, "1", "2")
    assert "x2 = f(x1)" in out


def test_classify_non_cyclic_exits_3(capsys, tmp_path, ctx23):
    f = ctx23.field
    zero = [[f.zero] * 3 for _ in range(3)]
    path = tmp_path / "zero.json"
    write_tuple(path, 2, 3, [zero, zero])
    code, out, _ = run(capsys, "--json", "classify", str(path))
    assert code == 3
    doc = json.loads(out)
    assert not doc["cyclic"]
    assert "colength" in doc["error"]


def test_compare_across_contexts_exits_3(capsys, tmp_path, jj2_file, ctx24):
    other = tmp_path / "other.json"
    f = ctx24.field
    write_tuple(other, 2, 4, [shift_matrix(f, 4), shift_matrix(f, 4, 2)])
    for mode in ("--text", "--json"):
        code, out, err = run(capsys, mode, "compare", jj2_file, str(other))
        assert code == 3 and out == ""
        assert err == ("invalid input: context mismatch: (q=2, n=3, Q) vs "
                       "(q=2, n=4, Q)\n")


def test_compare_checks_a_negative_verdict(capsys, monkeypatch, jj2_file):
    # a conjugator search that wrongly says "not conjugate" is caught by the
    # independent comparison of the two moduli points
    monkeypatch.setattr("nilmoduli.reps.recover_conjugator", lambda a, b: None)
    code, _, err = run(capsys, "compare", jj2_file, jj2_file)
    assert code == 5
    assert "equal moduli points" in err


def test_oversized_algebra_exits_4(capsys, tmp_path):
    code, out, err = run(capsys, "sample", "--q", "30", "--n", "30")
    assert code == 4 and out == ""
    assert err == ("budget exceeded: the algebra for q=30, n=30 has more than "
                   "100000 monomials\n")
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"context": {"q": 30, "n": 30, "field": "Q"},
                                "matrices": []}))
    code, out, err = run(capsys, "--json", "classify", str(path))
    assert code == 4 and out == ""
    assert err.startswith("budget exceeded: the algebra for q=30, n=30")


@pytest.mark.parametrize("argv, code, err", [
    (["transition", "2", "4", "1", "1"], 3, "invalid input: charts must differ"),
    (["transition", "2", "4", "1", "5"], 3, "invalid input: charts must lie in 1..2"),
    (["dims", "1", "4"], 3, "invalid input: the report needs at least two variables"),
    (["census", "2", "3", "4"], 3, "invalid input: modulus 4 is not prime"),
    (["census", "2", "3", "1"], 3, "invalid input: modulus 1 is not prime"),
    (["sample", "--q", "0"], 3, "invalid input: q must be >= 1, got 0"),
    (["sample", "--n", "1"], 3, "invalid input: n must be >= 2, got 1"),
    (["--field", "Fp:4", "sample"], 3, "invalid input: modulus 4 is not prime"),
    (["--field", "Fp:x", "sample"], 2, "parse error: bad modulus in field spec 'Fp:x'"),
    (["--field", "R", "transition", "2", "4", "1", "2"], 2,
     "parse error: unknown field spec 'R' (expected 'Q' or 'Fp:<p>')"),
    (["act", "{point}", "{matrix}", "--t", "abc"], 2,
     "parse error: bad twist parameter 'abc': "),
    (["act", "{point}", "{matrix}", "--t", "1/0"], 2,
     "parse error: bad twist parameter '1/0': zero denominator in '1/0'"),
    (["act", "{bad_point}", "{matrix}"], 2,
     "parse error: bad moduli point: zero denominator in '1/0'"),
])
def test_bad_values_exit_with_one_line(capsys, tmp_path, argv, code, err):
    files = {"point": {"context": {"q": 2, "n": 4, "field": "Q"},
                       "chart": 1, "c": ["1", "0"], "b": [["1", "2"]]},
             "bad_point": {"context": {"q": 2, "n": 4, "field": "Q"},
                           "chart": 1, "c": ["1", "0"], "b": [["1/0", "2"]]},
             "matrix": {"matrix": [["2", "1"], ["0", "1"]]}}
    for name, doc in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    argv = [a.format(**{k: str(tmp_path / f"{k}.json") for k in files}) for a in argv]
    got, out, stderr = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert stderr.startswith(err) and stderr.count("\n") == 1 and stderr.endswith("\n")
