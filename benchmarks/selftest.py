"""Self-tests of the benchmark: seeded inputs, gates, output contract.

    python3 -m pytest -q benchmarks/selftest.py

Not named test_*.py, so the library's own test run does not collect it;
pass the file to pytest explicitly.  Takes about half a minute.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import workloads  # noqa: E402
from workloads import GateFailure  # noqa: E402

WORKLOADS = ("classify_q", "actions_fp", "census_fp")

# sha256 of the canonical bytes of round 0 for seed 0.  A change here
# means the benchmark no longer feeds the program the same inputs.
ROUND0_SHA256 = {
    "classify_q": "f4a6705f314210c958fd506224b179a0a7a6f8a731017f95f682a3e9d21a9090",
    "actions_fp": "d8a640dc754e6472c83da120ab9f589a6e2f0d8facf2413e2bea66717ba1245f",
    "census_fp": "4a57a3202ce16b0e431c3c2680ff2b2757cab2efb93fdb81edf1f41851007da6",
}


def _run(workload, seed=0, seconds=0, trace=0, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _first(workload, kind, q=None, seed=0):
    for op in inputs.make_round(workload, seed, 0):
        if op["kind"] == kind and (q is None or op["q"] == q):
            return op
    raise LookupError(kind)


# --- seeded inputs -----------------------------------------------------------

@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    a = inputs.fingerprint(inputs.make_round(workload, 3, 0))
    b = inputs.fingerprint(inputs.make_round(workload, 3, 0))
    assert a == b
    assert hashlib.sha256(inputs.fingerprint(inputs.make_round(workload, 0, 0))
                          ).hexdigest() == ROUND0_SHA256[workload]
    if workload != "census_fp":  # census cases are fixed; seeds only reorder
        assert a != inputs.fingerprint(inputs.make_round(workload, 4, 0))
        assert a != inputs.fingerprint(inputs.make_round(workload, 3, 1))


def test_tuple_files_are_byte_identical(tmp_path):
    paths = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        ops = inputs.make_round("classify_q", 5, 0)
        inputs.prepare_files(ops, str(tmp_path / sub))
        paths.append(sorted((tmp_path / sub).iterdir()))
    assert [p.name for p in paths[0]] == [p.name for p in paths[1]]
    assert all(x.read_bytes() == y.read_bytes() for x, y in zip(*paths))


def test_partition_count_matches_known_values():
    # (2,5,3) -> 157 and (2,6,2) -> 115 as swept by the census
    assert workloads.partition_count(5, 3) == 157
    assert workloads.partition_count(6, 2) == 115


# --- the gates count corrupted answers as failures ---------------------------

def _classify_out(tmp_path, kind):
    op = _first("classify_q", kind)
    inputs.prepare_files([op], str(tmp_path))
    return op, workloads.run_classify(op)


def _with_doc(out, edit):
    rc, text, err = out
    doc = json.loads(text)
    edit(doc)
    return rc, json.dumps(doc), err


def test_classify_gate(tmp_path):
    op, out = _classify_out(tmp_path, "classify_regular")
    workloads.check_classify(op, out)

    def bump_fiber(doc):
        b = doc["moduli_point"]["b"]
        b[0][0] = str(int(b[0][0].split("/")[0]) + 1)
    with pytest.raises(GateFailure):
        workloads.check_classify(op, _with_doc(out, bump_fiber))
    with pytest.raises(GateFailure):
        workloads.check_classify(op, _with_doc(out, lambda d: d.update(regular=False)))
    with pytest.raises(GateFailure):
        workloads.check_classify(op, (3, out[1], "invalid input"))


def test_classify_gate_nonregular(tmp_path):
    op, out = _classify_out(tmp_path, "classify_nonregular")
    workloads.check_classify(op, out)

    def bump_row(doc):  # add a monomial outside the ideal to the first row
        rows = doc["annihilator"]["rref"]
        pivots = {next(i for i, c in enumerate(r) if c != "0") for r in rows}
        free = min(i for i in range(len(rows[0])) if i not in pivots)
        rows[0][free] = str(Fraction(rows[0][free]) + 1)
    with pytest.raises(GateFailure):
        workloads.check_classify(op, _with_doc(out, bump_row))

    def repeat_row(doc):  # same count, smaller span
        rows = doc["annihilator"]["rref"]
        rows[1] = list(rows[0])
    with pytest.raises(GateFailure):
        workloads.check_classify(op, _with_doc(out, repeat_row))


@pytest.mark.parametrize("kind", ["compare_conjugate", "compare_distinct"])
def test_compare_gate(tmp_path, kind):
    op = _first("classify_q", kind)
    inputs.prepare_files([op], str(tmp_path))
    out = workloads.run_compare(op)
    workloads.check_compare(op, out)
    flipped = "not_conjugate" if kind == "compare_conjugate" else "conjugate"
    with pytest.raises(GateFailure):
        workloads.check_compare(op, _with_doc(out, lambda d: d.update(verdict=flipped)))
    if kind == "compare_conjugate":
        def bump_conjugator(doc):
            doc["conjugator"][0][0] = str(int(doc["conjugator"][0][0]) + 1)
        with pytest.raises(GateFailure):
            workloads.check_compare(op, _with_doc(out, bump_conjugator))


def _bump(rows):
    rows = [list(r) for r in rows]
    rows[0][0] = rows[0][0] + 1
    return tuple(tuple(r) for r in rows)


def test_action_gates():
    op = _first("actions_fp", "action", q=3)
    via_ideal, closed = workloads.run_action(op)
    workloads.check_action(op, (via_ideal, closed))
    with pytest.raises(GateFailure):
        workloads.check_action(op, (_bump(via_ideal), closed))

    op = _first("actions_fp", "twist0", q=3)
    twisted, weight = workloads.run_twist0(op)
    workloads.check_twist0(op, (twisted, weight))
    with pytest.raises(GateFailure):
        workloads.check_twist0(op, (_bump(twisted), _bump(weight)))

    op = _first("actions_fp", "transition", q=3)
    there, back = workloads.run_transition(op)
    workloads.check_transition(op, (there, back))
    moved = type(back)(back.ctx, back.chart, back.c, _bump(back.b))
    with pytest.raises(GateFailure):
        workloads.check_transition(op, (there, moved))


def test_gamma_gate():
    op = _first("actions_fp", "gamma", q=3)
    gamma, h = workloads.run_gamma(op)
    workloads.check_gamma(op, (gamma, h))
    with pytest.raises(GateFailure):  # the factors swapped do not recompose
        workloads.check_gamma(op, (h, gamma))


def test_census_gate():
    op = {"kind": "census", "q": 2, "n": 4, "p": 2}
    report = workloads.run_census(op)
    workloads.check_census(op, report)
    report.brute_all += 1
    with pytest.raises(GateFailure):
        workloads.check_census(op, report)
    report.brute_all = None  # oracle skipped: a failure, never a pass
    with pytest.raises(GateFailure):
        workloads.check_census(op, report)
    report = workloads.run_census(op)
    report.total += 1
    with pytest.raises(GateFailure):
        workloads.check_census(op, report)


# --- end to end ----------------------------------------------------------------

def _declared(key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, sorted(m["name"] for m in spec[key])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_has_no_errors(workload):
    proc = _run(workload)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    spec, names = _declared("end_to_end")
    assert sorted(last["metrics"]) == names
    assert workload in [w["name"] for w in spec["workloads"]]
    assert all(v["value"] > 0 for v in last["metrics"].values())


def test_traced_run_reports_declared_metrics():
    proc = _run("census_fp", trace=1)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["failed"] == 0
    _, names = _declared("per_layer")
    assert sorted(last["metrics"]) == names
    assert last["metrics"]["census.brute_force_ideals.calls"]["value"] == len(inputs.CENSUS_CASES)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("census_fp", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
