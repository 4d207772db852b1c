"""Benchmark of nilmoduli: seeded, single-process, closed-loop workloads.

    python3 benchmarks/run.py --workload classify_q --seed 1 --seconds 30 --trace 0

Run from a source checkout; the library is imported from ``src/``.  One
client runs one operation at a time (no threads, no extra workers).  Each
run regenerates its inputs from ``--seed`` (see inputs.py), times every
operation, checks every answer (see workloads.py) and prints a summary,
then, as its last line, one JSON object with the metrics.

``--trace 0`` measures the end-to-end metrics.  Rounds of freshly drawn
operations run until the timed operations add up to ``--seconds`` (input
preparation and answer checks are not timed); the round in progress is
finished, so the mix of operations is exact.  Set-up time is
the median over this process and two fresh ones.

``--trace 1`` measures the per-layer metrics.  It repeats round 0,
alternating a pass with span wrappers installed and one without, so every
count is per round and repeats exactly for a seed, and the tracing
overhead compares identical work.

The full report (environment, per-cell counts, every span) goes to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS = ("classify_q", "actions_fp", "census_fp")
SETUP_PROBES = 2
TAIL_BEYOND = 10

import inputs  # noqa: E402  (the benchmark's own input generator, no nilmoduli)


# Kinds in the order a warm-up operation is picked for a context: the
# cheapest kind the context has.
WARMUP_KINDS = ("classify_regular", "action", "census", "compare_conjugate",
                "compare_distinct", "classify_nonregular", "twist0",
                "transition", "gamma")


def warmup_ops(workload: str) -> dict:
    """(q, n, p) context -> its warm-up operation.  The operations come from
    seed 0 whatever the run's seed, so every run sets up the same work."""
    warm: dict = {}
    ops = inputs.make_round(workload, 0, 0)
    for op in sorted(ops, key=lambda o: WARMUP_KINDS.index(o["kind"])):
        warm.setdefault((op["q"], op["n"], op.get("p")), op)
    return warm


def setup(workload: str, workdir: str) -> float:
    """Seconds to import nilmoduli, build every context of the workload and
    run one warm-up operation per context, in this process."""
    warm = warmup_ops(workload)
    inputs.prepare_files(list(warm.values()), workdir)
    t0 = perf_counter()
    import nilmoduli
    import workloads
    for q, n, p in warm:
        nilmoduli.make_context(q, n, f"Fp:{p}" if p else "Q")
    for op in warm.values():
        run, _ = workloads.KINDS[op["kind"]]
        run(op)
    return perf_counter() - t0


def run_ops(ops, workload: str, recorder=None):
    """Time and check each operation; returns (cell, seconds, error) rows."""
    import workloads
    rows = []
    for op in ops:
        run, check = workloads.KINDS[op["kind"]]
        if recorder is not None:
            recorder.active = True
            span = recorder.open(0)
        error = None
        t0 = perf_counter()
        try:
            out = run(op)
        except (Exception, SystemExit) as exc:  # any raise is a failed operation
            error = f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        if recorder is not None:
            recorder.close(span)
            recorder.active = False
        if error is None:
            try:
                check(op, out)
            except workloads.GateFailure as exc:
                error = f"wrong answer: {exc}"
            except Exception as exc:  # malformed output
                error = f"unreadable answer: {type(exc).__name__}: {exc}"
        rows.append((inputs.cell_of(workload, op), dt, error))
    return rows


def tail(latencies):
    """(percentile, value): the highest percentile with TAIL_BEYOND
    operations beyond it, i.e. the (TAIL_BEYOND + 1)-th slowest."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= TAIL_BEYOND:
        return 100.0, lat[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, lat[n - TAIL_BEYOND - 1]


def environment() -> dict:
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "machine": platform.machine(), "git_commit": None}
    if (ROOT / ".git").exists():
        try:
            env["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "nilmoduli").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env["src_sha256"] = digest.hexdigest()
    return env


def probe_setup(workload: str, workdir: Path) -> float:
    """Set-up time measured in a fresh interpreter."""
    workdir.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", "0", "--setup-probe", str(workdir)],
        cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def count_cells(rows) -> dict:
    """Per cell: operations attempted and failed, median verified latency."""
    cells: dict = {}
    for cell, dt, error in rows:
        entry = cells.setdefault(cell, {"attempted": 0, "failed": 0, "ok": []})
        entry["attempted"] += 1
        entry["failed"] += error is not None
        if error is None:
            entry["ok"].append(dt)
    for entry in cells.values():
        ok = entry.pop("ok")
        entry["latency_p50_ms"] = statistics.median(ok) * 1e3 if ok else None
    return dict(sorted(cells.items()))


def round_mix(workload: str, seed: int) -> dict:
    """Operations per cell in one round (every round has the same mix)."""
    cells: dict = {}
    for op in inputs.make_round(workload, seed, 0):
        cell = inputs.cell_of(workload, op)
        cells[cell] = cells.get(cell, 0) + 1
    return dict(sorted(cells.items()))


def measure(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    setup_s = [setup(workload, str(workdir))]
    for k in range(SETUP_PROBES):
        setup_s.append(probe_setup(workload, workdir / f"probe{k}"))
    rows = []
    rounds = 0
    while rounds == 0 or sum(dt for _, dt, _ in rows) < seconds:
        ops = inputs.make_round(workload, seed, rounds)
        inputs.prepare_files(ops, str(workdir))
        rows.extend(run_ops(ops, workload))
        rounds += 1
    ok = [dt for _, dt, error in rows if error is None]
    failed = len(rows) - len(ok)
    timed = sum(dt for _, dt, _ in rows)
    # with nothing verified the latencies read 0 and the run is not correct
    pct, tail_value = tail(ok) if ok else (100.0, 0.0)
    return {
        "rounds": rounds, "attempted": len(rows), "failed": failed,
        "failures": [f"{cell}: {error}" for cell, _, error in rows if error][:10],
        "cells": count_cells(rows),
        "ops_per_round": round_mix(workload, seed),
        "timed_work_s": timed,
        "setup_samples_s": setup_s,
        "tail_percentile": pct, "tail_samples": len(ok),
        "metrics": {
            "throughput_ops_s": (len(ok) / timed, "1/s"),
            "latency_p50_ms": (statistics.median(ok) * 1e3 if ok else 0.0, "ms"),
            "latency_tail_ms": (tail_value * 1e3, "ms"),
            "error_rate": (failed / len(rows), "ratio"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
    }


def measure_traced(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    setup(workload, str(workdir))
    from tracing import Recorder
    recorder = Recorder()
    ops = inputs.make_round(workload, seed, 0)
    inputs.prepare_files(ops, str(workdir))
    rows, pass_time = [], {True: [], False: []}
    passes = 0
    while passes < 2 or sum(dt for _, dt, _ in rows) < seconds:
        traced = passes % 2 == 0
        if traced:
            recorder.install()
        try:
            got = run_ops(ops, workload, recorder if traced else None)
        finally:
            recorder.uninstall()
        pass_time[traced].append(sum(dt for _, dt, _ in got))
        rows.extend(got)
        passes += 1
        if passes == 1:
            first_pass_spans = len(recorder.start)
    traced_passes = len(pass_time[True])
    summary = recorder.summary()
    # passes repeat one round, so calls divide exactly unless the program
    # is not deterministic
    spans = {name: {"calls": calls // traced_passes if calls % traced_passes == 0
                    else calls / traced_passes,
                    "self_s": self_s / traced_passes}
             for name, (calls, self_s) in summary.items()}
    layers: dict = {}
    for name, (calls, self_s) in summary.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + self_s / traced_passes
    overhead = (statistics.mean(pass_time[True]) / statistics.mean(pass_time[False]) - 1) * 100
    metrics = {}
    for name, row in spans.items():
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
    for layer, self_s in layers.items():
        metrics[f"{layer}.self_s"] = (self_s, "s")
    for name, value in recorder.ratios().items():
        metrics[name] = (value, "ratio")
    metrics["trace.overhead_pct"] = (overhead, "%")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    recorder.write(str(out_dir / f"spans-{workload}-seed{seed}.json"), first_pass_spans)
    failed = sum(error is not None for _, _, error in rows)
    return {
        "passes": passes, "traced_passes": traced_passes,
        "attempted": len(rows), "failed": failed,
        "failures": [f"{cell}: {error}" for cell, _, error in rows if error][:10],
        "ops_per_round": round_mix(workload, seed),
        "pass_time_s": {"traced": pass_time[True], "untraced": pass_time[False]},
        "spans_recorded": len(recorder.start),
        "metrics": metrics,
    }


def load_library() -> bool:
    if not (SRC / "nilmoduli" / "__init__.py").is_file():
        print(f"nilmoduli sources not found under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def declared_metrics(trace: bool):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not load_library():
        return 2
    if args.setup_probe:
        print(repr(setup(args.workload, args.setup_probe)))
        return 0
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = measure_traced(args.workload, args.seed, args.seconds, workdir)
        else:
            result = measure(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), **result}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    report = out_dir / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps(result, indent=1) + "\n")

    metrics = result["metrics"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    if not args.trace:
        print(f"  tail = p{result['tail_percentile']:.2f} of "
              f"{result['tail_samples']} verified operations")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    print(f"  full report: {report.relative_to(ROOT)}")
    names = declared_metrics(bool(args.trace))
    final = {"correct": result["failed"] == 0 and result["attempted"] > 0,
             "attempted": result["attempted"],
             "failed": result["failed"],
             "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                         for name in names}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
