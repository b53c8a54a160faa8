#!/usr/bin/env python3
"""Run one hqe benchmark workload in this fresh interpreter.

    python3 bench/run.py --workload roots --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: hqe is imported from ./src and from nothing
else.  One client runs a closed loop -- each operation starts when the
previous one returns -- over the seeded operation streams of the workload
(see workloads.py), giving each backend group a fixed share of the busy time, until
``--seconds`` of operation time have been measured.  Every answer is checked
outside the timed region.

Output: a few human-readable lines, then as the last line one JSON object
with the keys correct, attempted, failed and metrics.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the calls into hqe are
traced (tracer.py) and the metrics are the per-layer ones, plus the traced
run's own end-to-end throughput and latency, so that tracing overhead is the
difference to an untraced run of the same seed (report.py prints it).  A run
record with input properties, the Python version, nproc and the commit goes
to .bench_out/.  Exit status: 0 when every answer is right, 1 on a wrong
answer, 2 when hqe or its sources cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GROUPS = ("laurent-q", "padic")
SETUP_SAMPLES = 7

# a cold start: interpreter, import of the package and its CLI, and the
# fields the workloads use; CLOCK_MONOTONIC is system-wide, so the child's
# reading of it is comparable with the parent's
SETUP_CHILD = (
    "import sys, time; sys.path.insert(0, {src!r}); import hqe, hqe.cli; "
    "hqe.Field.laurent(); hqe.Field.laurent(128); hqe.Field.padic(7); hqe.Field.padic(2); "
    "print(time.clock_gettime(time.CLOCK_MONOTONIC), hqe.__file__)"
)


def fail(msg: str, code: int = 2):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(code)


def import_hqe():
    """Import hqe from this checkout's src/, refusing any other copy."""
    if not (SRC / "hqe" / "__init__.py").is_file():
        fail(f"no hqe sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hqe

    if Path(hqe.__file__).resolve().parent != (SRC / "hqe").resolve():
        fail(f"imported hqe from {hqe.__file__}, not from {SRC}")
    return hqe


def cold_start() -> float:
    """Seconds from spawning a fresh interpreter to its first op being ready."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    child = subprocess.run([sys.executable, "-c", SETUP_CHILD.format(src=str(SRC))], cwd=ROOT,
                           stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120)
    ready, _, where = child.stdout.strip().partition(" ")
    if child.returncode != 0 or Path(where).resolve().parent != (SRC / "hqe").resolve():
        fail(f"setup child failed (exit {child.returncode}): {child.stdout!r} {child.stderr[-500:]!r}")
    return float(ready) - t0


def tail(samples, percentile: int) -> tuple:
    """(value, samples beyond it) of the given percentile."""
    value = statistics.quantiles(samples, n=100, method="inclusive")[percentile - 1]
    return value, sum(x > value for x in samples)


def commit_of(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_loop(workloads, hqe, workload, seed, seconds, tracer, between_ops):
    streams = {g: workloads.stream(workload, g, seed) for g in GROUPS}
    share = {"laurent-q": workloads.LAURENT_SHARE[workload]}
    share["padic"] = 1 - share["laurent-q"]
    busy = dict.fromkeys(GROUPS, 0.0)
    lat = {g: [] for g in GROUPS}
    answered = Counter()
    st = Counter()  # ops / op_failures / units / unit_failures
    wrong = []
    branches = Counter()
    by_label = {}  # label -> [ops, busy seconds]
    op_id = 0
    while sum(busy.values()) < seconds:
        between_ops(sum(busy.values()))
        g = min(GROUPS, key=lambda g: busy[g] / share[g])
        op = next(streams[g])
        op_id += 1
        frame = tracer.begin_op(op_id, op.label) if tracer else None
        t0 = time.perf_counter()
        try:
            answer, error = op.call(), None
        except Exception as exc:  # sorted below: typed errors are answers, others defects
            answer, error = None, exc
        t1 = time.perf_counter()
        if tracer:
            tracer.end_op(frame)
        busy[g] += t1 - t0
        lat[g].append(t1 - t0)
        branches[op.dnf_branches] += 1
        entry = by_label.setdefault(op.label, [0, 0.0])
        entry[0] += 1
        entry[1] += t1 - t0
        st["ops"] += 1
        st["units"] += 1
        if isinstance(error, hqe.HQEError):
            st["op_failures"] += 1
            st["unit_failures"] += 1
            continue
        if error is not None:
            wrong.append(f"{op.label}: untyped {type(error).__name__}: {error}")
            continue
        st["units"] += op.queries
        failed_queries = op.query_errors(answer)
        st["unit_failures"] += failed_queries
        st["op_failures"] += bool(failed_queries)
        answered[g] += 1
        wrong.extend(f"{op.label}: {msg}" for msg in op.check(answer))
    return busy, lat, answered, st, wrong, branches, by_label


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("roots", "decompose", "decide"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    hqe = import_hqe()
    cold_start()  # warm-up: it may compile bytecode
    setup = []

    def sample_setup(busy_s):
        # cold starts spread over the run, so their median sees the same
        # machine as the operations do
        if len(setup) < SETUP_SAMPLES and busy_s >= len(setup) * args.seconds / SETUP_SAMPLES:
            setup.append(cold_start())

    import workloads
    from tracer import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        busy, lat, answered, st, wrong, branches, by_label = run_loop(
            workloads, hqe, args.workload, args.seed, args.seconds, tracer, sample_setup)
    finally:
        if tracer:
            tracer.uninstall()

    while len(setup) < SETUP_SAMPLES:  # a run too short to spread them
        setup.append(cold_start())
    e2e = {"setup_s": (statistics.median(setup), "s")}
    info = {}
    for g in GROUPS:
        if len(lat[g]) < 2:
            fail(f"only {len(lat[g])} {g} operation(s) in {args.seconds} s", 1)
        pct = workloads.TAIL_PERCENTILE[args.workload][g]
        value, beyond = tail(lat[g], pct)
        e2e[f"ops_per_s.{g}"] = (answered[g] / busy[g], "1/s")
        e2e[f"p50_ms.{g}"] = (1000 * statistics.median(lat[g]), "ms")
        e2e[f"tail_ms.{g}"] = (1000 * value, "ms")
        info[f"tail.{g}"] = {"percentile": pct, "samples": len(lat[g]), "beyond": beyond,
                             "busy_s": busy[g]}
    e2e["answered_share"] = (1 - st["unit_failures"] / st["units"], "share")
    e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    if tracer:
        metrics = tracer.metrics({g: len(lat[g]) for g in GROUPS})
        metrics["qe.dnf_branches"] = (statistics.median(branches.elements()), "count")
        for g in GROUPS:
            for name in (f"ops_per_s.{g}", f"p50_ms.{g}", f"tail_ms.{g}"):
                metrics["traced." + name] = e2e[name]
        info["laurent-q operand length"] = tracer.unit_len_distribution("laurent-q")
        info["padic operand length"] = tracer.unit_len_distribution("padic")
        info["repeat share"] = {
            "field_roots": metrics["hensel.repeat_share"][0],
            "exact_cells": metrics["regions.repeat_share"][0],
        }
    else:
        metrics = e2e
    info["dnf_branches"] = {str(k): v for k, v in sorted(branches.items())}
    info["setup_samples_s"] = setup
    info["ops by template: [count, mean ms]"] = {
        label: [n, round(1000 * s / n, 3)] for label, (n, s) in sorted(by_label.items())}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "commit": commit_of(ROOT), "ops": st["ops"], "wrong": wrong[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        tracer.write_spans(OUT / f"{args.workload}-spans.jsonl")

    print(f"# hqe bench {args.workload} seed {args.seed} trace {args.trace}: python {record['python']}, "
          f"nproc {record['nproc']}, commit {record['commit']}")
    for key, val in info.items():
        print(f"# {key}: {json.dumps(val)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    for msg in wrong[:20]:
        print(f"WRONG {msg}")
    result = {
        "correct": not wrong,
        "attempted": st["ops"],
        "failed": st["op_failures"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
