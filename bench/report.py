#!/usr/bin/env python3
"""Run every hqe benchmark workload untraced and traced, and print all
metrics by name with their units.

    python3 bench/report.py [--seed 1]

Each run is a fresh interpreter (bench/run.py) measuring run_seconds of
BENCHMARK.json.  For every workload this prints the end-to-end metrics of
the untraced run next to the traced run's figures and the tracing overhead
(traced minus untraced), then the per-layer metrics of the traced run, then
the input properties a later claim may cite: the tail percentile and sample
count, the repeat share of field_roots and exact_cells inputs, the DNF
branch distribution and the operand-length distribution.  Exits non-zero
if any run fails or answers wrongly.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("roots", "decompose", "decide")


def run(workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stdout + proc.stderr, file=sys.stderr)
        raise SystemExit(f"{workload} (trace {trace}) exited with {proc.returncode}")
    result = json.loads(lines[-1])
    record = json.loads((ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for workload in WORKLOADS:
        plain, rec = run(workload, args.seed, seconds, 0)
        traced, trec = run(workload, args.seed, seconds, 1)
        print(f"== {workload}: seed {args.seed}, {seconds} s, python {rec['python']}, "
              f"nproc {rec['nproc']}, commit {rec['commit']}")
        print(f"   {plain['attempted']} ops untraced ({plain['failed']} failed), "
              f"{traced['attempted']} traced ({traced['failed']} failed)")
        print(f"   {'end-to-end metric':30s} {'untraced':>12s} {'traced':>12s} {'overhead':>12s} unit")
        tm = traced["metrics"]
        for name, m in plain["metrics"].items():
            t = tm.get("traced." + name)
            if t is None:
                print(f"   {name:30s} {m['value']:12.6g} {'':>12s} {'':>12s} {m['unit']}")
            else:
                print(f"   {name:30s} {m['value']:12.6g} {t['value']:12.6g} "
                      f"{t['value'] - m['value']:+12.6g} {m['unit']}")
        print(f"   {'per-layer metric (traced run)':30s}")
        for name, m in tm.items():
            if not name.startswith("traced."):
                print(f"   {name:30s} {m['value']:12.6g} {m['unit']}")
        print("   input properties:")
        shown = {**rec["info"], **{k: v for k, v in trec["info"].items() if k not in rec["info"]}}
        for key, val in shown.items():
            if key != "setup_samples_s":
                print(f"     {key}: {json.dumps(val)}")
        if not (plain["correct"] and traced["correct"]):
            raise SystemExit(f"{workload}: wrong answers, see .bench_out/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
