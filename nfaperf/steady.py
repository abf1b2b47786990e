#!/usr/bin/env python3
"""Run one workload N times, one seed each, and report how steady its metrics are.

    python3 nfaperf/steady.py --workload powerset --runs 10

Runs go one after another, each in its own process and as long as
BENCHMARK.json's run_seconds.  For every end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(n=4)``), the spread
(Q3 - Q1) / median and that spread as a share of the metric's bound in
BENCHMARK.json; for the timings, the same figures taken from the raw
wall-clock times stand beside the calibrated ones.  Also prints the share
of failed operations of every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    cal: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    shares = []
    for seed in range(1, args.runs + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: outputs failed their checks\n{proc.stderr}", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            cal.setdefault(name, []).append(m["value"])
        for line in lines:
            if line.startswith("# raw "):
                for name, v in json.loads(line[len("# raw "):]).items():
                    raw.setdefault(name, []).append(v)
        shares.append((result["failed"], result["attempted"]))
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in cal.items()), flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"\nworkload {args.workload}: {args.runs} runs of {seconds} s, seeds 1..{args.runs}")
    print(f"{'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'/bound':>7s}"
          f" | {'raw median':>12s} {'raw spread':>10s}")
    for name, values in cal.items():
        med, q1, q3, sp = spread(values)
        row = f"{name:18s} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:8.4f} {sp / bounds[name]:7.2f}"
        if name in raw:
            rmed, _, _, rsp = spread(raw[name])
            row += f" | {rmed:12.6g} {rsp:10.4f}"
        print(row)
    fractions = {f / a for f, a in shares}
    print(f"failed share: {sorted(fractions)} ({shares[0][0]}/{shares[0][1]} in the first run)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
