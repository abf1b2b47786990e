#!/usr/bin/env python3
"""Alternated benchmark pairs of two checkouts, written to one BENCH_<label>.json.

    python3 scripts/bench_pairs.py PARENT CHANGE --label one_pass \\
        --workload powerset --seed 71 --seconds 25 --pairs 10
    python3 scripts/bench_pairs.py PARENT CHANGE --label one_pass \\
        --workload powerset --seed 11 --seconds 25 --trace

Each pair runs ``python3 nfaperf/run.py`` once in each checkout, from that
checkout's own directory; even pairs run the parent first, odd pairs the
change.  The file keeps every raw result line and each pair's uncalibrated
``round_s`` (from the run's ``# raw`` header line), and per end-to-end metric,
and for the uncalibrated ``raw_round_s``, each side's median and quartiles
and the number of pairs in which the change is lower; for ``round_s`` also
the difference of the medians against the parent's interquartile spread.
With ``--trace`` one ``--trace 1`` run per side is kept instead, with its
per-layer split.  Runs of further workloads
are merged into the same file, keyed by workload; fields the script does
not write (such as a ``what`` or ``claim`` text) are kept.  Quartiles are
``statistics.quantiles(..., method="inclusive")``.

The script reads only what the runs print: it imports nothing from the
benchmark or from the program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: bool):
    """One run in ``checkout``: its '#' header lines and its result line."""
    argv = [sys.executable, "nfaperf/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: {' '.join(argv[1:])} exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return [line for line in lines if line.startswith("#")], lines[-1]


def quartiles(values):
    if len(values) < 2:
        return [round(values[0], 5)] * 3
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(med, 5), round(q1, 5), round(q3, 5)]


def raw_round_s(header):
    """The uncalibrated ``round_s`` of a run's ``# raw {...}`` header line."""
    return next(json.loads(line[len("# raw "):])["round_s"] for line in header if line.startswith("# raw "))


def compare(per_side):
    lower = sum(c < p for p, c in zip(per_side["parent"], per_side["change"]))
    return {
        "parent_median_q1_q3": quartiles(per_side["parent"]),
        "change_median_q1_q3": quartiles(per_side["change"]),
        "change_lower_in": f"{lower}/{len(per_side['parent'])}",
    }


def summarize(pairs):
    results = [{side: json.loads(p[side]) for side in SIDES} for p in pairs]
    summary = {}
    for name in results[0]["parent"]["metrics"]:
        summary[name] = compare({side: [r[side]["metrics"][name]["value"] for r in results] for side in SIDES})
    summary["raw_round_s"] = compare({side: [p["raw_round_s"][side] for p in pairs] for side in SIDES})
    summary["correct"] = [[r[side]["correct"] for side in SIDES] for r in results]
    summary["failed"] = [[r[side]["failed"] for side in SIDES] for r in results]
    parent, change = summary["round_s"]["parent_median_q1_q3"], summary["round_s"]["change_median_q1_q3"]
    claim = {
        "metric": "round_s",
        "change_lower_in": summary["round_s"]["change_lower_in"],
        "median_difference_s": round(parent[0] - change[0], 5),
        "parent_iqr_s": round(parent[2] - parent[1], 5),
    }
    return summary, claim


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--label", required=True, help="the file written is BENCH_<label>.json")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--pairs", type=positive_int, default=10)
    ap.add_argument("--trace", action="store_true", help="one traced run per side instead of timed pairs")
    ap.add_argument("--out-dir", type=Path, default=Path("."))
    args = ap.parse_args(argv)
    if not args.out_dir.is_dir():
        ap.error(f"--out-dir {args.out_dir}: not an existing directory")

    path = args.out_dir / f"BENCH_{args.label}.json"
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc["command"] = ("python3 nfaperf/run.py --workload <w> --seed <s> --seconds <t> [--trace 1], "
                      "run from each side's own checkout by scripts/bench_pairs.py")
    doc["order"] = "pairs alternate which side runs first: even pairs parent first, odd pairs change first"
    checkouts = {"parent": args.parent, "change": args.change}
    run = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}

    if args.trace:
        entry, headers = dict(run), {}
        for side in SIDES:
            header, line = run_once(checkouts[side], args.workload, args.seed, args.seconds, True)
            headers[side] = header
            result = json.loads(line)
            entry[side] = {
                "header": header,
                "correct": result["correct"],
                "failed": result["failed"],
                "per_layer": {k: round(v["value"], 3) for k, v in result["metrics"].items()},
            }
        doc[f"traced_{args.workload}"] = entry
    else:
        headers, pairs = {}, []
        for k in range(args.pairs):
            pair = {"pair": k, "first": SIDES[k % 2]}
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                headers[side], pair[side] = run_once(checkouts[side], args.workload, args.seed,
                                                     args.seconds, False)
            pair["raw_round_s"] = {side: raw_round_s(headers[side]) for side in SIDES}
            pairs.append(pair)
            print(f"{args.workload} pair {k}: done", file=sys.stderr)
        summary, claim = summarize(pairs)
        doc.setdefault("workloads", {})[args.workload] = {
            **run, "header": headers, "pairs": pairs, "summary": summary, "claim_check": claim}
    doc["machine"] = {
        "cpu": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "backend": next(iter(headers.values()))[0].partition("backend=")[2].split()[0],
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
