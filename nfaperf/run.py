#!/usr/bin/env python3
"""Run one benchmark workload against nfacomp and print its metrics.

    python3 nfaperf/run.py --workload powerset --seed 1 --seconds 20 --trace 0

Run from the repository root (any directory that holds ``src/nfacomp`` next
to this script's directory).  Every operation is one in-process call of
``nfacomp.cli.main`` on files; times are calibrated (see timing.py).  With
``--trace 0`` the last line of standard output is the JSON result with the
end-to-end metrics; with ``--trace 1`` untraced and traced rounds alternate
and the result holds the per-layer metrics instead.  Outputs are checked by
the benchmark's own code, which imports nothing from nfacomp.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import automata
import tracing
import workloads
from timing import timed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".nfaperf"
SETUP_REPEATS = 7
MIN_ROUNDS = 3


def fresh_import():
    """Import nfacomp.cli from src/ as if for the first time."""
    for name in [n for n in sys.modules if n == "nfacomp" or n.startswith("nfacomp.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return importlib.import_module("nfacomp.cli")


def setup(files: dict[str, str]):
    """One set-up: a fresh import of nfacomp.cli plus writing the input files."""
    cli = fresh_import()
    for path, text in files.items():
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return cli


class Runner:
    """Runs operations, checks their outputs and keeps the per-operation figures."""

    def __init__(self, cli, wl):
        self.cli = cli
        self.ops = wl.ops
        # op name -> hash of its last checked output; a hash, not the text, so that
        # the check keeps no output alive (peak_rss_mb), and hash() rather than
        # hashlib, whose OpenSSL library alone would add about 3.5 MB to it.
        self.verified: dict[str, int] = {}
        self.sizes: dict[str, tuple[int, int, int]] = {}
        self.times = {op.name: [] for op in self.ops}
        self.raw = {op.name: [] for op in self.ops}
        self.attempted = self.failed = 0
        self.errors: list[str] = []  # wrong outputs
        self.unexpected: list[str] = []  # non-zero exits no known fault explains

    def run(self, op, record: bool):
        """Run op once; returns (calibrated s, calibrated / raw)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc, cal, raw = timed(lambda: self.cli.main(op.argv))
        self.attempted += 1
        if record:
            self.times[op.name].append(cal)
            self.raw[op.name].append(raw)
        r = workloads.Result(rc, out.getvalue(), err.getvalue())
        if op.writes and rc == 0:
            with open(op.argv[op.argv.index("-o") + 1], encoding="utf-8") as fh:
                r.output = fh.read()
            with open(op.argv[op.argv.index("--stats") + 1], encoding="utf-8") as fh:
                r.stats = json.load(fh)
        self._judge(op, r)
        return cal, (cal / raw if raw > 0 else 1.0)

    def _judge(self, op, r):
        if r.rc != 0:
            self.failed += 1
            if not (op.fault and op.fault in r.stderr):
                self.unexpected.append(f"{op.name}: unexpected exit {r.rc}: {r.stderr.strip()}")
            return
        key = hash((r.stdout, r.output))
        if self.verified.get(op.name) == key:
            return
        if r.output is not None:
            try:
                r.out_aut = automata.read(r.output)
            except ValueError as e:
                self.errors.append(f"{op.name}: unreadable output: {e}")
                return
        problem = op.check(r)
        if problem:
            self.errors.append(f"{op.name}: {problem}")
            return
        self.verified[op.name] = key
        if r.out_aut is not None:
            reports = r.stats["reports"] if "reports" in r.stats else [r.stats]
            pre = sum(rep["output_states_pre_trim"] for rep in reports)
            self.sizes[op.name] = (r.out_aut.n, r.out_aut.num_transitions, pre)


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def timing_metrics(times: dict[str, list[float]], setups: list[float]) -> dict:
    med = [statistics.median(v) for v in times.values() if v]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "round_s": (sum(med), "s"),
        "op_ms_geomean": (geomean(med) * 1000, "ms"),
    }


def end_to_end(runner: Runner, setups: list[float]) -> dict:
    sizes = runner.sizes.values()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        **timing_metrics(runner.times, setups),
        "output_states": (sum(s[0] for s in sizes), "states"),
        "output_transitions": (sum(s[1] for s in sizes), "transitions"),
        "pre_trim_states": (sum(s[2] for s in sizes), "states"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def per_layer(spec: list[dict], self_ms: dict, counts: dict,
              round_pairs: list[tuple[float, float]]) -> dict:
    """The metrics of BENCHMARK.json's ``per_layer``: per-round means of the traced
    rounds (``_ms`` names are self times, the others counts), the two ratios and
    the trace figures; the overhead compares round medians."""
    rounds = len(round_pairs)
    seq_built = counts.get("sequential.candidate_states", 0)
    gate_built = counts.get("gate.states_built", 0)
    untraced_s = statistics.median(u for u, _ in round_pairs)
    derived = {
        "sequential.useful_ratio": counts.get("sequential.winner_states", 0) / seq_built if seq_built else 0.0,
        "gate.useful_ratio": counts.get("gate.states_kept", 0) / gate_built if gate_built else 0.0,
        "trace.accounted_pct": 100 * sum(self_ms.values()) / 1000 / sum(t for _, t in round_pairs),
        "trace.overhead_pct": 100 * (statistics.median(t for _, t in round_pairs) / untraced_s - 1),
    }
    out = {}
    for m in spec:
        name = m["name"]
        if name in derived:
            value = derived[name]
        elif name.endswith("_ms"):
            value = self_ms.get(name[:-3], 0.0) / rounds
        else:
            value = counts.get(name, 0.0) / rounds
        out[name] = (value, m["unit"])
    return out


def traced_round(runner: Runner, tracer: tracing.Tracer, self_ms: dict, counts: dict) -> float:
    """One round with the tracer installed; adds calibrated self ms and counts, returns its time."""
    tracer.install()
    total = 0.0
    try:
        for op in runner.ops:
            t, scale = runner.run(op, record=False)
            total += t
            spans, cnt = tracer.take()
            for label, s in spans.items():
                self_ms[label] = self_ms.get(label, 0.0) + s * scale * 1000
            for name, c in cnt.items():
                counts[name] = counts.get(name, 0.0) + c
    finally:
        tracer.uninstall()
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.BUILDERS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "nfacomp" / "cli.py").is_file():
        print(f"error: no nfacomp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl = workloads.build(args.workload, args.seed, str(WORK / args.workload))
    os.makedirs(WORK / args.workload / "out", exist_ok=True)
    setups, raw_setups = [], []
    for k in range(SETUP_REPEATS + 1):  # the first set-up is a warm-up
        cli, cal, raw_s = timed(lambda: setup(wl.files))
        if k:
            setups.append(cal)
            raw_setups.append(raw_s)
    backend = sys.modules["nfacomp._kernels"].backend_name()
    print(f"# workload={args.workload} seed={args.seed} backend={backend} "
          f"python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} ops={len(wl.ops)}")
    print("# inputs: " + "; ".join(wl.notes))

    runner = Runner(cli, wl)
    for op in wl.ops:  # warm-up round: untimed, checks every output
        runner.run(op, record=False)

    tracer = tracing.Tracer() if args.trace else None
    self_ms: dict[str, float] = {}
    counts: dict[str, float] = {}
    round_pairs = []
    rounds = 0
    start = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        if tracer is None:
            for op in wl.ops:
                runner.run(op, record=True)
        else:
            untraced = sum(runner.run(op, record=False)[0] for op in wl.ops)
            round_pairs.append((untraced, traced_round(runner, tracer, self_ms, counts)))
        rounds += 1

    if tracer is None:
        metrics = end_to_end(runner, setups)
    else:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        metrics = per_layer(spec["per_layer"], self_ms, counts, round_pairs)
        untraced_s = statistics.median(u for u, _ in round_pairs)
        traced_s = statistics.median(t for _, t in round_pairs)
        print(f"# untraced round_s={untraced_s:.4f} traced round_s={traced_s:.4f} "
              f"overhead={metrics['trace.overhead_pct'][0]:.1f}% "
              f"self times account for {metrics['trace.accounted_pct'][0]:.1f}% of the traced round")
        for label in sorted(self_ms, key=self_ms.get, reverse=True):
            print(f"#   {label:32s} {self_ms[label] / rounds:10.3f} ms/round")
    for msg in runner.errors[:20]:
        print(f"CHECK FAILED {msg}", file=sys.stderr)
    for msg in runner.unexpected[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"# rounds={rounds}")
    if tracer is None:
        raw = {name: v for name, (v, _) in timing_metrics(runner.raw, raw_setups).items()}
        print("# raw " + json.dumps(raw))
    result = {
        "correct": not (runner.errors or runner.unexpected),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
