"""Command-line front end.

Subcommands: ``complement`` (one of six methods, optional post-passes, an
exact check of the output and a JSON stats report), ``generate`` (witness
families), ``check`` (antichain language relations), ``oracle`` (complement
check over every word up to a length), and ``stats`` (basic facts about one
automaton file).  Automata are read from ``-i``/``-a``/... files or stdin,
and written to ``-o`` or stdout.

Exit codes: 0 success, 1 failed check/relation or unusable request, 2 parse
error or bad command line, 3 no usable gate partition, 4 budget exhausted.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import sys
import time

from . import core, gate, heuristic, powerset, reduction, sequential
from .core import Nfa, PortNfa
from .errors import BudgetExceededError, CutError, NfacompError, NoGatePartitionError, ParseError
from .families import FAMILY_KINDS, generate_family
from .fileformat import parse, serialize
from .oracle import exact_complement_check, oracle_complement_check
from .powerset import Direction
from .report import ComplementReport
from .sequential import PartitionStrategy

DEFAULT_MACRO_BUDGET = 10**6
DEFAULT_ANTICHAIN_BUDGET = 10**7

METHODS = ("forward", "reverse", "auto", "sequential", "gate", "portfolio")
PORTFOLIO_ORDER = ("forward", "reverse", "sequential", "gate")  # the tie order
# Gate first, whose output is no trimmed exploration and so has no bar,
# then sequential; the powerset directions are most often cut.
PORTFOLIO_RUN_ORDER = ("gate", "sequential", "forward", "reverse")


def _read_automaton(path: str | None):
    if path is None:  # bytes, so that parse alone decides what is valid UTF-8
        return parse(sys.stdin.buffer.read())
    with open(path, "rb") as fh:
        return parse(fh.read())


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# complement

def _run_auto(a, budget):
    choice = heuristic.choose_direction(a)
    out, pre = powerset._complement(a, choice.choice, budget)
    return out, pre, {
        "heuristic_scores": {
            "chosen": choice.choice.value,
            "forward": choice.score_forward,
            "reverse": choice.score_reverse,
        }
    }


def _run_sequential(a, budget, strategy: str, rear: str, bar=None):
    rear_method = Direction(rear)
    stats: dict = {}
    if strategy == "all":
        out, chosen = sequential.seq_pipeline_best(a, rear_method, budget=budget, stats=stats, bar=bar)
        stats["strategy"] = chosen.value
    else:
        out = sequential.seq_pipeline(a, PartitionStrategy(strategy), rear_method, budget=budget, stats=stats)
    pre = stats.pop("pre_trim", out.num_states)
    return out, pre, {"partition_summary": stats}


def _run_gate(a, budget):
    stats: dict = {}
    out = gate.gate_complement_auto(a, budget=budget, check_budget=DEFAULT_ANTICHAIN_BUDGET, stats=stats)
    return out, out.num_states, {"partition_summary": stats}


def _run_method(method: str, a, budget, strategy: str, rear: str, bar=None):
    """Returns (output automaton, pre-trim size, report extras).  A ``bar``
    (portfolio's, for the powerset and sequential methods) raises
    ``CutError`` once the output cannot stay below it."""
    if isinstance(a, PortNfa) and method not in ("forward", "reverse"):
        raise NfacompError(f"method {method!r} works on plain @NFA inputs only")
    if method in ("forward", "reverse"):
        out, pre = powerset._complement(a, Direction(method), budget, bar)
        return out, pre, {}
    if method == "auto":
        return _run_auto(a, budget)
    if method == "sequential":
        return _run_sequential(a, budget, strategy, rear, bar)
    return _run_gate(a, budget)


def _minimize(a: Nfa, stats: dict | None = None) -> Nfa:
    """Hopcroft-minimize a DFA output that trimming may have left partial,
    and trim, which drops a dead class (the quotient of a trim output is
    returned at once).  An empty DFA (the complement of a universal
    language) and a minimal one by construction are kept.  With ``stats``
    the route is recorded under ``"minimize"``: ``construction`` or
    ``hopcroft``."""
    kept = a.num_states == 0 or a._minimal
    if stats is not None:
        stats["minimize"] = "construction" if kept else "hopcroft"
    return a if kept else core.trim(reduction.hopcroft_minimize(a))


def _report(method, a, out, pre, extras, elapsed_ms) -> ComplementReport:
    return ComplementReport(
        method=method,
        input_states=a.num_states,
        output_states_pre_trim=pre,
        output_states=out.num_states,
        transitions=out.num_transitions,
        wall_time_ms=round(elapsed_ms, 3),
        partition_summary=extras.get("partition_summary"),
        heuristic_scores=extras.get("heuristic_scores"),
    )


def _verify(a, out, budget) -> dict:
    """Exactly check every port slice of ``out`` against the same slice of ``a``.

    Each slice may reach at most ``budget`` pairs; a slice that runs out is
    left unsettled, so the verdict is ``budget``.  A wrong slice raises.  A
    deterministic slice, such as a forward complement's, is walked one state
    at a time (``oracle._first_agreement``), so its size costs nothing per pair.
    """
    start = time.perf_counter()
    pairs = 0
    verdict = "exact"
    for i in range(a.num_entry):
        for j in range(a.num_exit):
            v = exact_complement_check(a.slice(i, j), out.slice(i, j), budget)
            if v.ok is False:
                raise NfacompError(
                    f'--verify: slice ({i}, {j}) is not the complement, '
                    f'first counterexample "{v.counterexample}"'
                )
            pairs += v.pairs
            if v.ok is None:
                verdict = "budget"
    ms = (time.perf_counter() - start) * 1000.0
    return {"verdict": verdict, "ms": round(ms, 3), "pairs": pairs}


def _skip_outcome(exc: NfacompError) -> str:
    """Why portfolio skipped a method, as its stats report names it."""
    if isinstance(exc, BudgetExceededError):
        return "budget"
    if isinstance(exc, NoGatePartitionError):
        return "no_partition"
    if isinstance(exc, CutError):
        return "cut"
    return "unsupported"


def _cmd_complement(args) -> int:
    a = _read_automaton(args.input)
    budget = args.budget

    if args.method == "portfolio":
        # Each method is cut once it cannot beat the methods finished before it.
        rank = PORTFOLIO_ORDER.index
        finished = {}  # method -> (output, report)
        skipped = {}
        for method in PORTFOLIO_RUN_ORDER:
            bar = powerset._bar((c.num_states, rank(method) < rank(m)) for m, (c, _r) in finished.items())
            start = time.perf_counter()
            try:
                out, pre, extras = _run_method(method, a, budget, "all", args.rear, bar)
            except NfacompError as exc:
                skipped[method] = {"method": method, "outcome": _skip_outcome(exc)}
                continue
            elapsed = (time.perf_counter() - start) * 1000.0
            finished[method] = (out, _report(method, a, out, pre, extras, elapsed))
        if not finished:
            raise BudgetExceededError("no portfolio method finished within budget")
        selected = min(finished, key=lambda m: (finished[m][0].num_states, rank(m)))
        out = finished[selected][0]
        stats_doc: object = {
            "method": "portfolio",
            "selected": selected,
            "reports": [finished[m][1].as_dict() for m in PORTFOLIO_ORDER if m in finished],
            "skipped": [skipped[m] for m in PORTFOLIO_ORDER if m in skipped],
        }
    else:
        start = time.perf_counter()
        out, pre, extras = _run_method(args.method, a, budget, args.strategy, args.rear)
        elapsed = (time.perf_counter() - start) * 1000.0
        stats_doc = _report(args.method, a, out, pre, extras, elapsed).as_dict()

    postpass: dict = {}  # how each post-pass ran
    if args.minimize:
        if isinstance(out, PortNfa):
            raise NfacompError("--minimize applies to plain automata only")
        out = _minimize(out, postpass)
    if args.reduce:
        if isinstance(out, PortNfa):
            out = reduction.simulation_reduce_port(out, stats=postpass)
        else:
            out = reduction.simulation_reduce(out, stats=postpass)
    if postpass:
        stats_doc["postpass"] = postpass

    if args.verify:
        stats_doc["verify"] = _verify(a, out, budget)

    if out.name is None and a.name is not None:
        out = core._view(out, name=f"{a.name}_complement")
    _write_text(args.output, serialize(out))
    if args.stats is not None:
        _write_text(args.stats, json.dumps(stats_doc, indent=2, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# the small subcommands

def _cmd_generate(args) -> int:
    try:
        a = generate_family(args.family, args.n)
    except ValueError as e:  # the family has no automaton of that index: a bad command line
        print(f"error: {e}", file=sys.stderr)
        return 2
    _write_text(args.output, serialize(a))
    return 0


def _cmd_check(args) -> int:
    a = _read_automaton(args.a)
    b = _read_automaton(args.b)
    if isinstance(a, PortNfa) or isinstance(b, PortNfa):
        raise NfacompError("check works on plain @NFA inputs only")
    budget = args.budget
    if args.relation == "equiv":
        holds = core.language_equivalent(a, b, budget=budget)
    elif args.relation == "incl":
        holds = core.antichain_inclusion(a, b, budget=budget)
    else:
        holds = core.language_disjoint(a, b)
    print(f"{args.relation}: {'true' if holds else 'false'}")
    return 0 if holds else 1


def _decimal(n: int) -> str:
    """The decimal digits of ``n >= 0``, however many.

    ``str`` of an int refuses more than ``sys.get_int_max_str_digits()`` digits
    (4,300 by default), and the oracle's word count grows as k^max_len; a
    ``Decimal`` made from the int is printed under no such limit.
    """
    return str(decimal.Decimal(n))


def _cmd_oracle(args) -> int:
    a = _read_automaton(args.a)
    c = _read_automaton(args.c)
    if isinstance(a, PortNfa) or isinstance(c, PortNfa):
        raise NfacompError("oracle works on plain @NFA inputs only")
    verdict = oracle_complement_check(a, c, args.max_len)
    if verdict.ok:
        print(f"OK ({_decimal(verdict.words_checked)} words)")
        return 0
    print(f'FAIL: first counterexample "{verdict.counterexample}"')
    return 1


def _cmd_stats(args) -> int:
    a = _read_automaton(args.input)
    doc = {
        "kind": "PortNFA" if isinstance(a, PortNfa) else "NFA",
        "name": a.name,
        "states": a.num_states,
        "transitions": a.num_transitions,
        "alphabet": list(a.alphabet),
        "deterministic": core.is_deterministic(a),
        "complete": core.is_complete(a),
        "reverse_deterministic": core.is_reverse_deterministic(a),
        "scc_count": len(core.scc_condensation(a).components),
    }
    if isinstance(a, PortNfa):
        doc["entry_ports"] = [sorted(s) for s in a.entry_sets]
        doc["exit_ports"] = [sorted(s) for s in a.exit_sets]
    else:
        doc["initial"] = sorted(a.initial)
        doc["final"] = sorted(a.final)
        choice = heuristic.choose_direction(a)
        doc["det_successor_scores"] = {
            "forward": choice.score_forward,
            "reverse": choice.score_reverse,
            "chosen": choice.choice.value,
        }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------

def _nonnegative(text: str) -> int:
    """The argparse type of ``--budget`` and ``--max-len``: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by later calls.

    Parsing keeps no state in the parser: every ``parse_args`` fills a new
    namespace from the defaults of the subcommand it selects.
    """
    top = argparse.ArgumentParser(prog="nfacomp", description="NFA complementation toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("complement", help="complement an automaton file")
    comp.add_argument("-m", "--method", choices=METHODS, required=True)
    comp.add_argument("-i", "--input", metavar="FILE", help="input file (stdin when omitted)")
    comp.add_argument("-o", "--output", metavar="FILE", help="output file (stdout when omitted)")
    comp.add_argument("--stats", metavar="FILE", help="write a JSON run report")
    comp.add_argument("--minimize", action="store_true", help="Hopcroft-minimize the output (DFA outputs only)")
    comp.add_argument("--reduce", action="store_true", help="simulation-reduce the output")
    comp.add_argument("--strategy", choices=("det", "detrev", "mincut", "all"), default="all",
                      help="sequential partitioning strategy (default: all)")
    comp.add_argument("--rear", choices=("forward", "reverse"), default="reverse",
                      help="powerset direction for the rear component (default: reverse)")
    comp.add_argument("--verify", action="store_true",
                      help="exactly check every port slice of the output against the input, "
                           "reaching at most --budget pairs of state sets per slice; exit 1 if one is wrong")
    comp.add_argument("--budget", type=_nonnegative, default=DEFAULT_MACRO_BUDGET,
                      help=f"macrostate budget per powerset call (default {DEFAULT_MACRO_BUDGET})")
    comp.set_defaults(fn=_cmd_complement)

    gen = sub.add_parser("generate", help="emit a witness-family automaton")
    gen.add_argument("-f", "--family", choices=FAMILY_KINDS, required=True)
    gen.add_argument("-n", type=int, required=True, help="family index")
    gen.add_argument("-o", "--output", metavar="FILE", help="output file (stdout when omitted)")
    gen.set_defaults(fn=_cmd_generate)

    chk = sub.add_parser("check", help="decide a language relation between two files")
    chk.add_argument("--relation", choices=("equiv", "incl", "disjoint"), required=True)
    chk.add_argument("-a", required=True, metavar="FILE")
    chk.add_argument("-b", required=True, metavar="FILE")
    chk.add_argument("--budget", type=_nonnegative, default=DEFAULT_ANTICHAIN_BUDGET,
                     help=f"antichain expansion budget of equiv and incl; disjoint ignores it "
                          f"(default {DEFAULT_ANTICHAIN_BUDGET})")
    chk.set_defaults(fn=_cmd_check)

    orc = sub.add_parser(
        "oracle", help="check a claimed complement on every word up to a length, by a search over "
                       "pairs of state sets; print the length-lex least counterexample")
    orc.add_argument("-a", required=True, metavar="FILE", help="original automaton")
    orc.add_argument("-c", required=True, metavar="FILE", help="claimed complement")
    orc.add_argument("--max-len", type=_nonnegative, default=6,
                     help="longest word checked (default 6)")
    orc.set_defaults(fn=_cmd_oracle)

    st = sub.add_parser("stats", help="print basic facts about an automaton file")
    st.add_argument("-i", "--input", metavar="FILE", help="input file (stdin when omitted)")
    st.set_defaults(fn=_cmd_stats)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (NfacompError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        codes = ((ParseError, 2), (NoGatePartitionError, 3), (BudgetExceededError, 4))
        return next((code for cls, code in codes if isinstance(e, cls)), 1)


if __name__ == "__main__":
    sys.exit(main())
