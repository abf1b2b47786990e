"""The three workloads: their inputs, their operations and how each output is checked.

Every operation is one ``nfacomp`` command line.  ``build`` generates the
inputs from the seed and returns the files to write plus the operations;
each operation carries a check that judges the program's output against an
independent computation (closed-form membership for the families, subset
simulation of the generated automaton otherwise), never against an earlier
output of the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import automata
import inputs
from automata import Aut, SubsetLanguage, WordLanguage

# Macrostate / composite-state budget of every structured operation: large
# enough that some strategy always finishes, small enough that a strategy
# that runs away costs a bounded share of a round.
STRUCTURED_BUDGET = 4096
ORACLE_MAX_LEN = 12
# Words checked exhaustively, by alphabet size; longer seeded words follow.
EXHAUSTIVE_LEN = {2: 10, 3: 7}
LONG_WORDS = 48
MINIMIZE_FAULT = "hopcroft_minimize needs a deterministic, complete automaton"


@dataclass
class Result:
    rc: int
    stdout: str
    stderr: str
    output: str | None = None
    stats: dict | None = None
    out_aut: Aut | None = None


@dataclass
class Op:
    name: str
    argv: list[str]
    # Judges an operation that exited 0; a non-zero exit counts as failed.
    check: Callable[[Result], str | None]
    # Error text of a known fault: a failure that shows it is expected, any
    # other failure makes the run incorrect.
    fault: str | None = None
    writes: bool = False


@dataclass
class Workload:
    files: dict[str, str]
    ops: list[Op]
    notes: list[str]


class _Builder:
    def __init__(self, workload: str, seed: int, work: str):
        self.seed = f"{workload}:{seed}"
        self.rng = random.Random(self.seed)
        self.work = work
        self.files: dict[str, str] = {}
        self.ops: list[Op] = []
        self.notes: list[str] = []

    def path(self, name: str) -> str:
        return f"{self.work}/{name}"

    def add_input(self, name: str, a: Aut, lang=None) -> tuple[str, Aut, object]:
        self.files[self.path(f"in/{name}.nfa")] = automata.write(a, name)
        return self.path(f"in/{name}.nfa"), a, lang or SubsetLanguage(a)

    def complement(self, tag: str, src, method: str, extra=(), fault=None, **expect):
        path, a, lang = src
        name = f"{tag}.{method}" + "".join(x[1:] for x in extra if x in ("--minimize", "--reduce"))
        out = self.path(f"out/{name}.nfa")
        argv = ["complement", "-m", method, "-i", path, "-o", out,
                "--stats", self.path(f"out/{name}.json"), *extra]
        check = _complement_check(a, lang, random.Random(f"{self.seed}:{name}"), **expect)
        self.ops.append(Op(name, argv, check, fault, writes=True))
        return out

    def relation(self, relation: str, a_path: str, b_path: str, tag: str):
        argv = ["check", "--relation", relation, "-a", a_path, "-b", b_path]
        want = f"{relation}: true"
        self.ops.append(Op(f"{tag}.check-{relation}", argv, _stdout_check(want)))

    def oracle(self, src, c_path: str, tag: str):
        path, a, _ = src
        words = sum(len(a.alphabet) ** k for k in range(ORACLE_MAX_LEN + 1))
        argv = ["oracle", "-a", path, "-c", c_path, "--max-len", str(ORACLE_MAX_LEN)]
        self.ops.append(Op(f"{tag}.oracle", argv, _stdout_check(f"OK ({words} words)")))


def _stdout_check(want: str):
    def check(r: Result):
        if r.stdout.strip() != want:
            return f"expected {want!r}, got {r.stdout.strip()!r}"
        return None
    return check


def _complement_check(a: Aut, lang, rng: random.Random, *, shape=None, max_states=None,
                      minimal=False):
    """Check one complement output; see the README for what each part asserts.

    The seeded long words and the minimal DFA size are computed when a check
    runs, so that set-up holds no checking work.
    """
    nsyms = len(a.alphabet)
    words: list = []

    def check(r: Result):
        c = r.out_aut
        if c.alphabet != a.alphabet or (len(c.entries), len(c.exits)) != (len(a.entries), len(a.exits)):
            return "alphabet or port arity differs from the input"
        if not words:
            words.extend(inputs.random_words(rng, nsyms, LONG_WORDS, EXHAUSTIVE_LEN[nsyms] + 1, 60))
        bad = automata.complement_counterexample(lang, c, nsyms, EXHAUSTIVE_LEN[nsyms], words)
        if bad is not None:
            (i, j), w = bad
            word = "".join(a.alphabet[s] for s in w)
            return f"slice ({i},{j}) does not complement the input on {word!r}"
        want = shape
        if shape == "auto":
            want = "det" if r.stats["heuristic_scores"]["chosen"] == "forward" else "revdet"
        if want == "det" and not automata.is_deterministic(c):
            return "forward output is not deterministic"
        if want == "revdet" and not automata.is_reverse_deterministic(c):
            return "reverse output is not reverse-deterministic"
        if max_states is not None and c.n > max_states:
            return f"{c.n} states, above the family bound {max_states}"
        if minimal:
            k, has_dead = automata.minimal_dfa_size(a)
            if c.n not in (k, k - has_dead):
                return f"--minimize gave {c.n} states, the minimal DFA has {k} (dead class: {has_dead})"
        return None
    return check


def _plain_methods(b: _Builder, tag: str, src):
    for method, shape in (("forward", "det"), ("reverse", "revdet"), ("auto", "auto")):
        b.complement(tag, src, method, shape=shape)


def _powerset(b: _Builder):
    for n in (6, 9, 11, 12):
        src = b.add_input(f"rev{n}", inputs.reverse_friendly(n),
                          WordLanguage(inputs.reverse_friendly_member(n)))
        _plain_methods(b, f"rev{n}", src)
    for k in range(10):
        n = 8 + round(32 * k / 9)
        a = inputs.banded(b.rng, lambda rng: inputs.random_nfa(rng, n, 2.0), n * n / 5 + n)
        _plain_methods(b, f"rnd{k}", b.add_input(f"rnd{k}", a))
    for k in range(4):
        n = 8 + 4 * k
        a = inputs.banded(b.rng, lambda rng: inputs.random_port_nfa(rng, n, 2.0), n * n / 3)
        src = b.add_input(f"port{k}", a)
        for m, shape in (("forward", "det"), ("reverse", "revdet")):
            b.complement(f"port{k}", src, m, shape=shape)
    b.notes.append("rev n=6,9,11,12 x forward/reverse/auto; 10 random NFAs of 8-40 states "
                   "(about n*n/5+n macrostates) x forward/reverse/auto; 4 random port NFAs of "
                   "8-20 states (about n*n/3 macrostates) x forward/reverse")


def _structured(b: _Builder):
    budget = ("--budget", str(STRUCTURED_BUDGET))
    for n in (4, 8, 10, 12):
        seq = b.add_input(f"seq{n}", inputs.sequential_chain(n),
                          WordLanguage(inputs.sequential_chain_member(n)))
        b.complement(f"seq{n}", seq, "sequential", budget, max_states=2 * n + 4)
        gate = b.add_input(f"gate{n}", inputs.gate_chain(n), WordLanguage(inputs.gate_chain_member(n)))
        b.complement(f"gate{n}", gate, "gate", budget, max_states=2 * n + 7)
        if n == 4:
            # The budget cuts the det and mincut strategies.
            b.complement(f"gate{n}", gate, "sequential", budget)
            b.complement(f"gate{n}", gate, "portfolio", budget)
        if n == 12:
            # Forward and reverse overrun the budget and gate finds no
            # partition: portfolio keeps only sequential.
            b.complement(f"seq{n}", seq, "portfolio", budget)
    for k in range(12):
        a = inputs.banded(b.rng, lambda rng: inputs.random_gate_joined(rng, 4 + k % 2, 5, 1.5),
                          8, inputs.minimal_size, 1.15)
        src = b.add_input(f"joined{k}", a)
        for m in ("sequential", "gate", "portfolio"):
            b.complement(f"joined{k}", src, m, budget)
    b.notes.append("seq/gate family n=4,8,10,12 x sequential/gate, plus gate n=4 x "
                   "sequential/portfolio and seq n=12 x portfolio; 12 random gate-joined NFAs "
                   "of 9-10 states (minimal DFA of 7-9 states) x sequential/gate/portfolio; "
                   f"--budget {STRUCTURED_BUDGET}")


def _postpass(b: _Builder):
    for n in (5, 6, 7):
        src = b.add_input(f"rev{n}", inputs.reverse_friendly(n),
                          WordLanguage(inputs.reverse_friendly_member(n)))
        fwd = b.complement(f"rev{n}", src, "forward", ("--minimize",), shape="det", minimal=True)
        if n == 7:
            rev = b.complement(f"rev{n}", src, "reverse", shape="revdet")
            b.relation("equiv", fwd, rev, f"rev{n}")
            b.relation("incl", rev, fwd, f"rev{n}")
            b.relation("disjoint", src[0], fwd, f"rev{n}")
            b.oracle(src, fwd, f"rev{n}")
        else:
            b.complement(f"rev{n}", src, "forward", ("--reduce",))
    for k in range(4):
        n = 7 + k
        src = b.add_input(f"kill{k}", inputs.banded(
            b.rng, lambda rng: inputs.random_killable(rng, n, 1.5), 1.7 * n - 3, inputs.minimal_size, 1.15))
        fwd = b.complement(f"kill{k}", src, "forward", ("--minimize",), shape="det", minimal=True)
        red = b.complement(f"kill{k}", src, "reverse", ("--reduce",))
        b.relation("equiv", fwd, red, f"kill{k}")
        b.relation("disjoint", src[0], red, f"kill{k}")
        b.oracle(src, fwd, f"kill{k}")
    for name, a in inputs.universal_suffix_inputs():
        src = b.add_input(name, a)
        b.complement(name, src, "forward", ("--minimize",), shape="det", minimal=True,
                     fault=MINIMIZE_FAULT)
    b.notes.append("rev n=5,6,7 forward --minimize, n=5,6 forward --reduce, n=7 reverse, check "
                   "equiv/incl/disjoint and oracle; 4 random NFAs of 7-10 states with a killing "
                   "word (minimal DFA of about 1.7n-3 states) x forward --minimize, reverse "
                   "--reduce, check equiv/disjoint and oracle; 3 fixed inputs that hit the "
                   "--minimize fault")


BUILDERS = {"powerset": _powerset, "structured": _structured, "postpass": _postpass}


def build(workload: str, seed: int, work: str) -> Workload:
    b = _Builder(workload, seed, work)
    BUILDERS[workload](b)
    return Workload(b.files, b.ops, b.notes)

