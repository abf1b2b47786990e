"""Forward and reverse powerset complementation, for plain and port NFAs.

Every construction is written once against the port view of ``core``; a
plain NFA is the port NFA with one entry set and one exit set.

Macrostates are explored breadth-first from the initial set(s) and interned
in discovery order, so the constructions are byte-for-byte reproducible.
The empty macrostate appears lazily — on the first missing transition — and
acts as the rejecting sink that keeps the result complete.

Each construction explores, then builds once.  The exploration (kernel rows,
subset kernel, accepting macrostates, live marks from reverse sweeps over
its table) builds no automaton; ``_explore_port`` drives it in one
direction, or in both in lockstep, returning the smaller, so only the one
kept is built.  A macrostate's name joins one piece per byte of its mask,
from a table per byte position.
Reverse explores rev(a) over the automaton's cached predecessor table
(``a.pred_masks``) and builds the result reversed back, with no reversed
automaton.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress
from typing import NamedTuple

from . import _kernels, core
from .core import Automaton, Nfa
from .errors import BudgetExceededError, CutError, NfacompError, NoGatePartitionError


class Direction(enum.Enum):
    FORWARD = "forward"
    REVERSE = "reverse"


@dataclass(frozen=True)
class MacrostateDfa:
    """A determinized automaton plus the macrostate -> original-subset back-map.

    ``masks[i]`` is macrostate i as a bitmask of original states;
    ``macrostates`` spells the same sets out as frozensets, built on first use.
    """

    nfa: Automaton
    masks: tuple[int, ...]

    @cached_property
    def macrostates(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(core._bits(m)) for m in self.masks)


class _NamePieces(dict):
    """``",".join`` of the state names in byte ``c`` of a state set, keyed by
    the byte value ``b`` (the states ``8c + i`` with bit ``i`` set), filled on demand."""

    __slots__ = ("a", "base")

    def __init__(self, a, c):
        super().__init__()
        self.a, self.base = a, c << 3

    def __missing__(self, byte):
        piece = self[byte] = ",".join(self.a.state_name(self.base + i) for i in range(8) if byte >> i & 1)
        return piece


def _macro_names(a, macros: list[int]) -> tuple[str, ...]:
    """``{q1,q2,...}`` for each macrostate, its states' names in increasing order.

    A zero byte is dropped by its value, not by its piece: a state may be named ``""``.
    """
    nbytes = (a.num_states + 7) >> 3
    pieces = [_NamePieces(a, c) for c in range(nbytes)]
    return tuple(["{" + ",".join(compress(map(dict.__getitem__, pieces, bs), bs)) + "}"
                  for bs in [m.to_bytes(nbytes, "little") for m in macros]])


def _live(nsyms: int, delta: list[int], exits: list[int]) -> bytearray:
    """1 for each macrostate that reaches one in ``exits`` over the flat ``delta``.

    Sweeps run in reverse discovery order, where most moves lead to a later
    macrostate, so one sweep usually settles them; past four sweeps a search
    over predecessor lists finishes from every macrostate marked so far.
    """
    n = len(delta) // nsyms
    live = bytearray(n)
    for i in exits:
        live[i] = 1
    dead = [i for i in range(n - 1, -1, -1) if not live[i]]
    for _ in range(4):
        for i in dead:
            for j in delta[i * nsyms : (i + 1) * nsyms]:
                if live[j]:
                    live[i] = 1
                    break
        before, dead = len(dead), [i for i in dead if not live[i]]
        if len(dead) == before:
            return live
    preds = [[] for _ in range(n)]
    for k, j in enumerate(delta):
        preds[j].append(k // nsyms)
    marked = [i for i in range(n) if live[i]]
    while marked:
        for i in preds[marked.pop()]:
            if not live[i]:
                live[i] = 1
                marked.append(i)
    return live


class _Exploration(NamedTuple):
    """A powerset exploration: macrostate masks in discovery order, the
    kernel's flat ``delta``, the start macrostate of each start set, the
    accepting macrostates of each accepting set, for a complement the live
    marks, and the symbol id of each position of a ``delta`` row.
    """

    macros: list[int]
    delta: list[int]
    entries: list[int]
    exits: list[list[int]]
    live: bytearray | None
    reverse: bool
    syms: list[int]

    @property
    def size(self) -> int:
        """The number of states the built automaton will have."""
        return len(self.macros) if self.live is None else sum(self.live)


class _Rows(NamedTuple):
    """What a powerset exploration runs on: the kernel's table rows of ``syms``, in
    order, the start and accepting sets' masks, and whether rows give predecessors."""

    nstates: int
    syms: list[int]
    succ: list[int]
    starts: list[int]
    accepting: list[int]
    reverse: bool

    def finish(self, macros: list[int], delta: list[int], complement: bool) -> _Exploration:
        """The exploration whose kernel run gave ``macros`` and ``delta``, with
        live marks for a complement; the kernel interns the distinct start
        masks first, in port order."""
        index: dict[int, int] = {}
        entries = [index.setdefault(m, len(index)) for m in self.starts]
        exits = [[i for i, m in enumerate(macros) if bool(m & em) != complement] for em in self.accepting]
        live = _live(len(self.syms), delta, [i for ids in exits for i in ids]) if complement else None
        return _Exploration(macros, delta, entries, exits, live, self.reverse, self.syms)


def _port_rows(a: Automaton, reverse: bool = False, skip: frozenset[int] = frozenset()) -> _Rows:
    """The rows ``_explore_port`` explores, its guards on ``skip`` checked."""
    n = a.num_states
    if reverse:
        succ, starts, accepting = a.pred_masks, a.exit_sets, a.entry_sets
    else:
        succ, starts, accepting = a.succ_masks, a.entry_sets, a.exit_sets
    syms = [sym for sym in range(len(a.alphabet)) if sym not in skip]
    if skip:
        if not syms:
            raise ValueError("cannot complement over an empty alphabet")
        for sym in sorted(skip):
            if any(succ[sym * n : (sym + 1) * n]):
                raise ValueError(f"component still carries the gate symbol {a.alphabet[sym]!r}")
        succ = [row for sym in syms for row in succ[sym * n : (sym + 1) * n]]
    return _Rows(n, syms, succ, [core._mask_of(s) for s in starts], [core._mask_of(s) for s in accepting], reverse)


_LOCKSTEP_START = 16  # macrostates each raced exploration discovers before the first comparison


def _bar(finished, bar: int | None = None) -> int | None:
    """The size at which a candidate of a best-of choice can no longer win,
    or None.  ``finished`` holds, per finished candidate, its size and whether
    the candidate comes before it in the tie order: it must stay below the
    size, or reach it only when it wins the tie.  ``bar`` is the caller's."""
    sizes = [size + first for size, first in finished]
    if bar is not None:
        sizes.append(bar)
    return min(sizes, default=None)


_OUTCOMES = ((BudgetExceededError, "budget"), (CutError, "cut"), (NoGatePartitionError, "no_partition"))


def _outcome(exc: NfacompError) -> str:
    """The name a best-of choice's stats give the failure of a candidate."""
    return next((name for cls, name in _OUTCOMES if isinstance(exc, cls)), "unsupported")


def _race(candidates, bar: int | None = None) -> tuple:
    """A best-of choice: run each ``(name, rank, run)`` of ``candidates`` in
    turn, taking the next one only once the last has run; ``rank`` is the
    candidate's place in the tie order.  ``run(cut_at)`` returns its result
    and size, or raises an ``NfacompError``, recorded as its failure.
    ``cut_at`` is the ``_bar`` of the candidates finished so far and the
    caller's ``bar``: a candidate may be cut once it cannot win.  The winner
    is the smallest finished by (size, rank).  When one was cut and none
    finished below ``bar``, the smallest is unknown and cannot beat the
    caller's, and ``CutError`` is raised.  Returns the winner's name (None
    when none finished), ``{name: (result, size)}`` of the finished and
    ``{name: error}`` of the failed, each in run order."""
    finished, failed, ranks = {}, {}, {}
    for name, rank, run in candidates:
        ranks[name] = rank
        cut_at = _bar([(size, rank < ranks[m]) for m, (_result, size) in finished.items()], bar)
        try:
            finished[name] = run(cut_at)
        except NfacompError as exc:
            failed[name] = exc
    if any(isinstance(e, CutError) for e in failed.values()) and not any(
            bar is None or size < bar for _result, size in finished.values()):
        raise CutError("cut: no candidate can beat a finished one")
    winner = min(finished, key=lambda m: (finished[m][1], ranks[m]), default=None)
    return winner, finished, failed


def _explore_port(
    a: Automaton,
    budget: int | None,
    complement: bool = False,
    directions: tuple[Direction, ...] = (Direction.FORWARD,),
    skip: frozenset[int] = frozenset(),
    log: list | None = None,
    side: str = "",
    bar: int | None = None,
) -> _Exploration:
    """The exploration of the powerset of ``a`` from each entry set, or
    reversed of rev(a) from each exit set, chosen among ``directions``.  A
    macrostate accepts for an exit set (an entry set when reversed) when it
    meets it, or with ``complement`` when it does not; a complement is
    trimmed, its macrostates marked live or dead.  The symbols in
    ``skip``, which ``a`` must not use, are left out: the kernel gets the
    table rows of the others, in order.

    A complement is a candidate of a best-of choice: its discovered
    macrostates that accept for some accepting set are reachable and
    accepting, so trim keeps them, and their count bounds its size from
    below.  It is cut, and never built, once that count reaches its bar
    (``_bar``): the caller's ``bar``, and among two directions, forward first
    in the tie order, the other's size once it is complete.  Raced
    directions run in lockstep, to the same number of discovered
    macrostates, doubling from ``_LOCKSTEP_START``; the count is compared at
    each step, and also when a direction runs out of budget: one whose
    discovered macrostates reach its bar is cut, as a composition is (cut
    before budget).  One direction without a bar is explored whole.  The smaller
    finished direction is chosen, ties forward; one out of budget is passed
    over.  When none finishes, ``CutError`` is raised if one was cut, else
    ``BudgetExceededError``.  With ``log`` one entry is appended: ``side``,
    each direction's size (or ``"budget"``, or ``"cut"``), the one chosen,
    and the macrostates each ``explored``."""
    rows = [_port_rows(a, d is Direction.REVERSE, skip) for d in directions]
    runs = [_kernels.SubsetExploration(r.nstates, len(r.syms), r.succ, r.starts, budget) for r in rows]
    outcome: list = [None] * len(runs)  # each direction's _Exploration, "budget" or "cut"
    limit = _LOCKSTEP_START if len(runs) > 1 or bar is not None else None
    while True:
        for i, x in enumerate(runs):
            if outcome[i] is None and (status := x.advance(limit)) is not False:
                outcome[i] = rows[i].finish(x.macros, x.delta, complement) if status else "budget"
        for i, x in enumerate(runs):
            if outcome[i] is not None and outcome[i] != "budget":  # one out of budget may reach its bar
                continue
            cut_at = _bar([(y.size, i < j) for j, y in enumerate(outcome) if isinstance(y, _Exploration)], bar)
            if cut_at is not None:
                accepting = rows[i].accepting
                if sum(1 for m in x.macros if any(bool(m & em) != complement for em in accepting)) >= cut_at:
                    outcome[i] = "cut"
        if None not in outcome:
            break
        limit *= 2
    done = [i for i, x in enumerate(outcome) if not isinstance(x, str)]
    if not done:
        if "cut" in outcome:
            raise CutError("cut: the complement cannot beat a finished candidate")
        raise BudgetExceededError("macrostate budget exceeded", budget=budget)
    chosen = min(done, key=lambda i: outcome[i].size) if len(done) > 1 else done[0]
    if log is not None:
        results = {d.value: x if isinstance(x, str) else x.size for d, x in zip(directions, outcome)}
        explored = {d.value: len(x.macros) for d, x in zip(directions, runs)}
        log.append({"side": side, **results, "chosen": directions[chosen].value, "explored": explored})
    return outcome[chosen]


def _build(a: Automaton, x: _Exploration, minimal: bool = False) -> Automaton:
    """The automaton of ``a``'s class that exploration ``x`` of ``a`` found.

    With live marks only the live macrostates are kept, in discovery order:
    exploration made every one reachable, so that is ``core.trim`` of the
    untrimmed automaton, named only for the survivors, and it is recorded
    trim; a move into a dropped one becomes -1.  ``minimal`` records that
    the result is a minimal trim DFA.  A reverse exploration's table gives
    predecessors, its start and accepting sets swapped.  A ``delta`` row
    holds ``x.syms`` in order, and the result is over ``a``'s whole alphabet.
    The table holds only ids the exploration numbered, so it is built through
    ``core._derived``, which checks the port sets and names, not the moves.
    """
    macros, delta, entries, exits, live, reverse, syms = x
    nsyms = len(syms)
    kept = macros
    if live is not None and not all(live):
        kept = [m for m, alive in zip(macros, live) if alive]
        new = [k - 1 if alive else -1 for k, alive in zip(accumulate(live), live)]  # index among the survivors
        delta = [new[j] for i, alive in enumerate(live) if alive for j in delta[i * nsyms : (i + 1) * nsyms]]
        entries = [new[e] for e in entries]
        exits = [[new[i] for i in ids] for ids in exits]
    starts = [frozenset({e} if e >= 0 else ()) for e in entries]
    accepting = [frozenset(ids) for ids in exits]
    if reverse:
        starts, accepting = accepting, starts
    return core._derived(a, len(kept), starts, accepting, _macro_names(a, kept), _table=(delta, tuple(syms), reverse),
                         _trim=live is not None, _minimal=minimal)


def determinize(a: Automaton, *, budget: int | None = None) -> MacrostateDfa:
    """Reachable powerset construction; the result is deterministic and complete."""
    x = _explore_port(a, budget)
    return MacrostateDfa(_build(a, x), tuple(x.macros))


def complement_dfa(d: MacrostateDfa | Automaton) -> Automaton:
    """Complement a complete DFA by flipping its final states (of a port DFA,
    each exit set), as a view that keeps the DFA's moves."""
    dfa = d.nfa if isinstance(d, MacrostateDfa) else d
    if not core.is_deterministic(dfa) or not core.is_complete(dfa):
        raise ValueError("complement_dfa needs a deterministic, complete automaton")
    everything = frozenset(range(dfa.num_states))
    return core._view(dfa, exit_sets=[everything - f for f in dfa.exit_sets])


def forward_complement(a: Automaton, *, budget: int | None = None) -> Automaton:
    """co(det(a)), every slice complemented; dead macrostates are trimmed, which
    may break completeness (``complement_dfa(determinize(a))`` keeps them)."""
    return _complement(a, Direction.FORWARD, budget)[0]


def reverse_complement(a: Automaton, *, budget: int | None = None) -> Automaton:
    """rev(co(det(rev(a)))), always trimmed: unreachable sink parts are dropped."""
    return _complement(a, Direction.REVERSE, budget)[0]


def _complement(
    a: Automaton, direction: Direction, budget: int | None, bar: int | None = None
) -> tuple[Automaton, int]:
    """The trimmed powerset complement of ``a`` in ``direction``, and its size
    before trimming; with a ``bar``, ``CutError`` once it cannot stay below it.

    A forward complement is recorded minimal when ``a`` is a plain NFA that
    is reverse-deterministic (one final state) and whose every state reaches
    that final state: then rev(a) is an accessible DFA, so det(a) is the
    minimal DFA of L(a) (Brzozowski, "Canonical regular expressions and
    minimal state graphs for definite events", 1962), and its complement,
    trimmed, the minimal trim DFA of the complement."""
    # A state of rev(raw) survives trim exactly when it reaches an exit of raw.
    x = _explore_port(a, budget, complement=True, directions=(direction,), bar=bar)
    minimal = (direction is Direction.FORWARD and isinstance(a, Nfa) and core.is_reverse_deterministic(a)
               and len(core._coreachable(a)) == a.num_states)
    return _build(a, x, minimal), len(x.macros)


port_forward_complement = forward_complement
port_reverse_complement = reverse_complement
