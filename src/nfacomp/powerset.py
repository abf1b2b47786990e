"""Forward and reverse powerset complementation, for plain and port NFAs.

Every construction is written once against the port view of ``core``; a
plain NFA is the port NFA with one entry set and one exit set.

Macrostates are explored breadth-first from the initial set(s) and interned
in discovery order, so the constructions are byte-for-byte reproducible.
The empty macrostate appears lazily — on the first missing transition — and
acts as the rejecting sink that keeps the result complete.

Each construction explores, then builds once.  The exploration (subset
kernel, accepting macrostates, live marks) builds no automaton, so a caller
choosing among candidates by size builds only the one it keeps.  Reverse
explores rev(a) over the automaton's cached predecessor table
(``a.pred_masks``) and builds the result reversed back, with no reversed
automaton.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, cycle
from typing import NamedTuple

from . import _kernels, core
from ._kernels.pure import _byte_keys
from .core import Automaton, Nfa
from .errors import BudgetExceededError


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
    """``",".join`` of the state names in one byte of a state set, filled on demand.

    Key ``c * 256 + b`` stands for the states ``8c + i`` with bit ``i`` set in
    the byte value ``b``, as in the kernels' subset-image tables.
    """

    __slots__ = ("a",)

    def __init__(self, a):
        super().__init__()
        self.a = a

    def __missing__(self, key):
        base = (key >> 8) << 3
        byte = key & 255
        piece = ",".join(self.a.state_name(base + i) for i in range(8) if byte >> i & 1)
        self[key] = piece
        return piece


def _macro_names(a, macros: list[int]) -> tuple[str, ...]:
    """``{q1,q2,...}`` for each macrostate, its states' names in increasing order."""
    keys_of = _byte_keys(a.num_states)
    pieces = _NamePieces(a)
    return tuple("{" + ",".join([pieces[key] for key in keys_of(m)]) + "}" for m in macros)


def _live(nsyms: int, delta: list[int], exits: list[int]) -> bytearray:
    """1 for each macrostate that reaches one in ``exits`` over the flat ``delta``."""
    preds = [[] for _ in range(len(delta) // nsyms)]
    for k, j in enumerate(delta):
        preds[j].append(k // nsyms)
    live = bytearray(len(preds))
    for i in exits:
        live[i] = 1
    while exits:
        for i in preds[exits.pop()]:
            if not live[i]:
                live[i] = 1
                exits.append(i)
    return live


class _Exploration(NamedTuple):
    """A powerset exploration: macrostate masks in discovery order, the
    kernel's flat ``delta``, the start macrostate of each start set, the
    accepting macrostates of each accepting set, with trim the live marks,
    and the symbol id of each position of a ``delta`` row.
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


def _explore_port(
    a: Automaton,
    budget: int | None,
    complement: bool = False,
    trim: bool = False,
    reverse: bool = False,
    skip: frozenset[int] = frozenset(),
) -> _Exploration:
    """Explore the powerset of ``a`` from each entry set, or with ``reverse``
    that of rev(a) from each exit set.  A macrostate accepts for an exit set
    (an entry set when reversed) when it meets it, or with ``complement``
    when it does not.  The symbols in ``skip``, which ``a`` must not use,
    are left out: the kernel gets the table rows of the others, in order.
    """
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
    nsyms = len(syms)
    entry_masks = [core._mask_of(s) for s in starts]
    res = _kernels.explore_subsets(n, nsyms, succ, entry_masks, budget)
    if res is None:
        raise BudgetExceededError("macrostate budget exceeded", budget=budget)
    macros, delta = res
    # The kernel interns the distinct start masks first, in port order.
    index: dict[int, int] = {}
    entries = [index.setdefault(m, len(index)) for m in entry_masks]
    exits = [
        [i for i, m in enumerate(macros) if bool(m & em) != complement]
        for em in map(core._mask_of, accepting)
    ]
    live = _live(nsyms, delta, [i for ids in exits for i in ids]) if trim else None
    return _Exploration(macros, delta, entries, exits, live, reverse, syms)


def _build(a: Automaton, x: _Exploration) -> Automaton:
    """The automaton of ``a``'s class that exploration ``x`` of ``a`` found.

    With live marks only the live macrostates are kept, in discovery order:
    exploration made every one reachable, so that is ``core.trim`` of the
    untrimmed automaton, named only for the survivors.  A reverse
    exploration is built reversed back: transitions flipped, start and
    accepting sets swapped.  A ``delta`` row holds ``x.syms`` in order, and
    the result is over ``a``'s whole alphabet.
    """
    macros, delta, entries, exits, live, reverse, syms = x
    nsyms = len(syms)
    if live is None or all(live):
        kept = macros
        sources = [i for i in range(len(macros)) for _ in syms]
        transitions = zip(delta, cycle(syms), sources) if reverse else zip(sources, cycle(syms), delta)
    else:
        kept = [m for m, alive in zip(macros, live) if alive]
        new = list(accumulate(live, initial=-1))  # new[i + 1] is i's index among the survivors
        pairs = [
            (new[i + 1], sym, new[j + 1])
            for i in range(len(macros)) if live[i]
            for sym, j in zip(syms, delta[i * nsyms : (i + 1) * nsyms]) if live[j]
        ]
        transitions = [(dst, sym, src) for (src, sym, dst) in pairs] if reverse else pairs
        entries = [new[e + 1] if live[e] else -1 for e in entries]
        exits = [[new[i + 1] for i in ids] for ids in exits]
    starts = [frozenset({e} if e >= 0 else ()) for e in entries]
    accepting = [frozenset(ids) for ids in exits]
    if reverse:
        starts, accepting = accepting, starts
    return core._rebuild(a, len(kept), frozenset(transitions), starts, accepting, _macro_names(a, kept))


def _port_powerset(
    a: Automaton, budget: int | None, complement: bool = False, trim: bool = False, reverse: bool = False
):
    """Powerset construction of ``a`` from each of its entry sets: explore,
    then build once.

    Returns an automaton of ``a``'s class, one start macrostate per entry
    set over one shared state space, and the bitmask of original states of
    every macrostate explored.  ``complement`` complements every slice;
    ``trim`` builds only the macrostates that reach an exit set.  With
    ``reverse`` the construction is rev(·(det(rev(a)))), read off the
    predecessor table.
    """
    x = _explore_port(a, budget, complement, trim, reverse)
    return _build(a, x), x.macros


def determinize(a: Automaton, *, budget: int | None = None) -> MacrostateDfa:
    """Reachable powerset construction; the result is deterministic and complete."""
    det, macros = _port_powerset(a, budget)
    return MacrostateDfa(det, tuple(macros))


def complement_dfa(d: MacrostateDfa | Nfa) -> Nfa:
    """Complement a complete DFA by flipping its final states."""
    dfa = d.nfa if isinstance(d, MacrostateDfa) else d
    if not core.is_deterministic(dfa) or not core.is_complete(dfa):
        raise ValueError("complement_dfa needs a deterministic, complete automaton")
    return dataclasses.replace(dfa, final=frozenset(range(dfa.num_states)) - dfa.final)


def forward_complement(a: Automaton, *, trim: bool = True, budget: int | None = None) -> Automaton:
    """co(det(a)), every slice complemented.  Trimming drops dead macrostates
    (and may break completeness)."""
    return _port_powerset(a, budget, complement=True, trim=trim)[0]


def reverse_complement(a: Automaton, *, budget: int | None = None) -> Automaton:
    """rev(co(det(rev(a)))), always trimmed: unreachable sink parts are dropped."""
    return _complement(a, Direction.REVERSE, budget)[0]


def _complement(a: Automaton, direction: Direction, budget: int | None) -> tuple[Automaton, int]:
    """The trimmed powerset complement of ``a`` in ``direction``, and its size before trimming."""
    # A state of rev(raw) survives trim exactly when it reaches an exit of raw.
    reverse = direction is Direction.REVERSE
    c, macros = _port_powerset(a, budget, complement=True, trim=True, reverse=reverse)
    return c, len(macros)


port_forward_complement = forward_complement
port_reverse_complement = reverse_complement
