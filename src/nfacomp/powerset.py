"""Forward and reverse powerset complementation, for plain and port NFAs.

Every construction is written once against the port view of ``core``; a
plain NFA is the port NFA with one entry set and one exit set.

Macrostates are explored breadth-first from the initial set(s) and interned
in discovery order, so the constructions are byte-for-byte reproducible.
The empty macrostate appears lazily — on the first missing transition — and
acts as the rejecting sink that keeps the result complete.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from functools import cached_property
from itertools import cycle

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


def _explore(a, seeds: list[int], budget: int | None):
    """Subset construction of ``a`` from the macrostates ``seeds``.

    Returns the macrostate bitmasks in discovery order, the complete
    transition set over their indices, and their names.
    """
    nsyms = len(a.alphabet)
    res = _kernels.explore_subsets(a.num_states, nsyms, a.succ_masks, seeds, budget)
    if res is None:
        raise BudgetExceededError("macrostate budget exceeded", budget=budget)
    macros, delta = res
    syms = range(nsyms)
    transitions = frozenset(zip([i for i in range(len(macros)) for _ in syms], cycle(syms), delta))
    return macros, transitions, _macro_names(a, macros)


def _port_powerset(a: Automaton, budget: int | None, complement: bool = False):
    """Powerset construction of ``a`` from each of its entry sets.

    Returns an automaton of ``a``'s class, one start macrostate per entry
    set over one shared state space, with each macrostate's bitmask of
    original states.  Macrostate i is in exit set j when it meets the
    original exit set j, or, with ``complement``, when it does not: that
    complements every slice.
    """
    entry_masks = [core._mask_of(s) for s in a.entry_sets]
    macros, transitions, names = _explore(a, entry_masks, budget)
    # The kernel interns the distinct entry masks first, in port order.
    index: dict[int, int] = {}
    entry_ids = [index.setdefault(m, len(index)) for m in entry_masks]
    exit_sets = [
        frozenset(i for i, m in enumerate(macros) if bool(m & em) != complement)
        for em in map(core._mask_of, a.exit_sets)
    ]
    det = core._rebuild(a, len(macros), transitions, [frozenset({i}) for i in entry_ids], exit_sets, names)
    return det, macros


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
    c, _ = _port_powerset(a, budget, complement=True)
    return core.trim(c) if trim else c


def reverse_complement(a: Automaton, *, budget: int | None = None) -> Automaton:
    """rev(co(det(rev(a)))), always trimmed: unreachable sink parts are dropped."""
    return _complement(a, Direction.REVERSE, budget)[0]


def _complement(a: Automaton, direction: Direction, budget: int | None) -> tuple[Automaton, int]:
    """The trimmed powerset complement of ``a`` in ``direction``, and its size before trimming."""
    if direction is Direction.FORWARD:
        raw = forward_complement(a, trim=False, budget=budget)
        return core.trim(raw), raw.num_states
    raw = forward_complement(core.reverse(a), trim=False, budget=budget)
    return core.trim(core.reverse(raw)), raw.num_states


port_forward_complement = forward_complement
port_reverse_complement = reverse_complement
