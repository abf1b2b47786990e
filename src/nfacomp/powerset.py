"""Forward and reverse powerset complementation, for plain and port NFAs.

Macrostates are explored breadth-first from the initial set(s) and interned
in discovery order, so the constructions are byte-for-byte reproducible.
The empty macrostate appears lazily — on the first missing transition — and
acts as the rejecting sink that keeps the result complete.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from itertools import cycle

from . import _kernels, core
from ._kernels.pure import _byte_keys
from .core import Nfa, PortNfa
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

    nfa: Nfa
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


def determinize(a: Nfa, *, budget: int | None = None) -> MacrostateDfa:
    """Reachable powerset construction; the result is deterministic and complete."""
    macros, transitions, names = _explore(a, [a.initial_mask], budget)
    dfa = Nfa(
        a.alphabet,
        len(macros),
        transitions,
        frozenset({0}),
        frozenset(i for i, m in enumerate(macros) if m & a.final_mask),
        state_names=names,
    )
    return MacrostateDfa(dfa, tuple(macros))


def complement_dfa(d: MacrostateDfa | Nfa) -> Nfa:
    """Complement a complete DFA by flipping its final states."""
    dfa = d.nfa if isinstance(d, MacrostateDfa) else d
    if not core.is_deterministic(dfa) or not core.is_complete(dfa):
        raise ValueError("complement_dfa needs a deterministic, complete automaton")
    return Nfa(
        dfa.alphabet,
        dfa.num_states,
        dfa.transitions,
        dfa.initial,
        frozenset(range(dfa.num_states)) - dfa.final,
        state_names=dfa.state_names,
        name=dfa.name,
    )


def forward_complement(a: Nfa, *, trim: bool = True, budget: int | None = None) -> Nfa:
    """co(det(a)).  Trimming drops dead macrostates (and may break completeness)."""
    c = complement_dfa(determinize(a, budget=budget))
    return core.trim(c) if trim else c


def reverse_complement(a: Nfa, *, budget: int | None = None) -> Nfa:
    """rev(co(det(rev(a)))), always trimmed: unreachable sink parts are dropped."""
    c = forward_complement(core.reverse(a), trim=False, budget=budget)
    return core.trim(core.reverse(c))


# ---------------------------------------------------------------------------
# Port variants


def _port_powerset(p: PortNfa, budget: int | None) -> tuple[PortNfa, list[int]]:
    """Port determinization plus each macrostate's bitmask of original states."""
    entry_masks = [core._mask_of(s) for s in p.entry_sets]
    macros, transitions, names = _explore(p, entry_masks, budget)
    # The kernel interns the distinct entry masks first, in port order.
    index: dict[int, int] = {}
    entry_ids = [index.setdefault(m, len(index)) for m in entry_masks]
    exit_masks = [core._mask_of(s) for s in p.exit_sets]
    det = PortNfa(
        p.alphabet,
        len(macros),
        transitions,
        tuple(frozenset({i}) for i in entry_ids),
        tuple(
            frozenset(i for i, m in enumerate(macros) if m & em) for em in exit_masks
        ),
        state_names=names,
    )
    return det, macros


def port_determinize(p: PortNfa, *, budget: int | None = None) -> PortNfa:
    """Port powerset construction: one start macro per entry set, shared state space."""
    det, _ = _port_powerset(p, budget)
    return det


def port_determinize_mapped(p: PortNfa, *, budget: int | None = None):
    """port_determinize plus the macrostate -> original-subset back-map."""
    det, macros = _port_powerset(p, budget)
    return det, tuple(frozenset(core._bits(m)) for m in macros)


def port_forward_complement(p: PortNfa, *, trim: bool = True, budget: int | None = None) -> PortNfa:
    """Port determinization with every exit set flipped; complements every slice."""
    det, _ = _port_powerset(p, budget)
    all_states = frozenset(range(det.num_states))
    c = PortNfa(
        det.alphabet,
        det.num_states,
        det.transitions,
        det.entry_sets,
        tuple(all_states - s for s in det.exit_sets),
        state_names=det.state_names,
    )
    return core.trim_port(c) if trim else c


def port_reverse_complement(p: PortNfa, *, budget: int | None = None) -> PortNfa:
    """Reverse port powerset complementation, always trimmed."""
    c = port_forward_complement(core.reverse_port(p), trim=False, budget=budget)
    return core.trim_port(core.reverse_port(c))
