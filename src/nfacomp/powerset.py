"""Forward and reverse powerset complementation, for plain and port NFAs.

Macrostates are explored breadth-first from the initial set(s) and interned
in discovery order, so the constructions are byte-for-byte reproducible.
The empty macrostate appears lazily — on the first missing transition — and
acts as the rejecting sink that keeps the result complete.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import _kernels, core
from .core import Nfa, PortNfa
from .errors import BudgetExceededError


class Direction(enum.Enum):
    FORWARD = "forward"
    REVERSE = "reverse"


@dataclass(frozen=True)
class MacrostateDfa:
    """A determinized automaton plus the macrostate -> original-subset back-map."""

    nfa: Nfa
    macrostates: tuple[frozenset[int], ...]


def _macro_name(a, mask: int) -> str:
    return "{" + ",".join(a.state_name(q) for q in core._bits(mask)) + "}"


def _explore(a, seeds: list[int], budget: int | None):
    """Subset construction of ``a`` from the macrostates ``seeds``.

    Returns the macrostate bitmasks in discovery order, the complete
    transition set over their indices, their names, and the back-map from
    each macrostate to its set of original states.
    """
    nsyms = len(a.alphabet)
    res = _kernels.explore_subsets(a.num_states, nsyms, a.succ_masks, seeds, budget)
    if res is None:
        raise BudgetExceededError("macrostate budget exceeded", budget=budget)
    macros, delta = res
    transitions = frozenset(
        (i, sym, delta[i * nsyms + sym]) for i in range(len(macros)) for sym in range(nsyms)
    )
    names = tuple(_macro_name(a, m) for m in macros)
    return macros, transitions, names, tuple(frozenset(core._bits(m)) for m in macros)


def determinize(a: Nfa, *, budget: int | None = None) -> MacrostateDfa:
    """Reachable powerset construction; the result is deterministic and complete."""
    macros, transitions, names, subsets = _explore(a, [a.initial_mask], budget)
    dfa = Nfa(
        a.alphabet,
        len(macros),
        transitions,
        frozenset({0}),
        frozenset(i for i, m in enumerate(macros) if m & a.final_mask),
        state_names=names,
    )
    return MacrostateDfa(dfa, subsets)


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


def _port_powerset(p: PortNfa, budget: int | None) -> tuple[PortNfa, tuple[frozenset[int], ...]]:
    entry_masks = [core._mask_of(s) for s in p.entry_sets]
    macros, transitions, names, subsets = _explore(p, entry_masks, budget)
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
    return det, subsets


def port_determinize(p: PortNfa, *, budget: int | None = None) -> PortNfa:
    """Port powerset construction: one start macro per entry set, shared state space."""
    det, _ = _port_powerset(p, budget)
    return det


def port_determinize_mapped(p: PortNfa, *, budget: int | None = None):
    """port_determinize plus the macrostate -> original-subset back-map."""
    return _port_powerset(p, budget)


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
