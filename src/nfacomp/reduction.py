"""Size reduction: Hopcroft DFA minimization and simulation-based NFA pruning.

Hopcroft applies to deterministic automata, complete or partial, and yields
the minimal DFA.  It refines the final/non-final split with a queue of
(block, symbol) splitters, keeping the smaller half of each split (Hopcroft,
"An n log n algorithm for minimizing states in a finite automaton", 1971),
on a block id per state, a member set per block and per-symbol predecessor
lists, so that a splitter costs time in the number of transitions into it,
not in the number of blocks; missing moves go to a virtual sink (Valmari &
Lehtinen, "Efficient minimization of DFAs with partial transition
functions", STACS 2008).  Its quotient is the simulation pass's, unpruned.

The simulation pass works on arbitrary NFAs: it merges simulation-equivalent
states, drops transitions into dominated targets ("little brothers"), and
trims, all of which preserve the language.  The maximal direct simulation is
the greatest fixpoint of ``sim[p] &= Pre_a(sim[p'])`` over the moves
``p -a-> p'``, refined from a worklist of the states whose successors' sets
shrank (Henzinger, Henzinger & Kopke, "Computing simulations on finite and
infinite graphs", FOCS 1995; Ilie, Navarro & Yu, "On NFA reductions", 2004).
A class is a little brother when the mask of the states strictly above it
meets its sibling targets (or its entry set): one AND, no scan over pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import core
from ._kernels.pure import _image_tables
from .core import Nfa, PortNfa
from .powerset import MacrostateDfa


@dataclass(frozen=True)
class SimulationPreorder:
    """Pairs (p, q) meaning q simulates p; reflexive and transitive."""

    relation: frozenset[tuple[int, int]]


def _simulation_masks(n: int, nsyms: int, succ, pred, initial_candidates: list[int]) -> list[int]:
    """Greatest fixpoint of the direct-simulation refinement, as bitmasks.

    ``sim[p]`` starts from ``initial_candidates[p]`` (states not ruled out by
    the acceptance condition, p itself included) and keeps only the states
    that can match every move ``p -a-> p'`` into ``sim[p']``, that is
    ``Pre_a(sim[p'])``: the states with an a-successor in ``sim[p']``.
    ``Pre_a`` is the subset image under the predecessor table ``pred`` (the
    same layout as ``succ``), cached per state until that state's set
    shrinks; a state is refined again only when the set of one of its
    successors shrank.
    """
    tables, keys_of = _image_tables(n, nsyms, pred)
    sim = list(initial_candidates)
    pre: list[list[int] | None] = [None] * n  # per-symbol Pre_a(sim[q]), None when stale
    dirty = (1 << n) - 1
    while dirty:
        low = dirty & -dirty
        dirty ^= low
        p = low.bit_length() - 1
        cur = sim[p]
        for sym in range(nsyms):
            for p2 in core._bits(succ[sym * n + p]):
                images = pre[p2]
                if images is None:
                    keys = keys_of(sim[p2])
                    images = pre[p2] = []
                    for table in tables:
                        img = 0
                        for key in keys:
                            img |= table[key]
                        images.append(img)
                cur &= images[sym]
        if cur != sim[p]:
            sim[p] = cur
            pre[p] = None
            for sym in range(nsyms):
                dirty |= pred[sym * n + p]
    return sim


def _simulation(a: core.Automaton) -> list[int]:
    """Maximal direct simulation as bitmasks, ``sim[p]`` the states simulating p.

    q may simulate p only if q is in every exit set that p is in; for a
    plain NFA, a final state is simulated by final states only.
    """
    n = a.num_states
    exit_masks = [core._mask_of(s) for s in a.exit_sets]
    candidates = []
    for p in range(n):
        cand = (1 << n) - 1
        for em in exit_masks:
            if (em >> p) & 1:
                cand &= em
        candidates.append(cand)
    return _simulation_masks(n, len(a.alphabet), a.succ_masks, a.pred_masks, candidates)


def compute_simulation(a: Nfa) -> SimulationPreorder:
    """Maximal direct simulation preorder of a plain NFA."""
    sim = _simulation(a)
    return SimulationPreorder(
        frozenset((p, q) for p in range(a.num_states) for q in core._bits(sim[p]))
    )


def hopcroft_minimize(d: MacrostateDfa | Nfa) -> Nfa:
    """Minimal DFA via partition refinement (smaller-half splitters).

    Missing moves go to a virtual non-final sink looping on every symbol,
    which is then dropped from the classes: a class of dead states it
    joined is kept, and a class whose members all miss a move misses it.
    """
    dfa = d.nfa if isinstance(d, MacrostateDfa) else d
    if not core.is_deterministic(dfa):
        raise ValueError("hopcroft_minimize needs a deterministic automaton")
    n = dfa.num_states
    nsyms = len(dfa.alphabet)
    succ = dfa.succ_masks
    sink = n
    preds: list[list[list[int]]] = [[[] for _ in range(n + 1)] for _ in range(nsyms)]
    for (p, sym, q) in dfa.transitions:
        preds[sym][q].append(p)
    for sym in range(nsyms):
        preds[sym][sink] += [p for p in range(n) if not succ[sym * n + p]] + [sink]

    final = dfa.final_mask
    blocks = [m for m in (
        {q for q in range(n) if (final >> q) & 1},
        {q for q in range(n + 1) if not (final >> q) & 1},
    ) if m]
    block_of = [0] * (n + 1)
    for bi, members in enumerate(blocks):
        for q in members:
            block_of[q] = bi
    queue: list[tuple[int, int]] = []
    if len(blocks) == 2:
        smaller = 0 if len(blocks[0]) <= len(blocks[1]) else 1
        queue = [(smaller, sym) for sym in range(nsyms)]
    pending = set(queue)
    while queue:
        splitter = queue.pop()
        pending.discard(splitter)
        b, sym = splitter
        row = preds[sym]
        touched: dict[int, list[int]] = {}  # block -> its states with a move into b
        for q in blocks[b]:
            for p in row[q]:
                c = block_of[p]
                moved = touched.get(c)
                if moved is None:
                    touched[c] = [p]
                else:
                    moved.append(p)
        for c, moved in touched.items():
            members = blocks[c]
            if len(moved) == len(members):
                continue
            members.difference_update(moved)
            new = len(blocks)
            blocks.append(set(moved))
            for p in moved:
                block_of[p] = new
            smaller = new if len(moved) <= len(members) else c
            for sym2 in range(nsyms):
                # A pending block stays pending as one half, so the other joins it.
                split = (new, sym2) if (c, sym2) in pending else (smaller, sym2)
                pending.add(split)
                queue.append(split)

    classes = sorted(sorted(members - {sink}) for members in blocks if members != {sink})
    return _quotient(dfa, classes, [0] * len(classes), prune_entries=False)


def _simulation_classes(a: core.Automaton) -> tuple[list[list[int]], list[int]]:
    """The simulation-equivalence classes of ``a``, sorted by least member,
    and per class ``above``: the states simulating its least member minus its
    own members, which (simulation being closed under equivalence) is the
    union of the classes strictly above it."""
    sim = _simulation(a)
    claimed = bytearray(a.num_states)
    classes, above = [], []
    for p in range(a.num_states):
        if claimed[p]:
            continue
        members = [p] + [q for q in core._bits(sim[p]) if q > p and (sim[q] >> p) & 1]
        for q in members:
            claimed[q] = 1
        classes.append(members)
        above.append(sim[p] & ~core._mask_of(members))
    return classes, above


def _quotient(a: core.Automaton, classes: list[list[int]], above: list[int], prune_entries: bool):
    """The quotient of ``a`` by ``classes``, without transitions into dominated classes.

    A target class c is dominated when ``above[c]`` meets the union of the
    successor rows it was reached by; with ``prune_entries`` an entry set
    also drops each class that ``above`` finds dominated within it.
    """
    n = a.num_states
    nsyms = len(a.alphabet)
    succ = a.succ_masks
    class_of = [-1] * n
    class_mask = []
    for ci, members in enumerate(classes):
        class_mask.append(core._mask_of(members))
        for q in members:
            class_of[q] = ci

    transitions = set()
    for ci, members in enumerate(classes):
        for sym in range(nsyms):
            row = 0
            for p in members:
                row |= succ[sym * n + p]
            rest = row
            while rest:
                cj = class_of[rest.bit_length() - 1]
                rest &= ~class_mask[cj]
                if not above[cj] & row:  # else a bigger brother exists
                    transitions.add((ci, sym, cj))
    entry_sets = []
    for s in a.entry_sets:
        m = core._mask_of(s) if prune_entries else 0
        entry_sets.append(frozenset(class_of[q] for q in s if not above[class_of[q]] & m))
    return core._rebuild(
        a,
        len(classes),
        frozenset(transitions),
        entry_sets,
        [frozenset(class_of[q] for q in s) for s in a.exit_sets],
        tuple("+".join(a.state_name(q) for q in members) for members in classes),
    )


def _quotient_and_prune(a: core.Automaton, prune_entries: bool):
    """The simulation reductions: merge simulation-equivalent states, drop
    transitions into strictly dominated target classes, and trim."""
    if a.num_states == 0:
        return a
    return core.trim(_quotient(a, *_simulation_classes(a), prune_entries))


def simulation_reduce(a: Nfa) -> Nfa:
    """Merge simulation-equivalent states and prune dominated transitions."""
    return _quotient_and_prune(a, prune_entries=False)


def simulation_reduce_port(a: PortNfa) -> PortNfa:
    """Port-aware simulation reduction: respects every exit set separately.

    A state q may simulate p only if q belongs to every exit set p belongs
    to, which makes the quotient and the little-brother pruning sound for
    every slice at once.  Entry sets additionally drop members dominated by
    another member of the same set.
    """
    return _quotient_and_prune(a, prune_entries=True)
