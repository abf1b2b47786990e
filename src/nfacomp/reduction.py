"""Size reduction: Hopcroft DFA minimization and simulation-based NFA pruning.

Hopcroft applies to deterministic complete automata only and yields the
unique minimal DFA.  It refines the final/non-final split with a queue of
(block, symbol) splitters, keeping the smaller half of each split (Hopcroft,
"An n log n algorithm for minimizing states in a finite automaton", 1971),
on a block id per state, a member set per block and per-symbol predecessor
lists, so that a splitter costs time in the number of transitions into it,
not in the number of blocks (Valmari & Lehtinen, "Efficient minimization of
DFAs with partial transition functions", STACS 2008).

The simulation pass works on arbitrary NFAs: it merges simulation-equivalent
states, drops transitions into dominated targets ("little brothers"), and
trims, all of which preserve the language.  The maximal direct simulation is
the greatest fixpoint of ``sim[p] &= Pre_a(sim[p'])`` over the moves
``p -a-> p'``, refined from a worklist of the states whose successors' sets
shrank (Henzinger, Henzinger & Kopke, "Computing simulations on finite and
infinite graphs", FOCS 1995; Ilie, Navarro & Yu, "On NFA reductions", 2004).
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


def _predecessor_masks(n: int, succ) -> list[int]:
    """The predecessor table of a flat successor table over ``n`` states, in the same layout."""
    pred = [0] * len(succ)
    for i, row in enumerate(succ):
        base = i - i % n
        bit = 1 << (i - base)
        for q in core._bits(row):
            pred[base + q] |= bit
    return pred


def _simulation_masks(n: int, nsyms: int, succ, initial_candidates: list[int]) -> list[int]:
    """Greatest fixpoint of the direct-simulation refinement, as bitmasks.

    ``sim[p]`` starts from ``initial_candidates[p]`` (states not ruled out by
    the acceptance condition, p itself included) and keeps only the states
    that can match every move ``p -a-> p'`` into ``sim[p']``, that is
    ``Pre_a(sim[p'])``: the states with an a-successor in ``sim[p']``.
    ``Pre_a`` is the subset image under the predecessor table, cached per
    state until that state's set shrinks; a state is refined again only when
    the set of one of its successors shrank.
    """
    pred = _predecessor_masks(n, succ)
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
    return _simulation_masks(n, len(a.alphabet), a.succ_masks, candidates)


def compute_simulation(a: Nfa) -> SimulationPreorder:
    """Maximal direct simulation preorder of a plain NFA."""
    sim = _simulation(a)
    return SimulationPreorder(
        frozenset((p, q) for p in range(a.num_states) for q in core._bits(sim[p]))
    )


def hopcroft_minimize(d: MacrostateDfa | Nfa) -> Nfa:
    """Minimal complete DFA via partition refinement (smaller-half splitters)."""
    dfa = d.nfa if isinstance(d, MacrostateDfa) else d
    if not core.is_deterministic(dfa) or not core.is_complete(dfa):
        raise ValueError("hopcroft_minimize needs a deterministic, complete automaton")
    n = dfa.num_states
    nsyms = len(dfa.alphabet)
    succ = dfa.succ_masks
    preds: list[list[list[int]]] = [[[] for _ in range(n)] for _ in range(nsyms)]
    for (p, sym, q) in dfa.transitions:
        preds[sym][q].append(p)

    final = dfa.final_mask
    blocks = [m for m in (
        {q for q in range(n) if (final >> q) & 1},
        {q for q in range(n) if not (final >> q) & 1},
    ) if m]
    block_of = [0] * n
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

    blocks = sorted(sorted(members) for members in blocks)  # canonical order by least member
    for bi, members in enumerate(blocks):
        for q in members:
            block_of[q] = bi
    transitions = set()
    for bi, members in enumerate(blocks):
        for sym in range(nsyms):
            target = succ[sym * n + members[0]].bit_length() - 1
            transitions.add((bi, sym, block_of[target]))
    names = tuple("+".join(dfa.state_name(q) for q in members) for members in blocks)
    (start,) = dfa.initial
    return Nfa(
        dfa.alphabet,
        len(blocks),
        frozenset(transitions),
        frozenset({block_of[start]}),
        frozenset(bi for bi, members in enumerate(blocks) if (final >> members[0]) & 1),
        state_names=names,
    )


def _quotient_and_prune(a: core.Automaton):
    """Shared first half of the simulation reductions.

    Returns (classes, class_of, transitions, leq): the simulation-equivalence
    classes (sorted by least member) of ``a``'s states, its transitions
    between classes with those into strictly dominated target classes
    already gone, and the simulation order on classes.
    """
    n = a.num_states
    nsyms = len(a.alphabet)
    succ = a.succ_masks
    sim = _simulation(a)
    class_of = [-1] * n
    classes: list[list[int]] = []
    for p in range(n):
        if class_of[p] != -1:
            continue
        members = [p] + [q for q in core._bits(sim[p]) if q > p and (sim[q] >> p) & 1]
        ci = len(classes)
        classes.append(members)
        for q in members:
            class_of[q] = ci

    def leq(ci: int, cj: int) -> bool:
        return bool((sim[classes[ci][0]] >> classes[cj][0]) & 1)

    raw: dict[tuple[int, int], set[int]] = {}
    for p in range(n):
        for sym in range(nsyms):
            for q in core._bits(succ[sym * n + p]):
                raw.setdefault((class_of[p], sym), set()).add(class_of[q])
    transitions = set()
    for (ci, sym), targets in raw.items():
        for cj in targets:
            if any(ck != cj and leq(cj, ck) and not leq(ck, cj) for ck in targets):
                continue  # strictly dominated target: a bigger brother exists
            transitions.add((ci, sym, cj))
    return classes, class_of, transitions, leq


def _quotient(a, classes, class_of, transitions, entry_sets):
    """The trimmed automaton of ``a``'s class on the classes, with the given entry sets."""
    out = core._rebuild(
        a,
        len(classes),
        frozenset(transitions),
        entry_sets,
        [frozenset(class_of[q] for q in s) for s in a.exit_sets],
        tuple("+".join(a.state_name(q) for q in members) for members in classes),
    )
    return core.trim(out)


def simulation_reduce(a: Nfa) -> Nfa:
    """Merge simulation-equivalent states and prune dominated transitions."""
    if a.num_states == 0:
        return a
    classes, class_of, transitions, _leq = _quotient_and_prune(a)
    entry_sets = [frozenset(class_of[q] for q in s) for s in a.entry_sets]
    return _quotient(a, classes, class_of, transitions, entry_sets)


def simulation_reduce_port(a: PortNfa) -> PortNfa:
    """Port-aware simulation reduction: respects every exit set separately.

    A state q may simulate p only if q belongs to every exit set p belongs
    to, which makes the quotient and the little-brother pruning sound for
    every slice at once.  Entry sets additionally drop members dominated by
    another member of the same set.
    """
    if a.num_states == 0:
        return a
    classes, class_of, transitions, leq = _quotient_and_prune(a)
    entry_sets = []
    for s in a.entry_sets:
        cls = {class_of[q] for q in s}
        entry_sets.append(frozenset(
            ci for ci in cls if not any(cj != ci and leq(ci, cj) and not leq(cj, ci) for cj in cls)
        ))
    return _quotient(a, classes, class_of, transitions, entry_sets)
