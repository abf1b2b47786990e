"""Size reduction: Hopcroft DFA minimization and simulation-based NFA pruning.

Hopcroft applies to deterministic complete automata only and yields the
unique minimal DFA.  The simulation pass works on arbitrary NFAs: it merges
simulation-equivalent states, drops transitions into dominated targets
("little brothers"), and trims, all of which preserve the language.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import core
from .core import Nfa, PortNfa
from .powerset import MacrostateDfa


@dataclass(frozen=True)
class SimulationPreorder:
    """Pairs (p, q) meaning q simulates p; reflexive and transitive."""

    relation: frozenset[tuple[int, int]]


def _simulation_masks(n: int, nsyms: int, succ, initial_candidates: list[int]) -> list[int]:
    """Greatest fixpoint of the direct-simulation refinement, as bitmasks.

    ``sim[p]`` starts from ``initial_candidates[p]`` (states not ruled out by
    the acceptance condition) and loses q whenever some move of p cannot be
    matched by q into the current relation.
    """
    sim = list(initial_candidates)
    changed = True
    while changed:
        changed = False
        for p in range(n):
            cur = sim[p]
            for q in list(core._bits(cur)):
                if q == p:
                    continue
                ok = True
                for sym in range(nsyms):
                    sq = succ[sym * n + q]
                    for p2 in core._bits(succ[sym * n + p]):
                        if not (sq & sim[p2]):
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    cur &= ~(1 << q)
                    changed = True
            sim[p] = cur
    return sim


def compute_simulation(a: Nfa) -> SimulationPreorder:
    """Maximal direct simulation preorder of a plain NFA."""
    n = a.num_states
    full = (1 << n) - 1
    candidates = [a.final_mask if (a.final_mask >> p) & 1 else full for p in range(n)]
    sim = _simulation_masks(n, len(a.alphabet), a.succ_masks, candidates)
    return SimulationPreorder(
        frozenset((p, q) for p in range(n) for q in core._bits(sim[p]))
    )


def hopcroft_minimize(d: MacrostateDfa | Nfa) -> Nfa:
    """Minimal complete DFA via partition refinement (smaller-half splitters)."""
    dfa = d.nfa if isinstance(d, MacrostateDfa) else d
    if not core.is_deterministic(dfa) or not core.is_complete(dfa):
        raise ValueError("hopcroft_minimize needs a deterministic, complete automaton")
    n = dfa.num_states
    nsyms = len(dfa.alphabet)
    preds: list[list[list[int]]] = [[[] for _ in range(n)] for _ in range(nsyms)]
    for (p, sym, q) in dfa.transitions:
        preds[sym][q].append(p)

    final = set(dfa.final)
    nonfinal = set(range(n)) - final
    partition = [b for b in (final, nonfinal) if b]
    work: set[tuple[frozenset[int], int]] = set()
    if len(partition) == 2:
        smaller = frozenset(min(partition, key=len))
        for sym in range(nsyms):
            work.add((smaller, sym))
    while work:
        splitter, sym = work.pop()
        moved = set()
        for a_state in splitter:
            moved.update(preds[sym][a_state])
        next_partition = []
        for block in partition:
            inside = block & moved
            outside = block - moved
            if inside and outside:
                next_partition.append(inside)
                next_partition.append(outside)
                f_block = frozenset(block)
                f_in, f_out = frozenset(inside), frozenset(outside)
                for sym2 in range(nsyms):
                    if (f_block, sym2) in work:
                        work.remove((f_block, sym2))
                        work.add((f_in, sym2))
                        work.add((f_out, sym2))
                    else:
                        work.add((f_in if len(inside) <= len(outside) else f_out, sym2))
            else:
                next_partition.append(block)
        partition = next_partition

    blocks = sorted(partition, key=min)  # canonical order by least member
    block_of = {}
    for bi, block in enumerate(blocks):
        for q in block:
            block_of[q] = bi
    succ = dfa.succ_masks
    transitions = set()
    for bi, block in enumerate(blocks):
        rep = min(block)
        for sym in range(nsyms):
            target = succ[sym * n + rep]
            transitions.add((bi, sym, block_of[next(core._bits(target))]))
    names = tuple(
        "+".join(dfa.state_name(q) for q in sorted(block)) for block in blocks
    )
    (start,) = dfa.initial
    return Nfa(
        dfa.alphabet,
        len(blocks),
        frozenset(transitions),
        frozenset({block_of[start]}),
        frozenset(bi for bi, block in enumerate(blocks) if block <= final),
        state_names=names,
    )


def _quotient_and_prune(
    n: int,
    nsyms: int,
    succ,
    sim: list[int],
):
    """Shared tail of the simulation reductions.

    Returns (classes, class_of, class_transitions, class_leq) where classes
    are simulation-equivalence classes (sorted by least member) and
    transitions into strictly dominated target classes are already gone.
    """
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
    k = len(classes)

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


def simulation_reduce(a: Nfa) -> Nfa:
    """Merge simulation-equivalent states and prune dominated transitions."""
    n = a.num_states
    if n == 0:
        return a
    sim_masks = _simulation_masks(
        n,
        len(a.alphabet),
        a.succ_masks,
        [a.final_mask if (a.final_mask >> p) & 1 else (1 << n) - 1 for p in range(n)],
    )
    classes, class_of, transitions, _leq = _quotient_and_prune(
        n, len(a.alphabet), a.succ_masks, sim_masks
    )
    names = tuple(
        "+".join(a.state_name(q) for q in members) for members in classes
    )
    out = Nfa(
        a.alphabet,
        len(classes),
        frozenset(transitions),
        frozenset(class_of[q] for q in a.initial),
        frozenset(class_of[q] for q in a.final),
        state_names=names,
    )
    return core.trim(out)


def simulation_reduce_port(a: PortNfa) -> PortNfa:
    """Port-aware simulation reduction: respects every exit set separately.

    A state q may simulate p only if q belongs to every exit set p belongs
    to, which makes the quotient and the little-brother pruning sound for
    every slice at once.  Entry sets additionally drop members dominated by
    another member of the same set.
    """
    n = a.num_states
    if n == 0:
        return a
    full = (1 << n) - 1
    exit_masks = [core._mask_of(s) for s in a.exit_sets]
    candidates = []
    for p in range(n):
        cand = full
        for em in exit_masks:
            if (em >> p) & 1:
                cand &= em
        candidates.append(cand)
    sim_masks = _simulation_masks(n, len(a.alphabet), a.succ_masks, candidates)
    classes, class_of, transitions, leq = _quotient_and_prune(
        n, len(a.alphabet), a.succ_masks, sim_masks
    )

    entry_sets = []
    for s in a.entry_sets:
        cls = {class_of[q] for q in s}
        kept = frozenset(
            ci
            for ci in cls
            if not any(cj != ci and leq(ci, cj) and not leq(cj, ci) for cj in cls)
        )
        entry_sets.append(kept)
    exit_sets = [frozenset(class_of[q] for q in s) for s in a.exit_sets]
    names = tuple(
        "+".join(a.state_name(q) for q in members) for members in classes
    )
    out = PortNfa(
        a.alphabet,
        len(classes),
        frozenset(transitions),
        tuple(entry_sets),
        tuple(exit_sets),
        state_names=names,
    )
    return core.trim_port(out)
