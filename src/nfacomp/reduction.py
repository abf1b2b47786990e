"""Size reduction: Hopcroft DFA minimization and simulation-based NFA pruning.

Hopcroft applies to deterministic automata, complete or partial, and yields
the minimal DFA.  It refines the final/non-final split with a queue of
(block, symbol) splitters, keeping the smaller half of each split (Hopcroft,
"An n log n algorithm for minimizing states in a finite automaton", 1971),
on a block id per state, a member set per block and per-symbol predecessor
lists, so that a splitter costs time in the number of transitions into it,
not in the number of blocks; missing moves go to a virtual sink (Valmari &
Lehtinen, "Efficient minimization of DFAs with partial transition
functions", STACS 2008).  The initial partition splits the states by
exit-set membership, so the refinement serves port DFAs too.  Its
quotient is the simulation pass's, unpruned.

The simulation pass works on arbitrary NFAs: it merges simulation-equivalent
states, drops transitions into dominated targets ("little brothers"), and
trims, all of which preserve the language.  The maximal direct simulation is
the greatest fixpoint of ``sim[p] &= Pre_a(sim[p'])`` over the moves
``p -a-> p'``, refined by propagation: each time ``sim[p']`` shrinks, its
new image is ANDed into its predecessors' sets (Henzinger, Henzinger &
Kopke, "Computing simulations on finite and infinite graphs", FOCS 1995;
Ilie, Navarro & Yu, "On NFA reductions", 2004).
A class is a little brother when the mask of the states strictly above it
meets its sibling targets (or its entry set): one AND, no scan over pairs.

The pass runs the fixpoint only where no cheaper route gives the same
result (``_quotient_and_prune``).  A forward complement that the powerset
construction recorded as a minimal trim DFA is returned unchanged: its
input was a plain NFA, reverse-deterministic with one final state that
every state reaches, so by Brzozowski ("Canonical regular expressions and
minimal state graphs for definite events", 1962) determinizing it gave the
minimal DFA.  A named co-deterministic automaton with singleton exits is
only trimmed.  On an automaton with at most one move per state and symbol
that is complete or co-trim, q simulates p iff every word p reads leads
both into the same exit sets or more, so simulation equivalence is
language equivalence, and each class has one target per symbol, which no
other target dominates: the classes are Hopcroft's, and nothing is pruned.
On a partial DFA with dead states simulation is stricter than language
inclusion, so there the fixpoint runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import core
from ._kernels.pure import _packed_image, _packed_tables
from .core import Nfa, PortNfa
from .powerset import MacrostateDfa


@dataclass(frozen=True)
class SimulationPreorder:
    """Pairs (p, q) meaning q simulates p; reflexive and transitive."""

    relation: frozenset[tuple[int, int]]


def _simulation_masks(n: int, nsyms: int, pred, initial_candidates: list[int]) -> list[int]:
    """Greatest fixpoint of the direct-simulation refinement, as bitmasks.

    ``sim[p]`` starts from ``initial_candidates[p]`` (states not ruled out by
    the acceptance condition, p itself included) and keeps only the states
    that can match every move ``p -a-> x`` into ``sim[x]``, that is
    ``Pre_a(sim[x])``: the states with an a-successor in ``sim[x]``.  The
    fixpoint is thus one constraint ``sim[p] <= Pre_a(sim[x])`` per move,
    applied again whenever its right side shrinks: every state x is taken
    once, lowest first, and again each time ``sim[x]`` shrinks, and a take
    ANDs ``Pre_a(sim[x])`` into the set of each a-predecessor of x.  The
    images of ``sim[x]`` under every symbol are one packed int from the
    kernels' packed tables of the predecessor table ``pred``.
    """
    tables = _packed_tables(n, nsyms, pred)
    full = (1 << n) - 1
    sim = list(initial_candidates)
    todo = full
    while todo:
        low = todo & -todo
        todo ^= low
        x = low.bit_length() - 1
        packed = _packed_image(tables, sim[x])
        for sym in range(nsyms):
            image = (packed >> sym * n) & full
            for r in core._bits(pred[sym * n + x]):
                cur = sim[r]
                if cur & image != cur:
                    sim[r] = cur & image
                    todo |= 1 << r
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
    return _simulation_masks(n, len(a.alphabet), a.pred_masks, candidates)


def compute_simulation(a: Nfa) -> SimulationPreorder:
    """Maximal direct simulation preorder of a plain NFA."""
    sim = _simulation(a)
    return SimulationPreorder(
        frozenset((p, q) for p in range(a.num_states) for q in core._bits(sim[p]))
    )


def _hopcroft_classes(a: core.Automaton) -> list[list[int]]:
    """Hopcroft's classes of ``a``, which has at most one move per state and
    symbol, sorted by least member.  The initial partition splits the
    states by exit-set membership; missing moves go to a virtual sink in no
    exit set, which is then dropped from the classes."""
    n = a.num_states
    nsyms = len(a.alphabet)
    succ = a.succ_masks
    sink = n
    preds: list[list[list[int]]] = [[[] for _ in range(n + 1)] for _ in range(nsyms)]
    for (p, sym, q) in a._edges():
        preds[sym][q].append(p)
    for sym in range(nsyms):
        preds[sym][sink] += [p for p in range(n) if not succ[sym * n + p]] + [sink]

    blocks = [set(range(n + 1))]
    for s in a.exit_sets:
        blocks = [part for members in blocks for part in (members & s, members - s) if part]
    block_of = [0] * (n + 1)
    for bi, members in enumerate(blocks):
        for q in members:
            block_of[q] = bi
    largest = max(range(len(blocks)), key=lambda bi: len(blocks[bi]))
    queue = [(bi, sym) for bi in range(len(blocks)) if bi != largest for sym in range(nsyms)]
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

    return sorted(sorted(members - {sink}) for members in blocks if members != {sink})


def hopcroft_minimize(d: MacrostateDfa | Nfa) -> Nfa:
    """Minimal DFA via partition refinement (smaller-half splitters).

    Missing moves go to a virtual non-final sink looping on every symbol,
    which is then dropped from the classes: a class of dead states it
    joined is kept, and a class whose members all miss a move misses it.
    """
    dfa = d.nfa if isinstance(d, MacrostateDfa) else d
    if not core.is_deterministic(dfa):
        raise ValueError("hopcroft_minimize needs a deterministic automaton")
    return _quotient(dfa, _hopcroft_classes(dfa), None, prune_entries=False)


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


def _quotient(a: core.Automaton, classes: list[list[int]], above: list[int] | None, prune_entries: bool):
    """The quotient of ``a`` by ``classes``, without transitions into dominated classes.

    A target class c is dominated when ``above[c]`` meets the union of the
    successor rows it was reached by; with ``prune_entries`` an entry set
    also drops each class that ``above`` finds dominated within it.  With
    ``above`` None no class is dominated and the classes are Hopcroft's
    (``_hopcroft_classes``): on each symbol every member moves into one
    class or into the virtual sink, so a class's row is that of its first
    member with the move.  Where nothing is dominated, the quotient of a
    trim ``a`` is trim.
    """
    n = a.num_states
    nsyms = len(a.alphabet)
    succ = a.succ_masks
    class_of = [-1] * n
    for ci, members in enumerate(classes):
        for q in members:
            class_of[q] = ci

    transitions = set()
    if above is None:
        for ci, members in enumerate(classes):
            for sym in range(nsyms):
                for p in members:  # some may miss the move the others make into the sink's dead class
                    row = succ[sym * n + p]
                    if row:
                        transitions.add((ci, sym, class_of[row.bit_length() - 1]))
                        break
        above = [0] * len(classes)
    else:
        class_mask = [core._mask_of(members) for members in classes]
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
    return core._derived(
        a,
        len(classes),
        entry_sets,
        [frozenset(class_of[q] for q in s) for s in a.exit_sets],
        tuple("+".join(a.state_name(q) for q in members) for members in classes),
        transitions=frozenset(transitions),
        _trim=a._trim and not any(above),
    )


def _quotient_and_prune(a: core.Automaton, prune_entries: bool, stats: dict | None = None):
    """The simulation reductions: merge simulation-equivalent states, drop
    transitions into strictly dominated target classes, and trim.  The
    first route that applies runs, recorded under ``"reduce"`` in ``stats``:
    ``construction`` returns an empty ``a``, or a minimal trim DFA by
    construction, unchanged; ``codeterministic`` only trims a named ``a``
    that is reverse-deterministic with singleton exit sets, as a reverse
    powerset complement is, since no word leads two states into one exit,
    so no live state simulates another (unnamed, it would come out named);
    ``hopcroft`` quotients by ``_dfa_classes``; ``simulation`` runs the
    fixpoint.
    """
    if a.num_states == 0 or a._minimal:
        route, out = "construction", a
    elif a.state_names is not None and core.is_reverse_deterministic(a):
        route, out = "codeterministic", core.trim(a)
    elif (classes := _dfa_classes(a, prune_entries)) is not None:
        route, out = "hopcroft", core.trim(_quotient(a, classes, None, prune_entries))
    else:
        route, out = "simulation", core.trim(_quotient(a, *_simulation_classes(a), prune_entries))
    if stats is not None:
        stats["reduce"] = route
    return out


def _dfa_classes(a: core.Automaton, prune_entries: bool) -> list[list[int]] | None:
    """Hopcroft's classes of ``a`` when they are its simulation classes and
    nothing is pruned, else None: ``a`` has at most one move per state and
    symbol and is complete or co-trim, and with ``prune_entries`` every
    entry set meets at most one class, or a dominated entry could be dropped.
    """
    n = a.num_states
    if not core._deterministic_moves(a):
        return None
    if not (a._trim or core.is_complete(a) or len(core._coreachable(a)) == n):
        return None
    classes = _hopcroft_classes(a)
    if prune_entries and any(len(s) > 1 for s in a.entry_sets):
        class_of = [0] * n
        for ci, members in enumerate(classes):
            for q in members:
                class_of[q] = ci
        if any(len({class_of[q] for q in s}) > 1 for s in a.entry_sets):
            return None
    return classes


def simulation_reduce(a: Nfa, *, stats: dict | None = None) -> Nfa:
    """Merge simulation-equivalent states and prune dominated transitions.
    With ``stats`` the route taken is recorded under ``"reduce"``."""
    return _quotient_and_prune(a, False, stats)


def simulation_reduce_port(a: PortNfa, *, stats: dict | None = None) -> PortNfa:
    """Port-aware simulation reduction: respects every exit set separately.

    A state q may simulate p only if q belongs to every exit set p belongs
    to, which makes the quotient and the little-brother pruning sound for
    every slice at once.  Entry sets additionally drop members dominated by
    another member of the same set.  With ``stats`` the route taken is
    recorded under ``"reduce"``.
    """
    return _quotient_and_prune(a, True, stats)
