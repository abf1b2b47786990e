"""Gate complementation.

A gate partition is a sequential split whose transfer symbols Γ are absent
from one side, the clean side.  The complement is the union of two halves,
built from c1 and c2, the smaller of the forward and reverse powerset
complements of the front and of the rear, which ``powerset`` explores in
lockstep.  The clean side is complemented over Σ∖Γ, its powerset explored
in place with the Γ rows skipped, the other over Σ.  Both halves are laid
out in one automaton, in the order c1, s, head, c2.

- C_pre = c1 + s catches the words whose prefix fails the front: c1's gate
  exits enter a fresh sink s on their Γ symbol.
- C_suf = head + c2 catches the words whose suffix fails the rear: the head
  enters c2 on a gate symbol.  For the Equal method the head is a fresh
  dispatcher t, and c2 has one gate entry port per gate symbol; for the
  Disjoint method it is the raw front, and c2 has one per gate target.

The direction decides which side is clean, and with it three things.
Front-clean, s loops on Σ and t on Σ∖Γ, c2 carries no outer entry ports,
and t is in every exit set the front leaves empty.  Rear-clean swaps the two
loops (the gate is then the last Γ symbol of the word), c2 keeps its outer
entries, which join C_suf's entry sets, and t is in no exit set.  When the
offending outer ports exist (rear entries for front-clean, front exits for
rear-clean), the complement without them is intersected with a complement of
the component that holds them.  A rear-clean split is checked through its
mirror, built from the reversed parts, never from a reversed whole.

The constructions need a side condition to be sound; ``check_equal`` and
``check_disjoint`` decide the two published variants, ``find_gate_partitions``
searches the SCC condensation for usable splits, and ``gate_complement_auto``
is the end-to-end driver the CLI uses.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import itertools

from . import core
from .core import Nfa, PortNfa, SequentialPartition
from .errors import BudgetExceededError, NoGatePartitionError
from .powerset import Direction, _build, _explore_port


class GateDirection(enum.Enum):
    FRONT_CLEAN = "front-clean"
    REAR_CLEAN = "rear-clean"


class GateMethod(enum.Enum):
    EQUAL = "equal"
    DISJOINT = "disjoint"


@dataclasses.dataclass(frozen=True)
class GatePartition:
    """A sequential split qualified for gate complementation.  Its gate
    symbols are those of its transfer, and it needs an intersection when
    the offending outer ports exist (rear entries for front-clean, front
    exits for rear-clean)."""

    base: SequentialPartition
    direction: GateDirection
    method: GateMethod

    def __post_init__(self):
        side = self.base.front if self.direction is GateDirection.FRONT_CLEAN else self.base.rear
        dirty = {sym for (_src, sym, _dst) in side.transitions} & self.gamma_ids
        if dirty:
            names = sorted(side.alphabet[s] for s in dirty)
            raise ValueError(f"{self.direction.value} partition carries gate symbols {names}")

    @functools.cached_property
    def gamma_ids(self) -> frozenset[int]:
        return frozenset(self.base.gate_symbols)

    @property
    def gate_symbols(self) -> frozenset[str]:
        return frozenset(self.base.front.alphabet[sym] for sym in self.base.gate_symbols)

    @property
    def needs_intersection(self) -> bool:
        if self.direction is GateDirection.FRONT_CLEAN:
            return any(self.base.rear.entry_sets)
        return any(self.base.front.exit_sets)


def _smaller_complement(
    a: core.Automaton,
    *,
    budget: int | None = None,
    log: list | None = None,
    side: str = "",
    skip: frozenset[int] = frozenset(),
) -> core.Automaton:
    """The smaller of the trimmed forward and reverse powerset complements
    (``powerset._explore_port``), built once.  A clean side passes its gate
    symbols as ``skip``: complemented over Σ∖Γ, it comes out over Σ."""
    return _build(a, _explore_port(a, budget, True, tuple(Direction), skip, log, side))


# ---------------------------------------------------------------------------
# The two halves, laid out in one automaton


def _assemble(c1, c2, gamma: list[int], carried: tuple[int, ...], sink_loops, head, dispatch, gate_start: int = 0):
    """C_pre ∪ C_suf in one automaton: c1, a sink s, the head, then c2.

    c1's exit ports are the outer exits listed in ``carried``, then one per
    gate symbol in ``gamma``, which enters s on its symbol.  s loops on
    ``sink_loops`` and lies in every exit set.  ``head`` is the (names,
    transitions, entry sets, exit sets) of the dispatcher t or of the front;
    each (x, sym, k) of ``dispatch`` leads from head state x on sym into c2's
    entry port ``gate_start + k``.  c2's entry ports before ``gate_start``
    are outer entries and join the entry sets of the same index.
    """
    names, head_transitions, head_entries, head_exits = head
    s = c1.num_states
    h = s + 1  # the head's first state
    r = h + len(names)  # c2's first state
    trans = set(c1._edges())
    for k, cid in enumerate(gamma):
        trans.update((q, cid, s) for q in c1.exit_sets[len(carried) + k])
    trans.update((s, sym, s) for sym in sink_loops)
    trans.update((src + h, sym, dst + h) for (src, sym, dst) in head_transitions)
    trans.update((src + r, sym, dst + r) for (src, sym, dst) in c2._edges())
    for (x, sym, k) in dispatch:
        trans.update((x + h, sym, q + r) for q in c2.entry_sets[gate_start + k])

    def shifted(states, by):
        return frozenset(q + by for q in states)

    entries = [
        c1.entry_sets[i] | shifted(e, h) | (shifted(c2.entry_sets[i], r) if i < gate_start else frozenset())
        for i, e in enumerate(head_entries)
    ]
    exit_of = dict(zip(carried, c1.exit_sets))
    exits = [
        exit_of.get(j, frozenset()) | {s} | shifted(e, h) | shifted(f, r)
        for j, (e, f) in enumerate(zip(head_exits, c2.exit_sets))
    ]
    # Names are made unique within each half first, then across the two.
    pre = core._uniquify([c1.state_name(q) for q in range(s)] + ["s"])
    suf = core._uniquify(names + [c2.state_name(q) for q in range(c2.num_states)])
    return core._derived(c1, r + c2.num_states, entries, exits, core._uniquify(pre + suf), transitions=frozenset(trans))


# ---------------------------------------------------------------------------
# Basic construction (single transfer transition)


def gate_complement_basic(a1: Nfa, a2: Nfa, c: str, *, budget: int | None = None) -> Nfa:
    """Complement of the automaton a1 →c→ a2 with a single gate on c.

    C_pre is a complement of a1 (over Σ∖{c}) feeding a sink s on c; C_suf is a
    dispatcher t feeding a complement of a2.  Always |C| = |C₁| + |C₂| + 2.
    """
    if a1.alphabet != a2.alphabet:
        raise ValueError("components must share one alphabet")
    if c not in a1.symbol_ids:
        raise ValueError(f"symbol {c!r} not in the alphabet")
    cid = a1.symbol_ids[c]
    c1 = _smaller_complement(a1, budget=budget, skip=frozenset({cid}))
    c2 = _smaller_complement(a2, budget=budget)
    syms = range(len(a1.alphabet))
    t = (["t"], [(0, sym, 0) for sym in syms if sym != cid], [{0}], [{0}])
    return _assemble(c1, c2, [cid], (), syms, t, [(0, cid, 0)])


# ---------------------------------------------------------------------------
# Generalized constructions


def _carried_exits(p: GatePartition) -> tuple[int, ...]:
    """The outer exit ports c1 carries.

    An empty outer exit is caught by s and t instead, which keeps the
    complement trimmable; front-clean Disjoint has no t, so there c1
    carries every outer exit.
    """
    front = p.base.front
    if p.direction is GateDirection.FRONT_CLEAN and p.method is GateMethod.DISJOINT:
        return tuple(range(front.num_exit))
    return tuple(j for j in range(front.num_exit) if front.exit_sets[j])


def _component_complements(
    p: GatePartition, carried: tuple[int, ...], *, budget: int | None = None, log: list | None = None
) -> tuple[PortNfa, PortNfa]:
    """(c1, c2): port complements of the front and of the rear.

    c1's exit ports are the ``carried`` outer exits, then one per gate symbol
    holding that symbol's gate sources.  c2's entry ports are one per gate
    symbol (Equal) or per gate target (Disjoint), after the rear's outer
    entries, which front-clean drops.  The clean side is complemented over
    Σ∖Γ, the other over Σ.
    """
    base = p.base
    front = base.front
    c1_in = core._view(front, exit_sets=tuple(front.exit_sets[j] for j in carried) + base.inner_exit_ports_front)
    c2_in = base.rear_for_equal() if p.method is GateMethod.EQUAL else base.rear_for_targets()
    if p.direction is GateDirection.FRONT_CLEAN:
        c2_in = core._view(c2_in, entry_sets=c2_in.entry_sets[base.rear.num_entry :])
        c1 = _smaller_complement(c1_in, budget=budget, log=log, side="front", skip=p.gamma_ids)
        return c1, _smaller_complement(c2_in, budget=budget, log=log, side="rear")
    c1 = _smaller_complement(c1_in, budget=budget, log=log, side="front")
    return c1, _smaller_complement(c2_in, budget=budget, log=log, side="rear", skip=p.gamma_ids)


def apply_gate_complement(p: GatePartition, *, budget: int | None = None) -> PortNfa:
    """The gate complement of the automaton ``p.base`` splits, port set by port set.

    With offending outer ports (rear entries for front-clean, front exits
    for rear-clean), the gate complement of the split without them is
    intersected with a complement of the component that holds them.
    """
    return _gate_complement(p, budget, None)


def _gate_complement(p: GatePartition, budget: int | None, log: list | None) -> PortNfa:
    """``apply_gate_complement``, logging each component complement to ``log``."""
    base = p.base
    front_clean = p.direction is GateDirection.FRONT_CLEAN
    if p.needs_intersection:
        stripped = _strip_outer(base, entries_to_front=front_clean)
        left = _gate_complement(dataclasses.replace(p, base=stripped), budget, log)
        right = _smaller_complement(
            base.rear if front_clean else base.front, budget=budget, log=log, side="intersection"
        )
        return core.product_intersection(left, right)

    front = base.front
    gamma = list(base.gate_symbols)
    syms = range(len(front.alphabet))
    clean_syms = [sym for sym in syms if sym not in p.gamma_ids]
    carried = _carried_exits(p)
    c1, c2 = _component_complements(p, carried, budget=budget, log=log)
    # Front-clean: s loops on Σ and t on Σ∖Γ.  Rear-clean reverses the
    # roles, so that the gate is the last Γ symbol of the word.
    if p.method is GateMethod.EQUAL:
        head = (
            ["t"],
            [(0, sym, 0) for sym in (clean_syms if front_clean else syms)],
            [{0}] * front.num_entry,
            [{0} if front_clean and not e else frozenset() for e in front.exit_sets],
        )
        dispatch = [(0, cid, k) for k, cid in enumerate(gamma)]
    else:
        names = [front.state_name(q) for q in range(front.num_states)]
        head = (names, front.transitions, front.entry_sets, [frozenset()] * front.num_exit)
        port = {t: k for k, t in enumerate(base.gate_targets)}
        dispatch = [(base.front_index[x], sym, port[t]) for (x, sym, t) in base.transfer]
    gate_start = 0 if front_clean else base.rear.num_entry
    return _assemble(c1, c2, gamma, carried, syms if front_clean else clean_syms, head, dispatch, gate_start)


def _strip_outer(base: SequentialPartition, *, entries_to_front: bool) -> SequentialPartition:
    """``base`` without its offending outer ports: the rear's entry sets, or
    the front's exit sets, emptied on the one part that holds them."""
    if entries_to_front:
        rear = base.rear
        return dataclasses.replace(base, rear=core._view(rear, entry_sets=(frozenset(),) * rear.num_entry))
    front = base.front
    return dataclasses.replace(base, front=core._view(front, exit_sets=(frozenset(),) * front.num_exit))


# ---------------------------------------------------------------------------
# Input conditions


def _front_clean_view(p: GatePartition) -> GatePartition:
    """p itself, or its mirror when p is rear-clean (the conditions mirror).

    The mirror's front is the reversed rear, its rear the reversed front and
    its transfer the flipped gates, in the same state ids.
    """
    if p.direction is GateDirection.FRONT_CLEAN:
        return p
    b = p.base
    flipped = tuple(sorted((t, sym, x) for (x, sym, t) in b.transfer))
    base = SequentialPartition(b.rear_states, b.front_states, core.reverse(b.rear), core.reverse(b.front), flipped)
    return dataclasses.replace(p, base=base, direction=GateDirection.FRONT_CLEAN)


def _prefix_language(base: SequentialPartition, i: int, finals: frozenset[int]) -> Nfa:
    return core._view(base.front.slice(i, 0), exit_sets=(finals,))


def _suffix_language(base: SequentialPartition, starts: frozenset[int], j: int) -> Nfa:
    return core._view(base.rear.slice(0, j), entry_sets=(starts,))


def check_equal(p: GatePartition, *, budget: int | None = None) -> bool:
    """All gates of one symbol are interchangeable: the front language into the
    full target set equals the language into every single target."""
    view = _front_clean_view(p)
    base = view.base
    by_symbol: dict[int, set[tuple[int, int]]] = {}
    for (x, sym, t) in base.transfer:
        by_symbol.setdefault(sym, set()).add((x, t))
    for sym, gates in sorted(by_symbol.items()):
        targets = sorted({t for (_x, t) in gates})
        if len(targets) <= 1:
            continue
        # language into the full target set == into each target, per entry port
        per_target_sources = {
            t: frozenset(base.front_index[x] for (x, tt) in gates if tt == t) for t in targets
        }
        all_sources = frozenset(q for srcs in per_target_sources.values() for q in srcs)
        for i in range(base.front.num_entry):
            whole = _prefix_language(base, i, all_sources)
            for t in targets:
                one = _prefix_language(base, i, per_target_sources[t])
                if not core.language_equivalent(whole, one, budget=budget):
                    return False
    return True


def check_disjoint(p: GatePartition, *, budget: int | None = None) -> bool:
    """Gates of one symbol either have disjoint prefix languages or equal
    suffix languages, per entry/exit port pair."""
    view = _front_clean_view(p)
    base = view.base
    by_symbol: dict[int, list[tuple[int, int]]] = {}
    for (x, sym, t) in base.transfer:
        by_symbol.setdefault(sym, []).append((x, t))
    for sym, gates in sorted(by_symbol.items()):
        gates = sorted(set(gates))
        for (g1, g2) in itertools.combinations(gates, 2):
            (x1, t1), (x2, t2) = g1, g2
            if t1 == t2:
                continue
            overlap = False
            for i in range(base.front.num_entry):
                u = _prefix_language(base, i, frozenset({base.front_index[x1]}))
                v = _prefix_language(base, i, frozenset({base.front_index[x2]}))
                if not core.language_disjoint(u, v):
                    overlap = True
                    break
            if not overlap:
                continue
            s1 = frozenset({base.rear_index[t1]})
            s2 = frozenset({base.rear_index[t2]})
            for j in range(base.rear.num_exit):

                if not core.language_equivalent(
                    _suffix_language(base, s1, j), _suffix_language(base, s2, j), budget=budget
                ):
                    return False
    return True


# ---------------------------------------------------------------------------
# Partition search and selection


_CUT_CAP = 4096


def _downward_closed_cuts(dag: core.SccDag) -> list[tuple[int, ...]] | None:
    m = len(dag.components)
    preds: dict[int, set[int]] = {k: set() for k in range(m)}
    for (i, j, _cap) in dag.edges:
        preds[j].add(i)
    ideals = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        cur = frontier.pop()
        for k in range(m):
            if k not in cur and preds[k] <= cur:
                nxt = cur | {k}
                if nxt not in ideals:
                    if len(ideals) > _CUT_CAP + 1:
                        return None
                    ideals.add(nxt)
                    frontier.append(nxt)
    full = frozenset(range(m))
    cuts = [tuple(sorted(s)) for s in ideals if s and s != full]
    cuts.sort(key=lambda cut: (len(cut), cut))
    return cuts


def find_gate_partitions(a: PortNfa, *, check_budget: int | None = None) -> list[GatePartition]:
    """Every qualifying split of the SCC condensation, tagged Equal/Disjoint.

    Candidate fronts are downward-closed unions of condensation components
    (topological prefixes when there are more than ``_CUT_CAP`` of them);
    candidates whose gate symbols appear inside both components are dropped,
    as are those failing both input conditions or blowing the check budget.
    A cut is split only once its symbols qualify.
    """
    dag = core.scc_condensation(a)
    m = len(dag.components)
    if m <= 1:
        return []
    cuts = _downward_closed_cuts(dag)
    if cuts is None:
        cuts = [tuple(range(k + 1)) for k in range(m - 1)]
    comp_of = {q: k for k, comp in enumerate(dag.components) for q in comp}
    moves = {(comp_of[src], sym, comp_of[dst]) for (src, sym, dst) in a.transitions}
    out = []
    for cut in cuts:
        in_front = set(cut)
        gamma_ids, front_syms, rear_syms = set(), set(), set()
        for (i, sym, j) in moves:
            if i not in in_front:
                rear_syms.add(sym)  # no move enters a cut, which is closed under predecessors
            elif j in in_front:
                front_syms.add(sym)
            else:
                gamma_ids.add(sym)
        if not gamma_ids or len(gamma_ids) == len(a.alphabet):
            continue  # no gate, or nothing left to complement the clean side over
        if not front_syms & gamma_ids:
            direction = GateDirection.FRONT_CLEAN
        elif not rear_syms & gamma_ids:
            direction = GateDirection.REAR_CLEAN
        else:
            continue
        base = SequentialPartition.of(a, sorted(q for k in cut for q in dag.components[k]))
        candidate = GatePartition(base, direction, GateMethod.EQUAL)
        try:
            if check_equal(candidate, budget=check_budget):
                out.append(candidate)
                continue
            candidate = GatePartition(base, direction, GateMethod.DISJOINT)
            if check_disjoint(candidate, budget=check_budget):
                out.append(candidate)
        except BudgetExceededError:
            continue
    return out


def select_partition(ps: list[GatePartition]) -> GatePartition | None:
    """Prefer no-intersection, then Equal, then the most balanced split."""
    if not ps:
        return None
    pool = [p for p in ps if not p.needs_intersection] or list(ps)
    equal = [p for p in pool if p.method is GateMethod.EQUAL]
    pool = equal or pool
    return min(
        pool,
        key=lambda p: (
            abs(len(p.base.front_states) - len(p.base.rear_states)),
            p.base.front_states,
        ),
    )


# ---------------------------------------------------------------------------
# Driver


def gate_complement_auto(
    a: Nfa,
    *,
    budget: int | None = None,
    check_budget: int | None = None,
    stats: dict | None = None,
) -> Nfa:
    """find → select → construct; raises NoGatePartitionError when stuck."""
    p0 = a.as_port()
    chosen = select_partition(find_gate_partitions(p0, check_budget=check_budget))
    if chosen is None:
        raise NoGatePartitionError("no usable gate partition")
    log = None
    if stats is not None:
        stats["direction"] = chosen.direction.value
        stats["method"] = chosen.method.value
        stats["needs_intersection"] = chosen.needs_intersection
        stats["gate_symbols"] = sorted(chosen.gate_symbols)
        stats["front_states"] = len(chosen.base.front_states)
        stats["rear_states"] = len(chosen.base.rear_states)
        log = stats["complements"] = []
    return _gate_complement(chosen, budget, log).slice(0, 0)
