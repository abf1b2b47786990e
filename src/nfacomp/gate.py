"""Gate complementation.

A gate partition is a sequential split whose transfer symbols Γ are absent
from one side, the clean side.  The complement is the union of two halves,
built from a complement c1 of the front and a complement c2 of the rear; the
clean side is complemented over Σ∖Γ, its powerset explored in place with
the Γ rows skipped, and the other over Σ.

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
the component that holds them.

The constructions need a side condition to be sound; ``check_equal`` and
``check_disjoint`` decide the two published variants, ``find_gate_partitions``
searches the SCC condensation for usable splits, and ``gate_complement_auto``
is the end-to-end driver the CLI uses.
"""

from __future__ import annotations

import dataclasses
import enum
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
    """A sequential split qualified for gate complementation."""

    base: SequentialPartition
    gate_symbols: frozenset[str]
    direction: GateDirection
    method: GateMethod
    needs_intersection: bool

    def __post_init__(self):
        alphabet = self.base.source.alphabet
        transfer_syms = frozenset(alphabet[sym] for (_x, sym, _t) in self.base.transfer)
        if self.gate_symbols != transfer_syms:
            raise ValueError("gate_symbols must equal the transfer-transition symbols")
        gamma_ids = {self.base.source.symbol_ids[s] for s in self.gate_symbols}
        if self.direction is GateDirection.FRONT_CLEAN:
            dirty = _internal_symbols(self.base.front) & gamma_ids
        else:
            dirty = _internal_symbols(self.base.rear) & gamma_ids
        if dirty:
            names = sorted(alphabet[s] for s in dirty)
            raise ValueError(f"{self.direction.value} partition carries gate symbols {names}")

    @property
    def gamma_ids(self) -> frozenset[int]:
        return frozenset(self.base.source.symbol_ids[s] for s in self.gate_symbols)


def _internal_symbols(p: PortNfa) -> set[int]:
    return {sym for (_src, sym, _dst) in p.transitions}


def _smaller_complement(
    a: core.Automaton,
    *,
    budget: int | None = None,
    log: list | None = None,
    side: str = "",
    skip: frozenset[int] = frozenset(),
) -> core.Automaton:
    """The smaller of the trimmed forward and reverse powerset complements, ties forward.

    Both directions are explored, and only the smaller is built.  A
    direction that runs out of budget is passed over; when both do, the last
    error is raised.  With ``log`` one entry is appended: ``side``, each
    direction's trimmed size (or ``"budget"``) and the direction chosen.
    A clean side passes its gate symbols as ``skip``: it is complemented
    over Σ∖Γ, with no transition on Γ, but comes out over Σ.
    """
    explored = {}
    failure = None
    for direction in Direction:
        reverse = direction is Direction.REVERSE
        try:
            explored[direction] = _explore_port(a, budget, complement=True, trim=True, reverse=reverse, skip=skip)
        except BudgetExceededError as exc:
            failure = exc
    if not explored:
        raise failure
    chosen = min(explored, key=lambda d: explored[d].size)
    if log is not None:
        sizes = {d.value: explored[d].size if d in explored else "budget" for d in Direction}
        log.append({"side": side, **sizes, "chosen": chosen.value})
    return _build(a, explored[chosen])


# ---------------------------------------------------------------------------
# The two halves


def _sink_half(c1, gamma: list[int], carried: tuple[int, ...], num_exit: int, loops):
    """C_pre: c1 plus a sink s.

    c1's exit ports are the outer exits listed in ``carried``, then one per
    gate symbol in ``gamma``; each of those enters s on its symbol.  s loops
    on ``loops`` and lies in all ``num_exit`` exit sets.
    """
    s = c1.num_states
    trans = set(c1.transitions)
    for k, cid in enumerate(gamma):
        trans.update((q, cid, s) for q in c1.exit_sets[len(carried) + k])
    trans.update((s, sym, s) for sym in loops)
    exit_of = dict(zip(carried, c1.exit_sets))
    return core._rebuild(
        c1,
        s + 1,
        frozenset(trans),
        c1.entry_sets,
        [exit_of.get(j, frozenset()) | {s} for j in range(num_exit)],
        core._uniquify([c1.state_name(q) for q in range(s)] + ["s"]),
    )


def _suffix_half(head, c2, dispatch, gate_start: int = 0):
    """C_suf: the head's states, then c2's.

    Each (x, sym, k) of ``dispatch`` leads from head state x on sym into c2's
    entry port ``gate_start + k``.  c2's entry ports before ``gate_start`` are
    outer entries and join the head's entry sets of the same index.
    """
    h = head.num_states
    trans = set(head.transitions)
    trans.update((src + h, sym, dst + h) for (src, sym, dst) in c2.transitions)
    for (x, sym, k) in dispatch:
        trans.update((x, sym, q + h) for q in c2.entry_sets[gate_start + k])

    def shifted(states):
        return frozenset(q + h for q in states)

    entries = [e | shifted(c2.entry_sets[i]) if i < gate_start else e
               for i, e in enumerate(head.entry_sets)]
    names = [head.state_name(q) for q in range(h)] + [c2.state_name(q) for q in range(c2.num_states)]
    return core._rebuild(
        c2,
        h + c2.num_states,
        frozenset(trans),
        entries,
        [e | shifted(f) for e, f in zip(head.exit_sets, c2.exit_sets)],
        core._uniquify(names),
    )


def _dispatcher(like, loops, entry_sets, exit_sets):
    """The one-state head t of ``like``'s class, looping on ``loops``."""
    return core._rebuild(
        like, 1, frozenset((0, sym, 0) for sym in loops), entry_sets, exit_sets, ("t",)
    )


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
    c_pre = _sink_half(c1, [cid], (), 1, syms)
    t = _dispatcher(c2, [sym for sym in syms if sym != cid], [{0}], [{0}])
    return core.union(c_pre, _suffix_half(t, c2, [(0, cid, 0)]))


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
    c1_in = dataclasses.replace(
        front,
        exit_sets=tuple(front.exit_sets[j] for j in carried) + base.inner_exit_ports_front,
    )
    c2_in = base.rear_for_equal() if p.method is GateMethod.EQUAL else base.rear_for_targets()
    if p.direction is GateDirection.FRONT_CLEAN:
        c2_in = dataclasses.replace(c2_in, entry_sets=c2_in.entry_sets[base.rear.num_entry :])
        c1 = _smaller_complement(c1_in, budget=budget, log=log, side="front", skip=p.gamma_ids)
        return c1, _smaller_complement(c2_in, budget=budget, log=log, side="rear")
    c1 = _smaller_complement(c1_in, budget=budget, log=log, side="front")
    return c1, _smaller_complement(c2_in, budget=budget, log=log, side="rear", skip=p.gamma_ids)


def apply_gate_complement(p: GatePartition, *, budget: int | None = None) -> PortNfa:
    """The gate complement of ``p.base.source``, port set by port set.

    With offending outer ports (rear entries for front-clean, front exits
    for rear-clean), the gate complement of the source without them is
    intersected with a complement of the component that holds them.
    """
    return _gate_complement(p, budget, None)


def _gate_complement(p: GatePartition, budget: int | None, log: list | None) -> PortNfa:
    """``apply_gate_complement``, logging each component complement to ``log``."""
    base = p.base
    front_clean = p.direction is GateDirection.FRONT_CLEAN
    if p.needs_intersection:
        stripped = GatePartition(
            _strip_outer(base, entries_to_front=front_clean),
            p.gate_symbols,
            p.direction,
            p.method,
            needs_intersection=False,
        )
        left = _gate_complement(stripped, budget, log)
        right = _smaller_complement(
            base.rear if front_clean else base.front, budget=budget, log=log, side="intersection"
        )
        return core.product_intersection(left, right)

    front = base.front
    gamma = list(base.gate_symbols)
    syms = range(len(base.source.alphabet))
    clean_syms = [sym for sym in syms if sym not in p.gamma_ids]
    carried = _carried_exits(p)
    c1, c2 = _component_complements(p, carried, budget=budget, log=log)
    # Front-clean: s loops on Σ and t on Σ∖Γ.  Rear-clean reverses the
    # roles, so that the gate is the last Γ symbol of the word.
    c_pre = _sink_half(c1, gamma, carried, front.num_exit, syms if front_clean else clean_syms)
    gate_start = 0 if front_clean else base.rear.num_entry
    if p.method is GateMethod.EQUAL:
        head = _dispatcher(
            c2,
            clean_syms if front_clean else syms,
            [{0}] * front.num_entry,
            [{0} if front_clean and not e else frozenset() for e in front.exit_sets],
        )
        dispatch = [(0, cid, k) for k, cid in enumerate(gamma)]
    else:
        head = dataclasses.replace(front, exit_sets=(frozenset(),) * front.num_exit)
        port = {t: k for k, t in enumerate(base.gate_targets)}
        dispatch = [(base.front_index[x], sym, port[t]) for (x, sym, t) in base.transfer]
    return core.union(c_pre, _suffix_half(head, c2, dispatch, gate_start))


def _strip_outer(base: SequentialPartition, *, entries_to_front: bool) -> SequentialPartition:
    """Remove the offending outer ports (rear entries, or front exits) from the source."""
    src = base.source
    front_set = frozenset(base.front_states)
    if entries_to_front:
        stripped = dataclasses.replace(src, entry_sets=tuple(e & front_set for e in src.entry_sets))
    else:
        stripped = dataclasses.replace(src, exit_sets=tuple(f - front_set for f in src.exit_sets))
    return SequentialPartition.of(stripped, base.front_states)


# ---------------------------------------------------------------------------
# Input conditions


def _front_clean_view(p: GatePartition) -> GatePartition:
    """p itself, or its reversal when p is rear-clean (conditions mirror)."""
    if p.direction is GateDirection.FRONT_CLEAN:
        return p
    rev = core.reverse(p.base.source)
    base = SequentialPartition.of(rev, p.base.rear_states)
    return GatePartition(
        base, p.gate_symbols, GateDirection.FRONT_CLEAN, p.method, p.needs_intersection
    )


def _prefix_language(base: SequentialPartition, i: int, finals: frozenset[int]) -> Nfa:
    return dataclasses.replace(base.front.slice(i, 0), final=finals)


def _suffix_language(base: SequentialPartition, starts: frozenset[int], j: int) -> Nfa:
    return dataclasses.replace(base.rear.slice(0, j), initial=starts)


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
    """
    dag = core.scc_condensation(a)
    m = len(dag.components)
    if m <= 1:
        return []
    cuts = _downward_closed_cuts(dag)
    if cuts is None:
        cuts = [tuple(range(k + 1)) for k in range(m - 1)]
    out = []
    for cut in cuts:
        front_states = sorted(q for k in cut for q in dag.components[k])
        base = SequentialPartition.of(a, front_states)
        if not base.transfer:
            continue
        gamma_ids = {sym for (_x, sym, _t) in base.transfer}
        if len(gamma_ids) == len(a.alphabet):
            continue  # nothing left to complement the clean side over
        front_clean = not (_internal_symbols(base.front) & gamma_ids)
        rear_clean = not (_internal_symbols(base.rear) & gamma_ids)
        if front_clean:
            direction = GateDirection.FRONT_CLEAN
            needs = any(base.rear.entry_sets)
        elif rear_clean:
            direction = GateDirection.REAR_CLEAN
            needs = any(base.front.exit_sets)
        else:
            continue
        gate_symbols = frozenset(a.alphabet[sym] for sym in gamma_ids)
        candidate = GatePartition(base, gate_symbols, direction, GateMethod.EQUAL, needs)
        try:
            if check_equal(candidate, budget=check_budget):
                out.append(candidate)
                continue
            candidate = GatePartition(base, gate_symbols, direction, GateMethod.DISJOINT, needs)
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
