"""Gate complementation.

A gate partition is a sequential split whose transfer symbols Γ are absent
from one side.  The complement is then a union of two halves: C_pre catches
words whose prefix cannot reach a gate (funnelled into a fresh sink s), and
C_suf catches words whose suffix avoids the rear component (dispatched from a
fresh state t, or straight out of the raw front for the Disjoint method).

The constructions need a side condition to be sound; ``check_equal`` and
``check_disjoint`` decide the two published variants, ``find_gate_partitions``
searches the SCC condensation for usable splits, and ``gate_complement_auto``
is the end-to-end driver the CLI uses.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from . import core
from .core import Nfa, PortNfa, SequentialPartition
from .errors import BudgetExceededError, NoGatePartitionError
from .powerset import forward_complement, reverse_complement


class GateDirection(enum.Enum):
    FRONT_CLEAN = "front-clean"
    REAR_CLEAN = "rear-clean"


class GateMethod(enum.Enum):
    EQUAL = "equal"
    DISJOINT = "disjoint"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class GateComplement:
    """The two halves of a gate complement and their port union."""

    c_pre: PortNfa
    c_suf: PortNfa
    combined: PortNfa


def _internal_symbols(p: PortNfa) -> set[int]:
    return {sym for (_src, sym, _dst) in p.transitions}


# ---------------------------------------------------------------------------
# Alphabet plumbing


def _drop_symbols_port(p: PortNfa, gamma_ids: frozenset[int]) -> PortNfa:
    keep = [k for k in range(len(p.alphabet)) if k not in gamma_ids]
    if not keep:
        raise ValueError("cannot complement over an empty alphabet")
    remap = {old: new for new, old in enumerate(keep)}
    trans = set()
    for (src, sym, dst) in p.transitions:
        if sym in gamma_ids:
            raise ValueError("component still carries a gate symbol")
        trans.add((src, remap[sym], dst))
    return PortNfa(
        tuple(p.alphabet[k] for k in keep),
        p.num_states,
        frozenset(trans),
        p.entry_sets,
        p.exit_sets,
        state_names=p.state_names,
    )


def _lift_alphabet_port(p: PortNfa, full: tuple[str, ...]) -> PortNfa:
    pos = {s: i for i, s in enumerate(full)}
    remap = {k: pos[s] for k, s in enumerate(p.alphabet)}
    return PortNfa(
        full,
        p.num_states,
        frozenset((src, remap[sym], dst) for (src, sym, dst) in p.transitions),
        p.entry_sets,
        p.exit_sets,
        state_names=p.state_names,
    )


def _drop_symbol_nfa(a: Nfa, c: str) -> Nfa:
    keep = [s for s in a.alphabet if s != c]
    if not keep:
        raise ValueError("cannot complement over an empty alphabet")
    cid = a.symbol_ids[c]
    if any(sym == cid for (_src, sym, _dst) in a.transitions):
        raise ValueError(f"component still carries the gate symbol {c!r}")
    remap = {a.symbol_ids[s]: i for i, s in enumerate(keep)}
    return Nfa(
        tuple(keep),
        a.num_states,
        frozenset((src, remap[sym], dst) for (src, sym, dst) in a.transitions),
        a.initial,
        a.final,
        state_names=a.state_names,
    )


def _lift_alphabet_nfa(a: Nfa, full: tuple[str, ...]) -> Nfa:
    pos = {s: i for i, s in enumerate(full)}
    remap = {k: pos[s] for k, s in enumerate(a.alphabet)}
    return Nfa(
        full,
        a.num_states,
        frozenset((src, remap[sym], dst) for (src, sym, dst) in a.transitions),
        a.initial,
        a.final,
        state_names=a.state_names,
    )


def _smaller_complement(a: core.Automaton, *, budget: int | None = None) -> core.Automaton:
    """Forward and reverse powerset complement; the smaller wins, ties forward."""
    results = []
    failure = None
    for op in (forward_complement, reverse_complement):
        try:
            results.append(op(a, budget=budget))
        except BudgetExceededError as exc:
            failure = exc
    if not results:
        raise failure
    return min(results, key=lambda c: c.num_states)


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
    c1 = _lift_alphabet_nfa(
        _smaller_complement(_drop_symbol_nfa(a1, c), budget=budget), a1.alphabet
    )
    c2 = _smaller_complement(a2, budget=budget)
    n1 = c1.num_states
    s = n1
    t = n1 + 1
    off = n1 + 2
    trans = set(c1.transitions)
    trans.update((qf, cid, s) for qf in c1.final)
    trans.update((s, sym, s) for sym in range(len(a1.alphabet)))
    trans.update((t, sym, t) for sym in range(len(a1.alphabet)) if sym != cid)
    trans.update((t, cid, q + off) for q in c2.initial)
    trans.update((src + off, sym, dst + off) for (src, sym, dst) in c2.transitions)
    names = core._uniquify(
        [c1.state_name(q) for q in range(n1)]
        + ["s", "t"]
        + [c2.state_name(q) for q in range(c2.num_states)]
    )
    return Nfa(
        a1.alphabet,
        off + c2.num_states,
        frozenset(trans),
        c1.initial | {t},
        frozenset({s, t}) | frozenset(q + off for q in c2.final),
        state_names=names,
    )


# ---------------------------------------------------------------------------
# Component complements for the generalized constructions


def equal_complement_inputs(
    p: GatePartition, *, budget: int | None = None
) -> tuple[PortNfa, PortNfa]:
    """(c1, c2) for gate_complement_equal: front over Σ∖Γ, rear over Σ.

    c1 carries the outer entry ports, the nonempty outer exit ports, and one
    inner exit port per gate symbol; empty outer exits are covered by s and t
    instead, which keeps the complement trimmable.  c2 carries one inner
    entry port per gate symbol and every outer exit port.
    """
    base = p.base
    front = base.front
    entries = front.entry_sets
    kept_exits = [j for j in range(front.num_exit) if front.exit_sets[j]]
    inner = base.inner_exit_ports_front
    c1_in = PortNfa(
        front.alphabet,
        front.num_states,
        front.transitions,
        entries,
        tuple(front.exit_sets[j] for j in kept_exits) + inner,
        state_names=front.state_names,
    )
    alphabet = base.source.alphabet
    c1 = _lift_alphabet_port(
        _smaller_complement(_drop_symbols_port(c1_in, p.gamma_ids), budget=budget),
        alphabet,
    )
    rear_eq = base.rear_for_equal()
    c2_in = PortNfa(
        rear_eq.alphabet,
        rear_eq.num_states,
        rear_eq.transitions,
        rear_eq.entry_sets[base.rear.num_entry :],
        rear_eq.exit_sets,
        state_names=rear_eq.state_names,
    )
    c2 = _smaller_complement(c2_in, budget=budget)
    return c1, c2


def disjoint_complement_input(p: GatePartition, *, budget: int | None = None) -> PortNfa:
    """c2 for gate_complement_disjoint: rear over Σ, singleton inner entries."""
    base = p.base
    rear_t = base.rear_for_targets()
    c2_in = PortNfa(
        rear_t.alphabet,
        rear_t.num_states,
        rear_t.transitions,
        rear_t.entry_sets[base.rear.num_entry :],
        rear_t.exit_sets,
        state_names=rear_t.state_names,
    )
    return _smaller_complement(c2_in, budget=budget)


def _disjoint_front_complement(p: GatePartition, *, budget: int | None = None) -> PortNfa:
    # Without t, the ∅-exit slices must be caught by c1 itself, so every
    # outer exit port is carried through the complement here.
    base = p.base
    front = base.front
    c1_in = PortNfa(
        front.alphabet,
        front.num_states,
        front.transitions,
        front.entry_sets,
        front.exit_sets + base.inner_exit_ports_front,
        state_names=front.state_names,
    )
    return _lift_alphabet_port(
        _smaller_complement(_drop_symbols_port(c1_in, p.gamma_ids), budget=budget),
        base.source.alphabet,
    )


# ---------------------------------------------------------------------------
# Generalized constructions (FrontClean)


def _sorted_gamma(p: GatePartition) -> list[int]:
    return sorted(p.gamma_ids)


def gate_complement_equal(p: GatePartition, c1: PortNfa, c2: PortNfa) -> PortNfa:
    return gate_complement_equal_parts(p, c1, c2).combined


def gate_complement_equal_parts(p: GatePartition, c1: PortNfa, c2: PortNfa) -> GateComplement:
    """Union of C_pre = c1 + s and C_suf = t + c2 for an equal gate partition.

    c1/c2 must be the port complements described by equal_complement_inputs.
    """
    if p.direction is not GateDirection.FRONT_CLEAN or p.needs_intersection:
        raise ValueError("construction applies to front-clean partitions without outer rear entries")
    base = p.base
    alphabet = base.source.alphabet
    nsyms = len(alphabet)
    gamma = _sorted_gamma(p)
    front = base.front
    kept_exits = [j for j in range(front.num_exit) if front.exit_sets[j]]
    if c1.num_entry != front.num_entry or c1.num_exit != len(kept_exits) + len(gamma):
        raise ValueError("c1 ports do not line up with the partition")
    if c2.num_entry != len(gamma) or c2.num_exit != base.rear.num_exit:
        raise ValueError("c2 ports do not line up with the partition")

    # C_pre: c1 plus the sink s.
    s = c1.num_states
    pre_trans = set(c1.transitions)
    for k, cid in enumerate(gamma):
        pre_trans.update((q, cid, s) for q in c1.exit_sets[len(kept_exits) + k])
    pre_trans.update((s, sym, s) for sym in range(nsyms))
    exit_of = {j: pos for pos, j in enumerate(kept_exits)}
    pre_exits = tuple(
        (c1.exit_sets[exit_of[j]] if j in exit_of else frozenset()) | {s}
        for j in range(front.num_exit)
    )
    c_pre = PortNfa(
        alphabet,
        s + 1,
        frozenset(pre_trans),
        c1.entry_sets,
        pre_exits,
        state_names=core._uniquify([c1.state_name(q) for q in range(s)] + ["s"]),
    )

    # C_suf: the dispatcher t plus c2.
    suf_trans = set((src + 1, sym, dst + 1) for (src, sym, dst) in c2.transitions)
    suf_trans.update((0, sym, 0) for sym in range(nsyms) if sym not in p.gamma_ids)
    for k, cid in enumerate(gamma):
        suf_trans.update((0, cid, q + 1) for q in c2.entry_sets[k])
    suf_exits = tuple(
        frozenset(q + 1 for q in c2.exit_sets[j])
        | (frozenset({0}) if not front.exit_sets[j] else frozenset())
        for j in range(base.rear.num_exit)
    )
    c_suf = PortNfa(
        alphabet,
        c2.num_states + 1,
        frozenset(suf_trans),
        (frozenset({0}),) * front.num_entry,
        suf_exits,
        state_names=core._uniquify(
            ["t"] + [c2.state_name(q) for q in range(c2.num_states)]
        ),
    )
    return GateComplement(c_pre, c_suf, core.union(c_pre, c_suf))


def gate_complement_disjoint(p: GatePartition, c2: PortNfa, *, budget: int | None = None) -> PortNfa:
    return gate_complement_disjoint_parts(p, c2, budget=budget).combined


def gate_complement_disjoint_parts(
    p: GatePartition, c2: PortNfa, *, budget: int | None = None
) -> GateComplement:
    """C_pre as for Equal; C_suf embeds the raw front with gates redirected to c2.

    c2 must be the complement from disjoint_complement_input (one singleton
    inner entry port per gate target).
    """
    if p.direction is not GateDirection.FRONT_CLEAN or p.needs_intersection:
        raise ValueError("construction applies to front-clean partitions without outer rear entries")
    base = p.base
    alphabet = base.source.alphabet
    nsyms = len(alphabet)
    gamma = _sorted_gamma(p)
    front = base.front
    targets = base.gate_targets
    if c2.num_entry != len(targets) or c2.num_exit != base.rear.num_exit:
        raise ValueError("c2 ports do not line up with the partition")

    c1 = _disjoint_front_complement(p, budget=budget)
    s = c1.num_states
    pre_trans = set(c1.transitions)
    for k, cid in enumerate(gamma):
        pre_trans.update((q, cid, s) for q in c1.exit_sets[front.num_exit + k])
    pre_trans.update((s, sym, s) for sym in range(nsyms))
    c_pre = PortNfa(
        alphabet,
        s + 1,
        frozenset(pre_trans),
        c1.entry_sets,
        tuple(c1.exit_sets[j] | {s} for j in range(front.num_exit)),
        state_names=core._uniquify([c1.state_name(q) for q in range(s)] + ["s"]),
    )

    nf = front.num_states
    target_port = {t: k for k, t in enumerate(targets)}
    suf_trans = set(front.transitions)
    suf_trans.update((src + nf, sym, dst + nf) for (src, sym, dst) in c2.transitions)
    for (x, sym, t) in base.transfer:
        xl = base.front_index[x]
        suf_trans.update((xl, sym, q + nf) for q in c2.entry_sets[target_port[t]])
    c_suf = PortNfa(
        alphabet,
        nf + c2.num_states,
        frozenset(suf_trans),
        front.entry_sets,
        tuple(frozenset(q + nf for q in c2.exit_sets[j]) for j in range(base.rear.num_exit)),
        state_names=core._uniquify(
            [front.state_name(q) for q in range(nf)]
            + [c2.state_name(q) for q in range(c2.num_states)]
        ),
    )
    return GateComplement(c_pre, c_suf, core.union(c_pre, c_suf))


# ---------------------------------------------------------------------------
# Modified constructions (RearClean, and the intersection fallbacks)


def _reversed_equal_inputs(p: GatePartition, *, budget: int | None = None):
    base = p.base
    front = base.front
    c1_in = PortNfa(
        front.alphabet,
        front.num_states,
        front.transitions,
        front.entry_sets,
        tuple(front.exit_sets[j] for j in range(front.num_exit) if front.exit_sets[j])
        + base.inner_exit_ports_front,
        state_names=front.state_names,
    )
    c1 = _smaller_complement(c1_in, budget=budget)
    rear_eq = base.rear_for_equal()
    c2 = _lift_alphabet_port(
        _smaller_complement(_drop_symbols_port(rear_eq, p.gamma_ids), budget=budget),
        base.source.alphabet,
    )
    return c1, c2


def gate_complement_modified(p: GatePartition, *, budget: int | None = None) -> PortNfa:
    """The reversed (RearClean) construction, or the port-product fallback.

    RearClean without outer front exits complements the front over the full
    alphabet (s then loops only on Σ∖Γ, making the gate the last Γ symbol)
    and lets the rear complement carry the outer entries.  When the offending
    outer ports exist, the gate complement of the stripped automaton is
    intersected with a port complement of the untouched component.
    """
    if p.direction is GateDirection.FRONT_CLEAN and not p.needs_intersection:
        raise ValueError("front-clean partitions use gate_complement_equal/disjoint")
    base = p.base
    if p.needs_intersection:
        if p.direction is GateDirection.FRONT_CLEAN:
            stripped = _strip_outer(base, entries_to_front=True)
            other = base.rear
        else:
            stripped = _strip_outer(base, entries_to_front=False)
            other = base.front
        inner = GatePartition(
            stripped, p.gate_symbols, p.direction, p.method, needs_intersection=False
        )
        left = gate_complement_modified(inner, budget=budget) if (
            p.direction is GateDirection.REAR_CLEAN
        ) else _apply_front_clean(inner, budget=budget)
        right = _smaller_complement(other, budget=budget)
        return core.product_intersection(left, right)

    # RearClean, no outer front exits.
    alphabet = base.source.alphabet
    nsyms = len(alphabet)
    gamma = _sorted_gamma(p)
    front = base.front
    c1, c2 = _reversed_equal_inputs(p, budget=budget) if p.method is GateMethod.EQUAL else (
        None,
        None,
    )
    if p.method is GateMethod.EQUAL:
        s = c1.num_states
        pre_trans = set(c1.transitions)
        kept = sum(1 for j in range(front.num_exit) if front.exit_sets[j])
        for k, cid in enumerate(gamma):
            pre_trans.update((q, cid, s) for q in c1.exit_sets[kept + k])
        pre_trans.update((s, sym, s) for sym in range(nsyms) if sym not in p.gamma_ids)
        c_pre = PortNfa(
            alphabet,
            s + 1,
            frozenset(pre_trans),
            c1.entry_sets,
            (frozenset({s}),) * base.rear.num_exit,
            state_names=core._uniquify([c1.state_name(q) for q in range(s)] + ["s"]),
        )
        k_outer = base.rear.num_entry
        suf_trans = set((src + 1, sym, dst + 1) for (src, sym, dst) in c2.transitions)
        suf_trans.update((0, sym, 0) for sym in range(nsyms))
        for k, cid in enumerate(gamma):
            suf_trans.update((0, cid, q + 1) for q in c2.entry_sets[k_outer + k])
        c_suf = PortNfa(
            alphabet,
            c2.num_states + 1,
            frozenset(suf_trans),
            tuple(
                frozenset({0}) | frozenset(q + 1 for q in c2.entry_sets[i])
                for i in range(k_outer)
            ),
            tuple(
                frozenset(q + 1 for q in c2.exit_sets[j]) for j in range(base.rear.num_exit)
            ),
            state_names=core._uniquify(
                ["t"] + [c2.state_name(q) for q in range(c2.num_states)]
            ),
        )
        return core.union(c_pre, c_suf)

    # Disjoint, reversed: raw front inside C_suf, entries I₁ᵢ ∪ Ī₂ᵢ.
    c1_in = PortNfa(
        front.alphabet,
        front.num_states,
        front.transitions,
        front.entry_sets,
        tuple(front.exit_sets[j] for j in range(front.num_exit) if front.exit_sets[j])
        + base.inner_exit_ports_front,
        state_names=front.state_names,
    )
    c1 = _smaller_complement(c1_in, budget=budget)
    c2 = _lift_alphabet_port(
        _smaller_complement(
            _drop_symbols_port(base.rear_for_targets(), p.gamma_ids), budget=budget
        ),
        alphabet,
    )
    s = c1.num_states
    pre_trans = set(c1.transitions)
    kept = sum(1 for j in range(front.num_exit) if front.exit_sets[j])
    for k, cid in enumerate(gamma):
        pre_trans.update((q, cid, s) for q in c1.exit_sets[kept + k])
    pre_trans.update((s, sym, s) for sym in range(nsyms) if sym not in p.gamma_ids)
    c_pre = PortNfa(
        alphabet,
        s + 1,
        frozenset(pre_trans),
        c1.entry_sets,
        (frozenset({s}),) * base.rear.num_exit,
        state_names=core._uniquify([c1.state_name(q) for q in range(s)] + ["s"]),
    )
    nf = front.num_states
    k_outer = base.rear.num_entry
    target_port = {t: k_outer + k for k, t in enumerate(base.gate_targets)}
    suf_trans = set(front.transitions)
    suf_trans.update((src + nf, sym, dst + nf) for (src, sym, dst) in c2.transitions)
    for (x, sym, t) in base.transfer:
        xl = base.front_index[x]
        suf_trans.update((xl, sym, q + nf) for q in c2.entry_sets[target_port[t]])
    c_suf = PortNfa(
        alphabet,
        nf + c2.num_states,
        frozenset(suf_trans),
        tuple(
            front.entry_sets[i] | frozenset(q + nf for q in c2.entry_sets[i])
            for i in range(k_outer)
        ),
        tuple(frozenset(q + nf for q in c2.exit_sets[j]) for j in range(base.rear.num_exit)),
        state_names=core._uniquify(
            [front.state_name(q) for q in range(nf)]
            + [c2.state_name(q) for q in range(c2.num_states)]
        ),
    )
    return core.union(c_pre, c_suf)


def _strip_outer(base: SequentialPartition, *, entries_to_front: bool) -> SequentialPartition:
    """Remove the offending outer ports (rear entries, or front exits) from the source."""
    src = base.source
    front_set = set(base.front_states)
    if entries_to_front:
        entries = tuple(e & frozenset(front_set) for e in src.entry_sets)
        exits = src.exit_sets
    else:
        entries = src.entry_sets
        exits = tuple(f - frozenset(front_set) for f in src.exit_sets)
    stripped = PortNfa(
        src.alphabet,
        src.num_states,
        src.transitions,
        entries,
        exits,
        state_names=src.state_names,
    )
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
    front = base.front
    return Nfa(
        front.alphabet,
        front.num_states,
        front.transitions,
        front.entry_sets[i],
        finals,
        state_names=front.state_names,
    )


def _suffix_language(base: SequentialPartition, starts: frozenset[int], j: int) -> Nfa:
    rear = base.rear
    return Nfa(
        rear.alphabet,
        rear.num_states,
        rear.transitions,
        starts,
        rear.exit_sets[j],
        state_names=rear.state_names,
    )


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


def _downward_closed_cuts(dag: core.SccDag, cap: int) -> list[tuple[int, ...]] | None:
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
                    if len(ideals) > cap + 1:
                        return None
                    ideals.add(nxt)
                    frontier.append(nxt)
    full = frozenset(range(m))
    cuts = [tuple(sorted(s)) for s in ideals if s and s != full]
    cuts.sort(key=lambda cut: (len(cut), cut))
    return cuts


def find_gate_partitions(
    a: PortNfa, *, check_budget: int | None = None, cut_cap: int = _CUT_CAP
) -> list[GatePartition]:
    """Every qualifying split of the SCC condensation, tagged Equal/Disjoint.

    Candidate fronts are downward-closed unions of condensation components
    (topological prefixes when there are more than ``cut_cap`` of them);
    candidates whose gate symbols appear inside both components are dropped,
    as are those failing both input conditions or blowing the check budget.
    """
    dag = core.scc_condensation(a)
    m = len(dag.components)
    if m <= 1:
        return []
    cuts = _downward_closed_cuts(dag, cut_cap)
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


def _apply_front_clean(p: GatePartition, *, budget: int | None = None) -> PortNfa:
    if p.method is GateMethod.EQUAL:
        c1, c2 = equal_complement_inputs(p, budget=budget)
        return gate_complement_equal(p, c1, c2)
    return gate_complement_disjoint(p, disjoint_complement_input(p, budget=budget), budget=budget)


def apply_gate_complement(p: GatePartition, *, budget: int | None = None) -> PortNfa:
    if p.needs_intersection or p.direction is GateDirection.REAR_CLEAN:
        return gate_complement_modified(p, budget=budget)
    return _apply_front_clean(p, budget=budget)


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
    if stats is not None:
        stats["direction"] = chosen.direction.value
        stats["method"] = chosen.method.value
        stats["needs_intersection"] = chosen.needs_intersection
        stats["gate_symbols"] = sorted(chosen.gate_symbols)
        stats["front_states"] = len(chosen.base.front_states)
        stats["rear_states"] = len(chosen.base.rear_states)
    return apply_gate_complement(chosen, budget=budget).slice(0, 0)
