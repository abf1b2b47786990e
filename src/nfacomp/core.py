"""Core automata model: plain NFAs, port NFAs, and language-level queries.

States are dense integers ``0..num_states-1``; display names live in an
optional side table.  Transition symbols are stored as indices into the
ordered ``alphabet`` tuple.  State sets cross into the kernel layer as int
bitmasks; everything user-facing stays as frozensets of state ids.

A plain NFA is the port NFA with one entry set and one exit set: its
read-only port view ``entry_sets``/``exit_sets`` is ``(initial,)`` and
``(final,)``.  The two classes share one body, written against that view:
validation, ``build``, ``symbol_ids``, the flat ``succ_masks`` and
``pred_masks`` tables, the counts, ``state_name`` and ``slice``; each
dataclass adds only its fields, and ``Nfa`` its plain-only members.  Every
structural operation (``reverse``, ``union``, ``induced``, ``trim``,
``product_intersection``) is written once against the same view; it takes
either class and returns an automaton of its input's class.  Questions
about the reversal (the reverse powerset, the shape predicates, simulation)
read ``pred_masks``, not a reversed copy.

A transition set is checked once, where it enters the library.  There are
three routes to an automaton:

* the constructor takes what comes from outside the library (``parse``,
  the families, ``build``, users) and checks its transition set tuple by
  tuple;
* ``_derived`` takes moves made of ids the library numbered itself, as a
  set (``reverse``, ``union``, ``induced`` and ``trim``, gate's assembly,
  the quotients, the sequential compositions and products) or as a flat
  table (the powerset constructions), the set derived from it on first
  use, and checks only its port sets and names;
* ``_view`` (a slice, port variant or rename) shares the automaton's moves
  and the tables derived from them (``succ_masks``, ``pred_masks``, the SCC
  condensation), and checks only its port sets and names.

Both library routes put the port sets into the class's fields through
``_new``.

A construction may record facts about what it built: ``_trim`` (no state to
trim: ``trim`` returns the automaton at once) and ``_minimal`` (a minimal
trim DFA: ``--minimize`` and the simulation pass return it unchanged).
They hold for the port sets it was built with, so a view, which may have
other port sets, does not inherit them.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Union

from . import _kernels
from ._kernels.pure import _bits
from .errors import BudgetExceededError

Transition = tuple[int, int, int]  # (src, symbol index, dst)


def _check_states(num_states, states: Iterable[int], what: str) -> None:
    for q in states:
        if not (0 <= q < num_states):
            raise ValueError(f"{what} contains {q}, outside the state range")


def _resolve_transitions(transitions, symbol_ids) -> frozenset[Transition]:
    out = set()
    for (src, sym, dst) in transitions:
        if not isinstance(sym, int):
            try:
                sym = symbol_ids[sym]
            except KeyError:
                raise ValueError(f"unknown symbol {sym!r}") from None
        out.add((src, sym, dst))
    return frozenset(out)


def _mask_of(states: Iterable[int]) -> int:
    m = 0
    for q in states:
        m |= 1 << q
    return m


class _Automaton:
    """The body ``Nfa`` and ``PortNfa`` share, written against the port view.

    Each dataclass normalizes its own port fields in ``__post_init__`` and
    then calls ``_normalize_and_check``; ``_port_what`` names an entry and an
    exit set in its error messages, formatted with the set's index.
    """

    def _normalize_and_check(self) -> None:
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "transitions", frozenset(map(tuple, self.transitions)))
        if not self.alphabet:
            raise ValueError("alphabet must be nonempty")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet has duplicate symbols")
        n, nsyms = self.num_states, len(self.alphabet)
        for (src, sym, dst) in self.transitions:
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(f"transition ({src},{sym},{dst}) leaves the state range")
            if not (0 <= sym < nsyms):
                raise ValueError(f"transition ({src},{sym},{dst}) uses an unknown symbol index")
        self._check_ports_and_names()

    def _check_ports_and_names(self) -> None:
        entry_sets, exit_sets = self.entry_sets, self.exit_sets
        if not entry_sets or not exit_sets:
            raise ValueError("port NFA needs at least one entry and one exit port set")
        for sets, what in zip((entry_sets, exit_sets), self._port_what):
            for i, s in enumerate(sets):
                _check_states(self.num_states, s, what.format(i))
        if self.state_names is not None:
            object.__setattr__(self, "state_names", tuple(self.state_names))
            if len(self.state_names) != self.num_states:
                raise ValueError("state_names length must match num_states")

    _source = None  # for a view, the automaton it was made from, whose moves it shares
    _trim = _minimal = False  # facts a construction recorded, never shared with a view

    def __getattr__(self, attr):
        # Only a table-built automaton lacks ``transitions``; it is spelled out on first use, once for
        # the automaton and its views.
        if attr != "transitions" or "_table" not in self.__dict__:
            return object.__getattribute__(self, attr)
        edges = frozenset(self._edges()) if self._source is None else self._source.transitions
        object.__setattr__(self, "transitions", edges)
        return edges

    def _edges(self):
        """The transitions as (src, symbol index, dst), read off the table if there is one."""
        if "_table" not in self.__dict__:
            return self.transitions
        table, syms, reverse = self._table
        k = len(syms)
        edges = [(i // k, syms[i % k], j) for i, j in enumerate(table) if j >= 0]
        return [(dst, sym, src) for (src, sym, dst) in edges] if reverse else edges

    @classmethod
    def build(cls, alphabet, num_states, transitions, entries, exits, /, *, state_names=None, name=None):
        """Like the constructor, but transition symbols may be given as strings.

        ``entries``/``exits`` are the class's port fields: I and F for ``Nfa``,
        the entry and exit set families for ``PortNfa``.
        """
        alphabet = tuple(alphabet)
        transitions = _resolve_transitions(transitions, {s: i for i, s in enumerate(alphabet)})
        return cls(alphabet, num_states, transitions, entries, exits, state_names=state_names, name=name)

    @cached_property
    def symbol_ids(self) -> dict:
        return {s: i for i, s in enumerate(self.alphabet)}

    @cached_property
    def succ_masks(self) -> list[int]:
        """Flat successor table for the kernels: index sym*num_states+q -> bitmask."""
        if self._source is not None:
            return self._source.succ_masks
        table = [0] * (len(self.alphabet) * self.num_states)
        for (src, sym, dst) in self._edges():
            table[sym * self.num_states + src] |= 1 << dst
        return table

    @cached_property
    def pred_masks(self) -> list[int]:
        """Flat predecessor table, the reversal's successor table: index
        sym*num_states+q -> bitmask of q's predecessors on sym."""
        if self._source is not None:
            return self._source.pred_masks
        table = [0] * (len(self.alphabet) * self.num_states)
        for (src, sym, dst) in self._edges():
            table[sym * self.num_states + dst] |= 1 << src
        return table

    @cached_property
    def _scc(self) -> "SccDag":
        return _condense(self) if self._source is None else self._source._scc

    @property
    def num_transitions(self) -> int:
        table = self.__dict__.get("_table")
        return len(self.transitions) if table is None else len(table[0]) - table[0].count(-1)

    @property
    def num_entry(self) -> int:
        return len(self.entry_sets)

    @property
    def num_exit(self) -> int:
        return len(self.exit_sets)

    def state_name(self, q: int) -> str:
        return self.state_names[q] if self.state_names is not None else str(q)

    def slice(self, i: int, j: int) -> "Nfa":
        """The plain NFA with initial = entry_sets[i] and final = exit_sets[j]."""
        if not (0 <= i < self.num_entry):
            raise IndexError(f"entry port index {i} out of range")
        if not (0 <= j < self.num_exit):
            raise IndexError(f"exit port index {j} out of range")
        return _view(self, Nfa, entry_sets=self.entry_sets[i : i + 1], exit_sets=self.exit_sets[j : j + 1], name=None)


@dataclass(frozen=True)
class Nfa(_Automaton):
    """A nondeterministic finite automaton (Q, Sigma, delta, I, F)."""

    alphabet: tuple[str, ...]
    num_states: int
    transitions: frozenset[Transition]
    initial: frozenset[int]
    final: frozenset[int]
    state_names: tuple[str, ...] | None = None
    name: str | None = field(default=None, compare=False)
    _port_what = ("initial", "final")  # how error messages name the entry and exit sets

    def __post_init__(self):
        object.__setattr__(self, "initial", frozenset(self.initial))
        object.__setattr__(self, "final", frozenset(self.final))
        self._normalize_and_check()

    @cached_property
    def initial_mask(self) -> int:
        return _mask_of(self.initial)

    @cached_property
    def final_mask(self) -> int:
        return _mask_of(self.final)

    @property
    def entry_sets(self) -> tuple[frozenset[int], ...]:
        """Port view: the one entry set, I."""
        return (self.initial,)

    @property
    def exit_sets(self) -> tuple[frozenset[int], ...]:
        """Port view: the one exit set, F."""
        return (self.final,)

    def as_port(self) -> "PortNfa":
        """The same automaton with one entry port set (I) and one exit port set (F)."""
        return _view(self, PortNfa)


@dataclass(frozen=True)
class PortNfa(_Automaton):
    """An NFA with ordered families of entry and exit port sets.

    The pair (entry_sets[i], exit_sets[j]) induces the slice(i, j) automaton;
    the port NFA stands for the whole matrix of these languages at once.
    """

    alphabet: tuple[str, ...]
    num_states: int
    transitions: frozenset[Transition]
    entry_sets: tuple[frozenset[int], ...]
    exit_sets: tuple[frozenset[int], ...]
    state_names: tuple[str, ...] | None = None
    name: str | None = field(default=None, compare=False)
    _port_what = ("entry set {}", "exit set {}")

    def __post_init__(self):
        object.__setattr__(self, "entry_sets", tuple(frozenset(s) for s in self.entry_sets))
        object.__setattr__(self, "exit_sets", tuple(frozenset(s) for s in self.exit_sets))
        self._normalize_and_check()


Automaton = Union[Nfa, PortNfa]


@dataclass(frozen=True)
class SccDag:
    """Condensation of an automaton: SCCs in topological order plus capacities.

    ``edges`` holds (from_index, to_index, capacity) triples where the
    capacity counts the individual transitions crossing between the two
    components.
    """

    components: tuple[frozenset[int], ...]
    edges: tuple[tuple[int, int, int], ...]


# ---------------------------------------------------------------------------
# Structural operations


def _new(cls, alphabet, num_states, entry_sets, exit_sets, state_names, name, **moves):
    """An automaton of class ``cls``, unchecked: a plain NFA takes its initial
    and final states from the one entry set and the one exit set given.
    ``moves`` holds ``transitions`` or ``_table``, what a view shares, and
    the facts a construction records (``_trim``, ``_minimal``)."""
    out = cls.__new__(cls)
    if issubclass(cls, Nfa):
        (initial,), (final,) = entry_sets, exit_sets
        ports = {"initial": frozenset(initial), "final": frozenset(final)}
    else:
        ports = {"entry_sets": tuple(map(frozenset, entry_sets)), "exit_sets": tuple(map(frozenset, exit_sets))}
    out.__dict__.update(ports, alphabet=alphabet, num_states=num_states, state_names=state_names, name=name, **moves)
    return out


def _derived(a: Automaton, num_states, entry_sets, exit_sets, state_names, name=None, **moves):
    """An automaton of ``a``'s class over ``a``'s alphabet whose moves the
    library made from ids it numbered itself: only its port sets and names
    are checked, as for a view.  ``moves`` holds ``transitions``, a frozenset
    of (src, symbol index, dst), or ``_table=(table, syms, reverse)``, a flat
    table whose entry ``q * len(syms) + k`` is q's successor on ``syms[k]``
    (with ``reverse``, its predecessor) or -1 for none; and the facts the
    construction records (``_trim``, ``_minimal``)."""
    out = _new(type(a), a.alphabet, num_states, entry_sets, exit_sets, state_names, name, **moves)
    out._check_ports_and_names()
    return out


_SHARED = ("transitions", "_table", "symbol_ids")


def _view(a: Automaton, cls=None, *, entry_sets=None, exit_sets=None, state_names=..., name=...):
    """``a`` as an automaton of class ``cls`` (``a``'s by default) with the port
    sets, state names and name given, the others ``a``'s.  It shares ``a``'s
    moves (``_SHARED``), and through ``_source`` the tables derived from them,
    built once for the automaton at the root of a chain of views and for all
    of them; only its port sets and names are checked."""
    out = _new(cls or type(a), a.alphabet, a.num_states,
               a.entry_sets if entry_sets is None else entry_sets, a.exit_sets if exit_sets is None else exit_sets,
               a.state_names if state_names is ... else state_names, a.name if name is ... else name,
               _source=a if a._source is None else a._source, **{k: v for k, v in a.__dict__.items() if k in _SHARED})
    out._check_ports_and_names()
    return out


def _check_compatible(a: Automaton, b: Automaton, what: str) -> None:
    if a.alphabet != b.alphabet:
        raise ValueError(f"{what} requires matching alphabets")
    if len(a.entry_sets) != len(b.entry_sets) or len(a.exit_sets) != len(b.exit_sets):
        raise ValueError(f"{what} requires matching port arities")


def reverse(a: Automaton) -> Automaton:
    """Flip every transition and swap the entry and exit sets (I and F)."""
    return _derived(a, a.num_states, a.exit_sets, a.entry_sets, a.state_names,
                    transitions=frozenset((dst, sym, src) for (src, sym, dst) in a._edges()))


def _merged_names(a, b):
    if a.state_names is None and b.state_names is None:
        return None
    names = [a.state_name(q) for q in range(a.num_states)]
    names += [b.state_name(q) for q in range(b.num_states)]
    return _uniquify(names)


def _uniquify(names) -> tuple[str, ...]:
    used = set()
    out = []
    for n in names:
        if n in used:
            k = 2
            while f"{n}_{k}" in used:
                k += 1
            n = f"{n}_{k}"
        used.add(n)
        out.append(n)
    return tuple(out)


def union(a: Automaton, b: Automaton) -> Automaton:
    """Disjoint union, port set by port set; b's states are relabeled past a's."""
    _check_compatible(a, b, "union")
    off = a.num_states
    trans = set(a._edges())
    trans.update((src + off, sym, dst + off) for (src, sym, dst) in b._edges())
    return _derived(
        a,
        off + b.num_states,
        [ea | frozenset(q + off for q in eb) for ea, eb in zip(a.entry_sets, b.entry_sets)],
        [fa | frozenset(q + off for q in fb) for fa, fb in zip(a.exit_sets, b.exit_sets)],
        _merged_names(a, b),
        transitions=frozenset(trans),
    )


def scc_condensation(a: Automaton) -> SccDag:
    """Tarjan decomposition, without recursion: a stack of (state, iterator
    over its sorted successors) frames.  Roots are taken in increasing order
    and successors in increasing order, so the components come out in one
    fixed topological order (the reverse of Tarjan's emission order).
    Computed once per automaton and shared with its views."""
    return a._scc


def _condense(a: Automaton) -> SccDag:
    n = a.num_states
    edges = a._edges()
    adj = [[] for _ in range(n)]
    for (src, _sym, dst) in edges:
        adj[src].append(dst)
    adj = [sorted(set(vs)) for vs in adj]

    index = [-1] * n  # n once the state's component is emitted, so that it lowers no lowlink
    low = [0] * n
    stack: list[int] = []
    emitted: list[frozenset[int]] = []
    visits = itertools.count()

    def enter(v):
        index[v] = low[v] = next(visits)
        stack.append(v)
        return v, iter(adj[v])

    for root in range(n):
        if index[root] != -1:
            continue
        work = [enter(root)]
        while work:
            v, succ = work[-1]
            for w in succ:
                if index[w] == -1:
                    work.append(enter(w))
                    break
                low[v] = min(low[v], index[w])
            else:
                work.pop()
                if low[v] == index[v]:
                    comp = [stack.pop()]
                    while comp[-1] != v:
                        comp.append(stack.pop())
                    for w in comp:
                        index[w] = n
                    emitted.append(frozenset(comp))
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])

    components = tuple(reversed(emitted))  # Tarjan emits in reverse topological order
    comp_of = {}
    for ci, comp in enumerate(components):
        for q in comp:
            comp_of[q] = ci
    caps: dict[tuple[int, int], int] = {}
    for (src, _sym, dst) in edges:
        ci, cj = comp_of[src], comp_of[dst]
        if ci != cj:
            caps[(ci, cj)] = caps.get((ci, cj), 0) + 1
    edges = tuple(sorted((i, j, c) for (i, j), c in caps.items()))
    return SccDag(components, edges)


def _closure(seed: Iterable[int], adj: list[list[int]]) -> set[int]:
    seen = set(seed)
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def _both_adjacency(a: Automaton):
    fwd = [[] for _ in range(a.num_states)]
    bwd = [[] for _ in range(a.num_states)]
    for (src, _sym, dst) in a._edges():
        fwd[src].append(dst)
        bwd[dst].append(src)
    return fwd, bwd


def induced(a: Automaton, keep: Iterable[int]) -> Automaton:
    """Subautomaton on ``keep`` (relabeled densely, order-preserving).

    Every port set is restricted to ``keep``; the arities stay.  Each move
    kept is a renumbered move of ``a``, read off its table if it has one,
    so only the port sets and names are checked, as for a view.
    """
    keep = sorted(set(keep))
    remap = {q: i for i, q in enumerate(keep)}
    moves = frozenset((remap[src], sym, remap[dst]) for (src, sym, dst) in a._edges() if src in remap and dst in remap)
    ports = [[frozenset(remap[q] for q in s if q in remap) for s in sets] for sets in (a.entry_sets, a.exit_sets)]
    names = tuple(a.state_name(q) for q in keep) if a.state_names is not None else None
    return _derived(a, len(keep), *ports, names, a.name, transitions=moves)


def trim(a: Automaton) -> Automaton:
    """Drop states unreachable from every entry set or dead for every exit set.

    Every slice's language is preserved.  An automaton built trim is
    returned at once.
    """
    if a._trim:
        return a
    fwd, bwd = _both_adjacency(a)
    keep = _closure(frozenset().union(*a.entry_sets), fwd) & _closure(frozenset().union(*a.exit_sets), bwd)
    if len(keep) == a.num_states:
        return a
    return induced(a, keep)


# ---------------------------------------------------------------------------
# Language-level queries


def accepts(a: Nfa, w) -> bool:
    """Membership by on-the-fly subset propagation; w is a symbol sequence."""
    cur = a.initial_mask
    n = a.num_states
    for sym in w:
        sid = a.symbol_ids.get(sym)
        if sid is None:
            raise ValueError(f"symbol {sym!r} not in the alphabet")
        nxt = 0
        for q in _bits(cur):
            nxt |= a.succ_masks[sid * n + q]
        cur = nxt
        if not cur:
            return False
    return bool(cur & a.final_mask)


def antichain_inclusion(a: Nfa, b: Nfa, *, budget: int | None = None) -> bool:
    """L(a) subseteq L(b), by antichain exploration of (a-state, b-set) pairs."""
    if a.alphabet != b.alphabet:
        raise ValueError("inclusion requires matching alphabets")
    res = _kernels.antichain_included(
        len(a.alphabet),
        a.num_states,
        a.succ_masks,
        a.initial_mask,
        a.final_mask,
        b.num_states,
        b.succ_masks,
        b.initial_mask,
        b.final_mask,
        budget,
    )
    if res < 0:
        raise BudgetExceededError("antichain expansion budget exceeded", budget=budget)
    return bool(res)


def language_equivalent(a: Nfa, b: Nfa, *, budget: int | None = None) -> bool:
    return antichain_inclusion(a, b, budget=budget) and antichain_inclusion(b, a, budget=budget)


def language_disjoint(a: Nfa, b: Nfa) -> bool:
    """True iff the synchronized product of a and b accepts nothing.

    ``_kernels.product_nonempty`` searches the product bit-parallel: per
    state of the larger automaton it keeps the set of the smaller one's
    states reached with it, and steps a whole set of new ones through one
    packed image instead of one pair at a time.
    """
    if a.alphabet != b.alphabet:
        raise ValueError("disjointness requires matching alphabets")
    return not _kernels.product_nonempty(
        len(a.alphabet),
        a.num_states,
        a.succ_masks,
        a.initial_mask,
        a.final_mask,
        b.num_states,
        b.succ_masks,
        b.initial_mask,
        b.final_mask,
    )


def is_empty(a: Nfa) -> bool:
    fwd, _ = _both_adjacency(a)
    return not (_closure(a.initial, fwd) & a.final)


def product_intersection(a: Automaton, b: Automaton) -> Automaton:
    """Reachable synchronized product, port set by port set.

    Slice (i, j) accepts the intersection of the two slices (i, j); for
    plain NFAs that is L(a) & L(b).  The pair (pa, pb) is explored as the
    key ``pa * nb + pb``, so the entry pairs come first in sorted order.
    """
    _check_compatible(a, b, "product")
    na, nb, succ_a, succ_b = a.num_states, b.num_states, a.succ_masks, b.succ_masks

    def expand(key):
        pa, pb = divmod(key, nb)
        return [[qa * nb + qb for qa in _bits(succ_a[sym * na + pa]) for qb in _bits(succ_b[sym * nb + pb])]
                for sym in range(len(a.alphabet))]

    x = _kernels.KeyedExploration(expand, sorted({pa * nb + pb for ea, eb in zip(a.entry_sets, b.entry_sets)
                                                   for pa in ea for pb in eb}))
    x.advance()
    pairs = [divmod(key, nb) for key in x.keys]
    ports = [[frozenset(i for i, (pa, pb) in enumerate(pairs) if pa in sa and pb in sb) for sa, sb in zip(*sets)]
             for sets in ((a.entry_sets, b.entry_sets), (a.exit_sets, b.exit_sets))]
    names = tuple(f"{a.state_name(pa)}|{b.state_name(pb)}" for (pa, pb) in pairs)
    return _derived(a, len(pairs), *ports, names, transitions=frozenset(x.moves))


# ---------------------------------------------------------------------------
# Shape predicates


def _moves(transitions, nsyms: int, by_target: bool = False) -> set[int]:
    """The distinct (source, symbol) pairs of ``transitions`` as ``source * nsyms + symbol``;
    with ``by_target``, (target, symbol) pairs."""
    if by_target:
        return {dst * nsyms + sym for (_src, sym, dst) in transitions}
    return {src * nsyms + sym for (src, sym, _dst) in transitions}


def is_deterministic(a: Automaton) -> bool:
    """DFA check: single start per entry set, at most one successor per symbol."""
    return all(len(s) == 1 for s in a.entry_sets) and _deterministic_moves(a)


def _deterministic_moves(a: Automaton) -> bool:
    """At most one successor per state and symbol.  A forward table (a
    ``_derived`` one, shared by its views) has that shape by construction."""
    table = a.__dict__.get("_table")
    if table is not None and not table[2]:
        return True
    return len(_moves(a._edges(), len(a.alphabet))) == a.num_transitions


def is_complete(a: Automaton) -> bool:
    """Every state has at least one successor on every symbol."""
    return len(_moves(a._edges(), len(a.alphabet))) == a.num_states * len(a.alphabet)


def _coreachable(a: Automaton) -> set[int]:
    """The states that reach some exit set."""
    return _closure(frozenset().union(*a.exit_sets), _both_adjacency(a)[1])


def is_reverse_deterministic(a: Automaton) -> bool:
    """``is_deterministic`` of the reversal, without building it; on a reverse
    table, only the exit sets are checked."""
    if any(len(s) != 1 for s in a.exit_sets):
        return False
    table = a.__dict__.get("_table")
    if table is not None and table[2]:
        return True
    return len(_moves(a._edges(), len(a.alphabet), by_target=True)) == a.num_transitions


# ---------------------------------------------------------------------------
# Sequential partitions


@dataclass(frozen=True)
class SequentialPartition:
    """A split of an automaton into a front and a rear part.

    The split numbers its states: ``front_states`` and ``rear_states`` are
    disjoint, sorted, and together the split's state ids.  ``front`` and
    ``rear`` are the two parts, with dense local ids in that order and the
    *outer* port sets of each side; ``transfer`` holds the crossing
    transitions, all from front to rear, in the split's ids.
    """

    front_states: tuple[int, ...]
    rear_states: tuple[int, ...]
    front: PortNfa
    rear: PortNfa
    transfer: tuple[Transition, ...]

    @classmethod
    def of(cls, a: Automaton, front_states: Iterable[int]) -> "SequentialPartition":
        port = _view(a, PortNfa)
        fset = frozenset(front_states)
        _check_states(port.num_states, fset, "front_states")
        rset = frozenset(range(port.num_states)) - fset
        transfer = []
        for (src, sym, dst) in port.transitions:
            if src in rset and dst in fset:
                raise ValueError("rear-to-front transition: split is not sequential")
            if src in fset and dst in rset:
                transfer.append((src, sym, dst))
        return cls(
            tuple(sorted(fset)),
            tuple(sorted(rset)),
            induced(port, fset),
            induced(port, rset),
            tuple(sorted(transfer)),
        )

    @cached_property
    def front_index(self) -> dict:
        return {q: i for i, q in enumerate(self.front_states)}

    @cached_property
    def rear_index(self) -> dict:
        return {q: i for i, q in enumerate(self.rear_states)}

    @cached_property
    def gate_symbols(self) -> tuple[int, ...]:
        return tuple(sorted({sym for (_s, sym, _d) in self.transfer}))

    @cached_property
    def gate_targets(self) -> tuple[int, ...]:
        return tuple(sorted({dst for (_s, _sym, dst) in self.transfer}))

    @cached_property
    def inner_exit_ports_front(self) -> tuple[frozenset[int], ...]:
        """Per gate symbol (sorted): the front-local sources of that symbol's gates."""
        fi = self.front_index
        return tuple(
            frozenset(fi[x] for (x, s, _t) in self.transfer if s == sym) for sym in self.gate_symbols
        )

    def rear_for_targets(self) -> PortNfa:
        """Rear with one singleton inner entry port per gate target."""
        extra = tuple(frozenset({self.rear_index[t]}) for t in self.gate_targets)
        return _view(self.rear, entry_sets=self.rear.entry_sets + extra)

    def rear_for_equal(self) -> PortNfa:
        """Rear with one inner entry port per gate symbol (all that symbol's targets)."""
        ri = self.rear_index
        extra = tuple(frozenset(ri[t] for (_x, s, t) in self.transfer if s == sym) for sym in self.gate_symbols)
        return _view(self.rear, entry_sets=self.rear.entry_sets + extra)
