"""Sequential complementation: complement the rear, track instances of it.

The front part of a sequential split runs determinized; every time the input
crosses a transfer ("gate") transition, a fresh instance of the rear
complement is activated and tracked alongside.  A word is accepted when the
front never exits accepting and every tracked instance accepts — i.e. no run
of the original automaton could have accepted.

Also home to the three partitioning strategies (deterministic components,
reverse-deterministic bottom, min-cut) and the multi-component pipeline that
folds them together.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

from . import _kernels, core
from .core import Nfa, PortNfa, SequentialPartition
from .errors import BudgetExceededError, CutError
from .powerset import Direction, _build, _complement, _explore_port, _outcome, _race, reverse_complement
from .reduction import simulation_reduce_port

# Above this many rear-complement states, or this many pairs per state in the
# relation, _together_masks gives up and no composite is pruned, which is
# still sound.
_TOGETHER_CAP = 16384
_TOGETHER_PER_STATE = 64


@dataclass(frozen=True)
class SeqComplementState:
    """Composite state: front position plus the tracked rear-complement states."""

    front_state: int
    tracked: frozenset[int]


class PartitionStrategy(enum.Enum):
    DETERMINISTIC_COMPONENTS = "det"
    DET_PLUS_REVDET_BOTTOM = "detrev"
    MIN_CUT = "mincut"


@dataclass(frozen=True)
class ComponentPartition:
    """Ordered components (topological, original state ids) of one automaton."""

    components: tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# Generalized composition


def determinize_front(p: SequentialPartition, *, budget: int | None = None) -> SequentialPartition:
    """Replace the front with its port determinization, lifting the gates.

    A gate (x, a, t) fires from every front macrostate containing x.  The
    split is renumbered: the k macrostates take ids 0..k-1 and rear state r
    takes k + r.  Names are made unique across both parts, the later copy
    of a name renamed; otherwise the rear part is kept untouched, so the
    rear-local ids (and with them the inner entry ports) are stable across
    this step.
    """
    ex = _explore_port(p.front, budget)
    det, macros = _build(p.front, ex), ex.macros
    rear = p.rear
    off = det.num_states
    sources = core._mask_of(p.front_index[x] for (x, _sym, _t) in p.transfer)
    containing: dict[int, list[int]] = {}
    for mi, mac in enumerate(macros):
        for q in core._bits(mac & sources):
            containing.setdefault(q, []).append(mi)
    lifted = sorted(
        {(mi, sym, off + p.rear_index[t]) for (x, sym, t) in p.transfer for mi in containing.get(p.front_index[x], ())}
    )
    names = core._merged_names(det, rear)
    det, rear = core._view(det, state_names=names[:off]), core._view(rear, state_names=names[off:])
    return SequentialPartition(tuple(range(off)), tuple(range(off, off + rear.num_states)), det, rear, tuple(lifted))


def _together_masks(c2: PortNfa) -> list[int] | None:
    """Per ``c2`` state r, the states s such that some word leads r and s into one exit set.

    The least fixpoint of ``m[r] |= Pre_a(m[r'])`` over the moves
    ``r -a-> r'``, seeded with ``exit_j x exit_j`` for every exit set j.
    ``Pre_a`` of a set is the union of its states' predecessor rows; each
    state's new bits are pushed to its predecessors once, from a worklist of
    the states whose sets grew.  None when ``c2`` has more than
    ``_TOGETHER_CAP`` states or the relation more than ``_TOGETHER_PER_STATE``
    pairs per state: the masks take n * n / 8 bytes, and the work grows with
    the pairs, while a dense relation prunes little.
    """
    n = c2.num_states
    if n > _TOGETHER_CAP:
        return None
    nsyms = len(c2.alphabet)
    pred = c2.pred_masks
    together = [0] * n
    for ex in c2.exit_sets:
        m = core._mask_of(ex)
        for r in ex:
            together[r] |= m
    pairs = sum(m.bit_count() for m in together)
    most = _TOGETHER_PER_STATE * n
    fresh = list(together)  # per state, the bits not yet pushed to its predecessors
    dirty = core._mask_of(r for r in range(n) if fresh[r])
    while dirty:
        if pairs > most:
            return None
        low = dirty & -dirty
        dirty ^= low
        r = low.bit_length() - 1
        new = list(core._bits(fresh[r]))
        fresh[r] = 0
        for sym in range(nsyms):
            row = sym * n
            img = 0
            for s in new:
                img |= pred[row + s]
            if img:
                for q in core._bits(pred[row + r]):
                    grown = img & ~together[q]
                    if grown:
                        together[q] |= grown
                        fresh[q] |= grown
                        dirty |= 1 << q
                        pairs += grown.bit_count()
    return together


def seq_complement_generalized_annotated(
    p: SequentialPartition, c2: PortNfa, *, budget: int | None = None
) -> tuple[PortNfa, tuple[SeqComplementState, ...]]:
    """seq_complement_generalized plus the composite-state annotation.

    A composite state is a front state plus the bitmask of the tracked ``c2``
    states.  Its successors on a symbol are the unions of one ``c2``
    successor per tracked state and one entry state per gate that fires,
    interned in the order the product of those choices first produces them.
    """
    out, decoded, _pruned = _compose(p, c2, budget)
    tracked_sets = {m: frozenset(core._bits(m)) for m in {tracked for (_q, tracked) in decoded}}
    return out, tuple(SeqComplementState(q, tracked_sets[tracked]) for (q, tracked) in decoded)


def _compose(
    p: SequentialPartition, c2: PortNfa, budget: int | None, bar: int | None = None
) -> tuple[PortNfa, list[tuple[int, int]], int]:
    """The composite exploration behind the two public compositions.

    Returns the automaton, each state's (front state, tracked mask) and the
    number of successor unions cut off as dead.

    A composite that tracks two ``c2`` states no word leads into one exit
    set together accepts nothing, and neither does any of its successors,
    which track a successor of each.  Such a composite is never built: a
    successor union is cut off as soon as it would hold such a pair.  So the
    result is the unpruned exploration minus states that trim would drop,
    with the survivors in the same order.  When ``c2`` is
    reverse-deterministic with singleton exit sets, as a reverse powerset
    complement is, no word leads two distinct states into one exit: each
    state's only companion is itself, at any size, and the pair table is
    not computed.

    The composites are explored by ``_kernels.KeyedExploration``, each
    interned as one int key, and built once from its moves.  A ``bar`` comes
    only with a split of one entry port, where every composite is reachable,
    so trim of slice (0, 0) keeps each one that accepts for exit 0.  Under a
    bar the exploration runs in steps, each stopping at the fewest composites
    that could reach it; the new composites are counted after each step, one
    that ran out of budget too, and ``CutError`` is raised once ``bar`` of
    them (at least one) accept.  So a composition whose first ``budget``
    composites reach its bar is cut, not out of budget, whatever the steps.
    """
    f = p.front
    if not core.is_deterministic(f) or not core.is_complete(f):
        raise ValueError("front must be deterministic and complete (see determinize_front)")
    if c2.alphabet != f.alphabet:
        raise ValueError("c2 alphabet does not match the partition")
    if c2.num_entry != p.rear.num_entry + len(p.gate_targets):
        raise ValueError("c2 entry ports do not line up with the rear's ports")
    if c2.num_exit != p.rear.num_exit:
        raise ValueError("c2 exit ports do not line up with the rear's ports")

    nsyms = len(f.alphabet)
    nf = f.num_states
    nc = c2.num_states
    # A composite state is interned as one int: the tracked mask shifted past
    # the bits of the front state.  Every c2 state r stands for bit r + shift.
    shift = nf.bit_length()
    front_mask = (1 << shift) - 1
    # The front is deterministic and complete: one successor bit per (sym, q).
    front_succ = [m.bit_length() - 1 for m in f.succ_masks]
    # Per symbol, each c2 state's successors as a shifted mask.
    rear_succ = [[m << shift for m in c2.succ_masks[sym * nc:(sym + 1) * nc]] for sym in range(nsyms)]
    target_port = {t: p.rear.num_entry + k for k, t in enumerate(p.gate_targets)}
    gates: dict[int, set[int]] = {}
    for (x, sym, t) in p.transfer:
        gates.setdefault(sym * nf + p.front_index[x], set()).add(t)
    # Per (sym, q), the entry states of each gate that fires, as shifted masks.
    gate_choices: list[list[int]] = [[] for _ in range(nsyms * nf)]
    for k, ts in gates.items():
        gate_choices[k] = [core._mask_of(c2.entry_sets[target_port[t]]) << shift for t in sorted(ts)]
    # Per c2 state r, the shifted mask of the states that may be tracked beside
    # it, r included; every state when the pair table is not built.
    together = [0] * nc if core.is_reverse_deterministic(c2) else _together_masks(c2)
    companions = [-1] * nc if together is None else [(m | 1 << r) << shift for r, m in enumerate(together)]
    pruned = [0]  # successor unions cut off, counted by the two helpers below

    def extend(partials: list[tuple[int, int]], choices: int) -> list[tuple[int, int]]:
        """Each partial union joined with one state of ``choices``, in product order, without repeats.

        A partial union carries the states that may still join it, so a union
        that would track two states no word leads into one exit set together
        is cut off, and with it every union that would contain it.  Dropping
        a repeat is safe: its own extensions repeat those of the first.
        """
        out: dict[int, int] = {}
        for u, room in partials:
            fits = choices & room
            pruned[0] += (choices ^ fits).bit_count()
            while fits:
                low = fits & -fits
                fits ^= low
                v = u | low
                if v not in out:
                    out[v] = room & companions[low.bit_length() - 1 - shift]
        return list(out.items())

    # Per tracked mask and symbol, the unions of one successor per tracked state.
    tracked_succ: dict[int, list[list[tuple[int, int]]]] = {}

    def successors_of(tracked: int) -> list[list[tuple[int, int]]]:
        bits = list(core._bits(tracked >> shift))
        rows = []
        for row in rear_succ:
            fixed, room, multi = 0, -1, []  # a state with one successor adds it to every union
            for r in bits:
                succ = row[r]
                if succ & (succ - 1):
                    multi.append(succ)
                elif succ:
                    fixed |= succ
                    room &= companions[succ.bit_length() - 1 - shift]
                else:  # this instance dies on the symbol, and with it every union
                    rows.append([])
                    break
            else:
                if fixed & ~room:  # two single successors that cannot be tracked together
                    pruned[0] += 1
                    partials = []
                else:
                    partials = [(fixed, room)]
                    for choices in multi:
                        partials = extend(partials, choices)
                rows.append(partials)
        return rows

    def expand(key: int) -> list[list[int]]:
        q = key & front_mask
        tracked = key ^ q
        rows = tracked_succ.get(tracked)
        if rows is None:
            rows = tracked_succ[tracked] = successors_of(tracked)
        out = []
        for sym, partials in enumerate(rows):
            k = sym * nf + q
            for choices in gate_choices[k]:
                partials = extend(partials, choices)
            q2 = front_succ[k]
            keys = []  # a loop: a comprehension would be one more call per symbol
            for m, _room in partials:
                keys.append(m | q2)
            out.append(keys)
        return out

    seeds = [[1 << (r0 + shift) | q0 for r0 in sorted(c2.entry_sets[i])] if p.rear.entry_sets[i] else [q0]
             for i, (q0,) in zip(range(p.rear.num_entry), f.entry_sets)]
    x = _kernels.KeyedExploration(expand, [key for keys in seeds for key in keys], budget)
    # A composite accepts for exit 0 when its front state is not in the front's
    # exit 0 and every state it tracks is in c2's.
    front_rejects = f.exit_sets[0]
    rear_rejects = ~core._mask_of(c2.exit_sets[0]) << shift
    bar = None if bar is None else max(bar, 1)  # the cut comes with an accepting composite
    accepting = counted = 0
    status = False
    while status is False:  # under a bar, in steps that stop at the fewest composites that could reach it
        status = x.advance(None if bar is None else len(x.keys) + bar - accepting)
        if bar is not None:
            accepting += sum(not key & rear_rejects and key & front_mask not in front_rejects
                             for key in x.keys[counted:])
            counted = len(x.keys)
            if accepting >= bar:
                raise CutError("cut: the composition cannot beat a finished candidate")
    if status is None:
        raise BudgetExceededError("composite state budget exceeded", budget=budget)
    entry_ids = [frozenset(x.index[key] for key in keys) for keys in seeds]
    decoded = [(key & front_mask, key >> shift) for key in x.keys]
    exit_ids = []
    for j in range(p.rear.num_exit):
        fj = f.exit_sets[j]
        outside = ~core._mask_of(c2.exit_sets[j])
        exit_ids.append(
            frozenset(i for i, (q, tracked) in enumerate(decoded) if q not in fj and not tracked & outside)
        )
    tracked_names = {
        m: ":{" + ",".join(c2.state_name(r) for r in core._bits(m)) + "}"
        for m in {tracked for (_q, tracked) in decoded}
    }
    names = tuple(f.state_name(q) + tracked_names[tracked] for (q, tracked) in decoded)
    return core._derived(f, len(x.keys), entry_ids, exit_ids, names, transitions=frozenset(x.moves)), decoded, pruned[0]


def seq_complement_generalized(
    p: SequentialPartition, c2: PortNfa, *, budget: int | None = None
) -> PortNfa:
    """Complement a partitioned port NFA, given a port complement of its rear.

    ``c2`` must complement ``p.rear_for_targets()``: its entry ports are the
    rear's outer entries followed by one port per gate target (sorted).
    """
    return _compose(p, c2, budget)[0]


def seq_complement_basic(a1: Nfa, a2: Nfa, c: str, *, budget: int | None = None) -> Nfa:
    """Complement of L(a1)·{c}·L(a2) for single-final a1 and single-initial a2.

    The split of a1 →c→ a2 after a1 is laid out from a1, a2 and the one
    transfer; its rear is complemented by the reverse powerset construction.
    """
    if a1.alphabet != a2.alphabet:
        raise ValueError("components must share one alphabet")
    if len(a1.final) != 1:
        raise ValueError("a1 needs exactly one final state")
    if len(a2.initial) != 1:
        raise ValueError("a2 needs exactly one initial state")
    sym = a1.symbol_ids.get(c)
    if sym is None:
        raise ValueError(f"symbol {c!r} not in the alphabet")
    n1, n2 = a1.num_states, a2.num_states
    (qf,) = a1.final
    (qi,) = a2.initial
    names = core._merged_names(a1, a2)  # None, or a nonempty tuple
    front = core._view(a1, PortNfa, exit_sets=(frozenset(),), state_names=names and names[:n1], name=None)
    rear = core._view(a2, PortNfa, entry_sets=(frozenset(),), state_names=names and names[n1:], name=None)
    split = SequentialPartition(tuple(range(n1)), tuple(range(n1, n1 + n2)), front, rear, ((qf, sym, n1 + qi),))
    part = determinize_front(split, budget=budget)
    c2 = reverse_complement(part.rear_for_targets(), budget=budget)
    return seq_complement_generalized(part, c2, budget=budget).slice(0, 0)


# ---------------------------------------------------------------------------
# Partitioning strategies


def _induced_deterministic(a: Nfa, states: frozenset[int] | set[int], by_target: bool = False) -> bool:
    """No two transitions inside ``states`` leave one state on one symbol
    (with ``by_target``, enter one state)."""
    inside = [t for t in a.transitions if t[0] in states and t[2] in states]
    return len(core._moves(inside, len(a.alphabet), by_target)) == len(inside)


def _induced_reverse_deterministic(a: Nfa, states: set[int]) -> bool:
    return len(a.final & states) == 1 and _induced_deterministic(a, states, by_target=True)


def _det_component_split(a: Nfa, sccs: list[frozenset[int]]) -> list[set[int]]:
    """Greedy absorption of topologically consecutive SCCs while deterministic."""
    out = []
    k = 0
    while k < len(sccs):
        cur = set(sccs[k])
        k += 1
        if _induced_deterministic(a, cur):
            while k < len(sccs) and _induced_deterministic(a, cur | sccs[k]):
                cur |= sccs[k]
                k += 1
        out.append(cur)
    return out


def partition(a: Nfa, strategy: PartitionStrategy) -> ComponentPartition:
    """Split into sequentially ordered components under the chosen strategy."""
    dag = core.scc_condensation(a)
    sccs = list(dag.components)
    if len(sccs) <= 1:
        return ComponentPartition((tuple(range(a.num_states)),) if a.num_states else ())

    if strategy is PartitionStrategy.DETERMINISTIC_COMPONENTS:
        groups = _det_component_split(a, sccs)
    elif strategy is PartitionStrategy.DET_PLUS_REVDET_BOTTOM:
        bottom_start, union = len(sccs), set()
        # widen the bottom while the union stays reverse-deterministic
        while bottom_start and _induced_reverse_deterministic(a, union | sccs[bottom_start - 1]):
            bottom_start -= 1
            union |= sccs[bottom_start]
        groups = _det_component_split(a, sccs[:bottom_start]) + ([union] if union else [])
    elif strategy is PartitionStrategy.MIN_CUT:
        groups = _min_cut_split(a, dag)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown strategy {strategy!r}")
    return ComponentPartition(tuple(tuple(sorted(g)) for g in groups))


def _min_cut_split(a: Nfa, dag: core.SccDag) -> list[set[int]]:
    """Two components with the fewest transfer transitions between them.

    Max-flow on the condensation (Edmonds-Karp), with an infinite-capacity
    reverse edge per DAG edge so every minimum cut is closed under
    predecessors (otherwise the residual cut could include a component with
    an incoming zero-flow edge from the far side, which is not a sequential
    split).  The front is what the source reaches in the residual graph once
    no augmenting path is left: for every maximum flow that is the same set,
    the smallest source side of a minimum cut (Ford and Fulkerson 1962;
    Picard and Queyranne 1980), so the order of the searches does not matter.
    """
    m = len(dag.components)
    sink = m - 1
    source = m
    inf = a.num_transitions + 1
    res: list[dict[int, int]] = [{} for _ in range(m + 1)]  # residual capacities, res[u][v]
    for (i, j, cap) in dag.edges:
        res[i][j] = cap
        res[j][i] = inf
    for i in set(range(sink)) - {j for (_i, j, _cap) in dag.edges}:
        res[source][i] = inf

    while True:
        # one BFS per round: a shortest augmenting path, or in the last round the source side
        prev = {source: source}
        queue = [source]
        for u in queue:
            for v, c in res[u].items():
                if c and v not in prev:
                    prev[v] = u
                    queue.append(v)
        if sink not in prev:
            break
        path = [sink]
        while path[-1] != source:
            path.append(prev[path[-1]])
        steps = list(zip(path[1:], path))
        flow = min(res[u][v] for u, v in steps)
        for u, v in steps:
            res[u][v] -= flow
            res[v][u] = res[v].get(u, 0) + flow

    front = set().union(*(dag.components[i] for i in prev if i != source))
    return [front, set(range(a.num_states)) - front]


# ---------------------------------------------------------------------------
# Pipeline


def seq_pipeline(
    a: Nfa,
    strategy: PartitionStrategy,
    rear_method: Direction = Direction.REVERSE,
    *,
    budget: int | None = None,
    stats: dict | None = None,
) -> Nfa:
    """Partition, complement the bottom component, and fold front components in.

    The rear complement and the intermediate composites are reduced with the
    port-aware simulation pass; the final result is only trimmed.
    """
    if stats is not None:
        stats["strategy"] = strategy.value
    return _run_pipeline(a, partition(a, strategy).components, rear_method, budget, stats)


def _run_pipeline(
    a: Nfa,
    comps: tuple[tuple[int, ...], ...],
    rear_method: Direction,
    budget: int | None,
    stats: dict | None,
    bar: int | None = None,
) -> Nfa:
    """seq_pipeline on the given components, in topological order.  A ``bar``
    goes to the last stage, whose output is trimmed to the result."""
    if stats is not None:
        stats["component_sizes"] = [len(c) for c in comps]
    if len(comps) <= 1:
        out, pre = _complement(a, rear_method, budget, bar)
        if stats is not None:
            stats["stage_sizes"] = [pre]
            stats["pre_trim"] = pre
            stats["pruned"] = 0
        return out

    w = a.as_port()
    current = {q: q for q in range(a.num_states)}
    chain: list[SequentialPartition] = []
    for comp in comps[:-1]:
        p = SequentialPartition.of(w, sorted(current[q] for q in comp))
        # Determinize before deriving the rear's port layout: macrostate
        # construction can drop transfer edges whose source never becomes
        # reachable, and the complement built for the rear must expose
        # exactly the gate-target ports the composition will ask for.
        det_p = determinize_front(p, budget=budget)
        chain.append(det_p)
        rank = {q: i for i, q in enumerate(p.rear_states)}
        current = {orig: rank[wid] for orig, wid in current.items() if wid in rank}
        w = det_p.rear_for_targets()

    c_cur = simulation_reduce_port(_complement(w, rear_method, budget)[0])
    if stats is not None:
        stats["stage_sizes"] = [c_cur.num_states]

    pruned = 0
    for k in range(len(chain) - 1, -1, -1):
        c_cur, _decoded, dead = _compose(chain[k], c_cur, budget, bar if k == 0 else None)
        pruned += dead
        if k > 0:
            c_cur = simulation_reduce_port(c_cur)
        if stats is not None:
            stats["stage_sizes"].append(c_cur.num_states)

    if stats is not None:
        stats["pre_trim"] = c_cur.num_states
        stats["pruned"] = pruned
    return core.trim(c_cur.slice(0, 0))


def seq_pipeline_best(
    a: Nfa,
    rear_method: Direction = Direction.REVERSE,
    *,
    budget: int | None = None,
    stats: dict | None = None,
    bar: int | None = None,
) -> tuple[Nfa, PartitionStrategy]:
    """Run every partitioning strategy and keep the smallest complement.

    The pipeline depends on the strategy only through its components, so a
    strategy whose partition equals an earlier strategy's is not run again:
    it shares that outcome, a budget cut included.  The distinct partitions
    race (``powerset._race``) in enum order, which is also the tie order,
    each computed only once the one before has run: a later strategy is cut,
    and never built, once its last composition shows that it cannot be
    smaller than the best so far; ``bar`` is the caller's, which cuts every
    strategy that cannot stay below it.  When no strategy below ``bar``
    finishes and one was cut, ``CutError`` is raised; when none finishes,
    the last budget error.  Dead composites are never built, and ``budget``
    counts only the composites that are.  When a stats dict is supplied it
    ends up holding the winner's numbers plus ``attempts``, one entry per
    strategy with its outcome: ``ok`` (with ``pre_trim``, ``pruned``, the
    successor unions cut off as dead, and trimmed ``states``), ``budget``,
    ``cut``, or ``same_partition_as`` an earlier strategy.
    """
    same: dict[PartitionStrategy, PartitionStrategy] = {}

    def candidates():
        first_with: dict[tuple[tuple[int, ...], ...], PartitionStrategy] = {}
        for rank, strat in enumerate(PartitionStrategy):
            comps = partition(a, strat).components
            if first_with.setdefault(comps, strat) is not strat:
                same[strat] = first_with[comps]
            else:
                yield strat, rank, functools.partial(run, strat, comps)

    def run(strat, comps, cut_at):
        local: dict = {"strategy": strat.value}
        out = _run_pipeline(a, comps, rear_method, budget, local, cut_at)
        return (out, local), out.num_states

    best, finished, failed = _race(candidates(), bar)
    if best is None:
        raise [*failed.values()][-1]
    if stats is not None:
        stats.update(finished[best][0][1])
        stats["attempts"] = [_attempt(s, finished, failed, same) for s in PartitionStrategy]
    return finished[best][0][0], best


def _attempt(strat: PartitionStrategy, finished: dict, failed: dict, same: dict) -> dict:
    """The ``attempts`` entry of one strategy of ``seq_pipeline_best``."""
    if strat in same:
        return {"strategy": strat.value, "outcome": "same_partition_as", "same_partition_as": same[strat].value}
    if strat in failed:
        return {"strategy": strat.value, "outcome": _outcome(failed[strat])}
    (_out, local), states = finished[strat]
    return {"strategy": strat.value, "outcome": "ok", "pre_trim": local["pre_trim"], "pruned": local["pruned"],
            "states": states}


# ---------------------------------------------------------------------------
# Single-instance class (the quadratic-bound premises)


def single_instance_class(p: SequentialPartition) -> bool:
    """Do the composite states provably track at most one rear instance?

    Holds when (1) after any gate fires, the front can never again reach a
    gate source, (2) no gate source fires two gates on one symbol, and (3)
    the rear has no outer entry states (so entry composites carry at most one
    seeded instance).
    """
    if any(p.rear.entry_sets):
        return False
    per_source_symbol: dict[tuple[int, int], int] = {}
    for (x, sym, _t) in p.transfer:
        per_source_symbol[(x, sym)] = per_source_symbol.get((x, sym), 0) + 1
        if per_source_symbol[(x, sym)] > 1:
            return False
    f = p.front
    nf = f.num_states
    fwd, _bwd = core._both_adjacency(f)
    sources = {p.front_index[x] for (x, _sym, _t) in p.transfer}
    for (x, sym) in per_source_symbol:
        xl = p.front_index[x]
        start = set(core._bits(f.succ_masks[sym * nf + xl]))
        if core._closure(start, fwd) & sources:
            return False
    return True


def activation_targets(p: SequentialPartition) -> frozenset[int]:
    """Front states with an incoming transition from some gate source.

    The size of this set is the factor n in the |A_1| + n·|C_2| bound on the
    composite complement, valid whenever every composite tracks ≤ 1 instance.
    """
    f = p.front
    nf = f.num_states
    sources = {p.front_index[x] for (x, _sym, _t) in p.transfer}
    out: set[int] = set()
    for xl in sources:
        for sym in range(len(f.alphabet)):
            out |= set(core._bits(f.succ_masks[sym * nf + xl]))
    return frozenset(out)
