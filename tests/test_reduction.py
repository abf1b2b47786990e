import random
from collections import Counter, deque

import pytest
from hypothesis import given, settings

import helpers
from conftest import nfas, port_nfas
from nfacomp import core, fileformat, powerset, reduction
from nfacomp.families import reverse_friendly


A2 = reverse_friendly(2)


def dfa_equivalence_classes(d):
    """Table-filling reference: classes of reachable states of a complete DFA."""
    succ = {}
    for (s, y, t) in d.transitions:
        succ[(s, y)] = t
    reach = set(d.initial)
    queue = deque(d.initial)
    while queue:
        q = queue.popleft()
        for y in range(len(d.alphabet)):
            t = succ[(q, y)]
            if t not in reach:
                reach.add(t)
                queue.append(t)
    reach = sorted(reach)
    distinct = {(p, q) for p in reach for q in reach if (p in d.final) != (q in d.final)}
    changed = True
    while changed:
        changed = False
        for p in reach:
            for q in reach:
                if (p, q) in distinct:
                    continue
                for y in range(len(d.alphabet)):
                    if (succ[(p, y)], succ[(q, y)]) in distinct:
                        distinct.add((p, q))
                        distinct.add((q, p))
                        changed = True
                        break
    classes = []
    seen = set()
    for p in reach:
        if p in seen:
            continue
        cls = {q for q in reach if (p, q) not in distinct}
        seen |= cls
        classes.append(cls)
    return classes


def test_hopcroft_keeps_a2_at_eight():
    d = powerset.determinize(A2)
    assert reduction.hopcroft_minimize(d).num_states == 8


def test_hopcroft_merges_equivalent_finals():
    d = core.Nfa.build(("a",), 3, [(0, "a", 1), (1, "a", 2), (2, "a", 1)], {0}, {1, 2})
    m = reduction.hopcroft_minimize(d)
    assert m.num_states == 2
    assert helpers.brute_language(m, 5) == helpers.brute_language(d, 5)


def test_hopcroft_rejects_nondeterministic_input():
    with pytest.raises(ValueError):
        reduction.hopcroft_minimize(A2)


@given(nfas())
def test_hopcroft_matches_table_filling(a):
    d = powerset.determinize(a).nfa
    m = reduction.hopcroft_minimize(d)
    assert m.num_states == len(dfa_equivalence_classes(d))
    assert helpers.brute_language(m, 5) == helpers.brute_language(d, 5)
    # Idempotent: minimizing a minimum-size DFA changes nothing.
    assert reduction.hopcroft_minimize(m).num_states == m.num_states


def test_simulation_on_a2_is_trivial():
    sim = reduction.compute_simulation(A2)
    assert sim.relation == frozenset({(q, q) for q in range(4)})


def test_simulation_detects_dominated_branch():
    # 2 can do everything 1 can, so 1 is simulated by 2 (not vice versa).
    a = core.Nfa.build(
        ("a", "b"),
        4,
        [(0, "a", 1), (0, "a", 2), (1, "a", 3), (2, "a", 3), (2, "b", 3)],
        {0},
        {3},
    )
    rel = reduction.compute_simulation(a).relation
    assert (1, 2) in rel
    assert (2, 1) not in rel


def test_simulation_reduce_merges_duplicate_copies():
    doubled = core.union(A2, A2)
    assert doubled.num_states == 8
    r = reduction.simulation_reduce(doubled)
    assert r.num_states == 4
    assert helpers.brute_language(r, 6) == helpers.brute_language(A2, 6)


@given(nfas())
def test_simulation_reduce_preserves_language(a):
    r = reduction.simulation_reduce(a)
    assert r.num_states <= a.num_states
    assert helpers.brute_language(r, 5) == helpers.brute_language(a, 5)


@given(port_nfas(max_states=4))
@settings(max_examples=25)
def test_simulation_reduce_port_preserves_slices(p):
    r = reduction.simulation_reduce_port(p)
    assert r.num_states <= p.num_states
    assert r.num_entry == p.num_entry and r.num_exit == p.num_exit
    for i in range(p.num_entry):
        for j in range(p.num_exit):
            assert helpers.brute_language(r.slice(i, j), 4) == helpers.brute_language(
                p.slice(i, j), 4
            )


def random_successor_table(rng, n, nsyms):
    """A flat successor table; about a fifth of the rows are empty."""
    p = rng.uniform(0.5, 3.0) / n
    table = []
    for _ in range(nsyms * n):
        row = 0
        if rng.random() > 0.2:
            for q in range(n):
                if rng.random() < p:
                    row |= 1 << q
        table.append(row)
    return table


def final_candidates(rng, n):
    final = sum(1 << q for q in range(n) if rng.random() < 0.3)
    return [final if (final >> p) & 1 else (1 << n) - 1 for p in range(n)]


def exit_candidates(rng, n):
    exits = [sum(1 << q for q in range(n) if rng.random() < 0.4) for _ in range(rng.randint(1, 3))]
    candidates = []
    for p in range(n):
        cand = (1 << n) - 1
        for em in exits:
            if (em >> p) & 1:
                cand &= em
        candidates.append(cand)
    return candidates


def _check_simulation_masks(rng, n, nsyms):
    succ = random_successor_table(rng, n, nsyms)
    pred = [0] * len(succ)
    for i, row in enumerate(succ):
        sym, p = divmod(i, n)
        for q in core._bits(row):
            pred[sym * n + q] |= 1 << p
    for candidates in (final_candidates(rng, n), exit_candidates(rng, n)):
        want = helpers.simulation_masks_reference(n, nsyms, succ, candidates)
        assert reduction._simulation_masks(n, nsyms, succ, pred, candidates) == want


def test_simulation_masks_match_reference():
    rng = random.Random(20250706)
    sizes = [rng.randint(1, 64) for _ in range(50)] + [rng.randint(65, 90) for _ in range(10)]
    for n in sizes:
        _check_simulation_masks(rng, n, rng.randint(1, 3))
    for _ in range(10):  # 3 symbols over 91-130 states: images of all symbols span up to 390 bits
        _check_simulation_masks(rng, rng.randint(91, 130), 3)


def random_complete_dfa(rng, n):
    """A complete DFA on n states, in about half the draws a copy of a smaller one.

    A copy maps each state to one of k classes and sends each move to some
    state of the target's class, so minimization has classes to merge.
    """
    nsyms = rng.randint(1, 3)
    k = rng.randint(1, n) if rng.random() < 0.5 else n
    cls = [q % k for q in range(n)]
    rng.shuffle(cls)
    members = [[q for q in range(n) if cls[q] == c] for c in range(k)]
    step = [[rng.randrange(k) for _ in range(nsyms)] for _ in range(k)]
    final_classes = {c for c in range(k) if rng.random() < 0.4}
    trans = frozenset(
        (q, sym, rng.choice(members[step[cls[q]][sym]])) for q in range(n) for sym in range(nsyms)
    )
    names = [f"s{q}" for q in range(n)] if rng.random() < 0.5 else None
    return core.Nfa(
        tuple("abc"[:nsyms]),
        n,
        trans,
        frozenset({rng.randrange(n)}),
        frozenset(q for q in range(n) if cls[q] in final_classes),
        state_names=names,
    )


def test_hopcroft_matches_reference():
    rng = random.Random(20250707)
    for n in [rng.randint(1, 120) for _ in range(80)]:
        d = random_complete_dfa(rng, n)
        want = fileformat.serialize(helpers.hopcroft_minimize_reference(d))
        assert fileformat.serialize(reduction.hopcroft_minimize(d)) == want


def test_hopcroft_reads_a_table_built_dfa_off_its_table():
    # A forward complement is built from the exploration's table, and the
    # untrimmed one is a view of the determinization's table; minimizing reads
    # the moves off that table and leaves the transition set unbuilt.
    a = reverse_friendly(7)
    for c in (powerset.complement_dfa(powerset.determinize(a)), powerset.forward_complement(a)):
        assert "transitions" not in vars(c)
        m = reduction.hopcroft_minimize(c)
        assert "transitions" not in vars(c)
        assert fileformat.serialize(m) == fileformat.serialize(helpers.hopcroft_minimize_reference(c))


def random_partial_dfa(rng, n, dead):
    """A partial DFA on n states, each reachable from state 0 by a spanning
    tree; the last ``dead`` states are non-final and move only among
    themselves.  In about half the draws a third of the other moves are
    left out; in the others none is, and the DFA is complete."""
    nsyms = rng.randint(1, 3)
    drawn = rng.choice([0.65, 1.0])
    live = n - dead
    free = []  # the (state, symbol) moves not drawn yet
    trans = set()
    for q in range(n):
        if q:
            slots = [k for k, (p, _sym) in enumerate(free) if q >= live or p < live]
            p, sym = free.pop(rng.choice(slots))
            trans.add((p, sym, q))
        free += [(q, sym) for sym in range(nsyms)]
    for (p, sym) in free:
        if rng.random() < drawn:
            trans.add((p, sym, rng.randrange(live if p >= live else 0, n)))
    return core.Nfa(
        tuple("abc"[:nsyms]),
        n,
        frozenset(trans),
        frozenset({0}),
        frozenset(q for q in range(live) if rng.random() < 0.4),
        state_names=[f"s{q}" for q in range(n)],
    )


def test_hopcroft_refines_a_partial_dfa_against_a_virtual_sink():
    rng = random.Random(18_2028)
    seen = Counter()
    for _ in range(150):
        n = rng.randint(1, 12)
        d = random_partial_dfa(rng, n, rng.choice([0, 0, rng.randint(0, n - 1)]))
        nsyms = len(d.alphabet)
        defined = {(p, sym) for (p, sym, _q) in d.transitions}
        fill = {(q, sym, n) for q in range(n + 1) for sym in range(nsyms) if (q, sym) not in defined}
        completed = core.Nfa(d.alphabet, n + 1, d.transitions | fill, d.initial, d.final)
        classes = dfa_equivalence_classes(completed)
        m = reduction.hopcroft_minimize(d)
        assert core.is_deterministic(m)
        assert m.num_states == len(classes) - ({n} in classes)
        assert helpers.brute_language(m, 5) == helpers.brute_language(completed, 5)
        # Every member's move is its class's move, also where the class's
        # first member misses a move that another member has.
        class_of = {int(name[1:]): ci for ci, names in enumerate(m.state_names) for name in names.split("+")}
        assert m.transitions == {(class_of[p], sym, class_of[q]) for (p, sym, q) in d.transitions}
        seen["first member misses a move"] += any(
            (members[0], sym) not in defined and any((p, sym) in defined for p in members)
            for members in (sorted(q for q in range(n) if class_of[q] == ci) for ci in range(m.num_states))
            for sym in range(nsyms)
        )
        if not core.is_complete(d):
            seen["sink alone" if {n} in classes else "sink joined"] += 1
            seen["partial result"] += not core.is_complete(m)
        else:
            seen["complete"] += 1
    assert all(seen[k] > 5 for k in ("sink alone", "sink joined", "partial result", "complete")), seen
    assert seen["first member misses a move"], seen


def _with_codeterministic_variants(seed):
    """``helpers.automata_and_complements(seed)``, each reverse complement
    followed by an unnamed view of it, and each untrimmed forward complement
    (``complement_dfa``'s view of a forward table) by its reversal, which is
    co-deterministic and keeps the states no entry reaches."""
    for a in helpers.automata_and_complements(seed):
        yield a
        table = a.__dict__.get("_table")
        if table is not None and table[2]:
            yield core._view(a, state_names=None)
        elif table is not None and a._source is not None:
            yield core.reverse(a)


def test_simulation_reductions_match_the_pairwise_domination_scans():
    seen = Counter()
    for a in _with_codeterministic_variants(20251018):
        if core.is_reverse_deterministic(a):
            seen["codeterministic"] += 1
            seen["large codeterministic"] += a.num_states > 64
        reductions = [(reduction.simulation_reduce_port, helpers.simulation_reduce_port_reference)]
        if isinstance(a, core.Nfa):
            reductions.append((reduction.simulation_reduce, helpers.simulation_reduce_reference))
        for library, reference in reductions:
            counts = Counter()
            want = fileformat.serialize(reference(a, counts))
            assert fileformat.serialize(library(a)) == want
            seen.update(counts)
            seen["merged"] += library(a).num_states < a.num_states
            seen["large"] += a.num_states > 64
    # Targets and entry states were dropped as dominated, and classes merged.
    assert all(seen[k] > 20 for k in ("targets", "entries", "merged")) and seen["large"] > 5, seen
    # Co-deterministic inputs, named and unnamed, trimmed and with unreachable states.
    assert seen["codeterministic"] > 20 and seen["large codeterministic"] > 5, seen
