import dataclasses
import random
from collections import Counter

import pytest

import helpers
from nfacomp import core, gate, oracle, powerset
from nfacomp.errors import BudgetExceededError, NoGatePartitionError
from nfacomp.families import gate_chain, reverse_friendly
from nfacomp.gate import GateDirection, GateMethod


G1 = gate_chain(1)

FRONT = core.Nfa.build(
    ("a", "b"), 3, [(0, "a", 0), (0, "b", 0), (0, "a", 1), (1, "a", 2), (1, "b", 2)], {0}, {2}
)
REAR = core.Nfa.build(
    ("a", "b"), 3, [(0, "a", 1), (0, "b", 1), (1, "a", 2), (2, "a", 2), (2, "b", 2)], {0}, {2}
)


def lift(a):
    return core.Nfa.build(
        ("a", "b", "c"),
        a.num_states,
        [(s, a.alphabet[y], t) for (s, y, t) in a.transitions],
        a.initial,
        a.final,
    )


def test_basic_gate_reproduces_drawn_complement():
    c = gate.gate_complement_basic(lift(FRONT), lift(REAR), "c")
    assert c.num_states == 9
    assert c.state_names == (
        "{2}", "{1}", "{}", "s", "t", "{0}", "{1}_2", "{}_2", "{2}_2"
    )
    assert c.initial == frozenset({0, 1, 2, 4})
    assert c.final == frozenset({3, 4, 5, 6, 7})
    named = sorted(
        (c.state_names[s], c.alphabet[y], c.state_names[t]) for (s, y, t) in c.transitions
    )
    assert named == [
        ("s", "a", "s"),
        ("s", "b", "s"),
        ("s", "c", "s"),
        ("t", "a", "t"),
        ("t", "b", "t"),
        ("t", "c", "{0}"),
        ("{0}", "a", "{1}_2"),
        ("{0}", "b", "{1}_2"),
        ("{0}", "c", "{}_2"),
        ("{1}", "a", "{2}"),
        ("{1}", "b", "{2}"),
        ("{1}_2", "a", "{2}_2"),
        ("{1}_2", "b", "{}_2"),
        ("{1}_2", "c", "{}_2"),
        ("{2}", "c", "s"),
        ("{2}_2", "a", "{2}_2"),
        ("{2}_2", "b", "{2}_2"),
        ("{2}_2", "c", "{}_2"),
        ("{}", "a", "{}"),
        ("{}", "b", "{1}"),
        ("{}", "b", "{}"),
        ("{}_2", "a", "{}_2"),
        ("{}_2", "b", "{}_2"),
        ("{}_2", "c", "{}_2"),
    ]
    assert oracle.oracle_complement_check(G1, c, 7).ok


def test_basic_gate_size_identity_random():
    rng = random.Random(6021023)
    for _ in range(30):
        a1, a2 = helpers.random_gate_instance(rng, max_component_states=6)
        c = gate.gate_complement_basic(a1, a2, "c")
        c1 = gate._smaller_complement(a1, skip=frozenset({a1.symbol_ids["c"]}))
        c2 = gate._smaller_complement(a2)
        assert c.num_states == c1.num_states + c2.num_states + 2
        composed = helpers.concat_with_gate(a1, a2, "c")
        assert helpers.brute_complement_ok(composed, c, 5)


def test_basic_gate_validation():
    with pytest.raises(ValueError):
        gate.gate_complement_basic(FRONT, REAR, "c")  # alphabet lacks the gate


def test_gate_guards_raise_their_error_and_text():
    dirty = core.SequentialPartition.of(
        core.Nfa.build(("a", "c"), 3, [(0, "c", 1), (1, "c", 2)], {0}, {2}), [0, 1]
    )
    with pytest.raises(ValueError) as info:
        gate.GatePartition(dirty, GateDirection.FRONT_CLEAN, GateMethod.EQUAL)
    assert str(info.value) == "front-clean partition carries gate symbols ['c']"

    a = core.Nfa.build(("a", "c"), 2, [(0, "c", 1)], {0}, {1})
    with pytest.raises(ValueError) as info:
        gate._smaller_complement(a, skip=frozenset({0, 1}))
    assert str(info.value) == "cannot complement over an empty alphabet"
    with pytest.raises(ValueError) as info:
        gate._smaller_complement(a, skip=frozenset({1}))
    assert str(info.value) == "component still carries the gate symbol 'c'"
    with pytest.raises(ValueError) as info:
        gate.gate_complement_basic(FRONT, core.Nfa.build(("a", "b", "c"), 1, [], {0}, {0}), "c")
    assert str(info.value) == "components must share one alphabet"


def test_gate_family_sizes():
    for n in (1, 2, 3):
        st = {}
        c = gate.gate_complement_auto(gate_chain(n), stats=st)
        assert c.num_states == 2 * n + 7
        assert st["direction"] == "front-clean"
        assert st["method"] == "equal"
        assert st["needs_intersection"] is False
        assert st["gate_symbols"] == ["c"]
        assert (st["front_states"], st["rear_states"]) == (n + 2, n + 2)


def test_gate_family_language():
    for n in (1, 2):
        g = gate_chain(n)
        c = gate.gate_complement_auto(g)
        assert oracle.oracle_complement_check(g, c, 7).ok


def test_equal_construction_parts_on_g1():
    sel = gate.select_partition(gate.find_gate_partitions(G1.as_port()))
    assert sel.base.front_states == (0, 1, 2)
    assert sel.direction is GateDirection.FRONT_CLEAN
    assert sel.method is GateMethod.EQUAL
    assert not sel.needs_intersection
    c1, c2 = gate._component_complements(sel, gate._carried_exits(sel))
    assert (c1.num_states, c2.num_states) == (3, 4)
    full = gate.apply_gate_complement(sel)
    assert full.num_states == 9
    out = core.trim(full.slice(0, 0))
    assert oracle.oracle_complement_check(G1, out, 7).ok


def test_rear_clean_route():
    # The gate symbol also loops inside the front, so only the reversed
    # (rear-clean) construction applies: L = (a|c)* c a*.
    a = core.Nfa.build(
        ("a", "c"), 2, [(0, "a", 0), (0, "c", 0), (0, "c", 1), (1, "a", 1)], {0}, {1}
    )
    st = {}
    c = gate.gate_complement_auto(a, stats=st)
    assert st["direction"] == "rear-clean"
    assert c.num_states == 3
    assert oracle.oracle_complement_check(a, c, 8).ok


def test_front_clean_with_outer_entry_needs_intersection():
    # An extra initial state inside the rear forces the product fallback.
    g = core.Nfa(
        G1.alphabet, G1.num_states, G1.transitions, frozenset({0, 4}), G1.final,
        state_names=G1.state_names,
    )
    st = {}
    c = gate.gate_complement_auto(g, stats=st)
    assert st["needs_intersection"] is True
    assert [e["side"] for e in st["complements"]] == ["front", "rear", "intersection"]
    assert oracle.oracle_complement_check(g, c, 7).ok


def test_disjoint_partition_detection_and_construction():
    # Prefix languages {a} and {b} are disjoint while the suffix languages
    # a* and b* differ, so the shared-entry (equal) side condition fails.
    dj = core.Nfa.build(
        ("a", "b", "c"),
        5,
        [(0, "a", 1), (0, "b", 2), (1, "c", 3), (2, "c", 4), (3, "a", 3), (4, "b", 4)],
        {0},
        {3, 4},
    )
    gps = gate.find_gate_partitions(dj.as_port())
    gp = next(g for g in gps if g.base.front_states == (0, 1, 2))
    assert gp.method is GateMethod.DISJOINT
    assert not gate.check_equal(gp)
    assert gate.check_disjoint(gp)
    out = core.trim(gate.apply_gate_complement(gp).slice(0, 0))
    assert helpers.brute_complement_ok(dj, out, 7)
    # The automatic route is free to pick a different eligible cut, but the
    # language must come out the same.
    c = gate.gate_complement_auto(dj)
    assert helpers.brute_complement_ok(dj, c, 7)


def test_no_gate_partition():
    loop = core.Nfa.build(("a",), 1, [(0, "a", 0)], {0}, {0})
    with pytest.raises(NoGatePartitionError):
        gate.gate_complement_auto(loop)


def test_gamma_covering_whole_alphabet_is_rejected():
    # The only cut uses every letter as a gate symbol, leaving no clean side.
    a = core.Nfa.build(("a",), 2, [(0, "a", 1), (1, "a", 1)], {0}, {1})
    with pytest.raises(NoGatePartitionError):
        gate.gate_complement_auto(a)


def test_random_gate_partitions_complement():
    rng = random.Random(314159)
    done = 0
    while done < 20:
        a = helpers.random_nfa(rng, max_states=6, max_syms=3)
        try:
            c = gate.gate_complement_auto(a)
        except NoGatePartitionError:
            continue
        done += 1
        assert helpers.brute_complement_ok(a, c, 5)


def fronts(partitions):
    return [p.base.front_states for p in partitions]


def test_partition_search_falls_back_to_topological_prefixes(monkeypatch):
    # With more downward-closed cuts than the cap, only the prefixes of the
    # condensation's topological order are tried.
    a = core.Nfa.build(
        ("a", "b"),
        5,
        [(0, "a", 0), (0, "a", 2), (2, "a", 4), (2, "b", 1), (2, "b", 2), (4, "b", 2)],
        {2, 3},
        {0, 4},
    )
    assert fronts(gate.find_gate_partitions(a.as_port())) == [(0, 2, 4), (0, 2, 3, 4)]
    monkeypatch.setattr(gate, "_CUT_CAP", 1)
    dag = core.scc_condensation(a)
    assert gate._downward_closed_cuts(dag) is None
    prefixes = [
        tuple(sorted(q for c in dag.components[: k + 1] for q in c))
        for k in range(len(dag.components) - 1)
    ]
    capped = gate.find_gate_partitions(a.as_port())
    assert fronts(capped) == [(0, 2, 3, 4)]
    for p in capped:
        assert p.base.front_states in prefixes
        out = core.trim(gate.apply_gate_complement(p).slice(0, 0))
        assert helpers.brute_complement_ok(a, out, 7)


def test_partition_search_skips_a_candidate_whose_check_runs_out():
    a = core.Nfa.build(
        ("a", "b", "c"),
        6,
        [
            (0, "a", 0), (0, "b", 5), (0, "c", 0), (1, "a", 0), (2, "a", 1),
            (3, "b", 5), (3, "c", 0), (4, "b", 0), (4, "c", 2), (5, "c", 2),
        ],
        {2, 3, 4},
        {1, 2, 5},
    )
    assert fronts(gate.find_gate_partitions(a.as_port())) == [(4,), (3,), (3, 4)]
    assert fronts(gate.find_gate_partitions(a.as_port(), check_budget=1)) == [(4,), (3,)]


def test_gate_complement_raises_when_both_directions_run_out():
    with pytest.raises(BudgetExceededError):
        gate.gate_complement_auto(gate_chain(2), budget=1)


# --- the smaller complement, explored both ways and built once -----------------


def _dead_tail(rng, k):
    """A random NFA joined, on one move, to a universal final state u and to
    the chain of ``reverse_friendly(k)`` with no final state.  The forward
    exploration gains up to 2^(k+1) macrostates after the move; each holds
    u, so each is dead in the complement, and trim keeps only the random
    NFA's part.  The reverse exploration never sees the chain."""
    b = helpers.random_nfa(rng, max_states=5, max_syms=2)
    n, syms = b.num_states, b.alphabet
    u, g = n, n + 1
    trans = {(src, syms[sym], dst) for (src, sym, dst) in b.transitions}
    trans |= {(q, c, q) for q in (u, g) for c in syms} | {(g, syms[0], g + 1)}
    trans |= {(g + i, c, g + i + 1) for i in range(1, k) for c in syms}
    x, c = rng.randrange(n), rng.choice(syms)
    trans |= {(x, c, u), (x, c, g)}
    return core.Nfa.build(syms, g + k + 1, trans, b.initial, b.final | {u})


def _padded(a, pad):
    """``a`` behind ``pad`` states it never uses, so that its masks span two limbs."""
    def shift(states):
        return frozenset(q + pad for q in states)

    trans = frozenset((src + pad, sym, dst + pad) for (src, sym, dst) in a.transitions)
    return helpers.rebuild_reference(a, a.num_states + pad, trans, [shift(e) for e in a.entry_sets],
                                     [shift(e) for e in a.exit_sets], None)


def _smaller_cases():
    rng = random.Random(5417)
    for _ in range(120):
        yield helpers.random_nfa(rng, max_states=9)
    for _ in range(60):
        yield helpers.random_port_nfa(rng, num_entry=rng.randint(1, 3), num_exit=rng.randint(1, 3))
    for _ in range(20):
        p = helpers.random_port_nfa(rng)
        # A duplicate entry set and an empty one.
        yield core.PortNfa(
            p.alphabet, p.num_states, p.transitions,
            p.entry_sets + (p.entry_sets[0], frozenset()), p.exit_sets,
        )
    for _ in range(4):
        yield helpers.random_nfa(rng, max_states=90, min_states=65, max_syms=2)
        yield helpers.random_port_nfa(rng, max_states=90, min_states=65, num_entry=3)
    # One direction explores far more than the other: a dead tail (ties
    # among them), reverse_friendly as a plain NFA, as a port NFA with three
    # exit sets and behind 60-odd unused states; each also mirrored.
    for _ in range(30):
        a = _dead_tail(rng, rng.randint(4, 6))
        yield from (a, core.reverse(a))
    for k in range(4, 9):
        rf = reverse_friendly(k)
        port = dataclasses.replace(rf.as_port(), exit_sets=(frozenset({k + 1}), frozenset({k, k + 1}), frozenset()))
        for a in (rf, port, _padded(rf, 60 + k)):
            yield from (a, core.reverse(a))


def _same_or_both_out(a, budget, log=None):
    """The library's smaller complement equals the build-both reference, or both run out."""
    try:
        expected = helpers.smaller_complement_reference(a, budget=budget)
    except BudgetExceededError:
        with pytest.raises(BudgetExceededError):
            gate._smaller_complement(a, budget=budget)
        return "budget"
    got = gate._smaller_complement(a, budget=budget, log=log)
    assert got == expected  # class, states, transitions, ports and state names
    return got


def test_smaller_complement_matches_the_build_both_reference():
    seen = Counter()
    for a in _smaller_cases():
        log = []
        got = _same_or_both_out(a, 4096, log)
        seen["large"] += a.num_states > 64
        try:
            fwd, pre_f = powerset._complement(a, powerset.Direction.FORWARD, 4096)
            rev, pre_r = powerset._complement(a, powerset.Direction.REVERSE, 4096)
        except BudgetExceededError:
            continue
        full = {"forward": (fwd.num_states, pre_f), "reverse": (rev.num_states, pre_r)}
        _check_cut_or_full(log[0], a, full, seen, 4096)
        seen["reverse"] += rev.num_states < fwd.num_states
        if fwd.num_states == rev.num_states and fwd != rev:
            assert got == fwd  # ties go to forward
            seen["tie"] += 1
        # The side that explores at least four times more, past 32 macrostates.
        if max(pre_f, pre_r) >= max(4 * min(pre_f, pre_r), 32):
            more, its = ("forward", fwd) if pre_f > pre_r else ("reverse", rev)
            outcome = "tie" if fwd.num_states == rev.num_states else "loses" if got != its else "wins"
            seen[f"{more} explores more, {outcome}"] += 1
            sets = len(a.exit_sets if more == "forward" else a.entry_sets)
            seen[f"{more} explores more, several accepting sets"] += sets > 1
            seen[f"{more} explores more, large"] += a.num_states > 64
        if pre_f != pre_r:
            # Only the larger exploration runs out; the other one is built.
            side = "only_forward_out" if pre_f > pre_r else "only_reverse_out"
            got = _same_or_both_out(a, min(pre_f, pre_r))
            assert got == (rev if pre_f > pre_r else fwd)
            seen[side] += 1
        if min(pre_f, pre_r) > 1:
            assert _same_or_both_out(a, min(pre_f, pre_r) - 1) == "budget"
            seen["both_out"] += 1
    wanted = ["tie", "reverse", "large", "only_forward_out", "only_reverse_out", "both_out"]
    wanted += [f"{d} {what}" for d in ("forward", "reverse")
               for what in ("explores more, tie", "explores more, loses", "explores more, several accepting sets",
                            "explores more, large", "cut", "cut, several accepting sets", "cut, large")]
    # Bound == s: the reverse loser is cut at a tie, the forward one is
    # built and wins it, however much more it explores.
    wanted += ["reverse cut at a tie", "forward explores more, built at a tie"]
    assert all(seen[k] > 3 for k in wanted), seen
    assert seen["forward cut at a tie"] == 0, seen


def _check_cut_or_full(entry, a, full, seen, budget):
    """A log entry against each direction's (trimmed size, macrostates) built
    in full: a cut direction is one that cannot win, reverse at the chosen
    size s and forward past it, and explored no more; one that ran out
    explored the whole budget; any other one is logged with its size,
    having explored all of it."""
    s = full[entry["chosen"]][0]
    for d, (size, pre) in full.items():
        if entry[d] == "cut":
            assert size >= s + (d == "forward") and entry["explored"][d] <= pre
            seen[f"{d} cut"] += 1
            seen[f"{d} cut, several accepting sets"] += len(a.exit_sets if d == "forward" else a.entry_sets) > 1
            seen[f"{d} cut, large"] += a.num_states > 64
            seen[f"{d} cut at a tie"] += size == s
        elif entry[d] == "budget":
            assert entry["explored"][d] == budget < pre
        else:
            assert (entry[d], entry["explored"][d]) == (size, pre)
            other = full["reverse" if d == "forward" else "forward"]
            seen[f"{d} explores more, built at a tie"] += size == other[0] and pre >= 4 * other[1]


def test_smaller_complement_validates_once(monkeypatch):
    rng = random.Random(88)
    cases = [helpers.random_nfa(rng, max_states=8) for _ in range(20)] + [gate_chain(3).as_port()]
    calls = helpers.count_validations(monkeypatch)
    for a in cases:
        calls.clear()
        gate._smaller_complement(a, budget=4096)
        assert calls == ["derived:" + type(a).__name__], calls


def _clean_side(p):
    """The clean side of ``p`` as gate complements it, and ``p``'s gate symbol ids."""
    base = p.base
    if p.direction is GateDirection.FRONT_CLEAN:
        exits = tuple(base.front.exit_sets[j] for j in gate._carried_exits(p))
        return dataclasses.replace(base.front, exit_sets=exits + base.inner_exit_ports_front), p.gamma_ids
    side = base.rear_for_equal() if p.method is GateMethod.EQUAL else base.rear_for_targets()
    return side, p.gamma_ids


def _clean_sides():
    """(kind, clean side, gate symbol ids), the clean side as gate complements it.

    Seeded partitions, up to 25 of each direction and method, give the front
    (front-clean, with its carried and gate exits) or the rear with its gate
    entries (rear-clean).  Basic-gate fronts follow, then the gate family's
    clean sides and their mirrors, where one direction is cut, then 65-90-state
    port NFAs whose gate symbol comes first, in the middle or last, so that
    macrostate masks span several bytes.
    """
    rng = random.Random(18_2026)
    per_kind = Counter()
    for _ in range(1000):
        a = helpers.random_nfa(rng, max_states=10, max_syms=3)
        for p in gate.find_gate_partitions(a.as_port(), check_budget=10**5):
            kind = f"{p.direction.value} {p.method.value}"
            per_kind[kind] += 1
            if per_kind[kind] > 25:
                continue
            yield kind, *_clean_side(p)
    for _ in range(20):
        a1, _a2 = helpers.random_gate_instance(rng, max_component_states=8)
        yield "basic", a1, frozenset({2})
    for k in range(4, 8):
        # The gate family's clean side, which forward powerset blows up, and its mirror.
        (p,) = gate.find_gate_partitions(gate_chain(k).as_port())
        side, gamma_ids = _clean_side(p)
        yield "chain", side, gamma_ids
        yield "chain", core.reverse(side), gamma_ids
    for _ in range(12):
        p = helpers.random_port_nfa(rng, max_states=90, min_states=65, num_entry=2, max_syms=2)
        gamma = rng.randrange(3)
        clean = [sym for sym in range(3) if sym != gamma]
        trans = frozenset((src, clean[sym], dst) for (src, sym, dst) in p.transitions)
        yield "large", dataclasses.replace(p, alphabet=("a", "b", "c"), transitions=trans), frozenset({gamma})


def _clean_same_or_both_out(a, gamma_ids, budget):
    """The library's clean complement equals the drop-and-lift reference's,
    or both run out and log nothing; the library's log entry, or None.

    The entries agree but where the library cut a direction, which the
    reference, building both, logs with its size or ``"budget"``.
    """
    want_log, got_log = [], []
    try:
        want = helpers.clean_complement_reference(a, gamma_ids, budget=budget, log=want_log, side="clean")
    except BudgetExceededError:
        with pytest.raises(BudgetExceededError):
            gate._smaller_complement(a, budget=budget, log=got_log, side="clean", skip=gamma_ids)
        assert got_log == want_log == []
        return None
    got = gate._smaller_complement(a, budget=budget, log=got_log, side="clean", skip=gamma_ids)
    assert type(got) is type(want) and got == want  # states, transitions, ports and state names
    (entry,), (want_entry,) = got_log, want_log
    assert {k: v for k, v in entry.items() if k != "explored"} == {
        k: "cut" if entry[k] == "cut" else v for k, v in want_entry.items()
    }
    return entry


def test_clean_complement_matches_drop_complement_lift():
    seen = Counter()
    for kind, a, gamma_ids in _clean_sides():
        seen[kind] += 1
        entry = _clean_same_or_both_out(a, gamma_ids, 4096)
        if entry is None:
            seen["out"] += 1
            continue
        seen[entry["chosen"]] += 1
        dropped = helpers.drop_symbols_reference(a, gamma_ids)
        full = {d.value: helpers.complement_reference(dropped, d) for d in powerset.Direction}
        full = {d: (c.num_states, pre) for d, (c, pre) in full.items()}
        _check_cut_or_full(entry, a, full, seen, 4096)
        pre = sorted(p for _size, p in full.values())
        # At the budget edges one direction or both run out.
        for budget in (pre[0] - 1, pre[0], pre[1] - 1, pre[1]):
            entry = _clean_same_or_both_out(a, gamma_ids, budget)
            if entry is not None:
                _check_cut_or_full(entry, a, full, seen, budget)
            seen["edge out" if entry is None else "edge one" if "budget" in entry.values() else "edge"] += 1
    kinds = ["front-clean equal", "front-clean disjoint", "rear-clean equal", "rear-clean disjoint"]
    wanted = kinds + ["basic", "chain", "forward", "reverse", "edge out", "edge one", "edge"]
    wanted += ["forward cut", "reverse cut"]
    assert all(seen[k] > 3 for k in wanted), seen
    assert seen["large"] == 12 and seen["large"] > seen["out"], seen


def test_gate_stats_log_a_direction_that_runs_out():
    # A direction that runs out of budget is passed over, unless the accepting
    # macrostates it discovered reach its bar.  The front's forward exploration
    # runs out with 4 of its 5 accepting, below its bar of 5 (reverse's 4, plus
    # one for coming first in the tie order).  The rear's reverse one runs out
    # with all 5 accepting, at its bar of forward's 5, and is cut.
    st = {}
    gate.gate_complement_auto(gate_chain(2), budget=5, stats=st)
    assert st["complements"] == [
        {"side": "front", "forward": "budget", "reverse": 4, "chosen": "reverse",
         "explored": {"forward": 5, "reverse": 5}},
        {"side": "rear", "forward": 5, "reverse": "cut", "chosen": "forward",
         "explored": {"forward": 5, "reverse": 5}},
    ]


def test_gate_stats_log_a_direction_that_is_cut():
    # At 16 the front's forward exploration stops within budget, and is cut;
    # the rear's reverse one passes 16 in its last expansion and runs out,
    # with its 16 discovered macrostates all accepting, past its bar of 7: cut
    # before budget.  At 12 both run out inside the first lockstep step, and
    # are cut the same way.
    for budget in (12, 16):
        st = {}
        gate.gate_complement_auto(gate_chain(4), budget=budget, stats=st)
        assert st["complements"] == [
            {"side": "front", "forward": "cut", "reverse": 6, "chosen": "reverse",
             "explored": {"forward": budget, "reverse": 7}},
            {"side": "rear", "forward": 7, "reverse": "cut", "chosen": "forward",
             "explored": {"forward": 7, "reverse": budget}},
        ]


def test_gate_explores_little_of_the_losing_direction():
    st = {}
    gate.gate_complement_auto(gate_chain(12), budget=4096, stats=st)
    assert [(e["forward"], e["reverse"]) for e in st["complements"]] == [("cut", 14), (15, "cut")]
    # Run to the end, both directions explored 8,222 macrostates.
    assert sum(n for e in st["complements"] for n in e["explored"].values()) <= 128


# --- splits built from their parts, the complement in one build -----------------


def _route(p):
    return f"{p.direction.value} {p.method.value}" + (" intersection" if p.needs_intersection else "")


def _built_or_error(build):
    try:
        return build()
    except BudgetExceededError as exc:
        return type(exc).__name__


def _named_partitions(per_route=10):
    """(source, partition) over seeded NFAs on three symbols until each of
    the eight routes is seen ``per_route`` times; each source unnamed, with
    distinct names and with repeated names that clash with s, t and
    macrostate names."""
    rng, names = random.Random(19_2026), random.Random(19)
    seen = Counter()
    for _ in range(1300):
        a = helpers.random_nfa(rng, max_states=7, max_syms=3)
        routes = {_route(p) for p in gate.find_gate_partitions(a.as_port(), check_budget=10**5)}
        if all(seen[r] >= per_route for r in routes):
            continue
        seen.update(routes)
        for named in helpers.name_variants(a, names):
            port = named.as_port()
            for p in gate.find_gate_partitions(port, check_budget=10**5):
                yield port, p


def test_split_views_and_complements_match_the_re_split_source():
    seen = Counter()
    for a, p in _named_partitions():
        seen[_route(p)] += 1
        seen["named" if a.state_names else "unnamed"] += 1
        _rev, want = helpers.front_clean_view_reference(a, p)
        view = gate._front_clean_view(p)
        assert view.direction is GateDirection.FRONT_CLEAN
        assert helpers.split_parts(view.base) == helpers.split_parts(want)
        for entries_to_front in (True, False):
            _stripped, want = helpers.strip_outer_reference(a, p.base, entries_to_front=entries_to_front)
            got = gate._strip_outer(p.base, entries_to_front=entries_to_front)
            assert helpers.split_parts(got) == helpers.split_parts(want)
        got = _built_or_error(lambda: gate.apply_gate_complement(p, budget=512))
        want = _built_or_error(lambda: helpers.gate_complement_reference(a, p, budget=512))
        assert type(got) is type(want) and got == want  # states, transitions, ports and state names
    routes = [f"{d.value} {m.value}{i}" for d in GateDirection for m in GateMethod for i in ("", " intersection")]
    assert all(seen[r] > 0 for r in routes) and seen["named"] > seen["unnamed"] > 50, seen


def test_gate_views_match_the_derivations_they_replace(monkeypatch):
    """The two component inputs that gate complements, and the prefix and
    suffix languages its checks compare, equal the dataclasses.replace
    builds they replace."""
    inputs = []
    smaller = gate._smaller_complement

    def capture(a, **kwargs):
        inputs.append(a)
        return smaller(a, **kwargs)

    monkeypatch.setattr(gate, "_smaller_complement", capture)
    rng = random.Random(19_2030)
    seen = Counter()
    for _a, p in _named_partitions(per_route=4):
        inputs.clear()
        carried = gate._carried_exits(p)
        _built_or_error(lambda: gate._component_complements(p, carried, budget=512))
        wants = helpers.component_inputs_reference(p, carried)
        assert len(inputs) in (1, 2)
        for got, want in zip(inputs, wants):
            helpers.assert_same_build(got, want)
        base = gate._front_clean_view(p).base
        fronts, rears = base.front.num_states, base.rear.num_states
        for i in range(base.front.num_entry):
            finals = frozenset(q for q in range(fronts) if rng.random() < 0.4)
            want = helpers.prefix_language_reference(base, i, finals)
            helpers.assert_same_build(gate._prefix_language(base, i, finals), want)
        for j in range(base.rear.num_exit):
            starts = frozenset(q for q in range(rears) if rng.random() < 0.4)
            want = helpers.suffix_language_reference(base, starts, j)
            helpers.assert_same_build(gate._suffix_language(base, starts, j), want)
        seen[_route(p)] += 1
    assert len(seen) == 8, seen


def test_basic_gate_matches_the_union_of_its_halves():
    rng = random.Random(19_2027)
    for _ in range(40):
        a1, a2 = helpers.random_gate_instance(rng, max_component_states=6)
        for n1, n2 in zip(helpers.name_variants(a1, rng), helpers.name_variants(a2, rng)):
            got = gate.gate_complement_basic(n1, n2, "c")
            want = helpers.gate_complement_basic_reference(n1, n2, "c")
            assert type(got) is type(want) and got == want


def test_partition_search_splits_only_the_cuts_that_qualify(monkeypatch):
    """``SequentialPartition.of`` runs once per cut whose symbols qualify: some
    transition crosses it, its gate symbols leave a symbol over, and they
    occur inside the front or inside the rear but not in both."""
    of = core.SequentialPartition.__dict__["of"].__func__
    split = []

    def counted(cls, a, front_states):
        split.append(tuple(sorted(front_states)))
        return of(cls, a, front_states)

    monkeypatch.setattr(core.SequentialPartition, "of", classmethod(counted))
    rng = random.Random(19_2028)
    seen = Counter()
    for _ in range(200):
        a = helpers.random_nfa(rng, max_states=7, max_syms=3).as_port()
        dag = core.scc_condensation(a)
        cuts = gate._downward_closed_cuts(dag) if len(dag.components) > 1 else []
        qualifying = []
        for cut in cuts:
            front = {q for k in cut for q in dag.components[k]}
            gamma = {sym for (x, sym, t) in a.transitions if x in front and t not in front}
            inside_front = {sym for (x, sym, t) in a.transitions if x in front and t in front}
            inside_rear = {sym for (x, sym, t) in a.transitions if x not in front and t not in front}
            ok = gamma and len(gamma) < len(a.alphabet) and not (gamma & inside_front and gamma & inside_rear)
            qualifying += [tuple(sorted(front))] if ok else []
            seen["qualifying" if ok else "rejected"] += 1
        split.clear()
        gate.find_gate_partitions(a, check_budget=10**5)
        assert split == qualifying
    assert seen["qualifying"] > 50 and seen["rejected"] > 50, seen


def test_gate_complement_builds_once_after_its_components(monkeypatch):
    smaller = gate._smaller_complement
    built = helpers.count_validations(monkeypatch)

    def component(*args, **kwargs):
        out = smaller(*args, **kwargs)
        built.clear()
        return out

    monkeypatch.setattr(gate, "_smaller_complement", component)
    seen = Counter()
    for _a, p in _named_partitions():
        if p.needs_intersection or seen[_route(p)] >= 5:
            continue
        seen[_route(p)] += 1
        gate.apply_gate_complement(p, budget=512)
        assert built == ["derived:PortNfa"], (_route(p), built)
    assert len(seen) == 4, seen
    rng = random.Random(19_2029)
    for _ in range(5):
        a1, a2 = helpers.random_gate_instance(rng, max_component_states=6)
        gate.gate_complement_basic(a1, a2, "c")
        assert built == ["derived:Nfa"]


def test_gate_partition_reads_its_facts_off_the_split():
    """Every partition found on seeded NFAs over 3 symbols is the partition
    its split, direction and method make, and gives a complement that the
    exact check accepts, on all eight routes."""
    rng = random.Random(1)
    seen = Counter()
    for _ in range(2000):
        a = helpers.random_nfa(rng, max_states=7, max_syms=3)
        for p in gate.find_gate_partitions(a.as_port(), check_budget=10**5):
            assert gate.GatePartition(p.base, p.direction, p.method) == p
            c = gate.apply_gate_complement(p).slice(0, 0)
            assert oracle.exact_complement_check(a, c).ok, (a, _route(p))
            seen[_route(p)] += 1
    assert len(seen) == 8, seen
