import dataclasses
import random
from collections import Counter

import pytest

import helpers
from nfacomp import core, gate, oracle, powerset
from nfacomp.errors import BudgetExceededError, NoGatePartitionError
from nfacomp.families import gate_chain
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
    base = core.SequentialPartition.of(gate_chain(1), [0, 1, 2])
    assert base.gate_symbols == (2,)  # the one gate is on "c"
    with pytest.raises(ValueError) as info:
        gate.GatePartition(base, frozenset({"a"}), GateDirection.FRONT_CLEAN, GateMethod.EQUAL, False)
    assert str(info.value) == "gate_symbols must equal the transfer-transition symbols"
    dirty = core.SequentialPartition.of(
        core.Nfa.build(("a", "c"), 3, [(0, "c", 1), (1, "c", 2)], {0}, {2}), [0, 1]
    )
    with pytest.raises(ValueError) as info:
        gate.GatePartition(dirty, frozenset({"c"}), GateDirection.FRONT_CLEAN, GateMethod.EQUAL, False)
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


def _same_or_both_cut(a, budget):
    """The library's smaller complement equals the build-both reference, or both run out."""
    try:
        expected = helpers.smaller_complement_reference(a, budget=budget)
    except BudgetExceededError:
        with pytest.raises(BudgetExceededError):
            gate._smaller_complement(a, budget=budget)
        return "cut"
    got = gate._smaller_complement(a, budget=budget)
    assert got == expected  # class, states, transitions, ports and state names
    return got


def test_smaller_complement_matches_the_build_both_reference():
    seen = {"tie": 0, "reverse": 0, "large": 0, "only_forward_cut": 0, "only_reverse_cut": 0, "both_cut": 0}
    for a in _smaller_cases():
        got = _same_or_both_cut(a, 4096)
        seen["large"] += a.num_states > 64
        try:
            fwd, pre_f = powerset._complement(a, powerset.Direction.FORWARD, 4096)
            rev, pre_r = powerset._complement(a, powerset.Direction.REVERSE, 4096)
        except BudgetExceededError:
            continue
        seen["reverse"] += rev.num_states < fwd.num_states
        if fwd.num_states == rev.num_states and fwd != rev:
            assert got == fwd  # ties go to forward
            seen["tie"] += 1
        if pre_f != pre_r:
            # Only the larger exploration runs out; the other one is built.
            side = "only_forward_cut" if pre_f > pre_r else "only_reverse_cut"
            got = _same_or_both_cut(a, min(pre_f, pre_r))
            assert got == (rev if pre_f > pre_r else fwd)
            seen[side] += 1
        if min(pre_f, pre_r) > 1:
            assert _same_or_both_cut(a, min(pre_f, pre_r) - 1) == "cut"
            seen["both_cut"] += 1
    assert all(n > 3 for n in seen.values()), seen


def test_smaller_complement_validates_once(monkeypatch):
    calls = []
    check = core._Automaton._normalize_and_check

    def counted(self, *args):
        calls.append(type(self).__name__)
        check(self, *args)

    rng = random.Random(88)
    cases = [helpers.random_nfa(rng, max_states=8) for _ in range(20)] + [gate_chain(3).as_port()]
    monkeypatch.setattr(core._Automaton, "_normalize_and_check", counted)
    for a in cases:
        calls.clear()
        gate._smaller_complement(a, budget=4096)
        assert len(calls) == 1, calls


def _clean_sides():
    """(kind, clean side, gate symbol ids), the clean side as gate complements it.

    Seeded partitions, up to 25 of each direction and method, give the front
    (front-clean, with its carried and gate exits) or the rear with its gate
    entries (rear-clean).  Basic-gate fronts follow, then 65-90-state port
    NFAs whose gate symbol comes first, in the middle or last, so that
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
            base = p.base
            if p.direction is GateDirection.FRONT_CLEAN:
                exits = tuple(base.front.exit_sets[j] for j in gate._carried_exits(p))
                side = dataclasses.replace(base.front, exit_sets=exits + base.inner_exit_ports_front)
            else:
                side = base.rear_for_equal() if p.method is GateMethod.EQUAL else base.rear_for_targets()
            yield kind, side, p.gamma_ids
    for _ in range(20):
        a1, _a2 = helpers.random_gate_instance(rng, max_component_states=8)
        yield "basic", a1, frozenset({2})
    for _ in range(12):
        p = helpers.random_port_nfa(rng, max_states=90, min_states=65, num_entry=2, max_syms=2)
        gamma = rng.randrange(3)
        clean = [sym for sym in range(3) if sym != gamma]
        trans = frozenset((src, clean[sym], dst) for (src, sym, dst) in p.transitions)
        yield "large", dataclasses.replace(p, alphabet=("a", "b", "c"), transitions=trans), frozenset({gamma})


def _clean_same_or_both_cut(a, gamma_ids, budget):
    """The library's clean complement and log entry equal the drop-and-lift
    reference's, or both run out and log nothing; the entry, or None."""
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
    assert got_log == want_log
    return want_log[0]


def test_clean_complement_matches_drop_complement_lift():
    seen = Counter()
    for kind, a, gamma_ids in _clean_sides():
        seen[kind] += 1
        entry = _clean_same_or_both_cut(a, gamma_ids, 4096)
        if entry is None:
            seen["cut"] += 1
            continue
        seen[entry["chosen"]] += 1
        dropped = helpers.drop_symbols_reference(a, gamma_ids)
        pre = sorted(powerset._complement(dropped, d, None)[1] for d in powerset.Direction)
        # At the budget edges one direction or both run out.
        for budget in (pre[0] - 1, pre[0], pre[1] - 1, pre[1]):
            entry = _clean_same_or_both_cut(a, gamma_ids, budget)
            seen["edge cut" if entry is None else "edge one" if "budget" in entry.values() else "edge"] += 1
    kinds = ["front-clean equal", "front-clean disjoint", "rear-clean equal", "rear-clean disjoint"]
    assert all(seen[k] > 3 for k in kinds + ["basic", "forward", "reverse", "edge cut", "edge one", "edge"]), seen
    assert seen["large"] == 12 and seen["large"] > seen["cut"], seen


def test_gate_stats_log_a_direction_that_runs_out():
    st = {}
    gate.gate_complement_auto(gate_chain(4), budget=20, stats=st)
    assert st["complements"] == [
        {"side": "front", "forward": "budget", "reverse": 6, "chosen": "reverse"},
        {"side": "rear", "forward": 7, "reverse": "budget", "chosen": "forward"},
    ]
