import random

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
        c1 = gate._lift_alphabet(
            gate._smaller_complement(gate._drop_symbol_nfa(a1, "c")), a1.alphabet
        )
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
        gate._drop_symbols(a, frozenset({0, 1}))
    assert str(info.value) == "cannot complement over an empty alphabet"
    with pytest.raises(ValueError) as info:
        gate._drop_symbols(a, frozenset({1}))
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
