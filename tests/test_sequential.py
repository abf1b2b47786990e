import collections
import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings

import helpers
from nfacomp import _kernels, cli, core, fileformat, oracle, powerset, reduction, sequential
from nfacomp.errors import BudgetExceededError, CutError
from nfacomp.families import gate_chain, reverse_friendly, sequential_chain
from nfacomp.powerset import Direction
from nfacomp.sequential import PartitionStrategy


# --- partitioning -----------------------------------------------------------


def test_partition_a2_deterministic_components():
    parts = sequential.partition(reverse_friendly(2), PartitionStrategy.DETERMINISTIC_COMPONENTS)
    assert parts.components == ((0,), (1, 2, 3))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_partition_chain_family(n):
    b = sequential_chain(n)
    det = sequential.partition(b, PartitionStrategy.DETERMINISTIC_COMPONENTS)
    assert det.components == (tuple(range(n + 2)), tuple(range(n + 2, 2 * n + 3)))
    for strat in (PartitionStrategy.DET_PLUS_REVDET_BOTTOM, PartitionStrategy.MIN_CUT):
        parts = sequential.partition(b, strat)
        assert parts.components == (tuple(range(n + 1)), tuple(range(n + 1, 2 * n + 3)))


def eligible_two_cuts(a):
    """Brute-force enumeration of the cuts the min-cut network can express.

    The flow network wires a fresh source to every SCC without predecessors
    and uses the last topological SCC as the sink, so eligible fronts are the
    predecessor-closed component sets containing all those roots and missing
    the sink.
    """
    dag = core.scc_condensation(a)
    m = len(dag.components)
    preds = [set() for _ in range(m)]
    for i, j, _cap in dag.edges:
        preds[j].add(i)
    roots = {i for i in range(m) if not preds[i] and i != m - 1}
    cuts = []
    for bits in itertools.product((False, True), repeat=m):
        front = {i for i in range(m) if bits[i]}
        if not front or m - 1 in front or not roots <= front:
            continue
        if any(not preds[j] <= front for j in front):
            continue
        cuts.append(front)
    return dag, cuts


def crossing_count(a, front_states):
    return sum(1 for (s, _y, t) in a.transitions if s in front_states and t not in front_states)


def test_min_cut_minimizes_over_eligible_cuts():
    rng = random.Random(20260814)
    checked = 0
    while checked < 40:
        a = helpers.random_nfa(rng, max_states=7, max_syms=2)
        dag, cuts = eligible_two_cuts(a)
        if not cuts:
            continue
        checked += 1
        parts = sequential.partition(a, PartitionStrategy.MIN_CUT)
        front = set(parts.components[0])
        best = min(
            crossing_count(a, set().union(*(dag.components[i] for i in cut)))
            for cut in cuts
        )
        assert crossing_count(a, front) == best


def test_min_cut_capacity_equals_networkx_max_flow():
    nx = pytest.importorskip("networkx")
    rng = random.Random(99)
    checked = 0
    while checked < 40:
        a = helpers.random_nfa(rng, max_states=7, max_syms=2)
        dag = core.scc_condensation(a)
        m = len(dag.components)
        if m < 2:
            continue
        checked += 1
        parts = sequential.partition(a, PartitionStrategy.MIN_CUT)
        front = set(parts.components[0])
        g = nx.DiGraph()
        has_pred = set()
        for i, j, cap in dag.edges:
            g.add_edge(i, j, capacity=cap)
            g.add_edge(j, i, capacity=float("inf"))
        for _i, j, _cap in dag.edges:
            has_pred.add(j)
        g.add_node("s")
        g.add_node(m - 1)
        for i in range(m):
            if i not in has_pred and i != m - 1:
                g.add_edge("s", i, capacity=float("inf"))
        flow = nx.maximum_flow_value(g, "s", m - 1) if nx.has_path(g, "s", m - 1) else 0
        assert crossing_count(a, front) == flow


def _partition_inputs():
    """Seeded random NFAs of 1-130 states, the three families, and small
    automata whose condensation has no edges or whose reverse-deterministic
    bottom is everything."""
    rng = random.Random(35)
    for k in range(300):
        top = (4, 12, 40, 130)[k % 4]
        yield helpers.random_nfa(rng, max_states=top, max_syms=1 + k % 3, min_states=top // 3 or 1)
    for n in (1, 2, 5, 40):
        yield sequential_chain(n)
    for n in (2, 4, 6):
        yield gate_chain(n)
        yield reverse_friendly(n)
    for n in (2, 3, 9):
        yield core.Nfa.build(("a", "b"), n, [], {0}, {n - 1})
        yield core.Nfa.build(("a",), n, [(q, "a", q + 1) for q in range(n - 1)], {0}, {n - 1})


def _bottom_kind(a, sccs):
    """Where the widest reverse-deterministic bottom of ``sccs`` starts."""
    k = len(sccs)
    while k and helpers.induced_reverse_deterministic_reference(a, set().union(*sccs[k - 1:])):
        k -= 1
    return "empty bottom" if k == len(sccs) else "all bottom" if k == 0 else "suffix bottom"


def test_partition_matches_the_splits_it_replaced():
    """Every strategy's ``partition`` equals ``helpers.partition_reference``,
    built on the replaced condensation and min cut."""
    seen = collections.Counter()
    for a in _partition_inputs():
        for strategy in PartitionStrategy:
            assert sequential.partition(a, strategy) == helpers.partition_reference(a, strategy), strategy
        dag = helpers.condense_reference(a)
        m = len(dag.components)
        if m < 2:
            continue
        seen[_bottom_kind(a, dag.components)] += 1
        seen["no edges"] += not dag.edges
        seen["several sinks"] += len(set(range(m)) - {i for i, _j, _c in dag.edges}) > 1
        seen["many components"] += m >= 40
    assert min(seen.values()) >= 5 and len(seen) == 6, seen


# --- composition ------------------------------------------------------------


def test_determinize_front():
    b1 = sequential_chain(1)
    p = core.SequentialPartition.of(b1, [0, 1])
    det_p = sequential.determinize_front(p)
    assert core.is_deterministic(det_p.front) and core.is_complete(det_p.front)
    assert det_p.front.num_states == 3  # {0}, {1}, {}
    assert det_p.front.state_names == ("{0}", "{1}", "{}")
    # The whole partition is renumbered: the rear keeps its shape but now
    # sits after the three macrostates, and the transfer edge follows it.
    assert det_p.rear_states == (3, 4, 5)
    assert det_p.rear.num_states == p.rear.num_states
    assert det_p.transfer == ((1, 0, 3),)
    assert det_p.gate_targets == (3,)


def test_seq_complement_basic_matches_drawn_example():
    a1 = core.Nfa.build(("a", "b"), 2, [(0, "a", 1), (0, "b", 1)], {0}, {1})
    a2 = core.Nfa.build(
        ("a", "b"),
        3,
        [(0, "a", 0), (0, "b", 0), (0, "a", 1), (1, "a", 2), (1, "b", 2)],
        {0},
        {2},
    )
    c = sequential.seq_complement_basic(a1, a2, "a")
    assert c.num_states == 6
    assert oracle.oracle_complement_check(sequential_chain(1), c, 7).ok


def test_seq_complement_basic_validation():
    a1 = core.Nfa.build(("a",), 2, [(0, "a", 1)], {0}, {0, 1})
    a2 = core.Nfa.build(("a",), 1, [(0, "a", 0)], {0}, {0})
    with pytest.raises(ValueError):
        sequential.seq_complement_basic(a1, a2, "a")  # two final states up front
    with pytest.raises(ValueError):
        sequential.seq_complement_basic(
            core.Nfa.build(("a",), 1, [], {0}, {0}),
            core.Nfa.build(("b",), 1, [], {0}, {0}),
            "a",
        )


def _basic_or_error(build):
    try:
        out = build()
    except (ValueError, BudgetExceededError) as exc:
        return type(exc).__name__, str(exc)
    return out, out.name  # the names compare with the automaton; its name does not


def test_seq_complement_basic_matches_the_union_route():
    """The split laid out from a1 and a2 against a1 →c→ a2 built by
    ``core.union`` and split again: same automaton, names and errors.

    Each component pair runs unnamed, with distinct names and with clashing
    ones (``helpers.name_variants``, every combination of the two sides);
    most pairs are cut to one final state in a1 and one initial state in a2,
    the rest raise.  The gate symbol is ``c``, which neither side uses, or
    ``a``, which both may; a small budget sometimes cuts the construction.
    """
    rng = random.Random(20_2026)
    seen = collections.Counter()
    for case in range(60):
        a1, a2 = helpers.random_gate_instance(rng, max_component_states=5)
        if case % 4:
            a1 = dataclasses.replace(a1, final=frozenset({max(a1.final)}))
            a2 = dataclasses.replace(a2, initial=frozenset({min(a2.initial)}))
        c = "ac"[case % 3 != 0]
        budget = 6 if case % 5 == 0 else None
        for v1, v2 in itertools.product(list(helpers.name_variants(a1, rng)), list(helpers.name_variants(a2, rng))):
            got = _basic_or_error(lambda: sequential.seq_complement_basic(v1, v2, c, budget=budget))
            want = _basic_or_error(lambda: helpers.seq_complement_basic_reference(v1, v2, c, budget=budget))
            assert got == want
            seen[got[0] if isinstance(got[0], str) else "built"] += 1
    assert seen["built"] and seen["ValueError"] and seen["BudgetExceededError"], seen


def test_seq_complement_basic_builds_the_split_from_its_parts(monkeypatch):
    """No full validation on a 2 + 2-state input: the determinized front,
    the rear complement and the composition are derived from ids the
    library numbered, and the rest are views; both check only their port
    sets and names.  The views are the two parts, the renamed determinized
    front and rear, the rear with its gate entries and the composition's
    slice."""
    a1 = core.Nfa.build(("a", "b"), 2, [(0, "a", 1), (1, "b", 1)], {0}, {1})
    a2 = core.Nfa.build(("a", "b"), 2, [(0, "b", 1), (1, "a", 0)], {0}, {1})
    calls = helpers.count_validations(monkeypatch)
    sequential.seq_complement_basic(a1, a2, "a")
    assert calls == (["view:PortNfa"] * 2 + ["derived:PortNfa"] + ["view:PortNfa"] * 3
                     + ["derived:PortNfa"] * 2 + ["view:Nfa"])


def test_each_input_is_condensed_once(monkeypatch, tmp_path):
    """``seq_pipeline_best`` condenses its input once for all its strategies,
    and ``-m portfolio`` once for sequential and gate: the condensation is
    cached on the automaton and shared with its port view."""
    condensed = []
    condense = core._condense
    monkeypatch.setattr(core, "_condense", lambda a: condensed.append(a) or condense(a))
    rng = random.Random(2631)
    inputs = [gate_chain(4), sequential_chain(4), reverse_friendly(3)]
    inputs += [helpers.random_nfa(rng, max_states=9) for _ in range(20)]
    for a in inputs:
        condensed.clear()
        try:
            sequential.seq_pipeline_best(a, budget=4096)
        except BudgetExceededError:
            pass
        assert len(condensed) == 1
    src, dst = tmp_path / "a.nfa", tmp_path / "c.nfa"
    for a in inputs[:3]:
        src.write_text(fileformat.serialize(a))
        condensed.clear()
        assert cli.main(["complement", "-m", "portfolio", "--budget", "4096", "-i", str(src), "-o", str(dst)]) == 0
        assert len(condensed) == 1


def _composition_inputs():
    p = core.SequentialPartition.of(sequential_chain(1), [0, 1])
    det_p = sequential.determinize_front(p)
    return p, det_p, powerset.reverse_complement(det_p.rear_for_targets())


@pytest.mark.parametrize("call, text", [
    (lambda p, det_p, c2: sequential.seq_complement_generalized(p, c2),
     "front must be deterministic and complete (see determinize_front)"),
    (lambda p, det_p, c2: sequential.seq_complement_generalized(
        det_p, dataclasses.replace(c2, alphabet=c2.alphabet[::-1])),
     "c2 alphabet does not match the partition"),
    (lambda p, det_p, c2: sequential.seq_complement_generalized(
        det_p, dataclasses.replace(c2, entry_sets=c2.entry_sets[:-1])),
     "c2 entry ports do not line up with the rear's ports"),
    (lambda p, det_p, c2: sequential.seq_complement_generalized(
        det_p, dataclasses.replace(c2, exit_sets=c2.exit_sets * 2)),
     "c2 exit ports do not line up with the rear's ports"),
    (lambda p, det_p, c2: sequential.seq_complement_basic(
        core.Nfa.build(("a",), 1, [], {0}, {0}), core.Nfa.build(("a",), 2, [], {0, 1}, {0}), "a"),
     "a2 needs exactly one initial state"),
    (lambda p, det_p, c2: sequential.seq_complement_basic(
        core.Nfa.build(("a",), 1, [], {0}, {0}), core.Nfa.build(("a",), 1, [], {0}, {0}), "z"),
     "symbol 'z' not in the alphabet"),
])
def test_composition_rejects_inputs_that_do_not_fit(call, text):
    with pytest.raises(ValueError) as info:
        call(*_composition_inputs())
    assert str(info.value) == text


def test_generalized_tracks_one_instance_on_chain():
    b1 = sequential_chain(1)
    p = core.SequentialPartition.of(b1, [0, 1])
    det_p = sequential.determinize_front(p)
    c2 = powerset.port_reverse_complement(det_p.rear_for_targets())
    comp, ann = sequential.seq_complement_generalized_annotated(det_p, c2)
    assert comp.num_states == 6
    assert max(len(s.tracked) for s in ann) == 1
    out = core.trim(comp.slice(0, 0))
    assert oracle.oracle_complement_check(b1, out, 7).ok


def test_determinize_front_renames_repeated_macrostate_names():
    # Front states 0 and 1 are both named x, so macrostates {0} and {1} are
    # both named {x}: the later becomes {x}_2, and the rear's {x} after them
    # becomes {x}_3.
    a = core.Nfa.build(
        ("a", "b"), 4, [(0, "a", 1), (1, "b", 2), (2, "a", 3)], {0}, {3}, state_names=("x", "x", "{x}", "y")
    )
    det_p = sequential.determinize_front(core.SequentialPartition.of(a, [0, 1]))
    assert det_p.front.state_names == ("{x}", "{x}_2", "{}")
    assert det_p.rear.state_names == ("{x}_3", "y")
    assert (det_p.front_states, det_p.rear_states, det_p.transfer) == ((0, 1, 2), (3, 4), ((1, 1, 3),))


def _named_splits():
    """Seeded port NFAs, each unnamed, with distinct names and with repeated
    names that clash with macrostate names, cut at every topological prefix
    of their condensation; after each split, the splits of its determinized
    rear with the gate-target ports, as the pipeline makes them."""
    rng, names = random.Random(19_2030), random.Random(21)
    for _ in range(120):
        a = helpers.random_port_nfa(rng, max_states=7, num_entry=rng.randint(1, 3), num_exit=rng.randint(1, 3))
        for named in helpers.name_variants(a, names):
            comps = core.scc_condensation(named).components
            for k in range(1, len(comps)):
                p = core.SequentialPartition.of(named, [q for c in comps[:k] for q in c])
                yield p
                rear = helpers.determinize_front_reference(p).rear_for_targets()
                rear_comps = core.scc_condensation(rear).components
                if len(rear_comps) > 1:
                    yield core.SequentialPartition.of(rear, rear_comps[0])


def test_determinize_front_matches_the_combined_re_split():
    seen = {"front renamed": 0, "rear renamed": 0, "rear unnamed": 0, "rear kept": 0}
    for p in _named_splits():
        got = sequential.determinize_front(p)
        assert helpers.split_parts(got) == helpers.split_parts(helpers.determinize_front_reference(p))
        det = powerset.determinize(p.front).nfa
        seen["front renamed"] += got.front.state_names != det.state_names
        if p.rear.state_names is None:
            seen["rear unnamed"] += 1
        else:
            seen["rear renamed" if got.rear.state_names != p.rear.state_names else "rear kept"] += 1
    assert all(n > 5 for n in seen.values()), seen


def seeded_partitions(rng, count, max_states=6):
    """Random automata with a random downward-closed front split."""
    made = 0
    while made < count:
        a = helpers.random_nfa(rng, max_states=max_states, max_syms=2)
        dag = core.scc_condensation(a)
        if len(dag.components) < 2:
            continue
        k = rng.randint(1, len(dag.components) - 1)
        front = set()
        # A topological prefix of the condensation is always downward closed.
        for comp in dag.components[:k]:
            front |= comp
        p = core.SequentialPartition.of(a, front)
        if not p.transfer:
            continue
        made += 1
        yield a, p


def test_generalized_complements_random_partitions():
    rng = random.Random(4242)
    for a, p in seeded_partitions(rng, 30):
        det_p = sequential.determinize_front(p)
        c2 = powerset.port_reverse_complement(det_p.rear_for_targets())
        comp = sequential.seq_complement_generalized(det_p, c2)
        out = core.trim(comp.slice(0, 0))
        assert helpers.brute_complement_ok(a, out, 5)


def test_generalized_with_forward_rear_complement():
    rng = random.Random(77)
    for a, p in seeded_partitions(rng, 15):
        det_p = sequential.determinize_front(p)
        c2 = powerset.port_forward_complement(det_p.rear_for_targets())
        comp = sequential.seq_complement_generalized(det_p, c2)
        out = core.trim(comp.slice(0, 0))
        assert helpers.brute_complement_ok(a, out, 5)


def exploration_cases():
    """(partition, rear complement) pairs: seeded random splits and the families.

    Both rear directions are used; the forward complement of the rear of
    sequential_chain(5) has 65 states, so tracked sets cross one 64-bit word.
    """
    rng = random.Random(9091)
    for _a, p in seeded_partitions(rng, 60, max_states=8):
        det_p = sequential.determinize_front(p)
        yield det_p, powerset.port_reverse_complement(det_p.rear_for_targets())
        yield det_p, powerset.port_forward_complement(det_p.rear_for_targets())
    for a in [sequential_chain(n) for n in (1, 3, 5)] + [gate_chain(n) for n in (1, 2)]:
        for strat in PartitionStrategy:
            comps = sequential.partition(a, strat).components
            det_p = sequential.determinize_front(core.SequentialPartition.of(a.as_port(), comps[0]))
            yield det_p, powerset.port_reverse_complement(det_p.rear_for_targets())
            yield det_p, powerset.port_forward_complement(det_p.rear_for_targets())


def test_exploration_matches_naive_reference():
    widest = 0
    for det_p, c2 in exploration_cases():
        widest = max(widest, c2.num_states)
        out, ann = sequential.seq_complement_generalized_annotated(det_p, c2)
        ref_out, ref_ann = helpers.seq_complement_reference(det_p, c2)
        assert out == ref_out  # transitions, ports and state names, in order
        assert ann == ref_ann
    assert widest > 64


def test_exploration_budget_edge_matches_naive_reference():
    det_p = sequential.determinize_front(core.SequentialPartition.of(gate_chain(2).as_port(), [0]))
    c2 = powerset.port_reverse_complement(det_p.rear_for_targets())
    n = helpers.seq_complement_reference(det_p, c2)[0].num_states
    assert sequential.seq_complement_generalized_annotated(det_p, c2, budget=n)[0].num_states == n
    for explore in (helpers.seq_complement_reference, sequential.seq_complement_generalized_annotated):
        with pytest.raises(BudgetExceededError):
            explore(det_p, c2, budget=n - 1)


def pruning_cases():
    """(name, partition, rear complement): the seeded splits and single splits of the families."""
    rng = random.Random(9091)
    for i, (_a, p) in enumerate(seeded_partitions(rng, 60, max_states=8)):
        det_p = sequential.determinize_front(p)
        yield f"random-{i} reverse", det_p, powerset.port_reverse_complement(det_p.rear_for_targets())
        yield f"random-{i} forward", det_p, powerset.port_forward_complement(det_p.rear_for_targets())
    families = [(f"seq{n}", sequential_chain(n)) for n in range(2, 9)]
    families += [(f"gate{n}", gate_chain(n)) for n in (2, 3, 4)]
    for name, a in families:
        firsts = {}
        for strat in PartitionStrategy:
            firsts.setdefault(sequential.partition(a, strat).components[0], strat)
        for front, strat in firsts.items():
            det_p = sequential.determinize_front(core.SequentialPartition.of(a.as_port(), front))
            yield f"{name} {strat.value} reverse", det_p, powerset.port_reverse_complement(det_p.rear_for_targets())
            yield f"{name} {strat.value} forward", det_p, powerset.port_forward_complement(det_p.rear_for_targets())


def test_pruning_drops_only_what_trim_drops():
    cut = []
    for name, det_p, c2 in pruning_cases():
        try:
            full = helpers.seq_complement_reference(det_p, c2, budget=5000, prune=False)[0]
        except BudgetExceededError:
            cut.append(name)
            continue
        assert core.trim(full) == core.trim(sequential.seq_complement_generalized(det_p, c2)), name
    # Unpruned, these two explorations build 67,710 and over 200,000 composites.
    assert cut == ["gate3 det reverse", "gate4 det reverse"]


def sparse_port_nfa(rng, n):
    """About one successor per state and symbol, two or three small exit sets."""
    trans = [(q, sym, rng.randrange(n)) for q in range(n) for sym in "ab" for _ in range(rng.choice((0, 1, 1, 2)))]
    exits = [{rng.randrange(n) for _ in range(rng.randint(0, 3))} for _ in range(rng.randint(2, 3))]
    return core.PortNfa.build(("a", "b"), n, trans, [{0}], exits)


def test_together_masks_match_a_pair_search(monkeypatch):
    monkeypatch.setattr(sequential, "_TOGETHER_PER_STATE", 130)  # never give up below 131 states
    rng = random.Random(606)
    empty_language = 0
    for _ in range(12):
        c2 = sparse_port_nfa(rng, rng.randint(65, 130))
        pairs = helpers.together_pairs_reference(c2)
        want = [core._mask_of(s for (r2, s) in pairs if r2 == r) for r in range(c2.num_states)]
        assert sequential._together_masks(c2) == want
        empty_language += want.count(0)
    assert empty_language > 0


def codeterministic_cases():
    """(name, partition, rear complement) whose rear complement is reverse-deterministic
    with singleton exit sets: the reverse ones of ``pruning_cases`` and the first
    splits of ``gate_chain(5..7)`` under the det strategy (71-265 states)."""
    cases = [case for case in pruning_cases() if core.is_reverse_deterministic(case[2])]
    for n in (5, 6, 7):
        a = gate_chain(n)
        front = sequential.partition(a, PartitionStrategy.DETERMINISTIC_COMPONENTS).components[0]
        det_p = sequential.determinize_front(core.SequentialPartition.of(a.as_port(), front))
        cases.append((f"gate{n} det reverse", det_p, powerset.reverse_complement(det_p.rear_for_targets())))
    return cases


def test_pair_relation_of_a_codeterministic_rear_is_the_identity():
    """No word leads two states of a reverse-deterministic automaton with
    singleton exit sets into one exit: the fixpoint relates each state that
    reaches an exit to itself alone, on plain and port rears."""
    rng = random.Random(1919)
    rears = [powerset.reverse_complement(helpers.random_nfa(rng, max_states=9)) for _ in range(60)]
    rears += [powerset.reverse_complement(helpers.random_port_nfa(rng, num_exit=rng.randint(1, 3))) for _ in range(60)]
    rears += [c2 for _name, _p, c2 in codeterministic_cases()]
    seen = collections.Counter()
    for c2 in rears:
        if not core.is_reverse_deterministic(c2):
            continue
        pairs = helpers.together_pairs_reference(c2)
        assert all(r == s for (r, s) in pairs)
        assert sequential._together_masks(c2) == [1 << r if (r, r) in pairs else 0 for r in range(c2.num_states)]
        seen["port" if isinstance(c2, core.PortNfa) else "plain"] += 1
        seen["large"] += c2.num_states > 64
    assert seen["plain"] > 20 and seen["port"] > 20 and seen["large"] >= 3, seen


def test_identity_companions_compose_as_the_fixpoint_does(monkeypatch):
    """On a co-deterministic rear the composition skips the pair table, so
    the cap no longer decides whether it prunes: with the cap at 0 it builds
    what the fixpoint path builds."""
    cases = codeterministic_cases()
    with monkeypatch.context() as m:
        m.setattr(core, "is_reverse_deterministic", lambda a: False)
        want = [sequential._compose(det_p, c2, None) for _name, det_p, c2 in cases]
    monkeypatch.setattr(sequential, "_TOGETHER_CAP", 0)
    for (name, det_p, c2), (out, decoded, pruned) in zip(cases, want):
        got = sequential._compose(det_p, c2, None)
        assert (got[0], got[1], got[2]) == (out, decoded, pruned), name
        helpers.assert_same_build(got[0], out)
    assert sum(w[2] > 0 for w in want) > 10


@pytest.mark.parametrize("limit", ["_TOGETHER_CAP", "_TOGETHER_PER_STATE"])
def test_pair_table_gives_up_above_its_caps(monkeypatch, limit):
    c2 = sparse_port_nfa(random.Random(7), 80)
    pairs = sequential._together_masks(c2)
    assert pairs is not None
    count = sum(m.bit_count() for m in pairs)
    # Exactly at the cap the table is built; one below, the rule is off.
    at_cap = c2.num_states if limit == "_TOGETHER_CAP" else -(-count // c2.num_states)
    monkeypatch.setattr(sequential, limit, at_cap)
    assert sequential._together_masks(c2) == pairs
    monkeypatch.setattr(sequential, limit, at_cap - 1)
    assert sequential._together_masks(c2) is None


def test_with_the_rule_off_the_exploration_is_unpruned(monkeypatch):
    cases = [case for case in pruning_cases() if case[0].startswith(("random-1", "seq", "gate2"))]
    pruned = [sequential.seq_complement_generalized(det_p, c2) for _name, det_p, c2 in cases]
    monkeypatch.setattr(sequential, "_TOGETHER_CAP", 0)
    monkeypatch.setattr(core, "is_reverse_deterministic", lambda a: False)
    for (name, det_p, c2), out in zip(cases, pruned):
        full = sequential.seq_complement_generalized(det_p, c2)
        assert full == helpers.seq_complement_reference(det_p, c2, prune=False)[0], name
        assert core.trim(full) == core.trim(out), name


def composition_cases():
    """(partition, rear complement) pairs of every composition case: ``exploration_cases``,
    the family splits of ``pruning_cases`` (its random ones are the same draws) and the
    ``gate_chain(5..7)`` splits of ``codeterministic_cases``, rears of up to 513 states."""
    cases = list(exploration_cases())
    cases += [(det_p, c2) for name, det_p, c2 in pruning_cases() if not name.startswith("random")]
    cases += [(det_p, c2) for name, det_p, c2 in codeterministic_cases() if name.startswith(("gate5", "gate6", "gate7"))]
    return cases


def composed(compose, det_p, c2, budget, bar):
    """``compose``'s automaton, decoded states and ``pruned``, or the class name of its error."""
    try:
        return compose(det_p, c2, budget, bar)
    except (BudgetExceededError, CutError) as exc:
        return type(exc).__name__


def assert_same_composition(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        helpers.assert_same_build(got[0], want[0])
        assert (got[1], got[2]) == (want[1], want[2])


def test_compose_matches_the_pinned_copy():
    """``_compose`` gives what ``helpers.compose_pinned`` (the composition
    before it ran on the keyed driver) gives, or raises the same error, at
    budgets 0, count - 1 and count and without one, under no bar and bars
    of 1, the accepting count and one more."""
    seen = collections.Counter()
    for det_p, c2 in composition_cases():
        out = helpers.compose_pinned(det_p, c2, None)[0]
        count, accepting = out.num_states, len(out.exit_sets[0])
        seen["large"] += c2.num_states > 64
        for budget in (None, 0, count - 1, count):
            for bar in (None, 1, accepting, accepting + 1):
                want = composed(helpers.compose_pinned, det_p, c2, budget, bar)
                assert_same_composition(composed(sequential._compose, det_p, c2, budget, bar), want)
                seen[want if isinstance(want, str) else "built"] += 1
    assert seen["large"] > 8 and min(seen[k] for k in ("built", "BudgetExceededError", "CutError")) > 500, seen


@pytest.mark.parametrize("step", [1, 7, 64])
def test_compositions_and_products_stop_and_resume_at_any_count(monkeypatch, step):
    """With ``KeyedExploration.advance`` run in steps of ``step`` keys,
    ``_compose`` (at the budget edges and under bars) and ``product_intersection``
    return what one run returns."""
    cases = composition_cases()[::3]
    runs = []
    for det_p, c2 in cases:
        out = sequential._compose(det_p, c2, None)[0]
        count, accepting = out.num_states, len(out.exit_sets[0])
        for budget, bar in [(None, None), (count - 1, None), (None, accepting), (count, accepting + 1)]:
            runs.append((det_p, c2, budget, bar, composed(sequential._compose, det_p, c2, budget, bar)))
    products = [(c2, det_p.rear_for_targets()) for det_p, c2 in cases]
    whole = [core.product_intersection(a, b) for a, b in products]
    advance, calls = _kernels.KeyedExploration.advance, collections.Counter()

    def stepped(self, limit=None):
        while True:
            calls["step"] += 1
            status = advance(self, len(self.keys) + step if limit is None else min(len(self.keys) + step, limit))
            if status is not False or limit is not None and len(self.keys) >= limit:
                return status

    monkeypatch.setattr(_kernels.KeyedExploration, "advance", stepped)
    for det_p, c2, budget, bar, want in runs:
        assert_same_composition(composed(sequential._compose, det_p, c2, budget, bar), want)
    for (a, b), want in zip(products, whole):
        helpers.assert_same_build(core.product_intersection(a, b), want)
    assert calls["step"] > 2 * (len(runs) + len(products))
    assert sum(w.num_states > 64 for w in whole) > 2, [w.num_states for w in whole]


# --- the full pipeline ------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pipeline_sizes_on_chain_family(n):
    b = sequential_chain(n)
    for strat in (PartitionStrategy.DET_PLUS_REVDET_BOTTOM, PartitionStrategy.MIN_CUT):
        out = sequential.seq_pipeline(b, strat)
        assert out.num_states == 2 * n + 4
    det_out = sequential.seq_pipeline(b, PartitionStrategy.DETERMINISTIC_COMPONENTS)
    assert det_out.num_states == 2 * n + 5


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pipeline_language_on_chain_family(n):
    b = sequential_chain(n)
    out = sequential.seq_pipeline(b, PartitionStrategy.DET_PLUS_REVDET_BOTTOM)
    assert oracle.oracle_complement_check(b, out, 6).ok


def test_pipeline_stats_shape():
    stats = {}
    out = sequential.seq_pipeline(
        sequential_chain(1), PartitionStrategy.DET_PLUS_REVDET_BOTTOM, stats=stats
    )
    assert stats == {
        "strategy": "detrev",
        "component_sizes": [2, 3],
        "stage_sizes": [4, 6],
        "pre_trim": 6,
        "pruned": 0,
    }
    assert out.num_states <= stats["pre_trim"]


def test_pipeline_single_component_falls_back_to_powerset():
    a = core.Nfa.build(("a",), 1, [(0, "a", 0)], {0}, {0})
    for strat in PartitionStrategy:
        out = sequential.seq_pipeline(a, strat)
        assert helpers.brute_complement_ok(a, out, 5)


def test_pipeline_forward_rear():
    b = sequential_chain(2)
    out = sequential.seq_pipeline(
        b, PartitionStrategy.DET_PLUS_REVDET_BOTTOM, Direction.FORWARD
    )
    assert oracle.oracle_complement_check(b, out, 6).ok


def test_pipeline_best_picks_smallest():
    stats = {}
    out, strat = sequential.seq_pipeline_best(sequential_chain(2), stats=stats)
    assert out.num_states == 8
    assert strat in (PartitionStrategy.DET_PLUS_REVDET_BOTTOM, PartitionStrategy.MIN_CUT)
    assert stats["strategy"] == strat.value
    for other in PartitionStrategy:
        assert out.num_states <= sequential.seq_pipeline(sequential_chain(2), other).num_states


def gate_joined():
    """Two strongly connected, nondeterministic parts joined by c: one cut."""
    a1 = core.Nfa.build("abc", 2, [(0, "a", 0), (0, "a", 1), (1, "b", 0), (1, "a", 1)], {0}, {1})
    a2 = core.Nfa.build("abc", 2, [(0, "b", 0), (0, "b", 1), (1, "a", 0), (1, "b", 1)], {0}, {1})
    return helpers.concat_with_gate(a1, a2, "c")


def test_pipeline_best_runs_each_distinct_partition_once(monkeypatch):
    a = gate_joined()
    assert len({sequential.partition(a, s).components for s in PartitionStrategy}) == 1
    separately = []
    for strat in PartitionStrategy:
        local = {}
        separately.append((sequential.seq_pipeline(a, strat, stats=local), strat, local))
    # Ties keep the first strategy in enum order.
    expected = min(separately, key=lambda run: run[0].num_states)

    calls = []
    real_run, real_partition = sequential._run_pipeline, sequential.partition

    def counted_run(*args):
        calls.append(("run", args[1]))
        return real_run(*args)

    def counted_partition(*args):
        calls.append(("partition", args[1]))
        return real_partition(*args)

    monkeypatch.setattr(sequential, "_run_pipeline", counted_run)
    monkeypatch.setattr(sequential, "partition", counted_partition)
    stats = {}
    out, strat = sequential.seq_pipeline_best(a, stats=stats)
    # Each strategy's partition is computed once, and the pipeline runs once.
    comps = real_partition(a, PartitionStrategy.DETERMINISTIC_COMPONENTS).components
    assert calls == [
        ("partition", PartitionStrategy.DETERMINISTIC_COMPONENTS), ("run", comps),
        ("partition", PartitionStrategy.DET_PLUS_REVDET_BOTTOM),
        ("partition", PartitionStrategy.MIN_CUT),
    ]
    attempts = stats.pop("attempts")
    assert (out, strat, stats) == expected
    assert attempts[1:] == [
        {"strategy": s.value, "outcome": "same_partition_as", "same_partition_as": "det"}
        for s in (PartitionStrategy.DET_PLUS_REVDET_BOTTOM, PartitionStrategy.MIN_CUT)
    ]


def test_pipeline_best_shares_a_budget_cut():
    # On reverse_friendly(3), det and mincut give the same partition; with a
    # forward rear complement, det runs over a budget that detrev stays within.
    a = reverse_friendly(3)
    stats = {}
    out, strat = sequential.seq_pipeline_best(a, Direction.FORWARD, budget=16, stats=stats)
    assert strat is PartitionStrategy.DET_PLUS_REVDET_BOTTOM
    assert [(x["strategy"], x["outcome"]) for x in stats["attempts"]] == [
        ("det", "budget"), ("detrev", "ok"), ("mincut", "same_partition_as"),
    ]
    assert stats["attempts"][2]["same_partition_as"] == "det"
    assert oracle.oracle_complement_check(a, out, 6).ok


@pytest.mark.parametrize("a", [sequential_chain(n) for n in range(4, 13)] + [gate_chain(3)],
                         ids=[f"seq{n}" for n in range(4, 13)] + ["gate3"])
def test_det_builds_only_composites_that_survive_trim(a):
    stats = {}
    out = sequential.seq_pipeline(a, PartitionStrategy.DETERMINISTIC_COMPONENTS, stats=stats)
    assert stats["pre_trim"] == out.num_states
    assert stats["pruned"] > 0


def test_det_wins_on_gate_chain_4_at_the_default_budget():
    stats = {}
    out, strat = sequential.seq_pipeline_best(gate_chain(4), stats=stats)
    assert (strat, out.num_states) == (PartitionStrategy.DETERMINISTIC_COMPONENTS, 78)
    # detrev (80 states when built in full) is cut once it cannot beat det.
    assert [(x["strategy"], x["outcome"], x.get("states")) for x in stats["attempts"]] == [
        ("det", "ok", 78), ("detrev", "cut", None), ("mincut", "same_partition_as", None),
    ]


@pytest.mark.parametrize("rear, route", [("reverse", "codeterministic"), ("forward", "hopcroft")])
def test_rear_simulation_pass_takes_the_route_its_shape_allows(tmp_path, monkeypatch, rear, route):
    """``complement -m sequential`` on ``gate_chain(6)``: the reverse rear
    complement (the default) is reverse-deterministic with singleton exits,
    so the simulation pass returns it trimmed; a forward one is a trim DFA,
    so the pass takes Hopcroft's classes.  Neither runs the fixpoint."""
    rears, routes, fixpoints = [], [], []
    complement, reduce, classes = sequential._complement, sequential.simulation_reduce_port, reduction._simulation_classes

    def rear_complement(*args):
        out = complement(*args)
        rears.append(out[0])
        return out

    def reduced(a):
        stats = {}
        out = reduce(a, stats=stats)
        routes.append((a, stats["reduce"]))
        return out

    def counted(a):
        fixpoints.append(a)
        return classes(a)

    monkeypatch.setattr(sequential, "_complement", rear_complement)
    monkeypatch.setattr(sequential, "simulation_reduce_port", reduced)
    monkeypatch.setattr(reduction, "_simulation_classes", counted)
    src = tmp_path / "gate6.nfa"
    src.write_text(fileformat.serialize(gate_chain(6)))
    flags = [] if rear == "reverse" else ["--rear", "forward"]
    assert cli.main(["complement", "-m", "sequential", "-i", str(src), "-o", str(tmp_path / "c.nfa"), *flags]) == 0
    assert len(rears) == 2, len(rears)
    assert [[r for (a, r) in routes if a is c] for c in rears] == [[route], [route]]
    assert not any(a is c for a in fixpoints for c in rears)


def test_pipeline_random_inputs():
    rng = random.Random(31337)
    for _ in range(25):
        a = helpers.random_nfa(rng, max_states=6, max_syms=2)
        out, _strat = sequential.seq_pipeline_best(a)
        assert helpers.brute_complement_ok(a, out, 5)


def test_pipeline_budget():
    with pytest.raises(BudgetExceededError):
        sequential.seq_pipeline(
            reverse_friendly(6), PartitionStrategy.DETERMINISTIC_COMPONENTS, budget=3
        )


# --- the single-instance premises and the additive bound ---------------------


def test_single_instance_class_on_chain_partitions():
    for n in (1, 2, 3):
        b = sequential_chain(n)
        good = core.SequentialPartition.of(b, range(n + 1))
        assert sequential.single_instance_class(good)
        assert sequential.single_instance_class(sequential.determinize_front(good))
        # The det-components split puts the looping state up front, where it
        # can re-reach the gate source after a gate has fired.
        bad = core.SequentialPartition.of(b, range(n + 2))
        assert not sequential.single_instance_class(bad)


def test_single_instance_rejects_outer_rear_entries():
    a = core.Nfa.build(("a",), 2, [(0, "a", 1)], {0, 1}, {1})
    p = core.SequentialPartition.of(a, [0])
    assert any(p.rear.entry_sets)
    assert not sequential.single_instance_class(p)


def test_single_instance_rejects_double_gate():
    a = core.Nfa.build(("a",), 3, [(0, "a", 1), (0, "a", 2)], {0}, {1, 2})
    p = core.SequentialPartition.of(a, [0])
    assert not sequential.single_instance_class(p)


def test_activation_targets_on_chain():
    b1 = sequential_chain(1)
    p = core.SequentialPartition.of(b1, [0, 1])
    assert sequential.activation_targets(p) == frozenset()
    det_p = sequential.determinize_front(p)
    assert len(sequential.activation_targets(det_p)) == 1


def additive_bound_data(a, front_states):
    p = core.SequentialPartition.of(a, front_states)
    det_p = sequential.determinize_front(p)
    c2 = powerset.port_reverse_complement(det_p.rear_for_targets())
    comp, ann = sequential.seq_complement_generalized_annotated(det_p, c2)
    bound = det_p.front.num_states + len(sequential.activation_targets(det_p)) * c2.num_states
    tracked = max(len(s.tracked) for s in ann)
    return p, det_p, comp, bound, tracked


def test_additive_bound_holds_on_chain_family():
    for n in (1, 2, 3):
        b = sequential_chain(n)
        p, det_p, comp, bound, tracked = additive_bound_data(b, range(n + 1))
        assert sequential.single_instance_class(det_p)
        assert tracked == 1
        assert comp.num_states == 2 * n + 4
        assert comp.num_states <= bound == (n + 2) + (n + 3)


def test_additive_bound_counterexample():
    """A 4-state instance in the single-instance class whose composite
    complement has 6 states while the additive formula gives only 5: the
    determinized front can advance underneath a parked rear instance, so the
    |A_1| + n*|C_2| count misses mixed combinations.  Kept as a frozen record;
    the acceptance suite asserts the bound as stated and fails on this input.
    """
    cx = core.Nfa.build(
        ("a", "b"),
        4,
        [
            (0, "a", 1), (0, "b", 1),
            (1, "a", 2), (1, "b", 2),
            (2, "a", 2), (2, "b", 2),
            (0, "a", 3), (3, "a", 3),
        ],
        {0},
        {3},
    )
    p, det_p, comp, bound, tracked = additive_bound_data(cx, [0, 1, 2])
    assert sequential.single_instance_class(p)
    assert sequential.single_instance_class(det_p)
    assert tracked == 1
    assert bound == 5
    assert comp.num_states == 6  # exceeds the additive formula
    out = core.trim(comp.slice(0, 0))
    assert helpers.brute_complement_ok(cx, out, 6)
