import ast
import copy
import dataclasses
import itertools
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
import hypothesis.strategies as st

import helpers
from conftest import nfa_pairs, nfas, port_nfas
from nfacomp import core, gate, heuristic, powerset, reduction, sequential
from nfacomp.errors import BudgetExceededError
from nfacomp.families import reverse_friendly


A2 = reverse_friendly(2)


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        core.Nfa.build(("a", "a"), 1, [], {0}, set())
    with pytest.raises(ValueError):
        core.Nfa.build(("a",), 1, [(0, "b", 0)], {0}, set())
    with pytest.raises(ValueError):
        core.Nfa.build(("a",), 1, [(0, "a", 1)], {0}, set())
    with pytest.raises(ValueError):
        core.Nfa.build(("a",), 1, [], {1}, set())
    with pytest.raises(ValueError):
        core.PortNfa.build(("a",), 1, [], [], [{0}])


def _two_states(cls, *, alphabet=("a", "b"), transitions=(), starts=(0,), ends=(1,), names=None):
    ports = (starts, ends) if cls is core.Nfa else ((starts,), (ends,))
    return cls(alphabet, 2, transitions, *ports, state_names=names)


_GUARDS_OF_BOTH = [
    ("empty alphabet", dict(alphabet=()), "alphabet must be nonempty", None),
    ("duplicate symbol", dict(alphabet=("a", "a")), "alphabet has duplicate symbols", None),
    ("state range", dict(transitions=[(0, 0, 2)]), "transition (0,0,2) leaves the state range", None),
    ("symbol index", dict(transitions=[(0, 2, 1)]), "transition (0,2,1) uses an unknown symbol index", None),
    ("entry range", dict(starts=(2,)), "initial contains 2, outside the state range",
     "entry set 0 contains 2, outside the state range"),
    ("exit range", dict(ends=(-1,)), "final contains -1, outside the state range",
     "exit set 0 contains -1, outside the state range"),
    ("names length", dict(names=("p",)), "state_names length must match num_states", None),
]
_PORT = core.PortNfa.build(("a",), 2, [(0, "a", 1)], [{0}, {1}], [{1}])
_OTHER_ALPHABET = core.Nfa.build(("a", "c"), 1, [], {0}, set())

GUARDS = [
    pytest.param(
        lambda cls=cls, kw=kw: _two_states(cls, **kw),
        ValueError,
        port_text if port_text and cls is core.PortNfa else text,
        id=f"{cls.__name__}-{what}",
    )
    for what, kw, text, port_text in _GUARDS_OF_BOTH
    for cls in (core.Nfa, core.PortNfa)
] + [
    pytest.param(lambda: core.Nfa.build(("a",), 1, [(0, "b", 0)], {0}, set()), ValueError,
                 "unknown symbol 'b'", id="Nfa-build unknown symbol"),
    pytest.param(lambda: core.PortNfa.build(("a",), 1, [(0, "b", 0)], [{0}], [set()]), ValueError,
                 "unknown symbol 'b'", id="PortNfa-build unknown symbol"),
    pytest.param(lambda: core.PortNfa(("a",), 1, (), (), ({0},)), ValueError,
                 "port NFA needs at least one entry and one exit port set", id="PortNfa-no entry sets"),
    pytest.param(lambda: core.PortNfa(("a",), 1, (), ({0},), ()), ValueError,
                 "port NFA needs at least one entry and one exit port set", id="PortNfa-no exit sets"),
    pytest.param(lambda: core.PortNfa(("a",), 2, (), ({0}, {3}), ({1},)), ValueError,
                 "entry set 1 contains 3, outside the state range", id="PortNfa-second entry range"),
    pytest.param(lambda: _PORT.slice(2, 0), IndexError, "entry port index 2 out of range", id="slice entry"),
    pytest.param(lambda: _PORT.slice(0, 1), IndexError, "exit port index 1 out of range", id="slice exit"),
    pytest.param(lambda: core.accepts(A2, "abc"), ValueError, "symbol 'c' not in the alphabet", id="accepts"),
    pytest.param(lambda: core.antichain_inclusion(A2, _OTHER_ALPHABET), ValueError,
                 "inclusion requires matching alphabets", id="antichain_inclusion"),
    pytest.param(lambda: core.language_disjoint(A2, _OTHER_ALPHABET), ValueError,
                 "disjointness requires matching alphabets", id="language_disjoint"),
]


def _table_built(cls, *, starts=(0,), ends=(1,), names=None):
    """A table-built automaton: the table is the library's own and goes
    unchecked (``test_library_builds_pass_the_constructors_check`` checks
    what the library builds); its port sets and names are checked."""
    table = ([1, -1, 0, 1], (0, 1), False)
    return core._derived(_two_states(cls), 2, [frozenset(starts)], [frozenset(ends)], names, _table=table)


_TABLE_GUARDS = [guard for guard in _GUARDS_OF_BOTH if guard[0] in ("entry range", "exit range", "names length")]

GUARDS += [
    pytest.param(
        lambda cls=cls, kw=kw: _table_built(cls, **kw),
        ValueError,
        port_text if port_text and cls is core.PortNfa else text,
        id=f"{cls.__name__}-from_table {what}",
    )
    for what, kw, text, port_text in _TABLE_GUARDS
    for cls in (core.Nfa, core.PortNfa)
]


@pytest.mark.parametrize("build, error, text", GUARDS)
def test_guards_raise_their_error_and_text(build, error, text):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == text


def test_union_names_skip_every_suffix_already_taken():
    a = core.Nfa.build(("a",), 2, [], {0}, {1}, state_names=("x", "x_2"))
    b = core.Nfa.build(("a",), 1, [], {0}, {0}, state_names=("x",))
    assert core.union(a, b).state_names == ("x", "x_2", "x_3")


def test_accepts_on_a2():
    # A_2 accepts exactly the words with an 'a' three letters from the end.
    assert core.accepts(A2, "aaa")
    assert core.accepts(A2, "abb")
    assert core.accepts(A2, "baba")
    assert not core.accepts(A2, "")
    assert not core.accepts(A2, "bbb")
    assert not core.accepts(A2, "ab")


def test_a2_shape_predicates():
    assert not core.is_deterministic(A2)
    assert not core.is_complete(A2)
    assert core.is_reverse_deterministic(A2)


@given(nfas(), st.lists(st.sampled_from("ab"), max_size=4))
def test_reverse_flips_words(a, w):
    w = [s for s in w if s in a.alphabet]
    assert core.accepts(core.reverse(a), w) == core.accepts(a, list(reversed(w)))


@given(nfas())
def test_trim_preserves_language(a):
    t = core.trim(a)
    assert t.num_states <= a.num_states
    assert helpers.brute_language(t, 6) == helpers.brute_language(a, 6)


@given(nfa_pairs())
def test_union_language(pair):
    a, b = pair
    u = core.union(a, b)
    for w in helpers.words_up_to(a.alphabet, 5):
        assert core.accepts(u, w) == (core.accepts(a, w) or core.accepts(b, w))


@given(nfa_pairs())
def test_product_intersection_language(pair):
    a, b = pair
    x = core.product_intersection(a, b)
    for w in helpers.words_up_to(a.alphabet, 5):
        assert core.accepts(x, w) == (core.accepts(a, w) and core.accepts(b, w))


def _product_operand(rng, like, n, ports):
    """A seeded automaton of ``like``'s class over ``like``'s alphabet with ``n``
    states (0 too) and ``ports`` entry and exit sets of up to four states:
    set-built by the constructor, or table-built by ``core._derived`` from a
    forward table or a reverse one (a nondeterministic automaton)."""
    k = len(like.alphabet)

    def port_set():
        return frozenset(rng.sample(range(n), min(n, rng.randint(0, 4))))

    entry_sets, exit_sets = [port_set() for _ in range(ports)], [port_set() for _ in range(ports)]
    names = [f"q{q}" for q in range(n)] if rng.random() < 0.5 else None
    if rng.random() < 0.5:
        table = [rng.randrange(-1, n) if n else -1 for _ in range(n * k)]
        return core._derived(like, n, entry_sets, exit_sets, names, _table=(table, tuple(range(k)), rng.random() < 0.5))
    moves = {(q, sym, rng.randrange(n)) for q in range(n) for sym in range(k) for _ in range(rng.choice((0, 1, 1, 2)))}
    if isinstance(like, core.Nfa):
        return core.Nfa(like.alphabet, n, moves, *entry_sets, *exit_sets, state_names=names)
    return core.PortNfa(like.alphabet, n, moves, entry_sets, exit_sets, state_names=names)


def test_product_matches_the_pinned_copy():
    """``product_intersection`` builds what ``helpers.product_intersection_reference``
    (the product before it ran on the keyed driver) builds, on seeded plain and
    port pairs of 0-130 states, set-built and table-built, whose port sets hold
    up to four states."""
    rng = random.Random(3203)
    seen = Counter()
    for i in range(112):
        ports = 1 if i % 2 else rng.randint(2, 3)
        like = core.Nfa(("a", "b"), 0, (), (), ()) if ports == 1 else core.PortNfa(("a", "b"), 0, (), [()], [()])
        most = 130 if i % 8 == 0 else 12
        a, b = (_product_operand(rng, like, rng.randint(0, most), ports) for _ in range(2))
        got = core.product_intersection(a, b)
        helpers.assert_same_build(got, helpers.product_intersection_reference(a, b))
        seen["table"] += "_table" in a.__dict__ or "_table" in b.__dict__
        seen["large"] += got.num_states > 64
        seen["wide entry"] += max(map(len, got.entry_sets)) > 1
        seen["empty"] += got.num_states == 0
    assert min(seen.values()) > 5, seen


@given(nfa_pairs(max_states=5))
def test_antichain_inclusion_matches_enumeration(pair):
    a, b = pair
    # Length-6 enumeration is sound for refutation and only suggestive for
    # inclusion, so check the two directions asymmetrically.
    inc = core.antichain_inclusion(a, b)
    if not helpers.brute_included(a, b, 6):
        assert not inc
    if inc:
        assert helpers.brute_included(a, b, 6)


@given(nfa_pairs(max_states=4))
def test_language_equivalent_and_disjoint(pair):
    a, b = pair
    eq = core.language_equivalent(a, b)
    assert eq == (
        core.antichain_inclusion(a, b) and core.antichain_inclusion(b, a)
    )
    dis = core.language_disjoint(a, b)
    brute_dis = all(
        not (core.accepts(a, w) and core.accepts(b, w))
        for w in helpers.words_up_to(a.alphabet, 6)
    )
    if not brute_dis:
        assert not dis
    if dis:
        assert brute_dis


def test_is_empty():
    assert core.is_empty(core.Nfa.build(("a",), 1, [(0, "a", 0)], {0}, set()))
    assert not core.is_empty(A2)


def test_scc_condensation_of_a2():
    dag = core.scc_condensation(A2)
    assert dag.components == (
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
    )
    assert sorted(dag.edges) == [(0, 1, 1), (1, 2, 2), (2, 3, 2)]


@given(nfas(max_states=7))
def test_scc_condensation_against_networkx(a):
    nx = pytest.importorskip("networkx")
    g = nx.DiGraph()
    g.add_nodes_from(range(a.num_states))
    g.add_edges_from((s, t) for (s, _y, t) in a.transitions)
    expected = {frozenset(c) for c in nx.strongly_connected_components(g)}
    dag = core.scc_condensation(a)
    assert set(dag.components) == expected
    # Component order is topological: every edge goes left to right.
    for i, j, cap in dag.edges:
        assert i < j
        crossing = sum(
            1
            for (s, _y, t) in a.transitions
            if s in dag.components[i] and t in dag.components[j]
        )
        assert cap == crossing


def test_slice_and_induced():
    p = core.PortNfa.build(
        ("a",), 3, [(0, "a", 1), (1, "a", 2)], [{0}, {1}], [{2}]
    )
    s = p.slice(1, 0)
    assert s.initial == frozenset({1}) and s.final == frozenset({2})
    assert core.accepts(s, "a") and not core.accepts(s, "aa")
    sub = core.induced(core.Nfa.build(("a",), 3, [(0, "a", 1), (1, "a", 2)], {0}, {2}), [0, 1])
    assert sub.num_states == 2
    assert sub.transitions == frozenset({(0, 0, 1)})


@given(port_nfas())
def test_union_port_slicewise(p):
    q = core.union(p, p)
    for i in range(p.num_entry):
        for j in range(p.num_exit):
            assert helpers.brute_language(q.slice(i, j), 4) == helpers.brute_language(
                p.slice(i, j), 4
            )


def _both(op):
    return op, op


PLAIN_AND_PORT_OPERATIONS = {
    "reverse": _both(lambda a, b: core.reverse(a)),
    "union": _both(core.union),
    "induced": _both(lambda a, b: core.induced(a, range(0, a.num_states, 2))),
    "trim": _both(lambda a, b: core.trim(a)),
    "product_intersection": _both(core.product_intersection),
    "determinize": _both(lambda a, b: powerset.determinize(a, budget=2048).nfa),
    "forward_complement": (
        lambda a, b: powerset.forward_complement(a, budget=2048),
        lambda a, b: powerset.port_forward_complement(a, budget=2048),
    ),
    "reverse_complement": (
        lambda a, b: powerset.reverse_complement(a, budget=2048),
        lambda a, b: powerset.port_reverse_complement(a, budget=2048),
    ),
}


def _outcome(op, a, b):
    try:
        return op(a, b)
    except BudgetExceededError:
        return "budget"


@pytest.mark.parametrize("name", PLAIN_AND_PORT_OPERATIONS)
def test_plain_operation_is_the_1x1_port_operation(name):
    # Each operation is written once against the port view; on a plain NFA it
    # must return a plain NFA equal to slice (0, 0) of its result on the 1x1
    # port NFA, state names included.
    plain_op, port_op = PLAIN_AND_PORT_OPERATIONS[name]
    rng = random.Random(20251018)
    for k in range(40):
        a = helpers.random_nfa(rng, max_states=90 if k % 5 == 0 else 10, min_states=65 if k % 5 == 0 else 1)
        a = dataclasses.replace(a, state_names=[f"s{q}x" for q in range(a.num_states)], name="A")
        # b's symbol indices stay below its own alphabet size, so a's alphabet fits it.
        b = dataclasses.replace(helpers.random_nfa(rng, max_states=10, max_syms=len(a.alphabet)), alphabet=a.alphabet)
        if k % 2:
            b = dataclasses.replace(b, state_names=[f"t{q}" for q in range(b.num_states)])
        got = _outcome(plain_op, a, b)
        via_port = _outcome(port_op, a.as_port(), b.as_port())
        if got == "budget" or via_port == "budget":
            assert got == via_port, (name, k)
            continue
        assert type(got) is core.Nfa and type(via_port) is core.PortNfa, (name, k)
        assert (len(via_port.entry_sets), len(via_port.exit_sets)) == (1, 1), (name, k)
        assert got == via_port.slice(0, 0), (name, k)
        assert got.name == via_port.name, (name, k)


def test_binary_operations_reject_mismatched_inputs():
    a = core.Nfa.build(("a",), 1, [], {0}, {0})
    p = core.PortNfa.build(("a",), 1, [], [{0}, {0}], [{0}])
    for op in (core.union, core.product_intersection):
        with pytest.raises(ValueError, match="alphabets"):
            op(a, core.Nfa.build(("b",), 1, [], {0}, {0}))
        with pytest.raises(ValueError, match="arities"):
            op(a.as_port(), p)


def test_sequential_partition_of():
    b = core.Nfa.build(("a",), 3, [(0, "a", 1), (1, "a", 2)], {0}, {2})
    p = core.SequentialPartition.of(b, [0, 1])
    assert p.front_states == (0, 1) and p.rear_states == (2,)
    assert p.transfer == ((1, 0, 2),)
    assert p.gate_symbols == (0,) and p.gate_targets == (2,)
    rt = p.rear_for_targets()
    assert rt.num_entry == p.rear.num_entry + 1
    assert rt.entry_sets[-1] == frozenset({0})
    with pytest.raises(ValueError):
        core.SequentialPartition.of(b, [1])  # 0 -> 1 would cross backwards


def test_shape_facts_match_their_definitions():
    rng = random.Random(20251019)
    seen = Counter()
    for a in helpers.automata_and_complements(20251018):
        det = helpers.deterministic_reference(a)
        complete = helpers.complete_reference(a)
        revdet = helpers.deterministic_reference(core.reverse(a))
        assert core.is_deterministic(a) == det
        assert core.is_complete(a) == complete
        assert core.is_reverse_deterministic(a) == revdet
        assert a.pred_masks == core.reverse(a).succ_masks
        seen.update({f"det={det}": 1, f"complete={complete}": 1, f"revdet={revdet}": 1})
        if not isinstance(a, core.Nfa):
            continue
        score = heuristic.choose_direction(a).score_reverse
        assert score == heuristic.det_successor_score(core.reverse(a))
        subsets = [set(), set(range(a.num_states))]
        subsets += [{q for q in range(a.num_states) if rng.random() < p} for p in (0.3, 0.6, 0.9)]
        for states in subsets:
            ind = helpers.induced_deterministic_reference(a, states)
            ind_rev = helpers.induced_reverse_deterministic_reference(a, states)
            assert sequential._induced_deterministic(a, states) == ind
            assert sequential._induced_reverse_deterministic(a, states) == ind_rev
            seen.update({f"induced={ind}": 1, f"induced_rev={ind_rev}": 1})
    assert len(seen) == 10 and min(seen.values()) > 10, seen


def _constructor_twin(a, x):
    """The automaton ``powerset._build(a, x)`` stands for, spelled out
    transition by transition and built through the constructor."""
    macros, delta, entries, exits, live, reverse, syms = x
    keep = [i for i in range(len(macros)) if live is None or live[i]]
    new = {i: k for k, i in enumerate(keep)}
    moves = {
        (new[i], sym, new[j])
        for i in keep
        for sym, j in zip(syms, delta[i * len(syms) : (i + 1) * len(syms)])
        if j in new
    }
    starts = [frozenset({new[e]} if e in new else ()) for e in entries]
    accepting = [frozenset(new[i] for i in ids) for ids in exits]
    if reverse:
        moves = {(dst, sym, src) for (src, sym, dst) in moves}
        starts, accepting = accepting, starts
    names = tuple(helpers.macro_name_reference(a, macros[i]) for i in keep)
    return helpers.rebuild_reference(a, len(keep), frozenset(moves), starts, accepting, names)


def _explorations():
    """Seeded plain and port NFAs (65-90-state ones among them, and port NFAs
    over an extra symbol they do not use, explored without it), each
    explored forward and reverse, complemented (trimmed or not) or not."""
    rng = random.Random(3131)
    inputs = [helpers.random_nfa(rng, max_states=9) for _ in range(40)]
    inputs += [helpers.random_port_nfa(rng, num_entry=rng.randint(1, 3), num_exit=rng.randint(1, 3)) for _ in range(20)]
    inputs += [helpers.random_nfa(rng, max_states=90, min_states=65, max_syms=2) for _ in range(2)]
    inputs += [helpers.random_port_nfa(rng, max_states=90, min_states=65) for _ in range(2)]
    for a in inputs:
        for direction, complement in itertools.product(powerset.Direction, (False, True)):
            try:
                x = powerset._explore_port(a, 2048, complement, (direction,))
            except BudgetExceededError:
                continue
            yield a, x
            if complement:
                yield a, x._replace(live=None)  # the complement untrimmed
    for _ in range(10):
        p = helpers.random_port_nfa(rng, max_syms=2)
        shifted = {(src, sym + 1, dst) for (src, sym, dst) in p.transitions}
        wide = core.PortNfa(("x",) + p.alphabet, p.num_states, shifted, p.entry_sets, p.exit_sets)
        direction = powerset.Direction.REVERSE if rng.random() < 0.5 else powerset.Direction.FORWARD
        yield wide, powerset._explore_port(wide, 2048, True, (direction,), skip=frozenset({0}))


def test_table_built_automata_equal_their_constructor_twins():
    seen = Counter()
    for a, x in _explorations():
        twin = _constructor_twin(a, x)

        def built():  # a fresh one each time, its transitions not spelled out yet
            return powerset._build(a, x)

        t = built()
        assert (t.num_transitions, t.succ_masks, t.pred_masks) == (
            twin.num_transitions, twin.succ_masks, twin.pred_masks)
        assert "transitions" not in vars(t)  # the views above read the table
        assert t.transitions == twin.transitions
        assert t == twin and twin == built() and hash(built()) == hash(twin)
        assert copy.copy(built()) == twin and copy.copy(built()).transitions == twin.transitions
        assert dataclasses.replace(built(), name="r") == twin
        for i in range(t.num_entry):
            for j in range(t.num_exit):
                assert built().slice(i, j) == twin.slice(i, j)
        seen["reverse" if x.reverse else "forward"] += 1
        seen["port" if isinstance(a, core.PortNfa) else "plain"] += 1
        seen["dropped"] += x.live is not None and not all(x.live)
        seen["skip"] += len(x.syms) < len(a.alphabet)
        seen["large"] += t.num_states > 64
    assert all(seen[k] > 5 for k in ("forward", "reverse", "port", "plain", "dropped", "skip", "large")), seen


def test_shape_facts_of_table_built_automata_match_the_scan():
    """A forward table has at most one successor per state and symbol, a
    reverse one at most one predecessor, so the shape predicates check only
    the port sets there; on the tables (trimmed, with -1 moves, untrimmed,
    over skipped symbols) and on views of them with other port sets, they
    answer as the scan over the moves does."""
    rng = random.Random(4242)
    seen = Counter()
    for a, x in _explorations():
        t = powerset._build(a, x)
        n = t.num_states
        views = [t, t.slice(0, 0)]
        if n:
            singletons = [{rng.randrange(n)} for _ in t.entry_sets]
            views.append(core._view(t, entry_sets=singletons))
            views.append(core._view(t, entry_sets=singletons, exit_sets=[{rng.randrange(n)} for _ in t.exit_sets]))
            views.append(core._view(t, entry_sets=[set(range(n))] * t.num_entry))
        for v in views:
            det = helpers.deterministic_reference(v)
            revdet = helpers.deterministic_reference(core.reverse(v))
            assert (core.is_deterministic(v), core.is_reverse_deterministic(v)) == (det, revdet)
            seen[f"reverse revdet={revdet}" if x.reverse else f"forward det={det}"] += 1
    assert len(seen) == 4 and min(seen.values()) > 20, seen


# --- derived automata against the full builds they replace -----------------------


def _view_sources():
    """(kind, build) over seeded plain and port automata of 0-130 states:
    set-built by the constructor, named or not, and table-built by the
    forward powerset (determinized, or complemented) and by the reverse one.
    ``build`` makes a fresh automaton, nothing cached, no table spelled out."""
    rng = random.Random(2626)
    inputs = [core.Nfa(("a",), 0, (), (), ()), core.PortNfa(("a", "b"), 0, (), ((),), ((), ()))]
    for k in range(30):
        lo, hi = (65, 130) if k % 5 == 0 else (1, 9)
        if k % 2:
            inputs.append(helpers.random_nfa(rng, max_states=hi, min_states=lo, max_syms=2))
        else:
            ports = rng.randint(1, 3), rng.randint(1, 3)
            inputs.append(helpers.random_port_nfa(rng, max_states=hi, min_states=lo, num_entry=ports[0], num_exit=ports[1]))
    for a in inputs:
        names = tuple(f"q{q}" for q in range(a.num_states))
        yield "set", lambda a=a: dataclasses.replace(a)
        yield "set", lambda a=a, names=names: dataclasses.replace(a, state_names=names, name="A")
        for kind, build in (
            ("determinized", lambda a=a: powerset.determinize(a, budget=2048).nfa),
            ("forward", lambda a=a: powerset.forward_complement(a, budget=2048)),
            ("reverse", lambda a=a: powerset.reverse_complement(a, budget=2048)),
        ):
            try:
                build()
            except BudgetExceededError:
                continue
            yield kind, build


def _split_with_rear(rear, rng):
    """A split whose rear is ``rear`` behind a one-state front, with up to four
    gates into it on random symbols."""
    n, nsyms = rear.num_states, len(rear.alphabet)
    front = core.PortNfa(rear.alphabet, 1, (), ({0},) * rear.num_entry, ({0},) * rear.num_exit)
    transfer = {(0, rng.randrange(nsyms), 1 + rng.randrange(n)) for _ in range(rng.randint(1, 4) if n else 0)}
    return core.SequentialPartition((0,), tuple(range(1, n + 1)), front, rear, tuple(sorted(transfer)))


def _port_fields(a, entry_sets, exit_sets):
    """The constructor fields of ``a``'s class that hold these port sets."""
    if isinstance(a, core.Nfa):
        (initial,), (final,) = entry_sets, exit_sets
        return {"initial": initial, "final": final}
    return {"entry_sets": entry_sets, "exit_sets": exit_sets}


def test_views_match_the_derivations_they_replace():
    """Every slice, port variant, rename and complement of a complete DFA
    equals the constructor, dataclasses.replace or copy build it replaces:
    class, fields, written file and name.  It shares the source's moves (a
    table stays unspelled) and the tables built from them, and it rejects
    port sets and names with the constructor's texts."""
    rng = random.Random(2627)
    seen = Counter()
    for kind, build in _view_sources():
        a, b = build(), build()  # views come from a, references from b
        derived = (a.succ_masks, a.pred_masks, core.scc_condensation(a))
        n = a.num_states
        names = tuple(f"r{q}" for q in range(n))
        views = [core._view(a, name="renamed"), core._view(a, state_names=names)]
        wants = [helpers.renamed_reference(b, "renamed"), dataclasses.replace(b, state_names=names)]
        for i in range(a.num_entry):
            for j in range(a.num_exit):
                views.append(a.slice(i, j))
                wants.append(helpers.slice_reference(b, i, j))
        if isinstance(a, core.Nfa):
            views.append(a.as_port())
            wants.append(helpers.as_port_reference(b))
            if core.is_deterministic(a) and core.is_complete(a):
                views.append(powerset.complement_dfa(a))
                wants.append(helpers.complement_dfa_reference(b))
                seen["complete dfa"] += 1
        seed = rng.random()
        split = _split_with_rear(a if isinstance(a, core.PortNfa) else a.as_port(), random.Random(seed))
        twin = _split_with_rear(b if isinstance(b, core.PortNfa) else helpers.as_port_reference(b), random.Random(seed))
        views += [split.rear_for_targets(), split.rear_for_equal()]
        wants += [helpers.rear_for_targets_reference(twin), helpers.rear_for_equal_reference(twin)]
        for view in views:
            shared = (view.succ_masks, view.pred_masks, core.scc_condensation(view))
            assert all(x is y for x, y in zip(shared, derived))
            if kind == "set":
                assert vars(view)["transitions"] is a.transitions
            else:
                assert "transitions" not in vars(view) and vars(view)["_table"] is vars(a)["_table"]
        assert kind == "set" or "transitions" not in vars(a)
        for view, want in zip(views, wants):
            helpers.assert_same_build(view, want)
        bad = [dict(state_names=("x",) * (n + 1))]
        bad.append(dict(entry_sets=a.entry_sets[:-1] + (frozenset({n}),)))
        bad.append(dict(exit_sets=a.exit_sets[:-1] + (frozenset({rng.choice((-1, n + 1))}),)))
        for kw in bad:
            with pytest.raises(ValueError) as got:
                core._view(a, **kw)
            ports = _port_fields(b, kw.get("entry_sets", b.entry_sets), kw.get("exit_sets", b.exit_sets))
            with pytest.raises(ValueError) as want:
                dataclasses.replace(b, **ports, **{k: v for k, v in kw.items() if k == "state_names"})
            assert str(got.value) == str(want.value)
        seen[kind, type(a).__name__] += 1
        seen["large"] += a.num_states > 64
        seen["empty"] += a.num_states == 0
    kinds = ("set", "determinized", "forward", "reverse")
    assert all(seen[k, c] > 3 for k in kinds for c in ("Nfa", "PortNfa")), seen
    assert seen["large"] > 10 and seen["empty"] >= 2 and seen["complete dfa"] > 10, seen


def test_induced_and_trim_match_the_full_builds_they_replace():
    """``induced`` on every kept set (none, all, random ones, the trimmed one)
    and ``trim`` build what the full builds over the spelled-out transition
    set build: class, fields, written file and name.  They read a table-built
    automaton's moves off its table, which stays unspelled."""
    rng = random.Random(2628)
    seen = Counter()
    for kind, build in _view_sources():
        a, b = build(), build()  # the library's builds come from a, the references' from b
        n = a.num_states
        keeps = [set(), set(range(n))] + [{q for q in range(n) if rng.random() < p} for p in (0.3, 0.7, 0.95)]
        subs = [core.induced(a, keep) for keep in keeps]
        trimmed, want = core.trim(a), helpers.trim_reference(b)
        assert kind == "set" or "transitions" not in vars(a)
        for sub, keep in zip(subs, keeps):
            helpers.assert_same_build(sub, helpers.induced_reference(b, keep))
        helpers.assert_same_build(trimmed, want)
        assert (trimmed is a) == (want is b)
        seen[kind, type(a).__name__] += 1
        seen["large"] += n > 64
        seen["empty"] += n == 0
        seen["trimmed"] += want is not b
    kinds = ("set", "determinized", "forward", "reverse")
    assert all(seen[k, c] > 3 for k in kinds for c in ("Nfa", "PortNfa")), seen
    assert seen["large"] > 10 and seen["empty"] >= 2 and seen["trimmed"] > 10, seen


# --- every library build against the constructor -----------------------------------


def _constructor_build(a):
    """``a`` built again through the public constructor from its moves
    (``_edges()``), port sets, names and name: the full check of every
    transition that the library's own builds skip."""
    ports = (a.initial, a.final) if isinstance(a, core.Nfa) else (a.entry_sets, a.exit_sets)
    return type(a)(a.alphabet, a.num_states, frozenset(a._edges()), *ports, state_names=a.state_names, name=a.name)


def _gate_partitions():
    """Up to three gate partitions per route (two methods, two directions,
    with an intersection or without) of seeded NFAs on three symbols, until
    each of the eight routes is seen; the disjoint ones are rare."""
    rng, seen = random.Random(3304), Counter()
    for _ in range(2000):
        if len(seen) == 8:
            return
        a = helpers.random_nfa(rng, max_states=9, max_syms=3)
        for p in gate.find_gate_partitions(a.as_port(), check_budget=10**5):
            route = p.direction, p.method, p.needs_intersection
            if seen[route] < 3:
                seen[route] += 1
                yield p


def _library_builds():
    """(kind, automaton) for each build the library numbers itself, over
    seeded plain and port NFAs of up to 130 states: forward and reverse
    complements (some over a symbol skipped as a gate symbol), determinize,
    reverse and union of a set-built and a table-built automaton, Hopcroft's
    minimization, the simulation pass on both of its quotient routes, the
    gate complement on every route, the sequential composition and the
    product."""
    rng = random.Random(3303)
    inputs = [helpers.random_nfa(rng, max_states=9) for _ in range(24)]
    inputs += [helpers.random_port_nfa(rng, num_entry=rng.randint(1, 3), num_exit=rng.randint(1, 3)) for _ in range(12)]
    inputs += [helpers.random_nfa(rng, max_states=130, min_states=65, max_syms=2) for _ in range(3)]
    inputs += [helpers.random_port_nfa(rng, max_states=130, min_states=65) for _ in range(3)]
    for a in inputs:
        plain = isinstance(a, core.Nfa)
        skip = frozenset()
        if rng.random() < 0.5:  # over a first symbol it does not use, complemented without it
            shifted = {(src, sym + 1, dst) for (src, sym, dst) in a.transitions}
            a = type(a)(("x",) + a.alphabet, a.num_states, shifted, *(a.initial, a.final) if plain else
                        (a.entry_sets, a.exit_sets))
            skip = frozenset({0})
        complements = []
        for direction in powerset.Direction:
            try:
                x = powerset._explore_port(a, 2048, True, (direction,), skip=skip)
            except BudgetExceededError:
                continue
            complements.append(powerset._build(a, x))
            yield f"{direction.value} complement" + (" skip" if skip else ""), complements[-1]
        try:
            det = powerset.determinize(a, budget=2048).nfa
        except BudgetExceededError:
            det = None
        if det is not None:
            yield "determinize", det
            if plain:
                yield "hopcroft_minimize", reduction.hopcroft_minimize(det)
        yield "reverse", core.reverse(a)
        for c in complements:
            yield "reverse", core.reverse(c)
            yield "union", core.union(a, c)
            yield "union", core.union(c, a)
        for b in [a] + complements + ([det] if det is not None else []):
            stats = {}
            reduce = reduction.simulation_reduce if plain else reduction.simulation_reduce_port
            reduced = reduce(b, stats=stats)
            yield f"simulation route {stats['reduce']}", reduced
        if complements:
            yield "product_intersection", core.product_intersection(a, complements[0])
    for p in _gate_partitions():
        yield f"gate {p.direction.value} {p.method.value}" + (" intersection" if p.needs_intersection else ""), \
            gate.apply_gate_complement(p, budget=4096)
    for _ in range(30):
        a1, a2 = helpers.random_gate_instance(rng, max_component_states=8)
        split = core.SequentialPartition.of(helpers.concat_with_gate(a1, a2, "c"), range(a1.num_states))
        try:
            det_p = sequential.determinize_front(split, budget=2048)
            c2 = powerset.port_reverse_complement(det_p.rear_for_targets(), budget=2048)
        except BudgetExceededError:
            continue
        yield "_compose", sequential._compose(det_p, c2, None)[0]


def test_library_builds_pass_the_constructors_check():
    """Every automaton the library numbers itself is one the public
    constructor accepts, equal to that build: class, fields, written file
    and name.  A build recorded trim has no state to trim."""
    seen = Counter()
    for kind, a in _library_builds():
        twin = _constructor_build(a)
        helpers.assert_same_build(a, twin)
        if a._trim:
            assert helpers.trim_reference(twin) is twin, kind
        seen[kind] += 1
        seen["large"] += a.num_states > 64
        seen["table"] += "_table" in vars(a)
    wanted = ["forward complement", "reverse complement", "forward complement skip", "reverse complement skip",
              "determinize", "reverse", "union", "hopcroft_minimize", "simulation route hopcroft",
              "simulation route simulation", "product_intersection", "_compose", "large", "table"]
    assert all(seen[k] >= 3 for k in wanted), seen
    assert all(seen[f"gate {d.value} {m.value}{i}"] for d in gate.GateDirection for m in gate.GateMethod
               for i in ("", " intersection")), seen


def _call_sites(names):
    """(module, class, function) of every call in ``src/nfacomp`` to a
    function or method named in ``names``, by name."""
    sites = {name: set() for name in names}

    class Calls(ast.NodeVisitor):
        def __init__(self, module):
            self.module, self.cls, self.func = module, None, None

        def visit_ClassDef(self, node):
            outer, self.cls = self.cls, node.name
            self.generic_visit(node)
            self.cls = outer

        def visit_FunctionDef(self, node):
            outer, self.func = self.func, node.name
            self.generic_visit(node)
            self.func = outer

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Call(self, node):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name in sites:
                sites[name].add((self.module, self.cls, self.func))
            self.generic_visit(node)

    for path in sorted(Path(core.__file__).parent.rglob("*.py")):
        Calls(path.name).visit(ast.parse(path.read_text()))
    return sites


def test_transition_sets_are_checked_only_where_they_enter():
    """The constructors' ``__post_init__`` are the only callers of the full
    check, ``_normalize_and_check``; every other build goes through
    ``_derived`` or ``_view``, the only callers of ``_new``."""
    sites = _call_sites(("_normalize_and_check", "_new"))
    assert sites["_normalize_and_check"] == {("core.py", cls, "__post_init__") for cls in ("Nfa", "PortNfa")}
    assert sites["_new"] == {("core.py", None, "_derived"), ("core.py", None, "_view")}
