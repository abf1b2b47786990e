import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import given, settings

import helpers
from conftest import nfas, port_nfas
from nfacomp import cli, core, fileformat, powerset
from nfacomp.errors import BudgetExceededError, CutError, NfacompError, NoGatePartitionError
from nfacomp.families import reverse_friendly


A2 = reverse_friendly(2)


def test_determinize_a2():
    d = powerset.determinize(A2)
    assert d.nfa.num_states == 8
    assert core.is_deterministic(d.nfa) and core.is_complete(d.nfa)
    assert d.macrostates[0] == frozenset({0})
    assert d.nfa.state_names[0] == "{0}"
    # Every macrostate of det(A_2) contains the looping start state.
    assert all(0 in m for m in d.macrostates)


def test_determinize_reverse_a2():
    d = powerset.determinize(core.reverse(A2))
    assert d.nfa.num_states == 5


@given(nfas())
def test_determinize_language(a):
    d = powerset.determinize(a)
    assert core.is_deterministic(d.nfa) and core.is_complete(d.nfa)
    assert helpers.brute_language(d.nfa, 5) == helpers.brute_language(a, 5)


def test_forward_complement_a2():
    c = powerset.forward_complement(A2)
    assert c.num_states == 8
    assert powerset.complement_dfa(powerset.determinize(A2)).num_states == 8
    assert helpers.brute_complement_ok(A2, c, 6)


def test_reverse_complement_a2_structure():
    c = powerset.reverse_complement(A2)
    assert c.num_states == 4
    assert c.state_names == ("{3}", "{2}", "{1}", "{}")
    assert c.initial == frozenset({0, 1, 2, 3})
    assert c.final == frozenset({0})
    named = sorted(
        (c.state_names[s], c.alphabet[y], c.state_names[t]) for (s, y, t) in c.transitions
    )
    assert named == [
        ("{1}", "a", "{2}"),
        ("{1}", "b", "{2}"),
        ("{2}", "a", "{3}"),
        ("{2}", "b", "{3}"),
        ("{}", "a", "{}"),
        ("{}", "b", "{1}"),
        ("{}", "b", "{}"),
    ]


def test_family_sizes_small():
    for n in (1, 2, 3, 4):
        a = reverse_friendly(n)
        assert powerset.forward_complement(a).num_states == 2 ** (n + 1)
        assert powerset.reverse_complement(a).num_states == n + 2


@given(nfas())
def test_forward_complement_is_complement(a):
    c = powerset.forward_complement(a)
    assert helpers.brute_complement_ok(a, c, 5)


@given(nfas())
def test_reverse_complement_is_complement(a):
    c = powerset.reverse_complement(a)
    assert helpers.brute_complement_ok(a, c, 5)
    # The reverse route always returns a trim automaton.
    assert c.num_states == core.trim(c).num_states


def test_complement_of_empty_language_is_universal():
    a = core.Nfa.build(("a", "b"), 2, [(0, "a", 1)], {0}, set())
    for c in (powerset.forward_complement(a), powerset.reverse_complement(a)):
        assert all(core.accepts(c, w) for w in helpers.words_up_to(("a", "b"), 4))


def test_complement_dfa_requires_deterministic():
    with pytest.raises(ValueError):
        powerset.complement_dfa(A2)


def test_complement_dfa_flips_the_final_states_of_the_powerset():
    d = powerset.determinize(A2)
    untrimmed = helpers.one_shot_explore_port_reference(A2, None, complement=True, trim=False)
    assert powerset.complement_dfa(d) == powerset._build(A2, untrimmed)


def test_budget_exceeded():
    a = reverse_friendly(4)
    with pytest.raises(BudgetExceededError):
        powerset.forward_complement(a, budget=5)
    with pytest.raises(BudgetExceededError):
        powerset.determinize(a, budget=5)


def test_budget_counts_the_start_macrostate_at_every_layer():
    # a*: one state, a self-loop; its powerset construction has one macrostate.
    a = core.Nfa.build(("a",), 1, [(0, "a", 0)], {0}, {0})
    with pytest.raises(BudgetExceededError):
        powerset.determinize(a, budget=0)
    with pytest.raises(BudgetExceededError):
        powerset.determinize(a.as_port(), budget=0)
    assert powerset.determinize(a, budget=1).nfa.num_states == 1
    assert powerset.determinize(a.as_port(), budget=1).nfa.num_states == 1


# --- port variants ----------------------------------------------------------


@given(port_nfas(max_states=4))
@settings(max_examples=25)
def test_port_complements_every_slice(p):
    for c in (powerset.port_forward_complement(p), powerset.port_reverse_complement(p)):
        assert c.num_entry == p.num_entry and c.num_exit == p.num_exit
        for i in range(p.num_entry):
            for j in range(p.num_exit):
                assert helpers.brute_complement_ok(p.slice(i, j), c.slice(i, j), 4)


def test_port_determinize_shares_macrostates():
    p = core.PortNfa.build(
        ("a", "b"),
        3,
        [(0, "a", 1), (1, "a", 2), (0, "b", 0)],
        [{0}, {1}],
        [{2}],
    )
    d = powerset.determinize(p).nfa
    # One exploration covers both entry ports; every slice is deterministic.
    for i in range(d.num_entry):
        s = d.slice(i, 0)
        t = core.trim(s)
        assert core.is_deterministic(t)
        assert helpers.brute_language(s, 4) == helpers.brute_language(p.slice(i, 0), 4)


def _with_duplicate_and_empty_entries(p):
    return core.PortNfa(
        p.alphabet,
        p.num_states,
        p.transitions,
        p.entry_sets + (p.entry_sets[0], frozenset()),
        p.exit_sets,
    )


def _port_cases():
    rng = random.Random(29)
    for _ in range(60):
        yield helpers.random_port_nfa(rng, num_entry=rng.randint(1, 3))
    for _ in range(20):
        yield _with_duplicate_and_empty_entries(helpers.random_port_nfa(rng))
    for _ in range(8):
        # Past the 64-state word boundary; about one successor per state and symbol.
        p = helpers.random_port_nfa(rng, max_states=90, min_states=65, num_entry=3)
        yield _with_duplicate_and_empty_entries(p)


def _mapped(p, budget):
    d = powerset.determinize(p, budget=budget)
    return d.nfa, d.macrostates


def _same_or_both_cut(p, budget):
    try:
        expected = helpers.explore_port_reference(p, budget=budget)
    except BudgetExceededError:
        with pytest.raises(BudgetExceededError):
            _mapped(p, budget)
        return None
    got = _mapped(p, budget)
    assert got == expected  # state names included: PortNfa compares them
    return got[0]


def test_port_determinize_matches_reference():
    seen_large = 0
    for p in _port_cases():
        det = _same_or_both_cut(p, 4096)
        if det is None:
            continue
        seen_large += p.num_states > 64
        distinct = len(set(p.entry_sets))
        assert _same_or_both_cut(p, distinct - 1) is None
        assert _same_or_both_cut(p, det.num_states) is not None
        if det.num_states > distinct:
            assert _same_or_both_cut(p, det.num_states - 1) is None
    assert seen_large > 0


# --- the complement trimmed in one pass ---------------------------------------


def _with_universal_entry(a, rng):
    """``a`` plus a state that loops on every symbol and lies in every exit set.

    An entry set holding it accepts every word in every slice, so its
    macrostate is dead in the complement and that entry set comes out empty.
    """
    u = a.num_states
    loops = {(u, sym, u) for sym in range(len(a.alphabet))}
    p = a.as_port() if isinstance(a, core.Nfa) else a
    entries = list(p.entry_sets)
    k = rng.randrange(len(entries))
    entries[k] = entries[k] | {u}
    out = core.PortNfa(p.alphabet, u + 1, p.transitions | loops, entries, [s | {u} for s in p.exit_sets])
    return out.slice(0, 0) if isinstance(a, core.Nfa) else out


def _complement_cases():
    rng = random.Random(1707)
    for _ in range(150):
        yield helpers.random_nfa(rng, max_states=9)
    yield from _port_cases()
    for _ in range(6):
        yield helpers.random_nfa(rng, max_states=90, min_states=65, max_syms=2)
    for _ in range(40):
        a = helpers.random_nfa(rng, max_states=6) if rng.random() < 0.5 else helpers.random_port_nfa(rng)
        yield _with_universal_entry(a, rng)


def test_one_pass_complement_matches_trim_of_the_construction():
    seen = {"dropped": 0, "empty_entry": 0, "large": 0}
    for a in _complement_cases():
        for direction in powerset.Direction:
            try:
                expected = helpers.complement_reference(a, direction, 4096)
            except BudgetExceededError:
                with pytest.raises(BudgetExceededError):
                    powerset._complement(a, direction, 4096)
                continue
            got = powerset._complement(a, direction, 4096)
            assert got == expected  # class, states, transitions, ports and state names
            c, pre = got
            seen["dropped"] += c.num_states < pre
            seen["empty_entry"] += frozenset() in c.entry_sets and frozenset() not in a.entry_sets
            seen["large"] += a.num_states > 64
            assert powerset._complement(a, direction, pre) == expected
            with pytest.raises(BudgetExceededError):
                powerset._complement(a, direction, pre - 1)
    assert all(n > 5 for n in seen.values()), seen


def _one_direction_cases():
    """65-130-state plain and port NFAs, each also with one of its symbols
    unused, to be skipped."""
    rng = random.Random(53)
    for k in range(10):
        if k % 2:
            a = helpers.random_nfa(rng, max_states=130, min_states=65, max_syms=3)
        else:
            a = helpers.random_port_nfa(rng, max_states=130, min_states=65, num_entry=3, max_syms=3)
        yield a, frozenset()
        if len(a.alphabet) > 1:
            sym = rng.randrange(len(a.alphabet))
            unused = dataclasses.replace(a, transitions=frozenset(t for t in a.transitions if t[1] != sym))
            yield unused, frozenset({sym})


def test_explore_port_matches_the_one_shot_reference():
    """One direction explores exactly what the one-shot exploration did: all
    seven fields, over budget the same error, and the exact macrostate count
    as budget passes while one fewer does not."""
    seen = Counter()
    for a, skip in _one_direction_cases():
        for d in powerset.Direction:
            for complement in (False, True):
                args = (complement, complement, d is powerset.Direction.REVERSE, skip)
                try:
                    expected = helpers.one_shot_explore_port_reference(a, 4096, *args)
                except BudgetExceededError:
                    with pytest.raises(BudgetExceededError, match="^macrostate budget exceeded$"):
                        powerset._explore_port(a, 4096, complement, (d,), skip)
                    seen["over"] += 1
                    continue
                count = len(expected.macros)
                for budget in (4096, count):
                    got = powerset._explore_port(a, budget, complement, (d,), skip)
                    assert type(got) is powerset._Exploration
                    assert got._asdict() == expected._asdict()
                with pytest.raises(BudgetExceededError, match="^macrostate budget exceeded$") as err:
                    powerset._explore_port(a, count - 1, complement, (d,), skip)
                assert err.value.budget == count - 1
                seen[d.value, bool(skip), type(a).__name__] += 1
                seen["dropped"] += complement and not all(expected.live)
    assert seen["over"] > 0 and seen["dropped"] > 0
    assert len(seen) == 2 + 2 * 2 * 2, seen


def test_complement_file_to_file_validates_twice(tmp_path, monkeypatch):
    # A full validation for the parsed input and a check of the built
    # output's port sets and names, in either direction: its table holds ids
    # the construction numbered itself, trimming builds nothing more, naming
    # the output makes a view, and reverse explores the transposed table and
    # builds the result reversed, with no reversed automaton on either side
    # of the construction.
    src, dst = tmp_path / "a.nfa", tmp_path / "c.nfa"
    src.write_text(fileformat.serialize(reverse_friendly(3)))
    calls = helpers.count_validations(monkeypatch)
    for method in ("forward", "reverse"):
        calls.clear()
        assert cli.main(["complement", "-m", method, "-i", str(src), "-o", str(dst)]) == 0
        assert calls == ["Nfa", "derived:Nfa", "view:Nfa"], (method, calls)
        assert fileformat.parse(dst.read_text()).name == "A3_complement"


# --- live marks and macrostate names against their references -------------------


def _deltas():
    """Seeded flat tables of 65-130 macrostates with their exit lists, labelled:
    random tables, some with no exit; back-edge chains, where liveness runs
    from the exit at 0 up a chain of 10-60 moves to lower indices (one state
    per reverse sweep); tables where every state is live; tables of self-loops,
    where only the exits are."""
    rng = random.Random(2201)
    for _ in range(40):
        n, nsyms = rng.randint(65, 130), rng.randint(1, 3)
        delta = [rng.randrange(n) for _ in range(n * nsyms)]
        yield "random", nsyms, delta, rng.sample(range(n), rng.choice((0, 1, 2, n // 4)))
    for _ in range(20):
        n, nsyms, length = rng.randint(65, 130), rng.randint(1, 3), rng.randint(10, 60)
        delta = [rng.randrange(length, n) for _ in range(n * nsyms)]  # above the chain: dead unless it meets it
        for i in range(1, length):
            delta[i * nsyms + rng.randrange(nsyms)] = i - 1
        for _ in range(rng.randint(0, 10)):  # a few states above the chain reach into it
            delta[rng.randrange(length * nsyms, n * nsyms)] = rng.randrange(length)
        yield "chain", nsyms, delta, [0]
    for _ in range(20):
        n, nsyms = rng.randint(65, 130), rng.randint(1, 3)
        delta = [rng.randrange(n) for _ in range(n * nsyms)]
        for i in range(n - 1):  # a forward chain to the last state, the exit
            delta[i * nsyms + rng.randrange(nsyms)] = i + 1
        yield "all_live", nsyms, delta, [n - 1] + rng.sample(range(n), rng.randint(0, 5))
    for _ in range(10):
        n, nsyms = rng.randint(65, 130), rng.randint(1, 3)
        delta = [i for i in range(n) for _ in range(nsyms)]
        yield "exits_only", nsyms, delta, rng.sample(range(n), rng.randint(1, n // 2))


def test_live_matches_the_predecessor_search():
    seen = Counter()
    for kind, nsyms, delta, exits in _deltas():
        expected = helpers.live_reference(nsyms, delta, list(exits))
        assert powerset._live(nsyms, delta, list(exits)) == expected, kind
        seen[kind] += 1
        seen["all"] += all(expected)
        seen["only_exits"] += sum(expected) == len(set(exits))
        seen["some_dead"] += not all(expected)
    assert seen["chain"] == 20 and seen["all"] >= 20 and seen["only_exits"] >= 10 and seen["some_dead"] > 25, seen


def _named_variants(a, rng):
    """``a`` unnamed, under names with an empty one and ones holding a comma,
    and under names that repeat."""
    n = a.num_states
    odd = [rng.choice(("", ",", "p,q", "{", f"s{q}")) for q in range(n)]
    yield a
    yield dataclasses.replace(a, state_names=odd)
    yield dataclasses.replace(a, state_names=[f"q{q % 7}" for q in range(n)])


def test_macro_names_match_the_reference():
    rng = random.Random(2202)
    seen = Counter()
    for _ in range(12):
        a = helpers.random_nfa(rng, max_states=130, min_states=64, max_syms=1)
        n = a.num_states
        masks = [0, 1 << (n - 1), (1 << n) - 1]
        masks += [rng.getrandbits(n) for _ in range(20)]
        masks += [sum(1 << q for q in rng.sample(range(n), rng.randint(1, 4))) for _ in range(20)]
        masks += [rng.getrandbits(n) & ~0xFF for _ in range(5)]  # a zero low byte
        for v in _named_variants(a, rng):
            assert powerset._macro_names(v, masks) == tuple(helpers.macro_name_reference(v, m) for m in masks)
            seen["named" if v.state_names is not None else "unnamed"] += 1
            seen["empty"] += v.state_names is not None and "" in v.state_names
            seen["large"] += n > 64
    assert seen["unnamed"] == 12 and seen["named"] == 24 and seen["empty"] >= 10 and seen["large"] >= 10, seen


def _stub(log, name, rank, outcome):
    """A candidate of ``powerset._race`` that logs the bar it gets and returns
    ``outcome``, its size, or raises it, an error."""
    def run(cut_at):
        log.append((name, cut_at))
        if isinstance(outcome, Exception):
            raise outcome
        return f"{name} result", outcome
    return name, rank, run


def test_race_ties_go_to_the_lower_rank_and_each_candidate_gets_its_bar():
    log = []
    # Run order c, d, a, b; tie order a, b, c, d.
    stubs = [_stub(log, "c", 2, 5), _stub(log, "d", 3, 6), _stub(log, "a", 0, 5), _stub(log, "b", 1, 7)]
    winner, finished, failed = powerset._race(stubs)
    assert winner == "a" and failed == {}
    assert finished == {m: (f"{m} result", size) for m, size in (("c", 5), ("d", 6), ("a", 5), ("b", 7))}
    # d follows c, so it must stay below c's 5; a precedes c and d, so it may
    # reach 5 and win; b precedes c and d but follows a, so a's 5 is its bar.
    assert log == [("c", None), ("d", 5), ("a", 6), ("b", 5)]
    log.clear()
    powerset._race([_stub(log, "c", 2, 5), _stub(log, "a", 0, 9), _stub(log, "b", 1, 7)], bar=4)
    assert log == [("c", 4), ("a", 4), ("b", 4)]


def test_race_names_each_failure_and_raises_a_cut_only_when_nothing_finished_below_the_bar():
    errors = {"budget": BudgetExceededError(), "cut": CutError("cut"),
              "no_partition": NoGatePartitionError("none"), "unsupported": NfacompError("port input")}
    winner, finished, failed = powerset._race(
        [_stub([], name, rank, exc) for rank, (name, exc) in enumerate(errors.items())] + [_stub([], "ok", 9, 3)])
    assert (winner, list(finished), failed) == ("ok", ["ok"], errors)
    assert {name: powerset._outcome(exc) for name, exc in failed.items()} == {name: name for name in errors}
    cut, budget = CutError("cut"), BudgetExceededError()
    # A cut with a finished candidate below the caller's bar, or with no bar: that one wins.
    assert powerset._race([_stub([], "a", 0, 3), _stub([], "b", 1, cut)], bar=4)[0] == "a"
    assert powerset._race([_stub([], "a", 0, 3), _stub([], "b", 1, cut)])[0] == "a"
    # Nothing finished, or nothing below the bar, and one was cut.
    for stubs, bar in [([_stub([], "b", 1, cut)], None), ([_stub([], "a", 0, 4), _stub([], "b", 1, cut)], 4)]:
        with pytest.raises(CutError):
            powerset._race(stubs, bar)
    # Nothing below the bar and nothing cut: the winner stands; nothing finished: no winner.
    assert powerset._race([_stub([], "a", 0, 4)], bar=4)[0] == "a"
    assert powerset._race([_stub([], "a", 0, budget)], bar=4) == (None, {}, {"a": budget})
    with pytest.raises(ValueError):  # an error of no best-of outcome is not caught
        powerset._race([_stub([], "a", 0, ValueError("bad input"))])


def test_race_takes_the_next_candidate_only_once_the_last_has_run():
    log = []

    def candidates():
        for rank, size in enumerate((3, 2, 1)):
            log.append(("made", rank))
            yield _stub(log, rank, rank, size)

    assert powerset._race(candidates())[0] == 2
    assert log == [("made", 0), (0, None), ("made", 1), (1, 3), ("made", 2), (2, 2)]
