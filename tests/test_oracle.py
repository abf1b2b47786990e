import collections
import dataclasses
import itertools
import random

import pytest

import helpers
from nfacomp import core, oracle, powerset
from nfacomp.families import reverse_friendly


A2 = reverse_friendly(2)


def test_accepts_true_complement():
    v = oracle.oracle_complement_check(A2, powerset.reverse_complement(A2), 8)
    assert v.ok
    assert v.counterexample is None and v.counterexample_symbols is None
    assert v.words_checked == 511  # 1 + 2 + ... + 2^8


def test_rejects_identity_with_shortest_witness():
    # A_2 and A_2 agree on every word; the very first word checked is the
    # empty one, and both sides reject it, so it is the counterexample.
    v = oracle.oracle_complement_check(A2, A2, 3)
    assert not v.ok
    assert v.counterexample == ""
    assert v.counterexample_symbols == ()
    assert v.words_checked == 15


def test_counterexample_word_is_decoded_in_order():
    # A complement that wrongly also accepts "aaa" (a word of A_2): the first
    # word both sides accept is reported, decoded from its length-lex index.
    c = powerset.reverse_complement(A2)
    n = c.num_states
    aid = c.symbol_ids["a"]
    trans = set(c.transitions) | {(n, aid, n + 1), (n + 1, aid, n + 2), (n + 2, aid, n + 3)}
    broken = core.Nfa(
        c.alphabet, n + 4, frozenset(trans), c.initial | {n}, c.final | {n + 3}
    )
    v = oracle.oracle_complement_check(A2, broken, 6)
    assert not v.ok
    assert v.counterexample == "aaa"
    assert v.counterexample_symbols == ("a", "a", "a")


def test_alphabet_mismatch_is_rejected():
    other = core.Nfa.build(("a", "c"), 1, [], {0}, set())
    with pytest.raises(ValueError):
        oracle.oracle_complement_check(A2, other, 3)


def test_negative_max_len_is_rejected():
    with pytest.raises(ValueError) as info:
        oracle.oracle_complement_check(A2, A2, -1)
    assert str(info.value) == "max_len must be nonnegative"


def test_agrees_with_naive_word_loop():
    rng = random.Random(2718)
    for _ in range(40):
        a = helpers.random_nfa(rng, max_states=5, max_syms=2)
        c = helpers.random_nfa(rng, max_states=5, max_syms=2)
        if a.alphabet != c.alphabet:
            continue
        v = oracle.oracle_complement_check(a, c, 4)
        naive = None
        for w in helpers.words_up_to(a.alphabet, 4):
            if core.accepts(a, w) == core.accepts(c, w):
                naive = "".join(w)
                break
        if naive is None:
            assert v.ok
        else:
            assert not v.ok and v.counterexample == naive


def _same_alphabet_nfa(rng, alphabet):
    while True:
        u = helpers.random_nfa(rng, max_states=8, max_syms=3)
        if u.alphabet == alphabet:
            return u


def _candidates(rng, a):
    """The true complement, ``a`` itself, an unrelated NFA, and the complement with one transition flipped."""
    c = powerset.forward_complement(a)
    out = [c, a, _same_alphabet_nfa(rng, a.alphabet)]
    if c.num_states:
        flip = (rng.randrange(c.num_states), rng.randrange(len(c.alphabet)), rng.randrange(c.num_states))
        out.append(dataclasses.replace(c, transitions=c.transitions ^ {flip}))
    return out


def test_pair_search_matches_the_word_enumeration():
    # The pair search against the length-lex enumeration it replaced: same
    # verdict, counterexample and word count.  The exact check must agree with
    # every bounded one: a least counterexample of length L is the bounded
    # oracle's at every depth >= L, and none shows below L.
    rng = random.Random(20251018)
    cases = unary = wrong = 0
    for _ in range(700):
        a = helpers.random_nfa(rng, max_states=8, max_syms=3)
        for c in _candidates(rng, a):
            exact = oracle.exact_complement_check(a, c)
            assert exact.ok is not None and exact.pairs >= 1
            wrong += not exact.ok
            for max_len in (0, 1, 3, 6):
                want = helpers.oracle_reference(a, c, max_len)
                assert oracle.oracle_complement_check(a, c, max_len) == want, (a, c, max_len)
                if exact.ok or len(exact.counterexample_symbols) > max_len:
                    assert want.ok
                else:
                    assert want.counterexample_symbols == exact.counterexample_symbols
                cases += 1
                unary += len(a.alphabet) == 1
    assert cases >= 10_000 and unary >= 1_000 and wrong >= 1_000


def _large_nfa(rng, alphabet, shape):
    """An NFA of 65-130 states over ``alphabet`` whose state sets span several bytes.

    ``"dfa"`` is a complete DFA.  ``"nfa"`` starts from one to three states
    and has up to three successors per move.  ``"classes"`` is such an NFA
    whose moves map each class ``q % m`` to one class per symbol and whose
    initial states share a class, so every set it reaches lies in one class
    and is all final or all not: flipping its final states complements it.
    """
    n = rng.randint(65, 130)
    if shape == "dfa":
        trans = [(q, sym, rng.randrange(n)) for q in range(n) for sym in alphabet]
        initial = {rng.randrange(n)}
        final = {q for q in range(n) if rng.random() < 0.4}
    elif shape == "nfa":
        trans = [(q, sym, r) for q in range(n) for sym in alphabet
                 for r in rng.sample(range(n), rng.randint(0, 3))]
        initial = set(rng.sample(range(n), rng.randint(1, 3)))
        final = {q for q in range(n) if rng.random() < 0.4}
    else:
        m = rng.randint(2, 4)
        to = {sym: [rng.randrange(m) for _ in range(m)] for sym in alphabet}
        members = [range(i, n, m) for i in range(m)]
        trans = [(q, sym, r) for q in range(n) for sym in alphabet
                 for r in rng.sample(members[to[sym][q % m]], rng.randint(1, 3))]
        initial = set(rng.sample(members[0], rng.randint(1, 3)))
        final_classes = {i for i in range(m) if rng.random() < 0.5}
        final = {q for q in range(n) if q % m in final_classes}
    return core.Nfa.build(alphabet, n, trans, initial, final)


def test_pair_search_matches_the_word_enumeration_on_multi_byte_sets():
    # As above, on automata a and c of 65-130 states.  c is a with its final
    # states flipped (the complement unless a is of the "nfa" shape), that
    # with one transition flipped, and an unrelated NFA.  The exact check runs
    # under a pair budget; where it finishes it must agree with every bounded
    # one.
    rng = random.Random(20261019)
    seen = dict(cases=0, unary=0, wrong=0, finished=0, passed=0, deep=0, dense=0)
    for case in range(120):
        alphabet = tuple(helpers.LETTERS[: rng.randint(1, 3)])
        shape = ("dfa", "nfa", "classes")[case % 3]
        a = _large_nfa(rng, alphabet, shape)
        flipped = dataclasses.replace(a, final=frozenset(range(a.num_states)) - a.final)
        move = (rng.randrange(a.num_states), rng.randrange(len(alphabet)), rng.randrange(a.num_states))
        broken = dataclasses.replace(flipped, transitions=flipped.transitions ^ {move})
        for c in (flipped, broken, _large_nfa(rng, alphabet, "nfa")):
            assert 65 <= c.num_states <= 130
            exact = oracle.exact_complement_check(a, c, 5000)
            seen["finished"] += exact.ok is not None
            seen["passed"] += exact.ok is True
            for max_len in (0, 1, 2, 3):
                want = helpers.oracle_reference(a, c, max_len)
                assert oracle.oracle_complement_check(a, c, max_len) == want, (case, max_len)
                if exact.ok is False and len(exact.counterexample_symbols) <= max_len:
                    assert want.counterexample_symbols == exact.counterexample_symbols
                elif exact.ok is not None:
                    assert want.ok
                seen["cases"] += 1
                seen["unary"] += len(alphabet) == 1
                seen["wrong"] += not want.ok
                seen["deep"] += not want.ok and len(want.counterexample_symbols) >= 2
                seen["dense"] += want.ok and max_len == 3 and shape == "classes"
    assert seen["cases"] == 1440 and seen["unary"] >= 300 and seen["wrong"] >= 300, seen
    assert seen["finished"] >= 300 and seen["passed"] >= 80, seen
    assert seen["deep"] >= 20 and seen["dense"] >= 40, seen


def _deterministic(x):
    """At most one initial state and at most one successor per state and symbol."""
    return not x.initial_mask & (x.initial_mask - 1) and all(not m & (m - 1) for m in x.succ_masks)


def _moved(rng, d):
    """The DFA ``d`` with one move sent to another state, so still deterministic."""
    if not d.num_states:
        return d
    q, sym = rng.randrange(d.num_states), rng.randrange(len(d.alphabet))
    trans = {t for t in d.transitions if t[:2] != (q, sym)} | {(q, sym, rng.randrange(d.num_states))}
    return dataclasses.replace(d, transitions=frozenset(trans))


def _pair_search_cases(rng):
    """Pairs (a, c) over one to three symbols in which either side, both or
    neither is deterministic.  Every fourth starts from an automaton of 65-130
    states; c is then its flipped, moved or forward complement, a DFA of up to
    131 states, when a is one, and else a with its final states flipped or a
    random DFA of 65-130 states.  Some deterministic sides have no initial
    state."""
    for case in range(240):
        alphabet = tuple(helpers.LETTERS[: 1 + case % 3])
        if case % 4 == 0:
            a = _large_nfa(rng, alphabet, ("dfa", "nfa", "classes")[case // 4 % 3])
            flipped = dataclasses.replace(a, final=frozenset(range(a.num_states)) - a.final)
            if _deterministic(a):
                comp = powerset.forward_complement(a)
                pairs = [(a, flipped), (a, comp), (a, _moved(rng, comp)), (comp, a)]
            else:
                comp = _large_nfa(rng, alphabet, "dfa")
                pairs = [(a, flipped), (a, comp), (comp, a), (flipped, _moved(rng, comp))]
        else:
            a = _same_alphabet_nfa(rng, alphabet)
            comp = powerset.forward_complement(a)
            pairs = [(a, comp), (comp, a), (comp, _moved(rng, comp)), (a, _same_alphabet_nfa(rng, alphabet))]
        if case % 8 == 1:
            pairs.append((a, dataclasses.replace(comp, initial=frozenset())))
            pairs.append((dataclasses.replace(comp, initial=frozenset()), a))
        yield from pairs


def test_pair_search_matches_the_set_pair_search_it_replaced():
    # The pair search against helpers.first_agreement_reference, which walks
    # every side as state sets: the same word, pair count and finished flag
    # without bounds, at the budget edges and at depths 0-4.  A search that
    # would reach more than 4,000 pairs is compared up to that many.
    rng = random.Random(20261020)
    seen = collections.Counter()
    for a, c in _pair_search_cases(rng):
        word, pairs, finished = helpers.first_agreement_reference(a, c, None, 4000)
        assert pairs >= 1
        for budget in (None, pairs, pairs - 1, 1, 0)[not finished:]:
            want = helpers.first_agreement_reference(a, c, None, budget)
            assert oracle._first_agreement(a, c, None, budget) == want, (a, c, budget)
        for max_len in range(5):
            assert oracle._first_agreement(a, c, max_len, None) == helpers.first_agreement_reference(a, c, max_len, None)
        sides = (_deterministic(a), _deterministic(c))
        seen[sides, word is None] += finished
        seen["cut"] += not finished
        seen["large", sides] += max(a.num_states, c.num_states) > 64
        seen["no initial"] += not (a.initial and c.initial)
        seen["unary"] += len(a.alphabet) == 1
        seen["deep"] += word is not None and len(word) >= 3 or word is None and pairs >= 50
    assert all(seen[sides, ok] >= 15 for sides in itertools.product((True, False), repeat=2) for ok in (True, False)), seen
    assert all(seen["large", sides] >= 10 for sides in ((True, True), (True, False), (False, True))), seen
    assert seen["no initial"] >= 40 and seen["unary"] >= 300 and seen["deep"] >= 30 and seen["cut"], seen


def test_exact_check_finds_the_least_counterexample():
    # Dropping one final state of the complement of A_6 breaks it on words the
    # bounded oracle sees only from the counterexample's length on.
    a = reverse_friendly(6)
    c = powerset.forward_complement(a)
    broken = dataclasses.replace(c, final=c.final - {max(c.final)})
    exact = oracle.exact_complement_check(a, c)
    assert (exact.ok, exact.counterexample, exact.pairs) == (True, None, c.num_states)
    v = oracle.exact_complement_check(a, broken)
    assert v.ok is False
    assert oracle.oracle_complement_check(a, broken, len(v.counterexample)) == oracle.OracleVerdict(
        False, v.counterexample, v.counterexample_symbols, 2 ** (len(v.counterexample) + 1) - 1
    )
    assert oracle.oracle_complement_check(a, broken, len(v.counterexample) - 1).ok


def test_a_long_bound_costs_pairs_not_words():
    # 2^41 - 1 words, but the search stops once no new pair appears.
    a = reverse_friendly(7)
    v = oracle.oracle_complement_check(a, powerset.forward_complement(a), 40)
    assert v == oracle.OracleVerdict(True, None, None, 2**41 - 1)


def test_exact_check_budget_counts_pairs():
    c = powerset.reverse_complement(A2)
    full = oracle.exact_complement_check(A2, c)
    assert full.ok and full.pairs > 1
    assert oracle.exact_complement_check(A2, c, full.pairs) == full
    assert oracle.exact_complement_check(A2, c, full.pairs - 1) == oracle.ExactVerdict(
        None, None, None, full.pairs - 1
    )
    assert oracle.exact_complement_check(A2, c, 0) == oracle.ExactVerdict(None, None, None, 0)
    # A wrong start pair is found before the budget is looked at again.
    assert oracle.exact_complement_check(A2, A2, 1) == oracle.ExactVerdict(False, "", (), 1)


def test_max_len_zero_checks_only_the_empty_word():
    u = core.Nfa.build(("a",), 1, [(0, "a", 0)], {0}, {0})
    e = core.Nfa.build(("a",), 1, [(0, "a", 0)], {0}, set())
    v = oracle.oracle_complement_check(u, e, 0)
    assert v.ok and v.words_checked == 1
