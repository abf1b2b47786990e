import dataclasses
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
