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


def test_max_len_zero_checks_only_the_empty_word():
    u = core.Nfa.build(("a",), 1, [(0, "a", 0)], {0}, {0})
    e = core.Nfa.build(("a",), 1, [(0, "a", 0)], {0}, set())
    v = oracle.oracle_complement_check(u, e, 0)
    assert v.ok and v.words_checked == 1
