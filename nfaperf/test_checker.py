"""Self-test of the benchmark's checker: mutated complements must be rejected.

    python3 -m pytest nfaperf/test_checker.py
"""

import random

import pytest

import automata
import inputs
import workloads
from automata import Aut, SubsetLanguage, WordLanguage


def _cases():
    rev = inputs.reverse_friendly(3)
    rnd = inputs.random_killable(random.Random(7), 8, 1.5)
    return [
        ("family", rev, WordLanguage(inputs.reverse_friendly_member(3))),
        ("random", rnd, SubsetLanguage(rnd)),
    ]


def _verdict(a: Aut, lang, out: Aut, shape="det"):
    check = workloads._complement_check(a, lang, random.Random(1), shape=shape)
    text = automata.write(out, "c")
    return check(workloads.Result(0, "", "", text, {}, automata.read(text)))


def _copy(a: Aut) -> Aut:
    return Aut(a.alphabet, a.n, [list(row) for row in a.succ], list(a.entries), list(a.exits), a.port)


@pytest.mark.parametrize("name,a,lang", _cases(), ids=lambda x: x if isinstance(x, str) else "")
def test_true_complement_passes(name, a, lang):
    assert _verdict(a, lang, automata.complement_dfa(a)) is None


@pytest.mark.parametrize("name,a,lang", _cases(), ids=lambda x: x if isinstance(x, str) else "")
def test_flipped_final_state_is_rejected(name, a, lang):
    c = _copy(automata.complement_dfa(a))
    q = c.n - 1
    c.exits[0] ^= 1 << q
    assert "does not complement" in _verdict(a, lang, c)


@pytest.mark.parametrize("name,a,lang", _cases(), ids=lambda x: x if isinstance(x, str) else "")
def test_dropped_transition_is_rejected(name, a, lang):
    c = _copy(automata.complement_dfa(a))
    # Drop the first transition into an accepting state of the complement.
    q, sym = next((q, s) for q in range(c.n) for s in range(len(c.alphabet))
                  if c.succ[s][q] & c.exits[0])
    c.succ[sym][q] = 0
    assert _verdict(a, lang, c, shape=None) is not None


@pytest.mark.parametrize("name,a,lang", _cases(), ids=lambda x: x if isinstance(x, str) else "")
def test_input_as_its_own_complement_is_rejected(name, a, lang):
    assert "does not complement" in _verdict(a, lang, a, shape=None)


def test_minimize_count_is_checked():
    a = inputs.reverse_friendly(3)
    check = workloads._complement_check(a, SubsetLanguage(a), random.Random(1), shape="det", minimal=True)
    c = automata.complement_dfa(a)
    text = automata.write(c, "c")
    assert check(workloads.Result(0, "", "", text, {}, automata.read(text))) is None
    # State 0 ({0} of the subset construction) loops on b; send that loop to
    # a fresh copy of state 0 instead: same language, one state too many.
    n = c.n
    succ = [row + [row[0]] for row in c.succ]
    succ[1][0] = 1 << n
    exits = [c.exits[0] | ((c.exits[0] & 1) << n)]
    bigger = Aut(c.alphabet, n + 1, succ, list(c.entries), exits)
    text = automata.write(bigger, "c")
    assert "minimal DFA" in check(workloads.Result(0, "", "", text, {}, automata.read(text)))
