from hypothesis import given

import helpers
from conftest import nfas
from nfacomp import core, heuristic, powerset
from nfacomp.families import reverse_friendly
from nfacomp.powerset import Direction


def test_scores_on_a2():
    a2 = reverse_friendly(2)
    assert heuristic.det_successor_score(a2) == 6
    assert heuristic.det_successor_score(core.reverse(a2)) == 5


def test_choose_direction_a2():
    ch = heuristic.choose_direction(reverse_friendly(2))
    assert (ch.score_forward, ch.score_reverse, ch.choice) == (6, 5, Direction.REVERSE)


def test_choose_direction_whole_family():
    for n in range(1, 9):
        assert heuristic.choose_direction(reverse_friendly(n)).choice is Direction.REVERSE


def test_tie_goes_reverse():
    tie = core.Nfa.build(("a",), 1, [(0, "a", 0)], {0}, {0})
    ch = heuristic.choose_direction(tie)
    assert ch.score_forward == ch.score_reverse == 2
    assert ch.choice is Direction.REVERSE


def test_direction_choice_follows_the_scores():
    assert heuristic.DirectionChoice(3, 5).choice is Direction.FORWARD
    assert heuristic.DirectionChoice(5, 3).choice is Direction.REVERSE
    assert heuristic.DirectionChoice(4, 4).choice is Direction.REVERSE


def test_score_counts_distinct_successor_sets():
    # State 0 maps to {1} under both letters: one distinct set, not two.
    a = core.Nfa.build(("a", "b"), 2, [(0, "a", 1), (0, "b", 1)], {0}, {1})
    assert heuristic.det_successor_score(a) == 1 + 1


@given(nfas())
def test_auto_complement_language_and_size(a):
    c, ch = heuristic.auto_complement(a)
    assert helpers.brute_complement_ok(a, c, 5)
    picked = (
        powerset.reverse_complement(a)
        if ch.choice is Direction.REVERSE
        else powerset.forward_complement(a)
    )
    assert c.num_states == picked.num_states
