"""Direction selection: estimate which powerset direction stays smaller.

The score sums, over every state, the sizes of its distinct successor sets
(one count per set, however many symbols produce it), plus the number of
initial states.  A large score hints at macrostate blow-up in that direction,
so the smaller-scoring side is determinized.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Nfa
from .powerset import Direction, _complement


@dataclass(frozen=True)
class DirectionChoice:
    """The two scores; ``choice`` is the lower-scoring direction, ties going to reverse."""

    score_forward: int
    score_reverse: int

    @property
    def choice(self) -> Direction:
        return Direction.REVERSE if self.score_forward >= self.score_reverse else Direction.FORWARD


def _score(a: Nfa, table: list[int], starts: frozenset[int]) -> int:
    """|starts| plus the summed sizes of each state's distinct rows in the flat ``table``."""
    n = a.num_states
    score = len(starts)
    for rows in zip(*[table[sym * n : (sym + 1) * n] for sym in range(len(a.alphabet))]):
        for m in set(rows):  # the empty row counts 0
            score += m.bit_count()
    return score


def det_successor_score(a: Nfa) -> int:
    """|I| plus the summed sizes of each state's distinct successor sets."""
    return _score(a, a.succ_masks, a.initial)


def choose_direction(a: Nfa) -> DirectionChoice:
    """Score both directions, rev(a) on the predecessor table; ties go to reverse."""
    return DirectionChoice(det_successor_score(a), _score(a, a.pred_masks, a.final))


def auto_complement(a: Nfa, *, budget: int | None = None) -> tuple[Nfa, DirectionChoice]:
    """Complement via the direction the heuristic picks."""
    decision = choose_direction(a)
    return _complement(a, decision.choice, budget)[0], decision
