"""Complement checking by a breadth-first search over pairs of state sets.

A word leads the original automaton A into a subset S_A of its states and
the claimed complement C into a subset S_C of its own.  The search walks the
pairs (S_A, S_C) that words reach, breadth first and with symbols in
alphabet order, so each pair is first reached by its length-lex least word.
A pair is bad when A and C agree on acceptance there; the first bad pair the
search reaches gives the length-lex least counterexample, since the prefix
of a least counterexample is the least word reaching its own pair.

With a depth bound this is the bounded oracle: the same verdict and
counterexample as running both automata over every word up to the bound.
Without one it is an exact check, C = co-L(A) iff no reachable pair is bad,
kept finite by a budget on the pairs it may reach.

A deterministic side (at most one initial state, at most one successor per
state and symbol) only ever reaches single states or the empty set, so it
is walked one state at a time, each successor read straight from
``succ_masks``: a step costs the same whatever that side's size.  A
nondeterministic side is walked as state sets through the packed
subset-image tables it shares with the constructions it checks (one lookup
per byte of a state set gives its images under every symbol).  A state and
its singleton set stand for each other one to one, so the pairs, their
order and the budget are those of walking both sides as sets.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from ._kernels.pure import _deterministic, _packed_image, _packed_tables
from .core import Nfa


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of a bounded complement check.

    ``counterexample`` is the first word (ordered by length, then
    lexicographically by alphabet position) on which the claimed complement
    agrees with the original automaton instead of disagreeing; it is None
    when the check passed.  ``words_checked`` is the number of words up to
    the length bound, the whole count also when the check failed.
    """

    ok: bool
    counterexample: str | None
    counterexample_symbols: tuple[str, ...] | None
    words_checked: int


@dataclass(frozen=True)
class ExactVerdict:
    """Outcome of an exact complement check under a pair budget.

    ``ok`` is True when the claimed complement accepts exactly the words the
    original rejects, False when ``counterexample`` (the length-lex least
    word both accept or both reject) shows it does not, and None when the
    search reached more than the budget of pairs before it could tell.
    ``pairs`` counts the pairs of state sets the search reached.
    """

    ok: bool | None
    counterexample: str | None
    counterexample_symbols: tuple[str, ...] | None
    pairs: int


def _word_to(pair, parent, alphabet) -> tuple[str, ...]:
    """The word that first reached ``pair``, read back along the parent links."""
    word = []
    link = parent[pair]
    while link is not None:
        pair, sym = link
        word.append(alphabet[sym])
        link = parent[pair]
    return tuple(reversed(word))


def _side(x: Nfa):
    """How the pair search walks ``x``: ``(start, rows, shifts, field, accepting)``.

    ``rows(pos)`` packs the successor positions of ``pos`` under every
    symbol; the one under ``sym`` is ``rows(pos) >> shifts[sym] & field``.  A
    position accepts when it shares a bit with ``accepting``.

    A deterministic ``x`` (at most one initial state, at most one successor
    per state and symbol) is walked one state at a time, with no byte split:
    a position is 0 for no state, or ``(q + 1) << 1 | f`` for state ``q``,
    ``f`` being 1 when ``q`` is final, so that acceptance is one bit test on
    either kind of side.  Any other ``x`` is walked as state sets through the
    packed image tables.
    """
    n, k, succ, final, init = x.num_states, len(x.alphabet), x.succ_masks, x.final_mask, x.initial_mask
    if _deterministic(init, succ):
        width = (2 * n + 1).bit_length()
        shifts = [sym * width for sym in range(k)]

        def rows(pos):
            row = 0
            if pos:
                for m, shift in zip(succ[(pos >> 1) - 1 :: n], shifts):
                    if m:
                        q = m.bit_length() - 1
                        row |= ((q + 1) << 1 | final >> q & 1) << shift
            return row

        q = init.bit_length() - 1
        return ((q + 1) << 1 | final >> q & 1 if init else 0), rows, shifts, (1 << width) - 1, 1
    tables = _packed_tables(n, k, succ)
    return init, functools.partial(_packed_image, tables), [sym * n for sym in range(k)], (1 << n) - 1, final


def _first_agreement(a: Nfa, c: Nfa, max_len: int | None, budget: int | None):
    """The least word on which ``a`` and ``c`` agree, the pairs reached, and whether the search finished.

    The word is a tuple of symbols, or None when no word of length up to
    ``max_len`` (of any length when it is None) is one.  The search stops
    unfinished, with no word, when it would reach more than ``budget`` pairs.
    """
    if a.alphabet != c.alphabet:
        raise ValueError("oracle requires both automata to share one alphabet")
    if budget is not None and budget < 1:
        return None, 0, False
    (start_a, rows_a, shifts_a, field_a, acc_a), (start_c, rows_c, shifts_c, field_c, acc_c) = _side(a), _side(c)
    fields = list(zip(shifts_a, shifts_c))
    start = (start_a, start_c)
    parent = {start: None}
    if bool(start_a & acc_a) == bool(start_c & acc_c):
        return (), 1, True
    level = [start]
    depth = 0
    while level and (max_len is None or depth < max_len):
        depth += 1
        reached = []
        for pair in level:
            row_a, row_c = rows_a(pair[0]), rows_c(pair[1])
            for sym, (shift_a, shift_c) in enumerate(fields):
                nxt = (row_a >> shift_a & field_a, row_c >> shift_c & field_c)
                if nxt in parent:
                    continue
                if budget is not None and len(parent) >= budget:
                    return None, len(parent), False
                parent[nxt] = (pair, sym)
                if bool(nxt[0] & acc_a) == bool(nxt[1] & acc_c):
                    return _word_to(nxt, parent, a.alphabet), len(parent), True
                reached.append(nxt)
        level = reached
    return None, len(parent), True


def oracle_complement_check(a: Nfa, c: Nfa, max_len: int) -> OracleVerdict:
    """Check that c accepts exactly the words of length <= max_len that a rejects."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    word, _pairs, _finished = _first_agreement(a, c, max_len, None)
    k = len(a.alphabet)
    words = max_len + 1 if k == 1 else (k ** (max_len + 1) - 1) // (k - 1)
    if word is None:
        return OracleVerdict(True, None, None, words)
    return OracleVerdict(False, "".join(word), word, words)


def exact_complement_check(a: Nfa, c: Nfa, budget: int | None = None) -> ExactVerdict:
    """Check that c accepts exactly the words a rejects, reaching at most ``budget`` pairs."""
    word, pairs, finished = _first_agreement(a, c, None, budget)
    if not finished:
        return ExactVerdict(None, None, None, pairs)
    if word is None:
        return ExactVerdict(True, None, None, pairs)
    return ExactVerdict(False, "".join(word), word, pairs)
