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
kept finite by a budget on the pairs it may reach.  The search shares only
the packed subset-image tables (one lookup per byte of a state set gives its
images under every symbol) with the constructions it checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._kernels.pure import _packed_image, _packed_tables
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
    n_a, n_c = a.num_states, c.num_states
    tables_a = _packed_tables(n_a, len(a.alphabet), a.succ_masks)
    tables_c = _packed_tables(n_c, len(c.alphabet), c.succ_masks)
    full_a, full_c = (1 << n_a) - 1, (1 << n_c) - 1
    final_a, final_c = a.final_mask, c.final_mask
    start = (a.initial_mask, c.initial_mask)
    parent = {start: None}
    if bool(start[0] & final_a) == bool(start[1] & final_c):
        return (), 1, True
    level = [start]
    depth = 0
    while level and (max_len is None or depth < max_len):
        depth += 1
        reached = []
        for pair in level:
            packed_a, packed_c = _packed_image(tables_a, pair[0]), _packed_image(tables_c, pair[1])
            for sym in range(len(a.alphabet)):
                img_a, img_c = packed_a >> sym * n_a & full_a, packed_c >> sym * n_c & full_c
                nxt = (img_a, img_c)
                if nxt in parent:
                    continue
                if budget is not None and len(parent) >= budget:
                    return None, len(parent), False
                parent[nxt] = (pair, sym)
                if bool(img_a & final_a) == bool(img_c & final_c):
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
