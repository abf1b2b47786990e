"""Brute-force complement checking by bounded word enumeration.

This is the independent ground truth the complement constructions are
validated against: it decides nothing cleverly, it just runs both automata
over every word up to a length bound and compares acceptance bit by bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels
from .core import Nfa


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of a bounded complement check.

    ``counterexample`` is the first word (ordered by length, then
    lexicographically by alphabet position) on which the claimed complement
    agrees with the original automaton instead of disagreeing; it is None
    when the check passed.  ``words_checked`` counts the enumerated words.
    """

    ok: bool
    counterexample: str | None
    counterexample_symbols: tuple[str, ...] | None
    words_checked: int


def _signature(a: Nfa, max_len: int) -> bytes:
    return _kernels.word_signature(
        a.num_states,
        len(a.alphabet),
        a.succ_masks,
        a.initial_mask,
        a.final_mask,
        max_len,
    )


def _word_at(index: int, alphabet: tuple[str, ...]) -> tuple[str, ...]:
    """Invert the length-lex enumeration: flat index -> symbol tuple."""
    s = len(alphabet)
    length = 0
    level_size = 1
    while index >= level_size:
        index -= level_size
        level_size *= s
        length += 1
    digits = []
    for _ in range(length):
        index, d = divmod(index, s)
        digits.append(alphabet[d])
    return tuple(reversed(digits))


def oracle_complement_check(a: Nfa, c: Nfa, max_len: int) -> OracleVerdict:
    """Check that c accepts exactly the words of length <= max_len that a rejects."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    if a.alphabet != c.alphabet:
        raise ValueError("oracle requires both automata to share one alphabet")
    sig_a = _signature(a, max_len)
    sig_c = _signature(c, max_len)
    for i, (bit_a, bit_c) in enumerate(zip(sig_a, sig_c)):
        if bit_a == bit_c:
            word = _word_at(i, a.alphabet)
            return OracleVerdict(False, "".join(word), word, len(sig_a))
    return OracleVerdict(True, None, None, len(sig_a))
