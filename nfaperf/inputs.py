"""Benchmark inputs: the three witness families and seeded random automata.

Everything here is built from a seed with ``random.Random``; the program
under test only ever sees the files written from these automata.  Each
family comes with a closed-form membership test over symbol-index words,
so its complements are checked without simulating the input at all.
"""

from __future__ import annotations

import math
import random

from automata import Aut, determinize, minimal_dfa_size, new_aut

AB = ("a", "b")
ABC = ("a", "b", "c")
A, B, C = 0, 1, 2


def reverse_friendly(n: int) -> Aut:
    """{a,b}* a {a,b}^n on n + 2 states."""
    t = [(0, A, 0), (0, B, 0), (0, A, 1)]
    t += [(k, s, k + 1) for k in range(1, n + 1) for s in (A, B)]
    return new_aut(AB, n + 2, t, [{0}], [{n + 1}])


def reverse_friendly_member(n: int):
    return lambda w: len(w) > n and w[-n - 1] == A


def sequential_chain(n: int) -> Aut:
    """{a,b}^n a {a,b}* a {a,b}^n on 2n + 3 states."""
    t = [(k, s, k + 1) for k in range(n) for s in (A, B)]
    t += [(n, A, n + 1), (n + 1, A, n + 1), (n + 1, B, n + 1), (n + 1, A, n + 2)]
    t += [(k, s, k + 1) for k in range(n + 2, 2 * n + 2) for s in (A, B)]
    return new_aut(AB, 2 * n + 3, t, [{0}], [{2 * n + 2}])


def sequential_chain_member(n: int):
    return lambda w: len(w) >= 2 * n + 2 and w[n] == A and w[-n - 1] == A


def gate_chain(n: int) -> Aut:
    """({a,b}* a {a,b}^n) c ({a,b}^n a {a,b}*) on 2n + 4 states."""
    t = [(0, A, 0), (0, B, 0), (0, A, 1)]
    t += [(k, s, k + 1) for k in range(1, n + 1) for s in (A, B)]
    t += [(n + 1, C, n + 2)]
    t += [(k, s, k + 1) for k in range(n + 2, 2 * n + 2) for s in (A, B)]
    t += [(2 * n + 2, A, 2 * n + 3), (2 * n + 3, A, 2 * n + 3), (2 * n + 3, B, 2 * n + 3)]
    return new_aut(ABC, 2 * n + 4, t, [{0}], [{2 * n + 3}])


def gate_chain_member(n: int):
    def member(w):
        if w.count(C) != 1:
            return False
        k = w.index(C)
        u, v = w[:k], w[k + 1:]
        return len(u) > n and u[-n - 1] == A and len(v) > n and v[n] == A
    return member


def _random_edges(rng: random.Random, states: list[int], syms, per_state: float):
    """About ``per_state`` edges per state and symbol, endpoints uniform."""
    edges = set()
    for sym in syms:
        want = round(per_state * len(states))
        picked = set()
        while len(picked) < want:
            picked.add((rng.choice(states), rng.choice(states)))
        edges |= {(p, sym, q) for (p, q) in picked}
    return edges


def _some(rng: random.Random, states: list[int], p: float) -> set[int]:
    chosen = {q for q in states if rng.random() < p}
    return chosen or {rng.choice(states)}


def random_nfa(rng: random.Random, n: int, density: float) -> Aut:
    """A plain NFA over {a,b}: start 0, finals with probability 0.4."""
    states = list(range(n))
    return new_aut(AB, n, _random_edges(rng, states, (A, B), density), [{0}], [_some(rng, states, 0.4)])


def random_port_nfa(rng: random.Random, n: int, density: float) -> Aut:
    """A port NFA over {a,b} with two or three entry and exit sets of 1-3 states."""
    states = list(range(n))
    ports = lambda: [set(rng.sample(states, rng.randint(1, 3))) for _ in range(rng.randint(2, 3))]  # noqa: E731
    return new_aut(AB, n, _random_edges(rng, states, (A, B), density), ports(), ports(), port=True)


def _cycle(rng: random.Random, states: list[int]):
    """A cycle through ``states`` in order, each edge on a random letter of {a,b}."""
    return {(p, rng.choice((A, B)), q) for p, q in zip(states, states[1:] + states[:1])}


def random_gate_joined(rng: random.Random, n1: int, n2: int, density: float) -> Aut:
    """Two strongly connected random {a,b} parts, the first feeding the second on c.

    Each part is a cycle through its states plus random edges, so the SCC
    condensation is the two parts.  One to three c-edges leave random states
    of the first part and all enter the second part's start state, so the
    split between the parts is a gate partition whose side condition holds.
    """
    front = list(range(n1))
    rear = list(range(n1, n1 + n2))
    edges = _random_edges(rng, front, (A, B), density) | _random_edges(rng, rear, (A, B), density)
    edges |= _cycle(rng, front) | _cycle(rng, rear)
    edges |= {(x, C, n1) for x in rng.sample(front, rng.randint(1, 3))}
    return new_aut(ABC, n1 + n2, edges, [{0}], [_some(rng, rear, 0.4)])


def random_killable(rng: random.Random, n: int, density: float) -> Aut:
    """A plain NFA over {a,b} whose b-edges only go to higher states.

    b^n empties every state set, so every state of the forward complement
    reaches the accepting empty macrostate: trimming keeps the complement a
    complete DFA and ``--minimize`` applies.
    """
    states = list(range(n))
    edges = _random_edges(rng, states, (A,), density)
    edges |= {(p, B, q) for p in states for q in range(p + 1, n) if rng.random() < density / n * 2}
    return new_aut(AB, n, edges, [{0}], [_some(rng, states, 0.4)])


def subset_count(a: Aut) -> int:
    """Macrostates of the forward subset construction from all entry sets."""
    return len(determinize(a, a.entries)[0])


def banded(rng: random.Random, make, target: float, measure=subset_count,
           tolerance: float = 1.25, tries: int = 200) -> Aut:
    """A draw of ``make(rng)`` whose ``measure`` is about ``target``.

    Draws until the measure lies between target / tolerance and target *
    tolerance, and otherwise keeps the draw closest to the target.  Bounding
    the size this way keeps the cost and output of a random input close to
    the same from one seed to the next.
    """
    best = None
    for _ in range(tries):
        a = make(rng)
        miss = abs(math.log(measure(a) / target))
        if miss <= math.log(tolerance):
            return a
        if best is None or miss < best[0]:
            best = (miss, a)
    return best[1]


def universal_suffix_inputs() -> list[tuple[str, Aut]]:
    """Fixed languages with a universal residual: b* a (a|b)*, a (a|b)*, (a|b)* aa (a|b)*.

    Their forward complements lose a dead macrostate to trimming, which
    leaves a partial DFA.
    """
    return [
        ("bstar_a", new_aut(AB, 2, [(0, B, 0), (0, A, 1), (1, A, 1), (1, B, 1)], [{0}], [{1}])),
        ("a_first", new_aut(AB, 2, [(0, A, 1), (1, A, 1), (1, B, 1)], [{0}], [{1}])),
        ("has_aa", new_aut(AB, 3, [(0, A, 0), (0, B, 0), (0, A, 1), (1, A, 2), (2, A, 2), (2, B, 2)],
                           [{0}], [{2}])),
    ]


def minimal_size(a: Aut) -> int:
    return minimal_dfa_size(a)[0]


def random_words(rng: random.Random, nsyms: int, count: int, lo: int, hi: int) -> list[tuple[int, ...]]:
    return [tuple(rng.randrange(nsyms) for _ in range(rng.randint(lo, hi))) for _ in range(count)]
