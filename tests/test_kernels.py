"""The kernels against fixed answers and brute-force recomputation."""

import dataclasses
import random

from hypothesis import given, settings
import hypothesis.strategies as st

import helpers
from nfacomp import core, powerset
from nfacomp._kernels import backend_name
from nfacomp._kernels import pure
from nfacomp.errors import BudgetExceededError


def test_backend_name():
    assert backend_name() == "pure"


def test_explore_subsets_frozen():
    # One state with an 'a' self-loop: the only reachable subset is {0}.
    assert pure.explore_subsets(1, 1, [1], (1,)) == ([1], [0])
    # Chain 0 -a-> 1: macrostates {0}, {1}, then {} as the sink.
    macros, delta = pure.explore_subsets(2, 1, [2, 0], (1,))
    assert macros == [1, 2, 0]
    assert delta == [1, 2, 2]


def test_explore_subsets_budget_returns_none():
    a = core.Nfa.build(("a", "b"), 3, [(0, "a", 1), (0, "b", 2)], {0}, {2})
    assert pure.explore_subsets(3, 2, a.succ_masks, (1,), 2) is None


@given(st.integers(1, 5), st.data())
def test_word_signature_is_lengthlex_acceptance(n, data):
    k = data.draw(st.integers(1, 2))
    succ = [data.draw(st.integers(0, (1 << n) - 1)) for _ in range(k * n)]
    init = data.draw(st.integers(0, (1 << n) - 1))
    final = data.draw(st.integers(0, (1 << n) - 1))
    sig = pure.word_signature(n, k, succ, init, final, 3)
    # Recompute by explicit BFS over words in the same order.
    bits = []
    level = [init]
    for _ in range(3 + 1):
        nxt = []
        for mask in level:
            bits.append(1 if mask & final else 0)
            step = []
            for sym in range(k):
                out = 0
                m = mask
                while m:
                    q = (m & -m).bit_length() - 1
                    out |= succ[sym * n + q]
                    m &= m - 1
                step.append(out)
            nxt.extend(step)
        level = nxt
    assert sig == bytes(bits[: len(sig)]) and len(sig) == sum(
        k**i for i in range(4)
    )


# --- the per-byte image tables against the bit-by-bit references ---------------


def _random_kernel_input(rng, min_states=1, max_states=12, nsyms=None):
    """(nstates, nsyms, succ); sometimes one symbol has no transitions at all."""
    n = rng.randint(min_states, max_states)
    k = nsyms or rng.randint(1, 3)
    density = rng.uniform(0.5, 2.0) / n
    succ = [sum(1 << r for r in range(n) if rng.random() < density) for _ in range(k * n)]
    if rng.random() < 0.3:
        sym = rng.randrange(k)
        succ[sym * n : (sym + 1) * n] = [0] * n
    return n, k, succ


def _random_mask(rng, n):
    return sum(1 << q for q in range(n) if rng.random() < 3 / n)


def _kernel_cases(seed):
    rng = random.Random(seed)
    for _ in range(150):
        yield rng, _random_kernel_input(rng)
    for _ in range(15):
        # Past the 64-state word boundary: many bytes per state set.
        yield rng, _random_kernel_input(rng, min_states=65, max_states=90)
    # A one-state automaton without transitions, and one with no states.
    yield rng, (1, 2, [0, 0])
    yield rng, (0, 1, [])


def test_explore_subsets_matches_reference_at_the_budget_edges():
    seen_large = seen_empty_row = 0
    for rng, (n, k, succ) in _kernel_cases(41):
        seeds = [_random_mask(rng, n) for _ in range(rng.randint(1, 3))]
        seeds += [seeds[0]] if rng.random() < 0.5 else [0]  # a duplicate, or the empty set
        expected = helpers.explore_subsets_reference(n, k, succ, seeds, 4096)
        assert pure.explore_subsets(n, k, succ, seeds, 4096) == expected
        if expected is None:
            continue
        seen_large += n > 64
        seen_empty_row += any(not any(succ[s * n : (s + 1) * n]) for s in range(k))
        count = len(expected[0])
        assert pure.explore_subsets(n, k, succ, seeds) == expected
        assert pure.explore_subsets(n, k, succ, seeds, count) == expected
        assert pure.explore_subsets(n, k, succ, seeds, count - 1) is None
        assert pure.explore_subsets(n, k, succ, seeds, 0) is None
        assert pure.explore_subsets(n, k, succ, seeds, len(set(seeds)) - 1) is None
    assert seen_large > 0 and seen_empty_row > 0


def test_word_signature_matches_reference():
    for rng, (n, k, succ) in _kernel_cases(42):
        init, final = _random_mask(rng, n), _random_mask(rng, n)
        for max_len in (0, 1, 4):
            assert pure.word_signature(n, k, succ, init, final, max_len) == (
                helpers.word_signature_reference(n, k, succ, init, final, max_len)
            )


def test_antichain_included_matches_reference():
    verdicts = set()
    rng = random.Random(43)
    for _ in range(300):
        big = rng.random() < 0.1
        na, k, succ_a = _random_kernel_input(rng, max_states=6)
        nb, _k, succ_b = _random_kernel_input(rng, 65 if big else 1, 90 if big else 8, nsyms=k)
        # a starts from at least one state, so that some pair gets expanded.
        args = (k, na, succ_a, _random_mask(rng, na) or 1, _random_mask(rng, na),
                nb, succ_b, _random_mask(rng, nb), _random_mask(rng, nb))
        for budget in (None, 0, 3):
            got = pure.antichain_included(*args, budget=budget)
            assert got == helpers.antichain_included_reference(*args, budget=budget)
            verdicts.add(got)
        # Each automaton is included in itself.
        assert pure.antichain_included(k, na, succ_a, args[3], args[4], na, succ_a, args[3], args[4]) == 1
    assert verdicts == {-1, 0, 1}


def test_macrostate_names_and_back_map_match_the_spelled_out_forms():
    rng = random.Random(44)
    cases = [helpers.random_nfa(rng, max_states=20) for _ in range(30)]
    cases += [helpers.random_nfa(rng, max_states=90) for _ in range(3)]
    # Multi-character state names, across byte and word boundaries.
    cases += [
        dataclasses.replace(a, state_names=tuple(f"s{q}_{'x' * (q % 3)}" for q in range(a.num_states)))
        for a in cases
    ]
    checked = 0
    for a in cases:
        try:
            d = powerset.determinize(a, budget=4096)
        except BudgetExceededError:
            continue
        checked += 1
        macros, _delta = helpers.explore_subsets_reference(
            a.num_states, len(a.alphabet), a.succ_masks, [a.initial_mask]
        )
        assert d.masks == tuple(macros)
        assert d.macrostates == tuple(frozenset(core._bits(m)) for m in macros)
        assert d.nfa.state_names == tuple(helpers.macro_name_reference(a, m) for m in macros)
        p = a.as_port()
        dp = powerset.determinize(p, budget=4096)
        assert (dp.nfa, dp.macrostates) == helpers.explore_port_reference(p, budget=4096)
    assert checked > 50
