"""The kernels against fixed answers and brute-force recomputation."""

import collections
import dataclasses
import random

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


def test_product_with_a_stateless_automaton_is_empty():
    loop = core.Nfa.build(("a",), 1, [(0, "a", 0)], {0}, {0})
    nothing = core.Nfa.build(("a",), 0, [], set(), set())
    assert core.language_disjoint(loop, nothing) and core.language_disjoint(nothing, loop)
    assert not core.language_disjoint(loop, loop)


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


def _random_dfa_succ(rng, n, k, partial):
    """One successor per state and symbol; ``partial`` leaves about a fifth missing."""
    return [0 if partial and rng.random() < 0.2 else 1 << rng.randrange(n) for _ in range(k * n)]


def test_indexed_frontier_matches_the_list_scan():
    """The kernel's indexed frontier against the reference's plain list scan.

    Same verdict, and the same expansion count: the kernel answers at exactly
    the reference's count and runs out one below it.  Half the cases compare
    against a deterministic b of 64-130 states, complete or partial, whose
    macrostates are singletons over several bytes or empty; the other half
    against a small nondeterministic b, where kept masks get superseded.
    """
    rng = random.Random(45)
    seen = collections.Counter()
    for case in range(240):
        na, k, succ_a = _random_kernel_input(rng, max_states=9)
        kind = "dfa" if case % 2 == 0 else "nfa"
        if kind == "dfa":
            nb = rng.randint(64, 130)
            succ_b = _random_dfa_succ(rng, nb, k, partial=case % 4 == 0)
            init_b = 1 << rng.randrange(nb)
        else:
            nb, _k, succ_b = _random_kernel_input(rng, 2, 12, nsyms=k)
            init_b = _random_mask(rng, nb)
        # Sparse finals in a and dense ones in b keep many explorations going.
        final_a = sum(1 << q for q in range(na) if rng.random() < 0.15)
        final_b = sum(1 << q for q in range(nb) if rng.random() < 0.7)
        args = (k, na, succ_a, _random_mask(rng, na) or 1, final_a, nb, succ_b, init_b, final_b)
        counts = collections.Counter()
        want = helpers.antichain_included_reference(*args, counts=counts)
        expansions = counts["expansions"]
        assert pure.antichain_included(*args) == want
        assert pure.antichain_included(*args, budget=expansions) == want
        if expansions:
            assert pure.antichain_included(*args, budget=expansions - 1) == -1
        seen[kind, want] += 1
        seen[kind, "empty"] += counts["empty"] > 0
        # Superseded with no empty mask kept: by a smaller nonempty one.
        seen[kind, "superseded"] += counts["superseded"] > 0 and not counts["empty"]
        seen[kind, "long"] += expansions >= 100
    assert all(seen[kind, key] for kind in ("dfa", "nfa") for key in (0, 1, "empty"))
    assert seen["dfa", "long"] and seen["nfa", "superseded"]


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
