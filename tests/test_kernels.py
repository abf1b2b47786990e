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


def _explored(nstates, nsyms, succ, seeds, budget=None):
    """A ``SubsetExploration`` advanced to the end: ``(macros, delta)``, or
    None when it runs out of budget, as ``helpers.explore_subsets_reference``
    answers."""
    x = pure.SubsetExploration(nstates, nsyms, succ, seeds, budget)
    return (x.macros, x.delta) if x.advance() else None


def test_explore_subsets_frozen():
    # One state with an 'a' self-loop: the only reachable subset is {0}.
    assert _explored(1, 1, [1], (1,)) == ([1], [0])
    # Chain 0 -a-> 1: macrostates {0}, {1}, then {} as the sink.
    macros, delta = _explored(2, 1, [2, 0], (1,))
    assert macros == [1, 2, 0]
    assert delta == [1, 2, 2]


def test_explore_subsets_budget_returns_none():
    a = core.Nfa.build(("a", "b"), 3, [(0, "a", 1), (0, "b", 2)], {0}, {2})
    assert _explored(3, 2, a.succ_masks, (1,), 2) is None


# --- the packed image tables against the bit-by-bit references -----------------


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


def test_packed_image_splits_into_every_symbols_subset_image():
    # Every state count from 0 to 130, most not a multiple of 8, each with
    # 1-3 symbols; the masks 0, all states, the top state alone and random
    # ones, some dense.  Each table entry is filled on its first lookup, so a
    # second read of a mask must give the same answer from the filled tables.
    rng = random.Random(2510)
    for n in range(131):
        if n:
            _, k, succ = _random_kernel_input(rng, min_states=n, max_states=n)
            masks = [_random_mask(rng, n), rng.getrandbits(n), rng.getrandbits(n)]
        else:
            k, succ, masks = 2, [], []
        full = (1 << n) - 1
        masks += [0, full, 1 << n >> 1]
        tables = pure._packed_tables(n, k, succ)
        assert len(tables) == (n + 7) // 8
        for mask in masks + masks:
            packed = pure._packed_image(tables, mask)
            assert packed >> k * n == 0
            for sym in range(k):
                assert packed >> sym * n & full == helpers.subset_image_reference(n, succ, sym, mask)


def test_explore_subsets_matches_reference_at_the_budget_edges():
    seen_large = seen_empty_row = 0
    for rng, (n, k, succ) in _kernel_cases(41):
        seeds = [_random_mask(rng, n) for _ in range(rng.randint(1, 3))]
        seeds += [seeds[0]] if rng.random() < 0.5 else [0]  # a duplicate, or the empty set
        expected = helpers.explore_subsets_reference(n, k, succ, seeds, 4096)
        assert _explored(n, k, succ, seeds, 4096) == expected
        if expected is None:
            continue
        seen_large += n > 64
        seen_empty_row += any(not any(succ[s * n : (s + 1) * n]) for s in range(k))
        count = len(expected[0])
        assert _explored(n, k, succ, seeds) == expected
        assert _explored(n, k, succ, seeds, count) == expected
        assert _explored(n, k, succ, seeds, count - 1) is None
        assert _explored(n, k, succ, seeds, 0) is None
        assert _explored(n, k, succ, seeds, len(set(seeds)) - 1) is None
    assert seen_large > 0 and seen_empty_row > 0


def test_resumable_exploration_matches_the_reference_in_any_steps():
    """``SubsetExploration`` advanced in seeded random steps, now and then
    with no limit, gives the reference's macrostates and table, and at each
    stop a prefix of them; at the budget edges it runs out for good, having
    materialized exactly the budget."""
    rng = random.Random(59)
    cases = list(_kernel_cases(57)) + [(rng, _random_kernel_input(rng, 91, 130)) for _ in range(8)]
    seen = collections.Counter()
    for rng, (n, k, succ) in cases:
        seeds = [_random_mask(rng, n) for _ in range(rng.randint(1, 3))]
        seeds += [seeds[0]] if rng.random() < 0.5 else [0]  # a duplicate, or the empty set
        full = helpers.explore_subsets_reference(n, k, succ, seeds, 4096)
        if full is None:
            continue
        count, distinct = len(full[0]), len(set(seeds))
        seen["large"] += n > 64
        seen["over 90"] += n > 90
        for budget in (None, count, count - 1, 0, distinct - 1):
            x = pure.SubsetExploration(n, k, succ, seeds, budget)
            limit = 0
            while (status := x.advance(limit)) is False:
                seen["stopped"] += 1
                assert len(x.macros) >= limit and (not x.delta or len(x.macros) < limit + k)
                assert len(x.delta) % k == 0
                assert (x.macros, x.delta) == (full[0][: len(x.macros)], full[1][: len(x.delta)])
                limit = None if rng.random() < 0.1 else limit + rng.randint(1, 40)
            if budget is not None and budget < count:
                ran_out = (list(x.macros), list(x.delta))
                assert status is None and x.advance() is None and x.advance(limit) is None
                assert (x.macros, x.delta) == ran_out and len(x.macros) == budget
                seen["budget"] += 1
            else:
                assert status is True and (x.macros, x.delta) == full and x.advance(0) is True
    assert seen["large"] > 10 and seen["over 90"] > 3 and seen["stopped"] > 500 and seen["budget"] > 300, seen


def _subset_successors(n, k, succ):
    """An ``expand`` over state sets: per symbol, none for an empty image,
    else the image and the image without its lowest state."""

    def expand(mask):
        images = (helpers.subset_image_reference(n, succ, sym, mask) for sym in range(k))
        return [[img, img & (img - 1)] if img else [] for img in images]

    return expand


def test_keyed_exploration_matches_the_reference_in_any_steps():
    """``KeyedExploration`` advanced in seeded random steps, now and then with
    no limit, gives the reference's keys and moves, and at each stop a prefix
    of them; at the budget edges (the count, one less, 0 and one below the
    distinct seeds, some of them repeated) it runs out for good, having
    interned exactly the budget."""
    seen = collections.Counter()
    for rng, (n, k, succ) in _kernel_cases(61):
        expand = _subset_successors(n, k, succ)
        seeds = [_random_mask(rng, n) for _ in range(rng.randint(1, 3))]
        seeds += [seeds[0]] if rng.random() < 0.5 else [0]  # a duplicate, or the empty set
        full = helpers.keyed_exploration_reference(expand, seeds, 4096)
        if full is None:
            continue
        count, distinct = len(full[0]), len(set(seeds))
        seen["large"] += n > 64
        for budget in (None, count, count - 1, 0, distinct - 1):
            x = pure.KeyedExploration(expand, seeds, budget)
            limit = 0
            while (status := x.advance(limit)) is False:
                seen["stopped"] += 1
                assert len(x.keys) >= limit
                assert (x.keys, x.moves) == (full[0][: len(x.keys)], full[1][: len(x.moves)])
                assert all(x.index[key] == i for i, key in enumerate(x.keys)) and len(x.index) == len(x.keys)
                limit = None if rng.random() < 0.1 else limit + rng.randint(1, 40)
            if budget is not None and budget < count:
                ran_out = (list(x.keys), list(x.moves))
                assert status is None and x.advance() is None and x.advance(limit) is None
                assert (x.keys, x.moves) == ran_out and len(x.keys) == budget
                assert helpers.keyed_exploration_reference(expand, seeds, budget) is None
                seen["budget"] += 1
            else:
                assert status is True and (x.keys, x.moves) == full and x.advance(0) is True
    assert seen["large"] > 10 and seen["stopped"] > 300 and seen["budget"] > 300, seen


def test_product_with_a_stateless_automaton_is_empty():
    loop = core.Nfa.build(("a",), 1, [(0, "a", 0)], {0}, {0})
    nothing = core.Nfa.build(("a",), 0, [], set(), set())
    assert core.language_disjoint(loop, nothing) and core.language_disjoint(nothing, loop)
    assert not core.language_disjoint(loop, loop)


def _product_side(rng, n, k, shape):
    """(succ, init, final) of one side of a product over ``n`` states and ``k`` symbols.

    ``"dfa"`` is a partial DFA, ``"nfa"`` has up to three successors per move;
    the initial set is empty in about one case in eight, and the final set is
    empty, one or two states, or dense.
    """
    if shape == "dfa":
        succ = _random_dfa_succ(rng, n, k, partial=True)
        init = 1 << rng.randrange(n) if n else 0
    else:
        succ = [sum(1 << q for q in rng.sample(range(n), min(n, rng.randint(0, 3)))) for _ in range(k * n)]
        init = sum(1 << q for q in rng.sample(range(n), min(n, rng.randint(1, 3))))
    if rng.random() < 0.125:
        init = 0
    final = rng.choice((0, 1, 2, n))
    final = sum(1 << q for q in range(n) if rng.random() < 0.4) if final == n else \
        sum(1 << q for q in rng.sample(range(n), min(n, final)))
    return succ, init, final


def test_product_matches_the_pair_search_it_replaced():
    """Product emptiness against ``helpers.product_nonempty_reference``, the
    breadth-first search over single pairs.

    Seeded random pairs of 0-130 states over 1-3 symbols, in both size orders
    and of equal size, each side a partial DFA or an NFA, some with an empty
    initial or final set and some with no states.  A fifth of the cases pair a
    complete DFA with itself under the complemented final set, which is empty
    only after the whole product has been searched, or with one move moved.
    """
    rng = random.Random(47)
    seen = collections.Counter()
    for case in range(400):
        k = rng.randint(1, 3)
        sizes = [rng.choice((0, rng.randint(1, 12), rng.randint(13, 64), rng.randint(65, 130))) for _ in "ab"]
        if case % 5 == 0:
            n = max(sizes[0], 1)
            succ = [1 << rng.randrange(n) for _ in range(k * n)]
            init, final = 1 << rng.randrange(n), sum(1 << q for q in range(n) if rng.random() < 0.5)
            other = list(succ)
            if case % 10 == 0:
                other[rng.randrange(k * n)] = 1 << rng.randrange(n)
            args = (k, n, succ, init, final, n, other, init, (1 << n) - 1 ^ final)
        else:
            if case % 7 == 0:
                sizes[1] = sizes[0]
            (na, nb), shapes = sizes, [rng.choice(("dfa", "nfa")) for _ in "ab"]
            args = (k, na, *_product_side(rng, na, k, shapes[0]), nb, *_product_side(rng, nb, k, shapes[1]))
        want = helpers.product_nonempty_reference(*args)
        assert pure.product_nonempty(*args) == want, case
        na, nb = args[1], args[5]
        order = "a<b" if na < nb else "a>b" if na > nb else "a=b"
        seen[order, want] += 1
        seen["multi-limb", want] += max(na, nb) > 64
        seen["stateless"] += not na or not nb
        seen["no initial"] += bool(na and nb) and not (args[3] and args[7])
        seen["no final"] += bool(na and nb) and not (args[4] and args[8])
        seen["searched", want] += case % 5 == 0
    assert all(seen[order, want] >= 10 for order in ("a<b", "a>b", "a=b") for want in (True, False)), seen
    assert seen["multi-limb", True] >= 30 and seen["multi-limb", False] >= 30, seen
    assert seen["stateless"] and seen["no initial"] and seen["no final"], seen
    assert seen["searched", True] and seen["searched", False] >= 30, seen


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


def test_indexed_frontier_matches_the_list_scan(monkeypatch):
    """Both paths of the kernel against the reference's plain list scan.

    The name is historical: the general path once indexed its frontier, and
    now keeps a plain list per a-state like the reference.  Same verdict, and
    the same expansion count: the kernel answers at exactly the reference's
    count and runs out one below it.  A third of the cases compare against a
    deterministic b of 64-130 states, complete or partial, whose macrostates
    are singletons over several bytes or empty; some of these have no initial
    state and a few have no states at all.  They, and only they, run through
    ``_included_in_dfa``.  A third compare against a deterministic b of 9-40
    states with two initial states, which takes the general path, and a third
    against a small nondeterministic b, where kept masks get superseded.
    """
    helper_calls = []
    included_in_dfa = pure._included_in_dfa

    def counted(*args):
        helper_calls.append(args)
        return included_in_dfa(*args)

    monkeypatch.setattr(pure, "_included_in_dfa", counted)
    rng = random.Random(45)
    seen = collections.Counter()
    for case in range(360):
        na, k, succ_a = _random_kernel_input(rng, max_states=9)
        kind = ("dfa", "nfa", "two-initial")[case % 3]
        if kind == "nfa":
            nb, _k, succ_b = _random_kernel_input(rng, 2, 12, nsyms=k)
            succ_b[rng.randrange(k * nb)] |= 3 << rng.randrange(nb - 1)  # one row with two bits
            init_b = _random_mask(rng, nb)
        else:
            if case % 60 == 0:
                nb = 0
            else:
                nb = rng.randint(64, 130) if kind == "dfa" else rng.randint(9, 40)
            succ_b = _random_dfa_succ(rng, nb, k, partial=case % 2 == 0)
            if kind == "two-initial":
                init_b = sum(1 << q for q in rng.sample(range(nb), 2))
            elif nb and case % 12 != 6:
                init_b = 1 << rng.randrange(nb)
            else:
                init_b = 0
        # Sparse finals in a and dense ones in b keep many explorations going.
        final_a = sum(1 << q for q in range(na) if rng.random() < 0.15)
        final_b = sum(1 << q for q in range(nb) if rng.random() < 0.7)
        args = (k, na, succ_a, _random_mask(rng, na) or 1, final_a, nb, succ_b, init_b, final_b)
        counts = collections.Counter()
        want = helpers.antichain_included_reference(*args, counts=counts)
        expansions = counts["expansions"]
        helper_calls.clear()
        assert pure.antichain_included(*args) == want
        assert pure.antichain_included(*args, budget=expansions) == want
        if expansions:
            assert pure.antichain_included(*args, budget=expansions - 1) == -1
        runs = 3 if expansions else 2
        assert len(helper_calls) == (runs if kind == "dfa" else 0)
        seen[kind, want] += 1
        seen[kind, "empty"] += counts["empty"] > 0
        # Superseded with no empty mask kept: by a smaller nonempty one.
        seen[kind, "superseded"] += counts["superseded"] > 0 and not counts["empty"]
        seen[kind, "long"] += expansions >= 100
        seen[kind, "no initial"] += not init_b
    assert all(seen[kind, key] for kind in ("dfa", "nfa", "two-initial") for key in (0, 1, "empty"))
    assert seen["dfa", "long"] and seen["nfa", "superseded"] and seen["dfa", "no initial"]


def test_general_search_matches_the_list_scan_on_multi_limb_masks():
    """The general search against the reference on a nondeterministic b of
    65-130 states, whose macrostates span several 64-bit limbs.

    b is a partial DFA with a few rows given two or more bits, and it starts
    from two to five states, so it never takes the deterministic path.  Same
    verdict as the reference, the answer at exactly its expansion count and
    ``-1`` one below; among the cases some keep an empty mask, some drop a
    kept mask for a smaller nonempty one, and some expand more than 100 pairs.
    """
    rng = random.Random(46)
    seen = collections.Counter()
    for case in range(150):
        na, k, succ_a = _random_kernel_input(rng, max_states=9 if case % 2 else 16)
        nb = rng.randint(65, 130)
        succ_b = _random_dfa_succ(rng, nb, k, partial=True)
        for _ in range(rng.randint(2, 6)):
            succ_b[rng.randrange(k * nb)] |= sum(1 << q for q in rng.sample(range(nb), rng.randint(1, 3)))
        init_b = sum(1 << q for q in rng.sample(range(nb), rng.randint(2, 5)))
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
        seen[want] += 1
        seen["empty"] += counts["empty"] > 0
        seen["superseded"] += counts["superseded"] > 0 and not counts["empty"]
        seen["long"] += expansions > 100
    assert seen[0] and seen[1] and seen["empty"] and seen["superseded"] and seen["long"]


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
