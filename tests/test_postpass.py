"""The post-passes against their pinned copies (``helpers.minimize_pinned``,
``helpers.quotient_and_prune_pinned``): byte for byte on seeded DFAs,
complete and partial, trimmed and untrimmed, plain and port, of 0-130
states; on co-deterministic inputs and their forward complements; and on
the inputs next to those where no shortcut may apply (several finals,
states that cannot reach the final state, views with flipped exit sets)."""

import itertools
import random
from collections import Counter

import helpers
from nfacomp import cli, core, fileformat, powerset, reduction
from nfacomp.errors import BudgetExceededError
from nfacomp.families import gate_chain, reverse_friendly, sequential_chain

FORWARD = powerset.Direction.FORWARD


def random_dfa(rng, n, nsyms, complete, port):
    """A DFA on n states copied from one on k <= n classes, so that classes
    merge: each move goes to some state of its target's class.  A partial
    one misses about a third of its moves; classes that reach no exit are
    dead.  A port DFA has 1-3 exit sets, each a union of classes, and
    entry sets of one state, of two states (of one class or of two) or of
    none."""
    k = rng.randint(1, n) if rng.random() < 0.6 else n
    cls = [q % k for q in range(n)]
    rng.shuffle(cls)
    members = [[q for q in range(n) if cls[q] == c] for c in range(k)]
    step = [[rng.randrange(k) if complete or rng.random() < 0.65 else None for _ in range(nsyms)] for _ in range(k)]
    trans = frozenset(
        (q, sym, rng.choice(members[step[cls[q]][sym]]))
        for q in range(n) for sym in range(nsyms) if step[cls[q]][sym] is not None
    )

    def exits():
        chosen = {c for c in range(k) if rng.random() < 0.4}
        return frozenset(q for q in range(n) if cls[q] in chosen)

    alphabet = tuple("abc"[:nsyms])
    names = [f"s{q}" for q in range(n)] if rng.random() < 0.5 else None
    if not port:
        return core.Nfa(alphabet, n, trans, frozenset({rng.randrange(n)}), exits(), state_names=names)
    entries = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(4)
        if kind == 0:
            entries.append(frozenset())
        elif kind == 1:
            entries.append(frozenset(rng.sample(range(n), min(2, n))))
        else:
            c = cls[rng.randrange(n)]
            entries.append(frozenset(rng.sample(members[c], min(kind - 1, len(members[c])))))
    return core.PortNfa(alphabet, n, trans, entries, [exits() for _ in range(rng.randint(1, 3))], state_names=names)


def accessible_dfa(rng, n, nsyms):
    """A partial DFA on n states, each reachable from state 0 by a spanning tree."""
    free, trans = [], set()
    for q in range(n):
        if q:
            p, sym = free.pop(rng.randrange(len(free)))
            trans.add((p, sym, q))
        free += [(q, sym) for sym in range(nsyms)]
    for (p, sym) in free:
        if rng.random() < 0.6:
            trans.add((p, sym, rng.randrange(n)))
    finals = frozenset(q for q in range(n) if rng.random() < 0.4) or frozenset({n - 1})
    return core.Nfa(tuple("abc"[:nsyms]), n, frozenset(trans), frozenset({0}), finals)


def codeterministic_inputs(rng, n, nsyms):
    """The reversal of an accessible DFA, reverse-deterministic with one final
    state that every state reaches, then its variants where that fails: a
    second final state, and a fresh state that cannot reach the final one."""
    c = core.reverse(accessible_dfa(rng, n, nsyms))
    if rng.random() < 0.5:
        c = core._view(c, state_names=[f"q{q}" for q in range(n)])
    yield "codeterministic", c
    others = sorted(set(range(n)) - c.final)
    if others:
        yield "finals", core._view(c, exit_sets=[c.final | {rng.choice(others)}])
    stray = (rng.randrange(n), rng.randrange(nsyms), n)
    yield "dead", core._new(core.Nfa, c.alphabet, n + 1, c.entry_sets, c.exit_sets, None, None,
                            transitions=c.transitions | {stray})


def cases(seed):
    """(kind, automaton) pairs: seeded DFAs and their trims, then co-deterministic
    inputs, their variants, the forward complement of each and a view of that
    complement with flipped exit sets; the empty forward complement of (a|b)*."""
    rng = random.Random(seed)
    sizes = [rng.randint(1, 12) for _ in range(120)] + [rng.randint(13, 64) for _ in range(20)]
    sizes += [rng.randint(65, 130) for _ in range(8)]
    for n in sizes:
        d = random_dfa(rng, n, rng.randint(1, 3), complete=rng.random() < 0.5, port=rng.random() < 0.4)
        yield "dfa", d
        yield "dfa", core.trim(d)
    inputs = [codeterministic_inputs(rng, rng.randint(1, 9), rng.randint(1, 3)) for _ in range(120)]
    inputs += [codeterministic_inputs(rng, rng.randint(65, 100), rng.randint(1, 3)) for _ in range(4)]
    inputs += [[("codeterministic", reverse_friendly(n))] for n in (5, 6)]
    for kind, c in itertools.chain.from_iterable(inputs):
        yield kind, c
        try:
            fc = powerset._complement(c, FORWARD, 512)[0]
        except BudgetExceededError:
            continue
        yield f"{kind} complement", fc
        if fc.num_states:
            yield "flipped", core._view(fc, exit_sets=[frozenset(range(fc.num_states)) - fc.final])
    universal = core.Nfa.build(("a", "b"), 1, [(0, "a", 0), (0, "b", 0)], {0}, {0})
    yield "empty", powerset.forward_complement(universal)


def test_post_passes_match_their_pinned_copies():
    seen = Counter()
    for kind, a in cases(20261020):
        plain = isinstance(a, core.Nfa)
        for prune_entries in (False, True) if plain else (True,):
            want = fileformat.serialize(helpers.quotient_and_prune_pinned(a, prune_entries))
            stats = {}
            assert fileformat.serialize(reduction._quotient_and_prune(a, prune_entries, stats)) == want, kind
            seen[stats["reduce"]] += 1
        if plain and (a.num_states == 0 or core.is_deterministic(a)):
            want = helpers.minimize_pinned(a)
            stats = {}
            assert fileformat.serialize(cli._minimize(a, stats)) == fileformat.serialize(want), kind
            seen["minimized"] += 1
            seen["merged"] += want.num_states < a.num_states
            seen[f"minimize {stats['minimize']}"] += 1
        # The facts hold where they are recorded, and are recorded on exactly
        # the forward complements that Brzozowski's condition covers.
        assert a._minimal == (kind in ("codeterministic complement", "empty")), kind
        assert not a._trim or helpers.trim_reference(a) is a, kind
        seen[kind] += 1
        seen["port"] += not plain
        seen["large"] += a.num_states > 64
        seen[f"large {kind}"] += a.num_states > 64
        if core.is_deterministic(a):
            seen["complete" if core.is_complete(a) else "partial"] += 1
    kinds = ("dfa", "codeterministic", "codeterministic complement", "finals complement", "dead complement",
             "flipped", "minimized", "merged", "port", "large", "complete", "partial",
             "construction", "codeterministic", "hopcroft", "simulation", "minimize construction", "minimize hopcroft")
    assert all(seen[k] > 10 for k in kinds) and seen["empty"] == 1, seen
    assert seen["large codeterministic complement"] >= 2 and seen["large flipped"] >= 2, seen


def test_witness_complements_are_minimal():
    """The README's reading of criteria 3 and 4: for n = 1..6, the forward
    complement of each witness family, and the reversal of its reverse
    complement, have as many states as ``hopcroft_minimize`` gives, so
    no deterministic (or co-deterministic) complement is smaller."""
    for family in (sequential_chain, gate_chain):
        for n in range(1, 7):
            b = family(n)
            for c in (powerset.forward_complement(b), core.reverse(powerset.reverse_complement(b))):
                assert core.is_deterministic(c)
                assert reduction.hopcroft_minimize(c).num_states == c.num_states, (family.__name__, n)
