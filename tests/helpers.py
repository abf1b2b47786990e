"""Seeded random automata and brute-force reference implementations.

Everything here is deliberately naive: the point is to have a second,
independent route to every answer the library computes cleverly.
"""

import itertools
from collections import deque

from nfacomp import core
from nfacomp.errors import BudgetExceededError
from nfacomp.sequential import SeqComplementState


LETTERS = "abc"


def random_nfa(rng, max_states=8, max_syms=3, force_final=False, min_states=1):
    n = rng.randint(min_states, max_states)
    k = rng.randint(1, max_syms)
    alphabet = tuple(LETTERS[:k])
    p = rng.uniform(0.5, 2.0) / n
    trans = [
        (q, sym, r)
        for q in range(n)
        for sym in alphabet
        for r in range(n)
        if rng.random() < p
    ]
    initial = {q for q in range(n) if rng.random() < 0.3} or {rng.randrange(n)}
    final = {q for q in range(n) if rng.random() < 0.3}
    if force_final and not final:
        final = {rng.randrange(n)}
    return core.Nfa.build(alphabet, n, trans, initial, final)


def random_port_nfa(rng, max_states=6, num_entry=2, num_exit=2, max_syms=2, min_states=1):
    n = rng.randint(min_states, max_states)
    k = rng.randint(1, max_syms)
    alphabet = tuple(LETTERS[:k])
    p = rng.uniform(0.5, 2.0) / n
    trans = [
        (q, sym, r)
        for q in range(n)
        for sym in alphabet
        for r in range(n)
        if rng.random() < p
    ]

    def port_set():
        # Mostly non-empty, but empty port sets are legal and worth hitting.
        s = {q for q in range(n) if rng.random() < 0.4}
        if not s and rng.random() < 0.85:
            s = {rng.randrange(n)}
        return s

    return core.PortNfa.build(
        alphabet,
        n,
        trans,
        [port_set() for _ in range(num_entry)],
        [port_set() for _ in range(num_exit)],
    )


def words_up_to(alphabet, max_len):
    """All words over `alphabet` of length <= max_len, shortest first."""
    for length in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


def brute_language(a, max_len):
    return {w for w in words_up_to(a.alphabet, max_len) if core.accepts(a, w)}


def brute_included(a, b, max_len):
    return all(core.accepts(b, w) for w in words_up_to(a.alphabet, max_len) if core.accepts(a, w))


def brute_complement_ok(a, c, max_len):
    return all(
        core.accepts(c, w) != core.accepts(a, w) for w in words_up_to(a.alphabet, max_len)
    )


def concat_with_gate(a1, a2, c):
    """L(a1) . c . L(a2) as one NFA; the reference input for basic-gate tests."""
    if a1.alphabet != a2.alphabet:
        raise ValueError("alphabets differ")
    off = a1.num_states
    trans = set(a1.transitions)
    trans.update((s + off, y, t + off) for (s, y, t) in a2.transitions)
    cid = a1.symbol_ids[c]
    trans.update((f, cid, i + off) for f in a1.final for i in a2.initial)
    return core.Nfa(
        a1.alphabet,
        off + a2.num_states,
        frozenset(trans),
        a1.initial,
        frozenset(q + off for q in a2.final),
    )


def random_gate_instance(rng, max_component_states=10):
    """A pair (a1, a2) over {a, b, c} where neither component touches c."""

    def component(single_final, single_initial):
        n = rng.randint(1, max_component_states)
        p = rng.uniform(0.5, 2.0) / n
        trans = [
            (q, sym, r)
            for q in range(n)
            for sym in "ab"
            for r in range(n)
            if rng.random() < p
        ]
        initial = {0} if single_initial else (
            {q for q in range(n) if rng.random() < 0.3} or {rng.randrange(n)}
        )
        final = {n - 1} if single_final else (
            {q for q in range(n) if rng.random() < 0.3} or {rng.randrange(n)}
        )
        return core.Nfa.build(("a", "b", "c"), n, trans, initial, final)

    return component(False, False), component(False, False)


def seq_complement_reference(p, c2, *, budget=None):
    """Composite exploration of the sequential complement, spelled out.

    Tracked sets are frozensets and every successor is one element of the
    product of the per-instance choice lists, so a successor set reached
    through several choices is rebuilt once per choice.  The library's
    ``seq_complement_generalized_annotated`` must return exactly this
    automaton and annotation (validation of the inputs is left to it).
    """
    f = p.front
    nsyms = len(f.alphabet)
    nf = f.num_states
    nc = c2.num_states
    target_port = {t: p.rear.num_entry + k for k, t in enumerate(p.gate_targets)}
    gates = {}
    for (x, sym, t) in p.transfer:
        gates.setdefault((p.front_index[x], sym), set()).add(t)
    gate_targets_at = {key: sorted(ts) for key, ts in gates.items()}

    index = {}
    states = []

    def intern(st):
        i = index.get(st)
        if i is None:
            if budget is not None and len(states) >= budget:
                raise BudgetExceededError("composite state budget exceeded", budget=budget)
            i = len(states)
            index[st] = i
            states.append(st)
        return i

    entry_ids = []
    for i in range(p.rear.num_entry):
        (q0,) = f.entry_sets[i]
        if p.rear.entry_sets[i]:
            ids = frozenset(
                intern((q0, frozenset({r0}))) for r0 in sorted(c2.entry_sets[i])
            )
        else:
            ids = frozenset({intern((q0, frozenset()))})
        entry_ids.append(ids)

    transitions = set()
    head = 0
    while head < len(states):
        q, tracked = states[head]
        sid = head
        head += 1
        for sym in range(nsyms):
            q2 = next(core._bits(f.succ_masks[sym * nf + q]))
            choice_lists = []
            dead = False
            for r in sorted(tracked):
                succs = sorted(core._bits(c2.succ_masks[sym * nc + r]))
                if not succs:
                    dead = True
                    break
                choice_lists.append(succs)
            if dead:
                continue
            for t in gate_targets_at.get((q, sym), ()):
                entry = sorted(c2.entry_sets[target_port[t]])
                if not entry:
                    dead = True
                    break
                choice_lists.append(entry)
            if dead:
                continue
            for combo in itertools.product(*choice_lists):
                transitions.add((sid, sym, intern((q2, frozenset(combo)))))

    exit_ids = []
    for j in range(p.rear.num_exit):
        fj = f.exit_sets[j]
        cj = c2.exit_sets[j]
        exit_ids.append(
            frozenset(i for i, (q, tracked) in enumerate(states) if q not in fj and tracked <= cj)
        )
    names = tuple(
        f.state_name(q) + ":{" + ",".join(c2.state_name(r) for r in sorted(tracked)) + "}"
        for (q, tracked) in states
    )
    out = core.PortNfa(
        f.alphabet,
        len(states),
        frozenset(transitions),
        tuple(entry_ids),
        tuple(exit_ids),
        state_names=names,
    )
    annotation = tuple(SeqComplementState(q, tracked) for (q, tracked) in states)
    return out, annotation


def explore_port_reference(p, *, budget=None):
    """Port powerset construction, spelled out.

    Every entry set is interned first, in port order, then the macrostates
    are expanded breadth-first, one original state at a time.  The budget
    bounds the number of macrostates, entry macrostates included.  The
    library's ``determinize`` must return exactly this automaton (``.nfa``)
    and macrostate -> original-subset back-map (``.macrostates``).
    """
    nsyms = len(p.alphabet)
    succ = {}
    for (q, sym, r) in p.transitions:
        succ.setdefault((q, sym), set()).add(r)
    index = {}
    macros = []

    def intern(states):
        i = index.get(states)
        if i is None:
            if budget is not None and len(macros) >= budget:
                raise BudgetExceededError("macrostate budget exceeded", budget=budget)
            i = len(macros)
            index[states] = i
            macros.append(states)
        return i

    entry_ids = [intern(frozenset(s)) for s in p.entry_sets]
    transitions = set()
    head = 0
    while head < len(macros):
        cur = macros[head]
        for sym in range(nsyms):
            nxt = frozenset(r for q in cur for r in succ.get((q, sym), ()))
            transitions.add((head, sym, intern(nxt)))
        head += 1
    names = tuple(
        "{" + ",".join(p.state_name(q) for q in sorted(m)) + "}" for m in macros
    )
    det = core.PortNfa(
        p.alphabet,
        len(macros),
        frozenset(transitions),
        tuple(frozenset({i}) for i in entry_ids),
        tuple(frozenset(i for i, m in enumerate(macros) if m & s) for s in p.exit_sets),
        state_names=names,
    )
    return det, tuple(macros)


# --- the kernels, one state at a time -----------------------------------------
# The library's kernels compute subset images one byte of the state set at a
# time through lazily filled tables; these walk the set bit by bit instead and
# must give exactly the same answers.


def subset_image_reference(nstates, succ, sym, mask):
    img = 0
    for q in core._bits(mask):
        img |= succ[sym * nstates + q]
    return img


def explore_subsets_reference(nstates, nsyms, succ, seeds, budget=None):
    index = {}
    macros = []

    def intern(mask):
        j = index.get(mask)
        if j is None:
            if budget is not None and len(macros) >= budget:
                return None
            j = index[mask] = len(macros)
            macros.append(mask)
        return j

    for seed in seeds:
        if intern(seed) is None:
            return None
    delta = []
    head = 0
    while head < len(macros):
        cur = macros[head]
        head += 1
        for sym in range(nsyms):
            j = intern(subset_image_reference(nstates, succ, sym, cur))
            if j is None:
                return None
            delta.append(j)
    return macros, delta


def word_signature_reference(nstates, nsyms, succ, init, final, max_len):
    out = bytearray([1 if init & final else 0])
    level = [init]
    for _ in range(max_len):
        level = [subset_image_reference(nstates, succ, sym, m) for m in level for sym in range(nsyms)]
        out += bytes(1 if m & final else 0 for m in level)
    return bytes(out)


def antichain_included_reference(
    nsyms, nstates_a, succ_a, init_a, final_a, nstates_b, succ_b, init_b, final_b, budget=None
):
    frontier = {}  # a-state -> list of minimal b-masks
    queue = deque()

    def offer(p, s):
        kept = frontier.setdefault(p, [])
        if any(old & s == old for old in kept):
            return
        frontier[p] = [old for old in kept if old & s != s] + [s]
        queue.append((p, s))

    for p in core._bits(init_a):
        if (final_a >> p) & 1 and not (init_b & final_b):
            return 0
        offer(p, init_b)
    expansions = 0
    while queue:
        p, s = queue.popleft()
        if s not in frontier.get(p, ()):
            continue
        expansions += 1
        if budget is not None and expansions > budget:
            return -1
        for sym in range(nsyms):
            targets_a = succ_a[sym * nstates_a + p]
            if not targets_a:
                continue
            s2 = subset_image_reference(nstates_b, succ_b, sym, s)
            for p2 in core._bits(targets_a):
                if (final_a >> p2) & 1 and not (s2 & final_b):
                    return 0
                offer(p2, s2)
    return 1


def macro_name_reference(a, mask):
    """A macrostate's name: its states' names in increasing order, in braces."""
    return "{" + ",".join(a.state_name(q) for q in core._bits(mask)) + "}"


# --- the reductions, pair by pair and block by block --------------------------
# The library refines simulation through cached predecessor images and a
# dirty-state worklist, and Hopcroft through block ids and a splitter queue;
# these are the earlier sweeps over every pair and every block, which must
# give exactly the same answers.


def simulation_masks_reference(n, nsyms, succ, initial_candidates):
    sim = list(initial_candidates)
    changed = True
    while changed:
        changed = False
        for p in range(n):
            cur = sim[p]
            for q in list(core._bits(cur)):
                if q == p:
                    continue
                ok = True
                for sym in range(nsyms):
                    sq = succ[sym * n + q]
                    for p2 in core._bits(succ[sym * n + p]):
                        if not (sq & sim[p2]):
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    cur &= ~(1 << q)
                    changed = True
            sim[p] = cur
    return sim


def hopcroft_minimize_reference(dfa):
    n = dfa.num_states
    nsyms = len(dfa.alphabet)
    preds = [[[] for _ in range(n)] for _ in range(nsyms)]
    for (p, sym, q) in dfa.transitions:
        preds[sym][q].append(p)

    final = set(dfa.final)
    nonfinal = set(range(n)) - final
    partition = [b for b in (final, nonfinal) if b]
    work = set()
    if len(partition) == 2:
        smaller = frozenset(min(partition, key=len))
        for sym in range(nsyms):
            work.add((smaller, sym))
    while work:
        splitter, sym = work.pop()
        moved = set()
        for a_state in splitter:
            moved.update(preds[sym][a_state])
        next_partition = []
        for block in partition:
            inside = block & moved
            outside = block - moved
            if inside and outside:
                next_partition.append(inside)
                next_partition.append(outside)
                f_block = frozenset(block)
                f_in, f_out = frozenset(inside), frozenset(outside)
                for sym2 in range(nsyms):
                    if (f_block, sym2) in work:
                        work.remove((f_block, sym2))
                        work.add((f_in, sym2))
                        work.add((f_out, sym2))
                    else:
                        work.add((f_in if len(inside) <= len(outside) else f_out, sym2))
            else:
                next_partition.append(block)
        partition = next_partition

    blocks = sorted(partition, key=min)
    block_of = {}
    for bi, block in enumerate(blocks):
        for q in block:
            block_of[q] = bi
    succ = dfa.succ_masks
    transitions = set()
    for bi, block in enumerate(blocks):
        rep = min(block)
        for sym in range(nsyms):
            target = succ[sym * n + rep]
            transitions.add((bi, sym, block_of[next(core._bits(target))]))
    names = tuple("+".join(dfa.state_name(q) for q in sorted(block)) for block in blocks)
    (start,) = dfa.initial
    return core.Nfa(
        dfa.alphabet,
        len(blocks),
        frozenset(transitions),
        frozenset({block_of[start]}),
        frozenset(bi for bi, block in enumerate(blocks) if block <= final),
        state_names=names,
    )
