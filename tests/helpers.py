"""Seeded random automata and brute-force reference implementations.

Everything here is deliberately naive: the point is to have a second,
independent route to every answer the library computes cleverly.
"""

import copy
import dataclasses
import itertools
import random
import re
from collections import Counter, deque

from nfacomp import core, fileformat, gate, oracle, powerset, reduction, sequential
from nfacomp._kernels import pure
from nfacomp.errors import BudgetExceededError, CutError, NfacompError, NoGatePartitionError, ParseError
from nfacomp.sequential import SeqComplementState


def rebuild_reference(a, num_states, transitions, entry_sets, exit_sets, state_names, name=None, **facts):
    """An automaton of ``a``'s class over ``a``'s alphabet, validated as the
    constructor does: a verbatim copy of ``core._rebuild``, which the library
    dropped when its own builds moved to ``core._derived``, so that the
    references keep its full check."""
    out = core._new(type(a), a.alphabet, num_states, entry_sets, exit_sets, state_names, name, transitions=transitions,
                    **facts)
    out._normalize_and_check()
    return out


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


def together_pairs_reference(c2):
    """The pairs (r, s) of ``c2`` states that some word leads into one exit set together.

    A search over pairs backwards from every (r, s) in one exit set, through
    pairs of predecessors on a common symbol.
    """
    preds = {}
    for (src, sym, dst) in c2.transitions:
        preds.setdefault((dst, sym), []).append(src)
    seen = {(r, s) for ex in c2.exit_sets for r in ex for s in ex}
    queue = deque(seen)
    while queue:
        r, s = queue.popleft()
        for sym in range(len(c2.alphabet)):
            for r0 in preds.get((r, sym), ()):
                for s0 in preds.get((s, sym), ()):
                    if (r0, s0) not in seen:
                        seen.add((r0, s0))
                        queue.append((r0, s0))
    return frozenset(seen)


def seq_complement_reference(p, c2, *, budget=None, prune=True):
    """Composite exploration of the sequential complement, spelled out.

    Tracked sets are frozensets and every successor is one element of the
    product of the per-instance choice lists, so a successor set reached
    through several choices is rebuilt once per choice.  With ``prune``, a
    successor that tracks two states outside ``together_pairs_reference``
    is dead and never built.  The library's
    ``seq_complement_generalized_annotated`` must return exactly the pruned
    automaton and annotation (validation of the inputs is left to it).
    """
    together = together_pairs_reference(c2) if prune else None
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
                tracked2 = frozenset(combo)
                if prune and any(
                    r != s and (r, s) not in together for r in tracked2 for s in tracked2
                ):
                    continue
                transitions.add((sid, sym, intern((q2, tracked2))))

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


def compose_pinned(p, c2, budget, bar=None):
    """``sequential._compose`` as it was before it ran on the keyed
    exploration driver, verbatim: an intern closure that checks the budget
    and the bar, a list of transitions and a full validation through
    ``rebuild_reference``."""
    f = p.front
    if not core.is_deterministic(f) or not core.is_complete(f):
        raise ValueError("front must be deterministic and complete (see determinize_front)")
    if c2.alphabet != f.alphabet:
        raise ValueError("c2 alphabet does not match the partition")
    if c2.num_entry != p.rear.num_entry + len(p.gate_targets):
        raise ValueError("c2 entry ports do not line up with the rear's ports")
    if c2.num_exit != p.rear.num_exit:
        raise ValueError("c2 exit ports do not line up with the rear's ports")

    nsyms = len(f.alphabet)
    nf = f.num_states
    nc = c2.num_states
    # A composite state is interned as one int: the tracked mask shifted past
    # the bits of the front state.  Every c2 state r stands for bit r + shift.
    shift = nf.bit_length()
    front_mask = (1 << shift) - 1
    # The front is deterministic and complete: one successor bit per (sym, q).
    front_succ = [m.bit_length() - 1 for m in f.succ_masks]
    # Per symbol, each c2 state's successors as a shifted mask.
    rear_succ = [[m << shift for m in c2.succ_masks[sym * nc:(sym + 1) * nc]] for sym in range(nsyms)]
    target_port = {t: p.rear.num_entry + k for k, t in enumerate(p.gate_targets)}
    gates: dict[int, set[int]] = {}
    for (x, sym, t) in p.transfer:
        gates.setdefault(sym * nf + p.front_index[x], set()).add(t)
    # Per (sym, q), the entry states of each gate that fires, as shifted masks.
    gate_choices: list[list[int]] = [[] for _ in range(nsyms * nf)]
    for k, ts in gates.items():
        gate_choices[k] = [core._mask_of(c2.entry_sets[target_port[t]]) << shift for t in sorted(ts)]
    # Per c2 state r, the shifted mask of the states that may be tracked beside
    # it, r included; every state when the pair table is not built.
    together = [0] * nc if core.is_reverse_deterministic(c2) else sequential._together_masks(c2)
    companions = [-1] * nc if together is None else [(m | 1 << r) << shift for r, m in enumerate(together)]
    pruned = [0]  # successor unions cut off, counted by the two helpers below

    def extend(partials: list[tuple[int, int]], choices: int) -> list[tuple[int, int]]:
        """Each partial union joined with one state of ``choices``, in product order, without repeats.

        A partial union carries the states that may still join it, so a union
        that would track two states no word leads into one exit set together
        is cut off, and with it every union that would contain it.  Dropping
        a repeat is safe: its own extensions repeat those of the first.
        """
        out: dict[int, int] = {}
        for u, room in partials:
            fits = choices & room
            pruned[0] += (choices ^ fits).bit_count()
            while fits:
                low = fits & -fits
                fits ^= low
                v = u | low
                if v not in out:
                    out[v] = room & companions[low.bit_length() - 1 - shift]
        return list(out.items())

    # Per tracked mask and symbol, the unions of one successor per tracked state.
    tracked_succ: dict[int, list[list[tuple[int, int]]]] = {}

    def successors_of(tracked: int) -> list[list[tuple[int, int]]]:
        bits = list(core._bits(tracked >> shift))
        rows = []
        for row in rear_succ:
            fixed, room, multi = 0, -1, []  # a state with one successor adds it to every union
            for r in bits:
                succ = row[r]
                if succ & (succ - 1):
                    multi.append(succ)
                elif succ:
                    fixed |= succ
                    room &= companions[succ.bit_length() - 1 - shift]
                else:  # this instance dies on the symbol, and with it every union
                    rows.append([])
                    break
            else:
                if fixed & ~room:  # two single successors that cannot be tracked together
                    pruned[0] += 1
                    partials = []
                else:
                    partials = [(fixed, room)]
                    for choices in multi:
                        partials = extend(partials, choices)
                rows.append(partials)
        return rows

    index: dict[int, int] = {}
    states: list[int] = []
    # A composite accepts for exit 0 when its front state is not in the front's
    # exit 0 and every state it tracks is in c2's.
    front_rejects = f.exit_sets[0]
    rear_rejects = ~core._mask_of(c2.exit_sets[0]) << shift
    accepting = [0]  # composites interned that accept for exit 0, counted under a bar

    def intern(key: int) -> int:
        i = index.get(key)
        if i is None:
            if budget is not None and len(states) >= budget:
                raise BudgetExceededError("composite state budget exceeded", budget=budget)
            i = len(states)
            index[key] = i
            states.append(key)
            if bar is not None and not (key & rear_rejects) and (key & front_mask) not in front_rejects:
                accepting[0] += 1
                if accepting[0] >= bar:
                    raise CutError("cut: the composition cannot beat a finished candidate")
        return i

    entry_ids: list[frozenset[int]] = []
    for i in range(p.rear.num_entry):
        (q0,) = f.entry_sets[i]
        if p.rear.entry_sets[i]:
            ids = frozenset(intern(1 << (r0 + shift) | q0) for r0 in sorted(c2.entry_sets[i]))
        else:
            ids = frozenset({intern(q0)})
        entry_ids.append(ids)

    transitions = []  # each (state, symbol, successor) is produced once
    for sid, key in enumerate(states):  # states grows while this runs
        q = key & front_mask
        tracked = key ^ q
        rows = tracked_succ.get(tracked)
        if rows is None:
            rows = tracked_succ[tracked] = successors_of(tracked)
        for sym, partials in enumerate(rows):
            k = sym * nf + q
            for choices in gate_choices[k]:
                partials = extend(partials, choices)
            q2 = front_succ[k]
            for m, _room in partials:
                i = index.get(m | q2)
                if i is None:
                    i = intern(m | q2)
                transitions.append((sid, sym, i))

    decoded = [(key & front_mask, key >> shift) for key in states]
    exit_ids = []
    for j in range(p.rear.num_exit):
        fj = f.exit_sets[j]
        outside = ~core._mask_of(c2.exit_sets[j])
        exit_ids.append(
            frozenset(i for i, (q, tracked) in enumerate(decoded) if q not in fj and not tracked & outside)
        )
    tracked_names = {
        m: ":{" + ",".join(c2.state_name(r) for r in core._bits(m)) + "}"
        for m in {tracked for (_q, tracked) in decoded}
    }
    names = tuple(f.state_name(q) + tracked_names[tracked] for (q, tracked) in decoded)
    return rebuild_reference(f, len(states), frozenset(transitions), entry_ids, exit_ids, names), decoded, pruned[0]


def product_intersection_reference(a, b):
    """``core.product_intersection`` as it was before it ran on the keyed
    exploration driver, verbatim: pairs interned as tuples, a set of
    transitions and a full validation through ``rebuild_reference``."""
    core._check_compatible(a, b, "product")
    index: dict[tuple[int, int], int] = {}
    pairs: list[tuple[int, int]] = []

    def intern(pair):
        i = index.get(pair)
        if i is None:
            i = len(pairs)
            index[pair] = i
            pairs.append(pair)
        return i

    seeds = set()
    for ea, eb in zip(a.entry_sets, b.entry_sets):
        seeds.update((pa, pb) for pa in ea for pb in eb)
    for pair in sorted(seeds):
        intern(pair)
    transitions = set()
    head = 0
    na, nb = a.num_states, b.num_states
    while head < len(pairs):
        pa, pb = pairs[head]
        cur = head
        head += 1
        for sym in range(len(a.alphabet)):
            ta = a.succ_masks[sym * na + pa]
            tb = b.succ_masks[sym * nb + pb]
            if not ta or not tb:
                continue
            for qa in core._bits(ta):
                for qb in core._bits(tb):
                    transitions.add((cur, sym, intern((qa, qb))))
    return rebuild_reference(
        a,
        len(pairs),
        frozenset(transitions),
        [
            frozenset(i for i, (pa, pb) in enumerate(pairs) if pa in ea and pb in eb)
            for ea, eb in zip(a.entry_sets, b.entry_sets)
        ],
        [
            frozenset(i for i, (pa, pb) in enumerate(pairs) if pa in fa and pb in fb)
            for fa, fb in zip(a.exit_sets, b.exit_sets)
        ],
        tuple(f"{a.state_name(pa)}|{b.state_name(pb)}" for (pa, pb) in pairs),
    )


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


def one_shot_explore_port_reference(a, budget, complement=False, trim=False, reverse=False, skip=frozenset()):
    """``powerset._explore_port`` as it was before the lockstep loop drove
    every exploration: one direction, its rows explored whole (by the plain
    subset exploration below), then finished.  Without ``trim`` a complement
    keeps no live marks: it is the untrimmed complement."""
    rows = powerset._port_rows(a, reverse, skip)
    res = explore_subsets_reference(rows.nstates, len(rows.syms), rows.succ, rows.starts, budget)
    if res is None:
        raise BudgetExceededError("macrostate budget exceeded", budget=budget)
    x = rows.finish(*res, complement)
    return x if trim else x._replace(live=None)


def keyed_exploration_reference(expand, seeds, budget=None):
    """``KeyedExploration`` spelled out: ``(keys, moves)``, or None once more
    than ``budget`` keys, seeds included, would be interned."""
    index = {}
    keys = []

    def intern(key):
        j = index.get(key)
        if j is None:
            if budget is not None and len(keys) >= budget:
                return None
            j = index[key] = len(keys)
            keys.append(key)
        return j

    for seed in seeds:
        if intern(seed) is None:
            return None
    moves = []
    for i, key in enumerate(keys):  # keys grows while this runs
        for sym, successors in enumerate(expand(key)):
            for successor in successors:
                j = intern(successor)
                if j is None:
                    return None
                moves.append((i, sym, j))
    return keys, moves


# --- the kernels, one state at a time -----------------------------------------
# The library's kernels compute subset images one byte of the state set at a
# time, under every symbol at once, through lazily filled packed tables; these
# walk the set bit by bit, one symbol at a time, and must give exactly the same
# answers.


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


def _word_at(index, alphabet):
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


def oracle_reference(a, c, max_len):
    """The bounded complement check by enumerating every word up to ``max_len``.

    Each automaton's acceptance bit for every word, in length-lex order, is
    computed level by level; the first index where the two agree is decoded
    back into its word.  ``oracle.oracle_complement_check`` must give the
    same verdict, counterexample and word count.
    """

    def signature(x):
        n, k, succ, final = x.num_states, len(x.alphabet), x.succ_masks, x.final_mask
        level = [x.initial_mask]
        out = bytearray([1 if x.initial_mask & final else 0])
        for _ in range(max_len):
            level = [subset_image_reference(n, succ, sym, m) for m in level for sym in range(k)]
            out += bytes(1 if m & final else 0 for m in level)
        return bytes(out)

    sig_a, sig_c = signature(a), signature(c)
    for i, (bit_a, bit_c) in enumerate(zip(sig_a, sig_c)):
        if bit_a == bit_c:
            word = _word_at(i, a.alphabet)
            return oracle.OracleVerdict(False, "".join(word), word, len(sig_a))
    return oracle.OracleVerdict(True, None, None, len(sig_a))


def first_agreement_reference(a, c, max_len, budget):
    """The oracle's pair search as it was before deterministic sides were
    walked as single states: a verbatim copy of ``oracle._first_agreement``,
    which cuts every state set of both sides into bytes through the packed
    image tables.  ``(word, pairs, finished)``, as the search answers."""
    if a.alphabet != c.alphabet:
        raise ValueError("oracle requires both automata to share one alphabet")
    if budget is not None and budget < 1:
        return None, 0, False
    n_a, n_c = a.num_states, c.num_states
    tables_a = pure._packed_tables(n_a, len(a.alphabet), a.succ_masks)
    tables_c = pure._packed_tables(n_c, len(c.alphabet), c.succ_masks)
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
            packed_a, packed_c = pure._packed_image(tables_a, pair[0]), pure._packed_image(tables_c, pair[1])
            for sym in range(len(a.alphabet)):
                img_a, img_c = packed_a >> sym * n_a & full_a, packed_c >> sym * n_c & full_c
                nxt = (img_a, img_c)
                if nxt in parent:
                    continue
                if budget is not None and len(parent) >= budget:
                    return None, len(parent), False
                parent[nxt] = (pair, sym)
                if bool(img_a & final_a) == bool(img_c & final_c):
                    return oracle._word_to(nxt, parent, a.alphabet), len(parent), True
                reached.append(nxt)
        level = reached
    return None, len(parent), True


def product_nonempty_reference(nsyms, nstates_a, succ_a, init_a, final_a, nstates_b, succ_b, init_b, final_b):
    """Product emptiness as it was before it went bit-parallel: a verbatim
    copy of ``_kernels.pure.product_nonempty``, a breadth-first search over
    pairs of states, one pair at a time."""
    if nstates_a == 0 or nstates_b == 0:
        return False
    seen = bytearray(nstates_a * nstates_b)
    queue = deque()
    for pa in core._bits(init_a):
        for pb in core._bits(init_b):
            if (final_a >> pa) & 1 and (final_b >> pb) & 1:
                return True
            seen[pa * nstates_b + pb] = 1
            queue.append((pa, pb))
    while queue:
        pa, pb = queue.popleft()
        for sym in range(nsyms):
            ta = succ_a[sym * nstates_a + pa]
            if not ta:
                continue
            tb = succ_b[sym * nstates_b + pb]
            if not tb:
                continue
            for qa in core._bits(ta):
                qa_final = (final_a >> qa) & 1
                for qb in core._bits(tb):
                    if seen[qa * nstates_b + qb]:
                        continue
                    if qa_final and (final_b >> qb) & 1:
                        return True
                    seen[qa * nstates_b + qb] = 1
                    queue.append((qa, qb))
    return False


def antichain_included_reference(
    nsyms, nstates_a, succ_a, init_a, final_a, nstates_b, succ_b, init_b, final_b, budget=None,
    counts=None,
):
    """The antichain inclusion check with each a-state's frontier a plain list,
    scanned whole on every offer.  ``counts``, when given, is a Counter that
    receives ``expansions``, ``superseded`` (kept masks dropped for a strictly
    smaller one) and ``empty`` (kept empty macrostates)."""
    frontier = {}  # a-state -> list of minimal b-masks
    queue = deque()
    if counts is None:
        counts = Counter()

    def offer(p, s):
        kept = frontier.setdefault(p, [])
        if any(old & s == old for old in kept):
            return
        frontier[p] = [old for old in kept if old & s != s] + [s]
        counts["superseded"] += len(kept) + 1 - len(frontier[p])
        counts["empty"] += not s
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
        counts["expansions"] = expansions
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


def live_reference(nsyms, delta, exits):
    """1 for each macrostate that reaches one in ``exits`` over the flat ``delta``:
    a backward search over a predecessor list of every edge."""
    preds = [[] for _ in range(len(delta) // nsyms)]
    for k, j in enumerate(delta):
        preds[j].append(k // nsyms)
    live = bytearray(len(preds))
    for i in exits:
        live[i] = 1
    while exits:
        for i in preds[exits.pop()]:
            if not live[i]:
                live[i] = 1
                exits.append(i)
    return live



def complement_reference(a, direction, budget=None):
    """``core.trim`` of the untrimmed powerset complement, and its size before trimming.

    The reverse direction reverses the input and the trimmed result around
    the forward construction, as ``rev(co(det(rev(a))))`` reads.
    """
    if direction is powerset.Direction.FORWARD:
        raw = powerset.complement_dfa(powerset.determinize(a, budget=budget))
        return core.trim(raw), raw.num_states
    raw = powerset.complement_dfa(powerset.determinize(core.reverse(a), budget=budget))
    return core.trim(core.reverse(raw)), raw.num_states


def smaller_complement_reference(a, *, budget=None):
    """Forward and reverse powerset complement, each built in full; the smaller wins, ties forward.

    A direction that runs out of budget is passed over; when both do, the
    last error is raised.
    """
    results = []
    failure = None
    for op in (powerset.forward_complement, powerset.reverse_complement):
        try:
            results.append(op(a, budget=budget))
        except BudgetExceededError as exc:
            failure = exc
    if not results:
        raise failure
    return min(results, key=lambda c: c.num_states)


# --- best-of choices, every candidate built in full ---------------------------
# The library stops a candidate once it cannot beat one that finished; these
# build every candidate to its end and then keep the smallest, and the library
# must choose exactly what they choose.


def seq_pipeline_best_reference(a, rear_method=powerset.Direction.REVERSE, *, budget=None, stats=None):
    """``sequential.seq_pipeline_best`` as it was before its strategies raced:
    the pipeline of every distinct partition runs to its end, the smallest
    complement wins and ties keep the first strategy in enum order."""
    best = None
    failure = None
    first_with = {}
    attempts = []
    for strat in sequential.PartitionStrategy:
        comps = sequential.partition(a, strat).components
        earlier = first_with.setdefault(comps, strat)
        if earlier is not strat:
            attempts.append(
                {"strategy": strat.value, "outcome": "same_partition_as", "same_partition_as": earlier.value}
            )
            continue
        local = {"strategy": strat.value}
        try:
            cand = sequential._run_pipeline(a, comps, rear_method, budget, local)
        except BudgetExceededError as exc:
            failure = exc
            attempts.append({"strategy": strat.value, "outcome": "budget"})
            continue
        attempts.append(
            {
                "strategy": strat.value,
                "outcome": "ok",
                "pre_trim": local["pre_trim"],
                "pruned": local["pruned"],
                "states": cand.num_states,
            }
        )
        if best is None or cand.num_states < best[0].num_states:
            best = (cand, strat, local)
    if best is None:
        raise failure if failure is not None else BudgetExceededError()
    if stats is not None:
        stats.update(best[2])
        stats["attempts"] = attempts
    return best[0], best[1]


PORTFOLIO_ORDER = ("forward", "reverse", "sequential", "gate")


def _portfolio_candidate(method, a, budget, rear):
    """(output, pre-trim size, partition summary) of one portfolio method, built in full."""
    if isinstance(a, core.PortNfa) and method not in ("forward", "reverse"):
        raise NfacompError(f"method {method!r} works on plain @NFA inputs only")
    if method in ("forward", "reverse"):
        out, pre = powerset._complement(a, powerset.Direction(method), budget)
        return out, pre, None
    stats = {}
    if method == "sequential":
        out, chosen = seq_pipeline_best_reference(a, powerset.Direction(rear), budget=budget, stats=stats)
        stats["strategy"] = chosen.value
        return out, stats.pop("pre_trim"), stats
    out = gate.gate_complement_auto(a, budget=budget, check_budget=10**7, stats=stats)
    return out, out.num_states, stats


def portfolio_reference(a, budget, rear="reverse"):
    """``complement -m portfolio`` as it was before its candidates raced: every
    method of ``PORTFOLIO_ORDER`` built in full, in that order; the smallest
    wins, ties the earlier.

    Returns the chosen output (None when no method finished), its method,
    per finished method its (states, pre-trim states, transitions, partition
    summary), and per other method its outcome: ``budget``,
    ``no_partition`` or ``unsupported``."""
    finished, skipped = {}, {}
    best = None
    for method in PORTFOLIO_ORDER:
        try:
            out, pre, summary = _portfolio_candidate(method, a, budget, rear)
        except BudgetExceededError:
            skipped[method] = "budget"
            continue
        except NoGatePartitionError:
            skipped[method] = "no_partition"
            continue
        except NfacompError:
            skipped[method] = "unsupported"
            continue
        finished[method] = (out.num_states, pre, out.num_transitions, summary)
        if best is None or out.num_states < best[0].num_states:
            best = (out, method)
    if best is None:
        return None, None, finished, skipped
    return best[0], best[1], finished, skipped

# --- the reductions, pair by pair and block by block --------------------------
# The library refines simulation by ANDing each shrink into the predecessors'
# sets, and Hopcroft through block ids and a splitter queue; these are the
# earlier sweeps over every pair and every block, which must give exactly the
# same answers.


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


def quotient_and_prune_reference(a, counts=None):
    """The classes, class map and pruned class transitions of the simulation pass.

    A target class is dropped when another target class lies strictly above
    it, found by comparing every pair of target classes; ``counts`` (a
    Counter, optional) tallies the dropped targets under ``"targets"``.
    Returns the order on classes as ``leq`` for the entry-set pruning.
    """
    n = a.num_states
    nsyms = len(a.alphabet)
    succ = a.succ_masks
    sim = reduction._simulation(a)
    class_of = [-1] * n
    classes = []
    for p in range(n):
        if class_of[p] != -1:
            continue
        members = [p] + [q for q in core._bits(sim[p]) if q > p and (sim[q] >> p) & 1]
        ci = len(classes)
        classes.append(members)
        for q in members:
            class_of[q] = ci

    def leq(ci, cj):
        return bool((sim[classes[ci][0]] >> classes[cj][0]) & 1)

    raw = {}
    for p in range(n):
        for sym in range(nsyms):
            for q in core._bits(succ[sym * n + p]):
                raw.setdefault((class_of[p], sym), set()).add(class_of[q])
    transitions = set()
    for (ci, sym), targets in raw.items():
        for cj in targets:
            if any(ck != cj and leq(cj, ck) and not leq(ck, cj) for ck in targets):
                if counts is not None:
                    counts["targets"] += 1
                continue
            transitions.add((ci, sym, cj))
    return classes, class_of, transitions, leq


def _quotient_reference(a, classes, class_of, transitions, entry_sets):
    out = rebuild_reference(
        a,
        len(classes),
        frozenset(transitions),
        entry_sets,
        [frozenset(class_of[q] for q in s) for s in a.exit_sets],
        tuple("+".join(a.state_name(q) for q in members) for members in classes),
    )
    return core.trim(out)


def simulation_reduce_reference(a, counts=None):
    if a.num_states == 0:
        return a
    classes, class_of, transitions, _leq = quotient_and_prune_reference(a, counts)
    entry_sets = [frozenset(class_of[q] for q in s) for s in a.entry_sets]
    return _quotient_reference(a, classes, class_of, transitions, entry_sets)


def simulation_reduce_port_reference(a, counts=None):
    """Also drops an entry-set class that another class of the same set lies strictly
    above, tallied under ``"entries"``."""
    if a.num_states == 0:
        return a
    classes, class_of, transitions, leq = quotient_and_prune_reference(a, counts)
    entry_sets = []
    for s in a.entry_sets:
        cls = {class_of[q] for q in s}
        kept = frozenset(
            ci for ci in cls if not any(cj != ci and leq(ci, cj) and not leq(cj, ci) for cj in cls)
        )
        if counts is not None:
            counts["entries"] += len(cls) - len(kept)
        entry_sets.append(kept)
    return _quotient_reference(a, classes, class_of, transitions, entry_sets)


# --- the post-passes as they ran every step ------------------------------------
# ``--minimize`` and the simulation pass return an input that is minimal or
# reduced by construction unchanged, and reduce a DFA with Hopcroft's classes;
# these are the passes before those shortcuts (``cli._minimize``,
# ``reduction._quotient_and_prune`` and the Hopcroft and quotient code they
# ran), which must give the same automata.


def _hopcroft_minimize_pinned(d):
    dfa = d.nfa if isinstance(d, powerset.MacrostateDfa) else d
    if not core.is_deterministic(dfa):
        raise ValueError("hopcroft_minimize needs a deterministic automaton")
    n = dfa.num_states
    nsyms = len(dfa.alphabet)
    succ = dfa.succ_masks
    sink = n
    preds = [[[] for _ in range(n + 1)] for _ in range(nsyms)]
    for (p, sym, q) in dfa._edges():
        preds[sym][q].append(p)
    for sym in range(nsyms):
        preds[sym][sink] += [p for p in range(n) if not succ[sym * n + p]] + [sink]

    final = dfa.final_mask
    blocks = [m for m in (
        {q for q in range(n) if (final >> q) & 1},
        {q for q in range(n + 1) if not (final >> q) & 1},
    ) if m]
    block_of = [0] * (n + 1)
    for bi, members in enumerate(blocks):
        for q in members:
            block_of[q] = bi
    queue = []
    if len(blocks) == 2:
        smaller = 0 if len(blocks[0]) <= len(blocks[1]) else 1
        queue = [(smaller, sym) for sym in range(nsyms)]
    pending = set(queue)
    while queue:
        splitter = queue.pop()
        pending.discard(splitter)
        b, sym = splitter
        row = preds[sym]
        touched = {}
        for q in blocks[b]:
            for p in row[q]:
                c = block_of[p]
                moved = touched.get(c)
                if moved is None:
                    touched[c] = [p]
                else:
                    moved.append(p)
        for c, moved in touched.items():
            members = blocks[c]
            if len(moved) == len(members):
                continue
            members.difference_update(moved)
            new = len(blocks)
            blocks.append(set(moved))
            for p in moved:
                block_of[p] = new
            smaller = new if len(moved) <= len(members) else c
            for sym2 in range(nsyms):
                split = (new, sym2) if (c, sym2) in pending else (smaller, sym2)
                pending.add(split)
                queue.append(split)

    classes = sorted(sorted(members - {sink}) for members in blocks if members != {sink})
    return _quotient_pinned(dfa, classes, [0] * len(classes), prune_entries=False)


def _quotient_pinned(a, classes, above, prune_entries):
    n = a.num_states
    nsyms = len(a.alphabet)
    succ = a.succ_masks
    class_of = [-1] * n
    class_mask = []
    for ci, members in enumerate(classes):
        class_mask.append(core._mask_of(members))
        for q in members:
            class_of[q] = ci

    transitions = set()
    for ci, members in enumerate(classes):
        for sym in range(nsyms):
            row = 0
            for p in members:
                row |= succ[sym * n + p]
            rest = row
            while rest:
                cj = class_of[rest.bit_length() - 1]
                rest &= ~class_mask[cj]
                if not above[cj] & row:
                    transitions.add((ci, sym, cj))
    entry_sets = []
    for s in a.entry_sets:
        m = core._mask_of(s) if prune_entries else 0
        entry_sets.append(frozenset(class_of[q] for q in s if not above[class_of[q]] & m))
    return rebuild_reference(
        a,
        len(classes),
        frozenset(transitions),
        entry_sets,
        [frozenset(class_of[q] for q in s) for s in a.exit_sets],
        tuple("+".join(a.state_name(q) for q in members) for members in classes),
    )


def quotient_and_prune_pinned(a, prune_entries):
    """``reduction._quotient_and_prune``: the simulation fixpoint on every
    input but a named co-deterministic one with singleton exits."""
    if a.num_states == 0:
        return a
    if a.state_names is not None and core.is_reverse_deterministic(a):
        return core.trim(a)
    return core.trim(_quotient_pinned(a, *reduction._simulation_classes(a), prune_entries))


def minimize_pinned(a):
    """``cli._minimize``: Hopcroft on every nonempty input, then trim."""
    if a.num_states == 0:
        return a
    return core.trim(_hopcroft_minimize_pinned(a))


def with_duplicate_and_empty_entries(p):
    return core.PortNfa(
        p.alphabet, p.num_states, p.transitions, p.entry_sets + (p.entry_sets[0], frozenset()), p.exit_sets
    )


def automata_and_complements(seed, budget=1024):
    """Seeded plain and port NFAs, each followed by its complements.

    The inputs include port NFAs with a duplicate and an empty entry set and
    automata of 65-90 states.  After each input come its trimmed forward and
    reverse complements and its untrimmed (complete) forward complement, all
    but those that would take more than ``budget`` macrostates.
    """
    rng = random.Random(seed)
    inputs = [random_nfa(rng, max_states=9) for _ in range(60)]
    inputs += [
        random_port_nfa(rng, num_entry=rng.randint(1, 3), num_exit=rng.randint(1, 3)) for _ in range(30)
    ]
    inputs += [with_duplicate_and_empty_entries(random_port_nfa(rng)) for _ in range(10)]
    for _ in range(3):
        inputs.append(random_nfa(rng, max_states=90, min_states=65, max_syms=2))
        p = random_port_nfa(rng, max_states=90, min_states=65, num_entry=3)
        inputs.append(with_duplicate_and_empty_entries(p))
    for a in inputs:
        yield a
        for complement in (
            lambda: powerset._complement(a, powerset.Direction.FORWARD, budget)[0],
            lambda: powerset._complement(a, powerset.Direction.REVERSE, budget)[0],
            lambda: powerset.complement_dfa(powerset.determinize(a, budget=budget)),
        ):
            try:
                yield complement()
            except BudgetExceededError:
                pass


# --- shape facts, transition by transition --------------------------------------


def deterministic_reference(a):
    """One start state per entry set and no two transitions from one state on one symbol."""
    if any(len(s) != 1 for s in a.entry_sets):
        return False
    seen = set()
    for (src, sym, _dst) in a.transitions:
        if (src, sym) in seen:
            return False
        seen.add((src, sym))
    return True


def complete_reference(a):
    return len({(src, sym) for (src, sym, _dst) in a.transitions}) == a.num_states * len(a.alphabet)


def induced_deterministic_reference(a, states):
    seen = set()
    for (src, sym, dst) in a.transitions:
        if src in states and dst in states:
            if (src, sym) in seen:
                return False
            seen.add((src, sym))
    return True


def induced_reverse_deterministic_reference(a, states):
    if len(a.final & states) != 1:
        return False
    seen = set()
    for (src, sym, dst) in a.transitions:
        if src in states and dst in states:
            if (dst, sym) in seen:
                return False
            seen.add((dst, sym))
    return True


def condense_reference(a):
    """A verbatim copy of ``core._condense`` as it was when Tarjan's recursion
    was written out as resume indices and flags."""
    n = a.num_states
    edges = a._edges()
    adj = [[] for _ in range(n)]
    for (src, _sym, dst) in edges:
        adj[src].append(dst)
    adj = [sorted(set(vs)) for vs in adj]

    index = [-1] * n
    low = [0] * n
    on_stack = bytearray(n)
    stack: list[int] = []
    emitted: list[frozenset[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = 1
            descended = False
            for k in range(pi, len(adj[v])):
                w = adj[v][k]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = 0
                    comp.append(w)
                    if w == v:
                        break
                emitted.append(frozenset(comp))
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])

    components = tuple(reversed(emitted))  # Tarjan emits in reverse topological order
    comp_of = {}
    for ci, comp in enumerate(components):
        for q in comp:
            comp_of[q] = ci
    caps: dict[tuple[int, int], int] = {}
    for (src, _sym, dst) in edges:
        ci, cj = comp_of[src], comp_of[dst]
        if ci != cj:
            caps[(ci, cj)] = caps.get((ci, cj), 0) + 1
    edges = tuple(sorted((i, j, c) for (i, j), c in caps.items()))
    return core.SccDag(components, edges)


def min_cut_split_reference(a, dag):
    """A verbatim copy of ``sequential._min_cut_split`` as it was when it ran a
    second residual search after the last augmenting one."""
    m = len(dag.components)
    sink = m - 1
    source = m
    inf = a.num_transitions + 1
    res: dict[tuple[int, int], int] = {}

    def add(u, v, c):
        res[(u, v)] = res.get((u, v), 0) + c

    has_pred = set()
    for (i, j, cap) in dag.edges:
        add(i, j, cap)
        add(j, i, inf)
        has_pred.add(j)
    for i in range(m):
        if i not in has_pred and i != sink:
            add(source, i, inf)

    adj: dict[int, list[int]] = {}
    for (u, v) in res:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for vs in adj.values():
        vs.sort()

    while True:
        # BFS for a shortest augmenting path
        prev = {source: source}
        queue = deque([source])
        while queue and sink not in prev:
            u = queue.popleft()
            for v in adj.get(u, ()):
                if v not in prev and res.get((u, v), 0) > 0:
                    prev[v] = u
                    queue.append(v)
        if sink not in prev:
            break
        bottleneck = inf
        v = sink
        while v != source:
            u = prev[v]
            bottleneck = min(bottleneck, res[(u, v)])
            v = u
        v = sink
        while v != source:
            u = prev[v]
            res[(u, v)] -= bottleneck
            res[(v, u)] = res.get((v, u), 0) + bottleneck
            v = u

    reachable = {source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj.get(u, ()):
            if v not in reachable and res.get((u, v), 0) > 0:
                reachable.add(v)
                queue.append(v)
    front: set[int] = set()
    for i in range(m):
        if i in reachable:
            front |= dag.components[i]
    return [front, set(range(a.num_states)) - front]


def partition_reference(a, strategy):
    """``sequential.partition`` as it was, on ``condense_reference`` and
    ``min_cut_split_reference``, with its three branches on the start of the
    reverse-deterministic bottom."""
    dag = condense_reference(a)
    sccs = list(dag.components)
    if len(sccs) <= 1:
        return sequential.ComponentPartition((tuple(range(a.num_states)),) if a.num_states else ())

    if strategy is sequential.PartitionStrategy.DETERMINISTIC_COMPONENTS:
        groups = sequential._det_component_split(a, sccs)
    elif strategy is sequential.PartitionStrategy.DET_PLUS_REVDET_BOTTOM:
        bottom_start = len(sccs)
        union: set[int] = set()
        # widen the bottom while the union stays reverse-deterministic
        for k in range(len(sccs) - 1, -1, -1):
            candidate = union | sccs[k]
            if sequential._induced_reverse_deterministic(a, candidate):
                union = candidate
                bottom_start = k
            else:
                break
        if bottom_start == 0:
            groups = [set(range(a.num_states))]
        elif bottom_start == len(sccs):
            groups = sequential._det_component_split(a, sccs)
        else:
            groups = sequential._det_component_split(a, sccs[:bottom_start]) + [union]
    else:
        groups = min_cut_split_reference(a, dag)
    return sequential.ComponentPartition(tuple(tuple(sorted(g)) for g in groups))


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


# --- the clean gate side and --minimize, through explicit copies ----------------
# Gate complements a clean side over Σ∖Γ by skipping the gate symbols' rows,
# and Hopcroft refines a partial DFA against a virtual sink; these are the
# routes through throwaway automata that they replace, which must give the
# same automata.


def drop_symbols_reference(a, gamma_ids):
    """A copy of ``a`` over Σ∖Γ; ``a`` must not use the symbols of Γ."""
    keep = [k for k in range(len(a.alphabet)) if k not in gamma_ids]
    assert keep and all(sym not in gamma_ids for (_src, sym, _dst) in a.transitions)
    remap = {old: new for new, old in enumerate(keep)}
    return dataclasses.replace(
        a,
        alphabet=tuple(a.alphabet[k] for k in keep),
        transitions=frozenset((src, remap[sym], dst) for (src, sym, dst) in a.transitions),
    )


def clean_complement_reference(a, gamma_ids, *, budget=None, log=None, side=""):
    """The clean side's smaller complement: drop Γ, build both complements
    over Σ∖Γ in full, keep the smaller (ties forward) and lift it back to Σ.

    A direction that runs out of budget is passed over; when both do, the
    last error is raised.  With ``log`` one entry is appended: ``side``,
    each direction's trimmed size (or ``"budget"``) and the direction chosen.
    """
    keep = [k for k in range(len(a.alphabet)) if k not in gamma_ids]
    dropped = drop_symbols_reference(a, gamma_ids)
    built = {}
    failure = None
    for direction in powerset.Direction:
        try:
            built[direction] = complement_reference(dropped, direction, budget)[0]
        except BudgetExceededError as exc:
            failure = exc
    if not built:
        raise failure
    chosen = min(built, key=lambda d: built[d].num_states)
    if log is not None:
        sizes = {d.value: built[d].num_states if d in built else "budget" for d in powerset.Direction}
        log.append({"side": side, **sizes, "chosen": chosen.value})
    c = built[chosen]
    return dataclasses.replace(
        c,
        alphabet=a.alphabet,
        transitions=frozenset((src, keep[sym], dst) for (src, sym, dst) in c.transitions),
    )


def minimize_by_completion_reference(a):
    """``--minimize`` by an explicit sink: a partial DFA is completed with
    one sink state, minimized, and trimmed; a complete DFA is minimized as it
    is, and an empty one is kept."""
    assert core.is_deterministic(a) or a.num_states == 0
    if a.num_states == 0:
        return a
    if core.is_complete(a):
        return hopcroft_minimize_reference(a)
    sink = a.num_states
    nsyms = len(a.alphabet)
    defined = {(src, sym) for (src, sym, _dst) in a.transitions}
    fill = {(q, sym, sink) for q in range(sink + 1) for sym in range(nsyms) if (q, sym) not in defined}
    names = None if a.state_names is None else core._uniquify(a.state_names + ("sink",))
    completed = dataclasses.replace(a, num_states=sink + 1, transitions=a.transitions | fill, state_names=names)
    return core.trim(hopcroft_minimize_reference(completed))


# --- splits and gate complements, combined and split again ----------------------
# determinize_front, gate's mirrored and stripped splits and gate's complement
# build each part once; these are the routes they replace, which first build
# the whole automaton and then split it (or union its halves), and must give
# the same parts.

# Names that clash with gate's sink s and dispatcher t, with macrostate names
# and with the renamed copies _uniquify makes.
CLASHING_NAMES = ("s", "t", "{0}", "{1}", "{}", "0", "1", "s_2", "{0}_2", "{}_2")


def name_variants(a, rng):
    """``a`` unnamed, with distinct names, and with names that repeat, drawn
    from ``CLASHING_NAMES`` (the distinct ones padded with ``q<k>``)."""
    yield a
    pool = list(CLASHING_NAMES) + [f"q{k}" for k in range(max(0, a.num_states - len(CLASHING_NAMES)))]
    yield dataclasses.replace(a, state_names=rng.sample(pool, a.num_states))
    yield dataclasses.replace(a, state_names=[rng.choice(CLASHING_NAMES) for _ in range(a.num_states)])


def split_parts(p):
    """Everything a split holds: its state ids, its two parts and its transfer."""
    return (p.front_states, p.rear_states, p.front, p.rear, p.transfer)


def determinize_front_reference(p):
    """The determinized front and the rear combined into one automaton, split again."""
    x = powerset._explore_port(p.front, None, directions=(powerset.Direction.FORWARD,))
    det, macros = powerset._build(p.front, x), x.macros
    rear = p.rear
    off = det.num_states
    trans = set(det.transitions)
    trans.update((src + off, sym, dst + off) for (src, sym, dst) in rear.transitions)
    for (x, sym, t) in p.transfer:
        x_local = p.front_index[x]
        trans.update(
            (mi, sym, off + p.rear_index[t]) for mi, mac in enumerate(macros) if mac >> x_local & 1
        )
    combined = rebuild_reference(
        det,
        off + rear.num_states,
        frozenset(trans),
        [d | frozenset(q + off for q in r) for d, r in zip(det.entry_sets, rear.entry_sets)],
        [d | frozenset(q + off for q in r) for d, r in zip(det.exit_sets, rear.exit_sets)],
        core._merged_names(det, rear),
    )
    return core.SequentialPartition.of(combined, range(off))


def front_clean_view_reference(a, p):
    """(source, split): the split of ``a`` that ``p`` mirrors to front-clean,
    cut from ``a``'s reversal when ``p`` is rear-clean."""
    if p.direction is gate.GateDirection.FRONT_CLEAN:
        return a, p.base
    rev = core.reverse(a)
    return rev, core.SequentialPartition.of(rev, p.base.rear_states)


def strip_outer_reference(a, base, *, entries_to_front):
    """(source, split): ``a`` without its rear entries (or front exits), split again."""
    front_set = frozenset(base.front_states)
    if entries_to_front:
        stripped = dataclasses.replace(a, entry_sets=tuple(e & front_set for e in a.entry_sets))
    else:
        stripped = dataclasses.replace(a, exit_sets=tuple(f - front_set for f in a.exit_sets))
    return stripped, core.SequentialPartition.of(stripped, base.front_states)


def _sink_half_reference(c1, gamma, carried, num_exit, loops):
    """C_pre: c1 plus a sink s entered by c1's gate exits."""
    s = c1.num_states
    trans = set(c1.transitions)
    for k, cid in enumerate(gamma):
        trans.update((q, cid, s) for q in c1.exit_sets[len(carried) + k])
    trans.update((s, sym, s) for sym in loops)
    exit_of = dict(zip(carried, c1.exit_sets))
    return rebuild_reference(
        c1,
        s + 1,
        frozenset(trans),
        c1.entry_sets,
        [exit_of.get(j, frozenset()) | {s} for j in range(num_exit)],
        core._uniquify([c1.state_name(q) for q in range(s)] + ["s"]),
    )


def _suffix_half_reference(head, c2, dispatch, gate_start=0):
    """C_suf: the head's states, then c2's, the head entering c2 on ``dispatch``."""
    h = head.num_states
    trans = set(head.transitions)
    trans.update((src + h, sym, dst + h) for (src, sym, dst) in c2.transitions)
    for (x, sym, k) in dispatch:
        trans.update((x, sym, q + h) for q in c2.entry_sets[gate_start + k])

    def shifted(states):
        return frozenset(q + h for q in states)

    entries = [e | shifted(c2.entry_sets[i]) if i < gate_start else e for i, e in enumerate(head.entry_sets)]
    names = [head.state_name(q) for q in range(h)] + [c2.state_name(q) for q in range(c2.num_states)]
    return rebuild_reference(
        c2,
        h + c2.num_states,
        frozenset(trans),
        entries,
        [e | shifted(f) for e, f in zip(head.exit_sets, c2.exit_sets)],
        core._uniquify(names),
    )


def _dispatcher_reference(like, loops, entry_sets, exit_sets):
    return rebuild_reference(like, 1, frozenset((0, sym, 0) for sym in loops), entry_sets, exit_sets, ("t",))


def gate_complement_reference(a, p, *, budget=None):
    """``apply_gate_complement(p)`` for a split ``p`` of ``a``: the stripped
    source split again, and C_pre and C_suf built as two automata and joined
    by ``core.union``."""
    base = p.base
    front_clean = p.direction is gate.GateDirection.FRONT_CLEAN
    if p.needs_intersection:
        stripped_a, stripped = strip_outer_reference(a, base, entries_to_front=front_clean)
        left = gate_complement_reference(
            stripped_a, gate.GatePartition(stripped, p.direction, p.method), budget=budget
        )
        right = gate._smaller_complement(base.rear if front_clean else base.front, budget=budget)
        return core.product_intersection(left, right)
    front = base.front
    gamma = list(base.gate_symbols)
    syms = range(len(a.alphabet))
    clean_syms = [sym for sym in syms if sym not in p.gamma_ids]
    carried = gate._carried_exits(p)
    c1, c2 = gate._component_complements(p, carried, budget=budget)
    c_pre = _sink_half_reference(c1, gamma, carried, front.num_exit, syms if front_clean else clean_syms)
    gate_start = 0 if front_clean else base.rear.num_entry
    if p.method is gate.GateMethod.EQUAL:
        head = _dispatcher_reference(
            c2,
            clean_syms if front_clean else syms,
            [{0}] * front.num_entry,
            [{0} if front_clean and not e else frozenset() for e in front.exit_sets],
        )
        dispatch = [(0, cid, k) for k, cid in enumerate(gamma)]
    else:
        head = dataclasses.replace(front, exit_sets=(frozenset(),) * front.num_exit)
        port = {t: k for k, t in enumerate(base.gate_targets)}
        dispatch = [(base.front_index[x], sym, port[t]) for (x, sym, t) in base.transfer]
    return core.union(c_pre, _suffix_half_reference(head, c2, dispatch, gate_start))


def gate_complement_basic_reference(a1, a2, c, *, budget=None):
    """``gate_complement_basic`` through its two halves and ``core.union``."""
    cid = a1.symbol_ids[c]
    c1 = gate._smaller_complement(a1, budget=budget, skip=frozenset({cid}))
    c2 = gate._smaller_complement(a2, budget=budget)
    syms = range(len(a1.alphabet))
    c_pre = _sink_half_reference(c1, [cid], (), 1, syms)
    t = _dispatcher_reference(c2, [sym for sym in syms if sym != cid], [{0}], [{0}])
    return core.union(c_pre, _suffix_half_reference(t, c2, [(0, cid, 0)]))


def seq_complement_basic_reference(a1, a2, c, *, budget=None):
    """``seq_complement_basic`` through ``core.union``: a1 →c→ a2 built as one
    automaton, split after a1 with ``SequentialPartition.of``."""
    if a1.alphabet != a2.alphabet:
        raise ValueError("components must share one alphabet")
    if len(a1.final) != 1:
        raise ValueError("a1 needs exactly one final state")
    if len(a2.initial) != 1:
        raise ValueError("a2 needs exactly one initial state")
    sym = a1.symbol_ids.get(c)
    if sym is None:
        raise ValueError(f"symbol {c!r} not in the alphabet")
    u = core.union(a1, a2)
    (qf,) = a1.final
    (qi,) = a2.initial
    combined = dataclasses.replace(
        u,
        transitions=u.transitions | {(qf, sym, qi + a1.num_states)},
        initial=a1.initial,
        final=u.final - a1.final,
    )
    part = sequential.determinize_front(core.SequentialPartition.of(combined, range(a1.num_states)), budget=budget)
    c2 = powerset.reverse_complement(part.rear_for_targets(), budget=budget)
    return sequential.seq_complement_generalized(part, c2, budget=budget).slice(0, 0)


# --- the file parser, one regex match per token --------------------------------
# The library splits each line with str.split and computes a token's column
# only for an error; this is the parser as it was before, which tokenizes every
# line with a regex and keeps each token's column, and must give the same
# automaton or the same ParseError.

_TOKEN = re.compile(r"\S+")


def _tokenize(line: str) -> list[tuple[str, int]]:
    """Split one line into (token, 1-based column) pairs, dropping comments."""
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    return [(m.group(), m.start() + 1) for m in _TOKEN.finditer(line)]


class _StateTable:
    def __init__(self):
        self.ids: dict[str, int] = {}
        self.names: list[str] = []

    def intern(self, token: str) -> int:
        q = self.ids.get(token)
        if q is None:
            q = len(self.names)
            self.ids[token] = q
            self.names.append(token)
        return q


def parse_reference(text):
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(f"file is not valid UTF-8 ({e.reason})", 1, 1) from None

    kind = None
    name = None
    alphabet: list[str] | None = None
    alphabet_ids: dict[str, int] = {}
    initial: frozenset[int] | None = None
    final: frozenset[int] | None = None
    entries: dict[int, frozenset[int]] = {}
    exits: dict[int, frozenset[int]] = {}
    port_lines: dict[tuple[str, int], int] = {}
    states = _StateTable()
    transitions: list[tuple[int, int, int]] = []

    def state_list(tokens):
        return frozenset(states.intern(tok) for tok, _ in tokens)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw)
        if not tokens:
            continue
        head, col = tokens[0]

        if kind is None:
            if head not in ("@NFA", "@PortNFA"):
                raise ParseError("expected @NFA or @PortNFA header", lineno, col)
            if len(tokens) != 2:
                raise ParseError(f"{head} header takes exactly one name", lineno, col)
            kind = head
            name = tokens[1][0]
            continue

        if head in ("@NFA", "@PortNFA"):
            raise ParseError("duplicate header", lineno, col)

        if head == "%Alphabet":
            if alphabet is not None:
                raise ParseError("duplicate %Alphabet", lineno, col)
            if len(tokens) < 2:
                raise ParseError("%Alphabet needs at least one symbol", lineno, col)
            alphabet = []
            for tok, tcol in tokens[1:]:
                if tok in alphabet_ids:
                    raise ParseError(f"duplicate symbol {tok!r} in %Alphabet", lineno, tcol)
                alphabet_ids[tok] = len(alphabet)
                alphabet.append(tok)
            continue

        if head in ("%Initial", "%Final"):
            if kind != "@NFA":
                raise ParseError(f"{head} is only valid in an @NFA file", lineno, col)
            if head == "%Initial":
                if initial is not None:
                    raise ParseError("duplicate %Initial", lineno, col)
                initial = state_list(tokens[1:])
            else:
                if final is not None:
                    raise ParseError("duplicate %Final", lineno, col)
                final = state_list(tokens[1:])
            continue

        if head in ("%Entry", "%Exit"):
            if kind != "@PortNFA":
                raise ParseError(f"{head} is only valid in a @PortNFA file", lineno, col)
            if len(tokens) < 2:
                raise ParseError(f"{head} needs a port index", lineno, col)
            idx_tok, idx_col = tokens[1]
            try:
                idx = int(idx_tok)
            except ValueError:
                raise ParseError(f"port index {idx_tok!r} is not an integer", lineno, idx_col) from None
            if idx < 0:
                raise ParseError("port index must be nonnegative", lineno, idx_col)
            table = entries if head == "%Entry" else exits
            if idx in table:
                raise ParseError(f"duplicate {head} {idx}", lineno, idx_col)
            table[idx] = state_list(tokens[2:])
            port_lines[(head, idx)] = lineno
            continue

        if head.startswith("%"):
            raise ParseError(f"unknown directive {head}", lineno, col)

        # Anything else must be a transition line.
        if len(tokens) != 3:
            raise ParseError("transition line needs exactly <src> <symbol> <dst>", lineno, col)
        if alphabet is None:
            raise ParseError("transition before %Alphabet", lineno, col)
        (src_tok, _), (sym_tok, sym_col), (dst_tok, _) = tokens
        sym = alphabet_ids.get(sym_tok)
        if sym is None:
            raise ParseError(f"unknown symbol {sym_tok!r}", lineno, sym_col)
        transitions.append((states.intern(src_tok), sym, states.intern(dst_tok)))

    if kind is None:
        raise ParseError("empty file: expected @NFA or @PortNFA header", 1, 1)
    if alphabet is None:
        raise ParseError("missing %Alphabet", 1, 1)

    if kind == "@NFA":
        return core.Nfa(
            tuple(alphabet),
            len(states.names),
            frozenset(transitions),
            initial if initial is not None else frozenset(),
            final if final is not None else frozenset(),
            state_names=tuple(states.names) or None,
            name=name,
        )

    for label, table in (("%Entry", entries), ("%Exit", exits)):
        if not table:
            raise ParseError(f"port automaton needs at least one {label} line", 1, 1)
        top = max(table)
        # Distinct nonnegative keys are contiguous iff the largest is len - 1;
        # otherwise some index below len(table) is missing.
        if top != len(table) - 1:
            missing = next(i for i in range(len(table)) if i not in table)
            raise ParseError(
                f"{label} indices must be contiguous from 0 (missing {missing})",
                port_lines[(label, top)],
                1,
            )
    return core.PortNfa(
        tuple(alphabet),
        len(states.names),
        frozenset(transitions),
        tuple(entries[i] for i in range(len(entries))),
        tuple(exits[j] for j in range(len(exits))),
        state_names=tuple(states.names) or None,
        name=name,
    )


# --- the file writer, one sort over every transition ---------------------------
# ``fileformat.serialize`` writes each state's row in name-rank order and checks
# the display names on their joined text; this is the writer as it was before,
# which sorts all transitions on their name keys and checks each name with a
# regex, and must give the same text or the same ValueError.


def _safe_token_reference(tok: str) -> bool:
    return bool(tok) and not tok[0] in "@%" and "#" not in tok and _TOKEN.fullmatch(tok) is not None


def _display_names_reference(a) -> list[str]:
    names = a.state_names
    if names is not None and len(set(names)) == len(names) and all(map(_safe_token_reference, names)):
        return list(names)
    return [str(q) for q in range(a.num_states)]


def serialize_reference(a) -> str:
    for sym in a.alphabet:
        if not _safe_token_reference(sym):
            raise ValueError(f"alphabet symbol {sym!r} cannot be written to a file")
    mentioned = set()
    for src, _sym, dst in a.transitions:
        mentioned.add(src)
        mentioned.add(dst)
    if isinstance(a, core.Nfa):
        mentioned |= a.initial | a.final
    else:
        for s in a.entry_sets + a.exit_sets:
            mentioned |= s
    if len(mentioned) != a.num_states:
        raise ValueError(
            "automaton has states that appear in no transition or state set; "
            "trim it before serializing"
        )
    names = _display_names_reference(a)
    title = a.name if a.name is not None and _safe_token_reference(a.name) else "a"

    def state_set(s):
        return " ".join(sorted(names[q] for q in s))

    lines = []
    if isinstance(a, core.Nfa):
        lines.append(f"@NFA {title}")
        lines.append("%Alphabet " + " ".join(a.alphabet))
        lines.append(("%Initial " + state_set(a.initial)).rstrip())
        lines.append(("%Final " + state_set(a.final)).rstrip())
    else:
        lines.append(f"@PortNFA {title}")
        lines.append("%Alphabet " + " ".join(a.alphabet))
        for i, s in enumerate(a.entry_sets):
            lines.append((f"%Entry {i} " + state_set(s)).rstrip())
        for j, s in enumerate(a.exit_sets):
            lines.append((f"%Exit {j} " + state_set(s)).rstrip())
    for src, sym, dst in sorted(a.transitions, key=lambda t: (names[t[0]], t[1], names[t[2]])):
        lines.append(f"{names[src]} {a.alphabet[sym]} {names[dst]}")
    return "\n".join(lines) + "\n"


# --- derived automata, each a full build ----------------------------------------
# Slices, port variants and renames of an automaton were once built through a
# constructor or a dataclasses.replace copy, which validates every transition
# again and drops the cached tables; these are those routes.  The library's
# derivations must build the same automata.


def slice_reference(a, i, j):
    """``a.slice(i, j)`` through the ``Nfa`` constructor."""
    if not (0 <= i < a.num_entry):
        raise IndexError(f"entry port index {i} out of range")
    if not (0 <= j < a.num_exit):
        raise IndexError(f"exit port index {j} out of range")
    return core.Nfa(
        a.alphabet, a.num_states, a.transitions, a.entry_sets[i], a.exit_sets[j], state_names=a.state_names
    )


def as_port_reference(a):
    """``a.as_port()`` through the ``PortNfa`` constructor."""
    return core.PortNfa(
        a.alphabet, a.num_states, a.transitions, (a.initial,), (a.final,), state_names=a.state_names, name=a.name
    )


def induced_reference(a, keep):
    """``core.induced`` through ``rebuild_reference``: the renumbered moves of the
    spelled-out transition set, validated again."""
    keep = sorted(set(keep))
    remap = {q: i for i, q in enumerate(keep)}
    return rebuild_reference(
        a,
        len(keep),
        frozenset(
            (remap[src], sym, remap[dst])
            for (src, sym, dst) in a.transitions
            if src in remap and dst in remap
        ),
        [frozenset(remap[q] for q in s if q in remap) for s in a.entry_sets],
        [frozenset(remap[q] for q in s if q in remap) for s in a.exit_sets],
        tuple(a.state_name(q) for q in keep) if a.state_names is not None else None,
        name=a.name,
    )


def trim_reference(a):
    """``core.trim`` over the spelled-out transition set, through ``induced_reference``."""
    fwd = [[] for _ in range(a.num_states)]
    bwd = [[] for _ in range(a.num_states)]
    for (src, _sym, dst) in a.transitions:
        fwd[src].append(dst)
        bwd[dst].append(src)
    keep = core._closure(frozenset().union(*a.entry_sets), fwd) & core._closure(frozenset().union(*a.exit_sets), bwd)
    return a if len(keep) == a.num_states else induced_reference(a, keep)


def rear_for_targets_reference(p):
    ri = p.rear_index
    extra = tuple(frozenset({ri[t]}) for t in p.gate_targets)
    return dataclasses.replace(p.rear, entry_sets=p.rear.entry_sets + extra)


def rear_for_equal_reference(p):
    ri = p.rear_index
    extra = tuple(frozenset(ri[t] for (_x, s, t) in p.transfer if s == sym) for sym in p.gate_symbols)
    return dataclasses.replace(p.rear, entry_sets=p.rear.entry_sets + extra)


def complement_dfa_reference(d):
    dfa = d.nfa if isinstance(d, powerset.MacrostateDfa) else d
    if not core.is_deterministic(dfa) or not core.is_complete(dfa):
        raise ValueError("complement_dfa needs a deterministic, complete automaton")
    return dataclasses.replace(dfa, final=frozenset(range(dfa.num_states)) - dfa.final)


def component_inputs_reference(p, carried):
    """(c1_in, c2_in): the front and the rear that ``gate._component_complements`` complements."""
    base = p.base
    front = base.front
    c1_in = dataclasses.replace(
        front,
        exit_sets=tuple(front.exit_sets[j] for j in carried) + base.inner_exit_ports_front,
    )
    if p.method is gate.GateMethod.EQUAL:
        c2_in = rear_for_equal_reference(base)
    else:
        c2_in = rear_for_targets_reference(base)
    if p.direction is gate.GateDirection.FRONT_CLEAN:
        c2_in = dataclasses.replace(c2_in, entry_sets=c2_in.entry_sets[base.rear.num_entry :])
    return c1_in, c2_in


def prefix_language_reference(base, i, finals):
    return dataclasses.replace(slice_reference(base.front, i, 0), final=finals)


def suffix_language_reference(base, starts, j):
    return dataclasses.replace(slice_reference(base.rear, 0, j), initial=starts)


def renamed_reference(a, name):
    """``a`` under another name, as a shallow copy with its name set."""
    out = copy.copy(a)
    object.__setattr__(out, "name", name)
    return out


def _written(a):
    """``serialize(a)``, or the text of the ``ValueError`` it raises."""
    try:
        return fileformat.serialize(a)
    except ValueError as exc:
        return f"ValueError: {exc}"


def assert_same_build(got, want):
    """``got`` is the automaton ``want`` is: class, fields, the written file (or
    the error writing it) and the name."""
    assert type(got) is type(want)
    assert got == want
    assert _written(got) == _written(want)
    assert got.name == want.name


def count_validations(monkeypatch) -> list[str]:
    """Log the class name of every automaton validated from now on.

    A full validation, by the constructor (``_normalize_and_check``), logs
    ``"Nfa"`` or ``"PortNfa"``.  A view (``core._view``), which checks only
    its port sets and names, logs ``"view:Nfa"`` or ``"view:PortNfa"``, and so
    does a build the library numbered itself (``core._derived``: the powerset
    tables, ``reverse``, ``union``, ``induced`` and ``trim``, gate's assembly,
    the quotients, compositions and products), as ``"derived:Nfa"`` or
    ``"derived:PortNfa"``."""
    calls = []
    check = core._Automaton._normalize_and_check

    def counted(self):
        calls.append(type(self).__name__)
        check(self)

    monkeypatch.setattr(core._Automaton, "_normalize_and_check", counted)
    for name, tag in (("_view", "view"), ("_derived", "derived")):
        def counted_build(*args, build=getattr(core, name), tag=tag, **kwargs):
            out = build(*args, **kwargs)
            calls.append(f"{tag}:{type(out).__name__}")
            return out

        monkeypatch.setattr(core, name, counted_build)
    return calls
