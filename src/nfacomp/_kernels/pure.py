"""Pure-Python kernels over bitmask-encoded automata.

Every kernel works on a flat encoding that the callers in :mod:`nfacomp.core`
and :mod:`nfacomp.powerset` produce once per automaton:

* states are ``0 .. nstates-1``,
* ``succ`` is a flat list of length ``nsyms * nstates`` where entry
  ``sym * nstates + q`` is the bitmask of successors of ``q`` under ``sym``,
* state sets (initial, final, macrostates) are plain ints used as bitmasks.

``explore_subsets`` and ``antichain_included`` compute the subset image of a
state set (the union of its states' successors under one symbol) one byte
of the set at a time: per symbol, a table keyed ``c * 256 + b`` holds the
image of the states ``8c + i`` for the set bits ``i`` of the byte value
``b``.  The tables are filled on demand, so a call pays only for the byte
values its state sets actually contain.  The pair search of
:mod:`nfacomp.oracle` uses the same tables through ``_image_tables``.

``antichain_included`` files the subset-minimal macrostates of ``b`` that it
keeps per state of ``a`` into buckets keyed by each mask's lowest set bit.
An offered macrostate is compared only with the buckets whose key it
contains, and swept for kept supersets only when the union of every mask
that a-state has kept covers it; against a deterministic ``b`` an offer is
then O(1), not O(|b|).

These three functions are the package's only implementation of the kernels;
:mod:`nfacomp._kernels` re-exports them.
"""

from __future__ import annotations

from collections import deque


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _ByteImages(dict):
    """Subset images under one symbol, per byte of the state set, filled on demand."""

    __slots__ = ("row",)

    def __init__(self, row):
        super().__init__()
        self.row = row

    def __missing__(self, key):
        base = (key >> 8) << 3
        byte = key & 255
        row = self.row
        img = 0
        while byte:
            low = byte & -byte
            img |= row[base + low.bit_length() - 1]
            byte ^= low
        self[key] = img
        return img


def _byte_keys(nstates):
    """A function from a mask over ``nstates`` states to its byte keys.

    Byte ``c`` of the mask with the nonzero value ``b`` gives the key
    ``c * 256 + b``; zero bytes give none.
    """
    nbytes = (nstates + 7) >> 3
    chunks = range(0, nbytes << 8, 256)

    def keys_of(mask):
        return [c + b for c, b in zip(chunks, mask.to_bytes(nbytes, "little")) if b]

    return keys_of


def _image_tables(nstates, nsyms, succ):
    """The per-symbol subset-image tables, and the key function for their masks.

    The image of a mask under a symbol is the union of that symbol's table
    entries over the mask's keys.
    """
    tables = [_ByteImages(succ[sym * nstates : (sym + 1) * nstates]) for sym in range(nsyms)]
    return tables, _byte_keys(nstates)


def explore_subsets(nstates, nsyms, succ, seeds, budget=None):
    """Breadth-first powerset exploration from the macrostates in ``seeds``.

    The distinct seeds are interned first, in the given order, so the i-th
    distinct seed gets index i; the breadth-first search then continues from
    them.  Returns ``(macros, delta)`` where ``macros`` is the list of
    discovered macrostate bitmasks in that order and ``delta`` is the flat
    transition table ``delta[i * nsyms + sym] -> macro index``.  The
    exploration is complete: every macrostate gets a successor for every
    symbol, so the empty macrostate shows up exactly when some transition is
    missing in the source.  Returns ``None`` if more than ``budget``
    macrostates, seeds included, would be materialized.
    """
    index = {}
    macros = []
    for seed in seeds:
        if seed not in index:
            if budget is not None and len(macros) >= budget:
                return None
            index[seed] = len(macros)
            macros.append(seed)
    tables, keys_of = _image_tables(nstates, nsyms, succ)
    delta = []
    head = 0
    while head < len(macros):
        keys = keys_of(macros[head])
        head += 1
        for table in tables:
            nxt = 0
            for key in keys:
                nxt |= table[key]
            j = index.get(nxt)
            if j is None:
                if budget is not None and len(macros) >= budget:
                    return None
                j = len(macros)
                index[nxt] = j
                macros.append(nxt)
            delta.append(j)
    return macros, delta


def antichain_included(
    nsyms,
    nstates_a,
    succ_a,
    init_a,
    final_a,
    nstates_b,
    succ_b,
    init_b,
    final_b,
    budget=None,
):
    """Antichain-based language inclusion check: L(a) <= L(b).

    Explores pairs (state of a, macrostate of b), keeping per a-state only the
    subset-minimal macrostates — a pair dominated by one with a smaller b-set
    can only fail later, so it never needs its own expansion.  Returns 1 when
    the inclusion holds, 0 with certainty when it does not, and -1 when the
    expansion budget runs out first.

    Each a-state's frontier is indexed so that an offer does not scan every
    kept macrostate.  The kept masks sit in buckets keyed by their lowest set
    bit, the empty mask under key 0.  A kept subset of ``s`` has its lowest
    state in ``s``, so the domination test looks only in the buckets whose
    key lies in ``s``; a kept superset has its lowest state at or below that
    of ``s``, and the sweep that drops supersets runs only when ``s`` lies
    inside the OR of every mask the a-state has kept.  Against a
    deterministic ``b`` every macrostate is a singleton and an offer costs
    O(1) rather than O(|b|).  The frontier's contents, and so the queue and
    the expansion count, are those of a plain list scan.
    """
    frontier = {}  # a-state -> [kept masks, buckets, OR of bucket keys, OR of masks ever kept]
    queue = deque()

    def offer(p, s):
        low = s & -s
        f = frontier.get(p)
        if f is None:
            f = frontier[p] = [set(), {}, 0, 0]
        kept, buckets, lows, cover = f
        if s in kept or 0 in kept:  # the empty mask is a subset of every mask
            return
        hits = lows & s
        while hits:
            key = hits & -hits
            for old in buckets[key]:
                if old & s == old:  # old subseteq s: dominated, skip
                    return
            hits ^= key
        if s & cover == s:  # some kept mask may be a superset of s: drop those
            hits = lows & ((low << 1) - 1)  # every bucket when s is empty
            while hits:
                key = hits & -hits
                bucket = buckets[key]
                stay = [old for old in bucket if old & s != s]
                if len(stay) < len(bucket):
                    kept.difference_update(old for old in bucket if old & s == s)
                    if stay:
                        buckets[key] = stay
                    else:
                        del buckets[key]
                        lows ^= key
                hits ^= key
        kept.add(s)
        buckets.setdefault(low, []).append(s)
        f[2] = lows | low
        f[3] = cover | s
        queue.append((p, s))

    for p in _bits(init_a):
        if (final_a >> p) & 1 and not (init_b & final_b):
            return 0
        offer(p, init_b)

    tables_b, keys_of = _image_tables(nstates_b, nsyms, succ_b)
    expansions = 0
    while queue:
        p, s = queue.popleft()
        if s not in frontier[p][0]:  # superseded by a smaller set
            continue
        expansions += 1
        if budget is not None and expansions > budget:
            return -1
        keys = keys_of(s)
        for sym, table in enumerate(tables_b):
            targets_a = succ_a[sym * nstates_a + p]
            if not targets_a:
                continue
            s2 = 0
            for key in keys:
                s2 |= table[key]
            for p2 in _bits(targets_a):
                if (final_a >> p2) & 1 and not (s2 & final_b):
                    return 0
                offer(p2, s2)
    return 1


def product_nonempty(
    nsyms,
    nstates_a,
    succ_a,
    init_a,
    final_a,
    nstates_b,
    succ_b,
    init_b,
    final_b,
):
    """True iff the synchronized product of the two automata accepts a word."""
    if nstates_a == 0 or nstates_b == 0:
        return False
    seen = bytearray(nstates_a * nstates_b)
    queue = deque()
    for pa in _bits(init_a):
        for pb in _bits(init_b):
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
            for qa in _bits(ta):
                qa_final = (final_a >> qa) & 1
                for qb in _bits(tb):
                    if seen[qa * nstates_b + qb]:
                        continue
                    if qa_final and (final_b >> qb) & 1:
                        return True
                    seen[qa * nstates_b + qb] = 1
                    queue.append((qa, qb))
    return False
