"""Pure-Python kernels over bitmask-encoded automata.

Every kernel works on a flat encoding that :mod:`nfacomp.core` builds once
per automaton and caches on it:

* states are ``0 .. nstates-1``,
* ``succ`` is a flat list of length ``nsyms * nstates`` where entry
  ``sym * nstates + q`` is the bitmask of successors of ``q`` under ``sym``
  (``succ_masks``); the predecessor table ``pred_masks`` has the same
  layout, and a kernel given it in place of ``succ`` runs on the reversed
  automaton (the reverse powerset, and the simulation pass's images),
* state sets (initial, final, macrostates) are plain ints used as bitmasks.

``SubsetExploration`` (run in steps by ``powerset._explore_port``) and the
general path of ``antichain_included`` compute a state set's subset images
(the union of its states' successors under each symbol) one byte of the set
at a time, under every symbol at once: one table per byte position, whose
entry for a byte value packs the images under all symbols into one int
(``_packed_tables``).  The tables are filled on demand, so a call pays only
for the byte values its state sets actually contain.  The pair search of
:mod:`nfacomp.oracle` and the simulation fixpoint of :mod:`nfacomp.reduction`
use them too.

``antichain_included`` takes one of two paths.  Against a deterministic
``b`` (at most one initial state, at most one successor per state and
symbol) every macrostate is one state or none, and ``_included_in_dfa``
searches the pairs (a-state, b-state or none) directly: a bitmask of kept
b-states per a-state, and each successor read straight from ``succ``, with
no byte split.  Otherwise the general search keeps a plain list of the
subset-minimal macrostates of ``b`` per a-state, with no index: the long
frontiers, where one would pay, are a deterministic ``b``'s.  Both paths keep
the same frontier in the same queue order, so verdict and expansion count agree.

These are the package's only implementation of the kernels;
:mod:`nfacomp._kernels` re-exports them.
"""

from __future__ import annotations

import sys
from collections import deque


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _PackedImages(dict):
    """One byte position's images under every symbol at once, per byte value, filled on demand."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        super().__init__()
        self.rows = rows

    def __missing__(self, byte):
        rows = self.rows
        img = 0
        bits = byte
        while bits:
            low = bits & -bits
            img |= rows[low.bit_length() - 1]
            bits ^= low
        self[byte] = img
        return img


def _packed_tables(nstates, nsyms, succ):
    """The packed image tables of ``succ``, one per byte position of a state set.

    The packed row of state ``q`` holds its successors under every symbol,
    those under ``sym`` shifted up by ``sym * nstates``.  Entry ``b`` of table
    ``c`` is the union of the rows of the states ``8c + i`` over the set bits
    ``i`` of ``b``.  A set's packed image is the union of its nonzero bytes'
    entries (``_packed_image``), and its image under ``sym`` is the packed
    image shifted down by ``sym * nstates``, masked to ``nstates`` bits.
    """
    packed = [0] * nstates
    for sym in range(nsyms):
        shift = sym * nstates
        for q in range(nstates):
            packed[q] |= succ[shift + q] << shift
    return [_PackedImages(packed[c : c + 8]) for c in range(0, nstates, 8)]


def _packed_image(tables, mask):
    """The packed image of the state set ``mask`` under the tables of ``_packed_tables``."""
    img = 0
    for table, byte in zip(tables, mask.to_bytes(len(tables), "little")):
        if byte:
            img |= table[byte]
    return img


class SubsetExploration:
    """A breadth-first powerset exploration from the macrostates in ``seeds``, run in steps.

    The distinct seeds are interned first, in the given order, so the i-th
    distinct seed gets index i.  ``macros`` lists the discovered macrostate
    bitmasks in that order, and ``delta`` is the flat transition table
    ``delta[i * nsyms + sym] -> macro index`` of those expanded so far.  Every
    macrostate gets a successor for every symbol, so the empty macrostate
    shows up exactly when some transition is missing in the source.  At most
    ``budget`` macrostates, seeds included, are ever materialized.
    """

    __slots__ = ("macros", "delta", "_index", "_head", "_room", "_tables", "_split")

    def __init__(self, nstates, nsyms, succ, seeds, budget=None):
        macros, index, room, head = [], {}, sys.maxsize if budget is None else budget, 0
        for seed in seeds:
            if seed not in index:
                if len(macros) >= room:
                    head = None  # over budget, for good
                    break
                index[seed] = len(macros)
                macros.append(seed)
        self.macros, self.delta, self._index, self._room, self._head = macros, [], index, room, head
        self._tables = _packed_tables(nstates, nsyms, succ)
        # how a macrostate splits into bytes, and its packed image into one per symbol
        self._split = ((nstates + 7) >> 3, [sym * nstates for sym in range(nsyms)], (1 << nstates) - 1)

    def advance(self, limit=None):
        """Expand macrostates in order until ``limit`` are discovered (one
        expansion may pass it by fewer than ``nsyms``) or none is left: True
        once complete, False when stopped at ``limit`` (a later call resumes),
        None from the moment the budget would be exceeded."""
        head = self._head
        if head is None:
            return None
        macros, delta, index, room = self.macros, self.delta, self._index, self._room
        tables, (nbytes, shifts, full) = self._tables, self._split
        stop = sys.maxsize if limit is None else limit
        while head < len(macros) < stop:
            img = 0
            for table, byte in zip(tables, macros[head].to_bytes(nbytes, "little")):
                if byte:
                    img |= table[byte]
            head += 1
            for shift in shifts:
                nxt = img >> shift & full
                j = index.get(nxt)
                if j is None:
                    j = len(macros)
                    if j >= room:
                        self._head = None
                        return None
                    index[nxt] = j
                    macros.append(nxt)
                delta.append(j)
        self._head = head
        if head == len(macros):
            self._index = self._tables = None  # only expansion reads them: free them before the caller builds
        return head == len(macros)


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

    Each a-state's kept masks are one list, scanned whole on every offer: a
    kept subset rejects the offered mask, and kept supersets give way to it.
    A deterministic ``b`` (``init_b`` and every row of ``succ_b`` hold at
    most one bit), whose long frontiers of one-state masks are where an index
    would pay, runs in ``_included_in_dfa`` instead, with the same frontier
    as plain bitmasks and so the same expansions in the same order.
    """
    if not init_b & (init_b - 1) and all(not m & (m - 1) for m in succ_b):
        return _included_in_dfa(
            nsyms, nstates_a, succ_a, init_a, final_a, nstates_b, succ_b, init_b, final_b, budget
        )
    frontier = {}  # a-state -> its subset-minimal b-masks
    queue = deque()

    def offer(p, s):
        kept = frontier.setdefault(p, [])
        for old in kept:
            if old & s == old:  # old subseteq s: dominated, skip
                return
        for old in kept:
            if old & s == s:  # a kept superset of s: drop every one
                kept[:] = [old for old in kept if old & s != s]
                break
        kept.append(s)
        queue.append((p, s))

    for p in _bits(init_a):
        if (final_a >> p) & 1 and not (init_b & final_b):
            return 0
        offer(p, init_b)

    tables_b, full_b = _packed_tables(nstates_b, nsyms, succ_b), (1 << nstates_b) - 1
    expansions = 0
    while queue:
        p, s = queue.popleft()
        if s not in frontier[p]:  # superseded by a smaller set
            continue
        expansions += 1
        if budget is not None and expansions > budget:
            return -1
        img = _packed_image(tables_b, s)
        for sym in range(nsyms):
            targets_a = succ_a[sym * nstates_a + p]
            if not targets_a:
                continue
            s2 = img >> sym * nstates_b & full_b
            for p2 in _bits(targets_a):
                if (final_a >> p2) & 1 and not (s2 & final_b):
                    return 0
                offer(p2, s2)
    return 1


def _included_in_dfa(
    nsyms, nstates_a, succ_a, init_a, final_a, nstates_b, succ_b, init_b, final_b, budget
):
    """``antichain_included`` against a deterministic ``b``.

    Every macrostate is a singleton ``{q}`` or empty.  Distinct singletons
    never dominate each other and the empty set dominates everything, so an
    a-state's frontier is either the singletons kept so far, held as one
    bitmask in ``kept``, or the empty set alone once it has been offered
    (``empty``).  A queued singleton whose a-state has since kept the empty
    set is superseded and skipped when popped, as in the general search.
    """
    # Per a-state, its moves: the offset of the symbol's row in succ_b, and
    # each successor with whether it is final.
    moves = [[] for _ in range(nstates_a)]
    for sym in range(nsyms):
        for p in range(nstates_a):
            targets = succ_a[sym * nstates_a + p]
            if targets:
                moves[p].append((sym * nstates_b, [(p2, (final_a >> p2) & 1) for p2 in _bits(targets)]))
    kept = [0] * nstates_a
    empty = bytearray(nstates_a)
    queue = deque()
    for p in _bits(init_a):  # each a-state is offered init_b once, on an empty frontier
        if (final_a >> p) & 1 and not (init_b & final_b):
            return 0
        kept[p] = init_b
        empty[p] = not init_b
        queue.append((p, init_b))

    expansions = 0
    while queue:
        p, s = queue.popleft()
        if s and empty[p]:  # superseded by the empty set
            continue
        expansions += 1
        if budget is not None and expansions > budget:
            return -1
        q = s.bit_length() - 1
        for row, targets in moves[p]:
            s2 = succ_b[row + q] if s else 0
            for p2, accepting in targets:
                if accepting and not (s2 & final_b):
                    return 0
                if empty[p2] or kept[p2] & s2:
                    continue
                if s2:
                    kept[p2] |= s2
                else:
                    empty[p2] = 1
                queue.append((p2, s2))
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
