"""Automata for the benchmark's own checks, written without nfacomp.

An ``Aut`` stores bitmask tables: ``succ[sym][q]`` is the successor set of
state ``q`` under symbol index ``sym``, and ``entries`` / ``exits`` hold one
bitmask per port.  A plain ``@NFA`` has one entry (its initial states) and
one exit (its final states); a ``@PortNFA`` has one per ``%Entry`` /
``%Exit`` line.  Slice ``(i, j)`` of an automaton is the NFA that starts in
``entries[i]`` and accepts in ``exits[j]``.
"""

from __future__ import annotations

from dataclasses import dataclass


def bits(mask: int):
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


@dataclass
class Aut:
    alphabet: tuple[str, ...]
    n: int
    succ: list[list[int]]
    entries: list[int]
    exits: list[int]
    port: bool = False

    @property
    def num_transitions(self) -> int:
        return sum(m.bit_count() for row in self.succ for m in row)

    def step(self, mask: int, sym: int) -> int:
        row = self.succ[sym]
        out = 0
        for q in bits(mask):
            out |= row[q]
        return out


def new_aut(alphabet, n: int, transitions, entries, exits, *, port=False) -> Aut:
    """Build from (src, symbol index, dst) triples and lists of state sets."""
    succ = [[0] * n for _ in alphabet]
    for (src, sym, dst) in transitions:
        succ[sym][src] |= 1 << dst
    mask = lambda states: sum(1 << q for q in set(states))  # noqa: E731
    return Aut(tuple(alphabet), n, succ, [mask(s) for s in entries], [mask(s) for s in exits], port)


def read(text: str) -> Aut:
    """Parse the line-oriented automaton format; raises ValueError when malformed."""
    header = None
    alphabet: list[str] | None = None
    ids: dict[str, int] = {}
    sets: dict[tuple[str, int], list[int]] = {}
    trans = []

    def state(tok):
        return ids.setdefault(tok, len(ids))

    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        head = tokens[0]
        if header is None:
            if head not in ("@NFA", "@PortNFA") or len(tokens) != 2:
                raise ValueError(f"bad header line {raw!r}")
            header = head
        elif head == "%Alphabet":
            if alphabet is not None or len(tokens) < 2:
                raise ValueError("bad %Alphabet line")
            alphabet = tokens[1:]
        elif head in ("%Initial", "%Final"):
            if header != "@NFA" or (head, 0) in sets:
                raise ValueError(f"unexpected {head} line")
            sets[(head, 0)] = [state(t) for t in tokens[1:]]
        elif head in ("%Entry", "%Exit"):
            if header != "@PortNFA" or len(tokens) < 2:
                raise ValueError(f"unexpected {head} line")
            key = (head, int(tokens[1]))
            if key in sets:
                raise ValueError(f"duplicate {head} {key[1]}")
            sets[key] = [state(t) for t in tokens[2:]]
        elif len(tokens) == 3 and alphabet is not None and tokens[1] in alphabet:
            trans.append((state(tokens[0]), alphabet.index(tokens[1]), state(tokens[2])))
        else:
            raise ValueError(f"bad line {raw!r}")
    if header is None or alphabet is None:
        raise ValueError("missing header or alphabet")
    if header == "@NFA":
        entries = [sets.get(("%Initial", 0), [])]
        exits = [sets.get(("%Final", 0), [])]
    else:
        entries = _indexed(sets, "%Entry")
        exits = _indexed(sets, "%Exit")
    return new_aut(alphabet, len(ids), trans, entries, exits, port=header == "@PortNFA")


def _indexed(sets, head) -> list[list[int]]:
    idx = sorted(i for (h, i) in sets if h == head)
    if not idx or idx != list(range(len(idx))):
        raise ValueError(f"{head} indices must run 0..k")
    return [sets[(head, i)] for i in idx]


def write(a: Aut, name: str) -> str:
    """Render in the file format; states are named q0, q1, ... by index."""
    lines = [f"@{'PortNFA' if a.port else 'NFA'} {name}", "%Alphabet " + " ".join(a.alphabet)]
    names = lambda mask: "".join(f" q{q}" for q in bits(mask))  # noqa: E731
    if a.port:
        lines += [f"%Entry {i}{names(m)}" for i, m in enumerate(a.entries)]
        lines += [f"%Exit {j}{names(m)}" for j, m in enumerate(a.exits)]
    else:
        lines += [f"%Initial{names(a.entries[0])}", f"%Final{names(a.exits[0])}"]
    for q in range(a.n):
        for sym, row in enumerate(a.succ):
            lines += [f"q{q} {a.alphabet[sym]} q{d}" for d in bits(row[q])]
    return "\n".join(lines) + "\n"


def reverse(a: Aut) -> Aut:
    succ = [[0] * a.n for _ in a.alphabet]
    for sym, row in enumerate(a.succ):
        for q in range(a.n):
            for d in bits(row[q]):
                succ[sym][d] |= 1 << q
    return Aut(a.alphabet, a.n, succ, list(a.exits), list(a.entries), a.port)


def is_deterministic(a: Aut) -> bool:
    """At most one start state per entry port and one successor per symbol."""
    return all(m.bit_count() <= 1 for m in a.entries) and all(
        m.bit_count() <= 1 for row in a.succ for m in row
    )


def is_reverse_deterministic(a: Aut) -> bool:
    return is_deterministic(reverse(a))


# ---------------------------------------------------------------------------
# Languages: what a state of a run is, how it steps, when it accepts


class SubsetLanguage:
    """The slices of an automaton, run by subset simulation."""

    def __init__(self, a: Aut):
        self.a = a
        self.entry_count = len(a.entries)
        self.exit_count = len(a.exits)

    def start(self, i: int):
        return self.a.entries[i]

    def step(self, run, sym: int):
        return self.a.step(run, sym)

    def accepts(self, run, j: int) -> bool:
        return bool(run & self.a.exits[j])


class WordLanguage:
    """A one-slice language given by a membership test on symbol-index tuples."""

    entry_count = exit_count = 1

    def __init__(self, member):
        self.member = member

    def start(self, i: int):
        return ()

    def step(self, run, sym: int):
        return run + (sym,)

    def accepts(self, run, j: int) -> bool:
        return self.member(run)


def complement_counterexample(lang, out: Aut, nsyms: int, max_len: int, words=()):
    """A word and slice on which ``out`` does not accept exactly what ``lang`` rejects.

    Every word up to ``max_len`` is tried, shared prefixes once, and then
    each word of ``words``.  Returns None when no such word exists.
    """
    outl = SubsetLanguage(out)

    def disagrees(r_in, r_out):
        for j in range(lang.exit_count):
            if lang.accepts(r_in, j) == outl.accepts(r_out, j):
                return j
        return None

    for i in range(lang.entry_count):
        stack = [((), lang.start(i), outl.start(i))]
        while stack:
            word, r_in, r_out = stack.pop()
            j = disagrees(r_in, r_out)
            if j is not None:
                return (i, j), word
            if len(word) < max_len:
                for sym in range(nsyms):
                    stack.append((word + (sym,), lang.step(r_in, sym), outl.step(r_out, sym)))
        for word in words:
            r_in, r_out = lang.start(i), outl.start(i)
            for sym in word:
                r_in, r_out = lang.step(r_in, sym), outl.step(r_out, sym)
            j = disagrees(r_in, r_out)
            if j is not None:
                return (i, j), tuple(word)
    return None


# ---------------------------------------------------------------------------
# Minimal DFA size by subset construction and Moore refinement


def determinize(a: Aut, starts=None) -> tuple[list[int], list[list[int]]]:
    """Reachable subset construction from ``starts`` (default: entry 0).

    Returns the macrostate masks, the starts first, and their successor rows.
    """
    nsyms = len(a.alphabet)
    macros = list(dict.fromkeys(starts if starts is not None else a.entries[:1]))
    index = {m: i for i, m in enumerate(macros)}
    delta: list[list[int]] = []
    head = 0
    while head < len(macros):
        row = []
        for sym in range(nsyms):
            nxt = a.step(macros[head], sym)
            if nxt not in index:
                index[nxt] = len(macros)
                macros.append(nxt)
            row.append(index[nxt])
        delta.append(row)
        head += 1
    return macros, delta


def complement_dfa(a: Aut) -> Aut:
    """The complete DFA that accepts what slice (0, 0) rejects."""
    macros, delta = determinize(a)
    trans = [(q, sym, d) for q, row in enumerate(delta) for sym, d in enumerate(row)]
    rejecting = [q for q, m in enumerate(macros) if not m & a.exits[0]]
    return new_aut(a.alphabet, len(macros), trans, [{0}], [rejecting])


def minimal_dfa_size(a: Aut) -> tuple[int, bool]:
    """States of the minimal complete DFA of slice (0, 0), and whether it has a dead class.

    A language and its complement have minimal DFAs of the same size; the
    dead class of the complement is the class that is universal here.
    """
    macros, delta = determinize(a)
    klass = [1 if m & a.exits[0] else 0 for m in macros]
    count = len(set(klass))
    while True:
        sigs: dict[tuple, int] = {}
        klass = [sigs.setdefault((klass[q],) + tuple(klass[d] for d in delta[q]), len(sigs))
                 for q in range(len(macros))]
        if len(sigs) == count:
            break
        count = len(sigs)
    # A class is universal when every class it reaches accepts.
    reach_reject = {klass[q] for q in range(len(macros)) if not macros[q] & a.exits[0]}
    changed = True
    while changed:
        changed = False
        for q in range(len(macros)):
            if klass[q] not in reach_reject and any(klass[d] in reach_reject for d in delta[q]):
                reach_reject.add(klass[q])
                changed = True
    return count, len(reach_reject) < count
