"""Plain-text automaton files.

The format is line oriented.  ``#`` starts a comment that runs to the end
of the line, tokens are separated by whitespace, and the first meaningful
line is a header naming the automaton::

    @NFA ex
    %Alphabet a b
    %Initial p
    %Final r
    p a q      # transitions are <src> <symbol> <dst>
    q b r

Port automata use ``@PortNFA`` with one ``%Entry <index> <state>*`` and
``%Exit <index> <state>*`` line per port set instead of ``%Initial`` /
``%Final``.  Port indices must be contiguous from 0 but may appear in any
order; the parser normalizes them.  States are declared implicitly by use
and numbered in first-seen order.

``serialize`` is deterministic: LF line endings, single spaces, fixed
section order, and transitions sorted by (source, symbol, target).
Parsing a serialized automaton yields a semantically identical one (state
numbering may shift to first-seen order); serializing it again reproduces
the same bytes.
"""

from __future__ import annotations

import re
from typing import Union

from .core import Nfa, PortNfa
from .errors import ParseError

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


def parse(text: Union[str, bytes]) -> Union[Nfa, PortNfa]:
    """Parse an automaton file, raising ParseError with position info."""
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
        return Nfa(
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
    return PortNfa(
        tuple(alphabet),
        len(states.names),
        frozenset(transitions),
        tuple(entries[i] for i in range(len(entries))),
        tuple(exits[j] for j in range(len(exits))),
        state_names=tuple(states.names) or None,
        name=name,
    )


def _safe_token(tok: str) -> bool:
    return bool(tok) and not tok[0] in "@%" and "#" not in tok and _TOKEN.fullmatch(tok) is not None


def _display_names(a: Union[Nfa, PortNfa]) -> list[str]:
    names = a.state_names
    if names is not None and len(set(names)) == len(names) and all(map(_safe_token, names)):
        return list(names)
    return [str(q) for q in range(a.num_states)]


def serialize(a: Union[Nfa, PortNfa]) -> str:
    """Render an automaton in the canonical file form (trailing newline).

    States exist in a file only by being mentioned; an automaton with a
    fully isolated state (no transitions, in no state set) has no faithful
    rendering and is rejected rather than silently shrunk.
    """
    for sym in a.alphabet:
        if not _safe_token(sym):
            raise ValueError(f"alphabet symbol {sym!r} cannot be written to a file")
    mentioned = set()
    for src, _sym, dst in a.transitions:
        mentioned.add(src)
        mentioned.add(dst)
    if isinstance(a, Nfa):
        mentioned |= a.initial | a.final
    else:
        for s in a.entry_sets + a.exit_sets:
            mentioned |= s
    if len(mentioned) != a.num_states:
        raise ValueError(
            "automaton has states that appear in no transition or state set; "
            "trim it before serializing"
        )
    names = _display_names(a)
    title = a.name if a.name is not None and _safe_token(a.name) else "a"

    # Order everything by display name rather than internal id: re-parsing
    # renumbers states in first-seen order, so only name-based ordering makes
    # serialize(parse(f)) reproduce a canonical file f byte for byte.
    def state_set(s):
        return " ".join(sorted(names[q] for q in s))

    lines = []
    if isinstance(a, Nfa):
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
