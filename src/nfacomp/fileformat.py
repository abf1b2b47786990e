"""Plain-text automaton files.

The format is line oriented.  ``#`` starts a comment that runs to the end
of the line, a token is a maximal run of non-whitespace as ``str.split``
defines it, and the first meaningful line is a header naming the automaton::

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
and numbered in first-seen order.  A ``ParseError`` gives the 1-based line
and column of the offending token; the column is found only then, by
scanning that one line again.

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


def _error(message: str, lineno: int, line: str, k: int = 0) -> ParseError:
    """A ParseError at token ``k`` of ``line``, its column found by a re-scan."""
    starts = [m.start() for m in _TOKEN.finditer(line.partition("#")[0])]
    return ParseError(message, lineno, starts[k] + 1)


class _StateTable(dict):
    """State name -> id; a name seen for the first time gets the next id."""

    def __missing__(self, token: str) -> int:
        q = self[token] = len(self)
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
        return frozenset(map(states.__getitem__, tokens))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.partition("#")[0].split()
        if not tokens:
            continue
        head = tokens[0]

        if kind is None:
            if head not in ("@NFA", "@PortNFA"):
                raise _error("expected @NFA or @PortNFA header", lineno, raw)
            if len(tokens) != 2:
                raise _error(f"{head} header takes exactly one name", lineno, raw)
            kind = head
            name = tokens[1]
            continue

        if head in ("@NFA", "@PortNFA"):
            raise _error("duplicate header", lineno, raw)

        if head == "%Alphabet":
            if alphabet is not None:
                raise _error("duplicate %Alphabet", lineno, raw)
            if len(tokens) < 2:
                raise _error("%Alphabet needs at least one symbol", lineno, raw)
            alphabet = []
            for k, tok in enumerate(tokens[1:], start=1):
                if tok in alphabet_ids:
                    raise _error(f"duplicate symbol {tok!r} in %Alphabet", lineno, raw, k)
                alphabet_ids[tok] = len(alphabet)
                alphabet.append(tok)
            continue

        if head in ("%Initial", "%Final"):
            if kind != "@NFA":
                raise _error(f"{head} is only valid in an @NFA file", lineno, raw)
            if head == "%Initial":
                if initial is not None:
                    raise _error("duplicate %Initial", lineno, raw)
                initial = state_list(tokens[1:])
            else:
                if final is not None:
                    raise _error("duplicate %Final", lineno, raw)
                final = state_list(tokens[1:])
            continue

        if head in ("%Entry", "%Exit"):
            if kind != "@PortNFA":
                raise _error(f"{head} is only valid in a @PortNFA file", lineno, raw)
            if len(tokens) < 2:
                raise _error(f"{head} needs a port index", lineno, raw)
            idx_tok = tokens[1]
            try:
                idx = int(idx_tok)
            except ValueError:
                raise _error(f"port index {idx_tok!r} is not an integer", lineno, raw, 1) from None
            if idx < 0:
                raise _error("port index must be nonnegative", lineno, raw, 1)
            table = entries if head == "%Entry" else exits
            if idx in table:
                raise _error(f"duplicate {head} {idx}", lineno, raw, 1)
            table[idx] = state_list(tokens[2:])
            port_lines[(head, idx)] = lineno
            continue

        if head.startswith("%"):
            raise _error(f"unknown directive {head}", lineno, raw)

        # Anything else must be a transition line.
        if len(tokens) != 3:
            raise _error("transition line needs exactly <src> <symbol> <dst>", lineno, raw)
        if alphabet is None:
            raise _error("transition before %Alphabet", lineno, raw)
        src_tok, sym_tok, dst_tok = tokens
        sym = alphabet_ids.get(sym_tok)
        if sym is None:
            raise _error(f"unknown symbol {sym_tok!r}", lineno, raw, 1)
        transitions.append((states[src_tok], sym, states[dst_tok]))

    if kind is None:
        raise ParseError("empty file: expected @NFA or @PortNFA header", 1, 1)
    if alphabet is None:
        raise ParseError("missing %Alphabet", 1, 1)

    if kind == "@NFA":
        return Nfa(
            tuple(alphabet),
            len(states),
            frozenset(transitions),
            initial if initial is not None else frozenset(),
            final if final is not None else frozenset(),
            state_names=tuple(states) or None,
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
        len(states),
        frozenset(transitions),
        tuple(entries[i] for i in range(len(entries))),
        tuple(exits[j] for j in range(len(exits))),
        state_names=tuple(states) or None,
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
