import dataclasses
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given

import helpers
from conftest import nfas
from nfacomp import core, fileformat, powerset
from nfacomp.errors import BudgetExceededError, ParseError
from nfacomp.families import reverse_friendly


A2_TEXT = (
    "@NFA A2\n"
    "%Alphabet a b\n"
    "%Initial 0\n"
    "%Final 3\n"
    "0 a 0\n"
    "0 a 1\n"
    "0 b 0\n"
    "1 a 2\n"
    "1 b 2\n"
    "2 a 3\n"
    "2 b 3\n"
)


def test_serialize_a2_exactly():
    assert fileformat.serialize(reverse_friendly(2)) == A2_TEXT


def test_parse_a2():
    a = fileformat.parse(A2_TEXT)
    assert isinstance(a, core.Nfa)
    assert a.name == "A2"
    assert a.num_states == 4
    assert core.language_equivalent(a, reverse_friendly(2))


def test_parse_accepts_bytes():
    assert fileformat.parse(A2_TEXT.encode()).name == "A2"


def test_comments_and_blank_lines():
    text = (
        "# complement me\n"
        "@NFA tiny   # trailing comment\n"
        "\n"
        "%Alphabet a\n"
        "%Initial q0\n"
        "%Final q1\n"
        "q0 a q1  # the only transition\n"
    )
    a = fileformat.parse(text)
    assert a.num_states == 2
    assert core.accepts(a, "a")


def test_states_are_interned_first_seen():
    a = fileformat.parse("@NFA x\n%Alphabet a\n%Initial hi\n%Final lo\nhi a lo\n")
    assert a.state_names == ("hi", "lo")
    assert a.initial == frozenset({0}) and a.final == frozenset({1})


def test_missing_initial_and_final_default_to_empty():
    a = fileformat.parse("@NFA x\n%Alphabet a\n0 a 0\n")
    assert a.initial == frozenset() and a.final == frozenset()


def test_port_round_trip_with_out_of_order_indices():
    text = (
        "@PortNFA p\n"
        "%Alphabet a\n"
        "%Entry 1 x\n"
        "%Entry 0 x y\n"
        "%Exit 0\n"
        "x a y\n"
    )
    p = fileformat.parse(text)
    assert isinstance(p, core.PortNfa)
    assert p.entry_sets == (frozenset({0, 1}), frozenset({0}))
    assert p.exit_sets == (frozenset(),)
    again = fileformat.parse(fileformat.serialize(p))
    assert again.entry_sets == p.entry_sets and again.exit_sets == p.exit_sets


def test_serialize_then_parse_is_canonical_fixpoint():
    # A file whose state-name order disagrees with first-seen numbering.
    text = (
        "@NFA z\n"
        "%Alphabet a\n"
        "%Initial q9\n"
        "%Final q1\n"
        "q1 a q9\n"
        "q9 a q1\n"
    )
    once = fileformat.serialize(fileformat.parse(text))
    assert fileformat.serialize(fileformat.parse(once)) == once


@given(nfas())
def test_round_trip_preserves_semantics(a):
    a = core.trim(a)
    if a.num_states == 0:
        return
    b = fileformat.parse(fileformat.serialize(a))
    assert b.alphabet == a.alphabet
    assert b.num_states == a.num_states
    assert b.num_transitions == a.num_transitions
    assert core.language_equivalent(a, b)
    text = fileformat.serialize(b)
    assert fileformat.serialize(fileformat.parse(text)) == text


def test_parse_error_positions():
    with pytest.raises(ParseError, match=r"line 3, column 3: unknown symbol 'q'"):
        fileformat.parse("@NFA x\n%Alphabet a\n0 q 1\n")
    with pytest.raises(ParseError, match=r"line 1.*expected @NFA or @PortNFA"):
        fileformat.parse("%Alphabet a\n")
    with pytest.raises(ParseError, match="transition before %Alphabet"):
        fileformat.parse("@NFA x\n0 a 1\n")
    with pytest.raises(ParseError, match="exactly <src> <symbol> <dst>"):
        fileformat.parse("@NFA x\n%Alphabet a\n0 a\n")
    with pytest.raises(ParseError, match="duplicate %Alphabet"):
        fileformat.parse("@NFA x\n%Alphabet a\n%Alphabet b\n")
    with pytest.raises(ParseError, match="duplicate symbol 'a'"):
        fileformat.parse("@NFA x\n%Alphabet a a\n")
    with pytest.raises(ParseError, match="missing %Alphabet"):
        fileformat.parse("@NFA x\n")
    with pytest.raises(ParseError, match="empty file"):
        fileformat.parse("# nothing here\n")


def test_port_directive_errors():
    with pytest.raises(ParseError, match="only valid in a @PortNFA file"):
        fileformat.parse("@NFA x\n%Alphabet a\n%Entry 0 0\n")
    with pytest.raises(ParseError, match="only valid in an @NFA file"):
        fileformat.parse("@PortNFA x\n%Alphabet a\n%Initial 0\n")
    with pytest.raises(ParseError, match="duplicate %Entry 0"):
        fileformat.parse("@PortNFA x\n%Alphabet a\n%Entry 0\n%Entry 0\n%Exit 0\n")
    with pytest.raises(ParseError, match="contiguous from 0 .missing 1."):
        fileformat.parse("@PortNFA x\n%Alphabet a\n%Entry 0\n%Entry 2\n%Exit 0\n")
    with pytest.raises(ParseError, match="needs at least one %Exit line"):
        fileformat.parse("@PortNFA x\n%Alphabet a\n%Entry 0\n")
    with pytest.raises(ParseError, match="not an integer"):
        fileformat.parse("@PortNFA x\n%Alphabet a\n%Entry one 0\n%Exit 0\n")


def test_port_index_gap_check_does_not_grow_with_the_index():
    # The check must cost memory in the number of port lines, not in the
    # value of the largest index.
    text = "@PortNFA x\n%Alphabet a\n%Entry 1000000 0\n%Exit 0\n"
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            fileformat.parse(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == "line 3, column 1: %Entry indices must be contiguous from 0 (missing 0)"
    assert peak < 1_000_000
    with pytest.raises(ParseError) as err:
        fileformat.parse("@PortNFA x\n%Alphabet a\n%Entry 0\n%Exit 0 0\n%Exit 3\n%Exit 1\n")
    assert str(err.value) == "line 5, column 1: %Exit indices must be contiguous from 0 (missing 2)"


def test_parse_error_carries_position_attributes():
    try:
        fileformat.parse("@NFA x\n%Alphabet a\n0 q 1\n")
    except ParseError as e:
        assert (e.line, e.column) == (3, 3)
    else:
        pytest.fail("expected ParseError")


def test_serialize_rejects_isolated_states():
    a = core.Nfa.build(("a",), 2, [], {0}, set())
    with pytest.raises(ValueError, match="trim it before serializing"):
        fileformat.serialize(a)


def test_serialize_rejects_unwritable_symbols():
    a = core.Nfa.build(("a b",), 1, [(0, "a b", 0)], {0}, {0})
    with pytest.raises(ValueError, match="cannot be written"):
        fileformat.serialize(a)


def test_serializer_name_fallback():
    # Duplicate display names force numeric fallbacks rather than a bad file.
    a = core.Nfa(("a",), 2, frozenset({(0, 0, 1)}), frozenset({0}), frozenset({1}),
                 state_names=("q", "q"))
    text = fileformat.serialize(a)
    b = fileformat.parse(text)
    assert b.num_states == 2 and core.accepts(b, "a")


def test_random_port_round_trips():
    rng = random.Random(5150)
    done = 0
    while done < 25:
        p = helpers.random_port_nfa(rng, max_states=5)
        mentioned = {q for (s, _y, t) in p.transitions for q in (s, t)}
        for s in p.entry_sets + p.exit_sets:
            mentioned |= s
        if mentioned != set(range(p.num_states)):
            continue  # isolated states do not serialize by design
        done += 1
        q = fileformat.parse(fileformat.serialize(p))
        assert q.num_entry == p.num_entry and q.num_exit == p.num_exit
        for i in range(p.num_entry):
            for j in range(p.num_exit):
                assert helpers.brute_language(q.slice(i, j), 4) == helpers.brute_language(
                    p.slice(i, j), 4
                )


# --- the split tokenizer against the regex tokenizer ---------------------------
# Whitespace that str.split and the regex \s both count, line breaks of
# str.splitlines among them; a mutant must parse the same way under both.
_ODD_SPACE = ("\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2000", "\u3000")


def _mutant(text, rng):
    for _ in range(rng.randint(1, 3)):
        lines = text.split("\n")
        k = rng.randrange(len(lines))
        edit = rng.choice(("space", "lead", "comment", "crlf", "truncate", "dup", "unknown", "repeat", "index"))
        if edit == "space":
            i = rng.randrange(len(text) + 1)
            text = text[:i] + "".join(rng.choices(_ODD_SPACE, k=rng.randint(1, 3))) + text[i:]
        elif edit == "lead":
            lines[k] = rng.choice(_ODD_SPACE) + lines[k].replace(" ", rng.choice(_ODD_SPACE), 1)
            text = "\n".join(lines)
        elif edit == "comment":
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(("#", " # note", "#\u3000x y", "##")) + text[i:]
        elif edit == "crlf":
            text = text.replace("\n", "\r\n")
        elif edit == "truncate":
            lines[k] = lines[k][: rng.randrange(len(lines[k]) + 1)]
            text = "\n".join(lines)
        elif edit == "dup":
            text = "\n".join(lines[: k + 1] + lines[k:])
        elif edit == "repeat":  # a repeated %Alphabet symbol, or one token too many
            parts = lines[k].split(" ")
            lines[k] += rng.choice(_ODD_SPACE) + parts[-1]
            text = "\n".join(lines)
        else:
            parts = lines[k].split(" ")
            if len(parts) < 2:
                continue
            if edit == "index":  # a bad %Entry / %Exit index, or a bad transition symbol
                parts[1] = rng.choice(("-1", "x", "07", "zz"))
            elif len(parts) == 3 and not parts[0].startswith(("%", "@")):
                parts[1] = rng.choice(_ODD_SPACE) + "zz" + rng.choice(_ODD_SPACE)
            text = "\n".join(lines[:k] + [" ".join(parts)] + lines[k + 1:])
    return text


def _parity_texts():
    from test_golden import corpus, port_corpus

    rng = random.Random(1414)
    for _key, a in list(corpus()) + list(port_corpus()):
        try:
            text = fileformat.serialize(a)
        except ValueError:  # isolated states do not serialize by design
            continue
        yield text
        yield fileformat.serialize(fileformat.parse(text))
        yield text.encode()
        for _ in range(4):
            yield _mutant(text, rng)
    yield b"@NFA x\n%Alphabet a\n\xff a q\n"


def _parsed(parser, text):
    try:
        a = parser(text)
    except ParseError as e:
        return str(e), e.line, e.column
    return a, a.name


def test_split_tokenizer_matches_the_regex_tokenizer():
    errors = []
    parsed = 0
    for text in _parity_texts():
        expected = _parsed(helpers.parse_reference, text)
        assert _parsed(fileformat.parse, text) == expected, repr(text)
        if isinstance(expected[0], str):
            errors.append(expected[0])
        else:
            parsed += 1
    assert len(errors) > 300 and parsed > 1000, (len(errors), parsed)
    # Errors at a token past the first, whose column the new parser re-scans.
    for kind in ("unknown symbol", "duplicate symbol", "is not an integer", "must be nonnegative", "UTF-8"):
        assert any(kind in e for e in errors), kind


# --- the writer against the one-sort writer ------------------------------------
# Tokens the writer must refuse as state names (besides a repeat) or symbols:
# "#", a leading "@" or "%", whitespace of both tokenizers, the empty token;
# and ones it must accept ("@" and "%" inside).
_ODD_NAMES = ("q#1", "#", "@q", "%q", "q r", " q", "q ", "q\u3000r", "q\x1c", "\x85", "", "a@b", "a%b", "{x}")
_TITLES = (None, "t", "t u", "#t", "@t", "%t", "")


def _written(writer, a):
    try:
        return writer(a)
    except ValueError as e:
        return str(e)


def _renamed(a, rng):
    """``a`` under distinct names whose order is not the id order, with one
    of them odd, or repeated; and under a random title."""
    n = a.num_states
    names = rng.sample([f"n{k}" for k in range(3 * n)], n)
    kind = rng.choice(("distinct", "odd", "repeat"))
    if kind == "odd" and n:
        names[rng.randrange(n)] = rng.choice(_ODD_NAMES)
    elif kind == "repeat" and n > 1:
        names[0] = names[rng.randrange(1, n)]
    return dataclasses.replace(a, state_names=names, name=rng.choice(_TITLES))


def _writer_cases():
    """Inputs of the golden and port corpora, their variants, and their
    trimmed forward and reverse complements (some with dropped moves); the
    plain and port NFAs of ``helpers.automata_and_complements`` with their
    complements, 65-90-state ones among them; the 128-state complements of
    ``reverse_friendly(6)``; an isolated state; odd alphabet symbols; the
    complements of port NFAs explored with ``skip`` (a table over symbols 0
    and 2); and two table-built automata, one with an isolated state and
    one with a state that only moves out."""
    from test_golden import BUDGET, corpus, port_corpus

    rng = random.Random(2121)
    for _key, a in list(corpus()) + list(port_corpus()):
        for v in (a, _renamed(a, rng)):
            yield v
            for direction in powerset.Direction:
                try:
                    x = powerset._explore_port(v, BUDGET, complement=True, directions=(direction,))
                except BudgetExceededError:
                    continue
                yield powerset._build(v, x), not all(x.live)
    for a in helpers.automata_and_complements(2122):
        yield a
        yield _renamed(a, rng)
    a = reverse_friendly(6)
    yield powerset.forward_complement(a)
    yield powerset.reverse_complement(_renamed(a, rng))
    yield core.Nfa.build(("a",), 2, [], {0}, set())
    for sym in _ODD_NAMES:
        yield core.Nfa.build(("b", sym), 1, [(0, sym, 0)], {0}, {0})
    for _ in range(25):  # over a middle symbol they do not use, explored without it
        p = helpers.random_port_nfa(rng, max_syms=2)
        shifted = {(src, 2 * sym, dst) for (src, sym, dst) in p.transitions}
        wide = core.PortNfa(("a", "x", "b"), p.num_states, shifted, p.entry_sets, p.exit_sets)
        for v in (wide, _renamed(wide, rng)):
            direction = powerset.Direction.REVERSE if rng.random() < 0.5 else powerset.Direction.FORWARD
            x = powerset._explore_port(v, BUDGET, True, (direction,), skip=frozenset({1}))
            yield powerset._build(v, x), not all(x.live)
    # Table-built by hand: state 1 is isolated; then state 1 only moves to state 0 on b.
    plain = core.Nfa.build(("a", "b"), 1, [], {0}, set())
    for table in ([-1, -1, -1, -1], [-1, -1, -1, 0]):
        yield core._derived(plain, 2, [frozenset({0})], [frozenset()], None, _table=(table, (0, 1), False))


def test_serialize_matches_the_one_sort_writer():
    seen = Counter()
    for case in _writer_cases():
        a, dropped = case if isinstance(case, tuple) else (case, False)
        table = vars(a).get("_table")
        forward_table = table is not None and not table[2]
        expected = _written(helpers.serialize_reference, a)
        assert _written(fileformat.serialize, a) == expected, a
        if not expected.startswith(("@NFA", "@PortNFA")):
            seen["rejected"] += 1
            seen["table_isolated"] += forward_table and "trim it" in expected
            continue
        if forward_table:  # one row per state in the table, each in symbol order
            seen["table_dropped"] += -1 in table[0]
            seen["table_skip"] += len(table[1]) < len(a.alphabet)
            seen["table_large"] += a.num_states > 64
            named = a.state_names is not None
            seen["table_fallback"] += named and helpers._display_names_reference(a) != list(a.state_names)
            seen["table_source_only"] += len(set(table[0]).union(*a.entry_sets, *a.exit_sets) - {-1}) < a.num_states
        seen["port" if isinstance(a, core.PortNfa) else "plain"] += 1
        seen["dropped"] += dropped
        seen["large"] += a.num_states > 64
        if a.state_names is not None:
            fallback = helpers._display_names_reference(a) != list(a.state_names)
            seen["fallback" if fallback else "named"] += 1
    assert all(seen[k] > 20 for k in ("rejected", "port", "plain", "dropped", "large", "fallback", "named")), seen
    assert all(seen[k] > 20 for k in ("table_dropped", "table_skip", "table_fallback")), seen
    assert seen["table_large"] > 5 and seen["table_isolated"] == seen["table_source_only"] == 1, seen
