import contextlib
import dataclasses
import io
import json
import os
import random
import runpy
import sys
import tempfile
import warnings
from collections import Counter

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import helpers
from nfacomp import cli, core, fileformat, powerset
from nfacomp.errors import BudgetExceededError
from nfacomp.families import gate_chain, reverse_friendly, sequential_chain


@pytest.fixture
def a2_file(tmp_path):
    f = tmp_path / "a2.nfa"
    f.write_text(fileformat.serialize(reverse_friendly(2)))
    return str(f)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_writes_canonical_file(capsys):
    code, out, err = run(capsys, "generate", "-f", "reverse", "-n", "2")
    assert code == 0 and err == ""
    assert out == (
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


def test_complement_reverse_to_file(capsys, tmp_path, a2_file):
    out_path = tmp_path / "c.nfa"
    code, out, err = run(capsys, "complement", "-m", "reverse", "-i", a2_file, "-o", str(out_path))
    assert (code, out, err) == (0, "", "")
    c = fileformat.parse(out_path.read_text())
    assert c.num_states == 4


def test_complement_auto_stats(capsys, tmp_path, a2_file):
    stats_path = tmp_path / "s.json"
    out_path = tmp_path / "c.nfa"
    code, _out, _err = run(
        capsys, "complement", "-m", "auto", "-i", a2_file,
        "-o", str(out_path), "--stats", str(stats_path),
    )
    assert code == 0
    doc = json.loads(stats_path.read_text())
    assert doc["method"] == "auto"
    assert doc["heuristic_scores"] == {"chosen": "reverse", "forward": 6, "reverse": 5}
    assert doc["input_states"] == 4
    assert doc["output_states"] == 4
    assert doc["output_states_pre_trim"] == 5
    assert doc["output_states"] <= doc["output_states_pre_trim"]
    assert doc["wall_time_ms"] >= 0


def test_complement_gate_matches_family_size(capsys, tmp_path):
    g = tmp_path / "g3.nfa"
    g.write_text(fileformat.serialize(gate_chain(3)))
    out_path = tmp_path / "c.nfa"
    code, _out, _err = run(capsys, "complement", "-m", "gate", "-i", str(g), "-o", str(out_path))
    assert code == 0
    assert fileformat.parse(out_path.read_text()).num_states == 13


def test_portfolio_selects_sequential_on_chain(capsys, tmp_path):
    b = tmp_path / "b2.nfa"
    b.write_text(fileformat.serialize(sequential_chain(2)))
    stats_path = tmp_path / "s.json"
    out_path = tmp_path / "c.nfa"
    code, _out, _err = run(
        capsys, "complement", "-m", "portfolio", "-i", str(b),
        "-o", str(out_path), "--stats", str(stats_path),
    )
    assert code == 0
    doc = json.loads(stats_path.read_text())
    assert doc["method"] == "portfolio"
    assert doc["selected"] == "sequential"
    ran = [r["method"] for r in doc["reports"]]
    assert ran == ["forward", "reverse", "sequential"]  # no gate cut exists
    assert {r["method"]: r["output_states"] for r in doc["reports"]} == {
        "forward": 12,
        "reverse": 12,
        "sequential": 8,
    }
    assert fileformat.parse(out_path.read_text()).num_states == 8


def _stdin(data: bytes):
    """A text stdin over ``data``, decoded as under the POSIX locale."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")


def test_complement_stdin_stdout(capsys, monkeypatch, tmp_path):
    text = fileformat.serialize(reverse_friendly(1))
    monkeypatch.setattr("sys.stdin", _stdin(text.encode()))
    code, out, err = run(capsys, "complement", "-m", "forward")
    assert code == 0 and err == ""
    c = fileformat.parse(out)
    assert c.num_states == 4  # 2^(1+1)


def test_invalid_utf8_on_stdin_is_a_parse_error(capsys, monkeypatch, tmp_path):
    data = b"@NFA x\n%Alphabet a\n%Initial p\xff\n%Final q\np\xff a q\n"
    bad = tmp_path / "bad.nfa"
    bad.write_bytes(data)
    message = "error: line 1, column 1: file is not valid UTF-8 (invalid start byte)\n"
    assert run(capsys, "complement", "-m", "forward", "-i", str(bad)) == (2, "", message)
    for argv in (["complement", "-m", "forward"], ["complement", "-m", "forward", "-o", str(tmp_path / "c.nfa")],
                 ["stats"]):
        monkeypatch.setattr("sys.stdin", _stdin(data))
        assert run(capsys, *argv) == (2, "", message), argv


def test_complement_minimize_and_reduce(capsys, tmp_path, a2_file):
    out_path = tmp_path / "c.nfa"
    code, _out, _err = run(
        capsys, "complement", "-m", "forward", "-i", a2_file, "-o", str(out_path), "--minimize"
    )
    assert code == 0
    assert fileformat.parse(out_path.read_text()).num_states == 8
    code, _out, _err = run(
        capsys, "complement", "-m", "reverse", "-i", a2_file, "-o", str(out_path), "--reduce"
    )
    assert code == 0
    assert fileformat.parse(out_path.read_text()).num_states <= 4


# Languages whose trimmed forward complement is a partial DFA, with the size
# of the complement's minimal complete DFA minus its dead class: b* (1),
# ε + b(a|b)* (2), and the words without aa (2).  The complement of the
# universal language is empty, so nothing is left after the dead class.
PARTIAL_DFA_CASES = [
    ("b* a (a|b)*", 2, [(0, "b", 0), (0, "a", 1), (1, "a", 1), (1, "b", 1)], {1}, 1),
    ("a (a|b)*", 2, [(0, "a", 1), (1, "a", 1), (1, "b", 1)], {1}, 2),
    ("(a|b)* aa (a|b)*", 3,
     [(0, "a", 0), (0, "b", 0), (0, "a", 1), (1, "a", 2), (2, "a", 2), (2, "b", 2)], {2}, 2),
    ("(a|b)*", 1, [(0, "a", 0), (0, "b", 0)], {0}, 0),
]


@pytest.mark.parametrize("lang, n, trans, final, want", PARTIAL_DFA_CASES, ids=[c[0] for c in PARTIAL_DFA_CASES])
def test_minimize_partial_forward_complement(capsys, tmp_path, lang, n, trans, final, want):
    src = tmp_path / "a.nfa"
    src.write_text(fileformat.serialize(core.Nfa.build(("a", "b"), n, trans, {0}, final)))
    out_path = tmp_path / "c.nfa"
    code, _out, err = run(
        capsys, "complement", "-m", "forward", "--minimize", "-i", str(src), "-o", str(out_path)
    )
    assert (code, err) == (0, "")
    c = fileformat.parse(out_path.read_text())
    assert c.num_states == want
    assert want == 0 or core.is_deterministic(c)
    code, out, _err = run(capsys, "oracle", "-a", str(src), "-c", str(out_path), "--max-len", "8")
    assert code == 0 and out.startswith("OK")


def test_minimize_matches_completion_by_an_explicit_sink():
    rng = random.Random(18_2027)
    inputs = [helpers.random_nfa(rng, max_states=8) for _ in range(300)]
    inputs += [helpers.random_nfa(rng, max_states=40, min_states=20, max_syms=2) for _ in range(10)]
    # The complement of the empty language is universal, that of (a|b)* is empty.
    inputs += [
        core.Nfa.build(("a", "b"), 1, [(0, "a", 0)], {0}, ()),
        core.Nfa.build(("a", "b"), 1, [(0, "a", 0), (0, "b", 0)], {0}, {0}),
    ]
    seen = Counter()
    for i, a in enumerate(inputs):
        try:
            c = powerset.forward_complement(a, budget=4096)
        except BudgetExceededError:
            continue
        if i % 2:
            c = dataclasses.replace(c, state_names=None)
        want = helpers.minimize_by_completion_reference(c)
        assert fileformat.serialize(cli._minimize(c)) == fileformat.serialize(want)
        if c.num_states == 0:
            seen["empty"] += 1
        elif not core.is_complete(c):
            seen["partial"] += 1
        else:
            seen["universal" if want.num_states == 1 and want.final else "complete"] += 1
        seen["merged"] += want.num_states < c.num_states
    assert all(seen[k] > 3 for k in ("empty", "partial", "universal", "complete", "merged")), seen


def test_stats_say_how_each_post_pass_ran(capsys, tmp_path):
    """``postpass`` in ``--stats`` names each post-pass's route: on the forward
    complement of ``reverse_friendly(5)``, minimal by construction, neither
    pass runs; on an input with two final states Hopcroft runs for both;
    the reverse complement is co-deterministic, gate's output takes the
    fixpoint, and a run without post-passes reports none.  Beside each
    route stand its time and the written file's size."""
    a = helpers.random_nfa(random.Random(16), max_states=6)  # its forward complement has 5 states, 3 minimal
    assert len(a.final) == 2
    runs = [
        (reverse_friendly(5), ["-m", "forward", "--minimize", "--reduce"],
         {"minimize": "construction", "reduce": "construction"}),
        (a, ["-m", "forward", "--minimize", "--reduce"], {"minimize": "hopcroft", "reduce": "hopcroft"}),
        (reverse_friendly(5), ["-m", "reverse", "--reduce"], {"reduce": "codeterministic"}),
        (gate_chain(2), ["-m", "gate", "--reduce"], {"reduce": "simulation"}),
        (reverse_friendly(5), ["-m", "forward"], None),
    ]
    src, out, stats = tmp_path / "a.nfa", tmp_path / "c.nfa", tmp_path / "s.json"
    for automaton, argv, want in runs:
        src.write_text(fileformat.serialize(automaton))
        code, _out, err = run(capsys, "complement", *argv, "-i", str(src), "-o", str(out), "--stats", str(stats))
        assert (code, err) == (0, "")
        got = json.loads(stats.read_text()).get("postpass")
        if want is not None:
            written = fileformat.parse(out.read_text())
            times = {f"{k}_ms": got[f"{k}_ms"] for k in want}
            assert all(isinstance(ms, float) and ms >= 0 for ms in times.values()), argv
            want = {**want, **times, "states": written.num_states, "transitions": written.num_transitions}
        assert got == want, argv


@pytest.mark.parametrize("argv", [["-m", "sequential", "--reduce"], ["-m", "forward", "--minimize", "--reduce"],
                                  ["-m", "portfolio", "--reduce"]])
def test_stats_describe_the_file_written_after_the_post_passes(capsys, tmp_path, argv):
    """On ``gate_chain(8)``, ``postpass`` gives the size of the written file,
    as ``nfacomp stats`` reads it, while ``output_states`` and ``transitions``
    keep the size of the method's output before the post-passes: the
    sequential output has 1,046 states and 3,657 transitions, and the file
    525 and 2,361 after ``--reduce``."""
    src, out, stats = tmp_path / "a.nfa", tmp_path / "c.nfa", tmp_path / "s.json"
    src.write_text(fileformat.serialize(gate_chain(8)))
    code, _out, err = run(capsys, "complement", *argv, "-i", str(src), "-o", str(out), "--stats", str(stats))
    assert (code, err) == (0, "")
    doc = json.loads(stats.read_text())
    code, text, err = run(capsys, "stats", "-i", str(out))
    assert (code, err) == (0, "")
    written = json.loads(text)
    assert (doc["postpass"]["states"], doc["postpass"]["transitions"]) == (written["states"], written["transitions"])
    if argv[1] == "sequential":
        assert (doc["output_states"], doc["transitions"]) == (1046, 3657)
        assert (written["states"], written["transitions"]) == (525, 2361)


def test_sequential_stats_list_every_strategy(capsys, tmp_path):
    b = tmp_path / "b4.nfa"
    b.write_text(fileformat.serialize(sequential_chain(4)))
    stats_path = tmp_path / "s.json"
    for method in ("sequential", "portfolio"):
        code, _out, _err = run(
            capsys, "complement", "-m", method, "-i", str(b), "-o", str(tmp_path / "c.nfa"),
            "--stats", str(stats_path),
        )
        assert code == 0
        doc = json.loads(stats_path.read_text())
        if method == "portfolio":
            (doc,) = [r for r in doc["reports"] if r["method"] == "sequential"]
        assert doc["partition_summary"] == {
            "strategy": "detrev",
            "component_sizes": [5, 6],
            "stage_sizes": [7, 12],
            "pruned": 0,
            # det builds only the 13 composites that survive trim: 25 successor
            # unions are cut off as dead.
            "attempts": [
                {"strategy": "det", "outcome": "ok", "pre_trim": 13, "pruned": 25, "states": 13},
                {"strategy": "detrev", "outcome": "ok", "pre_trim": 12, "pruned": 0, "states": 12},
                {"strategy": "mincut", "outcome": "same_partition_as", "same_partition_as": "detrev"},
            ],
        }


def test_gate_stats_list_both_complement_candidates(capsys, tmp_path):
    g = tmp_path / "g4.nfa"
    g.write_text(fileformat.serialize(gate_chain(4)))
    stats_path = tmp_path / "s.json"
    for method in ("gate", "portfolio"):
        code, _out, _err = run(
            capsys, "complement", "-m", method, "-i", str(g), "-o", str(tmp_path / "c.nfa"),
            "--stats", str(stats_path),
        )
        assert code == 0
        doc = json.loads(stats_path.read_text())
        if method == "portfolio":
            (doc,) = [r for r in doc["reports"] if r["method"] == "gate"]
        assert doc["partition_summary"] == {
            "direction": "front-clean",
            "method": "equal",
            "needs_intersection": False,
            "gate_symbols": ["c"],
            "front_states": 6,
            "rear_states": 6,
            # Each component is explored both ways in lockstep, until the
            # loser is cut; only the smaller is built.
            "complements": [
                {"side": "front", "forward": "cut", "reverse": 6, "chosen": "reverse",
                 "explored": {"forward": 16, "reverse": 7}},
                {"side": "rear", "forward": 7, "reverse": "cut", "chosen": "forward",
                 "explored": {"forward": 7, "reverse": 17}},
            ],
        }


def test_check_relations(capsys, a2_file, tmp_path):
    code, out, _ = run(capsys, "check", "--relation", "equiv", "-a", a2_file, "-b", a2_file)
    assert (code, out) == (0, "equiv: true\n")
    code, out, _ = run(capsys, "check", "--relation", "incl", "-a", a2_file, "-b", a2_file)
    assert (code, out) == (0, "incl: true\n")
    code, out, _ = run(capsys, "check", "--relation", "disjoint", "-a", a2_file, "-b", a2_file)
    assert (code, out) == (1, "disjoint: false\n")
    empty = tmp_path / "empty.nfa"
    empty.write_text("@NFA e\n%Alphabet a b\n%Initial 0\n0 a 0\n0 b 0\n")
    code, out, _ = run(capsys, "check", "--relation", "disjoint", "-a", a2_file, "-b", str(empty))
    assert (code, out) == (0, "disjoint: true\n")


def test_oracle_command(capsys, tmp_path, a2_file):
    c_path = tmp_path / "c.nfa"
    run(capsys, "complement", "-m", "reverse", "-i", a2_file, "-o", str(c_path))
    code, out, _ = run(capsys, "oracle", "-a", a2_file, "-c", str(c_path), "--max-len", "6")
    assert (code, out) == (0, "OK (127 words)\n")
    code, out, _ = run(capsys, "oracle", "-a", a2_file, "-c", a2_file, "--max-len", "3")
    assert (code, out) == (1, 'FAIL: first counterexample ""\n')


def test_oracle_prints_a_count_past_the_int_digit_limit(capsys, tmp_path, a2_file):
    # 2^15001 - 1 words over {a, b}: 4,516 digits, past the 4,300 that str() of an
    # int allows by default.  int() has the same limit, so the digits are read in chunks.
    limit = sys.get_int_max_str_digits()
    c_path = tmp_path / "c.nfa"
    run(capsys, "complement", "-m", "forward", "-i", a2_file, "-o", str(c_path))
    code, out, err = run(capsys, "oracle", "-a", a2_file, "-c", str(c_path), "--max-len", "15000")
    assert (code, err) == (0, "")
    assert out.startswith("OK (") and out.endswith(" words)\n")
    digits = out[len("OK ("):-len(" words)\n")]
    count = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i : i + 1000]
        count = count * 10 ** len(chunk) + int(chunk)
    assert count == 2**15001 - 1
    assert sys.get_int_max_str_digits() == limit


def test_complement_verify(capsys, tmp_path, a2_file, monkeypatch):
    stats_path = tmp_path / "s.json"
    code, out, err = run(capsys, "complement", "-m", "reverse", "-i", a2_file, "--verify",
                         "--stats", str(stats_path))
    assert (code, err) == (0, "")
    assert fileformat.parse(out).num_states == 4
    verify = json.loads(stats_path.read_text())["verify"]
    assert (verify["verdict"], verify["pairs"]) == ("exact", 8)
    assert verify["ms"] >= 0

    # Every slice of a port output is checked, under --budget pairs each.
    p = tmp_path / "p.nfa"
    p.write_text(fileformat.serialize(helpers.random_port_nfa(random.Random(3), max_states=5)))
    code, _out, _err = run(capsys, "complement", "-m", "forward", "-i", str(p), "--verify",
                           "--stats", str(stats_path))
    assert code == 0 and json.loads(stats_path.read_text())["verify"]["verdict"] == "exact"

    # The reverse complement of A_7 has 9 states; checking it reaches more
    # pairs than that.  A budget cut settles nothing and is no error.
    rev7 = tmp_path / "rev7.nfa"
    rev7.write_text(fileformat.serialize(reverse_friendly(7)))
    code, out, err = run(capsys, "complement", "-m", "reverse", "-i", str(rev7), "--verify",
                         "--budget", "64", "--stats", str(stats_path))
    assert (code, err) == (0, "") and fileformat.parse(out).num_states == 9
    assert json.loads(stats_path.read_text())["verify"]["pairs"] == 64
    assert json.loads(stats_path.read_text())["verify"]["verdict"] == "budget"

    # A complement that also accepts "aaa", a word of A_2: exit 1, no output.
    reduce = cli.reduction.simulation_reduce

    def broken(a, **kwargs):
        c = reduce(a, **kwargs)
        n, aid = c.num_states, c.symbol_ids["a"]
        extra = {(n, aid, n + 1), (n + 1, aid, n + 2), (n + 2, aid, n + 3)}
        return core.Nfa(c.alphabet, n + 4, c.transitions | extra, c.initial | {n}, c.final | {n + 3})

    monkeypatch.setattr(cli.reduction, "simulation_reduce", broken)
    code, out, err = run(capsys, "complement", "-m", "forward", "--reduce", "-i", a2_file, "--verify")
    assert (code, out) == (1, "")
    assert err == 'error: --verify: slice (0, 0) is not the complement, first counterexample "aaa"\n'
    assert run(capsys, "complement", "-m", "forward", "--reduce", "-i", a2_file)[0] == 0


@pytest.mark.parametrize("n", [6, 9])
def test_verify_and_oracle_match_the_set_pair_search(capsys, tmp_path, n):
    # --verify's verdict and pair count on the forward complement of A_n, a
    # DFA checked against an NFA, are those of helpers.first_agreement_reference,
    # the pair search that walks both sides as state sets; the oracle's line
    # is the one that search gave.
    src, out, stats = tmp_path / "a.nfa", tmp_path / "c.nfa", tmp_path / "s.json"
    code, text, _err = run(capsys, "generate", "-f", "reverse", "-n", str(n))
    src.write_text(text)
    code, _out, err = run(capsys, "complement", "-m", "forward", "-i", str(src), "-o", str(out), "--verify",
                          "--stats", str(stats))
    assert (code, err) == (0, "")
    a, c = fileformat.parse(src.read_text()), fileformat.parse(out.read_text())
    word, pairs, finished = helpers.first_agreement_reference(a, c, None, cli.DEFAULT_MACRO_BUDGET)
    assert (word, finished) == (None, True)
    verify = json.loads(stats.read_text())["verify"]
    assert (verify["verdict"], verify["pairs"]) == ("exact", pairs) == ("exact", 2 ** (n + 1))
    assert run(capsys, "oracle", "-a", str(src), "-c", str(out), "--max-len", "12") == (0, "OK (8191 words)\n", "")


def test_stats_command(capsys, a2_file):
    code, out, _ = run(capsys, "stats", "-i", a2_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "NFA"
    assert doc["name"] == "A2"
    assert doc["states"] == 4
    assert doc["transitions"] == 7
    assert doc["alphabet"] == ["a", "b"]
    assert doc["deterministic"] is False
    assert doc["complete"] is False
    assert doc["reverse_deterministic"] is True
    assert doc["scc_count"] == 4
    assert doc["det_successor_scores"] == {"chosen": "reverse", "forward": 6, "reverse": 5}


def test_stats_port(capsys, tmp_path):
    p = tmp_path / "p.nfa"
    p.write_text("@PortNFA p\n%Alphabet a\n%Entry 0 0\n%Exit 0 1\n0 a 1\n")
    code, out, _ = run(capsys, "stats", "-i", str(p))
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "PortNFA"
    assert doc["entry_ports"] == [[0]]
    assert doc["exit_ports"] == [[1]]


def test_exit_codes(capsys, tmp_path, a2_file):
    bad = tmp_path / "bad.nfa"
    bad.write_text("@NFA x\n%Alphabet a\n0 q 1\n")
    code, _out, err = run(capsys, "complement", "-m", "forward", "-i", str(bad))
    assert code == 2
    assert "line 3, column 3: unknown symbol 'q'" in err

    loop = tmp_path / "loop.nfa"
    loop.write_text("@NFA loop\n%Alphabet a\n%Initial 0\n%Final 0\n0 a 0\n")
    code, _out, err = run(capsys, "complement", "-m", "gate", "-i", str(loop))
    assert code == 3
    assert "no usable gate partition" in err

    code, _out, err = run(capsys, "complement", "-m", "forward", "-i", a2_file, "--budget", "2")
    assert code == 4
    assert "budget" in err

    code, _out, err = run(capsys, "complement", "-m", "forward", "-i", str(tmp_path / "nope"))
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("text, message", [
    (b"@NFA x\n\xff\n", "line 1, column 1: file is not valid UTF-8 (invalid start byte)"),
    (b"@NFA a b\n", "line 1, column 1: @NFA header takes exactly one name"),
    (b"@NFA x\n%Alphabet\n", "line 2, column 1: %Alphabet needs at least one symbol"),
    (b"@NFA x\n%Alphabet a\n%Initial 0\n%Final 0\n%Final 0\n", "line 5, column 1: duplicate %Final"),
    (b"@PortNFA p\n%Alphabet a\n%Entry\n", "line 3, column 1: %Entry needs a port index"),
    (b"@PortNFA p\n%Alphabet a\n%Exit -1 0\n", "line 3, column 7: port index must be nonnegative"),
], ids=["utf8", "header-names", "empty-alphabet", "duplicate-final", "port-without-index", "negative-index"])
def test_parse_errors_exit_2_with_their_text(capsys, tmp_path, text, message):
    bad = tmp_path / "bad.nfa"
    bad.write_bytes(text)
    assert run(capsys, "complement", "-m", "forward", "-i", str(bad)) == (2, "", f"error: {message}\n")


def test_module_runs_as_a_script(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["nfacomp", "generate", "-f", "reverse", "-n", "1"])
    with warnings.catch_warnings():
        # runpy notes that nfacomp.cli is already imported; the fresh copy is what runs.
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("nfacomp.cli", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out == fileformat.serialize(reverse_friendly(1))


def test_budget_zero_cuts_even_one_macrostate(capsys, tmp_path):
    loop = tmp_path / "loop.nfa"
    loop.write_text("@NFA loop\n%Alphabet a\n%Initial 0\n%Final 0\n0 a 0\n")
    code, _out, err = run(capsys, "complement", "-m", "forward", "-i", str(loop), "--budget", "0")
    assert code == 4
    assert "budget" in err
    code, _out, _err = run(capsys, "complement", "-m", "forward", "-i", str(loop), "--budget", "1")
    assert code == 0


def test_portfolio_with_no_finished_method_exits_4(capsys, a2_file):
    code, _out, err = run(capsys, "complement", "-m", "portfolio", "-i", a2_file, "--budget", "0")
    assert code == 4
    assert "no portfolio method finished within budget" in err


def test_port_input_restricted_to_powerset_methods(capsys, tmp_path):
    p = tmp_path / "p.nfa"
    p.write_text("@PortNFA p\n%Alphabet a\n%Entry 0 0\n%Exit 0 1\n0 a 1\n")
    out_path = tmp_path / "c.nfa"
    code, _out, _err = run(capsys, "complement", "-m", "forward", "-i", str(p), "-o", str(out_path))
    assert code == 0
    assert isinstance(fileformat.parse(out_path.read_text()), core.PortNfa)
    code, _out, err = run(capsys, "complement", "-m", "gate", "-i", str(p))
    assert code == 1
    assert "plain @NFA inputs only" in err


def test_minimize_refuses_a_port_output(capsys, tmp_path):
    p = tmp_path / "p.nfa"
    p.write_text("@PortNFA p\n%Alphabet a\n%Entry 0 0\n%Exit 0 1\n0 a 1\n")
    code, _out, err = run(capsys, "complement", "-m", "forward", "--minimize", "-i", str(p))
    assert code == 1
    assert "--minimize applies to plain automata only" in err


def test_minimize_refuses_a_nondeterministic_output(capsys, tmp_path):
    src = tmp_path / "a3.nfa"
    src.write_text(fileformat.serialize(reverse_friendly(3)))
    out_path = tmp_path / "c.nfa"
    code, out, err = run(
        capsys, "complement", "-m", "reverse", "--minimize", "-i", str(src), "-o", str(out_path)
    )
    assert (code, out) == (1, "")
    assert "hopcroft_minimize needs a deterministic automaton" in err
    assert not out_path.exists()


def test_negative_budget_is_a_usage_error(capsys, tmp_path, a2_file):
    # argparse refuses it before any construction runs: exit 2, not 4.
    for argv in (
        ("complement", "-m", "forward", "-i", a2_file, "--budget", "-1"),
        ("check", "--relation", "equiv", "-a", a2_file, "-b", a2_file, "--budget", "-1"),
        ("complement", "-m", "forward", "-i", a2_file, "--budget", "x"),
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2
        assert "--budget" in capsys.readouterr().err


def test_numbers_out_of_range_are_usage_errors(capsys, a2_file):
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle", "-a", a2_file, "-c", a2_file, "--max-len", "-1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "nfacomp oracle: error: argument --max-len: must be non-negative, got -1\n"
    )
    assert run(capsys, "generate", "-f", "reverse", "-n", "-1") == (
        2, "", "error: family index must be nonnegative\n"
    )
    assert run(capsys, "generate", "-f", "gate", "-n", "0") == (
        2, "", "error: family index must be at least 1\n"
    )


def test_portfolio_lists_the_methods_it_skipped(capsys, tmp_path):
    def portfolio(text, *extra):
        src = tmp_path / "in.nfa"
        src.write_text(text)
        stats_path = tmp_path / "s.json"
        code, _out, _err = run(
            capsys, "complement", "-m", "portfolio", "-i", str(src),
            "-o", str(tmp_path / "c.nfa"), "--stats", str(stats_path), *extra,
        )
        assert code == 0
        doc = json.loads(stats_path.read_text())
        return [r["method"] for r in doc["reports"]], doc["skipped"]

    # Gate runs first and finishes with 15 states; every other method is cut
    # once it cannot beat that, or runs out of budget first.
    ran, skipped = portfolio(fileformat.serialize(gate_chain(4)), "--budget", "64")
    assert ran == ["gate"]
    assert skipped == [
        {"method": "forward", "outcome": "cut"},
        {"method": "reverse", "outcome": "cut"},
        {"method": "sequential", "outcome": "cut"},
    ]
    # At budget 16 forward and reverse run out, but the 16 macrostates each
    # discovered all accept, which reaches their bar of 16 (gate's 15, plus one
    # for coming first in the tie order): cut before budget.  At 15, below
    # that bar, every one runs out.
    ran, skipped = portfolio(fileformat.serialize(gate_chain(4)), "--budget", "16")
    assert ran == ["gate"]
    assert skipped == [
        {"method": "forward", "outcome": "cut"},
        {"method": "reverse", "outcome": "cut"},
        {"method": "sequential", "outcome": "cut"},
    ]
    ran, skipped = portfolio(fileformat.serialize(gate_chain(4)), "--budget", "15")
    assert ran == ["gate"]
    assert skipped == [
        {"method": "forward", "outcome": "budget"},
        {"method": "reverse", "outcome": "budget"},
        {"method": "sequential", "outcome": "budget"},
    ]

    ran, skipped = portfolio(fileformat.serialize(sequential_chain(2)))
    assert ran == ["forward", "reverse", "sequential"]
    assert skipped == [{"method": "gate", "outcome": "no_partition"}]

    ran, skipped = portfolio("@PortNFA p\n%Alphabet a\n%Entry 0 0\n%Exit 0 1\n0 a 1\n")
    assert ran == ["forward", "reverse"]
    assert skipped == [
        {"method": "sequential", "outcome": "unsupported"},
        {"method": "gate", "outcome": "unsupported"},
    ]


def test_consecutive_calls_leak_no_state(capsys, tmp_path, a2_file, monkeypatch):
    # The parser is built once per process; each call must still start from
    # its own subcommand's defaults.
    def complement(name, *extra):
        path = tmp_path / name
        code, _out, _err = run(capsys, "complement", "-m", "forward", "-i", a2_file, "-o", str(path), *extra)
        assert code == 0
        return path.read_text()

    plain = complement("first.nfa")
    assert fileformat.parse(complement("min.nfa", "--minimize")).num_states == 8
    assert complement("plain.nfa") == plain

    with pytest.raises(SystemExit) as exc:
        cli.main(["complement", "-m", "nosuch", "-i", a2_file])
    assert exc.value.code == 2
    capsys.readouterr()
    assert complement("after_error.nfa") == plain

    budgets = []
    inclusion = core.antichain_inclusion

    def recorded(a, b, *, budget=None):
        budgets.append(budget)
        return inclusion(a, b, budget=budget)

    monkeypatch.setattr(core, "antichain_inclusion", recorded)
    complement("budget.nfa", "--budget", "4096")
    code, _out, _err = run(capsys, "check", "--relation", "incl", "-a", a2_file, "-b", a2_file)
    assert code == 0
    assert budgets == [cli.DEFAULT_ANTICHAIN_BUDGET]


def port_slices_complemented(p, c, max_len=5):
    return (c.num_entry, c.num_exit) == (p.num_entry, p.num_exit) and all(
        helpers.brute_complement_ok(p.slice(i, j), c.slice(i, j), max_len)
        for i in range(p.num_entry)
        for j in range(p.num_exit)
    )


@pytest.mark.parametrize("extra", [(), ("--reduce",)], ids=["plain", "reduce"])
@pytest.mark.parametrize("method", ["forward", "reverse"])
def test_port_complement_from_the_cli(capsys, tmp_path, method, extra):
    rng = random.Random(20250705)
    src, out_path = tmp_path / "p.nfa", tmp_path / "c.nfa"
    ports = (core.trim(helpers.random_port_nfa(rng, max_states=6)) for _ in range(40))
    for p in [p for p in ports if p.num_states][:12]:  # a file holds no isolated state
        src.write_text(fileformat.serialize(p))
        code, _out, _err = run(capsys, "complement", "-m", method, "-i", str(src), "-o", str(out_path), *extra)
        assert code == 0
        c = fileformat.parse(out_path.read_text())
        assert isinstance(c, core.PortNfa)
        assert port_slices_complemented(p, c)


@pytest.mark.parametrize("strategy", ["det", "detrev", "mincut"])
def test_sequential_strategy_from_the_cli(capsys, tmp_path, strategy):
    out_path, stats_path = tmp_path / "c.nfa", tmp_path / "s.json"
    for a in (sequential_chain(3), gate_chain(2)):
        src = tmp_path / "in.nfa"
        src.write_text(fileformat.serialize(a))
        code, _out, _err = run(
            capsys, "complement", "-m", "sequential", "--strategy", strategy,
            "-i", str(src), "-o", str(out_path), "--stats", str(stats_path),
        )
        assert code == 0
        c = fileformat.parse(out_path.read_text())
        assert helpers.brute_complement_ok(a, c, 6)
        assert json.loads(stats_path.read_text())["output_states"] == c.num_states


def test_sequential_on_one_component_is_the_forward_complement(capsys, tmp_path):
    # 0 -a-> 1, 1 -a,b-> 1, 1 -a-> 0: one strongly connected component.  Its
    # forward complement has 4 macrostates, and trimming drops the two that
    # contain 1, from which every word is accepted.
    a = core.Nfa.build(("a", "b"), 2, [(0, "a", 1), (1, "a", 1), (1, "b", 1), (1, "a", 0)], {0}, {1}, name="one")
    assert len(core.scc_condensation(a).components) == 1
    src, stats_path = tmp_path / "in.nfa", tmp_path / "s.json"
    src.write_text(fileformat.serialize(a))
    code, forward, _ = run(capsys, "complement", "-m", "forward", "-i", str(src))
    assert code == 0
    code, seq, _ = run(
        capsys, "complement", "-m", "sequential", "--strategy", "det", "--rear", "forward",
        "-i", str(src), "--stats", str(stats_path),
    )
    assert code == 0 and seq == forward
    doc = json.loads(stats_path.read_text())
    assert doc["output_states_pre_trim"] == doc["partition_summary"]["stage_sizes"][0] == 4
    assert doc["output_states"] == fileformat.parse(seq).num_states == 2


_SOURCES = tuple(
    fileformat.serialize(a)
    for a in (
        reverse_friendly(2), sequential_chain(2), gate_chain(1),
        *(helpers.random_port_nfa(random.Random(seed), max_states=5) for seed in range(3)),
    )
)
# Inserted pieces are short, and digits come one at a time, so that no run of
# edits can write a port index large enough to matter.  The whole lines keep
# many mutants parseable, so that they reach the constructions.
_PIECES = (
    " ", "#", "a", "x", "0", "-", "@NFA", "%Alphabet", "%Bogus", "é", "\x00",
    "\n0 a 1", "\n1 b 0", "\nx c x", "\n%Initial 1", "\n%Final", "\n%Entry 1 0", "\n%Exit 2", "\n%Exit 0",
)
_edits = st.lists(
    st.tuples(st.sampled_from(("insert", "delete", "drop_line", "dup_line")), st.integers(0, 10**6),
              st.sampled_from(_PIECES)),
    max_size=4,
)


def _mutate(text: str, edits) -> str:
    for op, pos, piece in edits:
        lines = text.split("\n")
        i, k = pos % (len(text) + 1), pos % len(lines)
        if op == "insert":
            text = text[:i] + piece + text[i:]
        elif op == "delete":
            text = text[:i] + text[i + len(piece):]
        elif op == "drop_line":
            text = "\n".join(lines[:k] + lines[k + 1:])
        else:
            text = "\n".join(lines[:k + 1] + lines[k:])
    return text


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    a_text=st.sampled_from(_SOURCES), a_edits=_edits,
    b_text=st.sampled_from(_SOURCES), b_edits=_edits,
    method=st.sampled_from(cli.METHODS), post=st.sampled_from(((), ("--minimize",), ("--reduce",))),
    budget=st.sampled_from(("0", "64", "4096")), relation=st.sampled_from(("equiv", "incl", "disjoint")),
    family=st.sampled_from(("reverse", "sequential", "gate", "bogus")), n=st.integers(-2, 4),
)
def test_mutated_files_never_give_a_traceback(a_text, a_edits, b_text, b_edits, method, post, budget,
                                              relation, family, n):
    with tempfile.TemporaryDirectory() as tmp:
        a, b, out = (os.path.join(tmp, name) for name in ("a.nfa", "b.nfa", "out.nfa"))
        with open(a, "w", encoding="utf-8") as fh:
            fh.write(_mutate(a_text, a_edits))
        with open(b, "w", encoding="utf-8") as fh:
            fh.write(_mutate(b_text, b_edits))
        commands = (
            ["complement", "-m", method, *post, "--budget", budget, "-i", a, "-o", out],
            ["check", "--relation", relation, "-a", a, "-b", b, "--budget", budget],
            ["oracle", "-a", a, "-c", b, "--max-len", "3"],
            ["stats", "-i", a],
            ["generate", "-f", family, "-n", str(n), "-o", out],
        )
        for argv in commands:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse rejects the command line
                    code = exc.code
            assert code in (0, 1, 2, 3, 4), (argv, code)
            assert "Traceback" not in err.getvalue(), argv
