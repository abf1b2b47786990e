"""Byte-level regression guard: every complement method on a fixed corpus.

``golden_digests.json`` records, for each method and input, the sha256 of the
text ``nfacomp complement -m <method> --budget 4096`` writes, or the name of
the exception the command raises.  The corpus is the three witness families
at n = 1..6 plus 200 seeded random NFAs.  These runs also check every output
exactly against its input (``--verify``).

``golden_postpass_digests.json`` does the same for the post-passes: ``-m
forward --minimize``, ``-m forward --reduce`` and ``-m reverse --reduce`` on
that corpus, and the two ``--reduce`` runs also on 100 seeded random port
NFAs.  ``golden_port_digests.json`` holds plain ``-m forward`` and ``-m
reverse`` on those port NFAs.

``golden_gate_digests.json`` pins the gate construction itself, route by
route: the untrimmed ``apply_gate_complement`` result for every partition
``find_gate_partitions`` returns on the corpus and on 2,000 seeded random
NFAs over three symbols (which reach all eight direction / method /
intersection routes), and ``gate_complement_basic`` on seeded component
pairs.  An entry is the sha256 of a canonical text of the automaton, since
``serialize`` refuses the isolated states some untrimmed results have.
``golden_sequential_digests.json`` pins ``seq_complement_basic`` the same way
on seeded component pairs, or the text of the ``ValueError`` it raises.

Regenerate the files only when an output change is intended and explained:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import pathlib
import random
from unittest import mock

import pytest

import helpers
from nfacomp import cli, gate, sequential
from nfacomp.errors import NfacompError
from nfacomp.families import FAMILY_KINDS, generate_family

BUDGET = 4096
SEED = 20250703
PORT_SEED = 20250704
GATE_SEED = 8
BASIC_SEED = 20250705
SEQ_BASIC_SEED = 9
DIGESTS = pathlib.Path(__file__).with_name("golden_digests.json")
POSTPASS_DIGESTS = pathlib.Path(__file__).with_name("golden_postpass_digests.json")
PORT_DIGESTS = pathlib.Path(__file__).with_name("golden_port_digests.json")
GATE_DIGESTS = pathlib.Path(__file__).with_name("golden_gate_digests.json")
SEQUENTIAL_DIGESTS = pathlib.Path(__file__).with_name("golden_sequential_digests.json")
PORT_METHODS = ("forward", "reverse")
# (method, post-pass flag, whether the port corpus is run too)
POSTPASSES = (
    ("forward", "--minimize", False),
    ("forward", "--reduce", True),
    ("reverse", "--reduce", True),
)


def corpus():
    for kind in FAMILY_KINDS:
        for n in range(1, 7):
            yield f"{kind}-{n}", generate_family(kind, n)
    rng = random.Random(SEED)
    for i in range(200):
        yield f"random-{i:03d}", helpers.random_nfa(rng, max_states=10, max_syms=2)


def port_corpus():
    rng = random.Random(PORT_SEED)
    for i in range(100):
        yield f"port-{i:03d}", helpers.random_port_nfa(rng, max_states=8)


def gate_corpus():
    yield from corpus()
    rng = random.Random(GATE_SEED)
    for i in range(2000):
        yield f"gate3-{i:04d}", helpers.random_nfa(rng, max_states=8, max_syms=3)


def canonical_digest(a):
    """sha256 of the automaton's states, transitions, ports and names."""
    text = json.dumps([
        a.alphabet,
        a.num_states,
        sorted(a.transitions),
        [sorted(e) for e in a.entry_sets],
        [sorted(x) for x in a.exit_sets],
        a.state_names,
    ])
    return hashlib.sha256(text.encode()).hexdigest()


def guarded_digest(build):
    try:
        return canonical_digest(build())
    except NfacompError as exc:
        return type(exc).__name__


def partition_digests():
    out = {}
    for key, a in gate_corpus():
        for p in gate.find_gate_partitions(a.as_port(), check_budget=cli.DEFAULT_ANTICHAIN_BUDGET):
            front = ",".join(map(str, p.base.front_states))
            out[f"{key} {front}"] = guarded_digest(lambda: gate.apply_gate_complement(p, budget=BUDGET))
    return out


def basic_digests():
    rng = random.Random(BASIC_SEED)
    out = {}
    for i in range(200):
        a1, a2 = helpers.random_gate_instance(rng, max_component_states=6)
        out[f"basic-{i:03d}"] = guarded_digest(
            lambda: gate.gate_complement_basic(a1, a2, "c", budget=BUDGET)
        )
    return out


GATE_TABLES = {"partitions": partition_digests, "basic": basic_digests}


def seq_basic_digests():
    rng = random.Random(SEQ_BASIC_SEED)
    out = {}
    for i in range(300):
        a1, a2 = helpers.random_gate_instance(rng, max_component_states=6)
        try:
            out[f"seq-basic-{i:03d}"] = guarded_digest(
                lambda: sequential.seq_complement_basic(a1, a2, "c", budget=BUDGET)
            )
        except ValueError as exc:  # components that are not single-final / single-initial
            out[f"seq-basic-{i:03d}"] = f"ValueError: {exc}"
    return out


def run_complement(method, a, *flags):
    """The texts ``complement -m <method>`` writes, by file name, or the exception name.

    The command reads ``a`` and writes its output (``out``) and any stats
    (``stats``) in memory, so that random automata with isolated states need
    no round trip through a file.
    """
    written = {}
    args = cli._build_parser().parse_args(
        ["complement", "-m", method, "--budget", str(BUDGET), *flags, "-i", "in", "-o", "out"]
    )
    with mock.patch.object(cli, "_read_automaton", lambda _path: a), \
            mock.patch.object(cli, "_write_text", written.__setitem__):
        try:
            args.fn(args)
        except (NfacompError, ValueError) as exc:  # the errors the CLI maps to exit codes
            return type(exc).__name__
    return written


def outcome(method, a, *flags):
    """sha256 of the complement text the CLI writes, or the exception name."""
    written = run_complement(method, a, *flags)
    return written if isinstance(written, str) else hashlib.sha256(written["out"].encode()).hexdigest()


def digests(method):
    return {key: outcome(method, a) for key, a in corpus()}


def postpass_digests(method, flag, ports):
    inputs = list(corpus()) + (list(port_corpus()) if ports else [])
    return {key: outcome(method, a, flag) for key, a in inputs}


def port_digests(method):
    return {key: outcome(method, a) for key, a in port_corpus()}


def assert_same(expected, got):
    changed = sorted(k for k in expected if got.get(k) != expected[k])
    assert not changed, f"{len(changed)} outputs changed, first: {changed[:5]}"
    assert got.keys() == expected.keys()


@pytest.mark.parametrize("method", cli.METHODS)
def test_outputs_match_golden_digests(method):
    # Each run also verifies its output exactly (--verify): a wrong
    # complement fails the run, and the digest with it.  A check that would
    # reach more than BUDGET pairs is cut and settles nothing; on this corpus
    # none is.
    got, cuts = {}, 0
    for key, a in corpus():
        written = run_complement(method, a, "--verify", "--stats", "stats")
        if isinstance(written, str):
            got[key] = written
            continue
        got[key] = hashlib.sha256(written["out"].encode()).hexdigest()
        cuts += json.loads(written["stats"])["verify"]["verdict"] == "budget"
    assert_same(json.loads(DIGESTS.read_text())[method], got)
    assert cuts == 0


@pytest.mark.parametrize("method, flag, ports", POSTPASSES)
def test_postpass_outputs_match_golden_digests(method, flag, ports):
    expected = json.loads(POSTPASS_DIGESTS.read_text())[f"{method} {flag}"]
    assert_same(expected, postpass_digests(method, flag, ports))


@pytest.mark.parametrize("method", PORT_METHODS)
def test_port_outputs_match_golden_digests(method):
    assert_same(json.loads(PORT_DIGESTS.read_text())[method], port_digests(method))


@pytest.mark.parametrize("table", GATE_TABLES)
def test_gate_constructions_match_golden_digests(table):
    assert_same(json.loads(GATE_DIGESTS.read_text())[table], GATE_TABLES[table]())


def test_seq_complement_basic_matches_golden_digests():
    assert_same(json.loads(SEQUENTIAL_DIGESTS.read_text())["basic"], seq_basic_digests())


if __name__ == "__main__":
    table = {m: digests(m) for m in cli.METHODS}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    table = {f"{m} {flag}": postpass_digests(m, flag, ports) for m, flag, ports in POSTPASSES}
    POSTPASS_DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    table = {m: port_digests(m) for m in PORT_METHODS}
    PORT_DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    table = {name: build() for name, build in GATE_TABLES.items()}
    GATE_DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    table = {"basic": seq_basic_digests()}
    SEQUENTIAL_DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
