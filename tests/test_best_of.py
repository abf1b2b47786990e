"""The best-of choices (``-m portfolio`` and ``seq_pipeline_best``) against
references that build every candidate in full: the same choice, the same
output and the same reported sizes."""

import collections
import itertools
import json
import random

import pytest

import helpers
import test_sequential
from nfacomp import cli, core, fileformat, powerset, sequential
from nfacomp.errors import BudgetExceededError, CutError
from nfacomp.families import gate_chain, reverse_friendly, sequential_chain
from nfacomp.powerset import Direction

RUN_ORDER = ("gate", "sequential", "forward", "reverse")  # a candidate is judged against those before it


def corpus():
    """Families, seeded random and gate-joined NFAs, port NFAs and inputs over 64 states."""
    for family in (reverse_friendly, sequential_chain, gate_chain):
        for n in (1, 3, 5, 6):
            yield f"{family.__name__}{n}", family(n)
    rng = random.Random(2701)
    for k in range(30):
        yield f"random{k}", helpers.random_nfa(rng, max_states=9)
    for k in range(12):
        yield f"joined{k}", helpers.concat_with_gate(*helpers.random_gate_instance(rng, 6), "c")
    for k in range(6):
        yield f"port{k}", helpers.random_port_nfa(rng, 6)
    yield "seq31", sequential_chain(31)
    yield "gate30", gate_chain(30)
    yield "rev64", reverse_friendly(64)


def run_portfolio(tmp_path, a, budget):
    src, dst, stats = tmp_path / "a.nfa", tmp_path / "c.nfa", tmp_path / "s.json"
    src.write_text(fileformat.serialize(a))
    argv = ["complement", "-m", "portfolio", "--budget", str(budget), "-i", str(src), "-o", str(dst)]
    code = cli.main(argv + ["--stats", str(stats)])
    if code != 0:
        return code, None, None
    return code, json.loads(stats.read_text()), dst.read_text()


def rank(method):
    return helpers.PORTFOLIO_ORDER.index(method)


def check_portfolio(tmp_path, name, a, budget, seen):
    """One portfolio run against the reference; ``seen`` counts what the case covered."""
    try:
        a = fileformat.parse(fileformat.serialize(a))  # as the command line reads it
    except ValueError:  # a state in no transition and no state set: no file holds it
        return
    want, selected, finished, skipped = helpers.portfolio_reference(a, budget)
    code, doc, text = run_portfolio(tmp_path, a, budget)
    if want is None:
        assert code == 4, name
        seen["nothing finished"] += 1
        return
    assert code == 0, name
    if want.name is None and a.name is not None:
        want = core._view(want, name=f"{a.name}_complement")
    assert doc["selected"] == selected, name
    assert text == fileformat.serialize(want), name
    reports = {r["method"]: r for r in doc["reports"]}
    assert list(reports) == sorted(reports, key=rank), name
    assert selected in reports, name
    for method, r in reports.items():
        states, pre, transitions, summary = finished[method]
        assert (r["output_states"], r["output_states_pre_trim"], r["transitions"]) == (states, pre, transitions), name
        got = dict(r.get("partition_summary", {}))
        if method == "sequential":  # a strategy's attempt may read "cut"; the winner's numbers may not
            got.pop("attempts")
            summary = {k: v for k, v in summary.items() if k != "attempts"}
        assert got == (summary or {}), (name, method)
    outcomes = {s["method"]: s["outcome"] for s in doc["skipped"]}
    assert [s["method"] for s in doc["skipped"]] == sorted(outcomes, key=rank), name
    assert set(outcomes) | set(reports) == set(helpers.PORTFOLIO_ORDER), name
    for method, outcome in outcomes.items():
        if outcome == "cut":
            # A cut method could not have won: its full build, if it finishes, loses.
            seen[f"{method} cut"] += 1
            if method in finished:
                assert (finished[method][0], rank(method)) > (finished[selected][0], rank(selected)), name
        else:
            assert skipped[method] == outcome, (name, method)
            seen[outcome] += 1
    sizes = sorted(v[0] for v in finished.values())
    seen["tie"] += len(sizes) > 1 and sizes[0] == sizes[1]
    for k, method in enumerate(RUN_ORDER):
        earlier = [m for m in RUN_ORDER[:k] if m in finished]
        if method in finished and any((finished[m][0], rank(m)) < (finished[method][0], rank(method)) for m in earlier):
            seen[f"{method} beaten by an earlier run"] += 1


@pytest.mark.parametrize("budget", [4096, 40])
def test_portfolio_matches_the_build_every_candidate_reference(tmp_path, budget):
    seen = collections.Counter()
    for name, a in corpus():
        check_portfolio(tmp_path, name, a, budget, seen)
    assert seen["tie"] > 5, seen
    for method in RUN_ORDER[1:]:
        assert seen[f"{method} beaten by an earlier run"] > 0, seen
        assert seen[f"{method} cut"] > 0, seen
    assert seen["no_partition"] > 0 and seen["unsupported"] > 0, seen
    if budget == 40:
        assert seen["budget"] > 0, seen


def test_portfolio_with_nothing_finished_matches_the_reference(tmp_path):
    seen = collections.Counter()
    check_portfolio(tmp_path, "gate_chain4", gate_chain(4), 0, seen)
    assert seen["nothing finished"] == 1


def check_seq_best(name, a, rear, budget, seen):
    """``seq_pipeline_best`` against the reference."""
    want_stats, stats = {}, {}
    try:
        want = helpers.seq_pipeline_best_reference(a, rear, budget=budget, stats=want_stats)
    except BudgetExceededError:
        with pytest.raises(BudgetExceededError):
            sequential.seq_pipeline_best(a, rear, budget=budget)
        seen["budget"] += 1
        return
    out, strat = sequential.seq_pipeline_best(a, rear, budget=budget, stats=stats)
    assert (strat, fileformat.serialize(out)) == (want[1], fileformat.serialize(want[0])), name
    attempts, want_attempts = stats.pop("attempts"), want_stats.pop("attempts")
    assert stats == want_stats, name
    best = out.num_states
    for got, ref in zip(attempts, want_attempts, strict=True):
        if got["outcome"] == "cut":
            seen["cut"] += 1
            assert ref["outcome"] == "budget" or ref["states"] >= best, name
        else:
            assert got == ref, name
    states = [x["states"] for x in want_attempts if x["outcome"] == "ok"]
    seen["tie"] += states.count(best) > 1
    seen["later loses"] += any(s >= best for s in states[1:])


@pytest.mark.parametrize("rear", list(Direction))
def test_seq_pipeline_best_matches_the_build_every_strategy_reference(rear):
    seen = collections.Counter()
    for budget in (4096, 40):
        for name, a in corpus():
            if not isinstance(a, core.PortNfa):
                check_seq_best(name, a, rear, budget, seen)
    assert seen["tie"] > 0 and seen["later loses"] > 0 and seen["budget"] > 0 and seen["cut"] > 0, seen


def check_seq_bar(name, a, rear, bar, seen):
    """``seq_pipeline_best`` under a caller's ``bar``: the reference's choice
    whenever that is below the bar; a cut only when it is not."""
    try:
        want = helpers.seq_pipeline_best_reference(a, rear, budget=4096)
    except BudgetExceededError:
        want = None
    try:
        out, strat = sequential.seq_pipeline_best(a, rear, budget=4096, bar=bar)
    except CutError:
        assert want is None or want[0].num_states >= bar, name
        seen["cut"] += 1
        return
    except BudgetExceededError:
        assert want is None, name
        return
    assert (strat, fileformat.serialize(out)) == (want[1], fileformat.serialize(want[0])), name
    seen["below" if out.num_states < bar else "not below"] += 1


@pytest.mark.parametrize("rear", list(Direction))
def test_seq_pipeline_best_under_a_bar_keeps_every_result_below_it(rear):
    seen = collections.Counter()
    for name, a in corpus():
        if isinstance(a, core.PortNfa):
            continue
        try:
            size = helpers.seq_pipeline_best_reference(a, rear, budget=4096)[0].num_states
        except BudgetExceededError:
            size = 8
        for bar in (0, 1, size // 2, size, size + 1):
            check_seq_bar(name, a, rear, bar, seen)
    assert min(seen[k] for k in ("cut", "below", "not below")) > 5, seen


def _error_or_built(run):
    try:
        run()
    except (BudgetExceededError, CutError) as exc:
        return "cut" if isinstance(exc, CutError) else "budget"
    return "built"


def test_a_candidate_that_runs_out_of_budget_is_cut_once_its_bar_is_reached():
    """One rule for both bars, cut before budget: a powerset direction or a
    composition that runs out of budget is cut when the accepting states it
    discovered within the budget reach its bar, and runs out otherwise.  A
    composition that finishes is cut by the same count."""
    # All 15 macrostates the budget admits accept, and the bar is 1.
    with pytest.raises(CutError):
        powerset._explore_port(reverse_friendly(6), 15, complement=True, bar=1)
    seen = collections.Counter()
    rng = random.Random(3211)
    inputs = [reverse_friendly(6), gate_chain(3), sequential_chain(3)] + [helpers.random_nfa(rng) for _ in range(20)]
    for a, direction in itertools.product(inputs, Direction):
        rows = powerset._port_rows(a, direction is Direction.REVERSE)
        x = powerset._explore_port(a, None, complement=True, directions=(direction,))
        accepts = [any(m & em == 0 for em in rows.accepting) for m in x.macros]
        for budget in range(len(x.macros)):
            for bar in {1, 2, sum(accepts[:budget]), sum(accepts[:budget]) + 1} - {0}:
                want = "cut" if sum(accepts[:budget]) >= bar else "budget"
                run = lambda: powerset._explore_port(a, budget, complement=True, directions=(direction,), bar=bar)
                assert _error_or_built(run) == want, (a, direction, budget, bar)
                seen[f"direction {want}"] += 1
    for det_p, c2 in test_sequential.composition_cases()[::2]:
        out = sequential._compose(det_p, c2, None)[0]
        count, accepting = out.num_states, sorted(out.exit_sets[0])
        for budget in sorted({0, 1, count // 2, max(count - 1, 0), count, count + 1}):
            within = sum(i < budget for i in accepting)
            for bar in {1, 2, within, within + 1} - {0}:
                want = "cut" if within >= bar else "budget" if budget < count else "built"
                assert _error_or_built(lambda: sequential._compose(det_p, c2, budget, bar)) == want
                seen[f"composition {want}"] += 1
    assert min(seen.values()) > 100 and len(seen) == 5, seen
