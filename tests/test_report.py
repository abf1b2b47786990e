import dataclasses

import pytest

from nfacomp.report import ComplementReport


def test_as_dict_drops_unset_optionals():
    r = ComplementReport(
        method="reverse",
        input_states=4,
        output_states_pre_trim=5,
        output_states=4,
        transitions=7,
        wall_time_ms=0.25,
    )
    d = r.as_dict()
    assert d == {
        "method": "reverse",
        "input_states": 4,
        "output_states_pre_trim": 5,
        "output_states": 4,
        "transitions": 7,
        "wall_time_ms": 0.25,
    }
    assert "partition_summary" not in d and "heuristic_scores" not in d


def test_optional_sections_survive():
    r = ComplementReport(
        method="auto",
        input_states=4,
        output_states_pre_trim=5,
        output_states=4,
        transitions=7,
        wall_time_ms=1.0,
        heuristic_scores={"forward": 6, "reverse": 5},
    )
    assert r.as_dict()["heuristic_scores"] == {"forward": 6, "reverse": 5}


def test_trim_can_only_shrink():
    with pytest.raises(ValueError):
        ComplementReport(
            method="forward",
            input_states=4,
            output_states_pre_trim=3,
            output_states=4,
            transitions=0,
            wall_time_ms=0.0,
        )


def test_as_dict_equals_the_deep_copy_of_asdict():
    summary = {
        "strategy": "det",
        "attempts": [{"strategy": "det", "stage_sizes": [3, 4]}, {"strategy": "mincut", "error": "budget"}],
        "complements": [{"side": "front", "forward": 3, "reverse": "budget", "chosen": "forward"}],
    }
    for scores in (None, {"forward": 6, "reverse": 5}):
        r = ComplementReport(
            method="portfolio",
            input_states=4,
            output_states_pre_trim=5,
            output_states=4,
            transitions=7,
            wall_time_ms=1.0,
            partition_summary=summary,
            heuristic_scores=scores,
        )
        assert r.as_dict() == {k: v for k, v in dataclasses.asdict(r).items() if v is not None}
