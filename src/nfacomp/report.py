"""Structured run statistics emitted by the command-line driver."""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass(frozen=True)
class ComplementReport:
    """What one complementation run did, sized before and after trimming.

    ``partition_summary`` is free-form per method (sequential records the
    strategy and component sizes, gate the chosen direction/condition);
    ``heuristic_scores`` carries the forward/reverse scores when the auto
    method evaluated them.  ``output_states_pre_trim`` never undercounts the
    final output.
    """

    method: str
    input_states: int
    output_states_pre_trim: int
    output_states: int
    transitions: int
    wall_time_ms: float
    partition_summary: dict | None = field(default=None)
    heuristic_scores: dict | None = field(default=None)

    def __post_init__(self):
        if self.output_states > self.output_states_pre_trim:
            raise ValueError("trimming cannot add states")

    def as_dict(self) -> dict:
        """The set fields by name; the summaries are shared, not copied."""
        return {f.name: v for f in fields(self) if (v := getattr(self, f.name)) is not None}
