"""nfacomp: NFA complementation via powerset, sequential, and gate methods.

The interesting objects live in submodules (core, powerset, heuristic,
sequential, gate, reduction, families, oracle, fileformat); this namespace
re-exports the pieces most callers want.
"""

from ._kernels import backend_name
from .core import (
    Nfa,
    PortNfa,
    SequentialPartition,
    accepts,
    antichain_inclusion,
    language_disjoint,
    language_equivalent,
)
from .errors import BudgetExceededError, CutError, NfacompError, NoGatePartitionError, ParseError
from .families import gate_chain, generate_family, reverse_friendly, sequential_chain
from .fileformat import parse, serialize
from .gate import GateDirection, GateMethod, GatePartition, gate_complement_auto, gate_complement_basic
from .heuristic import DirectionChoice, auto_complement, choose_direction, det_successor_score
from .oracle import OracleVerdict, oracle_complement_check
from .powerset import (
    Direction,
    determinize,
    forward_complement,
    port_forward_complement,
    port_reverse_complement,
    reverse_complement,
)
from .reduction import hopcroft_minimize, simulation_reduce, simulation_reduce_port
from .report import ComplementReport
from .sequential import (
    PartitionStrategy,
    partition,
    seq_complement_basic,
    seq_complement_generalized,
    seq_pipeline,
    seq_pipeline_best,
)

__version__ = "0.1.0"

__all__ = [
    "Nfa", "PortNfa", "SequentialPartition", "Direction", "PartitionStrategy",
    "GateDirection", "GateMethod", "GatePartition", "DirectionChoice",
    "ComplementReport", "OracleVerdict",
    "NfacompError", "ParseError", "BudgetExceededError", "NoGatePartitionError", "CutError",
    "accepts", "antichain_inclusion", "language_equivalent", "language_disjoint",
    "determinize", "forward_complement", "reverse_complement",
    "port_forward_complement", "port_reverse_complement",
    "det_successor_score", "choose_direction", "auto_complement",
    "partition", "seq_complement_basic", "seq_complement_generalized",
    "seq_pipeline", "seq_pipeline_best",
    "gate_complement_basic", "gate_complement_auto",
    "hopcroft_minimize", "simulation_reduce", "simulation_reduce_port",
    "reverse_friendly", "sequential_chain", "gate_chain", "generate_family",
    "parse", "serialize", "oracle_complement_check",
    "backend_name", "__version__",
]
