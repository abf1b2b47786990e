"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces the public functions of every loaded ``nfacomp``
module (and the few private ones named in EXTRA) with wrappers, in every
module namespace and class that holds them, so calls through imported
names are seen too.  In the kernels, the functions of a compiled backend
are wrapped as well as pure-Python ones.  Each wrapper records a span; a
layer's self time is its spans' time minus the time of the spans they
enclose, so the self times of one operation add up to the time of its
outermost span, ``cli.main``.
Counts come from the arguments and results of the wrapped calls.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict

# Private functions that mark a layer boundary the counts need.
EXTRA = {
    "powerset": ("_explore_port", "_port_powerset"),
    "gate": ("_smaller_complement", "_smaller_port_complement"),
    "cli": ("_run_method",),
}
CLASS_METHODS = (("core", "Nfa", "__post_init__"), ("core", "PortNfa", "__post_init__"))

_LABELS = {
    "kernels": {f: f"kernels.{f}" for f in
                ("explore_subsets", "word_signature", "antichain_included", "product_nonempty")},
    "powerset": {
        "determinize": "powerset.determinize",
        **{f: "powerset.complement" for f in (
            "complement_dfa", "forward_complement", "reverse_complement",
            "port_forward_complement", "port_reverse_complement")},
        **{f: "powerset.port_determinize" for f in (
            "port_determinize", "port_determinize_mapped", "_port_powerset", "_explore_port")},
    },
    "core": {
        "__post_init__": "core.construct",
        "trim": "core.trim", "trim_port": "core.trim",
        "reverse": "core.reverse", "reverse_port": "core.reverse",
        "scc_condensation": "core.scc",
        "product_intersection": "core.product", "product_intersection_port": "core.product",
        **{f: "core.relation" for f in
           ("antichain_inclusion", "language_equivalent", "language_disjoint", "is_empty")},
    },
    "fileformat": {"parse": "fileformat.parse", "serialize": "fileformat.serialize"},
    "heuristic": {"choose_direction": "heuristic.choose_direction",
                  "det_successor_score": "heuristic.choose_direction"},
    "sequential": {
        "partition": "sequential.partition",
        "determinize_front": "sequential.determinize_front",
        **{f: "sequential.compose" for f in (
            "seq_complement_generalized_annotated", "seq_complement_generalized",
            "seq_complement_basic")},
    },
    "gate": {"find_gate_partitions": "gate.find_partitions",
             "check_equal": "gate.check", "check_disjoint": "gate.check",
             "gate_complement_auto": "gate.other", "select_partition": "gate.other"},
    "reduction": {"hopcroft_minimize": "reduction.hopcroft",
                  **{f: "reduction.simulation" for f in
                     ("simulation_reduce", "simulation_reduce_port", "compute_simulation")}},
    "oracle": {"oracle_complement_check": "oracle.check"},
}
# Layers whose unlisted functions are named after the module's main job.
_DEFAULT = {"cli": "cli.self", "gate": "gate.construct"}

def _layer(module_name: str) -> str:
    part = module_name.split(".")[1]
    return "kernels" if part == "_kernels" else part


def _home(obj) -> str | None:
    """The layer of a function defined in nfacomp, None for anything else.

    In the kernels any callable counts, so that the functions of a compiled
    backend are wrapped like the pure-Python ones."""
    module = getattr(obj, "__module__", None)
    if isinstance(obj, type) or not callable(obj) or not (module or "").startswith("nfacomp."):
        return None
    home = _layer(module)
    return home if home == "kernels" or isinstance(obj, types.FunctionType) else None


def _budget(args, kwargs, position=None):
    """The budget a call was given, 0 for none."""
    if "budget" in kwargs or position is None:
        return kwargs.get("budget") or 0
    return (args[position] if len(args) > position else None) or 0


class Tracer:
    """Span recorder; self times are raw seconds, accumulated until ``take``."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {name: m for name, m in sys.modules.items()
                if m is not None and (name == "nfacomp" or name.startswith("nfacomp."))}
        wrappers: dict[int, object] = {}
        for m in mods.values():
            for name, obj in list(vars(m).items()):
                home = _home(obj)
                if home is None or name.startswith("_") and obj.__name__ not in EXTRA.get(home, ()):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, home)
                self._patched.append((m, name, obj))
                setattr(m, name, wrappers[id(obj)])
        for mod, cls, meth in CLASS_METHODS:
            owner = getattr(mods[f"nfacomp.{mod}"], cls)
            fn = owner.__dict__[meth]
            self._patched.append((owner, meth, fn))
            setattr(owner, meth, self._wrap(fn, mod))

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._patched):
            setattr(owner, name, fn)
        self._patched.clear()

    def take(self) -> tuple[dict[str, float], dict[str, float]]:
        """Self times and counts since the last call; resets both."""
        out = (dict(self.self_s), dict(self.counts))
        self.self_s.clear()
        self.counts.clear()
        return out

    # -- spans ---------------------------------------------------------------

    def _wrap(self, fn, home: str):
        name = fn.__name__
        label = _LABELS.get(home, {}).get(name) or _DEFAULT.get(home, f"{home}.other")
        key = f"{home}.{name}"
        hook = _HOOKS.get(key)
        stack = self._stack
        self_s = self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [key, 0.0]
            stack.append(frame)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                dur = clock() - start
                stack.pop()
                self_s[label] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if hook is not None:
                    hook(self, stack[-1][0] if stack else None, args, kwargs, result, exc)

        return wrapper


# -- counts ------------------------------------------------------------------
# Each hook gets (tracer, parent span key, args, kwargs, result, exception).


def _explore_subsets(t, parent, args, kwargs, res, exc):
    t.counts["kernels.explore_subsets_macrostates"] += (
        len(res[0]) if res is not None else _budget(args, kwargs, 4))


def _explore_port(t, parent, args, kwargs, res, exc):
    t.counts["powerset.port_macrostates"] += len(res[0]) if exc is None else _budget(args, kwargs, 1)


def _count(name, amount=lambda args, res: 1):
    def hook(t, parent, args, kwargs, res, exc):
        if exc is None:
            t.counts[name] += amount(args, res)
    return hook


def _in_out(name_in, name_out):
    def hook(t, parent, args, kwargs, res, exc):
        if exc is None:
            t.counts[name_in] += args[0].num_states
            t.counts[name_out] += res.num_states
    return hook


def _composites(t, parent, args, kwargs, res, exc):
    t.counts["sequential.composites"] += res[0].num_states if exc is None else _budget(args, kwargs, 2)


def _seq_pipeline(t, parent, args, kwargs, res, exc):
    t.counts["sequential.candidates"] += 1
    if exc is not None:
        t.counts["sequential.budget_cuts"] += 1
        built = _budget(args, kwargs)
    else:
        built = (kwargs.get("stats") or {}).get("pre_trim", res.num_states)
        if parent != "sequential.seq_pipeline_best":
            t.counts["sequential.winner_states"] += built
    t.counts["sequential.candidate_states"] += built


def _seq_pipeline_best(t, parent, args, kwargs, res, exc):
    if exc is None:
        t.counts["sequential.winner_states"] += kwargs["stats"]["pre_trim"]


def _powerset_complement(t, parent, args, kwargs, res, exc):
    if parent in ("gate._smaller_complement", "gate._smaller_port_complement"):
        t.counts["gate.states_built"] += res.num_states if exc is None else _budget(args, kwargs)


def _run_method(t, parent, args, kwargs, res, exc):
    t.counts["cli.method_runs"] += 1
    if exc is not None:
        t.counts["cli.method_failures"] += 1


_HOOKS = {
    "kernels.explore_subsets": _explore_subsets,
    "powerset._explore_port": _explore_port,
    "kernels.antichain_included": _count("kernels.antichain_included_calls"),
    "kernels.word_signature": _count("kernels.word_signature_words", lambda args, res: len(res)),
    "core.__post_init__": _count("core.construct_calls"),
    "core.trim": _in_out("core.trim_states_in", "core.trim_states_kept"),
    "core.trim_port": _in_out("core.trim_states_in", "core.trim_states_kept"),
    "fileformat.parse": _count("fileformat.parse_bytes", lambda args, res: len(args[0])),
    "fileformat.serialize": _count("fileformat.serialize_bytes", lambda args, res: len(res)),
    "sequential.seq_complement_generalized_annotated": _composites,
    "sequential.seq_pipeline": _seq_pipeline,
    "sequential.seq_pipeline_best": _seq_pipeline_best,
    "gate.find_gate_partitions": _count("gate.partitions_found", lambda args, res: len(res)),
    "gate._smaller_complement": _count("gate.states_kept", lambda args, res: res.num_states),
    "gate._smaller_port_complement": _count("gate.states_kept", lambda args, res: res.num_states),
    **{f"powerset.{f}": _powerset_complement for f in (
        "forward_complement", "reverse_complement", "port_forward_complement", "port_reverse_complement")},
    "reduction.hopcroft_minimize": _in_out("reduction.hopcroft_states_in", "reduction.hopcroft_states_out"),
    **{f"reduction.{f}": _in_out("reduction.simulation_states_in", "reduction.simulation_states_out")
       for f in ("simulation_reduce", "simulation_reduce_port")},
    "cli._run_method": _run_method,
}
