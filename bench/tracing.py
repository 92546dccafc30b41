"""Spans around the ``cep`` calls a ``cep order`` query makes, recorded
from outside the library.

``Tracer.install`` replaces the functions that ``cep.cli``,
``cep.decision`` and ``cep.containment`` look up at call time with timing
wrappers; ``uninstall`` puts the originals back.  Each span records its
query id, its parent span, its start and end, and counts read off the
wrapped call's return value.  The lag-set configuration count comes from
the engine's own DEBUG record, which it emits only when an exploration
closes (not on an early refutation)."""

from __future__ import annotations

import functools
import importlib
import logging
import time
from dataclasses import dataclass, field

# The layer each wrapped call belongs to, keyed by the span name; the
# query's root span is the ``run_cli`` call itself.
LAYERS = {
    "run_cli": "cli.self_ms",
    "load_proof": "proofgraph.load_ms",
    "decide_order": "decision.self_ms",
    "validate": "proofgraph.validate_ms",
    "check_global_soundness": "soundness.closure_ms",
    "check_all_restrictions": "restrictions.check_ms",
    "compute_thresholds": "restrictions.thresholds_ms",
    "build_consequent": "automata.consequent_ms",
    "build_antecedent_approx": "automata.antecedent_ms",
    "is_grounded": "automata.grounded_ms",
    "decide_containment": "containment.lagset_ms",
    "language_value": "containment.revalidate_ms",
}


def _delta_pairs(proof):
    return {"delta_pairs": sum(len(pairs) for pairs in proof.delta.values())}


def _automaton_size(auto):
    return {
        "states": len(auto.states),
        "transitions": sum(len(t) for t in auto.transitions.values()),
    }


def _containment(verdict):
    counts = {"refuted": int(verdict.status == "REFUTED")}
    if "clamped" in verdict.parameters:
        counts["closed"] = 1
        counts["clamped"] = int(verdict.parameters["clamped"])
    return counts


def _n_bound(thresholds):
    return {} if thresholds.n_bound is None else {"n_bound": thresholds.n_bound}


# (module, function, counter over the return value)
WRAPPED = (
    ("cep.cli", "load_proof", _delta_pairs),
    ("cep.cli", "decide_order", None),
    ("cep.decision", "validate", None),
    ("cep.decision", "check_global_soundness", lambda r: {"relations": r.relations_explored}),
    ("cep.decision", "check_all_restrictions", None),
    ("cep.decision", "compute_thresholds", _n_bound),
    ("cep.decision", "build_consequent", None),
    ("cep.decision", "build_antecedent_approx", _automaton_size),
    ("cep.decision", "is_grounded", None),
    ("cep.decision", "decide_containment", _containment),
    ("cep.containment", "language_value", None),
)


@dataclass
class Span:
    query: int
    ident: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class _ClosureRecord(logging.Handler):
    """Reads the configuration count off the lag-set engine's closing
    DEBUG record into the open containment span."""

    def __init__(self, tracer: "Tracer"):
        super().__init__(logging.DEBUG)
        self.tracer = tracer

    def emit(self, record):
        if record.msg.startswith("lagset closure") and self.tracer.stack:
            self.tracer.stack[-1].counts["configurations"] = record.args[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.query = 0
        self._originals: list[tuple] = []
        self._log_state = (logging.NOTSET, True)
        self._handler = _ClosureRecord(self)

    def _open(self, name: str) -> Span:
        parent = self.stack[-1].ident if self.stack else None
        span = Span(self.query, len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()

    def call(self, name: str, fn, *args, counter=None, **kwargs):
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
            if counter is not None:
                span.counts.update(counter(result))
            return result
        finally:
            self._close(span)

    def run_query(self, fn, *args):
        """One query: the root span around ``fn``."""
        self.query += 1
        return self.call("run_cli", fn, *args)

    def install(self) -> None:
        for module_name, name, counter in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, name)
            self._originals.append((module, name, original))
            setattr(module, name, self._wrapper(name, original, counter))
        engine_log = logging.getLogger("cep.containment")
        self._log_state = (engine_log.level, engine_log.propagate)
        engine_log.setLevel(logging.DEBUG)
        engine_log.propagate = False
        engine_log.addHandler(self._handler)

    def uninstall(self) -> None:
        engine_log = logging.getLogger("cep.containment")
        engine_log.removeHandler(self._handler)
        level, engine_log.propagate = self._log_state
        engine_log.setLevel(level)
        for module, name, original in reversed(self._originals):
            setattr(module, name, original)
        self._originals.clear()

    def _wrapper(self, name, original, counter):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, *args, counter=counter, **kwargs)

        return traced

    def totals(self) -> dict:
        """Self seconds per layer, call and count sums per span name, and
        the summed root span time."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] = child_time.get(span.parent, 0.0) + (
                    span.end - span.start
                )
        self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS.values()}
        calls: dict[str, int] = {}
        counts: dict[str, int] = {}
        query_s = 0.0
        for span in self.spans:
            duration = span.end - span.start
            self_s[LAYERS[span.name]] += duration - child_time.get(span.ident, 0.0)
            calls[span.name] = calls.get(span.name, 0) + 1
            for key, value in span.counts.items():
                counts[f"{span.name}.{key}"] = counts.get(f"{span.name}.{key}", 0) + value
            if span.parent is None:
                query_s += duration
        return {
            "queries": self.query,
            "query_s": query_s,
            "self_s": self_s,
            "calls": calls,
            "counts": counts,
        }
