"""End-to-end decision of the trace value ordering relations.

The pipeline gates the query on structural validity, global soundness,
trace injectivity and the three structural restrictions; on conforming
proofs it builds the consequent automaton and the approximate antecedent
automaton at the derived bound, requires groundedness, and reduces the
ordering to quantitative containment.  The lag-set engine runs with the
window cap ``lag_cap`` as its ceiling (default 64, as for ``cep
contain``) and deepens toward it from cap 1.

``definition_oracle`` is the independent bounded check straight from the
definition of the ordering: enumerate positive maximal right-hand traces
up to a path length and search for a matching left-hand trace of at
least (or strictly greater) size whose endpoint condition holds.  It
refuses a proof with a structural violation, naming the first one."""

from __future__ import annotations

from dataclasses import dataclass

from .automata import (
    TracePairQuery,
    build_antecedent_approx,
    build_consequent,
    is_grounded,
    to_json,
)
from .containment import ContainmentVerdict, check_bounds, decide_containment
from .containment import oracle_compare
from .proofgraph import LEFT, RIGHT, Proof, check_structure, validate
from .restrictions import Thresholds, check_all_restrictions, compute_thresholds
from .soundness import check_global_soundness
from .traces import (
    classify_right_trace,
    enumerate_right_maximal,
    prog_points,
    traces_on_path,
    walk_json,
)

__all__ = [
    "ORDER_STATUS",
    "OrderVerdict",
    "OracleOutcome",
    "applicability_gates",
    "decide_order",
    "definition_oracle",
]

HOLDS = "HOLDS"
FAILS = "FAILS"
NOT_APPLICABLE = "NOT_APPLICABLE"
UNKNOWN = "UNKNOWN"

ORDER_STATUS = {
    "VERIFIED": HOLDS,
    "REFUTED": FAILS,
    "UNKNOWN_SATURATED": UNKNOWN,
    "UNKNOWN_BOUND": UNKNOWN,
}


@dataclass(frozen=True)
class OrderVerdict:
    relation: str  # "leq" | "lt"
    status: str
    reasons: tuple[dict, ...]
    thresholds: Thresholds | None = None
    containment: ContainmentVerdict | None = None


@dataclass(frozen=True)
class OracleOutcome:
    max_path_len: int
    strict: bool
    counterexample: dict | None = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def applicability_gates(proof: Proof, query: TracePairQuery) -> list[dict] | None:
    """None when the query is in the regime the decision covers, else the
    failed gates as structured reasons."""
    query.check(proof)
    report = validate(proof)
    structural = report.structural
    if structural:
        return [{"stage": "validation", "ok": False, "violations": to_json(structural)}]
    reasons: list[dict] = []
    soundness = check_global_soundness(proof)
    if not soundness.sound:
        reasons.append(
            {
                "stage": "global_soundness",
                "ok": False,
                "witness": to_json(soundness.witness),
                "note": "the ordering is defined over sound cyclic proofs only",
            }
        )
    if not report.trace_injective:
        reasons.append(
            {
                "stage": "trace_injectivity",
                "ok": False,
                "note": "non-injective trace pairs break the finite-ambiguity "
                "premise of the automata reduction",
            }
        )
    if reasons:
        return reasons
    for restriction in check_all_restrictions(proof, query):
        if not restriction.passed:
            reasons.append(
                {
                    "stage": f"restriction_{restriction.name}",
                    "ok": False,
                    "witnesses": list(restriction.witnesses),
                }
            )
    return reasons or None


def decide_order(
    proof: Proof,
    query: TracePairQuery,
    strict: bool = False,
    engine: str = "lagset",
    lag_cap: int = 64,
    oracle_len: int = 12,
) -> OrderVerdict:
    check_bounds(lag_cap, oracle_len)
    if engine not in ("lagset", "oracle"):
        raise ValueError(f"unknown engine {engine!r}")
    relation = "lt" if strict else "leq"
    gates = applicability_gates(proof, query)
    if gates is not None:
        return OrderVerdict(
            relation=relation, status=NOT_APPLICABLE, reasons=tuple(gates)
        )
    reasons: list[dict] = [{"stage": "gates", "ok": True}]
    thresholds = compute_thresholds(proof, query)
    if thresholds.n_bound is None:
        # Unreachable infinite weights keep the gates green but leave the
        # approximation bound undefined.
        reasons.append(
            {
                "stage": "thresholds",
                "ok": False,
                "note": "approximation bound undefined: max step is infinite",
            }
        )
        return OrderVerdict(
            relation=relation,
            status=NOT_APPLICABLE,
            reasons=tuple(reasons),
            thresholds=thresholds,
        )
    reasons.append({"stage": "thresholds", "ok": True, "n_bound": thresholds.n_bound})

    consequent = build_consequent(proof, query)
    if not is_grounded(consequent, proof):
        reasons.append(
            {
                "stage": "groundedness",
                "ok": False,
                "note": "a reachable accepting node/value state is not ground",
            }
        )
        return OrderVerdict(
            relation=relation,
            status=FAILS,
            reasons=tuple(reasons),
            thresholds=thresholds,
        )
    reasons.append({"stage": "groundedness", "ok": True})

    antecedent = build_antecedent_approx(proof, query, thresholds.n_bound)

    if engine == "lagset":
        verdict = decide_containment(consequent, antecedent, strict, lag_cap=lag_cap)
    else:
        verdict = oracle_compare(consequent, antecedent, strict, oracle_len)
    status = ORDER_STATUS[verdict.status]
    reasons.append(
        {"stage": "containment", "ok": verdict.status == "VERIFIED", **to_json(verdict)}
    )
    return OrderVerdict(
        relation=relation,
        status=status,
        reasons=tuple(reasons),
        thresholds=thresholds,
        containment=verdict,
    )


def definition_oracle(
    proof: Proof,
    query: TracePairQuery,
    strict: bool = False,
    max_path_len: int = 10,
) -> OracleOutcome:
    """Bounded search straight from the ordering definition.

    For each positive maximal right-hand trace rooted at the query node,
    look for a left-hand trace over the same path (of any length up to the
    trace's) whose size dominates and whose ending either meets a grounded
    right trace, or equates with the right trace's final value at an
    axiomatic endpoint of matching length.

    Raises ``ValueError`` naming the first structural violation of the
    proof, as the trace search has no meaning on such a proof, and when
    ``max_path_len`` is below 1."""
    query.check(proof)
    check_structure(proof)
    candidates = sorted(
        enumerate_right_maximal(proof, query.node, query.con_value, max_path_len),
        key=lambda walk: (len(walk), tuple(zip(*walk))),
    )
    for walk in candidates:
        r_size = prog_points(proof, RIGHT, walk)
        classification = classify_right_trace(proof, walk)
        final_id, final_value = walk[-1]
        final_node = proof.node(final_id)
        n = len(walk)
        path_nodes = tuple(node_id for node_id, _v in walk)
        matched = False
        for left in traces_on_path(proof, path_nodes, LEFT, query.ant_value):
            k = len(left)
            l_size = prog_points(proof, LEFT, left)
            if strict:
                if not (r_size < l_size):
                    continue
            elif not (r_size <= l_size):
                continue
            if classification.grounded:
                matched = True
                break
            if (
                classification.partially_maximal
                and k == n
                and (left[-1][1], final_value) in final_node.equates
            ):
                matched = True
                break
        if not matched:
            return OracleOutcome(
                max_path_len=max_path_len,
                strict=strict,
                counterexample={**walk_json(walk), "size": str(r_size)},
            )
    return OracleOutcome(max_path_len=max_path_len, strict=strict)
