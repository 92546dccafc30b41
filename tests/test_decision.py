from __future__ import annotations

import json
import random
import tracemalloc

import pytest

from cep.automata import TracePairQuery
from cep.decision import (
    applicability_gates,
    decide_order,
    definition_oracle,
)
from cep.proofgraph import parse_proof, serialize_proof
from cep.restrictions import compute_thresholds
from conftest import bench_inputs, fixture_doc, gated_out_doc, knots, proof_from_doc

Q = TracePairQuery(node="n0", ant_value="a", con_value="c")


class TestDecideOrderFixtures:
    def test_loop2_leq_holds(self, loop2):
        verdict = decide_order(loop2, Q, strict=False)
        assert verdict.status == "HOLDS"
        assert verdict.thresholds.n_bound == 6
        # Cap 1 already closes the exploration without a violation.
        assert verdict.containment.parameters["caps"] == [1]

    def test_loop2_lt_fails_with_counterexample(self, loop2):
        verdict = decide_order(loop2, Q, strict=True)
        assert verdict.status == "FAILS"
        assert verdict.containment.status == "REFUTED"
        assert str(verdict.containment.lhs_value) == "1"
        assert str(verdict.containment.rhs_value) == "1"

    def test_strict2_lt_holds(self, strict2):
        verdict = decide_order(strict2, Q, strict=True)
        assert verdict.status == "HOLDS"

    def test_unsound_proof_not_applicable(self, unsound1):
        verdict = decide_order(proof_from_doc(gated_out_doc("global_soundness")), Q)
        assert verdict.status == "NOT_APPLICABLE"
        assert any(
            r["stage"] == "global_soundness" for r in verdict.reasons
        )

    def test_non_injective_not_applicable(self):
        verdict = decide_order(proof_from_doc(gated_out_doc("trace_injectivity")), Q)
        assert verdict.status == "NOT_APPLICABLE"
        assert any(r["stage"] == "trace_injectivity" for r in verdict.reasons)

    def test_value_on_both_sides_not_applicable(self):
        verdict = decide_order(proof_from_doc(gated_out_doc("validation")), Q)
        assert verdict.status == "NOT_APPLICABLE"
        assert verdict.reasons == (
            {
                "stage": "validation",
                "ok": False,
                "violations": [
                    {
                        "kind": "namespace_overlap",
                        "location": "value 'a'",
                        "detail": "value occurs on both antecedent and consequent sides",
                    }
                ],
            },
        )

    def test_unreachable_left_omega_leaves_bound_undefined(self):
        verdict = decide_order(proof_from_doc(gated_out_doc("thresholds")), Q)
        assert verdict.status == "NOT_APPLICABLE"
        assert verdict.thresholds.n_bound is None
        assert verdict.reasons[-1] == {
            "stage": "thresholds",
            "ok": False,
            "note": "approximation bound undefined: max step is infinite",
        }

    def test_restriction_failure_not_applicable(self):
        verdict = decide_order(proof_from_doc(gated_out_doc("restriction_dynamic")), Q)
        assert verdict.status == "NOT_APPLICABLE"
        assert any(r["stage"] == "restriction_dynamic" for r in verdict.reasons)

    def test_ungrounded_fails(self):
        # Ungrounded via a reachable, terminal, non-ground consequent
        # value at a non-axiomatic node.
        doc = fixture_doc("loop2")
        doc["nodes"][1]["children"] = ["n0", "n2", "n3"]
        doc["nodes"].append(
            {
                "id": "n3",
                "rule": "weaken",
                "axiom": False,
                "sequent": {"ant": "A", "con": "C"},
                "ant_values": ["a"],
                "con_values": ["c"],
                "children": ["n2"],
                "ground": [],
                "excluded": [],
                "equates": [],
            }
        )
        doc["delta"].append(
            {
                "from": "n1",
                "child_index": 2,
                "side": "right",
                "pairs": [["c", "c", "1"]],
            }
        )
        doc["delta"].append(
            {
                "from": "n1",
                "child_index": 2,
                "side": "left",
                "pairs": [["a", "a", "1"]],
            }
        )
        verdict = decide_order(proof_from_doc(doc), Q)
        assert verdict.status == "FAILS"
        assert any(
            r["stage"] == "groundedness" and not r["ok"] for r in verdict.reasons
        )

    def test_oracle_engine_maps_unknown(self, loop2):
        verdict = decide_order(loop2, Q, strict=False, engine="oracle")
        assert verdict.status == "UNKNOWN"
        verdict = decide_order(loop2, Q, strict=True, engine="oracle")
        assert verdict.status == "FAILS"

    def test_unknown_engine_rejected(self, loop2):
        with pytest.raises(ValueError, match="unknown engine"):
            decide_order(loop2, Q, engine="quantum")

    def test_unknown_engine_rejected_before_the_gates(self, loop2):
        # Knot 1 is gated out (unsound) and loop2 is gated in: both refuse
        # the engine name before any gate runs.
        knot = knots()[1][1]
        query = TracePairQuery(node="n0", ant_value="a0", con_value="c0")
        assert decide_order(knot, query).status == "NOT_APPLICABLE"
        for proof, q in ((knot, query), (loop2, Q)):
            with pytest.raises(ValueError, match="unknown engine 'bogus'"):
                decide_order(proof, q, engine="bogus")


class TestDefinitionOracle:
    def test_loop2_leq_no_counterexample(self, loop2):
        outcome = definition_oracle(loop2, Q, strict=False, max_path_len=10)
        assert outcome.ok

    def test_loop2_lt_counterexample(self, loop2):
        outcome = definition_oracle(loop2, Q, strict=True, max_path_len=10)
        assert not outcome.ok
        assert outcome.counterexample["path"] == ["n0", "n1", "n2"]

    def test_strict2_lt_ok(self, strict2):
        assert definition_oracle(strict2, Q, strict=True, max_path_len=10).ok

    def test_no_equates_no_ground_counterexample(self):
        doc = fixture_doc("loop2")
        doc["nodes"][2]["ground"] = []
        doc["nodes"][2]["equates"] = []
        outcome = definition_oracle(proof_from_doc(doc), Q, max_path_len=10)
        assert not outcome.ok
        assert outcome.counterexample["trace"] == ["c", "c", "c"]

    def test_excluded_dominates_inconsistent_annotation(self):
        # A value marked both ground and excluded yields negative traces
        # only, which the oracle skips.
        doc = fixture_doc("loop2")
        doc["nodes"][2]["excluded"] = ["c"]
        outcome = definition_oracle(proof_from_doc(doc), Q, max_path_len=10)
        assert outcome.ok


class TestCoherence:
    def test_gates_none_on_fixtures(self, loop2, strict2):
        assert applicability_gates(loop2, Q) is None
        assert applicability_gates(strict2, Q) is None

    def test_strict_implies_nonstrict(self, gated_instances):
        for proof, query in gated_instances[:80]:
            strict = decide_order(proof, query, strict=True)
            if strict.status == "HOLDS":
                assert decide_order(proof, query, strict=False).status == "HOLDS"

    def test_engine_matches_definition_oracle(self, gated_instances):
        unknowns = 0
        decided = 0
        for proof, query in gated_instances[:100]:
            for strict in (False, True):
                verdict = decide_order(proof, query, strict=strict)
                if verdict.status == "UNKNOWN":
                    unknowns += 1
                    continue
                decided += 1
                oracle = definition_oracle(proof, query, strict=strict, max_path_len=10)
                if verdict.status == "HOLDS":
                    assert oracle.ok, (proof.root, strict, oracle.counterexample)
                elif verdict.status == "FAILS":
                    if oracle.ok:
                        # The definition-level counterexample may need a
                        # longer path than the default bound.
                        deeper = definition_oracle(
                            proof, query, strict=strict, max_path_len=16
                        )
                        assert not deeper.ok
        assert decided > 0

    def test_monotone_gating(self, gated_instances):
        # Mutating a gated instance into unsoundness must flip the status
        # to NOT_APPLICABLE, never to HOLDS/FAILS.
        import json

        from cep.proofgraph import parse_proof, serialize_proof

        flipped = 0
        for proof, query in gated_instances[:40]:
            doc = json.loads(serialize_proof(proof))
            changed = False
            for entry in doc["delta"]:
                if entry["side"] == "left":
                    entry["pairs"] = [
                        [src, dst, "0"] for src, dst, _w in entry["pairs"]
                    ]
                    changed = True
            if not changed:
                continue
            mutated = parse_proof(json.dumps(doc))
            from cep.soundness import check_global_soundness

            if check_global_soundness(mutated).sound:
                continue
            verdict = decide_order(mutated, query)
            assert verdict.status == "NOT_APPLICABLE"
            flipped += 1
        assert flipped > 0

    def test_renaming_keeps_status(self, gated_instances):
        # The orderings do not depend on names; only the status is compared,
        # since a witness word can change when letters sort by name.
        rename = bench_inputs().rename
        for i, (proof, query) in enumerate(gated_instances[:80]):
            doc, mapping = rename(json.loads(serialize_proof(proof)), random.Random(i))
            renamed = proof_from_doc(doc)
            renamed_query = TracePairQuery(
                mapping[query.node], mapping[query.ant_value], mapping[query.con_value]
            )
            for strict in (False, True):
                assert (
                    decide_order(renamed, renamed_query, strict=strict).status
                    == decide_order(proof, query, strict=strict).status
                ), (i, strict)

    def test_unreachable_component_keeps_verdict(self, gated_instances):
        # A sound u <-> v cycle with an exit to the axiom x, reached from no
        # node of the proof, raises N but leaves the query's reach alone:
        # its right cycle is flat, which only a reachable cycle may not be.
        def node(node_id, children):
            return {
                "id": node_id, "rule": "r", "axiom": not children,
                "sequent": {"ant": "A", "con": "C"},
                "ant_values": ["a0"], "con_values": ["c0"], "children": children,
                "ground": [], "excluded": [], "equates": [],
            }

        component = [node("u", ["v"]), node("v", ["u", "x"]), node("x", [])]
        edges = [("u", 0), ("v", 0), ("v", 1)]
        delta = [
            {"from": parent, "child_index": index, "side": side, "pairs": [pair]}
            for parent, index in edges
            for side, pair in (("left", ["a0", "a0", "1"]), ("right", ["c0", "c0", "0"]))
        ]
        def witness(verdict):
            return verdict.containment and verdict.containment.counterexample

        for proof, query in gated_instances:
            doc = json.loads(serialize_proof(proof))
            doc["nodes"] += component
            doc["delta"] += delta
            grown = proof_from_doc(doc)
            assert (
                compute_thresholds(grown, query).n_bound
                > compute_thresholds(proof, query).n_bound
            )
            for strict in (False, True):
                before = decide_order(proof, query, strict=strict)
                after = decide_order(grown, query, strict=strict)
                assert after.status == before.status, (proof.root, strict)
                assert witness(after) == witness(before), (proof.root, strict)


def test_ring40_size_guard():
    # ring(40, 2) has N = 660: written out in full, its approximate
    # antecedent would have about a million chain transitions.
    proof = parse_proof(json.dumps(bench_inputs().ring_doc(40, 2)))
    query = TracePairQuery("n0", "a0", "c0")
    tracemalloc.start()
    try:
        statuses = [
            decide_order(proof, query, strict=strict, lag_cap=8).status
            for strict in (False, True)
        ]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert statuses == ["HOLDS", "HOLDS"]
    assert peak < 50 * 2**20
