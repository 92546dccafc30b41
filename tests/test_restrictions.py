from __future__ import annotations

import pytest

from cep.automata import TracePairQuery
from cep.ordinal import OMEGA
from cep.proofgraph import LEFT, RIGHT
from cep.restrictions import check_all_restrictions, compute_thresholds
from cep.traces import prog_points, reachable_pairs, simple_binary_cycles, simple_cycles
from conftest import (
    all_paths,
    fixture_doc,
    load_fixture,
    merged_delta,
    proof_from_doc,
    random_corpus,
    random_proof,
    traces_following,
)

Q = TracePairQuery(node="n0", ant_value="a", con_value="c")


def restriction(name, proof, query):
    """The report named ``name`` of the restriction gate."""
    (found,) = [r for r in check_all_restrictions(proof, query) if r.name == name]
    return found


def two_value_loop(weight_a="1", weight_b="2"):
    """A one-cycle proof carrying two antecedent values with different
    loop weights; a bridging pair makes the second value reachable from
    the first, so the binary cycle is in scope.  Unbalanced unless the
    weights agree."""
    return {
        "root": "n0",
        "nodes": [
            {
                "id": "n0",
                "rule": "unfold",
                "axiom": False,
                "sequent": {"ant": "A", "con": "C"},
                "ant_values": ["a", "b"],
                "con_values": ["c"],
                "children": ["n1"],
                "ground": [],
                "excluded": [],
                "equates": [],
            },
            {
                "id": "n1",
                "rule": "case",
                "axiom": False,
                "sequent": {"ant": "A", "con": "C"},
                "ant_values": ["a", "b"],
                "con_values": ["c"],
                "children": ["n0", "n2"],
                "ground": [],
                "excluded": [],
                "equates": [],
            },
            {
                "id": "n2",
                "rule": "id",
                "axiom": True,
                "sequent": {"ant": "A", "con": "C"},
                "ant_values": ["a"],
                "con_values": ["c"],
                "children": [],
                "ground": ["c"],
                "excluded": [],
                "equates": [["a", "c"]],
            },
        ],
        "delta": [
            {
                "from": "n0",
                "child_index": 0,
                "side": "left",
                "pairs": [["a", "a", weight_a], ["b", "b", weight_b]],
            },
            {"from": "n0", "child_index": 0, "side": "right", "pairs": [["c", "c", "1"]]},
            {
                "from": "n1",
                "child_index": 0,
                "side": "left",
                "pairs": [["a", "a", "0"], ["a", "b", "0"], ["b", "b", "0"]],
            },
            {"from": "n1", "child_index": 0, "side": "right", "pairs": [["c", "c", "0"]]},
            {"from": "n1", "child_index": 1, "side": "left", "pairs": [["a", "a", "0"]]},
            {"from": "n1", "child_index": 1, "side": "right", "pairs": [["c", "c", "0"]]},
        ],
    }


class TestThresholds:
    def test_loop2(self, loop2):
        t = compute_thresholds(loop2, Q)
        assert t.trace_width == 1
        assert t.in_degree == 1
        assert t.cycle_threshold == 3
        assert str(t.max_step) == "1"
        assert t.n_bound == 6

    def test_strict2(self, strict2):
        t = compute_thresholds(strict2, Q)
        assert str(t.max_step) == "2"
        assert t.n_bound == 2 + 3 * 2 * 1 + 1

    def test_infinite_max_step(self):
        doc = fixture_doc("loop2")
        doc["delta"][0]["pairs"] = [["a", "a", "w"]]
        t = compute_thresholds(proof_from_doc(doc), Q)
        assert t.max_step == OMEGA
        assert t.n_bound is None

    def test_two_value_width(self):
        t = compute_thresholds(proof_from_doc(two_value_loop()), Q)
        assert t.trace_width == 2
        assert t.cycle_threshold == 4 + 4 + 1


class TestFinitelyProgressing:
    def test_loop2_passes(self, loop2):
        assert restriction("finitely_progressing", loop2, Q).passed

    def test_reachable_omega_fails(self):
        doc = fixture_doc("loop2")
        doc["delta"][0]["pairs"] = [["a", "a", "w"]]
        report = restriction("finitely_progressing", proof_from_doc(doc), Q)
        assert not report.passed
        assert report.witnesses[0]["edge"] == ["n0", "n1"]
        assert report.witnesses[0]["weight"] == "w"

    def test_unreachable_omega_passes(self):
        doc = fixture_doc("ambig1")
        # b carries no trace pairs, so (n0, b) is unreachable from (n0, a);
        # give it an infinite step that must be ignored.
        doc["delta"][0]["pairs"] = [["a", "a", "1"], ["b", "b", "w"]]
        proof = proof_from_doc(doc)
        assert ("n0", "b") not in reachable_pairs(proof, LEFT, ("n0", "a"))
        assert restriction("finitely_progressing", proof, Q).passed

    def test_witness_order(self):
        # Every reachable infinite pair is a witness, left side first, then
        # by edge and pair.
        several = both_sides = 0
        for proof in random_corpus(60, 17_000, weights=(0, 1, "w")):
            query = TracePairQuery(proof.root, "a0", "c0")
            reach = {
                LEFT: reachable_pairs(proof, LEFT, (proof.root, "a0")),
                RIGHT: reachable_pairs(proof, RIGHT, (proof.root, "c0")),
            }
            expected = sorted(
                (side == RIGHT, parent, child, src, dst, str(weight))
                for (parent, child, side), pairs in merged_delta(proof).items()
                for (src, dst), weight in pairs.items()
                if (parent, src) in reach[side] and not weight.is_finite()
            )
            witnesses = restriction("finitely_progressing", proof, query).witnesses
            assert witnesses == tuple(
                {
                    "side": RIGHT if right else LEFT,
                    "edge": [parent, child],
                    "pair": [src, dst],
                    "weight": weight,
                }
                for right, parent, child, src, dst, weight in expected
            )
            several += len(expected) > 1
            both_sides += len({right for right, *_rest in expected}) == 2
        assert several and both_sides


class TestDynamic:
    def test_loop2_passes(self, loop2):
        assert restriction("dynamic", loop2, Q).passed

    def test_flat_cycle_fails(self):
        doc = fixture_doc("loop2")
        for entry in doc["delta"]:
            if entry["from"] == "n0" and entry["side"] == "left":
                entry["pairs"] = [["a", "a", "0"]]
        report = restriction("dynamic", proof_from_doc(doc), Q)
        assert not report.passed
        witness = report.witnesses[0]
        assert witness["side"] == "left"
        assert witness["path"][0] == witness["path"][-1]

    def test_acyclic_passes(self):
        doc = fixture_doc("loop2")
        doc["nodes"][1]["children"] = ["n2"]
        doc["delta"] = [
            e for e in doc["delta"] if not (e["from"] == "n1" and e["child_index"] == 0)
        ]
        for e in doc["delta"]:
            if e["from"] == "n1":
                e["child_index"] = 0
        assert restriction("dynamic", proof_from_doc(doc), Q).passed

    @pytest.mark.parametrize(
        "seed, witness",
        [
            # The search passes a finished pair before it closes the cycle.
            (367, {"side": "left", "path": ["n0", "n0"], "trace": ["a1", "a1"]}),
            # The cycle starts below the root of the search that finds it.
            (1002, {"side": "left", "path": ["n1", "n2", "n1", "n2", "n1"],
                    "trace": ["a0", "a0", "a1", "a1", "a0"]}),
            # Both: below the search root, after a finished pair.
            (1223, {"side": "right", "path": ["n2", "n1", "n2"],
                    "trace": ["c1", "c0", "c1"]}),
            # The cycle runs through the search root.
            (2594, {"side": "right", "path": ["n0", "n2", "n1", "n1", "n0"],
                    "trace": ["c0", "c1", "c1", "c0", "c0"]}),
        ],
        ids=["past_finished", "below_root", "below_root_past_finished", "through_root"],
    )
    def test_pinned_witnesses(self, seed, witness):
        proof = random_proof(seed)
        report = restriction("dynamic", proof, TracePairQuery(proof.root, "a0", "c0"))
        assert report.witnesses == (witness,)

    @pytest.mark.parametrize("seed", range(40))
    def test_agrees_with_cycle_enumeration(self, seed):
        proof = random_proof(14_000 + seed)
        query = TracePairQuery(proof.root, "a0", "c0")
        report = restriction("dynamic", proof, query)
        zero_cycles = []
        for side, start_value in ((LEFT, "a0"), ("right", "c0")):
            reach = reachable_pairs(proof, side, (proof.root, start_value))
            for walk in simple_cycles(proof, side):
                if walk[0] not in reach:
                    continue
                if prog_points(proof, side, walk).is_zero():
                    zero_cycles.append((side, walk))
        assert report.passed == (not zero_cycles)


class TestBalanced:
    def test_loop2_diagonal_passes(self, loop2):
        assert restriction("balanced", loop2, Q).passed

    def test_unbalanced_two_values(self):
        report = restriction("balanced", proof_from_doc(two_value_loop("1", "2")), Q)
        assert not report.passed
        witness = report.witnesses[0]
        assert abs(witness["difference"]) == 1
        assert witness["path"][0] == witness["path"][-1]

    def test_balanced_two_values(self):
        proof = proof_from_doc(two_value_loop("2", "2"))
        assert restriction("balanced", proof, Q).passed

    def test_no_binary_cycles_passes(self):
        doc = fixture_doc("loop2")
        doc["nodes"][1]["children"] = ["n2"]
        doc["delta"] = [
            e for e in doc["delta"] if not (e["from"] == "n1" and e["child_index"] == 0)
        ]
        for e in doc["delta"]:
            if e["from"] == "n1":
                e["child_index"] = 0
        assert restriction("balanced", proof_from_doc(doc), Q).passed

    def test_witness_from_return_cycle(self):
        # The cycle through the inconsistent edge balances, so the witness
        # comes from the tree path to its target and the return path.
        proof = random_proof(0, max_nodes=6, weights=(0, 1, 2, 3))
        report = restriction("balanced", proof, TracePairQuery(proof.root, "a0", "c0"))
        assert report.witnesses == (
            {
                "path": ["n2", "n2", "n2"],
                "trace": ["a1", "a1", "a1"],
                "trace_other": ["a1", "a0", "a1"],
                "difference": -2,
            },
        )

    def test_witness_trimmed_to_outer_cycle(self):
        # Trimming the repeated vertex keeps the outer part of the cycle,
        # because the inner part balances.
        proof = load_fixture("unbalanced3")
        report = restriction("balanced", proof, TracePairQuery("n0", "a0", "c0"))
        assert report.witnesses == (
            {
                "path": ["n0", "n0", "n0"],
                "trace": ["a2", "a0", "a2"],
                "trace_other": ["a2", "a1", "a2"],
                "difference": -3,
            },
        )

    @pytest.mark.parametrize("seed", range(40))
    def test_agrees_with_binary_enumeration(self, seed):
        proof = random_proof(15_000 + seed, max_nodes=4)
        query = TracePairQuery(proof.root, "a0", "c0")
        if not restriction("finitely_progressing", proof, query).passed:
            pytest.skip("infinite weights")
        report = restriction("balanced", proof, query)
        reach = reachable_pairs(proof, LEFT, (proof.root, "a0"))
        unbalanced = []
        for walk in simple_binary_cycles(proof):
            node_id, v1, v2 = walk[0]
            if (node_id, v1) not in reach or (node_id, v2) not in reach:
                continue
            p1 = prog_points(proof, LEFT, tuple((n, a) for n, a, _b in walk))
            p2 = prog_points(proof, LEFT, tuple((n, b) for n, _a, b in walk))
            if p1 != p2:
                unbalanced.append(walk)
        assert report.passed == (not unbalanced)


class TestLemmaBoundedDifference:
    def test_bound_on_gated_instances(self, gated_instances):
        # On instances passing all three checks, sizes of antecedent trace
        # pairs from the query value along a common path differ by at most
        # cycle_threshold * max_step.
        checked = 0
        for proof, query in gated_instances[:40]:
            t = compute_thresholds(proof, query)
            bound = t.cycle_threshold * t.max_step.to_int()
            for path_nodes in all_paths(proof, proof.root, 10):
                progs = [
                    prog_points(proof, LEFT, tuple(zip(path_nodes, values))).to_int()
                    for values in traces_following(
                        proof, path_nodes, LEFT, first_value=query.ant_value
                    )
                    if len(values) == len(path_nodes)
                ]
                for i, p1 in enumerate(progs):
                    for p2 in progs[i + 1 :]:
                        assert abs(p1 - p2) <= bound
                        checked += 1
        assert checked


class TestCheckAll:
    def test_loop2_all_pass(self, loop2):
        reports = check_all_restrictions(loop2, Q)
        assert [r.name for r in reports] == [
            "finitely_progressing",
            "dynamic",
            "balanced",
        ]
        assert all(r.passed for r in reports)

    def test_balance_skipped_on_infinite(self):
        doc = fixture_doc("loop2")
        doc["delta"][0]["pairs"] = [["a", "a", "w"]]
        reports = check_all_restrictions(proof_from_doc(doc), Q)
        assert not reports[0].passed
        assert not reports[2].passed
        assert "skipped" in reports[2].witnesses[0]["error"]
