from __future__ import annotations

import json
import random
from collections import deque

import pytest

from cep.proofgraph import LEFT, parse_proof, serialize_proof
from cep.soundness import (
    DOWN,
    FLAT,
    check_global_soundness,
    compose,
    edge_relation,
    has_progress_loop,
)
from conftest import fixture_doc, proof_from_doc, random_proof


class TestRelationAlgebra:
    def test_edge_relation_slopes(self, loop2):
        assert edge_relation(loop2, "n0", "n1") == frozenset({("a", "a", DOWN)})
        assert edge_relation(loop2, "n1", "n0") == frozenset({("a", "a", FLAT)})

    def test_compose_down_dominates(self):
        r1 = frozenset({("a", "b", FLAT)})
        r2 = frozenset({("b", "a", DOWN)})
        assert compose(r1, r2) == frozenset({("a", "a", DOWN)})
        assert compose(r2, r1) == frozenset({("b", "b", DOWN)})

    def test_compose_drops_unmatched(self):
        r1 = frozenset({("a", "b", DOWN)})
        r2 = frozenset({("c", "a", FLAT)})
        assert compose(r1, r2) == frozenset()

    def test_progress_loop(self):
        assert has_progress_loop(frozenset({("a", "a", DOWN)}))
        assert not has_progress_loop(frozenset({("a", "a", FLAT), ("a", "b", DOWN)}))


class TestVerdicts:
    def test_loop2_sound(self, loop2):
        report = check_global_soundness(loop2)
        assert report.sound
        assert report.witness is None

    def test_unsound1(self, unsound1):
        report = check_global_soundness(unsound1)
        assert not report.sound
        assert report.witness.cycle == ("n0", "n0")
        assert report.witness.prefix == ("n0",)

    def test_single_axiom_sound(self):
        doc = {
            "root": "n0",
            "nodes": [
                {
                    "id": "n0",
                    "rule": "id",
                    "axiom": True,
                    "sequent": {"ant": "A", "con": "C"},
                    "ant_values": ["a"],
                    "con_values": ["c"],
                    "children": [],
                    "ground": ["c"],
                    "excluded": [],
                    "equates": [],
                }
            ],
            "delta": [],
        }
        report = check_global_soundness(proof_from_doc(doc))
        assert report.sound

    def test_progressing_self_loop_sound(self):
        doc = fixture_doc("unsound1")
        doc["delta"][0]["pairs"] = [["a", "a", "1"]]
        assert check_global_soundness(proof_from_doc(doc)).sound

    def test_closure_terminates_and_counts(self, loop2):
        report = check_global_soundness(loop2)
        assert report.relations_explored > 0

    @pytest.mark.parametrize("seed", range(30))
    def test_document_order_invariance(self, seed):
        proof = random_proof(8_000 + seed)
        doc = json.loads(serialize_proof(proof))
        rng = random.Random(8_000 + seed)
        rng.shuffle(doc["nodes"])
        rng.shuffle(doc["delta"])
        shuffled = parse_proof(json.dumps(doc))
        assert check_global_soundness(shuffled) == check_global_soundness(proof)


def node_cycles(proof, max_len):
    """Rooted node cycles (first == last) of length at most max_len+1."""
    out = []
    for root in sorted(proof.nodes):
        queue = deque([(root,)])
        while queue:
            nodes = queue.popleft()
            if len(nodes) > max_len:
                continue
            for child in sorted(set(proof.node(nodes[-1]).children)):
                if child == root:
                    out.append(nodes + (child,))
                if len(nodes) < max_len:
                    queue.append(nodes + (child,))
    return out


def cycle_relation(proof, cycle):
    rel = edge_relation(proof, cycle[0], cycle[1])
    for a, b in zip(cycle[1:], cycle[2:]):
        rel = compose(rel, edge_relation(proof, a, b))
    return rel


def lasso_sound_by_relations(proof, cycle):
    """Soundness of the single lasso cycle^w: the value graph of the cycle
    relation must have a cycle containing a down step, i.e. a down edge
    inside a strongly connected component."""
    rel = cycle_relation(proof, cycle)
    values = sorted({v for s, d, _ in rel for v in (s, d)})
    index = {v: i for i, v in enumerate(values)}
    n = len(values)
    reach = [[False] * n for _ in range(n)]
    for s, d, _slope in rel:
        reach[index[s]][index[d]] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    for s, d, slope in rel:
        if slope == DOWN and reach[index[d]][index[s]]:
            return True
    return False


def lasso_sound_semantic(proof, cycle, unrollings):
    """Direct bounded search: some tail of cycle^w is followed by a trace
    revisiting the same value at the same cycle phase with a progression
    in between (such a segment pumps into an infinitely progressing
    trace)."""
    period = len(cycle) - 1
    path = []
    for _ in range(unrollings):
        path.extend(cycle[:-1])
    path.append(cycle[0])
    for start in range(period):
        node = proof.node(path[start])
        for value in sorted(node.ant_values):
            seen = set()
            frontier = [(start, value, False)]
            while frontier:
                pos, v, progressed = frontier.pop()
                if (pos, v, progressed) in seen:
                    continue
                seen.add((pos, v, progressed))
                if (
                    pos > start
                    and (pos - start) % period == 0
                    and v == value
                    and progressed
                ):
                    return True
                if pos + 1 < len(path):
                    pairs = proof.pairs(path[pos], path[pos + 1], LEFT)
                    for (src, dst), weight in pairs.items():
                        if src == v:
                            frontier.append(
                                (pos + 1, dst, progressed or not weight.is_zero())
                            )
    return False


class TestBoundedSemanticAgreement:
    @pytest.mark.parametrize("seed", range(40))
    def test_lasso_agreement(self, seed):
        proof = random_proof(9_000 + seed)
        n_values = len(proof.all_values(LEFT))
        lassos = node_cycles(proof, 4)
        any_unsound_lasso = False
        for cycle in lassos:
            unrollings = max(2 * n_values * (len(cycle) - 1), 4)
            semantic = lasso_sound_semantic(proof, cycle, unrollings)
            relational = lasso_sound_by_relations(proof, cycle)
            assert semantic == relational, (cycle, semantic, relational)
            if not semantic:
                any_unsound_lasso = True
        report = check_global_soundness(proof)
        if any_unsound_lasso:
            assert not report.sound
        if report.sound:
            assert not any_unsound_lasso
