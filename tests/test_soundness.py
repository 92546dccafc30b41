from __future__ import annotations

import json
import random
from collections import deque

import pytest

from cep.proofgraph import LEFT, parse_proof, serialize_proof
from cep.soundness import (
    Lasso,
    _compose,
    _edge_relations,
    _is_bad,
    _shortest_root_path,
    check_global_soundness,
)
from conftest import bench_inputs, fixture_doc, knots, proof_from_doc, random_proof

# The reference form of sloped relations that the bitmask coding of
# cep.soundness is checked against: a frozenset of (source value, target
# value, slope) triples holding at most one slope per value pair, down
# dominating flat.
FLAT = 0
DOWN = 1


def _normalize(triples) -> frozenset:
    best: dict[tuple[str, str], int] = {}
    for src, dst, slope in triples:
        key = (src, dst)
        if best.get(key, -1) < slope:
            best[key] = slope
    return frozenset((src, dst, slope) for (src, dst), slope in best.items())


def edge_relation(proof, parent: str, child: str) -> frozenset:
    return _normalize(
        (src, dst, DOWN if not weight.is_zero() else FLAT)
        for (src, dst), weight in proof.pairs(parent, child, LEFT).items()
    )


def compose(r1: frozenset, r2: frozenset) -> frozenset:
    by_src: dict[str, list[tuple[str, int]]] = {}
    for src, dst, slope in r2:
        by_src.setdefault(src, []).append((dst, slope))
    out = []
    for src, mid, slope1 in r1:
        for dst, slope2 in by_src.get(mid, ()):
            out.append((src, dst, max(slope1, slope2)))
    return _normalize(out)


def has_progress_loop(rel: frozenset) -> bool:
    return any(src == dst and slope == DOWN for src, dst, slope in rel)


def reference_soundness(proof):
    """The full composition closure over frozenset relations (FIFO, sorted
    children), then the least bad witness by (length, path): the verdict,
    the lasso and the number of composites."""
    base = {
        (parent, child): edge_relation(proof, parent, child)
        for parent, child in proof.edges()
    }
    paths = {}
    queue = deque()
    for (parent, child), rel in sorted(base.items()):
        paths[(parent, child, rel)] = (parent, child)
        queue.append((parent, child, rel))
    while queue:
        src, mid, rel = key = queue.popleft()
        for child in sorted(proof.node(mid).children):
            new = (src, child, compose(rel, base[(mid, child)]))
            if new not in paths:
                paths[new] = paths[key] + (child,)
                queue.append(new)
    bad = [
        witness
        for (src, dst, rel), witness in paths.items()
        if src == dst and compose(rel, rel) == rel and not has_progress_loop(rel)
    ]
    if not bad:
        return True, None, len(paths)
    cycle = min(bad, key=lambda witness: (len(witness), witness))
    return False, Lasso(_shortest_root_path(proof, cycle[0]), cycle), len(paths)


def ring_proof(k: int, w: int, flat: bool = False):
    """``ring(k, w)`` of the benchmark; with ``flat``, every left weight is
    0, so no left trace progresses around the ring."""
    doc = bench_inputs().ring_doc(k, w)
    if flat:
        for entry in doc["delta"]:
            if entry["side"] == "left":
                for pair in entry["pairs"]:
                    pair[2] = "0"
    return proof_from_doc(doc)


def decode(proof, coded) -> frozenset:
    """The frozenset form of a relation coded by ``_edge_relations``."""
    names = sorted(
        {v for edge in proof.edges() for pair in proof.pairs(*edge, LEFT) for v in pair}
    )
    any_rows, down_rows = coded
    return frozenset(
        (names[i], names[j], DOWN if down_rows[i] >> j & 1 else FLAT)
        for i, row in enumerate(any_rows)
        for j in range(len(names))
        if row >> j & 1
    )


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

    @pytest.mark.parametrize("seed", range(40))
    def test_coding_matches_reference(self, seed):
        proof = random_proof(9_000 + seed)
        coded = _edge_relations(proof)
        for (parent, child), rel in coded.items():
            assert decode(proof, rel) == edge_relation(proof, parent, child)
            for grandchild in proof.node(child).children:
                ref = compose(
                    edge_relation(proof, parent, child),
                    edge_relation(proof, child, grandchild),
                )
                got = _compose(rel, coded[(child, grandchild)])
                assert decode(proof, got) == ref
                bad = compose(ref, ref) == ref and not has_progress_loop(ref)
                assert _is_bad(got) == bad


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

    @pytest.mark.parametrize("seed", [*range(8_000, 8_030), *range(9_000, 9_040)])
    def test_matches_reference_closure(self, seed):
        proof = random_proof(seed)
        sound, lasso, relations = reference_soundness(proof)
        report = check_global_soundness(proof)
        assert (report.sound, report.witness) == (sound, lasso)
        if sound:
            assert report.relations_explored == relations
        else:
            assert report.relations_explored <= relations

    @pytest.mark.parametrize("seed", range(10_000, 10_040))
    def test_matches_reference_closure_more_values(self, seed):
        proof = random_proof(seed, max_nodes=6, max_values=3 + seed % 2)
        sound, lasso, relations = reference_soundness(proof)
        report = check_global_soundness(proof)
        assert (report.sound, report.witness) == (sound, lasso)
        if sound:
            assert report.relations_explored == relations
        else:
            assert report.relations_explored <= relations

    # Long witnesses, and products shared by thousands of composites.
    @pytest.mark.parametrize("flat", [False, True])
    @pytest.mark.parametrize("k, w, composites", [(12, 2, 233), (40, 2, 2_459), (20, 1, 629)])
    def test_ring_matches_reference_closure(self, k, w, composites, flat):
        proof = ring_proof(k, w, flat)
        report = check_global_soundness(proof)
        assert (report.sound, report.witness, report.relations_explored) == (
            reference_soundness(proof)
        )
        if flat:
            assert len(report.witness.cycle) == k + 1
        else:
            assert report.relations_explored == composites

    @pytest.mark.parametrize("index", range(7))
    def test_knot_matches_reference_closure(self, index):
        planted, proof = knots()[index]
        sound, lasso, _relations = reference_soundness(proof)
        report = check_global_soundness(proof)
        assert sound == planted
        assert (report.sound, report.witness) == (sound, lasso)

    def test_knot_relation_counts(self):
        # Sound knots explore the whole closure, so equal counts show the
        # coding keeps composites apart exactly when the triples differ;
        # unsound knots stop at the first length with a bad composite,
        # where the full closure holds 4,323 to 8,012.
        counts = [check_global_soundness(proof).relations_explored for _, proof in knots()]
        assert counts[0::2] == [1_240, 6_238, 2_368, 4_498]
        assert all(count <= 30 for count in counts[1::2]), counts

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
