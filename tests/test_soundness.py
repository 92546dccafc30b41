from __future__ import annotations

import functools
import json
import logging
import random
from collections import deque

import pytest

from cep.proofgraph import LEFT, parse_proof, serialize_proof
from cep.soundness import (
    Lasso,
    _compose,
    _cut_nodes,
    _edge_relations,
    _is_bad,
    _rows,
    _shortest_root_path,
    check_global_soundness,
)
from cep.traces import closure
from conftest import (
    bench_inputs,
    fixture_doc,
    knots,
    load_fixture,
    proof_from_doc,
    random_proof,
)

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


def reference_soundness(proof, sources=None):
    """The full composition closure over frozenset relations (FIFO, sorted
    children) of the paths that start at a node of ``sources`` (every node
    when None), then the least bad witness by (length, path): the verdict,
    the lasso and the number of composites."""
    base = {
        (parent, child): edge_relation(proof, parent, child)
        for parent, child in proof.edges()
    }
    paths = {}
    queue = deque()
    for (parent, child), rel in sorted(base.items()):
        if sources is not None and parent not in sources:
            continue
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


# The random draws of TestVerdicts, also checked for their cut nodes.
VERDICT_SEEDS = [*range(8_000, 8_030), *range(9_000, 9_040)]
MORE_VALUES_SEEDS = range(10_000, 10_040)


def more_values_proof(seed: int):
    return random_proof(seed, max_nodes=6, max_values=3 + seed % 2)


def check_against_reference(proof):
    """Check ``check_global_soundness`` against the reference and return
    its report.  The verdict and lasso are those of the closure from every
    node; the verdict is also that of the closure from the cut nodes,
    whose composites the report counts: all of them on a sound proof, and
    no more on an unsound one, where the closure stops early."""
    sound, lasso, _relations = reference_soundness(proof)
    cut_sound, _cut_lasso, relations = reference_soundness(proof, _cut_nodes(proof))
    report = check_global_soundness(proof)
    assert (report.sound, report.witness) == (sound, lasso)
    assert cut_sound == sound
    if sound:
        assert report.relations_explored == relations
    else:
        assert report.relations_explored <= relations
    return report


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
    """The frozenset form of a relation coded by ``_edge_relations``: bit
    ``i*n + j`` of each of the two ints is the step from value i to value j
    over the ``n`` sorted left value names."""
    names = sorted(
        {v for edge in proof.edges() for pair in proof.pairs(*edge, LEFT) for v in pair}
    )
    n = len(names)
    any_bits, down_bits = coded
    assert any_bits >> n * n == 0 and down_bits & ~any_bits == 0
    return frozenset(
        (names[i], names[j], DOWN if down_bits >> i * n + j & 1 else FLAT)
        for i in range(n)
        for j in range(n)
        if any_bits >> i * n + j & 1
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

    def test_coding_masks(self):
        n, ones, diag, _coded = _edge_relations(ring_proof(3, 3))
        assert (n, ones, diag) == (3, 0b001_001_001, 0b100_010_001)

    def test_rows_skip_empty(self):
        # Over a, b, c: a -> b down, c -> a and c -> c flat.
        rel = (0b101_000_010, 0b000_000_010)
        assert _rows(rel, 3) == [(0, 0b010, 0b010), (2, 0b101, 0)]
        assert _rows((0, 0), 3) == []

    @pytest.mark.parametrize("seed", range(40))
    def test_coding_matches_reference(self, seed):
        proof = random_proof(9_000 + seed)
        n, ones, diag, coded = _edge_relations(proof)
        for (parent, child), rel in coded.items():
            assert decode(proof, rel) == edge_relation(proof, parent, child)
            for grandchild in proof.node(child).children:
                ref = compose(
                    edge_relation(proof, parent, child),
                    edge_relation(proof, child, grandchild),
                )
                got = _compose(rel, _rows(coded[(child, grandchild)], n), ones)
                assert decode(proof, got) == ref
                bad = compose(ref, ref) == ref and not has_progress_loop(ref)
                assert _is_bad(got, n, ones, diag) == bad


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

    @pytest.mark.parametrize("seed", VERDICT_SEEDS)
    def test_matches_reference_closure(self, seed):
        check_against_reference(random_proof(seed))

    @pytest.mark.parametrize("seed", MORE_VALUES_SEEDS)
    def test_matches_reference_closure_more_values(self, seed):
        check_against_reference(more_values_proof(seed))

    # Least lassos whose cycle starts at a node outside the cut, so the
    # second closure, from every node, is the one that finds them.
    @pytest.mark.parametrize(
        "seed, max_nodes, max_values, cycle, cut",
        [
            pytest.param(20_078, 7, 4, ("n1", "n0", "n1", "n0", "n1"), {"n0", "n3"}, id="20078"),
            pytest.param(20_138, 7, 4, ("n2", "n0", "n2"), {"n0", "n1"}, id="20138"),
            pytest.param(20_427, 6, 2, ("n1", "n2", "n1"), {"n0", "n2"}, id="20427"),
            pytest.param(20_439, 8, 2, ("n2", "n5", "n4", "n2"), {"n4"}, id="20439"),
            pytest.param(20_752, 6, 3, ("n3", "n4", "n3"), {"n4"}, id="20752"),
        ],
    )
    def test_lasso_outside_cut(self, seed, max_nodes, max_values, cycle, cut):
        proof = random_proof(seed, max_nodes=max_nodes, max_values=max_values)
        assert _cut_nodes(proof) == cut
        report = check_against_reference(proof)
        assert report.witness.cycle == cycle

    # A seeded sweep over larger draws than the ones above.
    @pytest.mark.parametrize("block", range(10))
    def test_matches_reference_closure_sweep(self, block):
        for seed in range(30_000 + 30 * block, 30_030 + 30 * block):
            check_against_reference(
                random_proof(seed, max_nodes=5 + seed % 4, max_values=2 + seed % 3)
            )

    # Long witnesses, products shared by thousands of composites, and wide
    # rows: ring(3, 70) has 70 left values, so each row is longer than a
    # machine word and each coded matrix has 4,900 bits.  ``composites``
    # is the size of the closure from every node; the only cut node is n0,
    # from which the closure has k + 1 composites.
    @pytest.mark.parametrize("flat", [False, True])
    @pytest.mark.parametrize(
        "k, w, composites", [(12, 2, 233), (40, 2, 2_459), (20, 1, 629), (3, 70, 17)]
    )
    def test_ring_matches_reference_closure(self, k, w, composites, flat):
        proof = ring_proof(k, w, flat)
        assert _cut_nodes(proof) == {"n0"}
        report = check_against_reference(proof)
        if flat:
            assert len(report.witness.cycle) == k + 1
        else:
            assert reference_soundness(proof)[2] == composites
            assert report.relations_explored == k + 1

    @pytest.mark.parametrize("index", range(7))
    def test_knot_matches_reference_closure(self, index):
        planted, proof = knots()[index]
        assert check_against_reference(proof).sound == planted

    @pytest.mark.parametrize("sound", [True, False])
    @pytest.mark.parametrize("seed", range(3))
    def test_nine_value_knot_matches_reference_closure(self, seed, sound):
        doc = bench_inputs().knot_doc(random.Random(seed), 14, 9, sound)
        assert check_against_reference(proof_from_doc(doc)).sound == sound

    def test_knot_relation_counts(self):
        # Sound knots explore the whole closure from their 3 to 7 cut
        # nodes, so equal counts show the coding keeps composites apart
        # exactly when the triples differ; unsound knots stop at the first
        # length with a bad composite, where the full closure from the cut
        # nodes holds 2,172 to 3,703.
        counts = [check_global_soundness(proof).relations_explored for _, proof in knots()]
        assert counts[0::2] == [415, 2_159, 1_072, 860]
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


class TestClosureRecord:
    """The DEBUG record of each closure run: the composites found, the
    distinct relations numbered, the (relation, edge) products composed
    and the start nodes.  A sound proof logs the run from its cut nodes;
    an unsound one also logs the run from every node that finds its
    lasso, which reads the first run's tables, so its relations and
    products count those of both runs."""

    def records(self, caplog, proof) -> list[tuple]:
        caplog.set_level(logging.DEBUG, logger="cep.soundness")
        caplog.clear()
        check_global_soundness(proof)
        return [r.args for r in caplog.records if r.msg.startswith("composition closure")]

    def test_loop2(self, caplog, loop2):
        assert self.records(caplog, loop2) == [(3, 1, 3, 1)]

    def test_unsound1_logs_lasso_lookup(self, caplog, unsound1):
        assert self.records(caplog, unsound1) == [(1, 1, 0, 1), (1, 1, 0, 1)]

    def test_unsound_knot_logs_lasso_lookup(self, caplog):
        assert self.records(caplog, knots()[1][1]) == [(10, 10, 0, 6), (22, 20, 0, 15)]

    @pytest.mark.parametrize(
        "make",
        [lambda: load_fixture("unsound1"), lambda: knots()[1][1]],
        ids=["unsound1", "knot1"],
    )
    def test_one_table_set_per_call(self, monkeypatch, make):
        # The lasso run reads the cut-node run's tables.
        proof = make()
        calls = []

        def counted(arg):
            calls.append(arg)
            return _edge_relations(arg)

        monkeypatch.setattr("cep.soundness._edge_relations", counted)
        assert not check_global_soundness(proof).sound
        assert calls == [proof]

    def test_sound_knots(self, caplog):
        records = [self.records(caplog, proof) for _, proof in knots()[0::2]]
        assert records == [
            [(415, 93, 245, 3)],
            [(2_159, 381, 1_510, 6)],
            [(1_072, 339, 971, 7)],
            [(860, 131, 767, 3)],
        ]


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


def cut_cases():
    """(case id, proof factory) for the fixtures, the rings, the knots and
    the random draws of TestVerdicts."""
    cases = [
        (name, functools.partial(load_fixture, name))
        for name in ("loop2", "unsound1", "strict2", "unbalanced3", "ambig1")
    ]
    for k, w in [(12, 2), (40, 2), (20, 1), (3, 70)]:
        cases.append((f"ring{k}_{w}", functools.partial(ring_proof, k, w)))
    for index in range(7):
        cases.append((f"knot{index}", lambda index=index: knots()[index][1]))
    for seed in VERDICT_SEEDS:
        cases.append((f"seed{seed}", functools.partial(random_proof, seed)))
    for seed in MORE_VALUES_SEEDS:
        cases.append((f"seed{seed}", functools.partial(more_values_proof, seed)))
    return [pytest.param(make, id=case) for case, make in cases]


class TestCutNodes:
    @pytest.mark.parametrize("make", cut_cases())
    def test_cut_meets_every_cycle(self, make):
        proof = make()
        cut = _cut_nodes(proof)
        # Rooted cycles up to 8 nodes long, and every cycle of the rings.
        for cycle in node_cycles(proof, min(len(proof.nodes), 8)):
            assert cut & set(cycle), cycle
        for node in cut:
            children = proof.node(node).children
            assert node in closure(children, lambda v: proof.node(v).children)

    def test_acyclic_proof_has_no_cut(self):
        # loop2 with the back edge n1 -> n0 turned into an edge n0 -> n2.
        doc = fixture_doc("loop2")
        doc["nodes"][0]["children"] = ["n1", "n2"]
        doc["nodes"][1]["children"] = ["n2"]
        for entry in doc["delta"]:
            if entry["from"] == "n1" and entry["child_index"] == 0:
                entry["from"], entry["child_index"] = "n0", 1
            elif entry["from"] == "n1":
                entry["child_index"] = 0
        proof = proof_from_doc(doc)
        assert node_cycles(proof, len(proof.nodes)) == []
        assert _cut_nodes(proof) == set()
        report = check_global_soundness(proof)
        assert (report.sound, report.relations_explored) == (True, 0)


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
