from __future__ import annotations

import random
from itertools import product

import pytest

from cep.ordinal import OMEGA, ZERO, Ordinal, ord_add
from cep.proofgraph import validate
from cep.traces import (
    back_edges,
    classify_right_trace,
    closure,
    enumerate_right_maximal,
    follows,
    prog_points,
    simple_binary_cycles,
    simple_cycles,
    sccs,
    steps,
    walk_json,
)
from conftest import (
    FIXTURES,
    all_paths,
    fixture_doc,
    knots,
    load_fixture,
    merged_delta,
    proof_from_doc,
    random_corpus,
    random_proof,
    traces_following,
)


def W(nodes, *traces):
    """The walk along ``nodes`` of one or two traces, given as strings of
    space-separated names."""
    return tuple(zip(nodes.split(), *(trace.split() for trace in traces)))


class TestFollows:
    def test_right_trace(self, loop2):
        assert follows(loop2, "right", W("n0 n1 n2", "c c c"))

    def test_short_left_trace(self, loop2):
        assert follows(loop2, "left", W("n0", "a"))

    def test_namespace_error(self, loop2):
        with pytest.raises(ValueError, match="not a right value"):
            follows(loop2, "right", W("n0 n1", "c a"))

    def test_not_a_path(self, loop2):
        # The path is checked before the values.
        with pytest.raises(ValueError, match="not a path"):
            follows(loop2, "right", W("n0 n2", "c a"))

    @pytest.mark.parametrize(
        "side, walk, message",
        [("up", W("n0", "a"), "side must be"), ("left", (), "at least one vertex")],
    )
    def test_malformed_walk(self, loop2, side, walk, message):
        with pytest.raises(ValueError, match=message):
            follows(loop2, side, walk)

    def test_binary_walk(self, loop2):
        assert follows(loop2, "left", W("n0 n1 n0", "a a a", "a a a"))

    def test_missing_pair(self):
        doc = fixture_doc("loop2")
        doc["delta"] = [e for e in doc["delta"] if e["from"] != "n0"]
        proof = proof_from_doc(doc)
        assert not follows(proof, "right", W("n0 n1", "c c"))


class TestWalkJson:
    def test_unary(self):
        assert walk_json(W("n0 n1", "c d")) == {"path": ["n0", "n1"], "trace": ["c", "d"]}

    def test_binary(self):
        assert walk_json(W("n0 n1", "a b", "b a")) == {
            "path": ["n0", "n1"],
            "trace": ["a", "b"],
            "trace_other": ["b", "a"],
        }


class TestProgPoints:
    def test_length_one_is_zero(self, loop2):
        assert prog_points(loop2, "left", W("n0", "a")) == ZERO

    def test_reverse_sum_absorbs(self):
        # Step weights [w, 1] in path order; the reverse sum 1 + w is w,
        # whereas a forward sum would give w+1.
        doc = fixture_doc("loop2")
        for entry in doc["delta"]:
            if entry["side"] != "right":
                continue
            if entry["from"] == "n0":
                entry["pairs"] = [["c", "c", "w"]]
            if entry["from"] == "n1" and entry["child_index"] == 1:
                entry["pairs"] = [["c", "c", "1"]]
        proof = proof_from_doc(doc)
        got = prog_points(proof, "right", W("n0 n1 n2", "c c c"))
        assert got == OMEGA

    def test_loop2_unrolled(self, loop2):
        got = prog_points(loop2, "right", W("n0 n1 n0 n1 n2", "c c c c c"))
        assert got == Ordinal.from_int(2)

    def test_concat_decomposition(self):
        # Prog(t1 . t2) = Prog(t2) + Prog(t1) for every split point, on
        # random proofs.
        checked = 0
        for seed in range(12):
            proof = random_proof(3_000 + seed)
            for path_nodes in all_paths(proof, proof.root, 5):
                for side in ("left", "right"):
                    for values in traces_following(proof, path_nodes, side):
                        walk = tuple(zip(path_nodes, values))
                        if len(walk) < 2:
                            continue
                        whole = prog_points(proof, side, walk)
                        for i in range(len(walk)):
                            first = prog_points(proof, side, walk[: i + 1])
                            second = prog_points(proof, side, walk[i:])
                            assert whole == ord_add(second, first)
                            checked += 1
        assert checked > 100


class TestClassify:
    def test_grounded_axiom(self, loop2):
        cls = classify_right_trace(loop2, W("n0 n1 n2", "c c c"))
        assert cls.maximal and cls.positive
        assert cls.partially_maximal and cls.grounded
        assert not cls.fully_maximal

    def test_not_maximal(self, loop2):
        cls = classify_right_trace(loop2, W("n0 n1", "c c"))
        assert not cls.maximal

    def test_excluded_is_negative(self):
        doc = fixture_doc("loop2")
        doc["nodes"][2]["excluded"] = ["c"]
        proof = proof_from_doc(doc)
        cls = classify_right_trace(proof, W("n0 n1 n2", "c c c"))
        assert cls.maximal and not cls.positive

    def test_wrong_side(self, loop2):
        # A walk of antecedent values is not a right-hand trace.
        with pytest.raises(ValueError, match="not a right value"):
            classify_right_trace(loop2, W("n0", "a"))


class TestEnumerateRightMaximal:
    def test_loop2_len3(self, loop2):
        got = enumerate_right_maximal(loop2, "n0", "c", 3)
        assert got == [W("n0 n1 n2", "c c c")]

    def test_loop2_len5(self, loop2):
        got = enumerate_right_maximal(loop2, "n0", "c", 5)
        assert got == [W("n0 n1 n0 n1 n2", "c c c c c"), W("n0 n1 n2", "c c c")]

    def test_antecedent_query_errors(self, unsound1):
        with pytest.raises(ValueError, match="not a consequent value"):
            enumerate_right_maximal(unsound1, "n0", "a", 4)

    @pytest.mark.parametrize("seed", range(15))
    def test_results_are_positive_maximal(self, seed):
        proof = random_proof(4_000 + seed)
        root = proof.root
        for value in sorted(proof.node(root).con_values):
            for walk in enumerate_right_maximal(proof, root, value, 6):
                cls = classify_right_trace(proof, walk)
                assert cls.maximal and cls.positive


class TestSteps:
    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_pair_maps(self, side, k):
        # Brute force: every k-tuple of trace pairs on each child edge,
        # read from delta by premise position, kept when its sources are
        # the vertex's values.
        for proof in random_corpus(40, 16_000):
            reference = merged_delta(proof)
            for node_id, node in proof.nodes.items():
                for values in product(sorted(node.values(side)), repeat=k):
                    expected = []
                    for child in set(node.children):
                        items = reference.get((node_id, child, side), {}).items()
                        for choice in product(items, repeat=k):
                            if [src for (src, _d), _w in choice] == list(values):
                                target = (child, *(dst for (_s, dst), _w in choice))
                                expected.append((target, tuple(w for _p, w in choice)))
                    assert steps(proof, side, (node_id, *values)) == sorted(expected)

    def test_unknown_node(self, loop2):
        with pytest.raises(KeyError, match="unknown node id"):
            steps(loop2, "left", ("zz", "a"))


def reference_cycles(proof, side, k):
    """Reference enumerator for ``_simple_cycles``: every vertex is a root
    and walks every simple cycle through it, with no ordering cut."""
    roots = sorted(
        (node_id, *values)
        for node_id, node in proof.nodes.items()
        for values in product(node.values(side), repeat=k)
    )
    walks = []
    for root in roots:
        stack = [((root,), frozenset([root]))]
        while stack:
            walk, on_walk = stack.pop()
            for vertex, _w in steps(proof, side, walk[-1]):
                if vertex == root:
                    walks.append(walk + (vertex,))
                elif vertex not in on_walk:
                    stack.append((walk + (vertex,), on_walk | {vertex}))
    return sorted(walks, key=lambda walk: tuple(zip(*walk)))


def assert_matches_reference(proof, binary):
    for side in ("left", "right"):
        assert simple_cycles(proof, side) == reference_cycles(proof, side, 1)
    if binary:
        assert simple_binary_cycles(proof) == reference_cycles(proof, "left", 2)


class TestSimpleCycles:
    def test_loop2_left(self, loop2):
        got = simple_cycles(loop2, "left")
        assert got == [W("n0 n1 n0", "a a a"), W("n1 n0 n1", "a a a")]

    def test_loop2_binary_diagonal(self, loop2):
        got = simple_binary_cycles(loop2)
        assert W("n0 n1 n0", "a a a", "a a a") in got
        assert all(v1 == v2 for walk in got for _node, v1, v2 in walk)

    def test_acyclic_graph(self):
        doc = fixture_doc("loop2")
        # Cut the back-edge, leaving a straight-line proof.
        doc["nodes"][1]["children"] = ["n2"]
        doc["delta"] = [
            e
            for e in doc["delta"]
            if not (e["from"] == "n1" and e["child_index"] == 0)
        ]
        for e in doc["delta"]:
            if e["from"] == "n1":
                e["child_index"] = 0
        proof = proof_from_doc(doc)
        assert simple_cycles(proof, "left") == []
        assert simple_cycles(proof, "right") == []
        assert simple_binary_cycles(proof) == []

    def test_self_loop(self, unsound1):
        got = simple_cycles(unsound1, "left")
        assert got == [W("n0 n0", "a a")]

    @pytest.mark.parametrize("seed", range(10))
    def test_no_internal_repeats(self, seed):
        proof = random_proof(5_000 + seed)
        for walk in simple_cycles(proof, "left"):
            assert walk[0] == walk[-1]
            assert len(set(walk[:-1])) == len(walk) - 1
            assert follows(proof, "left", walk)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_reference_on_random_proofs(self, seed):
        assert_matches_reference(random_proof(5_100 + seed), binary=True)

    @pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.json")))
    def test_matches_reference_on_fixtures(self, name):
        assert_matches_reference(load_fixture(name), binary=True)

    @pytest.mark.parametrize("index", [0, 3, 4, 6])
    def test_matches_reference_on_knots(self, index):
        # Unary cycles only: binary cycles on a knot run for minutes.
        assert_matches_reference(knots()[index][1], binary=False)


class TestTraceInjectivityConsequence:
    @pytest.mark.parametrize("seed", range(20))
    def test_equal_ends_imply_equal_traces(self, seed):
        # With a trace-injective delta, two traces of equal length on a
        # common path with the same first and last values coincide.
        proof = random_proof(6_000 + seed, injective=True)
        assert validate(proof).trace_injective
        for path_nodes in all_paths(proof, proof.root, 6):
            for side in ("left", "right"):
                full = [
                    v
                    for v in traces_following(proof, path_nodes, side)
                    if len(v) == len(path_nodes)
                ]
                seen = {}
                for values in full:
                    key = (values[0], values[-1])
                    assert seen.setdefault(key, values) == values


def random_graph(seed):
    """A seeded graph on shuffled ``(node, value)`` tuple vertices, with
    self-loops and isolated vertices, as a dict of successor lists."""
    rng = random.Random(seed)
    n = rng.randint(1, 14)
    vertices = [(f"n{i % 3}", f"v{i}") for i in range(n)]
    rng.shuffle(vertices)
    isolated = set(rng.sample(vertices, rng.randint(0, n // 3)))
    linked = [v for v in vertices if v not in isolated]
    density = rng.choice([0.1, 0.25, 0.5])
    return {
        v: [] if v in isolated else [w for w in linked if rng.random() < density]
        for v in vertices
    }


def mutual_classes(edges):
    """The mutual-reachability classes of ``edges``, by brute force."""
    reach = {}
    for v in edges:
        seen, frontier = {v}, [v]
        while frontier:
            for w in edges[frontier.pop()]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        reach[v] = seen
    return {
        frozenset(w for w in edges if w in reach[v] and v in reach[w]) for v in edges
    }


class TestSccs:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_graphs(self, seed):
        edges = random_graph(seed)
        comps = sccs(edges)
        # A partition of the vertices into the mutual-reachability classes.
        assert sum(len(comp) for comp in comps) == len(edges)
        assert {frozenset(comp) for comp in comps} == mutual_classes(edges)
        assert all(comp == sorted(comp) for comp in comps)
        # Reverse topological order: cross edges point to earlier components.
        position = {v: i for i, comp in enumerate(comps) for v in comp}
        for v, targets in edges.items():
            for w in targets:
                assert position[v] >= position[w]

    def test_graph_has_self_loops_and_isolated_vertices(self):
        graphs = [random_graph(seed) for seed in range(60)]
        assert any(v in targets for g in graphs for v, targets in g.items())
        assert any(
            not targets and all(v not in ts for ts in g.values())
            for g in graphs
            for v, targets in g.items()
        )

    def test_long_chain_is_iterative(self):
        edges = {("n", i): [("n", i + 1)] for i in range(5_000)}
        edges[("n", 5_000)] = [("n", 0)]
        assert sccs(edges) == [sorted(edges)]


class TestBackEdges:
    def search(self, edges, roots):
        """The yielded edges, each path copied, and the vertices whose
        successors the search read, in the order it read them."""
        read = []

        def successors(v):
            read.append(v)
            return edges[v]

        found = [(list(path), target) for path, target in back_edges(roots, successors)]
        return found, read

    @pytest.mark.parametrize("seed", range(60))
    def test_random_graphs(self, seed):
        edges = random_graph(seed)
        rng = random.Random(seed)
        # Every vertex in a shuffled order, then some again.
        roots = rng.sample(list(edges), len(edges))
        roots += rng.sample(roots, len(roots) // 2)
        found, read = self.search(edges, roots)
        # Each path is a path of the graph from a root, and its last vertex
        # steps back to a vertex on it.
        for path, target in found:
            assert path[0] in roots
            assert all(w in edges[v] for v, w in zip(path, path[1:]))
            assert target in edges[path[-1]]
            assert target in path
        # The targets meet every cycle: without them no component of more
        # than one vertex, and no self-loop, is left.
        cut = {target for _path, target in found}
        rest = {
            v: [w for w in targets if w not in cut]
            for v, targets in edges.items()
            if v not in cut
        }
        for comp in sccs(rest):
            assert len(comp) == 1 and comp[0] not in rest[comp[0]]
        # Every target lies on a cycle.
        for target in cut:
            assert target in closure(edges[target], edges.__getitem__)
        # Each vertex is searched once, and a search starts only at a root
        # that no earlier root reaches.
        assert len(read) == len(set(read)) == len(edges)
        for path, _target in found:
            earlier = roots[: roots.index(path[0])]
            assert path[0] not in closure(earlier, edges.__getitem__)

    def test_long_cycle_is_iterative(self):
        edges = {("n", i): [("n", i + 1)] for i in range(5_000)}
        edges[("n", 5_000)] = [("n", 0)]
        found, _read = self.search(edges, sorted(edges))
        assert found == [(sorted(edges), ("n", 0))]
