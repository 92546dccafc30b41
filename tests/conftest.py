from __future__ import annotations

import functools
import importlib.util
import json
import random
from pathlib import Path as FilePath

import pytest

from cep.automata import Letter, State, WeightedAutomaton
from cep.ordinal import Ordinal
from cep.proofgraph import Proof, load_proof, parse_proof

FIXTURES = FilePath(__file__).parent / "fixtures"


def fixture_path(name: str) -> FilePath:
    return FIXTURES / f"{name}.json"


def load_fixture(name: str) -> Proof:
    return load_proof(fixture_path(name))


def fixture_doc(name: str) -> dict:
    return json.loads(fixture_path(name).read_text())


def proof_from_doc(doc: dict) -> Proof:
    return parse_proof(json.dumps(doc))


def gated_out_doc(stage: str) -> dict:
    """A fixture document edited so that the ordering query (n0, a, c)
    stops at ``stage``, the stage its last reason names."""
    if stage == "global_soundness":
        doc = fixture_doc("unsound1")
        doc["nodes"][0]["con_values"] = ["c"]
        return doc
    if stage == "trace_injectivity":
        doc = fixture_doc("ambig1")
        doc["delta"][0]["pairs"] = [["a", "a", "1"], ["b", "a", "0"]]
        return doc
    doc = fixture_doc("loop2")
    if stage == "validation":
        doc["nodes"][1]["con_values"].append("a")
    elif stage == "restriction_dynamic":
        # Zero out the right-hand progression: the proof stays globally
        # sound (the left side still descends) but the right cycle is flat.
        for entry in doc["delta"]:
            if entry["from"] == "n0" and entry["side"] == "right":
                entry["pairs"] = [["c", "c", "0"]]
    elif stage == "thresholds":
        # (n0, b) is unreachable from (n0, a), so the gates pass, but its
        # infinite step is the largest left weight.
        for node in doc["nodes"][:2]:
            node["ant_values"].append("b")
        doc["delta"][0]["pairs"].append(["b", "b", "w"])
    else:
        raise ValueError(f"no edit stops at {stage!r}")
    return doc


def bench_inputs():
    """The benchmark's input generators, ``bench/inputs.py``, loaded by
    path; they import nothing from cep."""
    path = FIXTURES.parent.parent / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def knot_docs() -> list[tuple[bool, dict]]:
    """The seven (planted soundness, document) knots of the benchmark's
    ``knot`` workload, before its renaming."""
    inputs = bench_inputs()
    pool = random.Random(1)
    out = []
    for i in range(7):
        sound = i % 2 == 0
        out.append((sound, inputs.knot_doc(pool, 14 + (i // 2) % 3, 5, sound)))
    return out


@functools.lru_cache(maxsize=None)
def knots() -> tuple:
    """The seven knots of :func:`knot_docs`, parsed."""
    return tuple((sound, proof_from_doc(doc)) for sound, doc in knot_docs())


def set_in(doc, path: tuple, value) -> None:
    """Replace the value at ``path`` (a tuple of keys and indices)."""
    for step in path[:-1]:
        doc = doc[step]
    doc[path[-1]] = value


# Edits of loop2 that the parser must reject with a JSON-path location:
# (case id, path of the edited value, new value, expected location).
MALFORMED_LOOP2 = [
    ("list_trace_value", ("delta", 0, "pairs", 0, 0), ["a"], "$.delta[0].pairs[0]"),
    ("dict_trace_value", ("delta", 0, "pairs", 0, 1), {"v": "a"}, "$.delta[0].pairs[0]"),
    ("list_from", ("delta", 0, "from"), ["n0"], "$.delta[0].from"),
    ("float_weight", ("delta", 0, "pairs", 0, 2), 1.5, "$.delta[0].pairs[0]"),
    ("bool_weight", ("delta", 0, "pairs", 0, 2), True, "$.delta[0].pairs[0]"),
    ("overlong_weight", ("delta", 0, "pairs", 0, 2), "1" * 5000, "$.delta[0].pairs[0]"),
    ("bool_child_index", ("delta", 4, "child_index"), True, "$.delta[4].child_index"),
    ("dict_rule", ("nodes", 0, "rule"), {"x": 1}, "$.nodes[0].rule"),
    ("int_sequent_ant", ("nodes", 0, "sequent", "ant"), 5, "$.nodes[0].sequent"),
    ("null_sequent_con", ("nodes", 1, "sequent", "con"), None, "$.nodes[1].sequent"),
    ("dangling_child", ("nodes", 1, "children", 0), "nope", "$.nodes[1].children[0]"),
]


@pytest.fixture(scope="session")
def loop2() -> Proof:
    return load_fixture("loop2")


@pytest.fixture(scope="session")
def strict2() -> Proof:
    return load_fixture("strict2")


@pytest.fixture(scope="session")
def unsound1() -> Proof:
    return load_fixture("unsound1")


@pytest.fixture(scope="session")
def ambig1() -> Proof:
    return load_fixture("ambig1")


def random_proof_doc(
    rng: random.Random,
    max_nodes: int = 5,
    max_values: int = 2,
    weights: tuple[int, ...] = (0, 1, 2),
    injective: bool = False,
    pair_prob: float = 0.55,
) -> dict:
    """A random annotated pre-proof document.

    Each node carries some of the antecedent values a0 .. a{max_values-1}
    and the consequent values c0 .. c{max_values-1}; the root always
    carries the query values a0 and c0.  Children are drawn freely, so
    back-edges and shared subtrees occur; at least one node is axiomatic
    so maximal right traces can terminate.
    """
    ant_names = [f"a{i}" for i in range(max_values)]
    con_names = [f"c{i}" for i in range(max_values)]
    n = rng.randint(2, max_nodes)
    ids = [f"n{i}" for i in range(n)]
    children: dict[str, list[str]] = {}
    for i, node_id in enumerate(ids):
        if i == n - 1:
            children[node_id] = []
        else:
            k = rng.choice((0, 1, 1, 2))
            children[node_id] = [rng.choice(ids) for _ in range(k)]

    ant_of: dict[str, list[str]] = {}
    con_of: dict[str, list[str]] = {}
    for node_id in ids:
        ants = [v for v in ant_names if rng.random() < 0.8]
        cons = [v for v in con_names if rng.random() < 0.8]
        if node_id == ids[0]:
            ants = sorted(set(ants) | {"a0"})
            cons = sorted(set(cons) | {"c0"})
        ant_of[node_id] = ants
        con_of[node_id] = cons

    delta = []
    for node_id in ids:
        for idx, child in enumerate(children[node_id]):
            for side, values in (("left", ant_of), ("right", con_of)):
                srcs = values[node_id]
                dsts = values[child]
                pairs = []
                if injective:
                    for dst in dsts:
                        if srcs and rng.random() < pair_prob:
                            pairs.append(
                                [rng.choice(srcs), dst, rng.choice(weights)]
                            )
                else:
                    for src in srcs:
                        for dst in dsts:
                            if rng.random() < pair_prob:
                                pairs.append([src, dst, rng.choice(weights)])
                if pairs:
                    delta.append(
                        {
                            "from": node_id,
                            "child_index": idx,
                            "side": side,
                            "pairs": pairs,
                        }
                    )

    nodes = []
    for node_id in ids:
        axiomatic = not children[node_id]
        cons = con_of[node_id]
        ground = [v for v in cons if rng.random() < (0.6 if axiomatic else 0.2)]
        excluded = [v for v in cons if rng.random() < 0.1]
        equates = []
        if axiomatic:
            for a in ant_of[node_id]:
                for c in cons:
                    if rng.random() < 0.5:
                        equates.append([a, c])
        nodes.append(
            {
                "id": node_id,
                "rule": f"r{rng.randint(0, 3)}",
                "axiom": axiomatic,
                "sequent": {"ant": f"A{node_id}", "con": f"C{node_id}"},
                "ant_values": ant_of[node_id],
                "con_values": cons,
                "children": children[node_id],
                "ground": ground,
                "excluded": excluded,
                "equates": equates,
            }
        )
    return {"root": ids[0], "nodes": nodes, "delta": delta}


def random_proof(seed: int, **kwargs) -> Proof:
    return proof_from_doc(random_proof_doc(random.Random(seed), **kwargs))


def random_corpus(count: int, base_seed: int, **kwargs) -> list[Proof]:
    return [random_proof(base_seed + i, **kwargs) for i in range(count)]


def merged_delta(proof: Proof) -> dict:
    """Reference for ``Proof.pairs``, read from ``proof.delta`` by premise
    position: the pair map of each (parent, child, side) with a pair that
    occurs at several positions of the child kept at its largest weight."""
    merged: dict = {}
    for (parent, idx, side), pair_map in proof.delta.items():
        out = merged.setdefault((parent, proof.node(parent).children[idx], side), {})
        for pair, weight in pair_map.items():
            out[pair] = max(out.get(pair, weight), weight)
    return merged


def random_automaton_pair(seed: int) -> tuple[WeightedAutomaton, WeightedAutomaton]:
    """Two random 3-state automata over the letters p and q with weights
    0-3, drawn from one ``random.Random(seed)``: ``b``, then ``a``."""
    rng = random.Random(seed)
    return (
        _random_automaton(rng, "consequent"),
        _random_automaton(rng, "antecedent_approx"),
    )


def _random_automaton(rng: random.Random, kind: str) -> WeightedAutomaton:
    states = [State.node_value("n", v) for v in "xyz"]
    transitions: dict = {}
    for src in states:
        for letter in (Letter.node_ref("p"), Letter.node_ref("q")):
            for dst in states:
                if rng.random() < 0.35:
                    weight = Ordinal.from_int(rng.randint(0, 3))
                    transitions.setdefault((src, letter), {})[dst] = weight
    return WeightedAutomaton(
        kind=kind,
        states=frozenset(states),
        initial=states[0],
        finals=frozenset(s for s in states if rng.random() < 0.5),
        transitions=transitions,
    )


def gated_corpus(
    count: int, base_seed: int, progress_bias: bool = True, max_nodes: int = 4
):
    """Random trace-injective instances passing every applicability gate
    (validation, global soundness, all three structural restrictions) for
    the root query (a0, c0).  Returns (proof, query) pairs."""
    from cep.automata import TracePairQuery
    from cep.decision import applicability_gates
    from cep.proofgraph import validate

    out = []
    seed = base_seed
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 400 * count:
            raise RuntimeError("gated corpus generation did not converge")
        rng = random.Random(seed)
        seed += 1
        doc = random_proof_doc(
            rng,
            max_nodes=max_nodes,
            weights=(1, 1, 2, 0) if progress_bias else (0, 1, 2),
            injective=True,
        )
        proof = proof_from_doc(doc)
        if not validate(proof).ok:
            continue
        query = TracePairQuery(node=proof.root, ant_value="a0", con_value="c0")
        if applicability_gates(proof, query) is None:
            out.append((proof, query))
    return out


@pytest.fixture(scope="session")
def gated_instances():
    return gated_corpus(200, base_seed=7_000)


def all_paths(proof: Proof, root: str, max_len: int) -> list[tuple[str, ...]]:
    """Every path rooted at ``root`` with at most ``max_len`` nodes."""
    out: list[tuple[str, ...]] = []
    stack = [(root,)]
    while stack:
        nodes = stack.pop()
        out.append(nodes)
        if len(nodes) < max_len:
            for child in proof.node(nodes[-1]).children:
                stack.append(nodes + (child,))
    return sorted(out)


def traces_following(
    proof: Proof,
    path_nodes: tuple[str, ...],
    side: str,
    first_value: str | None = None,
) -> list[tuple[str, ...]]:
    """Every trace (of every length k <= len(path)) following the path,
    optionally restricted to a fixed first value."""
    node0 = proof.node(path_nodes[0])
    firsts = (
        [first_value]
        if first_value is not None
        else sorted(node0.values(side))
    )
    out: list[tuple[str, ...]] = []
    for first in firsts:
        if first not in node0.values(side):
            continue
        stack = [(first,)]
        while stack:
            values = stack.pop()
            out.append(values)
            i = len(values)
            if i < len(path_nodes):
                pairs = proof.pairs(path_nodes[i - 1], path_nodes[i], side)
                for (src, dst) in pairs:
                    if src == values[-1]:
                        stack.append(values + (dst,))
    return sorted(out)
