"""Seeded input generators for the benchmark workloads.

Every generator returns proof documents (plain dicts in the ``cep`` JSON
format) and takes its randomness from a ``random.Random`` the caller
seeds, so the same seed always gives the same documents.  Nothing here
imports ``cep``; the corpus filter that needs the library lives in
``workload.py``."""

from __future__ import annotations

import random

ANT_NAMES = ("a0", "a1")
CON_NAMES = ("c0", "c1")


def _node(node_id, ants, cons, children, ground=(), equates=(), rule="r"):
    return {
        "id": node_id,
        "rule": rule,
        "axiom": not children,
        "sequent": {"ant": f"A{node_id}", "con": f"C{node_id}"},
        "ant_values": list(ants),
        "con_values": list(cons),
        "children": list(children),
        "ground": list(ground),
        "excluded": [],
        "equates": [list(p) for p in equates],
    }


def ring_doc(k: int, w: int) -> dict:
    """``ring(k, w)``: a cycle n0 -> ... -> n{k-1} -> n0 with an exit from
    n{k-1} to one axiom; ``w`` antecedent values a_i and ``w`` consequent
    values c_i, every edge mapping each value to itself; left weight 2 and
    right weight 1 on n0 -> n1, weight 0 elsewhere.  The axiom grounds
    every c_i and equates a_i with c_i.  The query (n0, a0, c0) passes
    every gate and both ``c0 <= a0`` and ``c0 < a0`` hold."""
    if k < 2 or w < 1:
        raise ValueError("ring needs k >= 2 and w >= 1")
    ants = [f"a{i}" for i in range(w)]
    cons = [f"c{i}" for i in range(w)]
    ids = [f"n{i}" for i in range(k)]
    axiom = "x"
    nodes = []
    delta = []
    for i, node_id in enumerate(ids):
        children = [ids[(i + 1) % k]]
        if i == k - 1:
            children.append(axiom)
        nodes.append(_node(node_id, ants, cons, children))
        for idx, _child in enumerate(children):
            first = i == 0 and idx == 0
            for side, values, weight in (("left", ants, 2), ("right", cons, 1)):
                delta.append(
                    {
                        "from": node_id,
                        "child_index": idx,
                        "side": side,
                        "pairs": [[v, v, str(weight if first else 0)] for v in values],
                    }
                )
    nodes.append(
        _node(axiom, ants, cons, [], ground=cons, equates=zip(ants, cons), rule="ax")
    )
    return {"root": ids[0], "nodes": nodes, "delta": delta}


def knot_doc(rng: random.Random, n_nodes: int, n_values: int, sound: bool) -> dict:
    """A dense pre-proof with a planted global soundness answer.

    A forward spine n0 -> ... -> n{n-1} carries random back edges (to an
    earlier node or to itself), at most one per node.  Every edge has the
    identity left pairs, weight 1 on back edges and 0 on forward ones, so
    every infinite path has a progressing trace, plus one random extra
    left pair between two distinct values.  That pair gives its target two
    sources, so the proof is never trace injective and the query is gated
    out before any automaton is built.  An unsound knot adds one
    self-loop, all left weights 0, at a non-root node that has no other
    edge to itself: the loop's pairs would merge with those of any other
    edge to the same node."""
    ants = [f"a{i}" for i in range(n_values)]
    ids = [f"n{i}" for i in range(n_nodes)]
    children: dict[str, list[str]] = {node_id: [] for node_id in ids}
    back: set[tuple[str, int]] = set()
    for i, node_id in enumerate(ids[:-1]):
        children[node_id].append(ids[i + 1])
    for i, node_id in enumerate(ids):
        target = ids[rng.randint(0, i)]
        if rng.random() < 0.5 and target not in children[node_id]:
            back.add((node_id, len(children[node_id])))
            children[node_id].append(target)
    loop_at = None
    if not sound:
        candidates = [
            node_id for node_id in ids[1:-1] if node_id not in children[node_id]
        ]
        loop_at = rng.choice(candidates)
        children[loop_at].append(loop_at)
    delta = []
    for node_id in ids:
        for idx, _child in enumerate(children[node_id]):
            is_loop = node_id == loop_at and idx == len(children[node_id]) - 1
            weight = 1 if (node_id, idx) in back else 0
            pairs = {(v, v): weight for v in ants}
            src = rng.choice(ants)
            dst = rng.choice([v for v in ants if v != src])
            pairs[(src, dst)] = 0 if is_loop else rng.randint(0, 1)
            delta.append(
                {
                    "from": node_id,
                    "child_index": idx,
                    "side": "left",
                    "pairs": [[s, d, str(wt)] for (s, d), wt in sorted(pairs.items())],
                }
            )
    # The spine ends in an axiom; that edge carries no pairs.
    children[ids[-1]].append("x")
    cons = ["c0"]
    nodes = [_node(node_id, ants, cons, children[node_id]) for node_id in ids]
    nodes.append(_node("x", ants, cons, [], ground=cons, rule="ax"))
    return {"root": ids[0], "nodes": nodes, "delta": delta}


def random_proof_doc(rng: random.Random) -> dict:
    """A random trace-injective pre-proof with at most 4 nodes and 2 values
    per side, drawing from ``rng`` in exactly the order the test suite's
    ``random_proof_doc(rng, max_nodes=4, max_values=2, weights=(1, 1, 2, 0),
    injective=True)`` does, so both give the same documents."""
    weights = (1, 1, 2, 0)
    n = rng.randint(2, 4)
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
        ants = [v for v in ANT_NAMES if rng.random() < 0.8]
        cons = [v for v in CON_NAMES if rng.random() < 0.8]
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
                pairs = []
                for dst in values[child]:
                    if srcs and rng.random() < 0.55:
                        pairs.append([rng.choice(srcs), dst, rng.choice(weights)])
                if pairs:
                    delta.append(
                        {"from": node_id, "child_index": idx, "side": side, "pairs": pairs}
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


def rename(doc: dict, rng: random.Random) -> tuple[dict, dict]:
    """The document with node ids, antecedent values and consequent values
    each permuted among their own labels, plus the mapping used.  The
    orderings do not depend on names, so the verdicts stay the same."""
    mapping: dict[str, str] = {}
    ants = sorted({v for n in doc["nodes"] for v in n["ant_values"]})
    cons = sorted({v for n in doc["nodes"] for v in n["con_values"]})
    for names in ([n["id"] for n in doc["nodes"]], ants, cons):
        shuffled = list(names)
        rng.shuffle(shuffled)
        mapping.update(zip(names, shuffled))

    def m(values):
        return [mapping[v] for v in values]

    nodes = []
    for node in doc["nodes"]:
        node = dict(node)
        node["id"] = mapping[node["id"]]
        for key in ("ant_values", "con_values", "children", "ground", "excluded"):
            node[key] = m(node[key])
        node["equates"] = [m(pair) for pair in node["equates"]]
        nodes.append(node)
    delta = [
        {
            **entry,
            "from": mapping[entry["from"]],
            "pairs": [[mapping[s], mapping[d], w] for s, d, w in entry["pairs"]],
        }
        for entry in doc["delta"]
    ]
    return {"root": mapping[doc["root"]], "nodes": nodes, "delta": delta}, mapping
