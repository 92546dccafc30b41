"""Paths, traces and the follows relation; reverse-sum trace sizes;
maximal-trace classification; cycle and reachability analysis over
(node, value) pairs.  The graph primitives shared with the automata and
the restriction checks live here too: :func:`closure` (every vertex
reachable from a set of starts) and :func:`sccs` (iterative Tarjan).

A trace may be shorter than the path it follows: it is always aligned to
the path's first ``len(trace)`` nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ordinal import ZERO, Ordinal, ord_add
from .proofgraph import LEFT, RIGHT, SIDES, Proof

__all__ = [
    "Path",
    "Trace",
    "TraceClassification",
    "is_path",
    "follows",
    "prog_points",
    "classify_right_trace",
    "enumerate_right_maximal",
    "simple_cycles",
    "simple_binary_cycles",
    "traces_on_path",
    "reachable_pairs",
    "closure",
    "sccs",
]


@dataclass(frozen=True)
class Path:
    nodes: tuple[str, ...]

    def __post_init__(self):
        if not self.nodes:
            raise ValueError("a path has at least one node")

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class Trace:
    side: str
    values: tuple[str, ...]

    def __post_init__(self):
        if self.side not in SIDES:
            raise ValueError(f"side must be 'left' or 'right', got {self.side!r}")
        if not self.values:
            raise ValueError("a trace has at least one value")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class TraceClassification:
    maximal: bool
    positive: bool
    partially_maximal: bool
    fully_maximal: bool
    grounded: bool


def is_path(proof: Proof, path: Path) -> bool:
    """True when every consecutive node pair is a parent/child edge."""
    for a, b in zip(path.nodes, path.nodes[1:]):
        if b not in proof.node(a).children:
            return False
    return True


def _check_alignment(proof: Proof, path: Path, trace: Trace):
    if len(trace) > len(path):
        raise ValueError(
            f"trace of length {len(trace)} cannot follow a path of length {len(path)}"
        )
    if not is_path(proof, path):
        raise ValueError(f"{path.nodes} is not a path of the proof")
    for i, value in enumerate(trace.values):
        node = proof.node(path.nodes[i])
        if value not in node.values(trace.side):
            raise ValueError(
                f"value {value!r} is not a {trace.side} value of node {node.id!r}"
            )


def follows(proof: Proof, path: Path, trace: Trace) -> bool:
    """True iff every consecutive value pair is a trace pair along the
    aligned edges of the path."""
    _check_alignment(proof, path, trace)
    for i in range(len(trace) - 1):
        pairs = proof.pairs(path.nodes[i], path.nodes[i + 1], trace.side)
        if (trace.values[i], trace.values[i + 1]) not in pairs:
            return False
    return True


def _step_weights(proof: Proof, path: Path, trace: Trace) -> list[Ordinal]:
    return [
        proof.pairs(path.nodes[i], path.nodes[i + 1], trace.side)[
            (trace.values[i], trace.values[i + 1])
        ]
        for i in range(len(trace) - 1)
    ]


def prog_points(proof: Proof, path: Path, trace: Trace) -> Ordinal:
    """The size of a trace along a path: the *reverse* ordinal sum of its
    step weights (last step first; zero for one-value traces)."""
    if not follows(proof, path, trace):
        raise ValueError("trace does not follow the path")
    total = ZERO
    for weight in _step_weights(proof, path, trace):
        total = ord_add(weight, total)
    return total


def classify_right_trace(proof: Proof, path: Path, trace: Trace) -> TraceClassification:
    if trace.side != RIGHT:
        raise ValueError("classification applies to right-hand traces")
    if not follows(proof, path, trace):
        raise ValueError("trace does not follow the path")
    final_node = proof.node(path.nodes[len(trace) - 1])
    final_value = trace.values[-1]
    terminal = _terminal_at(proof, final_node.id, final_value, RIGHT)
    return TraceClassification(
        maximal=terminal,
        positive=final_value not in final_node.excluded,
        partially_maximal=final_node.axiomatic,
        fully_maximal=terminal and not final_node.axiomatic,
        grounded=final_value in final_node.ground,
    )


def _terminal_at(proof: Proof, node_id: str, value: str, side: str) -> bool:
    node = proof.node(node_id)
    for child in set(node.children):
        for src, _dst in proof.pairs(node_id, child, side):
            if src == value:
                return False
    return True


def _successors(proof: Proof, node_id: str, value: str, side: str):
    """Sorted (child, next value, weight) steps of a (node, value) pair."""
    node = proof.node(node_id)
    out = []
    for child in sorted(set(node.children)):
        for (src, dst), weight in sorted(proof.pairs(node_id, child, side).items()):
            if src == value:
                out.append((child, dst, weight))
    return out


def enumerate_right_maximal(
    proof: Proof, node_id: str, value: str, max_path_len: int
) -> list[tuple[Path, Trace]]:
    """All positive maximal right-hand traces with the given first value,
    following paths rooted at the node of length at most ``max_path_len``,
    in lexicographic (path, trace) order."""
    node = proof.node(node_id)
    if value not in node.con_values:
        raise ValueError(
            f"value {value!r} is not a consequent value of node {node_id!r}"
        )
    results: list[tuple[Path, Trace]] = []
    stack = [((node_id,), (value,))]
    while stack:
        nodes, values = stack.pop()
        current_node, current_value = nodes[-1], values[-1]
        if _terminal_at(proof, current_node, current_value, RIGHT):
            if current_value not in proof.node(current_node).excluded:
                results.append(
                    (Path(nodes), Trace(side=RIGHT, values=values))
                )
            continue
        if len(nodes) >= max_path_len:
            continue
        for child, dst, _w in _successors(proof, current_node, current_value, RIGHT):
            stack.append((nodes + (child,), values + (dst,)))
    results.sort(key=lambda pt: (pt[0].nodes, pt[1].values))
    return results


def simple_cycles(proof: Proof, side: str) -> list[tuple[Path, Trace]]:
    """All simple trace cycles on one side, rooted at each (node, value)
    pair they visit.  A cycle is simple when no (node, value) pair repeats
    other than the root at both ends."""
    if side not in SIDES:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    results: list[tuple[Path, Trace]] = []
    roots = sorted(
        (node_id, value)
        for node_id, node in proof.nodes.items()
        for value in node.values(side)
    )
    for root in roots:
        stack = [((root[0],), (root[1],), frozenset([root]))]
        while stack:
            nodes, values, on_path = stack.pop()
            for child, dst, _w in _successors(proof, nodes[-1], values[-1], side):
                step = (child, dst)
                if step == root:
                    results.append(
                        (
                            Path(nodes + (child,)),
                            Trace(side=side, values=values + (dst,)),
                        )
                    )
                elif step not in on_path:
                    stack.append(
                        (nodes + (child,), values + (dst,), on_path | {step})
                    )
    results.sort(key=lambda pt: (pt[0].nodes, pt[1].values))
    return results


def simple_binary_cycles(proof: Proof) -> list[tuple[Path, Trace, Trace]]:
    """All simple binary cycles of left-hand trace pairs.  Repetition is
    judged on (node, value, value) triples, so the component traces need
    not be simple cycles themselves."""
    results: list[tuple[Path, Trace, Trace]] = []
    roots = sorted(
        (node_id, v1, v2)
        for node_id, node in proof.nodes.items()
        for v1 in node.ant_values
        for v2 in node.ant_values
    )
    for root in roots:
        stack = [((root[0],), (root[1],), (root[2],), frozenset([root]))]
        while stack:
            nodes, vals1, vals2, on_path = stack.pop()
            steps1 = _successors(proof, nodes[-1], vals1[-1], LEFT)
            steps2 = _successors(proof, nodes[-1], vals2[-1], LEFT)
            for child1, dst1, _w1 in steps1:
                for child2, dst2, _w2 in steps2:
                    if child1 != child2:
                        continue
                    triple = (child1, dst1, dst2)
                    if triple == root:
                        results.append(
                            (
                                Path(nodes + (child1,)),
                                Trace(side=LEFT, values=vals1 + (dst1,)),
                                Trace(side=LEFT, values=vals2 + (dst2,)),
                            )
                        )
                    elif triple not in on_path:
                        stack.append(
                            (
                                nodes + (child1,),
                                vals1 + (dst1,),
                                vals2 + (dst2,),
                                on_path | {triple},
                            )
                        )
    results.sort(key=lambda pt: (pt[0].nodes, pt[1].values, pt[2].values))
    return results


def traces_on_path(
    proof: Proof,
    path_nodes: tuple[str, ...],
    side: str,
    first_value: str | None = None,
) -> list[tuple[str, ...]]:
    """Every trace of every length 1..len(path) following the path,
    optionally with a fixed first value, in lexicographic order."""
    node0 = proof.node(path_nodes[0])
    if first_value is None:
        firsts = sorted(node0.values(side))
    elif first_value in node0.values(side):
        firsts = [first_value]
    else:
        firsts = []
    out: list[tuple[str, ...]] = []
    for first in firsts:
        stack = [(first,)]
        while stack:
            values = stack.pop()
            out.append(values)
            i = len(values)
            if i < len(path_nodes):
                pairs = proof.pairs(path_nodes[i - 1], path_nodes[i], side)
                for src, dst in pairs:
                    if src == values[-1]:
                        stack.append(values + (dst,))
    out.sort()
    return out


def reachable_pairs(
    proof: Proof, side: str, start: tuple[str, str]
) -> set[tuple[str, str]]:
    """(node, value) pairs reachable from ``start`` by following trace
    pairs; the start itself is reachable via the one-node path."""
    node_id, value = start
    if value not in proof.node(node_id).values(side):
        raise ValueError(
            f"value {value!r} is not a {side} value of node {node_id!r}"
        )

    def steps(pair):
        return [(child, dst) for child, dst, _w in _successors(proof, *pair, side)]

    return closure([start], steps)


def closure(starts, successors) -> set:
    """Every vertex reachable from ``starts`` (which are included) along
    ``successors``, a function from a vertex to its successor vertices."""
    seen = set(starts)
    frontier = list(seen)
    while frontier:
        for nxt in successors(frontier.pop()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def sccs(n: int, edges: dict[int, list[int]]) -> list[list[int]]:
    """Strongly connected components of the graph on vertices ``0..n-1``
    with the given adjacency lists (iterative Tarjan).  Components come
    out sorted, in the reverse topological order of their condensation."""
    index_of = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    out: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index_of[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index_of[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            targets = edges.get(v, ())
            while pi < len(targets):
                w = targets[pi]
                pi += 1
                if index_of[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index_of[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index_of[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == v:
                        break
                out.append(sorted(component))
            if work:
                parent, _ = work[-1]
                low[parent] = min(low[parent], low[v])
    return out
