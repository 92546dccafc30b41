"""Paths, traces and the follows relation; reverse-sum trace sizes;
maximal-trace classification; cycle and reachability analysis over
(node, value) pairs.  Every walk in the trace graph goes through
:func:`steps`, the step relation of a node and a tuple of trace values,
which reads the graph that :class:`cep.proofgraph.Proof` derives once
from its trace pair annotations.
The graph primitives shared with the automata, the restriction checks and
soundness live here too: :func:`closure` (every vertex reachable from a
set of starts), :func:`bfs` (the one parent-pointer breadth-first
search, streamed), :func:`bfs_tree` (its whole tree), :func:`tree_path`
(the witness path to a vertex of the tree) and :func:`sccs` (iterative
Tarjan).

A trace may be shorter than the path it follows: it is always aligned to
the path's first ``len(trace)`` nodes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product

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
    "steps",
    "closure",
    "bfs",
    "bfs_tree",
    "tree_path",
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
    terminal = not steps(proof, RIGHT, (final_node.id, final_value))
    return TraceClassification(
        maximal=terminal,
        positive=final_value not in final_node.excluded,
        partially_maximal=final_node.axiomatic,
        fully_maximal=terminal and not final_node.axiomatic,
        grounded=final_value in final_node.ground,
    )


def steps(proof: Proof, side: str, vertex: tuple) -> list[tuple[tuple, tuple]]:
    """The trace steps out of ``vertex = (node, v1, ..., vk)``, k >= 1,
    sorted: for each child and each choice of trace pairs ``(vi, di)`` on
    that edge, ``((child, d1, ..., dk), (w1, ..., wk))`` with the pairs'
    weights.  A vertex is terminal when it has no steps.  The steps of
    each value are a lookup in the proof's trace graph; more values join
    them on the child."""
    node_id, first, *rest = vertex
    moves = proof.out_steps(node_id, side, first)
    out = [((child, dst), (weight,)) for child, dst, weight in moves]
    for value in rest:
        moves = proof.out_steps(node_id, side, value)
        out = [
            (target + (dst,), weights + (weight,))
            for target, weights in out
            for child, dst, weight in moves
            if child == target[0]
        ]
    return out


def enumerate_right_maximal(
    proof: Proof, node_id: str, value: str, max_path_len: int
) -> list[tuple[Path, Trace]]:
    """All positive maximal right-hand traces with the given first value,
    following paths rooted at the node of length at most ``max_path_len``,
    in lexicographic (path, trace) order."""
    if max_path_len < 1:
        raise ValueError("path length bound must be positive")
    node = proof.node(node_id)
    if value not in node.con_values:
        raise ValueError(
            f"value {value!r} is not a consequent value of node {node_id!r}"
        )
    results: list[tuple[Path, Trace]] = []
    stack = [((node_id,), (value,))]
    while stack:
        nodes, values = stack.pop()
        nexts = steps(proof, RIGHT, (nodes[-1], values[-1]))
        if not nexts:
            if values[-1] not in proof.node(nodes[-1]).excluded:
                results.append(
                    (Path(nodes), Trace(side=RIGHT, values=values))
                )
            continue
        if len(nodes) >= max_path_len:
            continue
        for (child, dst), _w in nexts:
            stack.append((nodes + (child,), values + (dst,)))
    results.sort(key=lambda pt: (pt[0].nodes, pt[1].values))
    return results


def simple_cycles(proof: Proof, side: str) -> list[tuple[Path, Trace]]:
    """All simple trace cycles on one side, rooted at each (node, value)
    pair they visit.  A cycle is simple when no (node, value) pair repeats
    other than the root at both ends."""
    if side not in SIDES:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return _simple_cycles(proof, side, 1)


def simple_binary_cycles(proof: Proof) -> list[tuple[Path, Trace, Trace]]:
    """All simple binary cycles of left-hand trace pairs.  Repetition is
    judged on (node, value, value) triples, so the component traces need
    not be simple cycles themselves."""
    return _simple_cycles(proof, LEFT, 2)


def _simple_cycles(proof: Proof, side: str, k: int) -> list[tuple]:
    """Every simple cycle of ``(node, v1, ..., vk)`` vertices, rooted at
    each vertex it visits, as ``(Path, Trace, ..., Trace)`` sorted by the
    path and then the traces in turn.  Each cycle is searched once, from
    its least vertex, and rotated to every other root."""
    roots = (
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
                    walks += (walk[i:] + walk[: i + 1] for i in range(len(walk)))
                elif vertex > root and vertex not in on_walk:
                    stack.append((walk + (vertex,), on_walk | {vertex}))
    return [
        (Path(nodes), *(Trace(side=side, values=values) for values in traces))
        for nodes, *traces in sorted(tuple(zip(*walk)) for walk in walks)
    ]


def traces_on_path(
    proof: Proof, path_nodes: tuple[str, ...], side: str, first_value: str
) -> list[tuple[str, ...]]:
    """Every trace of every length 1..len(path) following the path from
    ``first_value``, in lexicographic order; none when the first node
    does not carry that value."""
    if first_value not in proof.node(path_nodes[0]).values(side):
        return []
    out: list[tuple[str, ...]] = []
    stack = [(first_value,)]
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

    return closure([start], lambda pair: [t for t, _w in steps(proof, side, pair)])


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


def bfs(starts, successors, tree: dict):
    """Breadth-first search from ``starts``, streamed: yields each vertex
    when it is first reached, in FIFO discovery order, right after
    recording ``(parent, label)`` of the edge that reached it in ``tree``
    (a start gets ``(None, None)``).  ``successors`` maps a vertex to its
    ``(vertex, label)`` out-edges and is read one edge at a time, so a
    consumer that stops early leaves the remaining edges uncomputed."""
    queue = deque()
    for start in starts:
        if start not in tree:
            tree[start] = (None, None)
            queue.append(start)
            yield start
    while queue:
        v = queue.popleft()
        for w, label in successors(v):
            if w not in tree:
                tree[w] = (v, label)
                queue.append(w)
                yield w


def bfs_tree(start, successors) -> dict:
    """The breadth-first search tree from ``start``: each reached vertex
    maps to ``(parent, label)`` of the edge that first reached it, in FIFO
    discovery order; the start maps to ``(None, None)``."""
    tree: dict = {}
    for _vertex in bfs([start], successors, tree):
        pass
    return tree


def tree_path(tree: dict, target) -> list[tuple]:
    """The ``(vertex, label)`` steps along ``tree`` from its start to
    ``target``; the start comes first, labelled None."""
    path = []
    while target is not None:
        parent, label = tree[target]
        path.append((target, label))
        target = parent
    path.reverse()
    return path


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
