"""Walks in the trace graph and the follows relation; reverse-sum trace
sizes; maximal-trace classification; cycle and reachability analysis
over (node, value) pairs.  A *walk* is a tuple of ``(node, v1[, v2])``
vertices: a path of the proof together with the one or two traces that
follow it, value by value.  Every walk goes through :func:`steps`, the
step relation of a node and a tuple of trace values, which reads the
graph that :class:`cep.proofgraph.Proof` derives once from its trace
pair annotations, and every report renders a walk with
:func:`walk_json`.  Maximal traces, traces along a path and simple
cycles are filters over one depth-first walk generator.
The graph primitives shared with the automata, the restriction checks and
soundness live here too: :func:`closure` (every vertex reachable from a
set of starts), :func:`bfs` (the one parent-pointer breadth-first
search, streamed), :func:`bfs_tree` (its whole tree), :func:`tree_path`
(the witness path to a vertex of the tree), :func:`back_edges` (the one
back-edge depth-first search, streamed) and :func:`sccs` (iterative
Tarjan over any hashable vertices).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product

from .ordinal import ZERO, Ordinal, ord_add
from .proofgraph import LEFT, RIGHT, Proof, check_side

__all__ = [
    "TraceClassification",
    "follows",
    "prog_points",
    "classify_right_trace",
    "walk_json",
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
    "back_edges",
    "sccs",
]


@dataclass(frozen=True)
class TraceClassification:
    maximal: bool
    positive: bool
    partially_maximal: bool
    fully_maximal: bool
    grounded: bool


def _walk_weights(proof: Proof, side: str, walk: tuple) -> list[tuple] | None:
    """The weights of each step of ``walk``, or None when some step is not
    a trace step.  Raises ``ValueError`` when the nodes are not a path of
    the proof, or else when a value is not a ``side`` value of its node."""
    check_side(side)
    if not walk:
        raise ValueError("a walk has at least one vertex")
    nodes = tuple(vertex[0] for vertex in walk)
    for a, b in zip(nodes, nodes[1:]):
        if b not in proof.node(a).children:
            raise ValueError(f"{nodes} is not a path of the proof")
    for node_id, *values in walk:
        for value in values:
            if value not in proof.node(node_id).values(side):
                raise ValueError(
                    f"value {value!r} is not a {side} value of node {node_id!r}"
                )
    weights = []
    for a, b in zip(walk, walk[1:]):
        weight = next((w for target, w in steps(proof, side, a) if target == b), None)
        if weight is None:
            return None
        weights.append(weight)
    return weights


def follows(proof: Proof, side: str, walk: tuple) -> bool:
    """True iff every consecutive vertex pair of the walk is a trace step."""
    return _walk_weights(proof, side, walk) is not None


def prog_points(proof: Proof, side: str, walk: tuple) -> Ordinal:
    """The size of a one-value walk: the *reverse* ordinal sum of its step
    weights (last step first; zero for a one-vertex walk)."""
    weights = _walk_weights(proof, side, walk)
    if weights is None:
        raise ValueError("trace does not follow the path")
    total = ZERO
    for (weight,) in weights:
        total = ord_add(weight, total)
    return total


def classify_right_trace(proof: Proof, walk: tuple) -> TraceClassification:
    if _walk_weights(proof, RIGHT, walk) is None:
        raise ValueError("trace does not follow the path")
    final_id, final_value = walk[-1]
    final_node = proof.node(final_id)
    terminal = not steps(proof, RIGHT, walk[-1])
    return TraceClassification(
        maximal=terminal,
        positive=final_value not in final_node.excluded,
        partially_maximal=final_node.axiomatic,
        fully_maximal=terminal and not final_node.axiomatic,
        grounded=final_value in final_node.ground,
    )


def walk_json(walk: tuple) -> dict:
    """A walk as JSON lists: its ``path`` of nodes, its ``trace`` of first
    values and, on a binary walk, its ``trace_other`` of second values."""
    columns = map(list, zip(*walk))
    return dict(zip(("path", "trace", "trace_other"), columns))


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


def _walk_order(walk: tuple) -> tuple:
    """The sort key of a walk: its path, then its traces in turn."""
    return tuple(zip(*walk))


def _walks(proof: Proof, side: str, root: tuple, extend):
    """Every walk from ``root`` that ``extend`` lets grow, depth first:
    yields each walk with its :func:`steps`, then grows it by each step
    vertex ``v`` for which ``extend(walk, v, on_walk)`` holds, where
    ``on_walk`` holds the vertices of ``walk``."""
    walk = (root,)
    nexts = steps(proof, side, root)
    yield walk, nexts
    on_walk = {root: 0}  # vertex -> the index of its first visit
    stack = [(walk, iter(nexts))]
    while stack:
        walk, pending = stack[-1]
        for vertex, _w in pending:
            if extend(walk, vertex, on_walk):
                on_walk.setdefault(vertex, len(stack))
                walk += (vertex,)
                nexts = steps(proof, side, vertex)
                yield walk, nexts
                stack.append((walk, iter(nexts)))
                break
        else:
            stack.pop()
            if on_walk[walk[-1]] == len(stack):
                del on_walk[walk[-1]]


def enumerate_right_maximal(
    proof: Proof, node_id: str, value: str, max_path_len: int
) -> list[tuple]:
    """All positive maximal right-hand traces with the given first value,
    as walks rooted at the node of at most ``max_path_len`` vertices, in
    lexicographic (path, trace) order."""
    if max_path_len < 1:
        raise ValueError("path length bound must be positive")
    node = proof.node(node_id)
    if value not in node.con_values:
        raise ValueError(
            f"value {value!r} is not a consequent value of node {node_id!r}"
        )
    walks = _walks(
        proof, RIGHT, (node_id, value), lambda walk, _v, _on: len(walk) < max_path_len
    )
    maximal = (
        walk
        for walk, nexts in walks
        if not nexts and walk[-1][1] not in proof.node(walk[-1][0]).excluded
    )
    return sorted(maximal, key=_walk_order)


def simple_cycles(proof: Proof, side: str) -> list[tuple]:
    """All simple trace cycles on one side, rooted at each (node, value)
    pair they visit.  A cycle is simple when no (node, value) pair repeats
    other than the root at both ends."""
    check_side(side)
    return _simple_cycles(proof, side, 1)


def simple_binary_cycles(proof: Proof) -> list[tuple]:
    """All simple binary cycles of left-hand trace pairs.  Repetition is
    judged on (node, value, value) triples, so the component traces need
    not be simple cycles themselves."""
    return _simple_cycles(proof, LEFT, 2)


def _simple_cycles(proof: Proof, side: str, k: int) -> list[tuple]:
    """Every simple cycle of ``(node, v1, ..., vk)`` vertices, rooted at
    each vertex it visits, as a walk that ends at its root, sorted by the
    path and then the traces in turn.  Each cycle is searched once, from
    its least vertex, and rotated to every other root."""
    roots = (
        (node_id, *values)
        for node_id, node in proof.nodes.items()
        for values in product(node.values(side), repeat=k)
    )
    walks = []
    for root in roots:
        for walk, nexts in _walks(
            proof, side, root, lambda _walk, v, on_walk: v > root and v not in on_walk
        ):
            for vertex, _w in nexts:
                if vertex == root:
                    walks += (walk[i:] + walk[: i + 1] for i in range(len(walk)))
    walks.sort(key=_walk_order)
    return walks


def traces_on_path(
    proof: Proof, path_nodes: tuple[str, ...], side: str, first_value: str
) -> list[tuple]:
    """Every walk of every length 1..len(path) along a prefix of the path
    from ``first_value``, sorted by path and then trace; none when the
    first node does not carry that value."""
    if first_value not in proof.node(path_nodes[0]).values(side):
        return []

    def extend(walk, vertex, _on_walk):
        return len(walk) < len(path_nodes) and vertex[0] == path_nodes[len(walk)]

    walks = _walks(proof, side, (path_nodes[0], first_value), extend)
    return sorted((walk for walk, _nexts in walks), key=_walk_order)


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


def back_edges(roots, successors):
    """A depth-first search from each of ``roots`` not yet reached, reading
    ``successors(v)`` in the order given: yields ``(path, target)`` for each
    edge from the end of ``path``, the live search stack, back to a
    ``target`` on it.  Every cycle holds such a back edge (Tarjan, SIAM J.
    Comput. 1972), so the targets meet every cycle."""
    on_path: dict = {}  # vertex -> still on the search path
    path: list = []
    work = [iter(roots)]  # the roots, then each path vertex's unread successors
    while work:
        for target in work[-1]:
            if target not in on_path:
                on_path[target] = True
                path.append(target)
                work.append(iter(successors(target)))
                break
            if on_path[target]:
                yield path, target
        else:
            work.pop()
            if path:
                on_path[path.pop()] = False


def sccs(edges: dict) -> list[list]:
    """Strongly connected components of the graph whose vertices are the
    keys of ``edges``, each mapped to the list of its successors, which
    are keys too (iterative Tarjan).  Components come out sorted, in the
    reverse topological order of their condensation."""
    index: dict = {}
    low: dict = {}
    on_stack: dict = {}  # vertex -> its position on the stack
    stack: list = []
    out: list[list] = []
    work: list = []  # (vertex, its successors not yet read)

    def visit(v):
        index[v] = low[v] = len(low)
        on_stack[v] = len(stack)
        stack.append(v)
        work.append((v, iter(edges[v])))

    for root in edges:
        if root in index:
            continue
        visit(root)
        while work:
            v, targets = work[-1]
            for w in targets:
                if w not in index:
                    visit(w)
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if low[v] == index[v]:
                    component = stack[on_stack[v]:]
                    del stack[on_stack[v]:]
                    for w in component:
                        del on_stack[w]
                    out.append(sorted(component))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
    return out
