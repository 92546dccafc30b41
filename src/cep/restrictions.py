"""Structural restriction checks and thresholds for a trace pair query.

Three conditions make the ordering decidable through a bounded automaton:
finite progression weights on every reachable edge pair, strictly positive
size for every reachable simple trace cycle, and equal size for the two
components of every reachable simple binary cycle of antecedent traces.
All three read the (node, value) pairs reachable from the query, so
:func:`check_all_restrictions` is the one entry: it checks the query and
computes the reach of each side once, then runs the three checks on it.

The cycle checks go through graph reductions rather than literal cycle
enumeration: a zero-size simple cycle exists iff the zero-weight subgraph
of (node, value) pairs has a cycle, and binary balance holds iff the
difference weights admit a consistent potential on every strongly
connected component of the paired (node, value, value) graph.  Both graphs
are built from :func:`cep.traces.steps` (one and two trace values).  The
zero-size witness is the first back edge :func:`cep.traces.back_edges`
yields, and the potential and the unbalanced witness cycle come from
:func:`cep.traces.bfs_tree` paths.  Literal enumeration stays available in
the traces module and backs the tests.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .ordinal import ZERO, Ordinal
from .proofgraph import LEFT, RIGHT, Proof
from .traces import back_edges, bfs_tree, reachable_pairs, sccs, steps
from .traces import tree_path, walk_json

__all__ = [
    "Thresholds",
    "RestrictionReport",
    "compute_thresholds",
    "check_all_restrictions",
]


@dataclass(frozen=True)
class Thresholds:
    trace_width: int
    in_degree: int
    cycle_threshold: int
    max_step: Ordinal
    n_bound: int | None


@dataclass(frozen=True)
class RestrictionReport:
    name: str
    passed: bool
    witnesses: tuple = ()


def compute_thresholds(proof: Proof, query) -> Thresholds:
    query.check(proof)
    width = max(
        max(len(node.ant_values), len(node.con_values))
        for node in proof.nodes.values()
    )
    in_degree = max(
        Counter(child for _parent, child in proof.edges()).values(), default=0
    )
    cycle_threshold = sum(
        len(node.ant_values) ** 2 for node in proof.nodes.values()
    )
    max_step = ZERO
    for edge in proof.edges():
        for weight in proof.pairs(*edge, LEFT).values():
            if max_step < weight:
                max_step = weight
    if max_step.is_finite():
        step = max_step.to_int()
        n_bound = 2 + cycle_threshold * step * width + width
    else:
        n_bound = None
    return Thresholds(
        trace_width=width,
        in_degree=in_degree,
        cycle_threshold=cycle_threshold,
        max_step=max_step,
        n_bound=n_bound,
    )


def _finitely_progressing(proof: Proof, reach) -> RestrictionReport:
    """Every trace pair weight on an edge whose source (node, value) pair
    is reachable from the query must be a finite ordinal."""
    offenders = []
    for side in (LEFT, RIGHT):
        reachable = reach[side]
        for parent, child in proof.edges():
            for (src, dst), weight in sorted(proof.pairs(parent, child, side).items()):
                if (parent, src) in reachable and not weight.is_finite():
                    offenders.append(
                        {
                            "side": side,
                            "edge": [parent, child],
                            "pair": [src, dst],
                            "weight": str(weight),
                        }
                    )
    return RestrictionReport(
        name="finitely_progressing",
        passed=not offenders,
        witnesses=tuple(offenders),
    )


def _zero_subgraph_cycle(proof: Proof, side: str, restrict) -> list | None:
    """A cycle of zero-weight trace steps within the restricted pairs,
    as an alternating witness, or None: the path of the first back edge of
    a depth-first search, from its target."""
    succ: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for a in restrict:
        targets = [b for b, (weight,) in steps(proof, side, a) if weight.is_zero()]
        if targets:
            succ[a] = targets
    for path, target in back_edges(sorted(succ), lambda a: succ.get(a, ())):
        return path[path.index(target):] + [target]
    return None


def _dynamic(proof: Proof, reach) -> RestrictionReport:
    """No reachable simple trace cycle may have size zero.  Since weights
    are non-negative, a simple cycle has size zero exactly when all of its
    steps do, i.e. when the zero-weight step subgraph has a cycle."""
    witnesses = []
    for side in (LEFT, RIGHT):
        cycle = _zero_subgraph_cycle(proof, side, reach[side])
        if cycle:
            witnesses.append({"side": side, **walk_json(cycle)})
    return RestrictionReport(
        name="dynamic", passed=not witnesses, witnesses=tuple(witnesses)
    )


def _binary_graph(proof: Proof, reachable) -> dict:
    """Edges of the paired antecedent value graph with integer difference
    weights, over triples whose components are in the reachable pairs."""
    edges: dict = {
        (node_id, v1, v2): []
        for node_id, node in proof.nodes.items()
        for v1 in node.ant_values
        for v2 in node.ant_values
        if (node_id, v1) in reachable and (node_id, v2) in reachable
    }
    for triple, out in edges.items():
        for target, (w1, w2) in steps(proof, LEFT, triple):
            if target in edges:  # not when a pair leaves the child's values
                out.append((target, w1.to_int() - w2.to_int()))
    return edges


def _balanced(proof: Proof, reachable) -> RestrictionReport:
    """Every reachable simple binary cycle of antecedent traces must give
    equal size to its two components: within each strongly connected
    component of the paired value graph, difference weights must be a
    potential difference.  An inconsistency yields an unbalanced cycle,
    trimmed to a simple one.  The weights out of the reachable antecedent
    pairs must be finite, as the finitely-progressing check ensures."""
    edges = _binary_graph(proof, reachable)
    adjacency = {v: [w for w, _d in targets] for v, targets in edges.items()}
    witnesses = []
    for comp in sorted(sccs(adjacency)):
        members = set(comp)

        def inside(v):
            return [(w, d) for w, d in edges[v] if w in members]

        start = comp[0]
        tree = bfs_tree(start, inside)
        pot = {}
        for v, (parent, d) in tree.items():
            pot[v] = 0 if parent is None else pot[parent] + d
        bad = next(
            ((v, w, d) for v in comp for w, d in inside(v) if pot[v] + d != pot[w]),
            None,
        )
        if bad is None:
            continue
        cycle = _unbalanced_cycle(inside, tree, start, *bad)
        trimmed = _trim_to_simple(cycle)
        walk = [v for v, _d in trimmed]
        witnesses.append({**walk_json(walk), "difference": _cycle_total(trimmed)})
    return RestrictionReport(
        name="balanced", passed=not witnesses, witnesses=tuple(witnesses)
    )


def _unbalanced_cycle(inside, tree, root, v, w, d):
    """A cycle with non-zero total difference, derived from the
    inconsistent edge (v, w).  With R a return path from w to the BFS
    root, the cycles (root->v, v->w, R) and (root->w, R) differ by the
    inconsistency, so at least one of them is unbalanced.  Cycles are
    lists of (vertex, incoming difference) pairs whose first label is
    unused."""
    back = tree_path(bfs_tree(w, inside), root)
    cycle = tree_path(tree, v) + [(w, d)] + back[1:]
    if _cycle_total(cycle) != 0:
        return cycle
    return tree_path(tree, w) + back[1:]


def _cycle_total(cycle):
    return sum(d for _v, d in cycle[1:])


def _trim_to_simple(cycle):
    """Remove interior repetitions while keeping the total non-zero.

    The cycle is a list of (vertex, incoming difference) pairs whose first
    and last vertices coincide.  Any repeated interior vertex splits it
    into two sub-cycles whose totals add up, so one of them is still
    unbalanced; recurse until simple.
    """
    while True:
        seen = {}
        split = None
        for i, (v, _d) in enumerate(cycle[:-1]):
            if v in seen:
                split = (seen[v], i)
                break
            seen[v] = i
        if split is None:
            return cycle
        i, j = split
        inner = [(cycle[i][0], 0)] + cycle[i + 1 : j + 1]
        outer = cycle[: i + 1] + cycle[j + 1 :]
        if _cycle_total(inner) != 0:
            cycle = inner
        else:
            cycle = outer


def check_all_restrictions(proof: Proof, query) -> list[RestrictionReport]:
    """The finitely-progressing, dynamic and balanced reports, in that
    order.  The query is checked once and the pairs reachable from its
    antecedent and consequent values are computed once per side.  The
    balanced check needs finite weights, so it is skipped, and reported
    failed, when the finitely-progressing check fails."""
    query.check(proof)
    reach = {
        LEFT: reachable_pairs(proof, LEFT, (query.node, query.ant_value)),
        RIGHT: reachable_pairs(proof, RIGHT, (query.node, query.con_value)),
    }
    reports = [_finitely_progressing(proof, reach), _dynamic(proof, reach)]
    if reports[0].passed:
        reports.append(_balanced(proof, reach[LEFT]))
    else:
        reports.append(
            RestrictionReport(
                name="balanced",
                passed=False,
                witnesses=(
                    {"error": "skipped: infinite weights present"},
                ),
            )
        )
    return reports
