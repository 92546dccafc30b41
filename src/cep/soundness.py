"""Global soundness: every infinite path must have a tail followed by an
infinitely progressing left-hand trace.

The decision works on sloped relations, the composition-closure style
also used for size-change termination (Lee, Jones and Ben-Amram, POPL
2001): each edge induces a relation of (source value, target value,
slope) triples over antecedent values, where the slope is ``down``
exactly when some underlying weight is positive, and ``down`` dominates
``flat`` on a value pair.  The proof is sound iff every idempotent
composite relation with matching endpoints contains a (v, v, down)
triple; an idempotent composite without one is *bad* and yields a
witness lasso on which no left-hand trace can progress infinitely often.

A relation is coded over a fixed index of the ``n`` values that left
pairs name as ``(any, down)``, two ints of ``n`` rows of ``n`` bits: bit
``i*n + j`` of ``any`` is set when value i steps to value j at some
slope, and the same bit of ``down`` when that step is down, so ``down``
is a subset of ``any``.  The coding is one-to-one, so two composites are
equal exactly when their triple sets are.  ``ONES`` holds bit 0 of every
row and ``DIAG`` bit i of row i; a relation has a down loop when ``down
& DIAG`` is not 0.

A product ``r ∘ e`` takes the non-empty rows ``(j, any_j, down_j)`` of
``e`` and, for each, the column ``c = r.any >> j & ONES`` of the values
that step to j: ``c * any_j`` copies row j of ``e`` into every row of
``c``, and since ``any_j`` is below ``2**n`` no carry crosses a row.  A
step of the product is down when either of its two steps is, so the
down part ORs ``c * down_j`` with ``(r.down >> j & ONES) * any_j``.

The closure finds composites breadth first, in order of witness length,
and stops after the first length that holds a bad composite: every
composite with a witness that short is known by then, with the witness
the full closure would give it, so the least bad witness is the same.
Relations are numbered when first found.  A composite's successors
depend only on its endpoint and relation, so each (relation, edge)
product is made once, for every start node.  Witness paths are read back
through predecessor keys, only for the bad composites found.

The verdict needs composites from the *cut nodes* only: the targets of
the back edges of a depth-first search that starts at each node in
sorted order and reads children in sorted order.  Every cycle holds a
back edge, so the cut nodes meet every cycle.  A bad composite at ``v``
is a cycle ``P·Q`` through some cut node ``f`` (``P`` from ``v`` to
``f``, ``Q`` back), with ``R = PQ`` idempotent and no ``(u, u, down)``.
By rotation ``S = (QP)²`` is idempotent, since ``(QP)³ = Q(PQ)(PQ)P =
(QP)²``.  The infinite path ``(QP)^ω`` from ``f`` is a tail of ``v``
followed by ``(PQ)^ω``, on which, ``R`` being bad, no tail has an
infinitely progressing trace; a down loop ``(u, u, down)`` in ``S``
would give one, so ``(f, f, S)`` is a bad composite from ``f``.  The
closure from the cut nodes thus finds a bad composite exactly when the
closure from every node does.  Only then is the closure run again from
every node, for the least bad witness.  That run reads the tables the
first one made, the edge relations, relation numbers, bad checks and
products, so its ``composition closure`` DEBUG record counts the
relations and products of both runs; keys and witness order do not
depend on relation numbers, so the lasso is the one a fresh run finds.
"""

from __future__ import annotations

import logging
from collections.abc import Callable, Collection
from dataclasses import dataclass

from .proofgraph import LEFT, Proof
from .traces import back_edges, bfs_tree, tree_path

log = logging.getLogger("cep.soundness")

__all__ = ["Lasso", "SoundnessReport", "check_global_soundness"]


@dataclass(frozen=True)
class Lasso:
    prefix: tuple[str, ...]
    cycle: tuple[str, ...]


@dataclass(frozen=True)
class SoundnessReport:
    """``relations_explored`` counts the composites that the closure from
    the cut nodes (the back-edge targets of a depth-first search, which
    meet every cycle) discovered up to the length at which it stopped:
    all of them on a sound proof.  The closure from every node that finds
    the lasso of an unsound proof is not counted."""

    sound: bool
    witness: Lasso | None
    relations_explored: int

    @property
    def verdict(self) -> str:
        return "sound" if self.sound else "unsound"


def _edge_relations(proof: Proof) -> tuple[int, int, int, dict]:
    """``n``, ``ONES``, ``DIAG`` and each edge's relation ``(any, down)``."""
    pairs = {edge: proof.pairs(*edge, LEFT) for edge in proof.edges()}
    names = sorted({value for m in pairs.values() for pair in m for value in pair})
    index = {value: i for i, value in enumerate(names)}
    n = len(names)
    out = {}
    for edge, m in pairs.items():
        any_bits = down_bits = 0
        for (src, dst), weight in m.items():
            bit = 1 << index[src] * n + index[dst]
            any_bits |= bit
            if not weight.is_zero():
                down_bits |= bit
        out[edge] = (any_bits, down_bits)
    return n, sum(1 << i * n for i in range(n)), sum(1 << i * (n + 1) for i in range(n)), out


def _rows(rel: tuple[int, int], n: int) -> list[tuple[int, int, int]]:
    """The non-empty rows ``(j, any_j, down_j)`` of a relation."""
    mask = (1 << n) - 1
    rows = [(j, rel[0] >> j * n & mask, rel[1] >> j * n & mask) for j in range(n)]
    return [row for row in rows if row[1]]


def _compose(rel: tuple[int, int], rows: list, ones: int) -> tuple[int, int]:
    """Relational product with the relation of ``rows``: a step of the
    composite is down when either of its two steps is."""
    any_bits, down_bits = rel
    any_out = down_out = 0
    for j, any_j, down_j in rows:
        c = any_bits >> j & ones
        any_out |= c * any_j
        down_out |= c * down_j | (down_bits >> j & ones) * any_j
    return any_out, down_out


def _is_bad(rel: tuple[int, int], n: int, ones: int, diag: int) -> bool:
    # The diagonal first: it is cheaper than the product.
    return not rel[1] & diag and _compose(rel, _rows(rel, n), ones) == rel


def _cut_nodes(proof: Proof) -> set[str]:
    """The targets of the back edges of a depth-first search that starts
    at each node in sorted order and reads children in sorted order."""
    children = {node: sorted(set(n.children)) for node, n in proof.nodes.items()}
    return {target for _path, target in back_edges(sorted(children), children.get)}


def _closure(proof: Proof) -> Callable[[Collection[str]], tuple]:
    """A closure run over one proof, reading the edge relations, relation
    numbers, bad checks and (relation, edge) products that every run
    shares.  A run from ``sources`` returns the number of path composites
    that start at a node of ``sources``, and the least bad witness among
    them or ``None``.  A composite is keyed ``(src, dst, relation
    number)`` and keeps the key it was first reached from, which sorted
    child order makes deterministic.  The witnesses of one level have one
    length, so their least in tuple order is the least by (length, path).
    """
    width, ones, diag, base = _edge_relations(proof)
    rels: list[tuple] = []
    numbers: dict[tuple, int] = {}

    def number(rel: tuple) -> int:
        if rel not in numbers:
            numbers[rel] = len(rels)
            rels.append(rel)
        return numbers[rel]

    bad_of: dict[int, bool] = {}

    def is_bad(n: int) -> bool:
        if n not in bad_of:
            bad_of[n] = _is_bad(rels[n], width, ones, diag)
        return bad_of[n]

    # node -> [(child, rows of the edge relation, {relation number: product number})]
    succ: dict[str, list] = {}

    def run(sources: Collection[str]) -> tuple[int, tuple[str, ...] | None]:
        def witness(key: tuple) -> tuple[str, ...]:
            tail = []
            while pred[key] is not None:
                tail.append(key[1])
                key = pred[key]
            return key[:2] + tuple(reversed(tail))

        pred = {
            (parent, child, number(rel)): None
            for (parent, child), rel in base.items()
            if parent in sources
        }
        level = list(pred)
        while level:
            bad = [key for key in level if key[0] == key[1] and is_bad(key[2])]
            if bad:
                break
            longer = []
            for key in level:
                src, mid, n = key
                if mid not in succ:
                    children = sorted(set(proof.node(mid).children))
                    succ[mid] = [(c, _rows(base[(mid, c)], width), {}) for c in children]
                for child, rows, products in succ[mid]:
                    if n not in products:
                        products[n] = number(_compose(rels[n], rows, ones))
                    new = (src, child, products[n])
                    if new not in pred:
                        pred[new] = key
                        longer.append(new)
            level = longer
        log.debug("composition closure: %d path relations, %d relations, %d products, "
                  "%d start nodes", len(pred), len(rels),
                  sum(len(p) for e in succ.values() for _, _, p in e), len(sources))
        return len(pred), min(map(witness, bad)) if level else None

    return run


def _shortest_root_path(proof: Proof, target: str) -> tuple[str, ...]:
    tree = bfs_tree(
        proof.root, lambda node: [(c, None) for c in proof.node(node).children]
    )
    if target not in tree:
        return (target,)  # cycle not reachable from the root; infinite paths exist anyway
    return tuple(node for node, _ in tree_path(tree, target))


def check_global_soundness(proof: Proof) -> SoundnessReport:
    """Verdict plus, when unsound, a lasso (prefix path, cycle path) on
    which no left-hand trace progresses infinitely often."""
    closure = _closure(proof)
    count, cycle = closure(_cut_nodes(proof))
    if cycle is None:
        return SoundnessReport(sound=True, witness=None, relations_explored=count)
    _count, cycle = closure(proof.nodes)
    return SoundnessReport(
        sound=False,
        witness=Lasso(prefix=_shortest_root_path(proof, cycle[0]), cycle=cycle),
        relations_explored=count,
    )
