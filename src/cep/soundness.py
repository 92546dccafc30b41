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

A relation is coded over a fixed index of every value a left pair names
as ``(any, down)``, two tuples of row bitmasks: bit j of ``any[i]`` is
set when value i steps to value j at some slope, and bit j of
``down[i]`` when that step is down, so ``down[i]`` is a subset of
``any[i]``.  The coding is one-to-one, so two composites are equal
exactly when their triple sets are.

The closure finds composites breadth first, in order of witness length,
and stops after the first length that holds a bad composite: every
composite with a witness that short is known by then, with the witness
the full closure would give it, so the least bad witness is the same.
Relations are numbered when first found.  A composite's successors
depend only on its endpoint and relation, so each (relation, edge)
product is made once, for every start node.  Witness paths are read back
through predecessor keys, only for the bad composites found.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .proofgraph import LEFT, Proof
from .traces import bfs_tree, tree_path

log = logging.getLogger("cep.soundness")

__all__ = ["Lasso", "SoundnessReport", "check_global_soundness"]


@dataclass(frozen=True)
class Lasso:
    prefix: tuple[str, ...]
    cycle: tuple[str, ...]


@dataclass(frozen=True)
class SoundnessReport:
    """``relations_explored`` counts the composites discovered up to the
    length at which the closure stopped: all of them on a sound proof."""

    sound: bool
    witness: Lasso | None
    relations_explored: int

    @property
    def verdict(self) -> str:
        return "sound" if self.sound else "unsound"


def _edge_relations(proof: Proof) -> dict[tuple[str, str], tuple]:
    pairs = {edge: proof.pairs(*edge, LEFT) for edge in proof.edges()}
    names = sorted({value for m in pairs.values() for pair in m for value in pair})
    index = {value: i for i, value in enumerate(names)}
    out = {}
    for edge, m in pairs.items():
        any_rows = [0] * len(names)
        down_rows = [0] * len(names)
        for (src, dst), weight in m.items():
            bit = 1 << index[dst]
            any_rows[index[src]] |= bit
            if not weight.is_zero():
                down_rows[index[src]] |= bit
        out[edge] = (tuple(any_rows), tuple(down_rows))
    return out


def _compose(r1: tuple, r2: tuple) -> tuple:
    """Relational product: a step of the composite is down when either of
    its two steps is."""
    any2, down2 = r2
    any_out = []
    down_out = []
    for row_any, row_down in zip(*r1):
        acc_any = acc_down = 0
        while row_any:
            low = row_any & -row_any
            j = low.bit_length() - 1
            acc_any |= any2[j]
            acc_down |= any2[j] if row_down & low else down2[j]
            row_any ^= low
        any_out.append(acc_any)
        down_out.append(acc_down)
    return tuple(any_out), tuple(down_out)


def _is_bad(rel: tuple) -> bool:
    # The diagonal first: it is cheaper than the product.
    down_loop = any(row >> i & 1 for i, row in enumerate(rel[1]))
    return not down_loop and _compose(rel, rel) == rel


def _closure(proof: Proof) -> tuple[int, tuple[str, ...] | None]:
    """The number of path composites of edge relations, and the least bad
    witness or ``None``.  A composite is keyed ``(src, dst, relation
    number)`` and keeps the key it was first reached from, which sorted
    child order makes deterministic.  The witnesses of one level have one
    length, so their least in tuple order is the least by (length, path).
    """
    base = _edge_relations(proof)
    rels: list[tuple] = []
    numbers: dict[tuple, int] = {}

    def number(rel: tuple) -> int:
        if rel not in numbers:
            numbers[rel] = len(rels)
            rels.append(rel)
        return numbers[rel]

    def witness(key: tuple) -> tuple[str, ...]:
        tail = []
        while pred[key] is not None:
            tail.append(key[1])
            key = pred[key]
        return key[:2] + tuple(reversed(tail))

    bad_of: dict[int, bool] = {}

    def is_bad(n: int) -> bool:
        if n not in bad_of:
            bad_of[n] = _is_bad(rels[n])
        return bad_of[n]

    # node -> [(child, edge relation, {relation number: product number})]
    succ: dict[str, list] = {}
    pred = {(parent, child, number(rel)): None for (parent, child), rel in base.items()}
    level = list(pred)
    while level:
        bad = [key for key in level if key[0] == key[1] and is_bad(key[2])]
        if bad:
            return len(pred), min(map(witness, bad))
        longer = []
        for key in level:
            src, mid, n = key
            if mid not in succ:
                children = sorted(set(proof.node(mid).children))
                succ[mid] = [(child, base[(mid, child)], {}) for child in children]
            for child, rel, products in succ[mid]:
                if n not in products:
                    products[n] = number(_compose(rels[n], rel))
                new = (src, child, products[n])
                if new not in pred:
                    pred[new] = key
                    longer.append(new)
        level = longer
    return len(pred), None


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
    count, cycle = _closure(proof)
    log.debug("composition closure: %d path relations", count)
    if cycle is None:
        return SoundnessReport(sound=True, witness=None, relations_explored=count)
    return SoundnessReport(
        sound=False,
        witness=Lasso(prefix=_shortest_root_path(proof, cycle[0]), cycle=cycle),
        relations_explored=count,
    )
