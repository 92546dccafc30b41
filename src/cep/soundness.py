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

    def to_json(self) -> dict:
        return {"prefix": list(self.prefix), "cycle": list(self.cycle)}


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


def _is_bad(src: str, dst: str, rel: tuple) -> bool:
    return (
        src == dst
        and _compose(rel, rel) == rel
        and not any(row >> i & 1 for i, row in enumerate(rel[1]))
    )


def _closure(proof: Proof):
    """Path composites of edge relations, each with one witness path, and
    the least bad witness or ``None``.

    Children are expanded in sorted order, so the witness kept for each
    (src, dst, relation) key is deterministic.  The witnesses of one level
    have one length, so their least in tuple order is the least by
    (length, path).
    """
    base = _edge_relations(proof)
    paths = {(parent, child, rel): (parent, child) for (parent, child), rel in base.items()}
    level = list(paths)
    while level:
        bad = [paths[key] for key in level if _is_bad(*key)]
        if bad:
            return paths, min(bad)
        longer = []
        for key in level:
            src, mid, rel = key
            for child in sorted(proof.node(mid).children):
                new = (src, child, _compose(rel, base[(mid, child)]))
                if new not in paths:
                    paths[new] = paths[key] + (child,)
                    longer.append(new)
        level = longer
    return paths, None


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
    paths, cycle = _closure(proof)
    log.debug("composition closure: %d path relations", len(paths))
    if cycle is None:
        return SoundnessReport(sound=True, witness=None, relations_explored=len(paths))
    return SoundnessReport(
        sound=False,
        witness=Lasso(prefix=_shortest_root_path(proof, cycle[0]), cycle=cycle),
        relations_explored=len(paths),
    )
