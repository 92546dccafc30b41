"""Global soundness: every infinite path must have a tail followed by an
infinitely progressing left-hand trace.

The decision works on sloped relations, the composition-closure style
also used for size-change termination: each edge induces a relation of
(source value, target value, slope) triples over antecedent values, where
the slope is ``down`` exactly when some underlying weight is positive.
The proof is sound iff every idempotent composite relation with matching
endpoints contains a (v, v, down) triple; an idempotent composite without
one yields a witness lasso on which no left-hand trace can progress
infinitely often.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass

from .proofgraph import LEFT, Proof
from .traces import bfs_tree, tree_path

log = logging.getLogger("cep.soundness")

__all__ = [
    "FLAT",
    "DOWN",
    "SlopedRelation",
    "Lasso",
    "SoundnessReport",
    "edge_relation",
    "compose",
    "check_global_soundness",
]

FLAT = 0
DOWN = 1

# A sloped relation is a frozenset of (source value, target value, slope)
# triples holding at most one slope per value pair, down dominating flat.
SlopedRelation = frozenset


def _normalize(triples) -> SlopedRelation:
    best: dict[tuple[str, str], int] = {}
    for src, dst, slope in triples:
        key = (src, dst)
        if best.get(key, -1) < slope:
            best[key] = slope
    return frozenset((src, dst, slope) for (src, dst), slope in best.items())


def edge_relation(proof: Proof, parent: str, child: str) -> SlopedRelation:
    return _normalize(
        (src, dst, DOWN if not weight.is_zero() else FLAT)
        for (src, dst), weight in proof.pairs(parent, child, LEFT).items()
    )


def compose(r1: SlopedRelation, r2: SlopedRelation) -> SlopedRelation:
    by_src: dict[str, list[tuple[str, int]]] = {}
    for src, dst, slope in r2:
        by_src.setdefault(src, []).append((dst, slope))
    out = []
    for src, mid, slope1 in r1:
        for dst, slope2 in by_src.get(mid, ()):
            out.append((src, dst, max(slope1, slope2)))
    return _normalize(out)


def has_progress_loop(rel: SlopedRelation) -> bool:
    return any(src == dst and slope == DOWN for src, dst, slope in rel)


@dataclass(frozen=True)
class Lasso:
    prefix: tuple[str, ...]
    cycle: tuple[str, ...]

    def to_json(self) -> dict:
        return {"prefix": list(self.prefix), "cycle": list(self.cycle)}


@dataclass(frozen=True)
class SoundnessReport:
    sound: bool
    witness: Lasso | None
    relations_explored: int

    @property
    def verdict(self) -> str:
        return "sound" if self.sound else "unsound"


def _closure(proof: Proof):
    """All path composites of edge relations, each with one witness path.

    The worklist is processed in sorted order so the witness kept for each
    (src, dst, relation) triple is deterministic.
    """
    base = {
        (parent, child): edge_relation(proof, parent, child)
        for parent, child in proof.edges()
    }
    paths: dict[tuple[str, str, SlopedRelation], tuple[str, ...]] = {}
    queue: deque = deque()
    for (parent, child), rel in sorted(base.items()):
        key = (parent, child, rel)
        if key not in paths:
            paths[key] = (parent, child)
            queue.append(key)
    while queue:
        item = queue.popleft()
        src, mid, rel = item
        witness = paths[item]
        for child in sorted(proof.node(mid).children):
            key = (src, child, compose(rel, base[(mid, child)]))
            if key not in paths:
                paths[key] = witness + (child,)
                queue.append(key)
    return paths


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
    paths = _closure(proof)
    log.debug("composition closure: %d path relations", len(paths))
    bad = []
    for (src, dst, rel), witness in paths.items():
        if src != dst:
            continue
        if compose(rel, rel) != rel:
            continue
        if not has_progress_loop(rel):
            bad.append((witness, src))
    if not bad:
        return SoundnessReport(
            sound=True, witness=None, relations_explored=len(paths)
        )
    witness, anchor = min(bad, key=lambda item: (len(item[0]), item[0]))
    return SoundnessReport(
        sound=False,
        witness=Lasso(prefix=_shortest_root_path(proof, anchor), cycle=witness),
        relations_explored=len(paths),
    )
