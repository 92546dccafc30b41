"""Data model, JSON ingestion and structural validation of cyclic
pre-proofs with trace annotations.

Sequent text is opaque: all semantic content enters through the per-node
annotations (ground / excluded / equated values) and the per-edge trace
pair maps.  Proof objects are immutable after parsing.  Each derives its
trace graph (edges, pair maps merged over premise positions, the sorted
steps out of each node and value) once, on first use; every walk reads
that graph, and only the parser, the validator, the serializer and this
derivation read ``delta`` by premise position.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple, NoReturn

from .ordinal import Ordinal

__all__ = [
    "ProofParseError",
    "Sequent",
    "Node",
    "Proof",
    "Violation",
    "ValidationReport",
    "parse_proof",
    "load_proof",
    "serialize_proof",
    "validate",
    "check_structure",
    "terminal_values",
]

LEFT = "left"
RIGHT = "right"
SIDES = (LEFT, RIGHT)


class ProofParseError(ValueError):
    """A malformed input document (a proof, or a saved automaton), with
    the JSON path of the fault as its location."""

    def __init__(self, message: str, location: str = ""):
        self.location = location
        self.message = message
        super().__init__(f"{location}: {message}" if location else message)


@dataclass(frozen=True)
class Sequent:
    ant: str
    con: str


@dataclass(frozen=True)
class Node:
    id: str
    rule: str
    sequent: Sequent
    ant_values: frozenset[str]
    con_values: frozenset[str]
    children: tuple[str, ...]
    ground: frozenset[str]
    excluded: frozenset[str]
    equates: frozenset[tuple[str, str]]

    @property
    def axiomatic(self) -> bool:
        return not self.children

    def values(self, side: str) -> frozenset[str]:
        return self.ant_values if side == LEFT else self.con_values


DeltaKey = tuple[str, int, str]  # (parent id, child index, side)
Step = tuple[str, str, Ordinal]  # (child id, target value, weight)


@dataclass(frozen=True)
class Violation:
    kind: str
    location: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]
    trace_injective: bool

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def structural(self) -> tuple[Violation, ...]:
        """The violations other than trace injectivity: a proof with any
        of them is outside every procedure of the package."""
        return tuple(v for v in self.violations if v.kind != "trace_injectivity")


@dataclass(frozen=True)
class Proof:
    """A rooted proof graph together with its trace pair annotations.

    ``delta`` maps (parent, child index, side) to a partial map from value
    pairs to ordinal progression amounts; :meth:`edges`, :meth:`pairs` and
    :meth:`out_steps` read the trace graph derived from it on first use.
    """

    root: str
    nodes: dict[str, Node]
    delta: dict[DeltaKey, dict[tuple[str, str], Ordinal]]

    def node(self, node_id: str) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise KeyError(f"unknown node id {node_id!r}") from None

    @cached_property
    def _pair_maps(self) -> dict[tuple[str, str, str], dict[tuple[str, str], Ordinal]]:
        """The trace pair map of each (parent, child, side) of every edge:
        the maps of a child at several premise positions merged, keeping
        the largest weight for a pair that occurs more than once."""
        merged: dict = {}
        for node in self.nodes.values():
            for idx, child in enumerate(node.children):
                for side in SIDES:
                    out = merged.setdefault((node.id, child, side), {})
                    for pair, weight in self.delta.get((node.id, idx, side), {}).items():
                        if pair not in out or out[pair] < weight:
                            out[pair] = weight
        return merged

    @cached_property
    def _edges(self) -> list[tuple[str, str]]:
        return sorted({(parent, child) for parent, child, _side in self._pair_maps})

    @cached_property
    def _steps(self) -> dict[tuple[str, str, str], tuple[Step, ...]]:
        """(side, node, value) to the sorted steps ``(child, dst, weight)``
        out of it.  Tuples: a list per value, held as long as the proof,
        made the cyclic collector run half again as often on ring(12, 2)."""
        table: dict = {}
        for (parent, child, side), pair_map in sorted(self._pair_maps.items()):
            for (src, dst), weight in sorted(pair_map.items()):
                table.setdefault((side, parent, src), []).append((child, dst, weight))
        return {key: tuple(moves) for key, moves in table.items()}

    def edges(self) -> list[tuple[str, str]]:
        """Distinct (parent, child) node pairs, sorted."""
        return self._edges

    def pairs(self, parent: str, child: str, side: str) -> Mapping[tuple[str, str], Ordinal]:
        """The trace pair map of a (parent, child) node pair on one side,
        merged over the premise positions of the child."""
        self.node(parent)  # an unknown node is a KeyError
        return self._pair_maps.get((parent, child, side), {})

    def out_steps(self, node_id: str, side: str, value: str) -> tuple[Step, ...]:
        """The sorted trace steps ``(child, dst, weight)`` out of a
        ``side`` value of a node; none for a terminal value."""
        self.node(node_id)  # an unknown node is a KeyError
        return self._steps.get((side, node_id, value), ())

    def all_values(self, side: str) -> frozenset[str]:
        out: set[str] = set()
        for node in self.nodes.values():
            out |= node.values(side)
        return frozenset(out)

    def equated_ants(self, node_id: str, con_value: str) -> frozenset[str]:
        """Antecedent values equated with ``con_value`` at a node."""
        node = self.node(node_id)
        return frozenset(a for a, c in node.equates if c == con_value)


class Optional(NamedTuple):
    """An object key that may be absent, with the shape of its value."""

    shape: object


_TYPE_NAMES = {str: "a string", int: "an integer", bool: "a bool"}


def fail(message: str, *path) -> NoReturn:
    """Raise :class:`ProofParseError` at the JSON path made of ``path``'s
    keys and indices (``"$"`` when it is empty)."""
    steps = (f"[{s}]" if type(s) is int else f".{s}" for s in path)
    raise ProofParseError(message, "$" + "".join(steps))


def read_json(source: bytes | str):
    """The JSON value of ``source``; malformed text, an over-long integer
    literal or nesting past the recursion limit is a ProofParseError."""
    try:
        return json.loads(source)
    except (ValueError, RecursionError) as exc:
        raise ProofParseError(f"malformed JSON: {exc}") from exc


def check_shape(doc, shape) -> None:
    """Raise :class:`ProofParseError` at the first place where ``doc``
    does not have ``shape``.

    A shape is a type (``str``, ``int``, ``bool``, where a bool is not an
    int, or ``object`` for any value), ``[s]`` for a list of ``s``,
    ``(s1, ..., sk)`` for a list of exactly k items checked and reported as
    a whole, ``{key: s}`` for an object with exactly those keys, less the
    ones marked :class:`Optional`, or a check function, which returns the
    message for a wrong value and None for a right one.
    """
    if bad := _mismatch(doc, shape):
        fail(bad[0], *reversed(bad[1:]))


def _mismatch(value, shape) -> list | None:
    """None when ``value`` has ``shape``; else the message of its first
    mismatch followed by the indices and keys that lead to it, innermost
    first.  Nothing is formatted while the value fits."""
    kind = type(shape)
    if kind is type:
        if type(value) is not shape and shape is not object:
            return [f"expected {_TYPE_NAMES[shape]}"]
    elif kind is list:
        if type(value) is not list:
            return ["expected a list"]
        for i, item in enumerate(value):
            if bad := _mismatch(item, shape[0]):
                return [*bad, i]
    elif kind is tuple:
        if type(value) is not list or len(value) != len(shape):
            return [f"expected a list of {len(shape)} items"]
        for item, item_shape in zip(value, shape):
            if bad := _mismatch(item, item_shape):
                return bad
    elif kind is dict:
        if type(value) is not dict:
            return ["expected an object"]
        if not value.keys() <= shape.keys():
            return [f"unknown keys {sorted(value.keys() - shape.keys())}"]
        if len(value) < len(shape):
            for key in sorted(shape.keys() - value.keys()):
                if type(shape[key]) is not Optional:
                    return [f"missing key {key!r}"]
        for key, item in value.items():
            item_shape = shape[key]
            if type(item_shape) is Optional:
                item_shape = item_shape.shape
            if bad := _mismatch(item, item_shape):
                return [*bad, key]
    elif message := shape(value):
        return [message]
    return None


def _sequent(value) -> str | None:
    if not (
        type(value) is dict
        and value.keys() == {"ant", "con"}
        and type(value["ant"]) is str
        and type(value["con"]) is str
    ):
        return "sequent must be {'ant': string, 'con': string}"


_NODE = {
    "id": str,
    "rule": str,
    "axiom": bool,
    "sequent": _sequent,
    "ant_values": [str],
    "con_values": [str],
    "children": [str],
    "ground": [str],
    "excluded": [str],
    "equates": [(str, str)],
}
_DELTA = {"from": str, "child_index": int, "side": str, "pairs": [(str, str, object)]}
_PROOF = {"root": str, "nodes": [_NODE], "delta": Optional([_DELTA])}


def parse_proof(source: bytes | str) -> Proof:
    """Parse and fully resolve a proof document.

    Raises :class:`ProofParseError` on malformed syntax, dangling node or
    value references, annotation values outside their node's namespace,
    axiom flags inconsistent with the children list, and weight literals
    that do not parse.
    """
    doc = read_json(source)
    check_shape(doc, _PROOF)
    if not doc["nodes"]:
        fail("root missing: empty node set", "nodes")

    nodes: dict[str, Node] = {}
    for i, raw in enumerate(doc["nodes"]):
        node_id = raw["id"]
        if not node_id:
            fail("bad node id", "nodes", i, "id")
        if node_id in nodes:
            fail(f"duplicate node id {node_id!r}", "nodes", i, "id")
        children = tuple(raw["children"])
        if raw["axiom"] != (not children):
            fail("axiom flag must match an empty children list", "nodes", i, "axiom")
        ant_values = frozenset(raw["ant_values"])
        con_values = frozenset(raw["con_values"])
        for name in ("ground", "excluded"):
            for v in raw[name]:
                if v not in con_values:
                    fail(
                        f"{name} value {v!r} not a consequent value of {node_id!r}",
                        "nodes", i, name,
                    )
        for j, (a, c) in enumerate(raw["equates"]):
            if a not in ant_values:
                fail(
                    f"equated value {a!r} not an antecedent value",
                    "nodes", i, "equates", j,
                )
            if c not in con_values:
                fail(
                    f"equated value {c!r} not a consequent value",
                    "nodes", i, "equates", j,
                )
        seq = raw["sequent"]
        nodes[node_id] = Node(
            id=node_id,
            rule=raw["rule"],
            sequent=Sequent(ant=seq["ant"], con=seq["con"]),
            ant_values=ant_values,
            con_values=con_values,
            children=children,
            ground=frozenset(raw["ground"]),
            excluded=frozenset(raw["excluded"]),
            equates=frozenset(map(tuple, raw["equates"])),
        )

    if doc["root"] not in nodes:
        fail(f"root {doc['root']!r} is not a node", "root")
    for i, node in enumerate(nodes.values()):
        for j, child in enumerate(node.children):
            if child not in nodes:
                fail(f"dangling child reference {child!r}", "nodes", i, "children", j)

    known_values = {v for n in nodes.values() for v in n.ant_values | n.con_values}
    delta: dict[DeltaKey, dict[tuple[str, str], Ordinal]] = {}
    for i, raw in enumerate(doc.get("delta", ())):
        parent = raw["from"]
        if parent not in nodes:
            fail(f"dangling node reference {parent!r}", "delta", i, "from")
        idx = raw["child_index"]
        if not 0 <= idx < len(nodes[parent].children):
            fail(
                f"child_index {idx!r} out of range for {parent!r}",
                "delta", i, "child_index",
            )
        side = raw["side"]
        if side not in SIDES:
            fail(f"side must be 'left' or 'right', got {side!r}", "delta", i, "side")
        key = (parent, idx, side)
        if key in delta:
            fail(f"duplicate delta entry for {key}", "delta", i)
        pair_map: dict[tuple[str, str], Ordinal] = {}
        for j, (src, dst, weight) in enumerate(raw["pairs"]):
            if src not in known_values or dst not in known_values:
                v = dst if src in known_values else src
                fail(f"dangling trace value reference {v!r}", "delta", i, "pairs", j)
            if (src, dst) in pair_map:
                fail(f"duplicate trace pair ({src!r}, {dst!r})", "delta", i, "pairs", j)
            try:
                pair_map[src, dst] = Ordinal.parse(weight)
            except ValueError as exc:  # OrdinalParseError, or an over-long literal
                fail(f"weight parse failure: {exc}", "delta", i, "pairs", j)
        delta[key] = pair_map

    return Proof(root=doc["root"], nodes=nodes, delta=delta)


def load_proof(path) -> Proof:
    with open(path, "rb") as fh:
        return parse_proof(fh.read())


def serialize_proof(proof: Proof) -> str:
    """Canonical JSON rendering; ``parse_proof`` inverts it exactly."""
    nodes_out = []
    for node_id in sorted(proof.nodes):
        node = proof.nodes[node_id]
        nodes_out.append(
            {
                "id": node.id,
                "rule": node.rule,
                "axiom": node.axiomatic,
                "sequent": {"ant": node.sequent.ant, "con": node.sequent.con},
                "ant_values": sorted(node.ant_values),
                "con_values": sorted(node.con_values),
                "children": list(node.children),
                "ground": sorted(node.ground),
                "excluded": sorted(node.excluded),
                "equates": [list(p) for p in sorted(node.equates)],
            }
        )
    delta_out = []
    for key in sorted(proof.delta):
        parent, idx, side = key
        pairs = [
            [src, dst, str(weight)]
            for (src, dst), weight in sorted(proof.delta[key].items())
        ]
        delta_out.append(
            {"from": parent, "child_index": idx, "side": side, "pairs": pairs}
        )
    doc = {"root": proof.root, "nodes": nodes_out, "delta": delta_out}
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def validate(proof: Proof) -> ValidationReport:
    """Check value namespaces, trace pair typing and trace injectivity.

    The report lists every violation; ``trace_injective`` is false exactly
    when some per-edge, per-side map sends two sources to one target.
    """
    violations: list[Violation] = []

    def flag(kind: str, key: DeltaKey, detail: str) -> None:
        parent, idx, side = key
        location = f"delta ({parent!r}, child {idx}, {side})"
        violations.append(Violation(kind=kind, location=location, detail=detail))

    shared = proof.all_values(LEFT) & proof.all_values(RIGHT)
    for v in sorted(shared):
        violations.append(
            Violation(
                kind="namespace_overlap",
                location=f"value {v!r}",
                detail="value occurs on both antecedent and consequent sides",
            )
        )

    injective = True
    for key in sorted(proof.delta):
        parent, idx, side = key
        child = proof.node(parent).children[idx]
        src_values = proof.node(parent).values(side)
        dst_values = proof.node(child).values(side)
        targets_seen: dict[str, str] = {}
        for src, dst in sorted(proof.delta[key]):
            if src not in src_values:
                flag(
                    "delta_domain", key,
                    f"source {src!r} is not a {side} value of {parent!r}",
                )
            if dst not in dst_values:
                flag(
                    "delta_codomain", key,
                    f"target {dst!r} is not a {side} value of {child!r}",
                )
            if dst in targets_seen:
                injective = False
                flag(
                    "trace_injectivity", key,
                    f"sources {targets_seen[dst]!r} and {src!r} both map to {dst!r}",
                )
            else:
                targets_seen[dst] = src
    return ValidationReport(
        violations=tuple(violations), trace_injective=injective
    )


def check_structure(proof: Proof) -> None:
    """Raise ``ValueError`` naming the first structural violation of
    ``proof``, for the procedures that have no meaning on such a proof."""
    structural = validate(proof).structural
    if structural:
        first = structural[0]
        raise ValueError(
            f"invalid proof: {first.kind} at {first.location}: {first.detail}"
        )


def check_side(side: str) -> None:
    """Raise ``ValueError`` unless ``side`` is 'left' or 'right'."""
    if side not in SIDES:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def terminal_values(proof: Proof, node_id: str, side: str) -> frozenset[str]:
    """Values of a node with no outgoing trace pair on any child edge."""
    node = proof.node(node_id)
    check_side(side)
    return frozenset(v for v in node.values(side) if not proof.out_steps(node_id, side, v))
