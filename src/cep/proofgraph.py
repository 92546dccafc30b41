"""Data model, JSON ingestion and structural validation of cyclic
pre-proofs with trace annotations.

Sequent text is opaque: all semantic content enters through the per-node
annotations (ground / excluded / equated values) and the per-edge trace
pair maps.  Proof objects are immutable after parsing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

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
    """Parse failure with a JSON-path style location."""

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


@dataclass(frozen=True)
class Violation:
    kind: str
    location: str
    detail: str

    def to_json(self) -> dict:
        return {"kind": self.kind, "location": self.location, "detail": self.detail}


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


@dataclass(frozen=True, eq=False)
class Proof:
    """A rooted proof graph together with its trace pair annotations.

    ``delta`` maps (parent, child index, side) to a partial map from value
    pairs to ordinal progression amounts.
    """

    root: str
    nodes: dict[str, Node]
    delta: dict[DeltaKey, dict[tuple[str, str], Ordinal]]
    _pair_cache: dict = field(default_factory=dict, repr=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Proof):
            return NotImplemented
        return (
            self.root == other.root
            and self.nodes == other.nodes
            and self.delta == other.delta
        )

    def node(self, node_id: str) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise KeyError(f"unknown node id {node_id!r}") from None

    def edges(self) -> list[tuple[str, str]]:
        """Distinct (parent, child) node pairs, sorted."""
        seen = set()
        for node in self.nodes.values():
            for child in node.children:
                seen.add((node.id, child))
        return sorted(seen)

    def pairs(self, parent: str, child: str, side: str) -> Mapping[tuple[str, str], Ordinal]:
        """The trace pair map of a (parent, child) node pair on one side.

        When the same child occurs at several premise positions the
        per-occurrence maps are merged, keeping the largest weight for a
        pair that occurs more than once.
        """
        key = (parent, child, side)
        cached = self._pair_cache.get(key)
        if cached is not None:
            return cached
        merged: dict[tuple[str, str], Ordinal] = {}
        node = self.node(parent)
        for idx, ch in enumerate(node.children):
            if ch != child:
                continue
            for pair, weight in self.delta.get((parent, idx, side), {}).items():
                old = merged.get(pair)
                if old is None or old < weight:
                    merged[pair] = weight
        self._pair_cache[key] = merged
        return merged

    def all_values(self, side: str) -> frozenset[str]:
        out: set[str] = set()
        for node in self.nodes.values():
            out |= node.values(side)
        return frozenset(out)

    def equated_ants(self, node_id: str, con_value: str) -> frozenset[str]:
        """Antecedent values equated with ``con_value`` at a node."""
        node = self.node(node_id)
        return frozenset(a for a, c in node.equates if c == con_value)

    def parents(self, node_id: str) -> list[str]:
        return sorted(
            n.id for n in self.nodes.values() if node_id in n.children
        )


_NODE_KEYS = {
    "id",
    "rule",
    "axiom",
    "sequent",
    "ant_values",
    "con_values",
    "children",
    "ground",
    "excluded",
    "equates",
}
_DELTA_KEYS = {"from", "child_index", "side", "pairs"}
_TOP_KEYS = {"root", "nodes", "delta"}


def _expect(cond: bool, message: str, location: str):
    if not cond:
        raise ProofParseError(message, location)


def _str_list(raw, location: str) -> list[str]:
    _expect(isinstance(raw, list), "expected a list", location)
    for i, item in enumerate(raw):
        _expect(isinstance(item, str), "expected a string", f"{location}[{i}]")
    return list(raw)


def parse_proof(source: bytes | str) -> Proof:
    """Parse and fully resolve a proof document.

    Raises :class:`ProofParseError` on malformed syntax, dangling node or
    value references, annotation values outside their node's namespace,
    axiom flags inconsistent with the children list, and weight literals
    that do not parse.
    """
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    try:
        doc = json.loads(source)
    except ValueError as exc:  # JSONDecodeError, or an over-long integer literal
        raise ProofParseError(f"malformed JSON: {exc}") from exc
    _expect(isinstance(doc, dict), "top level must be an object", "$")
    unknown = set(doc) - _TOP_KEYS
    _expect(not unknown, f"unknown keys {sorted(unknown)}", "$")
    _expect("nodes" in doc, "missing 'nodes'", "$")
    _expect(isinstance(doc["nodes"], list), "'nodes' must be a list", "$.nodes")
    _expect(bool(doc["nodes"]), "root missing: empty node set", "$.nodes")
    _expect("root" in doc, "missing 'root'", "$")
    _expect(isinstance(doc["root"], str), "'root' must be a node id", "$.root")

    nodes: dict[str, Node] = {}
    for i, raw in enumerate(doc["nodes"]):
        loc = f"$.nodes[{i}]"
        _expect(isinstance(raw, dict), "node must be an object", loc)
        unknown = set(raw) - _NODE_KEYS
        _expect(not unknown, f"unknown keys {sorted(unknown)}", loc)
        if missing := _NODE_KEYS - raw.keys():
            raise ProofParseError(f"missing key {min(missing)!r}", loc)
        node_id = raw["id"]
        _expect(isinstance(node_id, str) and node_id, "bad node id", f"{loc}.id")
        _expect(
            node_id not in nodes, f"duplicate node id {node_id!r}", f"{loc}.id"
        )
        _expect(isinstance(raw["rule"], str), "rule must be a string", f"{loc}.rule")
        seq = raw["sequent"]
        _expect(
            isinstance(seq, dict)
            and set(seq) == {"ant", "con"}
            and all(isinstance(side, str) for side in seq.values()),
            "sequent must be {'ant': string, 'con': string}",
            f"{loc}.sequent",
        )
        ant_values = _str_list(raw["ant_values"], f"{loc}.ant_values")
        con_values = _str_list(raw["con_values"], f"{loc}.con_values")
        children = _str_list(raw["children"], f"{loc}.children")
        _expect(isinstance(raw["axiom"], bool), "axiom must be a bool", f"{loc}.axiom")
        _expect(
            raw["axiom"] == (not children),
            "axiom flag must match an empty children list",
            f"{loc}.axiom",
        )
        ground = _str_list(raw["ground"], f"{loc}.ground")
        excluded = _str_list(raw["excluded"], f"{loc}.excluded")
        for name, vals in (("ground", ground), ("excluded", excluded)):
            for v in vals:
                _expect(
                    v in con_values,
                    f"{name} value {v!r} not a consequent value of {node_id!r}",
                    f"{loc}.{name}",
                )
        _expect(isinstance(raw["equates"], list), "equates must be a list", f"{loc}.equates")
        equates: list[tuple[str, str]] = []
        for j, pair in enumerate(raw["equates"]):
            ploc = f"{loc}.equates[{j}]"
            _expect(
                isinstance(pair, list) and len(pair) == 2,
                "equates entries are [ant, con] pairs",
                ploc,
            )
            a, c = pair
            _expect(a in ant_values, f"equated value {a!r} not an antecedent value", ploc)
            _expect(c in con_values, f"equated value {c!r} not a consequent value", ploc)
            equates.append((a, c))
        nodes[node_id] = Node(
            id=node_id,
            rule=raw["rule"],
            sequent=Sequent(ant=seq["ant"], con=seq["con"]),
            ant_values=frozenset(ant_values),
            con_values=frozenset(con_values),
            children=tuple(children),
            ground=frozenset(ground),
            excluded=frozenset(excluded),
            equates=frozenset(equates),
        )

    _expect(doc["root"] in nodes, f"root {doc['root']!r} is not a node", "$.root")
    for node in nodes.values():
        for j, child in enumerate(node.children):
            _expect(
                child in nodes,
                f"dangling child reference {child!r}",
                f"$.nodes[{node.id}].children[{j}]",
            )

    known_values = {v for n in nodes.values() for v in n.ant_values | n.con_values}
    delta: dict[DeltaKey, dict[tuple[str, str], Ordinal]] = {}
    raw_delta = doc.get("delta", [])
    _expect(isinstance(raw_delta, list), "'delta' must be a list", "$.delta")
    for i, raw in enumerate(raw_delta):
        loc = f"$.delta[{i}]"
        _expect(isinstance(raw, dict), "delta entry must be an object", loc)
        unknown = set(raw) - _DELTA_KEYS
        _expect(not unknown, f"unknown keys {sorted(unknown)}", loc)
        if missing := _DELTA_KEYS - raw.keys():
            raise ProofParseError(f"missing key {min(missing)!r}", loc)
        parent = raw["from"]
        _expect(isinstance(parent, str), "'from' must be a node id", f"{loc}.from")
        _expect(parent in nodes, f"dangling node reference {parent!r}", f"{loc}.from")
        idx = raw["child_index"]
        _expect(
            isinstance(idx, int) and not isinstance(idx, bool),
            "child_index must be an integer",
            f"{loc}.child_index",
        )
        _expect(
            0 <= idx < len(nodes[parent].children),
            f"child_index {idx!r} out of range for {parent!r}",
            f"{loc}.child_index",
        )
        side = raw["side"]
        _expect(side in SIDES, f"side must be 'left' or 'right', got {side!r}", f"{loc}.side")
        key = (parent, idx, side)
        _expect(key not in delta, f"duplicate delta entry for {key}", loc)
        _expect(isinstance(raw["pairs"], list), "pairs must be a list", f"{loc}.pairs")
        pair_map: dict[tuple[str, str], Ordinal] = {}
        for j, entry in enumerate(raw["pairs"]):
            ploc = f"{loc}.pairs[{j}]"
            _expect(
                isinstance(entry, list) and len(entry) == 3,
                "pairs entries are [src, dst, weight] triples",
                ploc,
            )
            src, dst, weight_raw = entry
            for v in (src, dst):
                _expect(isinstance(v, str), "trace values must be strings", ploc)
                _expect(
                    v in known_values,
                    f"dangling trace value reference {v!r}",
                    ploc,
                )
            _expect(
                (src, dst) not in pair_map,
                f"duplicate trace pair ({src!r}, {dst!r})",
                ploc,
            )
            try:
                weight = Ordinal.parse(weight_raw)
            except ValueError as exc:  # OrdinalParseError, or an over-long literal
                raise ProofParseError(f"weight parse failure: {exc}", ploc) from exc
            pair_map[(src, dst)] = weight
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
            loc = f"delta ({parent!r}, child {idx}, {side})"
            if src not in src_values:
                violations.append(
                    Violation(
                        kind="delta_domain",
                        location=loc,
                        detail=f"source {src!r} is not a {side} value of {parent!r}",
                    )
                )
            if dst not in dst_values:
                violations.append(
                    Violation(
                        kind="delta_codomain",
                        location=loc,
                        detail=f"target {dst!r} is not a {side} value of {child!r}",
                    )
                )
            if dst in targets_seen:
                injective = False
                violations.append(
                    Violation(
                        kind="trace_injectivity",
                        location=loc,
                        detail=(
                            f"sources {targets_seen[dst]!r} and {src!r} both map "
                            f"to {dst!r}"
                        ),
                    )
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


def terminal_values(proof: Proof, node_id: str, side: str) -> frozenset[str]:
    """Values of a node with no outgoing trace pair on any child edge."""
    node = proof.node(node_id)
    if side not in SIDES:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    out = set(node.values(side))
    for idx in range(len(node.children)):
        for src, _dst in proof.delta.get((node_id, idx, side), {}):
            out.discard(src)
    return frozenset(out)
