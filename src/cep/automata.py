"""Weighted automata over the proof alphabet and the ordinal max-plus
semiring: the consequent-trace and antecedent-trace constructions, the
approximate antecedent automata with bounded sink chains, run semantics,
groundedness and ambiguity analysis, and DOT/JSON export.

The alphabet has two letter shapes: node letters, and pair letters made of
a set of antecedent values together with one consequent value.  Pair
letters are only ever instantiated as (equated antecedents of t, t) for an
axiomatic node.

State weights follow the construction: a transition carries the trace
pair weight exactly when both its endpoints are node/value states, and
weight zero otherwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .ordinal import BOT, ZERO, Ordinal, TropicalWeight, ord_add, trop_oplus
from .proofgraph import LEFT, RIGHT, Proof, terminal_values

__all__ = [
    "Letter",
    "State",
    "TracePairQuery",
    "WeightedAutomaton",
    "build_consequent",
    "build_antecedent_full",
    "build_antecedent_approx",
    "run_values",
    "language_value",
    "is_grounded",
    "ambiguity",
    "export_dot",
    "automaton_to_json",
    "automaton_from_json",
]


@dataclass(frozen=True)
class Letter:
    """A node letter (``node`` set) or a pair letter (``ants``/``con`` set)."""

    node: str | None = None
    ants: tuple[str, ...] | None = None
    con: str | None = None

    @classmethod
    def node_ref(cls, node_id: str) -> Letter:
        return cls(node=node_id)

    @classmethod
    def value_pair(cls, ants, con: str) -> Letter:
        return cls(node=None, ants=tuple(sorted(set(ants))), con=con)

    @property
    def is_node(self) -> bool:
        return self.node is not None

    def sort_key(self):
        if self.node is not None:
            return (0, self.node, (), "")
        return (1, "", self.ants, self.con)

    def __str__(self) -> str:
        if self.node is not None:
            return self.node
        return "({%s},%s)" % (",".join(self.ants), self.con)


START = "start"
NODE_VALUE = "node_value"
BOT_STATE = "bot"
TOP = "top"
CHAIN = "chain"

_KIND_RANK = {START: 0, NODE_VALUE: 1, BOT_STATE: 2, TOP: 3, CHAIN: 4}


@dataclass(frozen=True)
class State:
    kind: str
    node: str = ""
    value: str = ""
    level: int = 0

    @classmethod
    def start(cls) -> State:
        return cls(START)

    @classmethod
    def node_value(cls, node: str, value: str) -> State:
        return cls(NODE_VALUE, node=node, value=value)

    @classmethod
    def bot(cls) -> State:
        return cls(BOT_STATE)

    @classmethod
    def top(cls) -> State:
        return cls(TOP)

    @classmethod
    def chain(cls, node: str, level: int) -> State:
        return cls(CHAIN, node=node, level=level)

    def sort_key(self):
        return (_KIND_RANK[self.kind], self.node, self.value, self.level)

    def __str__(self) -> str:
        if self.kind == NODE_VALUE:
            return f"({self.node},{self.value})"
        if self.kind == CHAIN:
            return f"⊤{self.level}({self.node})"
        return {START: "start", BOT_STATE: "⊥", TOP: "⊤"}[self.kind]


@dataclass(frozen=True)
class TracePairQuery:
    node: str
    ant_value: str
    con_value: str

    def check(self, proof: Proof) -> None:
        node = proof.node(self.node)
        if self.ant_value not in node.ant_values:
            raise ValueError(
                f"unknown antecedent value {self.ant_value!r} at node {self.node!r}"
            )
        if self.con_value not in node.con_values:
            raise ValueError(
                f"unknown consequent value {self.con_value!r} at node {self.node!r}"
            )


@dataclass(frozen=True)
class WeightedAutomaton:
    kind: str  # "consequent" | "antecedent_full" | "antecedent_approx"
    states: frozenset[State]
    initial: State
    finals: frozenset[State]
    transitions: dict[tuple[State, Letter], dict[State, Ordinal]] = field(hash=False)
    alphabet: frozenset[Letter] = frozenset()
    approx_level: int | None = None

    def successors(self, state: State, letter: Letter):
        return sorted(
            self.transitions.get((state, letter), {}).items(),
            key=lambda item: item[0].sort_key(),
        )

    def transition_triples(self):
        """(src, letter, dst, weight) tuples sorted by src, letter, dst."""
        out = []
        for (src, letter), targets in self.transitions.items():
            for dst, weight in targets.items():
                out.append((src, letter, dst, weight))
        out.sort(key=lambda t: (t[0].sort_key(), t[1].sort_key(), t[2].sort_key()))
        return out

    def reachable_states(self) -> frozenset[State]:
        seen = {self.initial}
        frontier = [self.initial]
        succ: dict[State, set[State]] = {}
        for (src, _letter), targets in self.transitions.items():
            succ.setdefault(src, set()).update(targets)
        while frontier:
            state = frontier.pop()
            for nxt in succ.get(state, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return frozenset(seen)

    def co_reachable_states(self) -> frozenset[State]:
        pred: dict[State, set[State]] = {}
        for (src, _letter), targets in self.transitions.items():
            for dst in targets:
                pred.setdefault(dst, set()).add(src)
        seen = set(self.finals)
        frontier = list(self.finals)
        while frontier:
            state = frontier.pop()
            for prv in pred.get(state, ()):
                if prv not in seen:
                    seen.add(prv)
                    frontier.append(prv)
        return frozenset(seen)


def _letter_alphabet(proof: Proof) -> frozenset[Letter]:
    letters = {Letter.node_ref(n) for n in proof.nodes}
    for node_id, node in proof.nodes.items():
        if not node.axiomatic:
            continue
        for con in node.con_values:
            letters.add(
                Letter.value_pair(proof.equated_ants(node_id, con), con)
            )
    return frozenset(letters)


class _Builder:
    def __init__(self):
        self.transitions: dict[tuple[State, Letter], dict[State, Ordinal]] = {}

    def add(self, src: State, letter: Letter, dst: State, weight: Ordinal):
        self.transitions.setdefault((src, letter), {})[dst] = weight


def build_consequent(proof: Proof, query: TracePairQuery) -> WeightedAutomaton:
    """The consequent-trace automaton: its accepting runs correspond to
    the positive maximal right-hand traces rooted at the query node, with
    run value equal to the trace size."""
    query.check(proof)
    con_values = proof.all_values(RIGHT)
    states = {State.node_value(n, v) for n in proof.nodes for v in con_values}
    start, bot = State.start(), State.bot()
    states |= {start, bot}

    finals = {bot}
    for node_id, node in proof.nodes.items():
        terminal = terminal_values(proof, node_id, RIGHT)
        for value in con_values:
            if value in node.excluded:
                continue
            if node.axiomatic:
                if value in node.ground:
                    finals.add(State.node_value(node_id, value))
            elif value in terminal or value not in node.con_values:
                # Values foreign to the node are vacuously terminal; the
                # states are unreachable but belong to the full product.
                finals.add(State.node_value(node_id, value))

    b = _Builder()
    b.add(start, Letter.node_ref(query.node), State.node_value(query.node, query.con_value), ZERO)
    for parent, child in proof.edges():
        for (src, dst), weight in proof.pairs(parent, child, RIGHT).items():
            b.add(
                State.node_value(parent, src),
                Letter.node_ref(child),
                State.node_value(child, dst),
                weight,
            )
    for node_id, node in proof.nodes.items():
        if not node.axiomatic:
            continue
        for value in node.con_values:
            if value in node.ground or value in node.excluded:
                continue
            letter = Letter.value_pair(proof.equated_ants(node_id, value), value)
            b.add(State.node_value(node_id, value), letter, bot, ZERO)

    return WeightedAutomaton(
        kind="consequent",
        states=frozenset(states),
        initial=start,
        finals=frozenset(finals),
        transitions=b.transitions,
        alphabet=_letter_alphabet(proof),
    )


def _antecedent_core(proof: Proof, query: TracePairQuery, b: _Builder):
    start = State.start()
    b.add(start, Letter.node_ref(query.node), State.node_value(query.node, query.ant_value), ZERO)
    for parent, child in proof.edges():
        for (src, dst), weight in proof.pairs(parent, child, LEFT).items():
            b.add(
                State.node_value(parent, src),
                Letter.node_ref(child),
                State.node_value(child, dst),
                weight,
            )
    bot = State.bot()
    for node_id, node in proof.nodes.items():
        if not node.axiomatic:
            continue
        for con in node.con_values:
            equated = proof.equated_ants(node_id, con)
            letter = Letter.value_pair(equated, con)
            for ant in equated:
                b.add(State.node_value(node_id, ant), letter, bot, ZERO)


def build_antecedent_full(proof: Proof, query: TracePairQuery) -> WeightedAutomaton:
    """The full antecedent-trace automaton, with a single unbounded sink
    that absorbs every word extension once a left-hand trace stops."""
    query.check(proof)
    ant_values = proof.all_values(LEFT)
    start, bot, top = State.start(), State.bot(), State.top()
    states = {State.node_value(n, v) for n in proof.nodes for v in ant_values}
    states |= {start, bot, top}

    b = _Builder()
    _antecedent_core(proof, query, b)
    for parent, child in proof.edges():
        for value in ant_values:
            b.add(State.node_value(parent, value), Letter.node_ref(child), top, ZERO)
    for node_id in proof.nodes:
        b.add(top, Letter.node_ref(node_id), top, ZERO)

    return WeightedAutomaton(
        kind="antecedent_full",
        states=frozenset(states),
        initial=start,
        finals=frozenset(states - {start}),
        transitions=b.transitions,
        alphabet=_letter_alphabet(proof),
    )


def build_antecedent_approx(
    proof: Proof, query: TracePairQuery, n: int
) -> WeightedAutomaton:
    """The approximate antecedent automaton: the sink is refined into
    per-node chains of length ``n`` that remember the node read on entry
    and admit at most ``n`` further occurrences of it (entry included)."""
    if n < 1:
        raise ValueError("approximation level must be at least 1")
    query.check(proof)
    ant_values = proof.all_values(LEFT)
    start, bot = State.start(), State.bot()
    states = {State.node_value(nd, v) for nd in proof.nodes for v in ant_values}
    states |= {start, bot}
    states |= {
        State.chain(node_id, level)
        for node_id in proof.nodes
        for level in range(1, n + 1)
    }

    b = _Builder()
    _antecedent_core(proof, query, b)
    for parent, child in proof.edges():
        for value in ant_values:
            b.add(
                State.node_value(parent, value),
                Letter.node_ref(child),
                State.chain(child, 1),
                ZERO,
            )
    for node_id in proof.nodes:
        for level in range(1, n + 1):
            for other in proof.nodes:
                if other != node_id:
                    b.add(
                        State.chain(node_id, level),
                        Letter.node_ref(other),
                        State.chain(node_id, level),
                        ZERO,
                    )
            if level < n:
                b.add(
                    State.chain(node_id, level),
                    Letter.node_ref(node_id),
                    State.chain(node_id, level + 1),
                    ZERO,
                )

    return WeightedAutomaton(
        kind="antecedent_approx",
        states=frozenset(states),
        initial=start,
        finals=frozenset(states - {start}),
        transitions=b.transitions,
        alphabet=_letter_alphabet(proof),
        approx_level=n,
    )


def run_values(
    auto: WeightedAutomaton, word
) -> list[tuple[tuple[State, ...], TropicalWeight]]:
    """Every run over the word, paired with its value: the reversed
    ordinal sum of its transition weights when accepting, bottom
    otherwise."""
    word = list(word)
    runs = [((auto.initial,), ZERO)]
    for letter in word:
        nxt = []
        for states, acc in runs:
            for target, weight in auto.successors(states[-1], letter):
                nxt.append((states + (target,), ord_add(weight, acc)))
        runs = nxt
    return [
        (
            states,
            TropicalWeight(acc) if states[-1] in auto.finals else BOT,
        )
        for states, acc in runs
    ]


def language_value(auto: WeightedAutomaton, word) -> TropicalWeight:
    """The quantitative language: the max over all run values, bottom when
    the word admits no run (or only non-accepting ones).

    Computed state-wise: the left addition of a new step weight is
    monotone, so keeping the per-state maximum prefix value is exact.
    """
    best: dict[State, Ordinal] = {auto.initial: ZERO}
    for letter in word:
        nxt: dict[State, Ordinal] = {}
        for state, acc in best.items():
            for target, weight in auto.transitions.get((state, letter), {}).items():
                candidate = ord_add(weight, acc)
                old = nxt.get(target)
                if old is None or old < candidate:
                    nxt[target] = candidate
        best = nxt
        if not best:
            return BOT
    result = BOT
    for state, acc in best.items():
        if state in auto.finals:
            result = trop_oplus(result, TropicalWeight(acc))
    return result


def is_grounded(auto: WeightedAutomaton, proof: Proof) -> bool:
    """True iff the value of every reachable final node/value state is
    ground at its node."""
    if auto.kind != "consequent":
        raise ValueError("groundedness applies to consequent automata")
    for state in auto.reachable_states():
        if state.kind != NODE_VALUE or state not in auto.finals:
            continue
        if state.value not in proof.node(state.node).ground:
            return False
    return True


def _trimmed(auto: WeightedAutomaton):
    useful = auto.reachable_states() & auto.co_reachable_states()
    transitions: dict[tuple[State, Letter], list[tuple[State, Ordinal]]] = {}
    for (src, letter), targets in auto.transitions.items():
        if src not in useful:
            continue
        kept = [(dst, w) for dst, w in targets.items() if dst in useful]
        if kept:
            transitions[(src, letter)] = kept
    return useful, transitions


def ambiguity(auto: WeightedAutomaton) -> str:
    """Classify as ``unambiguous``, ``finite`` or ``infinite``.

    Infinite ambiguity is the classical pattern: distinct useful states q,
    q' and a word w with runs q -w-> q, q -w-> q', q' -w-> q', decided by
    reachability from (q,q,q') to (q,q',q') in the triple product.
    Ambiguity at all is decided on the squared product: some useful
    off-diagonal pair must be reachable from the doubled initial state and
    jointly co-reachable into a pair of finals.
    """
    useful, transitions = _trimmed(auto)
    if auto.initial not in useful:
        return "unambiguous"

    letters = sorted({letter for (_s, letter) in transitions}, key=Letter.sort_key)
    succ: dict[tuple[State, Letter], list[State]] = {
        key: [dst for dst, _w in targets] for key, targets in transitions.items()
    }

    # States on some cycle of the trimmed automaton.
    on_cycle = set()
    for state in useful:
        seen: set[State] = set()
        frontier = [
            dst
            for letter in letters
            for dst in succ.get((state, letter), ())
        ]
        while frontier:
            current = frontier.pop()
            if current == state:
                on_cycle.add(state)
                frontier = []
                break
            if current in seen:
                continue
            seen.add(current)
            for letter in letters:
                frontier.extend(succ.get((current, letter), ()))

    def triple_reaches(p: State, r: State) -> bool:
        start = (p, p, r)
        target = (p, r, r)
        seen = {start}
        frontier = [start]
        while frontier:
            x, y, z = frontier.pop()
            for letter in letters:
                for nx in succ.get((x, letter), ()):
                    for ny in succ.get((y, letter), ()):
                        for nz in succ.get((z, letter), ()):
                            triple = (nx, ny, nz)
                            if triple == target:
                                return True
                            if triple not in seen:
                                seen.add(triple)
                                frontier.append(triple)
        return False

    ordered = sorted(useful, key=State.sort_key)
    for p in ordered:
        if p not in on_cycle:
            continue
        for r in ordered:
            if r == p or r not in on_cycle:
                continue
            if triple_reaches(p, r):
                return "infinite"

    # Squared product: reachable, jointly co-reachable off-diagonal pair?
    pair_start = (auto.initial, auto.initial)
    reach_pairs = {pair_start}
    frontier = [pair_start]
    while frontier:
        x, y = frontier.pop()
        for letter in letters:
            for nx in succ.get((x, letter), ()):
                for ny in succ.get((y, letter), ()):
                    pair = (nx, ny)
                    if pair not in reach_pairs:
                        reach_pairs.add(pair)
                        frontier.append(pair)
    # Joint backward search from pairs of finals over the squared product,
    # restricted to the pairs seen forward.
    finals_sq = {
        (x, y)
        for x in auto.finals
        for y in auto.finals
        if (x, y) in reach_pairs
    }
    co = set(finals_sq)
    changed = True
    while changed:
        changed = False
        for pair in reach_pairs:
            if pair in co:
                continue
            x, y = pair
            hit = False
            for letter in letters:
                for nx in succ.get((x, letter), ()):
                    for ny in succ.get((y, letter), ()):
                        if (nx, ny) in co:
                            hit = True
                            break
                    if hit:
                        break
                if hit:
                    break
            if hit:
                co.add(pair)
                changed = True
    for x, y in reach_pairs & co:
        if x != y:
            return "finite"
    return "unambiguous"


def export_dot(auto: WeightedAutomaton) -> str:
    """Deterministic DOT rendering: states labelled by their tags,
    transitions by letter and weight."""
    lines = ["digraph {", "  rankdir=LR;"]
    ordered = sorted(auto.states, key=State.sort_key)
    names = {state: f"q{i}" for i, state in enumerate(ordered)}
    lines.append('  __init [shape=point, label=""];')
    for state in ordered:
        shape = "doublecircle" if state in auto.finals else "circle"
        lines.append(f'  {names[state]} [shape={shape}, label="{state}"];')
    lines.append(f"  __init -> {names[auto.initial]};")
    for src, letter, dst, weight in auto.transition_triples():
        lines.append(
            f'  {names[src]} -> {names[dst]} [label="{letter} / {weight}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _state_to_json(state: State) -> dict:
    out = {"kind": state.kind}
    if state.node:
        out["node"] = state.node
    if state.value:
        out["value"] = state.value
    if state.level:
        out["level"] = state.level
    return out


def _expect(cond: bool, message: str, location: str):
    if not cond:
        raise ValueError(f"{location}: {message}")


def _is_int(raw) -> bool:
    return isinstance(raw, int) and not isinstance(raw, bool)


def _field(raw, key: str, location: str):
    _expect(isinstance(raw, dict), "expected an object", location)
    _expect(key in raw, f"missing key {key!r}", location)
    return raw[key]


def _list_field(raw, key: str, location: str) -> list:
    value = _field(raw, key, location)
    _expect(isinstance(value, list), "expected a list", f"{location}.{key}")
    return value


def _state_from_json(raw, location: str) -> State:
    kind = _field(raw, "kind", location)
    _expect(kind in _KIND_RANK, f"unknown state kind {kind!r}", f"{location}.kind")
    node = raw.get("node", "")
    value = raw.get("value", "")
    level = raw.get("level", 0)
    _expect(isinstance(node, str), "expected a string", f"{location}.node")
    _expect(isinstance(value, str), "expected a string", f"{location}.value")
    _expect(_is_int(level), "expected an integer", f"{location}.level")
    return State(kind=kind, node=node, value=value, level=level)


def _letter_to_json(letter: Letter) -> dict:
    if letter.is_node:
        return {"node": letter.node}
    return {"ants": list(letter.ants), "con": letter.con}


def _letter_from_json(raw, location: str) -> Letter:
    _expect(isinstance(raw, dict), "expected a letter object", location)
    if "node" in raw:
        _expect(isinstance(raw["node"], str), "expected a string", f"{location}.node")
        return Letter.node_ref(raw["node"])
    ants = _list_field(raw, "ants", location)
    for i, ant in enumerate(ants):
        _expect(isinstance(ant, str), "expected a string", f"{location}.ants[{i}]")
    con = _field(raw, "con", location)
    _expect(isinstance(con, str), "expected a string", f"{location}.con")
    return Letter.value_pair(ants, con)


def automaton_to_json(auto: WeightedAutomaton) -> str:
    ordered = sorted(auto.states, key=State.sort_key)
    index = {state: i for i, state in enumerate(ordered)}
    doc = {
        "kind": auto.kind,
        "approx_level": auto.approx_level,
        "states": [_state_to_json(s) for s in ordered],
        "initial": index[auto.initial],
        "finals": sorted(index[s] for s in auto.finals),
        "alphabet": [
            _letter_to_json(l) for l in sorted(auto.alphabet, key=Letter.sort_key)
        ],
        "transitions": [
            {
                "src": index[src],
                "letter": _letter_to_json(letter),
                "dst": index[dst],
                "weight": str(weight),
            }
            for src, letter, dst, weight in auto.transition_triples()
        ],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def automaton_from_json(text: str | bytes) -> WeightedAutomaton:
    """Read an automaton written by :func:`automaton_to_json`.  Raises
    ``ValueError`` with a JSON-path location on a malformed document."""
    doc = json.loads(text)
    kind = _field(doc, "kind", "$")
    _expect(isinstance(kind, str), "expected a string", "$.kind")
    approx_level = doc.get("approx_level")
    _expect(
        approx_level is None or _is_int(approx_level),
        "expected an integer or null",
        "$.approx_level",
    )
    states = [
        _state_from_json(raw, f"$.states[{i}]")
        for i, raw in enumerate(_list_field(doc, "states", "$"))
    ]

    def state_at(raw, location: str) -> State:
        _expect(_is_int(raw), "expected a state index", location)
        _expect(
            0 <= raw < len(states),
            f"state index {raw} out of range for {len(states)} states",
            location,
        )
        return states[raw]

    transitions: dict[tuple[State, Letter], dict[State, Ordinal]] = {}
    for i, raw in enumerate(_list_field(doc, "transitions", "$")):
        loc = f"$.transitions[{i}]"
        src = state_at(_field(raw, "src", loc), f"{loc}.src")
        dst = state_at(_field(raw, "dst", loc), f"{loc}.dst")
        letter = _letter_from_json(_field(raw, "letter", loc), f"{loc}.letter")
        weight = _field(raw, "weight", loc)
        try:
            weight = Ordinal.parse(weight)
        except ValueError as exc:
            raise ValueError(f"{loc}.weight: {exc}") from exc
        transitions.setdefault((src, letter), {})[dst] = weight
    return WeightedAutomaton(
        kind=kind,
        states=frozenset(states),
        initial=state_at(_field(doc, "initial", "$"), "$.initial"),
        finals=frozenset(
            state_at(raw, f"$.finals[{i}]")
            for i, raw in enumerate(_list_field(doc, "finals", "$"))
        ),
        transitions=transitions,
        alphabet=frozenset(
            _letter_from_json(raw, f"$.alphabet[{i}]")
            for i, raw in enumerate(_list_field(doc, "alphabet", "$"))
        ),
        approx_level=approx_level,
    )
