"""Weighted automata over the proof alphabet and the ordinal max-plus
semiring: the consequent-trace and antecedent-trace constructions, the
approximate antecedent automata with bounded sink chains, run semantics,
groundedness and ambiguity analysis, and DOT/JSON export.

Ambiguity is classified on the trimmed automaton with the shared graph
primitives of :mod:`cep.traces`: one strongly-connected-component pass
over the automaton finds the states on cycles, and one over the triple
product started from pairs of them, with a back edge (p,q,q) -> (p,p,q)
per pair, decides Weber and Seidl's IDA pattern (infinite ambiguity), and a
forward and a backward closure over the squared product decide whether
any word has two accepting runs at all.

The alphabet has two letter shapes: node letters, and pair letters made of
a set of antecedent values together with one consequent value.  Pair
letters are only ever instantiated as (equated antecedents of t, t) for an
axiomatic node.

States and letters are named tuples, and their natural tuple order is
the export order of DOT and JSON files, of ``transition_triples`` and of
the letters the containment engines read: states by kind (start,
node/value, bottom, top, chain), then node, value and level; node
letters before pair letters.

State weights follow the construction: a transition carries the trace
pair weight exactly when both its endpoints are node/value states, and
weight zero otherwise.

The sink chains of the approximate antecedent automaton are a rule, not a
table: its ``states``, ``finals`` and ``transitions`` hold only the
explicit part, and ``chains`` gives the length of the implicit chains.
Runs read an automaton through ``targets`` and ``is_final``, which apply
the rule to a chain state, so the containment search reads only the chain
transitions it takes.  Readers of the whole table (export, ambiguity,
reachability) call ``table()`` once, which writes the chains out.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from itertools import product
from typing import NamedTuple

from .ordinal import BOT, ZERO, Ordinal, TropicalWeight, ord_add, trop_oplus
from .proofgraph import LEFT, RIGHT, Optional, Proof, terminal_values
from .proofgraph import check_shape, fail, read_json
from .traces import closure, sccs

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
    "to_json",
]


class Letter(NamedTuple):
    """A node letter (``node`` set) or a pair letter (``pair`` true,
    ``ants``/``con`` set).  Node letters sort first."""

    pair: bool
    node: str = ""
    ants: tuple[str, ...] = ()
    con: str = ""

    @classmethod
    def node_ref(cls, node_id: str) -> Letter:
        return cls(False, node=node_id)

    @classmethod
    def value_pair(cls, ants, con: str) -> Letter:
        return cls(True, ants=tuple(sorted(set(ants))), con=con)

    @property
    def is_node(self) -> bool:
        return not self.pair

    def __str__(self) -> str:
        if not self.pair:
            return self.node
        return "({%s},%s)" % (",".join(self.ants), self.con)


START = "start"
NODE_VALUE = "node_value"
BOT_STATE = "bot"
TOP = "top"
CHAIN = "chain"

# State kinds in export order; a state's ``rank`` indexes this tuple.
KINDS = (START, NODE_VALUE, BOT_STATE, TOP, CHAIN)
_CHAIN_RANK = KINDS.index(CHAIN)


class State(NamedTuple):
    """A state of one of the constructions, tagged by its kind's rank."""

    rank: int
    node: str = ""
    value: str = ""
    level: int = 0

    @property
    def kind(self) -> str:
        return KINDS[self.rank]

    @classmethod
    def start(cls) -> State:
        return cls(0)

    @classmethod
    def node_value(cls, node: str, value: str) -> State:
        return cls(1, node=node, value=value)

    @classmethod
    def bot(cls) -> State:
        return cls(2)

    @classmethod
    def top(cls) -> State:
        return cls(3)

    @classmethod
    def chain(cls, node: str, level: int) -> State:
        return cls(4, node=node, level=level)

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
    """A weighted automaton: ``states``, ``finals`` and ``transitions``
    list its explicit part, and ``chains`` is the length of its implicit
    sink chains ``⊤l(m)``, one per node letter ``m`` and level
    ``1 <= l <= chains`` (0: none).  Runs read it through ``targets`` and
    ``is_final``; whole-table readers read ``table()``."""

    kind: str  # "consequent" | "antecedent_full" | "antecedent_approx"
    states: frozenset[State]
    initial: State
    finals: frozenset[State]
    transitions: dict[tuple[State, Letter], dict[State, Ordinal]] = field(hash=False)
    alphabet: frozenset[Letter] = frozenset()
    approx_level: int | None = None
    chains: int = 0

    def _on_chain(self, state: State) -> bool:
        """Whether ``state`` is one of the implicit chain states."""
        return (
            state.rank == _CHAIN_RANK
            and 0 < state.level <= self.chains
            and not state.value
            # The plain tuple equals Letter.node_ref(state.node) and is
            # cheaper to build on the containment search's hot path.
            and (False, state.node, (), "") in self.alphabet
        )

    def targets(self, state: State, letter: Letter) -> dict[State, Ordinal]:
        """The states ``letter`` leads to from ``state``, with their weights.

        From an implicit chain state ``⊤l(m)`` a node letter other than
        ``m`` loops and ``m`` climbs to ``⊤(l+1)(m)`` while ``l < chains``;
        nothing else moves."""
        if state.rank != _CHAIN_RANK or not self._on_chain(state):
            return self.transitions.get((state, letter), {})
        if letter.pair or letter not in self.alphabet:
            return {}
        if letter.node != state.node:
            return {state: ZERO}
        if state.level < self.chains:
            return {State.chain(state.node, state.level + 1): ZERO}
        return {}

    def is_final(self, state: State) -> bool:
        """Whether ``state`` is final; every implicit chain state is."""
        return state in self.finals or self._on_chain(state)

    def table(self) -> WeightedAutomaton:
        """The same automaton with its chains written out as explicit
        states, finals and transitions; ``self`` when it has none."""
        if not self.chains:
            return self
        letters = [letter for letter in self.alphabet if not letter.pair]
        chain_states = frozenset(
            State.chain(letter.node, level)
            for letter in letters
            for level in range(1, self.chains + 1)
        )
        transitions = dict(self.transitions)
        for state in chain_states:
            for letter in letters:
                targets = self.targets(state, letter)
                if targets:
                    transitions[(state, letter)] = targets
        return replace(
            self,
            states=self.states | chain_states,
            finals=self.finals | chain_states,
            transitions=transitions,
            chains=0,
        )

    def transition_triples(self):
        """(src, letter, dst, weight) tuples sorted by src, letter, dst."""
        return sorted(
            (src, letter, dst, weight)
            for (src, letter), targets in self.table().transitions.items()
            for dst, weight in targets.items()
        )

    def reachable_states(self) -> frozenset[State]:
        succ: dict[State, set[State]] = {}
        for (src, _letter), targets in self.table().transitions.items():
            succ.setdefault(src, set()).update(targets)
        return frozenset(closure([self.initial], lambda s: succ.get(s, ())))

    def co_reachable_states(self) -> frozenset[State]:
        table = self.table()
        pred: dict[State, set[State]] = {}
        for (src, _letter), targets in table.transitions.items():
            for dst in targets:
                pred.setdefault(dst, set()).add(src)
        return frozenset(closure(table.finals, lambda s: pred.get(s, ())))


def _pair_letters(proof: Proof):
    """``(node, letter)`` for the pair letter (equated antecedents of t, t)
    of each consequent value t of each axiomatic node."""
    for node_id, node in proof.nodes.items():
        if node.axiomatic:
            for con in node.con_values:
                yield node_id, Letter.value_pair(proof.equated_ants(node_id, con), con)


def _letter_alphabet(proof: Proof) -> frozenset[Letter]:
    letters = {Letter.node_ref(n) for n in proof.nodes}
    return frozenset(letters.union(letter for _n, letter in _pair_letters(proof)))


def _add(transitions: dict, src: State, letter: Letter, dst: State, weight: Ordinal):
    transitions.setdefault((src, letter), {})[dst] = weight


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

    transitions: dict = {}
    _trace_transitions(proof, query, RIGHT, transitions)
    for node_id, letter in _pair_letters(proof):
        node = proof.node(node_id)
        if letter.con not in node.ground and letter.con not in node.excluded:
            _add(transitions, State.node_value(node_id, letter.con), letter, bot, ZERO)

    return WeightedAutomaton(
        kind="consequent",
        states=frozenset(states),
        initial=start,
        finals=frozenset(finals),
        transitions=transitions,
        alphabet=_letter_alphabet(proof),
    )


def _trace_transitions(proof: Proof, query: TracePairQuery, side: str, transitions: dict):
    """The start transition into the query's value on ``side``, then one
    transition per trace pair of every edge on that side."""
    value = query.ant_value if side == LEFT else query.con_value
    _add(
        transitions,
        State.start(),
        Letter.node_ref(query.node),
        State.node_value(query.node, value),
        ZERO,
    )
    for parent, child in proof.edges():
        for (src, dst), weight in proof.pairs(parent, child, side).items():
            _add(
                transitions,
                State.node_value(parent, src),
                Letter.node_ref(child),
                State.node_value(child, dst),
                weight,
            )


def _antecedent(proof: Proof, query: TracePairQuery, sink, **fields):
    """The antecedent-trace automaton whose node/value states, on each
    child letter, also lead into ``sink(child)``, where a stopped
    left-hand trace is absorbed: the left trace transitions, the axiom
    edges into bottom and the sink edges.  Every state but the start is
    final."""
    query.check(proof)
    ant_values = proof.all_values(LEFT)
    start, bot = State.start(), State.bot()
    states = {State.node_value(n, v) for n in proof.nodes for v in ant_values}
    transitions: dict = {}
    _trace_transitions(proof, query, LEFT, transitions)
    for node_id, letter in _pair_letters(proof):
        for ant in letter.ants:
            _add(transitions, State.node_value(node_id, ant), letter, bot, ZERO)
    for parent, child in proof.edges():
        for value in ant_values:
            source = State.node_value(parent, value)
            _add(transitions, source, Letter.node_ref(child), sink(child), ZERO)
    return WeightedAutomaton(
        states=frozenset(states | {start, bot}),
        initial=start,
        finals=frozenset(states | {bot}),
        transitions=transitions,
        alphabet=_letter_alphabet(proof),
        **fields,
    )


def build_antecedent_full(proof: Proof, query: TracePairQuery) -> WeightedAutomaton:
    """The full antecedent-trace automaton, with a single unbounded sink
    that absorbs every word extension once a left-hand trace stops."""
    top = State.top()
    auto = _antecedent(proof, query, lambda _child: top, kind="antecedent_full")
    for node_id in proof.nodes:
        _add(auto.transitions, top, Letter.node_ref(node_id), top, ZERO)
    return replace(auto, states=auto.states | {top}, finals=auto.finals | {top})


def build_antecedent_approx(
    proof: Proof, query: TracePairQuery, n: int
) -> WeightedAutomaton:
    """The approximate antecedent automaton: the sink is refined into
    per-node chains of length ``n`` that remember the node read on entry
    and admit at most ``n`` further occurrences of it (entry included).

    The chains, ``|nodes| · n`` states and about ``|nodes|² · n``
    transitions, are a rule and not a table: the automaton lists only its
    explicit part and sets ``chains`` to ``n``, so ``targets`` and
    ``is_final`` work a chain state out when a run reaches it and the
    lag-set search reads only the few it takes.  ``table()`` writes them
    out in full, from the same rule."""
    if n < 1:
        raise ValueError("approximation level must be at least 1")
    return _antecedent(
        proof, query, lambda child: State.chain(child, 1),
        kind="antecedent_approx", approx_level=n, chains=n
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
            for target, weight in sorted(auto.targets(states[-1], letter).items()):
                nxt.append((states + (target,), ord_add(weight, acc)))
        runs = nxt
    return [
        (
            states,
            TropicalWeight(acc) if auto.is_final(states[-1]) else BOT,
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
            for target, weight in auto.targets(state, letter).items():
                candidate = ord_add(weight, acc)
                old = nxt.get(target)
                if old is None or old < candidate:
                    nxt[target] = candidate
        best = nxt
        if not best:
            return BOT
    result = BOT
    for state, acc in best.items():
        if auto.is_final(state):
            result = trop_oplus(result, TropicalWeight(acc))
    return result


def is_grounded(auto: WeightedAutomaton, proof: Proof) -> bool:
    """True iff the value of every reachable final node/value state is
    ground at its node."""
    if auto.kind != "consequent":
        raise ValueError("groundedness applies to consequent automata")
    for state in auto.reachable_states():
        if state.kind != NODE_VALUE or not auto.is_final(state):
            continue
        if state.value not in proof.node(state.node).ground:
            return False
    return True


def ambiguity(auto: WeightedAutomaton) -> str:
    """Classify as ``unambiguous``, ``finite`` or ``infinite``.

    Both tests run on the trimmed automaton (useful states only).
    Infinite ambiguity is Weber and Seidl's IDA pattern: distinct states
    p, q and a word w with runs p -w-> p, p -w-> q and q -w-> q, so p and
    q lie on cycles.  In the triple product, reachable from the triples
    (p,p,q) with p and q on cycles, each (p,q,q) whose (p,p,q) was reached
    gets a back edge to it; the pattern holds iff some (p,q,q) shares a
    strongly connected component with its (p,p,q), since a cycle through
    several back edges composes into the pattern for one of its pairs
    (Allauzen, Mohri and Rastogi).  Their EDA pattern implies IDA on a
    trim automaton.  Ambiguity at all is decided on the squared product:
    some off-diagonal pair must be reachable from the doubled initial
    state and co-reachable from a pair of finals.
    """
    auto = auto.table()
    useful = auto.reachable_states() & auto.co_reachable_states()
    if auto.initial not in useful:
        return "unambiguous"
    out: dict[State, dict[Letter, list[State]]] = {}
    for (src, letter), targets in auto.transitions.items():
        kept = [dst for dst in targets if dst in useful]
        if src in useful and kept:
            out.setdefault(src, {})[letter] = kept

    def step(states):
        """Successors of a tuple of states reading one common letter."""
        first, *rest = (out.get(s, {}) for s in states)
        for letter, dsts in first.items():
            others = [r.get(letter) for r in rest]
            if all(others):
                yield from product(dsts, *others)

    # The IDA pattern needs p and q on cycles: start only from those.
    graph = {s: [d for dsts in out[s].values() for d in dsts if d in out] for s in out}
    cyclic = [s for comp in sccs(graph) for s in comp if len(comp) > 1 or s in graph[s]]
    starts = [(p, p, q) for p in cyclic for q in cyclic if p != q]
    edges = {t: list(step(t)) for t in closure(starts, step)}
    back = [
        ((p, q, q), (p, p, q))
        for p, q, r in edges
        if p != q and q == r and (p, p, q) in edges
    ]
    for t, u in back:
        edges[t].append(u)
    comp_of = {t: c for c, comp in enumerate(sccs(edges)) for t in comp}
    if any(comp_of[t] == comp_of[u] for t, u in back):
        return "infinite"

    forward = closure([(auto.initial, auto.initial)], step)
    pred: dict[tuple[State, State], list[tuple[State, State]]] = {}
    for pair in forward:
        for nxt in step(pair):
            pred.setdefault(nxt, []).append(pair)
    finals = [(x, y) for x, y in forward if x in auto.finals and y in auto.finals]
    backward = closure(finals, lambda pair: pred.get(pair, ()))
    if any(x != y for x, y in backward):
        return "finite"
    return "unambiguous"


def _dot_string(text) -> str:
    """A quoted DOT string: backslashes and double quotes are escaped."""
    return '"' + str(text).replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(auto: WeightedAutomaton) -> str:
    """Deterministic DOT rendering: states labelled by their tags,
    transitions by letter and weight."""
    auto = auto.table()
    lines = ["digraph {", "  rankdir=LR;"]
    ordered = sorted(auto.states)
    names = {state: f"q{i}" for i, state in enumerate(ordered)}
    lines.append('  __init [shape=point, label=""];')
    for state in ordered:
        shape = "doublecircle" if state in auto.finals else "circle"
        lines.append(f"  {names[state]} [shape={shape}, label={_dot_string(state)}];")
    lines.append(f"  __init -> {names[auto.initial]};")
    for src, letter, dst, weight in auto.transition_triples():
        label = _dot_string(f"{letter} / {weight}")
        lines.append(f"  {names[src]} -> {names[dst]} [label={label}];")
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


def _letter_to_json(letter: Letter) -> dict:
    if letter.is_node:
        return {"node": letter.node}
    return {"ants": list(letter.ants), "con": letter.con}


def _items_to_json(values) -> list:
    return [to_json(value) for value in values]


_TO_JSON = {
    Letter: _letter_to_json,
    Ordinal: str,
    TropicalWeight: str,
    tuple: _items_to_json,
    list: _items_to_json,
    dict: dict,
}


def to_json(value):
    """The JSON form of a report value: a dataclass as an object of its
    fields in declaration order, a tuple or list as a list, an ordinal or
    a tropical weight as its string, a letter as its letter object, a dict
    (a reason, built as JSON already) as a shallow copy, and anything else
    as itself."""
    render = _TO_JSON.get(type(value))
    if render is not None:
        return render(value)
    if hasattr(type(value), "__dataclass_fields__"):
        return {name: to_json(getattr(value, name)) for name in value.__dataclass_fields__}
    return value


def automaton_to_json(auto: WeightedAutomaton) -> str:
    auto = auto.table()
    ordered = sorted(auto.states)
    index = {state: i for i, state in enumerate(ordered)}
    doc = {
        "kind": auto.kind,
        "approx_level": auto.approx_level,
        "states": [_state_to_json(s) for s in ordered],
        "initial": index[auto.initial],
        "finals": sorted(index[s] for s in auto.finals),
        "alphabet": [_letter_to_json(l) for l in sorted(auto.alphabet)],
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


def _int_or_null(value) -> str | None:
    if value is not None and type(value) is not int:
        return "expected an integer or null"


_STATE = {
    "kind": str,
    "node": Optional(str),
    "value": Optional(str),
    "level": Optional(int),
}
_LETTER = {"node": Optional(str), "ants": Optional([str]), "con": Optional(str)}
_AUTOMATON = {
    "kind": str,
    "approx_level": Optional(_int_or_null),
    "states": [_STATE],
    "initial": int,
    "finals": [int],
    "alphabet": [_LETTER],
    "transitions": [{"src": int, "letter": _LETTER, "dst": int, "weight": object}],
}


def automaton_from_json(text: str | bytes) -> WeightedAutomaton:
    """Read an automaton written by :func:`automaton_to_json`.  Raises
    :class:`ProofParseError`, a ``ValueError``, with a JSON-path location
    on a malformed document."""
    doc = read_json(text)
    check_shape(doc, _AUTOMATON)
    states = []
    for i, raw in enumerate(doc["states"]):
        kind = raw["kind"]
        if kind not in KINDS:
            fail(f"unknown state kind {kind!r}", "states", i, "kind")
        node, value = raw.get("node", ""), raw.get("value", "")
        states.append(State(KINDS.index(kind), node, value, raw.get("level", 0)))

    def state_at(index: int, *path) -> State:
        if not 0 <= index < len(states):
            fail(f"state index {index} out of range for {len(states)} states", *path)
        return states[index]

    def letter_at(raw: dict, *path) -> Letter:
        if "node" in raw:
            if len(raw) > 1:
                fail("letter has both 'node' and 'ants'/'con'", *path)
            return Letter.node_ref(raw["node"])
        if len(raw) < 2:
            fail(f"missing key {min({'ants', 'con'} - raw.keys())!r}", *path)
        return Letter.value_pair(raw["ants"], raw["con"])

    transitions: dict[tuple[State, Letter], dict[State, Ordinal]] = {}
    for i, raw in enumerate(doc["transitions"]):
        src = state_at(raw["src"], "transitions", i, "src")
        dst = state_at(raw["dst"], "transitions", i, "dst")
        letter = letter_at(raw["letter"], "transitions", i, "letter")
        try:
            weight = Ordinal.parse(raw["weight"])
        except ValueError as exc:
            fail(str(exc), "transitions", i, "weight")
        targets = transitions.setdefault((src, letter), {})
        if dst in targets:
            fail(f"duplicate transition {src} -{letter}-> {dst}", "transitions", i)
        targets[dst] = weight
    return WeightedAutomaton(
        kind=doc["kind"],
        states=frozenset(states),
        initial=state_at(doc["initial"], "initial"),
        finals=frozenset(
            state_at(raw, "finals", i) for i, raw in enumerate(doc["finals"])
        ),
        transitions=transitions,
        alphabet=frozenset(
            letter_at(raw, "alphabet", i) for i, raw in enumerate(doc["alphabet"])
        ),
        approx_level=doc.get("approx_level"),
    )
