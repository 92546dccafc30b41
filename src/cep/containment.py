"""Quantitative language containment between tropical automata with
finite weights: is every accepted word of the first automaton valued at
most (or strictly below) its value in the second?

Two engines are provided.

``oracle_compare`` enumerates every word of the first automaton's domain
up to a length bound in length-lexicographic order and compares exact
language values; it can refute but never verify.

``decide_containment`` explores weight profiles: a configuration holds
the live states of both automata with their integer run weights relative
to the maximum weight over the first automaton's entries, as one pair of
frozensets of ``(state, weight)`` that is at once the search vertex, its
key and the input of the next step.  It steps each automaton through
``targets`` and ``is_final``, so an approximate antecedent's sink chains
are read only where a run reaches them, and it checks finiteness only on
the transitions the search takes, since a transition never taken affects
no configuration.  Within a configuration only relative weights matter for the comparison,
so the search space is finite once relative weights are confined to a
window.  Out-of-window entries are adjusted in the direction that can
only create spurious violations, never hide real ones: lagging entries
of the first automaton are lifted to the window floor, leading entries
of the second are capped, lagging ones dropped.  A closed exploration
without violations is therefore a sound VERIFIED.  The exploration walks
:func:`cep.traces.bfs` and reads letters in order, so configurations are
reached in length-lex order of their words and each is reached first by
its least word.  A violating configuration is revalidated against exact
language values as soon as it is reached, on its word read back off the
search tree with :func:`cep.traces.tree_path`; a violation that fails
revalidation makes the outcome UNKNOWN_SATURATED instead of a guess.

Configurations are pruned by an antichain (De Wulf, Doyen, Henzinger and
Raskin, CAV 2006; Chatterjee, Doyen and Henzinger, ACM TOCL 2010).  In
the frame where the maximum ``b`` weight is 0, ``X = (Xb, Xa)``
dominates ``Y`` when every ``(s, w)`` of ``Yb`` has an ``(s, w')`` in
``Xb`` with ``w' >= w`` and every ``(s, w)`` of ``Xa`` has an
``(s, w')`` in ``Ya`` with ``w' >= w``: ``X`` is at least as close to a
violation, and violates whenever ``Y`` does.  A newly reached
configuration that a recorded one dominates is neither recorded nor
expanded.  This keeps a closed, violation-free exploration a sound
VERIFIED: a max-plus letter step keeps domination up to the shift that
renormalisation applies, a shift does not change whether a configuration
violates, and every clamp moves a configuration up the order, so along
any word that truly violates some recorded configuration dominates a
shift of the exact one and violates too.  It keeps the least witness:
the dominating configuration was reached first, by a word length-lex
smaller or equal, so up to the first clamp the first violation found is
still reached by the least violating word.  A step counts as clamped
only when it is kept, so while no kept step has clamped every recorded
configuration is exact.

The window cap is deepened: the exploration runs at caps 1, 2, 4, ...,
the last one cut to the ceiling ``lag_cap``, and stops at the first run
whose outcome a larger cap cannot change.  VERIFIED is final at any cap.
A REFUTED reached before any clamp is final too: up to the first clamp
the exploration is exactly the one every larger cap makes, so its
witness is the length-lex least.  A clamp merges configurations, so a
REFUTED after one may carry a longer or later witness that hides the
least one; it is run again at twice the cap, as is UNKNOWN_SATURATED.
The run at the ceiling stands as it is, and its ``clamped: true`` says
when its witness may not be the least.

Each closed exploration logs one DEBUG record, ``lagset closure``, whose
arguments are the kept configurations, whether a kept step clamped,
whether a violation failed revalidation, and the steps dropped as
dominated."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .automata import Letter, State, WeightedAutomaton, _letter_to_json, language_value
from .ordinal import TropicalWeight
from .traces import bfs, tree_path

log = logging.getLogger("cep.containment")

__all__ = [
    "ContainmentVerdict",
    "oracle_compare",
    "decide_containment",
]

@dataclass(frozen=True)
class ContainmentVerdict:
    status: str  # VERIFIED | REFUTED | UNKNOWN_SATURATED | UNKNOWN_BOUND
    strict: bool
    engine: str
    parameters: dict = field(default_factory=dict)
    counterexample: tuple[Letter, ...] | None = None
    lhs_value: TropicalWeight | None = None
    rhs_value: TropicalWeight | None = None

    def to_json(self) -> dict:
        word = None
        if self.counterexample is not None:
            word = [_letter_to_json(l) for l in self.counterexample]
        return {
            "status": self.status,
            "strict": self.strict,
            "engine": self.engine,
            "parameters": self.parameters,
            "counterexample": word,
            "lhs_value": None if self.lhs_value is None else str(self.lhs_value),
            "rhs_value": None if self.rhs_value is None else str(self.rhs_value),
        }


def _true_violation(
    b: WeightedAutomaton, a: WeightedAutomaton, word, strict: bool
) -> tuple[bool, TropicalWeight, TropicalWeight]:
    lhs = language_value(b, word)
    rhs = language_value(a, word)
    if lhs.is_bot:
        return False, lhs, rhs
    return (lhs >= rhs) if strict else (lhs > rhs), lhs, rhs


def oracle_compare(
    b: WeightedAutomaton,
    a: WeightedAutomaton,
    strict: bool,
    length_bound: int,
) -> ContainmentVerdict:
    """Bounded reference check: walk the domain of ``b`` word by word, in
    the length-lex order of :func:`cep.traces.bfs` over ``(word, b-states)``
    vertices, and compare exact language values.  Returns the length-lex
    least counterexample, or UNKNOWN_BOUND when none exists up to the
    bound."""
    if length_bound < 0:
        raise ValueError("length bound must be non-negative")
    letters_of: dict[State, list[Letter]] = {}
    for (src, letter) in b.table().transitions:
        letters_of.setdefault(src, []).append(letter)

    def successors(vertex):
        """The one-letter extensions of a word on which ``b`` has a run,
        letters in order; none at the length bound."""
        word, b_states = vertex
        if len(word) == length_bound:
            return
        letters = {letter for state in b_states for letter in letters_of.get(state, ())}
        for letter in sorted(letters):
            nb = frozenset(dst for state in b_states for dst in b.targets(state, letter))
            if nb:
                yield (word + (letter,), nb), letter

    params = {"length_bound": length_bound}
    for word, _b_states in bfs([((), frozenset([b.initial]))], successors, {}):
        bad, lhs, rhs = _true_violation(b, a, word, strict)
        if bad:
            return ContainmentVerdict(
                status="REFUTED",
                strict=strict,
                engine="oracle",
                parameters=params,
                counterexample=word,
                lhs_value=lhs,
                rhs_value=rhs,
            )
    return ContainmentVerdict(
        status="UNKNOWN_BOUND",
        strict=strict,
        engine="oracle",
        parameters=params,
    )


def _step(
    auto: WeightedAutomaton, side: str, weights, letter: Letter
) -> dict[State, int]:
    """One letter step of one side from its ``(state, weight)`` pairs: the
    maximum weight reaching each state.  A weight becomes an integer when
    its transition is taken, so an infinite weight aborts the search only
    if some configuration uses it."""
    out: dict[State, int] = {}
    targets = auto.targets
    for state, rel in weights:
        for dst, weight in targets(state, letter).items():
            try:
                step = weight.to_int()
            except ValueError:
                # Name the first infinite weight in state order, not in
                # the hash order of the configuration's set.
                weight = next(
                    w
                    for s, _rel in sorted(weights)
                    for w in targets(s, letter).values()
                    if not w.is_finite()
                )
                raise ValueError(
                    f"containment engine requires finite weights; automaton "
                    f"{side!r} has weight {weight} on a transition"
                ) from None
            candidate = rel + step
            if dst not in out or out[dst] < candidate:
                out[dst] = candidate
    return out


def decide_containment(
    b: WeightedAutomaton,
    a: WeightedAutomaton,
    strict: bool,
    lag_cap: int = 64,
) -> ContainmentVerdict:
    """Lag-profile exploration at window caps 1, 2, 4, ... up to the
    ceiling ``lag_cap``.  A run's VERIFIED is final, and so is a REFUTED
    reached before any clamp; anything else is run again at twice the
    cap, and the run at the ceiling stands as it is."""
    if lag_cap < 1:
        raise ValueError("lag cap must be positive")
    letters = sorted({letter for _src, letter in b.table().transitions})
    caps: list[int] = []
    cap = 1
    while True:
        caps.append(cap)
        status, word, lhs, rhs, clamped = _explore(b, a, strict, cap, letters)
        final = status == "VERIFIED" or (status == "REFUTED" and not clamped)
        if final or cap == lag_cap:
            break
        cap = min(2 * cap, lag_cap)
    return ContainmentVerdict(
        status=status,
        strict=strict,
        engine="lagset",
        parameters={"lag_cap": lag_cap, "caps": caps, "clamped": clamped},
        counterexample=word,
        lhs_value=lhs,
        rhs_value=rhs,
    )


def _dominates(x, yb: dict[State, int], ya: dict[State, int]) -> bool:
    """Whether the recorded configuration ``x`` is at least as close to a
    violation as ``(yb, ya)``, both in the frame where the ``b`` maximum
    is 0: ``x`` covers every ``b`` entry of ``y`` with a weight as high,
    and ``y`` covers every ``a`` entry of ``x`` with a weight as high."""
    xb, xa = x
    return all(
        state in xb and xb[state] >= rel for state, rel in yb.items()
    ) and all(state in ya and ya[state] >= rel for state, rel in xa.items())


def _explore(
    b: WeightedAutomaton,
    a: WeightedAutomaton,
    strict: bool,
    lag_cap: int,
    letters: list[Letter],
) -> tuple:
    """One breadth-first exploration of the joint weight configurations
    at one window cap, in length-lexicographic order of their words.  A
    configuration is a pair of frozensets of ``(state, weight)``, one for
    ``b`` and one for ``a``.  A new configuration that a recorded one
    dominates is dropped.  Returns ``(status, word, lhs, rhs,
    clamped)``, where ``clamped`` says whether any kept step clamped
    before the outcome was reached."""
    clamped = False
    dropped = 0

    def violates(config) -> bool:
        bw, aw = config
        vb = max((rel for state, rel in bw if b.is_final(state)), default=None)
        if vb is None:
            return False
        va = max((rel for state, rel in aw if a.is_final(state)), default=None)
        if va is None:
            return True
        return vb >= va if strict else vb > va

    def successors(config):
        """Each letter's step with renormalisation against the b-side
        maximum and window clamping, skipping letters on which the b side
        dies and new configurations that a recorded one dominates.
        ``clamped`` is set before a step is yielded, so it covers every
        step taken, also one reaching a known configuration, and no
        dropped one."""
        nonlocal clamped, dropped
        bw, aw = config
        for letter in letters:
            nb = _step(b, "b", bw, letter)
            if not nb:
                continue
            b_max = max(nb.values())
            step_clamped = False
            for state, rel in nb.items():
                rel -= b_max
                if rel < -lag_cap:
                    rel = -lag_cap
                    step_clamped = True
                nb[state] = rel
            na = {}
            for state, rel in _step(a, "a", aw, letter).items():
                rel -= b_max
                if rel > lag_cap:
                    rel = lag_cap
                    step_clamped = True
                elif rel < -lag_cap:
                    step_clamped = True
                    continue
                na[state] = rel
            step = (frozenset(nb.items()), frozenset(na.items()))
            if step not in tree:
                if any(_dominates(x, nb, na) for x in recorded):
                    dropped += 1
                    continue
                recorded.append((nb, na))
            clamped = clamped or step_clamped
            yield step, letter

    tree: dict = {}
    recorded = [({b.initial: 0}, {a.initial: 0})]
    unverified_violation = False
    initial = (frozenset([(b.initial, 0)]), frozenset([(a.initial, 0)]))
    for config in bfs([initial], successors, tree):
        if not violates(config):
            continue
        word = tuple(letter for _config, letter in tree_path(tree, config)[1:])
        bad, lhs, rhs = _true_violation(b, a, word, strict)
        if bad:
            return "REFUTED", word, lhs, rhs, clamped
        unverified_violation = True

    log.debug(
        "lagset closure: %d configurations, clamped=%s, unverified=%s, "
        "%d dominated",
        len(tree),
        clamped,
        unverified_violation,
        dropped,
    )
    status = "UNKNOWN_SATURATED" if unverified_violation else "VERIFIED"
    return status, None, None, None, clamped
