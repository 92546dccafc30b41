"""Quantitative language containment between tropical automata with
finite weights: is every accepted word of the first automaton valued at
most (or strictly below) its value in the second?

Two engines are provided.

``oracle_compare`` enumerates every word of the first automaton's domain
up to a length bound in length-lexicographic order and compares exact
language values; it can refute but never verify.

``decide_containment`` explores weight profiles: a configuration maps the
live states of both automata to run weights relative to the maximum
weight over the first automaton's entries.  Within a configuration only
relative weights matter for the comparison, so the search space is
finite once relative weights are confined to a window.  Out-of-window
entries are adjusted in the direction that can only create spurious
violations, never hide real ones: lagging entries of the first automaton
are lifted to the window floor, leading entries of the second are capped,
lagging ones dropped.  A closed exploration without violations is
therefore a sound VERIFIED.  Violations found under clamping are
revalidated against exact language values; a violation that fails
revalidation downgrades the outcome to UNKNOWN_SATURATED instead of
guessing."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .automata import Letter, State, WeightedAutomaton, _letter_to_json, language_value
from .ordinal import TropicalWeight

log = logging.getLogger("cep.containment")

__all__ = [
    "ContainmentVerdict",
    "oracle_compare",
    "decide_containment",
]

B, A = "b", "a"


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
    """Bounded reference check: walk the domain of ``b`` word by word and
    compare exact language values.  Returns the length-lex least
    counterexample, or UNKNOWN_BOUND when none exists up to the bound."""
    params = {"length_bound": length_bound}

    def check(word):
        bad, lhs, rhs = _true_violation(b, a, word, strict)
        if bad:
            return ContainmentVerdict(
                status="REFUTED",
                strict=strict,
                engine="oracle",
                parameters=params,
                counterexample=tuple(word),
                lhs_value=lhs,
                rhs_value=rhs,
            )
        return None

    found = check(())
    if found:
        return found
    letters_of: dict[State, list[Letter]] = {}
    for (src, letter) in b.transitions:
        letters_of.setdefault(src, []).append(letter)
    frontier = [((), {b.initial}, {a.initial})]
    for _length in range(length_bound):
        nxt = []
        for word, b_states, a_states in frontier:
            letters = sorted(
                {
                    letter
                    for state in b_states
                    for letter in letters_of.get(state, ())
                },
                key=Letter.sort_key,
            )
            for letter in letters:
                nb = {
                    dst
                    for state in b_states
                    for dst in b.transitions.get((state, letter), ())
                }
                if not nb:
                    continue
                na = {
                    dst
                    for state in a_states
                    for dst in a.transitions.get((state, letter), ())
                }
                extended = word + (letter,)
                found = check(extended)
                if found:
                    return found
                nxt.append((extended, nb, na))
        frontier = nxt
    return ContainmentVerdict(
        status="UNKNOWN_BOUND",
        strict=strict,
        engine="oracle",
        parameters=params,
    )


def _int_transitions(auto: WeightedAutomaton, tag: str):
    out: dict[tuple[State, Letter], list[tuple[State, int]]] = {}
    for (src, letter), targets in auto.transitions.items():
        entry = []
        for dst, weight in targets.items():
            if not weight.is_finite():
                raise ValueError(
                    f"containment engine requires finite weights; automaton "
                    f"{tag!r} has weight {weight} on a transition"
                )
            entry.append((dst, weight.to_int()))
        entry.sort(key=lambda item: item[0].sort_key())
        out[(src, letter)] = entry
    return out


def decide_containment(
    b: WeightedAutomaton,
    a: WeightedAutomaton,
    strict: bool,
    lag_cap: int = 64,
    _reverse_letters: bool = False,
) -> ContainmentVerdict:
    """Lag-profile exploration of the joint weight configurations.

    ``_reverse_letters`` only perturbs the exploration order inside a
    level; the verdict and witness must not depend on it."""
    if lag_cap < 1:
        raise ValueError("lag cap must be positive")
    params = {"lag_cap": lag_cap}
    trans = {B: _int_transitions(b, B), A: _int_transitions(a, A)}
    finals = {B: b.finals, A: a.finals}
    b_letters: dict[State, list[Letter]] = {}
    for (src, letter) in trans[B]:
        b_letters.setdefault(src, []).append(letter)

    def violates(entries) -> bool:
        vb = None
        va = None
        for (tag, state), rel in entries.items():
            if state in finals[tag]:
                if tag == B:
                    vb = rel if vb is None else max(vb, rel)
                else:
                    va = rel if va is None else max(va, rel)
        if vb is None:
            return False
        if va is None:
            return True
        return vb >= va if strict else vb > va

    def canonical(entries):
        return tuple(
            (tag, state, rel)
            for (tag, state), rel in sorted(
                entries.items(), key=lambda kv: (kv[0][0], kv[0][1].sort_key(), kv[1])
            )
        )

    def successor(entries, letter):
        """One letter step with per-state maxima, renormalisation against
        the b-side maximum, and window clamping; returns (entries,
        clamped?) or None when the b side dies."""
        nxt: dict[tuple[str, State], int] = {}
        for (tag, state), rel in entries.items():
            for dst, weight in trans[tag].get((state, letter), ()):
                key = (tag, dst)
                candidate = rel + weight
                if key not in nxt or nxt[key] < candidate:
                    nxt[key] = candidate
        b_max = None
        for (tag, _state), rel in nxt.items():
            if tag == B:
                b_max = rel if b_max is None else max(b_max, rel)
        if b_max is None:
            return None
        clamped = False
        out: dict[tuple[str, State], int] = {}
        for key, rel in nxt.items():
            rel -= b_max
            if key[0] == B:
                if rel < -lag_cap:
                    rel = -lag_cap
                    clamped = True
            else:
                if rel > lag_cap:
                    rel = lag_cap
                    clamped = True
                elif rel < -lag_cap:
                    clamped = True
                    continue
            out[key] = rel
        return out, clamped

    initial = {(B, b.initial): 0, (A, a.initial): 0}
    init_key = canonical(initial)
    # parents: config key -> (parent key | None, letter | None); the word
    # sort key is cached so level ordering does not re-walk the links.
    parents: dict[tuple, tuple] = {init_key: (None, None)}
    word_keys: dict[tuple, tuple] = {init_key: ()}
    entries_of = {init_key: initial}

    def word_of(key) -> tuple[Letter, ...]:
        letters = []
        while True:
            parent, letter = parents[key]
            if parent is None:
                break
            letters.append(letter)
            key = parent
        return tuple(reversed(letters))

    any_clamp = False
    unverified_violation = False

    def handle_violation(key):
        nonlocal unverified_violation
        word = word_of(key)
        bad, lhs, rhs = _true_violation(b, a, word, strict)
        if bad:
            return ContainmentVerdict(
                status="REFUTED",
                strict=strict,
                engine="lagset",
                parameters=params,
                counterexample=word,
                lhs_value=lhs,
                rhs_value=rhs,
            )
        unverified_violation = True
        return None

    if violates(initial):
        found = handle_violation(init_key)
        if found:
            return found

    level = [init_key]
    while level:
        discovered: dict[tuple, tuple[tuple, Letter, dict]] = {}
        for key in level:
            entries = entries_of[key]
            letters = sorted(
                {
                    letter
                    for (tag, state) in entries
                    if tag == B
                    for letter in b_letters.get(state, ())
                },
                key=Letter.sort_key,
                reverse=_reverse_letters,
            )
            for letter in letters:
                stepped = successor(entries, letter)
                if stepped is None:
                    continue
                nxt, clamped = stepped
                any_clamp = any_clamp or clamped
                nxt_key = canonical(nxt)
                if nxt_key in parents:
                    continue
                new_word_key = word_keys[key] + (letter.sort_key(),)
                if nxt_key in discovered:
                    # Keep the lexicographically least discovery word
                    # within the level.
                    if new_word_key < discovered[nxt_key][3]:
                        discovered[nxt_key] = (key, letter, nxt, new_word_key)
                else:
                    discovered[nxt_key] = (key, letter, nxt, new_word_key)
        violating = []
        for nxt_key, (parent_key, letter, nxt, word_key) in discovered.items():
            parents[nxt_key] = (parent_key, letter)
            word_keys[nxt_key] = word_key
            entries_of[nxt_key] = nxt
            if violates(nxt):
                violating.append(nxt_key)
        violating.sort(key=word_keys.__getitem__)
        for key in violating:
            found = handle_violation(key)
            if found:
                return found
        level = sorted(discovered, key=word_keys.__getitem__)

    log.debug(
        "lagset closure: %d configurations, clamped=%s, unverified=%s",
        len(parents),
        any_clamp,
        unverified_violation,
    )
    outcome_params = dict(params)
    outcome_params["clamped"] = any_clamp
    if unverified_violation:
        return ContainmentVerdict(
            status="UNKNOWN_SATURATED",
            strict=strict,
            engine="lagset",
            parameters=outcome_params,
        )
    return ContainmentVerdict(
        status="VERIFIED", strict=strict, engine="lagset", parameters=outcome_params
    )
