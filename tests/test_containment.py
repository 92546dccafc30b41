from __future__ import annotations

import dataclasses
import json
import logging
import random

import pytest

from cep.automata import (
    Letter,
    State,
    TracePairQuery,
    WeightedAutomaton,
    automaton_from_json,
    automaton_to_json,
    build_antecedent_approx,
    build_consequent,
    language_value,
    to_json,
)
from cep.containment import decide_containment, oracle_compare
from cep.decision import decide_order
from cep.ordinal import OMEGA, ONE, ZERO, Ordinal
from cep.proofgraph import parse_proof
from conftest import (
    bench_inputs,
    fixture_doc,
    gated_corpus,
    proof_from_doc,
    random_automaton_pair,
)

Q = TracePairQuery(node="n0", ant_value="a", con_value="c")


def N(node):
    return Letter.node_ref(node)


def automata_for(proof, n=6):
    return build_consequent(proof, Q), build_antecedent_approx(proof, Q, n)


class TestOracle:
    def test_loop2_nonstrict_no_counterexample(self, loop2):
        b, a = automata_for(loop2)
        verdict = oracle_compare(b, a, strict=False, length_bound=12)
        assert verdict.status == "UNKNOWN_BOUND"

    def test_loop2_strict_refuted(self, loop2):
        b, a = automata_for(loop2)
        verdict = oracle_compare(b, a, strict=True, length_bound=12)
        assert verdict.status == "REFUTED"
        assert verdict.counterexample == (N("n0"), N("n1"), N("n2"))
        assert str(verdict.lhs_value) == "1"
        assert str(verdict.rhs_value) == "1"

    def test_strict2_strict_no_counterexample(self, strict2):
        b, a = automata_for(strict2, n=9)
        verdict = oracle_compare(b, a, strict=True, length_bound=12)
        assert verdict.status == "UNKNOWN_BOUND"


class TestLagsetFixtures:
    def test_loop2_nonstrict_verified(self, loop2):
        b, a = automata_for(loop2)
        verdict = decide_containment(b, a, strict=False, lag_cap=64)
        assert verdict.status == "VERIFIED"

    def test_loop2_strict_refuted_same_word_as_oracle(self, loop2):
        b, a = automata_for(loop2)
        verdict = decide_containment(b, a, strict=True, lag_cap=64)
        oracle = oracle_compare(b, a, strict=True, length_bound=12)
        assert verdict.status == "REFUTED"
        assert verdict.counterexample == oracle.counterexample

    def test_strict2_strict_verified(self, strict2):
        b, a = automata_for(strict2, n=9)
        verdict = decide_containment(b, a, strict=True, lag_cap=64)
        assert verdict.status == "VERIFIED"

    def test_domain_gap_refuted(self):
        # Remove the ground flag so the consequent automaton accepts via
        # the pair letter, and drop the equation so the antecedent
        # automaton cannot follow: acceptance outside the second domain.
        doc = fixture_doc("loop2")
        doc["nodes"][2]["ground"] = []
        doc["nodes"][2]["equates"] = []
        proof = proof_from_doc(doc)
        b, a = automata_for(proof)
        verdict = decide_containment(b, a, strict=False, lag_cap=64)
        assert verdict.status == "REFUTED"
        assert not verdict.counterexample[-1].is_node
        assert language_value(a, verdict.counterexample).is_bot

    def test_witness_is_length_lex_least(self):
        # Three refuting words, inserted out of order: n1 n1 is longest,
        # n3 comes first in the table, n2 is the length-lex least.
        s0, mid, end = (State.node_value(n, "c") for n in ("n0", "n1", "n2"))
        b = WeightedAutomaton(
            kind="consequent",
            states=frozenset({s0, mid, end}),
            initial=s0,
            finals=frozenset({end}),
            transitions={
                (s0, N("n3")): {end: ONE},
                (s0, N("n1")): {mid: ONE},
                (mid, N("n1")): {end: ONE},
                (s0, N("n2")): {end: ONE},
            },
        )
        a = WeightedAutomaton(
            kind="antecedent_approx",
            states=frozenset({s0}),
            initial=s0,
            finals=frozenset(),
            transitions={},
        )
        verdict = decide_containment(b, a, strict=False, lag_cap=64)
        assert verdict.status == "REFUTED"
        assert verdict.counterexample == (N("n2"),)

    def test_rejects_bad_cap(self, loop2):
        b, a = automata_for(loop2)
        with pytest.raises(ValueError, match="lag cap"):
            decide_containment(b, a, strict=False, lag_cap=0)

    def test_rejects_infinite_weights(self):
        doc = fixture_doc("loop2")
        doc["delta"][1]["pairs"] = [["c", "c", "w"]]
        proof = proof_from_doc(doc)
        b, a = automata_for(proof)
        with pytest.raises(ValueError, match="finite weights"):
            decide_containment(b, a, strict=False, lag_cap=64)

    def test_infinite_weight_named_in_state_order(self):
        # After one p the configuration holds six states, each with a
        # different omega weight on p; the error names the least state's.
        states = [State.node_value("n", v) for v in "ixyzuvw"]
        p = Letter.node_ref("p")
        transitions = {(states[0], p): {s: ONE for s in states[1:]}}
        for k, s in enumerate(states[1:], start=1):
            transitions[(s, p)] = {states[0]: Ordinal.parse(f"w*{k}")}
        b = WeightedAutomaton(
            kind="consequent",
            states=frozenset(states),
            initial=states[0],
            finals=frozenset(states[:1]),
            transitions=transitions,
        )
        a = WeightedAutomaton(
            kind="antecedent_approx",
            states=frozenset(states[:1]),
            initial=states[0],
            finals=frozenset(states[:1]),
            transitions={},
        )
        # (n, u) is the least of the six and has weight w*4.
        with pytest.raises(ValueError, match=r"'b' has weight w\*4 on"):
            decide_containment(b, a, strict=False, lag_cap=4)

    def test_untaken_infinite_weight_ignored(self):
        # a has an omega transition out of its initial state on a letter
        # that b never reads, so no configuration takes it.
        s0, s1 = State.node_value("n0", "c"), State.node_value("n1", "c")
        t0, t1 = State.node_value("n0", "a"), State.node_value("n1", "a")
        b = WeightedAutomaton(
            kind="consequent",
            states=frozenset({s0, s1}),
            initial=s0,
            finals=frozenset({s1}),
            transitions={(s0, N("n1")): {s1: ZERO}},
        )
        a = WeightedAutomaton(
            kind="antecedent_approx",
            states=frozenset({t0, t1}),
            initial=t0,
            finals=frozenset({t1}),
            transitions={(t0, N("n1")): {t1: ONE}, (t0, N("n2")): {t1: OMEGA}},
        )
        for strict in (False, True):
            verdict = decide_containment(b, a, strict=strict, lag_cap=64)
            assert verdict.status == "VERIFIED"


class TestInvariants:
    def test_refuted_witness_revalidates(self, gated_instances):
        count = 0
        for proof, query in gated_instances:
            from cep.restrictions import compute_thresholds

            t = compute_thresholds(proof, query)
            b = build_consequent(proof, query)
            a = build_antecedent_approx(proof, query, t.n_bound)
            for strict in (False, True):
                verdict = decide_containment(b, a, strict, lag_cap=64)
                if verdict.status != "REFUTED":
                    continue
                count += 1
                lhs = language_value(b, verdict.counterexample)
                rhs = language_value(a, verdict.counterexample)
                assert lhs == verdict.lhs_value and rhs == verdict.rhs_value
                assert not lhs.is_bot
                if strict:
                    assert not lhs < rhs
                else:
                    assert not lhs <= rhs
        assert count > 0

    def test_lagset_vs_oracle_cross_validation(self, gated_instances):
        from cep.restrictions import compute_thresholds

        for proof, query in gated_instances:
            t = compute_thresholds(proof, query)
            b = build_consequent(proof, query)
            a = build_antecedent_approx(proof, query, t.n_bound)
            for strict in (False, True):
                lag = decide_containment(b, a, strict, lag_cap=64)
                oracle = oracle_compare(b, a, strict, length_bound=12)
                if lag.status == "VERIFIED":
                    assert oracle.status == "UNKNOWN_BOUND"
                elif lag.status == "REFUTED":
                    if oracle.status == "REFUTED":
                        assert oracle.counterexample is not None
                    else:
                        # The engine's witness lies beyond the oracle's
                        # bound; re-run the oracle far enough to confirm.
                        deep = oracle_compare(
                            b, a, strict,
                            length_bound=len(lag.counterexample),
                        )
                        assert deep.status == "REFUTED"

    def test_transition_order_invariance(self, gated_instances):
        from cep.restrictions import compute_thresholds

        def shuffled(auto, rng):
            auto = auto.table()
            items = list(auto.transitions.items())
            rng.shuffle(items)
            transitions = {}
            for key, targets in items:
                inner = list(targets.items())
                rng.shuffle(inner)
                transitions[key] = dict(inner)
            return dataclasses.replace(auto, transitions=transitions)

        for i, (proof, query) in enumerate(gated_instances[:60]):
            t = compute_thresholds(proof, query)
            b = build_consequent(proof, query)
            a = build_antecedent_approx(proof, query, t.n_bound)
            rng = random.Random(i)
            b2, a2 = shuffled(b, rng), shuffled(a, rng)
            for strict in (False, True):
                assert decide_containment(b, a, strict, lag_cap=64) == (
                    decide_containment(b2, a2, strict, lag_cap=64)
                )

    def test_chain_rule_decides_as_written_out_table(self, gated_instances):
        # The approximate antecedent as built (chains as a rule), written
        # out by table(), and read back from its JSON file decide alike.
        from cep.restrictions import compute_thresholds

        ring = parse_proof(json.dumps(bench_inputs().ring_doc(12, 2)))
        ring_query = TracePairQuery("n0", "a0", "c0")
        cases = [(ring, ring_query, 8)] + [
            (proof, query, compute_thresholds(proof, query).n_bound)
            for proof, query in gated_instances[:60]
        ]
        for proof, query, n in cases:
            b = build_consequent(proof, query)
            a = build_antecedent_approx(proof, query, n)
            forms = (a, a.table(), automaton_from_json(automaton_to_json(a)))
            for strict in (False, True):
                for decide in (
                    lambda x: decide_containment(b, x, strict),
                    lambda x: oracle_compare(b, x, strict, length_bound=5),
                ):
                    first, *rest = (to_json(decide(x)) for x in forms)
                    assert all(other == first for other in rest)

    def test_witness_is_oracle_least_on_larger_proofs(self):
        # Up to 8 nodes: unlike the 4-node gated corpus, these instances
        # have a witness that moves when the engine reads its letters in
        # reverse or in set order.
        from cep.restrictions import compute_thresholds

        refuted = 0
        for proof, query in gated_corpus(60, 20_000, max_nodes=8):
            t = compute_thresholds(proof, query)
            b = build_consequent(proof, query)
            a = build_antecedent_approx(proof, query, t.n_bound)
            for strict in (False, True):
                lag = decide_containment(b, a, strict, lag_cap=64)
                if lag.status != "REFUTED":
                    continue
                refuted += 1
                oracle = oracle_compare(
                    b, a, strict, length_bound=len(lag.counterexample)
                )
                assert oracle.counterexample == lag.counterexample
        assert refuted > 0


def least_witness(b, a, strict, verdict):
    """The oracle's length-lex least counterexample up to the length of
    the verdict's witness."""
    bound = len(verdict.counterexample)
    return oracle_compare(b, a, strict, length_bound=bound).counterexample


class TestCapDeepening:
    def test_random_pairs_agree_with_oracle(self):
        seen = set()
        for ceiling in (8, 64):
            for seed in range(1500):
                b, a = random_automaton_pair(seed)
                for strict in (False, True):
                    verdict = decide_containment(b, a, strict, lag_cap=ceiling)
                    clamped = verdict.parameters["clamped"]
                    seen.add((verdict.status, clamped))
                    where = (ceiling, seed, strict)
                    if verdict.status == "VERIFIED":
                        oracle = oracle_compare(b, a, strict, length_bound=8)
                        assert oracle.counterexample is None, where
                    elif verdict.status == "REFUTED" and not clamped:
                        assert verdict.counterexample == least_witness(
                            b, a, strict, verdict
                        ), where
        assert {("VERIFIED", False), ("VERIFIED", True), ("REFUTED", False)} <= seen

    @pytest.mark.parametrize("seed", [2051, 2145, 2349, 2995])
    def test_clamped_refutation_deepens_to_least_witness(self, seed):
        b, a = random_automaton_pair(seed)
        moved = False
        for strict in (False, True):
            verdict = decide_containment(b, a, strict, lag_cap=8)
            assert verdict.status == "REFUTED"
            assert not verdict.parameters["clamped"]
            least = least_witness(b, a, strict, verdict)
            assert verdict.counterexample == least
            for ceiling in (1, 2):
                low = decide_containment(b, a, strict, lag_cap=ceiling)
                if low.status == "REFUTED" and low.counterexample != least:
                    assert low.parameters["clamped"]
                    moved = True
        # Without deepening, a clamp at cap 1 or 2 hides the least witness.
        # On 2051 caps 1 and 2 end UNKNOWN_SATURATED in ``<=``, and in
        # ``<`` cap 2 already finds the least witness.
        assert moved == (seed != 2051)

    def test_ceiling_keeps_clamped_witness(self):
        b, a = random_automaton_pair(2145)
        verdict = decide_containment(b, a, strict=False, lag_cap=1)
        assert verdict.status == "REFUTED"
        assert [l.node for l in verdict.counterexample] == list("qqpq")
        assert verdict.parameters == {"lag_cap": 1, "caps": [1], "clamped": True}
        deep = decide_containment(b, a, strict=False, lag_cap=8)
        assert [l.node for l in deep.counterexample] == list("qqq")

    @pytest.mark.parametrize(
        "ceiling, caps",
        [(8, [1, 2, 4, 8]), (5, [1, 2, 4, 5]), (64, [1, 2, 4, 8, 16, 32, 64])],
    )
    def test_unknown_saturated_at_ceiling(self, ceiling, caps):
        b, a = random_automaton_pair(845)
        verdict = decide_containment(b, a, strict=False, lag_cap=ceiling)
        assert verdict.status == "UNKNOWN_SATURATED"
        assert verdict.counterexample is None
        assert verdict.parameters == {
            "lag_cap": ceiling, "caps": caps, "clamped": True
        }


def closure_records(caplog) -> list[tuple]:
    """``(configurations, clamped, unverified, dominated)`` of every closed
    lag-set exploration logged so far: the kept configurations, whether a
    kept step clamped, whether a violation failed revalidation, and the
    steps dropped because a kept configuration dominates them."""
    return [r.args for r in caplog.records if r.msg.startswith("lagset closure")]


RING_QUERY = TracePairQuery(node="n0", ant_value="a0", con_value="c0")


class TestClosureRecord:
    """The DEBUG record that closes an exploration is the benchmark's
    ``containment.configurations`` counter; its values are pinned here."""

    @pytest.mark.parametrize(
        "doc, query, lag_cap, stricts, record",
        [
            (lambda: fixture_doc("loop2"), Q, 64, (False,), (4, False, False, 1)),
            (lambda: fixture_doc("strict2"), Q, 64, (False, True), (4, False, False, 1)),
            (lambda: bench_inputs().ring_doc(3, 1), RING_QUERY, 64, (False, True),
             (5, False, False, 1)),
            (lambda: bench_inputs().ring_doc(12, 2), RING_QUERY, 8, (False, True),
             (14, False, False, 1)),
        ],
        ids=["loop2", "strict2", "ring3_1", "ring12_2"],
    )
    def test_order_logs_one_closure(self, caplog, doc, query, lag_cap, stricts, record):
        caplog.set_level(logging.DEBUG, logger="cep.containment")
        proof = proof_from_doc(doc())
        for strict in stricts:
            caplog.clear()
            verdict = decide_order(proof, query, strict=strict, lag_cap=lag_cap)
            assert verdict.status == "HOLDS"
            assert closure_records(caplog) == [record]

    def test_each_deepened_cap_logs_its_closure(self, caplog):
        # Each cap keeps only configurations no kept one dominates, so the
        # deepening to the default ceiling stays in the hundreds.
        caplog.set_level(logging.DEBUG, logger="cep.containment")
        b, a = random_automaton_pair(845)
        verdict = decide_containment(b, a, strict=False, lag_cap=64)
        assert verdict.status == "UNKNOWN_SATURATED"
        assert closure_records(caplog) == [
            (5, True, True, 2), (13, True, True, 8), (21, True, True, 18),
            (32, True, True, 30), (63, True, True, 59), (123, True, True, 113),
            (240, True, True, 220),
        ]

    def test_refutation_logs_no_closure(self, caplog):
        caplog.set_level(logging.DEBUG, logger="cep.containment")
        b, a = random_automaton_pair(2051)
        verdict = decide_containment(b, a, strict=False, lag_cap=8)
        # Caps 1 and 2 close; cap 4 ends in a clamped refutation, cap 8 in
        # an unclamped one, and neither of those logs a closure.
        assert closure_records(caplog) == [(3, True, True, 3), (5, True, True, 5)]
        assert verdict.status == "REFUTED"
        assert verdict.parameters == {"lag_cap": 8, "caps": [1, 2, 4, 8], "clamped": False}
        assert [l.node for l in verdict.counterexample] == list("pppp")
