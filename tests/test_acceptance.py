"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them)."""

from __future__ import annotations

import io
import json
import random
import time
from contextlib import redirect_stdout

import pytest

from cep.automata import (
    Letter,
    TracePairQuery,
    ambiguity,
    build_antecedent_approx,
    build_antecedent_full,
    build_consequent,
    language_value,
    run_values,
)
from cep.cli import run_cli
from cep.containment import decide_containment, oracle_compare
from cep.decision import decide_order, definition_oracle
from cep.ordinal import OMEGA, ONE, BOT, Ordinal, TropicalWeight, ord_add, trop_oplus, trop_otimes
from cep.proofgraph import LEFT, RIGHT
from cep.restrictions import compute_thresholds
from cep.soundness import check_global_soundness
from cep.traces import enumerate_right_maximal, prog_points
from conftest import all_paths, fixture_path, random_proof, traces_following

Q = TracePairQuery(node="n0", ant_value="a", con_value="c")


def report(number: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def plain_corpus():
    return [random_proof(40_000 + seed) for seed in range(100)]


@pytest.fixture(scope="module")
def injective_corpus():
    return [random_proof(41_000 + seed, injective=True) for seed in range(100)]


def test_criterion_1_fixture_verdicts(loop2, strict2, unsound1):
    timings = []

    def timed(fn):
        t0 = time.monotonic()
        result = fn()
        timings.append(time.monotonic() - t0)
        return result

    leq = timed(lambda: decide_order(loop2, Q, strict=False))
    lt = timed(lambda: decide_order(loop2, Q, strict=True))
    s2 = timed(lambda: decide_order(strict2, Q, strict=True))
    sound = timed(lambda: check_global_soundness(unsound1))
    ok = (
        leq.status == "HOLDS"
        and lt.status == "FAILS"
        and s2.status == "HOLDS"
        and not sound.sound
        and sound.witness is not None
        and sound.witness.cycle == ("n0", "n0")
        and all(t < 1.0 for t in timings)
    )
    report(
        1,
        ok,
        f"loop2 leq={leq.status} lt={lt.status}, strict2 lt={s2.status}, "
        f"unsound1={sound.verdict} (max {max(timings):.3f}s)",
    )


def test_criterion_2_ordinal_laws():
    rng = random.Random(42)

    def random_ordinal():
        terms = sorted(
            {rng.randint(0, 4): rng.randint(1, 5) for _ in range(rng.randint(0, 3))}.items(),
            reverse=True,
        )
        return Ordinal(tuple(terms))

    violations = 0
    for _ in range(500):
        a, b, c = random_ordinal(), random_ordinal(), random_ordinal()
        if ord_add(ord_add(a, b), c) != ord_add(a, ord_add(b, c)):
            violations += 1
        ta, tb, tc = (TropicalWeight(x) for x in (a, b, c))
        checks = [
            trop_oplus(ta, tb) == trop_oplus(tb, ta),
            trop_oplus(trop_oplus(ta, tb), tc) == trop_oplus(ta, trop_oplus(tb, tc)),
            trop_otimes(trop_otimes(ta, tb), tc) == trop_otimes(ta, trop_otimes(tb, tc)),
            trop_oplus(ta, BOT) == ta,
            trop_otimes(ta, BOT) == BOT,
            trop_otimes(BOT, ta) == BOT,
            trop_otimes(ta, trop_oplus(tb, tc))
            == trop_oplus(trop_otimes(ta, tb), trop_otimes(ta, tc)),
        ]
        violations += sum(1 for ok in checks if not ok)
    non_commutative = ord_add(ONE, OMEGA) != ord_add(OMEGA, ONE)
    otimes_example = trop_otimes(TropicalWeight(OMEGA), TropicalWeight(ONE)) == (
        TropicalWeight(OMEGA)
    )
    ok = violations == 0 and non_commutative and otimes_example
    report(2, ok, f"500 random triples, {violations} violations; (1, w) witnesses "
                  f"non-commutativity: {non_commutative}")


def _node_value_prefix(run):
    prefix = []
    for state in run[1:]:
        if state.kind == "node_value":
            prefix.append(state)
        else:
            break
    return prefix


def test_criterion_3_automata_faithfulness(plain_corpus):
    violations = 0
    words_checked = 0
    for proof in plain_corpus:
        query = TracePairQuery(proof.root, "a0", "c0")
        consequent = build_consequent(proof, query)
        antecedent = build_antecedent_full(proof, query)
        enumerated = {
            tuple(zip(*walk)): prog_points(proof, RIGHT, walk)
            for walk in enumerate_right_maximal(proof, query.node, query.con_value, 8)
        }
        for path_nodes in all_paths(proof, proof.root, 8):
            words_checked += 1
            word = [Letter.node_ref(n) for n in path_nodes]
            last = proof.node(path_nodes[-1])

            # Right side: accepting runs over the path word (and its
            # pair-letter extensions) must biject with the enumerated
            # positive maximal traces, values matching sizes exactly.
            words = [word]
            if last.axiomatic:
                for con in sorted(last.con_values):
                    words.append(
                        word
                        + [Letter.value_pair(proof.equated_ants(last.id, con), con)]
                    )
            seen_traces = set()
            for w in words:
                for run, value in run_values(consequent, w):
                    if value.is_bot:
                        continue
                    values = tuple(
                        s.value for s in run[1:] if s.kind == "node_value"
                    )
                    key = (path_nodes[: len(values)], values)
                    if key not in enumerated or value != TropicalWeight(
                        enumerated[key]
                    ):
                        violations += 1
                    else:
                        seen_traces.add(key)
            for (p_nodes, t_values), prog in enumerated.items():
                if p_nodes == path_nodes and (p_nodes, t_values) not in seen_traces:
                    violations += 1

            # Left side: every run is a node/value prefix then sinks; the
            # prefix is a trace with value >= its size, equal when the run
            # never enters the sink; every trace appears as some run.
            prefix_runs = {}
            for run, value in run_values(antecedent, word):
                prefix = _node_value_prefix(run)
                if any(
                    s.kind == "node_value"
                    for s in run[len(prefix) + 1 :]
                ):
                    violations += 1
                values = tuple(s.value for s in prefix)
                if values:
                    prefix_runs.setdefault(values, []).append((run, value))
            traces = traces_following(proof, path_nodes, LEFT, first_value="a0")
            for values in traces:
                prog = TropicalWeight(
                    prog_points(proof, LEFT, tuple(zip(path_nodes, values)))
                )
                if values not in prefix_runs:
                    violations += 1
                    continue
                if not any(prog <= v for _r, v in prefix_runs[values] if not v.is_bot):
                    violations += 1
                for run, value in prefix_runs[values]:
                    top_free = all(s.kind == "node_value" for s in run[1:])
                    if top_free and value != prog:
                        violations += 1
            for values in prefix_runs:
                if values not in traces:
                    violations += 1
    report(3, violations == 0, f"{words_checked} path words over 100 proofs, "
                               f"{violations} violations")


def test_criterion_4_approximation(plain_corpus):
    violations = 0
    runs_checked = 0
    for proof in plain_corpus:
        query = TracePairQuery(proof.root, "a0", "c0")
        full = build_antecedent_full(proof, query)
        approxes = {n: build_antecedent_approx(proof, query, n) for n in (1, 2, 3)}
        words = []
        for path_nodes in all_paths(proof, proof.root, 5):
            words.append([Letter.node_ref(n) for n in path_nodes])
            words.append(
                [Letter.node_ref(n) for n in path_nodes + (path_nodes[-1],) * 2]
            )
        for word in words:
            full_runs = set(run_values(full, word))
            # Each approximate run with its chain states collapsed to the
            # single full sink, computed once per (word, n).
            collapsed_runs = {
                n: [
                    (tuple(s if s.kind != "chain" else s.top() for s in run), value)
                    for run, value in run_values(approx, word)
                ]
                for n, approx in approxes.items()
            }
            for runs in collapsed_runs.values():
                for collapsed in runs:
                    runs_checked += 1
                    if collapsed not in full_runs:
                        violations += 1
            for run, value in full_runs:
                entry = next(
                    (i for i, s in enumerate(run) if s.kind == "top"), None
                )
                if entry is None:
                    k = 0
                else:
                    entry_letter = word[entry - 1]
                    k = sum(1 for l in word[entry - 1 :] if l == entry_letter)
                for n, runs in collapsed_runs.items():
                    if k <= n:
                        lifted = [v for r, v in runs if r == run]
                        if value not in lifted:
                            violations += 1
    report(4, violations == 0, f"{runs_checked} approximate runs collapsed/lifted, "
                               f"{violations} violations")


def test_criterion_5_ambiguity(ambig1, injective_corpus):
    full_class = ambiguity(build_antecedent_full(ambig1, Q))
    approx_classes = [
        ambiguity(build_antecedent_approx(ambig1, Q, n)) for n in (1, 2, 3)
    ]
    bound_violations = 0
    for proof in injective_corpus[:40]:
        query = TracePairQuery(proof.root, "a0", "c0")
        thresholds = compute_thresholds(proof, query)
        width = thresholds.trace_width
        approx = build_antecedent_approx(proof, query, 2)
        for path_nodes in all_paths(proof, proof.root, 6):
            word = [Letter.node_ref(n) for n in path_nodes]
            words = [word]
            last = proof.node(path_nodes[-1])
            if last.axiomatic:
                words += [
                    word + [Letter.value_pair(proof.equated_ants(last.id, con), con)]
                    for con in sorted(last.con_values)
                ]
            for w in words:
                bot_count = 0
                node_count = 0
                per_chain: dict = {}
                for run, _v in run_values(approx, w):
                    end = run[-1]
                    if end.kind == "bot":
                        bot_count += 1
                    elif end.kind == "node_value":
                        node_count += 1
                    elif end.kind == "chain":
                        per_chain[end] = per_chain.get(end, 0) + 1
                if bot_count > len(proof.nodes) * width:
                    bound_violations += 1
                if node_count > width:
                    bound_violations += 1
                if any(
                    c > thresholds.in_degree * width for c in per_chain.values()
                ):
                    bound_violations += 1
    ok = (
        full_class == "infinite"
        and all(c == "finite" for c in approx_classes)
        and bound_violations == 0
    )
    report(5, ok, f"ambig1 full={full_class}, approx={approx_classes}, "
                  f"run-count bound violations={bound_violations}")


def test_criterion_6_size_difference_bound(gated_instances):
    violations = 0
    pairs_checked = 0
    for proof, query in gated_instances[:100]:
        t = compute_thresholds(proof, query)
        bound = t.cycle_threshold * t.max_step.to_int()
        for path_nodes in all_paths(proof, proof.root, 10):
            progs = [
                prog_points(proof, LEFT, tuple(zip(path_nodes, v))).to_int()
                for v in traces_following(proof, path_nodes, LEFT, first_value="a0")
                if len(v) == len(path_nodes)
            ]
            for i, p1 in enumerate(progs):
                for p2 in progs[i + 1 :]:
                    pairs_checked += 1
                    if abs(p1 - p2) > bound:
                        violations += 1
    report(6, violations == 0, f"{pairs_checked} trace pairs on common paths, "
                               f"{violations} beyond the bound")


def test_criterion_7_decision_coherence(gated_instances):
    unknowns = 0
    decisions = 0
    disagreements = 0
    for proof, query in gated_instances[:100]:
        for strict in (False, True):
            decisions += 1
            verdict = decide_order(proof, query, strict=strict)
            if verdict.status == "UNKNOWN":
                unknowns += 1
                continue
            oracle = definition_oracle(proof, query, strict=strict, max_path_len=10)
            if verdict.status == "HOLDS" and not oracle.ok:
                disagreements += 1
            elif verdict.status == "FAILS" and oracle.ok:
                deeper = definition_oracle(
                    proof, query, strict=strict, max_path_len=16
                )
                if deeper.ok:
                    disagreements += 1
    rate = unknowns / decisions
    ok = disagreements == 0 and rate < 0.10
    report(7, ok, f"{decisions} decisions, {disagreements} disagreements with the "
                  f"bounded definition oracle, unknown rate {rate:.1%}")


def test_criterion_8_engine_cross_validation(gated_instances):
    contradictions = 0
    bad_witnesses = 0
    refuted = 0
    for proof, query in gated_instances[:200]:
        t = compute_thresholds(proof, query)
        b = build_consequent(proof, query)
        a = build_antecedent_approx(proof, query, t.n_bound)
        for strict in (False, True):
            lag = decide_containment(b, a, strict, lag_cap=64)
            oracle = oracle_compare(b, a, strict, length_bound=12)
            if lag.status == "VERIFIED" and oracle.status == "REFUTED":
                contradictions += 1
            if lag.status == "REFUTED":
                refuted += 1
                if oracle.status != "REFUTED":
                    deep = oracle_compare(
                        b, a, strict, length_bound=len(lag.counterexample)
                    )
                    if deep.status != "REFUTED":
                        contradictions += 1
                lhs = language_value(b, lag.counterexample)
                rhs = language_value(a, lag.counterexample)
                genuine = (not lhs.is_bot) and (
                    (lhs >= rhs) if strict else (lhs > rhs)
                )
                if not genuine:
                    bad_witnesses += 1
    ok = contradictions == 0 and bad_witnesses == 0
    report(8, ok, f"200 automata pairs x2 relations: {contradictions} engine/oracle "
                  f"contradictions, {bad_witnesses} bad witnesses, {refuted} refuted")


def test_criterion_9_cli_determinism():
    loop2 = str(fixture_path("loop2"))
    strict2 = str(fixture_path("strict2"))
    unsound1 = str(fixture_path("unsound1"))
    commands = [
        ["order", loop2, "--node", "n0", "--ant", "a", "--con", "c", "--json"],
        ["order", loop2, "--node", "n0", "--ant", "a", "--con", "c", "--strict", "--json"],
        ["order", strict2, "--node", "n0", "--ant", "a", "--con", "c", "--strict", "--json"],
        ["soundness", unsound1, "--json"],
        ["restrictions", loop2, "--node", "n0", "--ant", "a", "--con", "c", "--json"],
    ]

    def capture(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            run_cli(argv)
        return buf.getvalue()

    mismatches = 0
    for argv in commands:
        rerun = [capture(argv) for _ in range(2)]
        if rerun[0] != rerun[1]:
            mismatches += 1
        json.loads(rerun[0])
    report(9, mismatches == 0, f"{len(commands)} commands byte-identical across "
                               f"reruns; {mismatches} mismatches")
