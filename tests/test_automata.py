from __future__ import annotations

import re
from pathlib import Path as FilePath

import pytest

from cep.automata import (
    Letter,
    State,
    TracePairQuery,
    ambiguity,
    automaton_from_json,
    automaton_to_json,
    build_antecedent_approx,
    build_antecedent_full,
    build_consequent,
    export_dot,
    is_grounded,
    language_value,
    run_values,
)
from cep.ordinal import BOT, ZERO, TropicalWeight
from cep.traces import enumerate_right_maximal, prog_points
from conftest import (
    all_paths,
    fixture_doc,
    load_fixture,
    proof_from_doc,
    random_corpus,
    random_proof,
    traces_following,
)

GOLDENS = FilePath(__file__).parent / "goldens"

Q = TracePairQuery(node="n0", ant_value="a", con_value="c")


def N(node):
    return Letter.node_ref(node)


def word_letters(nodes):
    return [N(n) for n in nodes]


class TestBuildConsequent:
    def test_loop2_reachable_states(self, loop2):
        auto = build_consequent(loop2, Q)
        reach = auto.reachable_states()
        assert reach == frozenset(
            {
                State.start(),
                State.node_value("n0", "c"),
                State.node_value("n1", "c"),
                State.node_value("n2", "c"),
            }
        )
        assert State.node_value("n2", "c") in auto.finals
        assert not any(
            not letter.is_node for (_s, letter) in auto.transitions
        ), "no pair-letter edge expected: the axiom value is ground"

    def test_ground_removed_adds_bot_edge(self):
        doc = fixture_doc("loop2")
        doc["nodes"][2]["ground"] = []
        proof = proof_from_doc(doc)
        auto = build_consequent(proof, Q)
        src = State.node_value("n2", "c")
        letter = Letter.value_pair(("a",), "c")
        assert State.bot() in auto.transitions.get((src, letter), {})
        assert src not in auto.finals

    def test_unknown_query_value(self, loop2):
        with pytest.raises(ValueError, match="unknown consequent value"):
            build_consequent(loop2, TracePairQuery("n0", "a", "zz"))

    def test_weights_from_right_delta(self, loop2):
        auto = build_consequent(loop2, Q)
        src = State.node_value("n0", "c")
        targets = auto.transitions[(src, N("n1"))]
        assert str(targets[State.node_value("n1", "c")]) == "1"


class TestBuildAntecedentFull:
    def test_equates_bot_edge(self, loop2):
        auto = build_antecedent_full(loop2, Q)
        src = State.node_value("n2", "a")
        letter = Letter.value_pair(("a",), "c")
        assert State.bot() in auto.transitions[(src, letter)]

    def test_all_states_final_except_start(self, loop2):
        auto = build_antecedent_full(loop2, Q)
        reach = auto.reachable_states()
        assert len(auto.finals & reach) == len(reach) - 1
        assert auto.finals == auto.states - {State.start()}

    def test_top_and_node_runs_coexist(self, loop2):
        auto = build_antecedent_full(loop2, Q)
        ends = {run[-1] for run, _v in run_values(auto, word_letters(["n0", "n1", "n2"]))}
        assert State.top() in ends
        assert State.node_value("n2", "a") in ends


class TestBuildAntecedentApprox:
    def test_level_one_blocks_second_occurrence(self, loop2):
        auto = build_antecedent_approx(loop2, Q, 1)
        assert run_values(auto, word_letters(["n0", "n1", "n1"])) == []
        assert run_values(auto, word_letters(["n0", "n1"]))

    def test_level_two_counts_occurrences(self, loop2):
        auto = build_antecedent_approx(loop2, Q, 2)
        assert run_values(auto, word_letters(["n0", "n1", "n1"]))
        assert run_values(auto, word_letters(["n0", "n1", "n1", "n1"])) == []

    def test_rejects_zero(self, loop2):
        with pytest.raises(ValueError, match="at least 1"):
            build_antecedent_approx(loop2, Q, 0)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_kernel_coincides_with_full(self, loop2, n):
        full = build_antecedent_full(loop2, Q)
        approx = build_antecedent_approx(loop2, Q, n)
        core = {State.start().kind, State.node_value("x", "y").kind, State.bot().kind}

        def kernel(auto):
            return {
                (src, letter, dst, str(w))
                for src, letter, dst, w in auto.transition_triples()
                if src.kind in core and dst.kind in core
            }

        assert kernel(full) == kernel(approx)
        assert {s for s in full.states if s.kind in core} == {
            s for s in approx.states if s.kind in core
        }


def explicit_approx_transitions(proof, query, n):
    """The approximate antecedent's transitions written out in full: the
    full automaton's, with each jump into the sink sent to the chain of
    the node read instead, and every chain transition listed."""
    top = State.top()
    table = {}
    for (src, letter), targets in build_antecedent_full(proof, query).transitions.items():
        if src != top:
            table[(src, letter)] = {
                State.chain(letter.node, 1) if dst == top else dst: weight
                for dst, weight in targets.items()
            }
    for node_id in proof.nodes:
        for level in range(1, n + 1):
            chain = State.chain(node_id, level)
            for other in proof.nodes:
                if other != node_id:
                    table[(chain, N(other))] = {chain: ZERO}
            if level < n:
                table[(chain, N(node_id))] = {State.chain(node_id, level + 1): ZERO}
    return table


class TestSinkChainRule:
    """The sink chains of the approximate antecedent are a rule; the
    rule must answer exactly as the written-out table."""

    @pytest.fixture(scope="class")
    def instances(self):
        out = [(load_fixture(name), Q) for name in ("loop2", "strict2", "ambig1")]
        for proof in [load_fixture("unbalanced3")] + random_corpus(100, 9_000):
            out.append((proof, TracePairQuery(proof.root, "a0", "c0")))
        return out

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_full_table_matches_explicit_construction(self, instances, n):
        for proof, query in instances:
            auto = build_antecedent_approx(proof, query, n)
            table = auto.table()
            assert table.transitions == explicit_approx_transitions(proof, query, n)
            assert table.chains == 0 and table.approx_level == n
            assert table.table() is table

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_get_matches_full_table(self, instances, n):
        for proof, query in instances:
            auto = build_antecedent_approx(proof, query, n)
            written = auto.table()
            table = explicit_approx_transitions(proof, query, n)
            for state in written.states:
                assert auto.is_final(state) == (state in written.finals)
                for letter in auto.alphabet:
                    assert auto.targets(state, letter) == table.get((state, letter), {})

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_states_listed_as_before(self, instances, n):
        for proof, query in instances:
            table = build_antecedent_approx(proof, query, n).table()
            full = build_antecedent_full(proof, query)
            chains = {
                State.chain(m, level) for m in proof.nodes for level in range(1, n + 1)
            }
            expected = frozenset((full.states - {State.top()}) | chains)
            assert table.states == expected
            assert table.finals == expected - {State.start()}

    def test_foreign_chain_states_absent(self, loop2):
        auto = build_antecedent_approx(loop2, Q, 2)
        table = auto.table()
        for state in (
            State.chain("n1", 0),
            State.chain("n1", 3),
            State.chain("n9", 1),
            State(State.chain("n1", 1).rank, "n1", "a", 1),
        ):
            assert state not in table.states and not auto.is_final(state)
            for letter in auto.alphabet:
                assert auto.targets(state, letter) == {}
        chain = State.chain("n1", 1)
        assert auto.targets(chain, Letter.value_pair(["a"], "c")) == {}
        assert auto.targets(chain, Letter(False, "n0", ("a",))) == {}
        assert auto.targets(chain, N("n0")) == {chain: ZERO}


class TestRunSemantics:
    def test_empty_word_not_accepting(self, loop2):
        auto = build_consequent(loop2, Q)
        assert run_values(auto, []) == [((State.start(),), BOT)]
        assert language_value(auto, []) == BOT

    def test_loop2_full_run_value(self, loop2):
        auto = build_consequent(loop2, Q)
        word = word_letters(["n0", "n1", "n2"])
        accepting = [(r, v) for r, v in run_values(auto, word) if not v.is_bot]
        assert len(accepting) == 1
        assert str(accepting[0][1]) == "1"
        assert str(language_value(auto, word)) == "1"

    def test_unknown_letter_empty(self, loop2):
        auto = build_consequent(loop2, Q)
        assert run_values(auto, [N("phantom")]) == []
        assert language_value(auto, [N("phantom")]) == BOT

    def test_word_outside_domain_is_bot(self, loop2):
        auto = build_consequent(loop2, Q)
        assert language_value(auto, word_letters(["n1"])) == BOT

    @pytest.mark.parametrize("seed", range(10))
    def test_language_value_is_max_of_runs(self, seed):
        proof = random_proof(11_000 + seed)
        root = proof.root
        query = TracePairQuery(root, "a0", "c0")
        for build in (build_consequent, build_antecedent_full):
            auto = build(proof, query)
            for path_nodes in all_paths(proof, root, 5):
                word = word_letters(path_nodes)
                values = [v for _r, v in run_values(auto, word)]
                expected = BOT
                for v in values:
                    if expected < v:
                        expected = v
                assert language_value(auto, word) == expected


class TestGrounded:
    def test_loop2(self, loop2):
        assert is_grounded(build_consequent(loop2, Q), loop2)

    def test_reachable_non_ground_terminal(self):
        doc = fixture_doc("loop2")
        doc["nodes"][1]["children"] = ["n0", "n2", "n3"]
        doc["nodes"].append(
            {
                "id": "n3",
                "rule": "weaken",
                "axiom": False,
                "sequent": {"ant": "A", "con": "C"},
                "ant_values": ["a"],
                "con_values": ["c"],
                "children": ["n2"],
                "ground": [],
                "excluded": [],
                "equates": [],
            }
        )
        doc["delta"].append(
            {"from": "n1", "child_index": 2, "side": "right", "pairs": [["c", "c", "0"]]}
        )
        proof = proof_from_doc(doc)
        auto = build_consequent(proof, Q)
        state = State.node_value("n3", "c")
        assert state in auto.finals and state in auto.reachable_states()
        assert not is_grounded(auto, proof)

    def test_bot_only_finals_vacuous(self):
        doc = fixture_doc("loop2")
        doc["nodes"][2]["ground"] = []
        proof = proof_from_doc(doc)
        auto = build_consequent(proof, Q)
        reach_finals = auto.finals & auto.reachable_states()
        assert all(s.kind != "node_value" for s in reach_finals)
        assert is_grounded(auto, proof)

    def test_wrong_kind(self, loop2):
        with pytest.raises(ValueError, match="consequent"):
            is_grounded(build_antecedent_full(loop2, Q), loop2)


class TestAmbiguity:
    def test_ambig1_full_infinite(self, ambig1):
        assert ambiguity(build_antecedent_full(ambig1, Q)) == "infinite"

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_ambig1_approx_finite(self, ambig1, n):
        assert ambiguity(build_antecedent_approx(ambig1, Q, n)) == "finite"

    def test_consequent_unambiguous(self, loop2):
        assert ambiguity(build_consequent(loop2, Q)) == "unambiguous"

    def test_straight_line_unambiguous(self):
        doc = fixture_doc("loop2")
        doc["nodes"][1]["children"] = ["n2"]
        doc["delta"] = [
            e
            for e in doc["delta"]
            if not (e["from"] == "n1" and e["child_index"] == 0)
        ]
        for e in doc["delta"]:
            if e["from"] == "n1":
                e["child_index"] = 0
        proof = proof_from_doc(doc)
        assert ambiguity(build_consequent(proof, Q)) == "unambiguous"
        # The antecedent automaton is ambiguous even here: the jump into
        # the sink always duplicates an accepting run.
        assert ambiguity(build_antecedent_full(proof, Q)) == "finite"

    def test_class_counts_over_random_corpus(self):
        # Per-kind (unambiguous, finite, infinite) counts, which reach
        # the consequent automata classed finite or infinite and the
        # approximate automata classed infinite.
        counts = {}
        for proof in random_corpus(100, 9_000):
            query = TracePairQuery(proof.root, "a0", "c0")
            autos = {
                "consequent": build_consequent(proof, query),
                "full": build_antecedent_full(proof, query),
            }
            for n in (1, 2, 3):
                autos[f"approx{n}"] = build_antecedent_approx(proof, query, n)
            for kind, auto in autos.items():
                tally = counts.setdefault(kind, [0, 0, 0])
                tally[("unambiguous", "finite", "infinite").index(ambiguity(auto))] += 1
        assert counts == {
            "consequent": [92, 4, 4],
            "full": [37, 24, 39],
            "approx1": [37, 50, 13],
            "approx2": [37, 50, 13],
            "approx3": [37, 50, 13],
        }


class TestExportAndJson:
    def test_dot_golden(self, loop2):
        dot = export_dot(build_consequent(loop2, Q))
        golden = (GOLDENS / "loop2_consequent.dot").read_text()
        assert dot == golden

    def test_full_dot_golden(self, loop2):
        # Pins the order of the top state after the node/value states.
        dot = export_dot(build_antecedent_full(loop2, Q))
        golden = (GOLDENS / "loop2_full.dot").read_text()
        assert dot == golden

    def test_approx_json_golden(self, loop2):
        # Pins the order of chain states and of pair letters.
        text = automaton_to_json(build_antecedent_approx(loop2, Q, 2))
        golden = (GOLDENS / "loop2_approx2.json").read_text()
        assert text == golden

    def test_approx_dot_golden(self, ambig1):
        # Chains on every node letter of ambig1, written out in full.
        dot = export_dot(build_antecedent_approx(ambig1, Q, 3))
        golden = (GOLDENS / "ambig1_approx3.dot").read_text()
        assert dot == golden

    def test_dot_labels_escaped(self):
        # A node id with a double quote and a backslash in it.
        doc = fixture_doc("loop2")
        odd = 'n"1\\'
        doc["nodes"][1]["id"] = odd
        doc["nodes"][0]["children"] = [odd]
        for entry in doc["delta"]:
            if entry["from"] == "n1":
                entry["from"] = odd
        auto = build_consequent(proof_from_doc(doc), Q)
        quoted = r'"((?:[^"\\]|\\.)*)"'
        labels = []
        for line in export_dot(auto).splitlines():
            if "label=" in line:
                match = re.search(rf"label={quoted}\];$", line)
                assert match, line
                labels.append(re.sub(r"\\(.)", r"\1", match.group(1)))
        assert f"({odd},c)" in labels
        assert f"{odd} / 1" in labels

    def test_dot_deterministic(self, loop2):
        a = export_dot(build_antecedent_approx(loop2, Q, 2))
        b = export_dot(build_antecedent_approx(loop2, Q, 2))
        assert a == b

    def test_bot_weight_rendering(self):
        assert str(BOT) == "⊥"

    def test_json_round_trip(self, loop2):
        for build in (
            build_consequent,
            build_antecedent_full,
            lambda p, q: build_antecedent_approx(p, q, 3),
        ):
            auto = build(loop2, Q)
            again = automaton_from_json(automaton_to_json(auto))
            assert again == auto.table()
            assert automaton_to_json(again) == automaton_to_json(auto)


def node_value_prefix(run):
    prefix = []
    for state in run[1:]:
        if state.kind == "node_value":
            prefix.append(state)
        else:
            break
    return prefix


class TestFaithfulness:
    """Randomized checks that runs mirror traces exactly."""

    def corpus(self):
        for seed in range(25):
            proof = random_proof(12_000 + seed)
            yield proof, TracePairQuery(proof.root, "a0", "c0")

    def test_antecedent_run_decomposition(self):
        # Runs over path words are a node/value prefix followed by sinks.
        for proof, query in self.corpus():
            auto = build_antecedent_full(proof, query)
            for path_nodes in all_paths(proof, proof.root, 6):
                for run, _value in run_values(auto, word_letters(path_nodes)):
                    seen_top = False
                    for state in run[1:]:
                        if state.kind == "top":
                            seen_top = True
                        else:
                            assert not seen_top
                            assert state.kind == "node_value"

    def test_antecedent_trace_run_correspondence(self):
        for proof, query in self.corpus():
            auto = build_antecedent_full(proof, query)
            for path_nodes in all_paths(proof, proof.root, 6):
                word = word_letters(path_nodes)
                runs = run_values(auto, word)
                prefixes = {}
                for run, value in runs:
                    key = tuple(s.value for s in node_value_prefix(run))
                    if key:
                        prefixes.setdefault(key, []).append((run, value))
                traces = [
                    t
                    for t in traces_following(
                        proof, path_nodes, "left", first_value=query.ant_value
                    )
                ]
                # Every trace appears as the prefix of some run, with the
                # run value bounded below by the trace size; equality holds
                # for sink-free (full-length) runs.
                for values in traces:
                    assert values in prefixes
                    prog = prog_points(proof, "left", tuple(zip(path_nodes, values)))
                    run_vals = [v for _r, v in prefixes[values] if not v.is_bot]
                    assert any(TropicalWeight(prog) <= v for v in run_vals)
                    for run, value in prefixes[values]:
                        if len(run) - 1 == len(values) and all(
                            s.kind == "node_value" for s in run[1:]
                        ):
                            assert value == TropicalWeight(prog)
                # Conversely every run prefix is a trace.
                for key in prefixes:
                    assert key in traces

    def test_consequent_bijection_with_positive_maximal(self):
        for proof, query in self.corpus():
            auto = build_consequent(proof, query)
            enumerated = enumerate_right_maximal(
                proof, query.node, query.con_value, 6
            )
            # Direction 1: every positive maximal trace yields an accepting
            # run of equal value over its path word (possibly extended by
            # the pair letter when the trace ends non-ground at an axiom).
            for walk in enumerated:
                prog = prog_points(proof, "right", walk)
                path_nodes, values = zip(*walk)
                node = proof.node(path_nodes[-1])
                value = values[-1]
                word = word_letters(path_nodes)
                if node.axiomatic and value not in node.ground:
                    word = word + [
                        Letter.value_pair(
                            proof.equated_ants(node.id, value), value
                        )
                    ]
                accepting = [
                    (r, v) for r, v in run_values(auto, word) if not v.is_bot
                ]
                match = [
                    (r, v)
                    for r, v in accepting
                    if v == TropicalWeight(prog)
                    and [s.value for s in r[1:] if s.kind == "node_value"]
                    == list(values)
                ]
                assert match, walk
            # Direction 2: every accepting run over a path word (with an
            # optional pair-letter suffix) projects to an enumerated trace.
            expected = {
                tuple(zip(*walk)): prog_points(proof, "right", walk)
                for walk in enumerated
            }
            for path_nodes in all_paths(proof, proof.root, 6):
                words = [word_letters(path_nodes)]
                last = proof.node(path_nodes[-1])
                if last.axiomatic:
                    for con in sorted(last.con_values):
                        words.append(
                            word_letters(path_nodes)
                            + [
                                Letter.value_pair(
                                    proof.equated_ants(last.id, con), con
                                )
                            ]
                        )
                for word in words:
                    for run, value in run_values(auto, word):
                        if value.is_bot:
                            continue
                        values = tuple(
                            s.value for s in run[1:] if s.kind == "node_value"
                        )
                        key = (path_nodes[: len(values)], values)
                        assert key in expected
                        assert value == TropicalWeight(expected[key])


class TestApproximation:
    def corpus(self):
        for seed in range(20):
            proof = random_proof(13_000 + seed)
            yield proof, TracePairQuery(proof.root, "a0", "c0")

    @staticmethod
    def collapse(run):
        return tuple(
            State.top() if s.kind == "chain" else s for s in run
        )

    def words(self, proof):
        out = []
        for path_nodes in all_paths(proof, proof.root, 5):
            out.append(word_letters(path_nodes))
            # Repeat the last node a few times to exercise the chains.
            out.append(word_letters(path_nodes + (path_nodes[-1],) * 2))
        return out

    def test_collapse_preserves_runs_and_values(self):
        for proof, query in self.corpus():
            full = build_antecedent_full(proof, query)
            for n in (1, 2, 3):
                approx = build_antecedent_approx(proof, query, n)
                for word in self.words(proof):
                    full_runs = {
                        (r, v) for r, v in run_values(full, word)
                    }
                    for run, value in run_values(approx, word):
                        assert (self.collapse(run), value) in full_runs

    def test_lift_when_occurrences_bounded(self):
        for proof, query in self.corpus():
            full = build_antecedent_full(proof, query)
            for word in self.words(proof):
                for run, value in run_values(full, word):
                    entry = None
                    for i, state in enumerate(run):
                        if state.kind == "top":
                            entry = i  # first sink state, reached by word[i-1]
                            break
                    if entry is None:
                        k = 0
                    else:
                        entry_letter = word[entry - 1]
                        k = sum(
                            1 for letter in word[entry - 1 :] if letter == entry_letter
                        )
                    for n in (1, 2, 3):
                        approx = build_antecedent_approx(proof, query, n)
                        lifted = [
                            (r, v)
                            for r, v in run_values(approx, word)
                            if self.collapse(r) == run
                        ]
                        if k <= n:
                            assert any(v == value for _r, v in lifted)


class TestAmbiguityBounds:
    def test_run_count_bounds(self, gated_instances):
        # Runs ending in the dead state are bounded per word, runs ending
        # in a given sink-chain state per state, and runs ending in
        # node/value states by the trace width.
        from cep.restrictions import compute_thresholds

        for proof, query in gated_instances[:25]:
            thresholds = compute_thresholds(proof, query)
            width = thresholds.trace_width
            n_nodes = len(proof.nodes)
            approx = build_antecedent_approx(proof, query, 2)
            for path_nodes in all_paths(proof, proof.root, 6):
                word = word_letters(path_nodes)
                bot_count = 0
                node_count = 0
                per_chain = {}
                for run, _v in run_values(approx, word):
                    end = run[-1]
                    if end.kind == "bot":
                        bot_count += 1
                    elif end.kind == "node_value":
                        node_count += 1
                    elif end.kind == "chain":
                        per_chain[end] = per_chain.get(end, 0) + 1
                assert bot_count <= n_nodes * width
                assert node_count <= width
                assert all(
                    c <= thresholds.in_degree * width for c in per_chain.values()
                )
