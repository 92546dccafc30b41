from __future__ import annotations

import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cep.cli import run_cli
from cep.ordinal import ONE, ZERO, Ordinal
from cep.proofgraph import (
    ProofParseError,
    parse_proof,
    serialize_proof,
    terminal_values,
    validate,
)
from conftest import (
    MALFORMED_LOOP2,
    fixture_doc,
    merged_delta,
    proof_from_doc,
    random_corpus,
    random_proof,
    set_in,
)


class TestParse:
    def test_loop2_shape(self, loop2):
        assert loop2.root == "n0"
        assert sorted(loop2.nodes) == ["n0", "n1", "n2"]
        assert loop2.node("n1").children == ("n0", "n2")
        assert loop2.node("n2").axiomatic
        assert loop2.node("n2").ground == frozenset({"c"})
        assert loop2.node("n2").equates == frozenset({("a", "c")})
        assert loop2.delta[("n0", 0, "left")] == {("a", "a"): ONE}
        assert loop2.delta[("n1", 1, "right")] == {("c", "c"): ZERO}

    def test_empty_nodes(self):
        with pytest.raises(ProofParseError, match="root missing"):
            parse_proof(json.dumps({"root": "n0", "nodes": [], "delta": []}))

    def test_duplicate_node_id(self):
        doc = fixture_doc("loop2")
        doc["nodes"].append(dict(doc["nodes"][0]))
        with pytest.raises(ProofParseError, match="duplicate node id 'n0'"):
            proof_from_doc(doc)

    def test_dangling_child(self):
        doc = fixture_doc("loop2")
        doc["nodes"][0]["children"] = ["nope"]
        with pytest.raises(ProofParseError, match="dangling child reference"):
            proof_from_doc(doc)

    def test_dangling_root(self):
        doc = fixture_doc("loop2")
        doc["root"] = "phantom"
        with pytest.raises(ProofParseError, match="root 'phantom' is not a node"):
            proof_from_doc(doc)

    def test_unknown_keys_rejected(self):
        doc = fixture_doc("loop2")
        doc["extra"] = 1
        with pytest.raises(ProofParseError, match="unknown keys"):
            proof_from_doc(doc)
        doc = fixture_doc("loop2")
        doc["nodes"][0]["color"] = "red"
        with pytest.raises(ProofParseError, match="unknown keys"):
            proof_from_doc(doc)

    def test_axiom_flag_mismatch(self):
        doc = fixture_doc("loop2")
        doc["nodes"][0]["axiom"] = True
        with pytest.raises(ProofParseError, match="axiom flag"):
            proof_from_doc(doc)

    def test_weight_parse_failure_has_location(self):
        doc = fixture_doc("loop2")
        doc["delta"][0]["pairs"] = [["a", "a", "w^w"]]
        with pytest.raises(ProofParseError, match=r"delta\[0\].pairs\[0\]"):
            proof_from_doc(doc)

    def test_dangling_value_reference(self):
        doc = fixture_doc("loop2")
        doc["delta"][0]["pairs"] = [["a", "zz", "1"]]
        with pytest.raises(ProofParseError, match="dangling trace value"):
            proof_from_doc(doc)

    def test_annotation_outside_namespace(self):
        doc = fixture_doc("loop2")
        doc["nodes"][2]["ground"] = ["a"]
        with pytest.raises(ProofParseError, match="not a consequent value"):
            proof_from_doc(doc)

    def test_missing_node_keys_named_in_sorted_order(self):
        doc = fixture_doc("loop2")
        for key in ("rule", "ground", "children"):
            del doc["nodes"][0][key]
        with pytest.raises(ProofParseError, match="missing key 'children'"):
            proof_from_doc(doc)

    def test_missing_delta_keys_named_in_sorted_order(self):
        doc = fixture_doc("loop2")
        for key in ("from", "side", "pairs"):
            del doc["delta"][0][key]
        with pytest.raises(ProofParseError, match="missing key 'from'"):
            proof_from_doc(doc)

    def test_child_index_out_of_range(self):
        doc = fixture_doc("loop2")
        doc["delta"][0]["child_index"] = 5
        with pytest.raises(ProofParseError, match="out of range"):
            proof_from_doc(doc)

    @pytest.mark.parametrize(
        "path, value, location",
        [case[1:] for case in MALFORMED_LOOP2],
        ids=[case[0] for case in MALFORMED_LOOP2],
    )
    def test_malformed_value_has_location(self, path, value, location):
        doc = fixture_doc("loop2")
        set_in(doc, path, value)
        with pytest.raises(ProofParseError) as exc:
            proof_from_doc(doc)
        assert exc.value.location == location

    def test_overlong_integer_literal(self):
        with pytest.raises(ProofParseError, match="malformed JSON"):
            parse_proof('{"root": ' + "1" * 5000 + "}")

    def test_deeply_nested_json(self):
        with pytest.raises(ProofParseError, match="malformed JSON"):
            parse_proof("[" * 100_000)

    def test_ordinal_weight_accepted(self):
        doc = fixture_doc("loop2")
        doc["delta"][0]["pairs"] = [["a", "a", "w*2+3"]]
        proof = proof_from_doc(doc)
        assert proof.delta[("n0", 0, "left")][("a", "a")] == Ordinal(((1, 2), (0, 3)))


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4)
    | st.sampled_from(["a", "c", "n0", "n1", "n2", "0", "1", "w", "left"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


def mutation_sites(value, path=()):
    """Paths of every leaf and every list element inside ``value``."""
    if not isinstance(value, (dict, list)) or not value:
        return [path]
    items = value.items() if isinstance(value, dict) else enumerate(value)
    out = []
    for key, child in items:
        if isinstance(value, list) and isinstance(child, (dict, list)):
            out.append(path + (key,))
        out.extend(mutation_sites(child, path + (key,)))
    return out


class TestFuzz:
    @settings(max_examples=80, deadline=None)
    @given(
        name=st.sampled_from(["loop2", "strict2", "unsound1", "ambig1"]),
        data=st.data(),
    )
    def test_mutated_fixture(self, tmp_path_factory, name, data):
        """A fixture with one value replaced either parses or fails with
        ProofParseError, and ``cep validate`` exits 2 exactly when parsing
        fails, without raising."""
        doc = fixture_doc(name)
        site = data.draw(st.sampled_from(mutation_sites(doc)))
        set_in(doc, site, data.draw(json_values))
        text = json.dumps(doc)
        try:
            parse_proof(text)
            parsed = True
        except ProofParseError as exc:
            assert exc.location
            parsed = False
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_text(text)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = run_cli(["validate", str(path), "--json"])
        assert (code == 2) == (not parsed)


class TestRoundTrip:
    def test_loop2(self, loop2):
        text = serialize_proof(loop2)
        again = parse_proof(text)
        assert again == loop2
        assert serialize_proof(again) == text

    @pytest.mark.parametrize("seed", range(25))
    def test_random_proofs(self, seed):
        proof = random_proof(seed)
        text = serialize_proof(proof)
        again = parse_proof(text)
        assert again == proof
        assert serialize_proof(again) == text


class TestTraceGraph:
    def test_pairs_merge_premise_positions(self):
        corpus = random_corpus(40, 16_000)
        # The corpus has a child at two premise positions that carry one
        # pair at different weights, so the merge rule is exercised.
        assert any(
            len(set(ws)) > 1
            for proof in corpus
            for ws in _weights_by_occurrence(proof).values()
        )
        for proof in corpus:
            reference = merged_delta(proof)
            assert proof.edges() == sorted(
                {(n.id, c) for n in proof.nodes.values() for c in n.children}
            )
            for parent in proof.nodes:
                for child in proof.nodes:
                    for side in ("left", "right"):
                        assert proof.pairs(parent, child, side) == reference.get(
                            (parent, child, side), {}
                        )

    def test_unknown_node(self, loop2):
        with pytest.raises(KeyError, match="unknown node id"):
            loop2.pairs("zz", "n0", "left")
        with pytest.raises(KeyError, match="unknown node id"):
            loop2.out_steps("zz", "left", "a0")

    @pytest.mark.parametrize("seed", range(10))
    def test_walked_proof_equals_fresh_parse(self, seed):
        proof = random_proof(seed)
        for side in ("left", "right"):
            for node_id, node in proof.nodes.items():
                for value in node.values(side):
                    proof.out_steps(node_id, side, value)
                terminal_values(proof, node_id, side)
        for edge in proof.edges():
            proof.pairs(*edge, "left")
        fresh = parse_proof(serialize_proof(proof))
        assert proof == fresh and fresh == proof
        assert repr(proof) == repr(fresh)


def _weights_by_occurrence(proof) -> dict:
    """The weights of each (parent, child, side, pair), one per premise
    position of the child that carries the pair."""
    out: dict = {}
    for (parent, idx, side), pair_map in proof.delta.items():
        child = proof.node(parent).children[idx]
        for pair, weight in pair_map.items():
            out.setdefault((parent, child, side, pair), []).append(weight)
    return out


class TestValidate:
    def test_loop2_clean(self, loop2):
        report = validate(loop2)
        assert report.ok
        assert report.trace_injective

    def test_delta_codomain(self, loop2):
        doc = fixture_doc("loop2")
        # (a, c) on the left: c is globally known but not an antecedent
        # value of the child.
        doc["delta"][0]["pairs"] = [["a", "c", "1"]]
        report = validate(proof_from_doc(doc))
        kinds = {v.kind for v in report.violations}
        assert "delta_codomain" in kinds

    def test_delta_domain(self):
        doc = fixture_doc("loop2")
        doc["delta"][0]["pairs"] = [["c", "c", "1"]]
        report = validate(proof_from_doc(doc))
        kinds = {v.kind for v in report.violations}
        assert "delta_domain" in kinds and "delta_codomain" in kinds

    def test_namespace_overlap(self):
        doc = fixture_doc("loop2")
        doc["nodes"][0]["con_values"] = ["c", "a"]
        report = validate(proof_from_doc(doc))
        assert any(v.kind == "namespace_overlap" for v in report.violations)

    def test_injectivity_flagged(self):
        doc = fixture_doc("ambig1")
        doc["delta"][0]["pairs"] = [["a", "a", "1"], ["b", "a", "0"]]
        report = validate(proof_from_doc(doc))
        assert not report.trace_injective
        hits = [v for v in report.violations if v.kind == "trace_injectivity"]
        assert len(hits) == 1

    @pytest.mark.parametrize("seed", range(20))
    def test_single_injected_violation_found(self, seed):
        # Start from an injective proof, break exactly one edge/side map.
        # Proofs without a map to break are passed over, 20 seeds apart, so
        # every case runs on its own proof.
        rng = random.Random(10_000 + seed)
        for proof_seed in itertools.count(20_000 + seed, 20):
            proof = random_proof(proof_seed, injective=True)
            candidates = [
                key
                for key, pairs in proof.delta.items()
                if pairs and len(proof.node(key[0]).values(key[2])) >= 2
            ]
            if candidates:
                break
        assert validate(proof).trace_injective
        key = rng.choice(sorted(candidates))
        (src, dst), _w = sorted(proof.delta[key].items())[0]
        other = sorted(v for v in proof.node(key[0]).values(key[2]) if v != src)[0]
        proof.delta[key][(other, dst)] = ZERO
        report = validate(proof)
        hits = [v for v in report.violations if v.kind == "trace_injectivity"]
        assert len(hits) == 1
        assert not report.trace_injective


class TestTerminalValues:
    def test_axiomatic_node(self, loop2):
        assert terminal_values(loop2, "n2", "right") == frozenset({"c"})

    def test_value_with_pairs(self, loop2):
        assert terminal_values(loop2, "n0", "right") == frozenset()

    def test_children_but_empty_delta(self):
        doc = fixture_doc("loop2")
        doc["delta"] = [e for e in doc["delta"] if e["from"] != "n1"]
        proof = proof_from_doc(doc)
        assert terminal_values(proof, "n1", "right") == frozenset({"c"})
        assert terminal_values(proof, "n1", "left") == frozenset({"a"})

    def test_unknown_node(self, loop2):
        with pytest.raises(KeyError, match="unknown node id"):
            terminal_values(loop2, "zz", "right")
