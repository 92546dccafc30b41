from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path as FilePath

import jsonschema
import pytest

from cep.automata import TracePairQuery, automaton_to_json, build_antecedent_approx
from cep.automata import build_consequent, to_json
from cep.cli import _build_parser, run_cli
from cep.proofgraph import load_proof, serialize_proof
from cep.restrictions import compute_thresholds
from cep.soundness import check_global_soundness
from conftest import (
    MALFORMED_LOOP2,
    bench_inputs,
    fixture_doc,
    fixture_path,
    gated_out_doc,
    knot_docs,
    proof_from_doc,
    set_in,
)
from test_proofgraph import mutation_sites
from test_restrictions import two_value_loop

SCHEMA = json.loads(
    (FilePath(__file__).parent.parent / "src" / "cep" / "report_schema.json").read_text()
)

LOOP2 = str(fixture_path("loop2"))
STRICT2 = str(fixture_path("strict2"))
UNSOUND1 = str(fixture_path("unsound1"))

ORDER_ARGS = ["--node", "n0", "--ant", "a", "--con", "c"]


# Runs each argv of the JSON list in ``sys.argv[1]`` through the CLI,
# writing its exit code and its report, each followed by a NUL byte.
RUN_EACH = """
import json, sys
from cep.cli import run_cli
for argv in json.loads(sys.argv[1]):
    code = run_cli(argv)
    sys.stdout.write(f"\\0{code}\\0")
"""

# A well-formed transition of a one-state automaton.
DUPLICATE_TRANSITION = {"src": 0, "letter": {"node": "n0"}, "dst": 0, "weight": "1"}


def run(capsys, *argv):
    code = run_cli(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return code, report


class TestExitCodes:
    def test_order_holds(self, capsys):
        code, _ = run(capsys, "order", LOOP2, *ORDER_ARGS)
        assert code == 0

    def test_order_reports_caps_tried(self, capsys):
        code, report = run_json(capsys, "order", LOOP2, *ORDER_ARGS)
        assert code == 0
        parameters = report["report"]["containment"]["parameters"]
        assert parameters == {"lag_cap": 64, "caps": [1], "clamped": False}

    @pytest.mark.parametrize(
        "level, code, stderr",
        [
            ("verbose", 2, "error: CEP_LOG: unknown logging level 'VERBOSE'\n"),
            ("10", 2, "error: CEP_LOG: unknown logging level '10'\n"),
            ("debug", 0, "DEBUG:cep.soundness:composition closure: 3 path relations"),
        ],
        ids=["unknown", "number", "debug"],
    )
    def test_cep_log_takes_a_level_name(self, level, code, stderr):
        # A fresh interpreter: under pytest the root logger already has
        # handlers, so logging.basicConfig would not read the level at all.
        done = subprocess.run(
            [sys.executable, "-c", RUN_EACH, json.dumps([["soundness", LOOP2]])],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), CEP_LOG=level),
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0
        assert done.stdout.endswith(f"\0{code}\0")
        assert done.stderr.startswith(stderr)
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize(
        "flat_cycle, extra",
        [
            (False, ["--lag-cap", "0"]),
            (False, ["--engine", "oracle", "--lag-cap", "-3"]),
            (True, ["--lag-cap", "0"]),
        ],
        ids=["lagset", "oracle_engine", "gated_out"],
    )
    def test_order_lag_cap_must_be_positive(self, capsys, tmp_path, flat_cycle, extra):
        doc = fixture_doc("loop2")
        if flat_cycle:
            # A flat left cycle: the dynamic gate rejects the query.
            for entry in doc["delta"]:
                if entry["from"] == "n0" and entry["side"] == "left":
                    entry["pairs"] = [["a", "a", "0"]]
        path = tmp_path / "loop2.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["order", str(path), *ORDER_ARGS, *extra]) == 2
        assert "lag cap must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["oracle", LOOP2, *ORDER_ARGS, "--strict", "--max-len", "0"],
             "path length bound must be positive"),
            (["oracle", LOOP2, *ORDER_ARGS, "--strict", "--max-len", "-1"],
             "path length bound must be positive"),
            (["traces", LOOP2, "--node", "n0", "--value", "c", "--max-len", "-3"],
             "path length bound must be positive"),
            (["order", LOOP2, *ORDER_ARGS, "--engine", "oracle", "--oracle-len", "-2"],
             "length bound must be non-negative"),
            (["order", LOOP2, *ORDER_ARGS, "--oracle-len", "-2"],
             "length bound must be non-negative"),
            (["order", "FLAT", *ORDER_ARGS, "--oracle-len", "-2"],
             "length bound must be non-negative"),
            (["contain", "B", "A", "--engine", "oracle", "--oracle-len", "-2"],
             "length bound must be non-negative"),
            (["contain", "B", "A", "--oracle-len", "-2"],
             "length bound must be non-negative"),
            (["contain", "B", "A", "--engine", "oracle", "--lag-cap", "0"],
             "lag cap must be positive"),
        ],
        ids=[
            "oracle_zero", "oracle_negative", "traces_negative", "order_oracle_engine",
            "order_lagset_engine", "order_gated_out", "contain_oracle_engine",
            "contain_lagset_engine", "contain_oracle_engine_lag_cap",
        ],
    )
    def test_length_bounds_must_make_sense(self, capsys, tmp_path, argv, message):
        doc = fixture_doc("loop2")
        # A flat left cycle: the dynamic gate rejects the query.
        for entry in doc["delta"]:
            if entry["from"] == "n0" and entry["side"] == "left":
                entry["pairs"] = [["a", "a", "0"]]
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps(doc))
        b_path = tmp_path / "b.json"
        a_path = tmp_path / "a.json"
        run_cli(["automata", LOOP2, *ORDER_ARGS, "--consequent", "--save", str(b_path)])
        run_cli(["automata", LOOP2, *ORDER_ARGS, "--approx", "6", "--save", str(a_path)])
        capsys.readouterr()
        files = {"FLAT": str(flat), "B": str(b_path), "A": str(a_path)}
        assert run_cli([files.get(arg, arg) for arg in argv]) == 2
        assert message in capsys.readouterr().err

    def test_order_strict_fails(self, capsys):
        code, _ = run(capsys, "order", LOOP2, *ORDER_ARGS, "--strict")
        assert code == 3

    def test_order_strict2_holds(self, capsys):
        code, _ = run(capsys, "order", STRICT2, *ORDER_ARGS, "--strict")
        assert code == 0

    def test_soundness_unsound(self, capsys):
        code, report = run_json(capsys, "soundness", UNSOUND1)
        assert code == 3
        assert report["report"]["witness"]["cycle"] == ["n0", "n0"]

    def test_soundness_sound(self, capsys):
        code, _ = run(capsys, "soundness", LOOP2)
        assert code == 0

    def test_soundness_left_pair_names_consequent_value(self, capsys, tmp_path):
        # A left pair naming a consequent value is a structural violation:
        # the soundness command refuses the proof as the definition oracle
        # does, instead of giving a verdict on it.  The closure itself still
        # indexes the value.
        doc = fixture_doc("loop2")
        doc["delta"][0]["pairs"] = [["a", "c", "1"]]
        report = check_global_soundness(proof_from_doc(doc))
        assert to_json(report.witness) == {"prefix": ["n0"], "cycle": ["n0", "n1", "n0"]}
        path = tmp_path / "loop2.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["soundness", str(path), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: invalid proof: delta_codomain at delta ('n0', child 0, left): "
            "target 'c' is not a left value of 'n1'\n"
        )

    def test_usage_error(self, capsys):
        assert run_cli(["order", LOOP2]) == 2

    def test_missing_file(self, capsys):
        assert run_cli(["soundness", "no-such-file.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_query_value(self, capsys):
        code = run_cli(["order", LOOP2, "--node", "n0", "--ant", "a", "--con", "zz"])
        assert code == 2

    def test_unreachable_omega_weight_decided(self, capsys, tmp_path):
        # A consequent value d whose omega weight no run of the query
        # reaches: the gates pass, so the ordering gets loop2's answers.
        doc = fixture_doc("loop2")
        for node in doc["nodes"][:2]:
            node["con_values"].append("d")
        doc["delta"][1]["pairs"].append(["d", "d", "w"])
        path = tmp_path / "omega.json"
        path.write_text(json.dumps(doc))
        code, _ = run_json(capsys, "order", str(path), *ORDER_ARGS)
        assert code == 0
        code, report = run_json(capsys, "order", str(path), *ORDER_ARGS, "--strict")
        assert code == 3
        _, plain = run_json(capsys, "order", LOOP2, *ORDER_ARGS, "--strict")
        witness = report["report"]["containment"]["counterexample"]
        assert witness == plain["report"]["containment"]["counterexample"]
        assert witness is not None

    @pytest.mark.parametrize(
        "path, value, location",
        [case[1:] for case in MALFORMED_LOOP2],
        ids=[case[0] for case in MALFORMED_LOOP2],
    )
    def test_malformed_input_exits_2(self, capsys, tmp_path, path, value, location):
        doc = fixture_doc("loop2")
        set_in(doc, path, value)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli(["validate", str(bad), "--json"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {location}: ")

    def test_validate(self, capsys):
        code, report = run_json(capsys, "validate", LOOP2)
        assert code == 0
        assert report["report"]["trace_injective"] is True

    def test_restrictions(self, capsys):
        code, report = run_json(capsys, "restrictions", LOOP2, *ORDER_ARGS)
        assert code == 0
        assert [c["name"] for c in report["report"]["checks"]] == [
            "finitely_progressing",
            "dynamic",
            "balanced",
        ]
        assert report["report"]["thresholds"]["n_bound"] == 6

    def test_traces(self, capsys):
        code, report = run_json(
            capsys, "traces", LOOP2, "--node", "n0", "--value", "c", "--max-len", "5"
        )
        assert code == 0
        assert len(report["report"]["maximal_traces"]) == 2

    def test_traces_cycles(self, capsys):
        code, report = run_json(capsys, "traces", LOOP2, "--cycles", "left")
        assert code == 0
        assert len(report["report"]["cycles"]) == 2

    def test_traces_binary_cycles(self, capsys):
        code, report = run_json(capsys, "traces", LOOP2, "--cycles", "binary")
        assert code == 0
        diagonal = ["a", "a", "a"]
        assert report["report"] == {
            "cycles": [
                {"path": ["n0", "n1", "n0"], "trace": diagonal, "trace_other": diagonal},
                {"path": ["n1", "n0", "n1"], "trace": diagonal, "trace_other": diagonal},
            ],
            "kind": "binary",
        }

    def test_oracle(self, capsys):
        code, report = run_json(
            capsys, "oracle", LOOP2, *ORDER_ARGS, "--strict", "--max-len", "8"
        )
        assert code == 3
        assert report["report"]["counterexample"]["path"] == ["n0", "n1", "n2"]

    def test_oracle_no_counterexample(self, capsys):
        code, out = run(capsys, "oracle", LOOP2, *ORDER_ARGS, "--max-len", "8")
        assert code == 0
        assert out == "no counterexample up to path length 8\n"
        code, report = run_json(capsys, "oracle", LOOP2, *ORDER_ARGS, "--max-len", "8")
        assert code == 0
        assert report["report"] == {
            "max_path_len": 8,
            "strict": False,
            "counterexample": None,
        }

    @pytest.mark.parametrize(
        "side, index, values, pair",
        [
            ("right", 1, ["c", "d"], ["c", "d", "0"]),
            ("left", 0, ["a", "b"], ["a", "b", "0"]),
        ],
        ids=["right", "left"],
    )
    def test_oracle_rejects_invalid_proof(self, capsys, tmp_path, side, index, values, pair):
        # A second value at n0 with a pair into n1, which lacks it: the
        # parser accepts the file, validation does not.
        doc = fixture_doc("loop2")
        doc["nodes"][0]["con_values" if side == "right" else "ant_values"] = values
        doc["delta"][index]["pairs"].append(pair)
        path = tmp_path / "loop2.json"
        path.write_text(json.dumps(doc))
        location = f"delta ('n0', child 0, {side})"
        assert run_cli(["oracle", str(path), *ORDER_ARGS]) == 2
        assert capsys.readouterr().err == (
            f"error: invalid proof: delta_codomain at {location}: "
            f"target {pair[1]!r} is not a {side} value of 'n1'\n"
        )
        code, report = run_json(capsys, "order", str(path), *ORDER_ARGS)
        assert code == 4
        (gate,) = report["report"]["reasons"]
        assert gate["stage"] == "validation"
        assert [(v["kind"], v["location"]) for v in gate["violations"]] == [
            ("delta_codomain", location)
        ]


class TestAutomataAndContain:
    def test_automata_dot_and_save(self, capsys, tmp_path):
        dot = tmp_path / "b.dot"
        saved = tmp_path / "b.json"
        code, report = run_json(
            capsys,
            "automata",
            LOOP2,
            *ORDER_ARGS,
            "--consequent",
            "--dot",
            str(dot),
            "--save",
            str(saved),
        )
        assert code == 0
        assert report["report"]["kind"] == "consequent"
        assert dot.read_text().startswith("digraph {")
        assert json.loads(saved.read_text())["kind"] == "consequent"

    def test_automata_full(self, capsys):
        code, report = run_json(capsys, "automata", LOOP2, *ORDER_ARGS, "--full")
        assert code == 0
        assert report["report"] == {
            "kind": "antecedent_full",
            "approx_level": None,
            "states": 6,
            "reachable_states": 6,
            "finals": 5,
            "transitions": 11,
        }

    def test_automata_approx_counts_chains(self, capsys):
        # The counts include the sink chains: 6 chain states beside the 5
        # explicit ones, and 15 chain transitions beside the 8 explicit ones.
        code, report = run_json(capsys, "automata", LOOP2, *ORDER_ARGS, "--approx", "2")
        assert code == 0
        assert report["report"] == {
            "kind": "antecedent_approx",
            "approx_level": 2,
            "states": 11,
            "reachable_states": 11,
            "finals": 10,
            "transitions": 23,
        }

    def test_contain_round_trip(self, capsys, tmp_path):
        b_path = tmp_path / "b.json"
        a_path = tmp_path / "a.json"
        run_cli(
            ["automata", LOOP2, *ORDER_ARGS, "--consequent", "--save", str(b_path)]
        )
        run_cli(
            ["automata", LOOP2, *ORDER_ARGS, "--approx", "6", "--save", str(a_path)]
        )
        capsys.readouterr()
        code, report = run_json(capsys, "contain", str(b_path), str(a_path))
        assert code == 0
        assert report["report"]["status"] == "VERIFIED"
        code, report = run_json(
            capsys, "contain", str(b_path), str(a_path), "--strict"
        )
        assert code == 3
        assert report["report"]["counterexample"] == [
            {"node": "n0"},
            {"node": "n1"},
            {"node": "n2"},
        ]

    @pytest.mark.parametrize(
        "path, value, location",
        [
            (("states",), 5, "$.states"),
            (("transitions", 0, "dst"), 9, "$.transitions[0].dst"),
            (("transitions", 0, "src"), "0", "$.transitions[0].src"),
            (("transitions", 0, "letter"), "n0", "$.transitions[0].letter"),
            (("transitions", 0, "letter"), {"ants": "a", "con": "c"},
             "$.transitions[0].letter.ants"),
            (("transitions", 0, "weight"), 1.5, "$.transitions[0].weight"),
            (("states", 0, "kind"), "sink", "$.states[0].kind"),
            (("finals", 0), -1, "$.finals[0]"),
            (("alphabet", 0), {"node": 3}, "$.alphabet[0].node"),
            (("states", 0, "kind"), ["start"], "$.states[0].kind"),
            (("transitions",), [DUPLICATE_TRANSITION] * 2, "$.transitions[1]"),
            (("states", 0, "color"), "red", "$.states[0]"),
            (("alphabet", 0), {"node": "n0", "con": "c"}, "$.alphabet[0]"),
        ],
        ids=[
            "int_states", "dst_out_of_range", "str_src", "str_letter",
            "str_ants", "float_weight", "unknown_kind", "negative_final",
            "int_node_letter", "list_kind", "duplicate_transition",
            "unknown_key", "node_and_con_letter",
        ],
    )
    def test_contain_malformed_automaton_exits_2(
        self, capsys, tmp_path, path, value, location
    ):
        good = tmp_path / "b.json"
        run_cli(["automata", LOOP2, *ORDER_ARGS, "--consequent", "--save", str(good)])
        doc = json.loads(good.read_text())
        if path[0] == "transitions":
            # One state left, so a dst of 9 is out of range.
            doc["states"] = doc["states"][:1]
            doc["transitions"] = [dict(doc["transitions"][0], src=0, dst=0)]
        set_in(doc, path, value)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli(["contain", str(bad), str(good)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {location}: ")

    def test_contain_deeply_nested_file_exits_2(self, capsys, tmp_path):
        good = tmp_path / "b.json"
        run_cli(["automata", LOOP2, *ORDER_ARGS, "--consequent", "--save", str(good)])
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100_000)
        capsys.readouterr()
        assert run_cli(["contain", str(bad), str(good)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("document", ["proof", "automaton"])
    def test_every_mistyped_site_is_located(self, capsys, tmp_path, document):
        """Each value of loop2 and of its saved consequent automaton, put
        in place of each JSON type but its own, makes the reader exit 2
        at the value's path.  A trace pair or equates entry, and a sequent,
        are reported as a whole.  An integer weight is a weight, and an
        integer ``approx_level`` is allowed in place of null."""
        good = tmp_path / "b.json"
        run_cli(["automata", LOOP2, *ORDER_ARGS, "--consequent", "--save", str(good)])
        bad = tmp_path / "bad.json"
        if document == "proof":
            original, argv = fixture_doc("loop2"), ["validate", str(bad)]
        else:
            original = json.loads(good.read_text())
            argv = ["contain", str(bad), str(good)]
        wrong = []
        for site in mutation_sites(original):
            own = original
            for step in site:
                own = own[step]
            entry_item = len(site) > 2 and site[-3] in ("pairs", "equates")
            whole = entry_item or site[-2:-1] == ("sequent",)
            reported = site[:-1] if whole else site
            location = "$" + "".join(
                f"[{s}]" if isinstance(s, int) else f".{s}" for s in reported
            )
            weight = site[-1] == "weight" or (entry_item and site[-1] == 2)
            for value in (None, True, 7, 1.5, "x", [], {}):
                if type(value) is type(own):
                    continue
                doc = json.loads(json.dumps(original))
                set_in(doc, site, value)
                bad.write_text(json.dumps(doc))
                capsys.readouterr()
                code = run_cli(argv)
                err = capsys.readouterr().err
                if type(value) is int and (weight or site == ("approx_level",)):
                    ok = code != 2
                else:
                    ok = code == 2 and err.startswith(f"error: {location}: ")
                if not ok:
                    wrong.append((site, value, code, err))
        assert not wrong

    def test_contain_oracle_engine(self, capsys, tmp_path):
        b_path = tmp_path / "b.json"
        a_path = tmp_path / "a.json"
        run_cli(["automata", LOOP2, *ORDER_ARGS, "--consequent", "--save", str(b_path)])
        run_cli(["automata", LOOP2, *ORDER_ARGS, "--approx", "6", "--save", str(a_path)])
        capsys.readouterr()
        code, report = run_json(
            capsys, "contain", str(b_path), str(a_path), "--engine", "oracle"
        )
        assert code == 5
        assert report["report"]["status"] == "UNKNOWN_BOUND"

    def test_contain_round_trip_on_corpus(self, capsys, tmp_path, gated_instances):
        # Containment of the saved automata repeats the containment stage of
        # `cep order`, wherever the order query reaches it.
        matched = 0
        for i, (proof, query) in enumerate(gated_instances[:30]):
            proof_path = tmp_path / f"p{i}.json"
            b_path = tmp_path / f"b{i}.json"
            a_path = tmp_path / f"a{i}.json"
            proof_path.write_text(serialize_proof(proof))
            argv = [str(proof_path), "--node", query.node,
                    "--ant", query.ant_value, "--con", query.con_value]
            n_bound = str(compute_thresholds(proof, query).n_bound)
            run_cli(["automata", *argv, "--consequent", "--save", str(b_path)])
            run_cli(["automata", *argv, "--approx", n_bound, "--save", str(a_path)])
            capsys.readouterr()
            for strict in ([], ["--strict"]):
                code, order = run_json(capsys, "order", *argv, *strict)
                expected = order["report"]["containment"]
                if expected is None:
                    continue  # stopped at groundedness
                got = run_json(capsys, "contain", str(b_path), str(a_path), *strict)
                assert (got[0], got[1]["report"]) == (code, expected)
                matched += 1
        assert matched


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["order", LOOP2, *ORDER_ARGS, "--json"],
            ["order", LOOP2, *ORDER_ARGS, "--strict", "--json"],
            ["order", STRICT2, *ORDER_ARGS, "--strict", "--json"],
            ["soundness", UNSOUND1, "--json"],
            ["restrictions", LOOP2, *ORDER_ARGS, "--json"],
            ["validate", LOOP2, "--json"],
        ],
    )
    def test_reruns_byte_identical(self, capsys, argv):
        run_cli(argv)
        first = capsys.readouterr().out
        run_cli(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_parser_reuse_leaks_no_state(self, capsys):
        # The parser is built once per process; options of one call must
        # not carry over into the next.
        _build_parser.cache_clear()
        plain = ["order", LOOP2, *ORDER_ARGS, "--json"]
        run_cli(plain)
        fresh = capsys.readouterr().out
        assert run_cli(["order", LOOP2]) == 2
        strict = ["--strict", "--engine", "oracle", "--oracle-len", "3", "--lag-cap", "2"]
        run_cli(["order", LOOP2, *ORDER_ARGS, *strict, "--json"])
        capsys.readouterr()
        run_cli(plain)
        assert capsys.readouterr().out == fresh
        run_cli(["automata", LOOP2, *ORDER_ARGS, "--consequent"])
        capsys.readouterr()
        code, report = run_json(capsys, "automata", LOOP2, *ORDER_ARGS)
        assert code == 0
        assert report["report"]["kind"] == "antecedent_full"

    def test_hash_seeds_byte_identical(self, tmp_path):
        # Each of two hash seeds runs every command in one fresh
        # interpreter, the two side by side; the reports must not depend on
        # set or dict iteration order.
        ring = tmp_path / "ring3_1.json"
        ring.write_text(json.dumps(bench_inputs().ring_doc(3, 1)))
        knot = tmp_path / "knot1.json"
        knot.write_text(json.dumps(knot_docs()[1][1]))
        argvs = []
        for path, query in (
            (LOOP2, ORDER_ARGS),
            (str(ring), ["--node", "n0", "--ant", "a0", "--con", "c0"]),
            (str(knot), ["--node", "n0", "--ant", "a0", "--con", "c0"]),
        ):
            argvs += [
                ["order", path, *query, "--json"],
                ["order", path, *query, "--strict", "--json"],
                ["restrictions", path, *query, "--json"],
                ["soundness", path, "--json"],
                ["traces", path, "--cycles", "left", "--json"],
            ]
        runs = [
            subprocess.Popen(
                [sys.executable, "-c", RUN_EACH, json.dumps(argvs)],
                env=dict(
                    os.environ,
                    PYTHONPATH=os.pathsep.join(sys.path),
                    PYTHONHASHSEED=seed,
                ),
                stdout=subprocess.PIPE,
            )
            for seed in ("1", "2")
        ]
        outputs = [run.communicate()[0].split(b"\0") for run in runs]
        assert [run.returncode for run in runs] == [0, 0]
        assert len(outputs[0]) == 2 * len(argvs) + 1
        for i, argv in enumerate(argvs):
            first, second = (out[2 * i : 2 * i + 2] for out in outputs)
            assert first == second, argv

    def test_timing_flag_adds_field(self, capsys):
        code, out = run(capsys, "validate", LOOP2, "--timing", "--json")
        report = json.loads(out)
        assert "timing_ms" in report
        jsonschema.validate(report, SCHEMA)


def walk_report_argvs(tmp_path) -> dict[str, list[str]]:
    """Commands whose reports list walks as ``path``/``trace`` lists: the
    trace listings and the oracle counterexample on loop2, and the
    restriction witnesses of a zero-size cycle and an unbalanced one."""
    flat = fixture_doc("loop2")
    for entry in flat["delta"]:
        if entry["from"] == "n0" and entry["side"] == "left":
            entry["pairs"] = [["a", "a", "0"]]
    flat_path = tmp_path / "flat.json"
    flat_path.write_text(json.dumps(flat))
    unbalanced_path = tmp_path / "unbalanced.json"
    unbalanced_path.write_text(json.dumps(two_value_loop("1", "2")))
    argvs = {
        "traces_maximal": ["traces", LOOP2, "--node", "n0", "--value", "c", "--max-len", "5"],
        "oracle_strict": ["oracle", LOOP2, *ORDER_ARGS, "--strict"],
        "restrictions_dynamic": ["restrictions", str(flat_path), *ORDER_ARGS],
        "restrictions_balanced": ["restrictions", str(unbalanced_path), *ORDER_ARGS],
    }
    for kind in ("left", "right", "binary"):
        argvs[f"traces_cycles_{kind}"] = ["traces", LOOP2, "--cycles", kind]
    return argvs


class TestWalkReportGoldens:
    # Compared as text, so the key order of every walk is pinned too.
    GOLDEN = json.loads((FilePath(__file__).parent / "goldens" / "walk_reports.json").read_text())

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_report_matches_golden(self, capsys, tmp_path, case):
        _code, report = run_json(capsys, *walk_report_argvs(tmp_path)[case])
        assert json.dumps(report["report"]) == json.dumps(self.GOLDEN[case])

    def test_every_case_has_a_golden(self, tmp_path):
        assert sorted(walk_report_argvs(tmp_path)) == sorted(self.GOLDEN)


GATED_OUT = (
    "validation", "global_soundness", "trace_injectivity", "restriction_dynamic", "thresholds"
)


def verdict_report_argvs(tmp_path) -> dict[str, list[str]]:
    """Commands whose reports render the verdict objects: `cep order` on
    loop2 in both relations, with each engine, and stopped at each gate;
    `cep contain` with each engine on loop2's saved consequent and
    approximate antecedent automata; the restriction, validation,
    soundness and oracle reports; and, on each of the seven bench knots,
    `cep soundness` and the root `cep order` query, which the gates stop
    before any automaton."""
    argvs = {}
    for stage in GATED_OUT:
        path = tmp_path / f"{stage}.json"
        path.write_text(json.dumps(gated_out_doc(stage)))
        argvs[f"order_{stage}"] = ["order", str(path), *ORDER_ARGS]
    argvs["validate_violation"] = ["validate", str(tmp_path / "validation.json")]
    proof = load_proof(LOOP2)
    query = TracePairQuery("n0", "a", "c")
    b_path, a_path = tmp_path / "b.json", tmp_path / "a.json"
    b_path.write_text(automaton_to_json(build_consequent(proof, query)))
    # 6 is loop2's approximation bound N.
    a_path.write_text(automaton_to_json(build_antecedent_approx(proof, query, 6)))
    for relation, strict in (("leq", []), ("lt", ["--strict"])):
        argvs[f"order_{relation}"] = ["order", LOOP2, *ORDER_ARGS, *strict]
        argvs[f"order_oracle_{relation}"] = [
            "order", LOOP2, *ORDER_ARGS, *strict, "--engine", "oracle", "--oracle-len", "3"
        ]
        for engine in ("lagset", "oracle"):
            argvs[f"contain_{engine}_{relation}"] = [
                "contain", str(b_path), str(a_path), *strict, "--engine", engine
            ]
    argvs["restrictions"] = ["restrictions", LOOP2, *ORDER_ARGS]
    argvs["soundness_unsound"] = ["soundness", UNSOUND1]
    argvs["oracle_leq"] = ["oracle", LOOP2, *ORDER_ARGS]
    for i, (_sound, doc) in enumerate(knot_docs()):
        path = tmp_path / f"knot{i}.json"
        path.write_text(json.dumps(doc))
        argvs[f"knot{i}_soundness"] = ["soundness", str(path)]
        argvs[f"knot{i}_order"] = [
            "order", str(path), "--node", doc["root"], "--ant", "a0", "--con", "c0"
        ]
    return argvs


class TestVerdictReportGoldens:
    # Compared as text, so the key order of every verdict object is pinned too.
    GOLDEN = json.loads(
        (FilePath(__file__).parent / "goldens" / "verdict_reports.json").read_text()
    )

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_report_matches_golden(self, capsys, tmp_path, case):
        _code, report = run_json(capsys, *verdict_report_argvs(tmp_path)[case])
        assert json.dumps(report["report"]) == json.dumps(self.GOLDEN[case])

    def test_every_case_has_a_golden(self, tmp_path):
        assert sorted(verdict_report_argvs(tmp_path)) == sorted(self.GOLDEN)
        knot_cases = [f"knot{i}_{cmd}" for i in range(7) for cmd in ("order", "soundness")]
        assert set(knot_cases) <= set(self.GOLDEN)
