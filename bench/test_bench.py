"""Tests of the benchmark itself: the generators, the verdict checks and
the command's contract.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import importlib.util
import json
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import inputs  # noqa: E402
import workload  # noqa: E402
from cep.automata import TracePairQuery  # noqa: E402
from cep.decision import decide_order  # noqa: E402
from cep.proofgraph import parse_proof, validate  # noqa: E402
from cep.soundness import check_global_soundness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _proof(doc):
    return parse_proof(json.dumps(doc))


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_corpus_is_the_gated_corpus():
    spec = importlib.util.spec_from_file_location("suite_helpers", ROOT / "tests" / "conftest.py")
    helpers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(helpers)
    expected = helpers.gated_corpus(200, base_seed=7_000)
    docs = workload.gated_docs(200, 7_000)
    assert [_proof(d) for d in docs] == [proof for proof, _query in expected]


def test_seed_zero_keeps_the_corpus_and_its_order(tmp_path):
    queries = workload.build("corpus", 0, str(tmp_path))
    assert len(queries) == 400
    first = queries[0]
    assert first.argv[-1] == "--json" and "--strict" not in first.argv
    assert (first.node, first.ant, first.con) == ("n0", "a0", "c0")
    assert _proof(workload.gated_docs(1, 7_000)[0]) == _proof(
        json.loads(Path(first.path).read_text())
    )


def test_runtime_imports_no_pytest():
    code = "import sys, run, workload, tracing, inputs; print('pytest' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("k,w", [(2, 1), (3, 1), (2, 2)])
def test_ring_holds_in_both_relations(k, w):
    proof = _proof(inputs.ring_doc(k, w))
    query = TracePairQuery("n0", "a0", "c0")
    for strict in (False, True):
        assert decide_order(proof, query, strict=strict, lag_cap=8).status == "HOLDS"


@pytest.mark.parametrize("seed", range(4))
def test_knot_soundness_is_planted(seed):
    rng = random.Random(seed)
    for sound in (True, False):
        proof = _proof(inputs.knot_doc(rng, 8, 3, sound))
        assert check_global_soundness(proof).sound == sound
        report = validate(proof)
        assert not report.trace_injective
        assert all(v.kind == "trace_injectivity" for v in report.violations)


@pytest.mark.parametrize("seed", [1, 2])
def test_renaming_keeps_verdicts(seed):
    rng = random.Random(seed)
    for doc in workload.gated_docs(20, 7_000):
        renamed, names = inputs.rename(doc, rng)
        for strict in (False, True):
            before = decide_order(_proof(doc), TracePairQuery(doc["root"], "a0", "c0"), strict)
            after = decide_order(
                _proof(renamed),
                TracePairQuery(renamed["root"], names["a0"], names["c0"]),
                strict,
            )
            assert before.status == after.status


def test_query_over_budget_is_stopped(monkeypatch, tmp_path):
    monkeypatch.setattr(workload, "QUERY_BUDGET_S", 0.05)
    previous = signal.signal(signal.SIGALRM, workload._on_alarm)
    try:
        query = workload.build("ring_deep", 0, str(tmp_path))[0]
        started = time.monotonic()
        _elapsed, outcome = workload.run_one(lambda argv: time.sleep(5), query)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert outcome == "over_budget"
    assert time.monotonic() - started < 2


def _layer_share(metrics, name):
    return metrics[name]["value"] / metrics["trace.query_ms"]["value"]


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_command_reports_every_metric_and_checks_verdicts(name):
    proc = _bench("--workload", name, "--seed", "3", "--seconds", "2", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        k: v["unit"] for k, v in metrics.items()
    }
    assert metrics["ok_frac"]["value"] == 1.0
    assert metrics["decided_frac"]["value"] == 1.0
    for line in ("failed_frac: 0.000000", "unknown_frac: 0.000000"):
        assert line in proc.stdout


@pytest.mark.parametrize("name", ["corpus", "knot", "ring_deep"])
def test_corrupted_expected_answer_fails_the_command(name):
    proc = _bench(
        "--workload", name, "--seed", "0", "--seconds", "1", "--trace", "0",
        "--corrupt-expected",
    )
    assert proc.returncode != 0
    assert _result(proc)["correct"] is False


@pytest.mark.parametrize(
    "name,layer,share",
    [
        ("ring_deep", "containment.lagset_ms", 0.8),
        ("knot", "soundness.closure_ms", 0.8),
        ("ring_wide", "automata.antecedent_ms", 0.3),
    ],
)
def test_traced_run_shows_where_time_goes(name, layer, share):
    proc = _bench("--workload", name, "--seed", "5", "--seconds", "2", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = _result(proc)["metrics"]
    assert {m["name"] for m in SPEC["per_layer"]} == set(metrics)
    assert _layer_share(metrics, layer) >= share
    self_ms = sum(v["value"] for k, v in metrics.items() if k.endswith("_ms") and k != "trace.query_ms")
    assert self_ms == pytest.approx(metrics["trace.query_ms"]["value"], rel=1e-9)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "knot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
