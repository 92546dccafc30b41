"""One workload process of the benchmark: make the inputs, run ``cep
order`` queries in a closed loop with one client, then check every
verdict against the input's known answer.

    python3 bench/workload.py --workload corpus --seed 1 --seconds 5 \
        --trace 0 --start 0 --workdir .bench_work/x

``src`` must be importable (``bench/run.py`` sets ``PYTHONPATH``).  The
last line of standard output is one JSON object with the timings, the
outcome counts and, with ``--trace 1``, the per-layer totals."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import signal
import sys
import time
from dataclasses import dataclass

import inputs

# A query running longer than this is stopped and counted as failed.
QUERY_BUDGET_S = 20.0

CORPUS_SIZE = 200
CORPUS_BASE_SEED = 7_000
RING_DEEP = (3, 1)
RING_WIDE = (12, 2)
RING_WIDE_LAG_CAP = 8
# Seven knots, 14-16 nodes and 5 values, four of them sound.
KNOT_POOL_SEED = 1
KNOT_POOL = 7
KNOT_VALUES = 5

EXIT_OF = {"HOLDS": 0, "FAILS": 3, "NOT_APPLICABLE": 4, "UNKNOWN": 5}


@dataclass(frozen=True)
class Query:
    argv: tuple[str, ...]
    path: str
    node: str
    ant: str
    con: str
    strict: bool
    expect: str  # "holds" | "sound" | "unsound" | "oracle"


class BudgetExceeded(BaseException):
    """Raised from the alarm handler; derives from BaseException so no
    handler inside the library can swallow it."""


def _on_alarm(signum, frame):
    raise BudgetExceeded()


def _write(workdir: str, name: str, doc: dict) -> str:
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    return path


def _queries(doc, name, workdir, rng, expect, strict_values=(False, True), extra=()):
    """Rename ``doc`` with ``rng`` (seed 0 keeps the names), write it and
    return one query per relation for its root query (a0, c0)."""
    mapping = None
    if rng is not None:
        doc, mapping = inputs.rename(doc, rng)
    path = _write(workdir, name, doc)
    node = doc["root"]
    ant = mapping["a0"] if mapping else "a0"
    con = mapping["c0"] if mapping else "c0"
    out = []
    for strict in strict_values:
        argv = ["order", path, "--node", node, "--ant", ant, "--con", con]
        argv += ["--strict"] if strict else []
        argv += list(extra) + ["--json"]
        out.append(Query(tuple(argv), path, node, ant, con, strict, expect))
    return out


def gated_docs(count: int, base_seed: int) -> list[dict]:
    """The documents of the test suite's ``gated_corpus(count, base_seed)``:
    random trace-injective proofs whose root query (a0, c0) passes every
    applicability gate."""
    from cep.automata import TracePairQuery
    from cep.decision import applicability_gates
    from cep.proofgraph import parse_proof, validate

    out = []
    seed = base_seed
    while len(out) < count:
        if seed - base_seed > 400 * count:
            raise RuntimeError("gated corpus generation did not converge")
        doc = inputs.random_proof_doc(random.Random(seed))
        seed += 1
        proof = parse_proof(json.dumps(doc))
        if not validate(proof).ok:
            continue
        query = TracePairQuery(node=proof.root, ant_value="a0", con_value="c0")
        if applicability_gates(proof, query) is None:
            out.append(doc)
    return out


def build(workload: str, seed: int, workdir: str) -> list[Query]:
    """The workload's query cycle.  The instance shapes are fixed; the
    seed draws a renaming of every document and the query order (seed 0
    keeps both, so the corpus is exactly ``gated_corpus(200, 7000)``)."""
    rng = random.Random(seed) if seed else None
    queries: list[Query] = []
    if workload == "corpus":
        for i, doc in enumerate(gated_docs(CORPUS_SIZE, CORPUS_BASE_SEED)):
            queries += _queries(doc, f"corpus{i:03d}", workdir, rng, "oracle")
    elif workload == "ring_deep":
        queries += _queries(inputs.ring_doc(*RING_DEEP), "ring", workdir, rng, "holds")
    elif workload == "ring_wide":
        extra = ("--lag-cap", str(RING_WIDE_LAG_CAP))
        queries += _queries(inputs.ring_doc(*RING_WIDE), "ring", workdir, rng, "holds", extra=extra)
    elif workload == "knot":
        pool = random.Random(KNOT_POOL_SEED)
        for i in range(KNOT_POOL):
            sound = i % 2 == 0
            doc = inputs.knot_doc(pool, 14 + (i // 2) % 3, KNOT_VALUES, sound)
            queries += _queries(
                doc, f"knot{i:02d}", workdir, rng, "sound" if sound else "unsound", (False,)
            )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if rng is not None:
        rng.shuffle(queries)
    return queries


def run_one(run_cli, query: Query, tracer=None):
    """Run one query; returns (seconds, outcome) where the outcome is the
    (status, report exit code, returned code, gated by soundness) tuple,
    or "error" / "over_budget"."""
    out = io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, QUERY_BUDGET_S)
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            if tracer is None:
                code = run_cli(list(query.argv))
            else:
                code = tracer.run_query(run_cli, list(query.argv))
        elapsed = time.perf_counter() - started
        signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded:
        return time.perf_counter() - started, "over_budget"
    except Exception:  # a raising query is a failed query, not a crash
        signal.setitimer(signal.ITIMER_REAL, 0)
        return time.perf_counter() - started, "error"
    try:
        report = json.loads(out.getvalue())
    except ValueError:
        return elapsed, "error"
    verdict = report["report"]
    soundness_gated = any(r["stage"] == "global_soundness" for r in verdict["reasons"])
    return elapsed, (verdict["status"], report["exit_code"], code, soundness_gated)


@dataclass(frozen=True)
class _Cell:
    node: str
    level: int


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop of the work the library
    does most: dataclass and tuple hashing, dict and set updates, sorting.
    It uses nothing from ``cep``, so only the host's speed moves it."""
    started = time.perf_counter()
    for _ in range(2):
        counts: dict = {}
        for i in range(15_000):
            key = (_Cell(f"n{i % 97}", i % 89), i % 13)
            counts[key] = counts.get(key, 0) + i
        ordered = sorted(counts, key=lambda k: (k[0].node, k[0].level, k[1]))
        len({frozenset(k) for k in ordered})
    return time.perf_counter() - started


def closed_loop(run_cli, queries, start: int, seconds: float, tracer=None):
    """Issue queries[start], queries[start+1], ... (cyclically) one after
    another until ``seconds`` have passed; returns the first-query time,
    the wall time, and one (index, seconds, outcome) record per query."""
    records = []
    first = time.monotonic()
    deadline = first + seconds
    i = start
    while not records or time.monotonic() < deadline:
        index = i % len(queries)
        elapsed, outcome = run_one(run_cli, queries[index], tracer)
        records.append((index, elapsed, outcome))
        i += 1
    return first, time.monotonic() - first, records


def verdict_ok(query: Query, outcome) -> bool:
    """Whether an outcome is the known answer for its input."""
    if not isinstance(outcome, tuple):
        return False
    status, exit_code, code, soundness_gated = outcome
    if exit_code != EXIT_OF.get(status) or code != exit_code:
        return False
    if query.expect == "holds":
        return status == "HOLDS"
    if query.expect in ("sound", "unsound"):
        return status == "NOT_APPLICABLE" and soundness_gated == (query.expect == "unsound")
    # The decision must agree with the bounded definition oracle: HOLDS
    # admits no counterexample up to path length 10, FAILS needs one at
    # length 10 or, failing that, 16.  UNKNOWN is counted, not wrong.
    if status == "UNKNOWN":
        return True
    if status not in ("HOLDS", "FAILS"):
        return False
    from cep.automata import TracePairQuery
    from cep.decision import definition_oracle
    from cep.proofgraph import load_proof

    proof = load_proof(query.path)
    pair = TracePairQuery(query.node, query.ant, query.con)
    found = not definition_oracle(proof, pair, strict=query.strict, max_path_len=10).ok
    if status == "HOLDS":
        return not found
    return found or not definition_oracle(
        proof, pair, strict=query.strict, max_path_len=16
    ).ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--start", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument(
        "--corrupt-expected",
        action="store_true",
        help="invert the known answer of the first query (tests the check)",
    )
    args = parser.parse_args(argv)

    from cep.cli import run_cli

    os.makedirs(args.workdir, exist_ok=True)
    queries = build(args.workload, args.seed, args.workdir)
    signal.signal(signal.SIGALRM, _on_alarm)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        # Half the window traced, then the same queries untraced, so the
        # overhead compares identical work.
        first, wall, records = closed_loop(
            run_cli, queries, args.start, args.seconds / 2, tracer
        )
        tracer.uninstall()
        started = time.monotonic()
        for index, _elapsed, _outcome in records:
            run_one(run_cli, queries[index])
        untraced_wall = time.monotonic() - started
    else:
        first, wall, records = closed_loop(run_cli, queries, args.start, args.seconds)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    calibration_s = calibrate()

    judged: dict[tuple, bool] = {}
    wrong = 0
    for index, _elapsed, outcome in records:
        key = (index, outcome)
        if key not in judged:
            ok = verdict_ok(queries[index], outcome)
            judged[key] = ok != (args.corrupt_expected and index == 0)
        wrong += isinstance(outcome, tuple) and not judged[key]

    result = {
        "first_query_at": first,
        "wall_s": wall,
        "next": (args.start + len(records)) % len(queries),
        "latencies_s": [e for _i, e, o in records if isinstance(o, tuple)],
        "attempted": len(records),
        "errors": sum(o == "error" for _i, _e, o in records),
        "over_budget": sum(o == "over_budget" for _i, _e, o in records),
        "wrong": wrong,
        "unknown": sum(isinstance(o, tuple) and o[0] == "UNKNOWN" for _i, _e, o in records),
        "peak_rss_mb": peak_rss_kb / 1024,
        "calibration_s": calibration_s,
    }
    if tracer is not None:
        result["trace"] = tracer.totals()
        result["untraced_wall_s"] = untraced_wall
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
