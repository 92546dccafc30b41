"""The benchmark of ``cep order``: one command per workload, run from the
root of a source checkout.

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

It starts the workload process (``bench/workload.py``) several times in
a row, each a fresh interpreter that makes the seeded inputs and then
runs its share of the closed loop, continuing the query cycle where the
previous one stopped.  ``setup_s`` is the median time from spawning a
process to its first timed query.  End-to-end timings are scaled by the
host's speed, measured with a fixed calibration loop in every process;
the unscaled figures are printed beside them.  Every verdict is checked
against the input's known answer outside the timed region.  The last
line of standard output is one JSON object; with ``--trace 0`` it holds
the end-to-end metrics, with ``--trace 1`` the per-layer ones.  The
command exits non-zero when any verdict is wrong, a query raises, or a
workload process fails."""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("corpus", "ring_deep", "ring_wide", "knot")
PROCESSES = 8
# Each workload process may overrun its share by one query budget plus
# its set-up and checks; the whole command stays under three minutes.
DEADLINE_S = 170.0
SLACK_S = 45.0
# The host's speed drifts by a third between runs a minute apart, and a
# fixed calibration loop drifts with it.  End-to-end timings are scaled to
# a host on which that loop (``workload.calibrate``) takes this long.
REFERENCE_CALIBRATION_S = 0.2

BENCH_DIR = Path(__file__).resolve().parent


def percentile_tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: the
    eleventh largest latency, with its percentile level.  With ten or
    fewer samples it is the maximum, at level 100."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def spawn(args, root: Path, workdir: Path, seconds: float, start: int, timeout: float):
    env = dict(os.environ)
    paths = [str(root / "src"), str(BENCH_DIR), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    cmd = [
        sys.executable,
        str(BENCH_DIR / "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--trace", str(args.trace),
        "--start", str(start),
        "--workdir", str(workdir),
    ]
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"workload process ran past {timeout:.0f} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["first_query_at"] - spawned
    return result


def end_to_end(parts: list[dict]) -> tuple[dict, list[str]]:
    latencies = [x for p in parts for x in p["latencies_s"]]
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["errors"] + p["over_budget"] + p["wrong"] for p in parts)
    unknown = sum(p["unknown"] for p in parts)
    tail, level = percentile_tail(latencies)
    calibration = statistics.mean(p["calibration_s"] for p in parts)
    scale = REFERENCE_CALIBRATION_S / calibration
    raw = {
        "setup_s": statistics.median(p["setup_s"] for p in parts),
        "queries_per_s": len(latencies) / sum(p["wall_s"] for p in parts),
        "query_p50_ms": 1000 * statistics.median(latencies),
        "query_tail_ms": 1000 * tail,
    }
    metrics = {
        "setup_s": (scale * raw["setup_s"], "s"),
        "queries_per_s": (raw["queries_per_s"] / scale, "1/s"),
        "query_p50_ms": (scale * raw["query_p50_ms"], "ms"),
        "query_tail_ms": (scale * raw["query_tail_ms"], "ms"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in parts), "MB"),
        "ok_frac": (1 - failed / attempted, "1"),
        "decided_frac": (1 - unknown / attempted, "1"),
    }
    notes = [
        f"queries: {attempted} attempted, {len(latencies)} completed over "
        f"{len(parts)} processes",
        f"query_tail_ms is p{level:.2f} of {len(latencies)} samples",
        f"failed_frac: {failed / attempted:.6f} (1)",
        f"unknown_frac: {unknown / attempted:.6f} (1)",
        f"calibration loop: {calibration:.4f} s, timings scaled by {scale:.4f}; "
        "unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
    ]
    return metrics, notes


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(parts: list[dict]) -> tuple[dict, list[str]]:
    queries = sum(p["trace"]["queries"] for p in parts)
    query_s = sum(p["trace"]["query_s"] for p in parts)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    for p in parts:
        for bucket, into in (("self_s", self_s), ("calls", calls), ("counts", counts)):
            for key, value in p["trace"][bucket].items():
                into[key] = into.get(key, 0) + value
    traced_wall = sum(p["wall_s"] for p in parts)
    untraced_wall = sum(p["untraced_wall_s"] for p in parts)
    metrics = {name: (1000 * s / queries, "ms") for name, s in sorted(self_s.items())}
    closed = counts.get("decide_containment.closed", 0)
    revalidations = calls.get("language_value", 0) / 2
    builds = calls.get("build_antecedent_approx", 0)
    metrics.update(
        {
            "containment.configurations": (
                _ratio(counts.get("decide_containment.configurations", 0), closed), "count"),
            "containment.clamped_frac": (
                _ratio(counts.get("decide_containment.clamped", 0), closed), "1"),
            "containment.revalidations": (_ratio(revalidations, queries), "count"),
            "containment.refuted_per_revalidation": (
                _ratio(counts.get("decide_containment.refuted", 0), revalidations), "1"),
            "automata.antecedent_states": (
                _ratio(counts.get("build_antecedent_approx.states", 0), builds), "count"),
            "automata.antecedent_transitions": (
                _ratio(counts.get("build_antecedent_approx.transitions", 0), builds), "count"),
            "automata.antecedent_used_ratio": (
                _ratio(calls.get("decide_containment", 0), builds), "1"),
            "soundness.relations": (
                _ratio(counts.get("check_global_soundness.relations", 0),
                       calls.get("check_global_soundness", 0)), "count"),
            "restrictions.n_bound": (
                _ratio(counts.get("compute_thresholds.n_bound", 0),
                       calls.get("compute_thresholds", 0)), "count"),
            "proofgraph.delta_pairs": (
                _ratio(counts.get("load_proof.delta_pairs", 0), calls.get("load_proof", 0)),
                "count"),
            "trace.query_ms": (1000 * query_s / queries, "ms"),
            "trace.queries_per_s": (queries / traced_wall, "1/s"),
            "trace.untraced_queries_per_s": (queries / untraced_wall, "1/s"),
        }
    )
    notes = [f"traced queries: {queries}, closed lag-set explorations: {closed}"]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark of cep order")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt-expected",
        action="store_true",
        help="invert one known answer; the command must then fail",
    )
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cep" / "__init__.py").is_file():
        print(f"error: no cep sources under {root / 'src'}", file=sys.stderr)
        return 2
    workdir = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    began = time.monotonic()
    parts = []
    try:
        start = 0
        share = args.seconds / PROCESSES
        for k in range(PROCESSES):
            remaining = DEADLINE_S - (time.monotonic() - began)
            part = spawn(
                args, root, workdir / str(k), share, start,
                timeout=min(remaining, share + SLACK_S),
            )
            parts.append(part)
            start = part["next"]
        if not any(p["latencies_s"] for p in parts):
            raise RuntimeError("no query completed within its budget")
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (root / ".bench_work").rmdir()
        except OSError:
            pass

    metrics, notes = end_to_end(parts)
    if args.trace:
        metrics, trace_notes = per_layer(parts)
        notes += trace_notes
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    wrong = sum(p["wrong"] + p["errors"] for p in parts)
    failed = wrong + sum(p["over_budget"] for p in parts)
    print(
        json.dumps(
            {
                "correct": wrong == 0,
                "attempted": sum(p["attempted"] for p in parts),
                "failed": failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
