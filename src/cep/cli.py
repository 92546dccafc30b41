"""Command-line front end: batch analyses over proof files with stable,
machine-readable reports.

Reports carry the echoed command, a content digest of each input, and the
command's verdict payload in a fixed field order, so identical inputs
produce byte-identical reports; wall-clock timing is added only on
request (``--timing``) to keep the default output reproducible."""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import os
import sys
import time

from .automata import (
    TracePairQuery,
    automaton_from_json,
    automaton_to_json,
    build_antecedent_approx,
    build_antecedent_full,
    build_consequent,
    export_dot,
    to_json,
)
from .containment import check_bounds, decide_containment, oracle_compare
from .decision import ORDER_STATUS, decide_order, definition_oracle
from .proofgraph import ProofParseError, check_structure, load_proof, validate
from .restrictions import check_all_restrictions, compute_thresholds
from .soundness import check_global_soundness
from .traces import (
    enumerate_right_maximal,
    simple_binary_cycles,
    simple_cycles,
    walk_json,
)

__all__ = ["main", "run_cli"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FAIL = 3
EXIT_NOT_APPLICABLE = 4
EXIT_UNKNOWN = 5
EXIT_OF = {
    "HOLDS": EXIT_OK,
    "FAILS": EXIT_FAIL,
    "NOT_APPLICABLE": EXIT_NOT_APPLICABLE,
    "UNKNOWN": EXIT_UNKNOWN,
}

log = logging.getLogger("cep")


def _digest(path: str) -> dict:
    with open(path, "rb") as fh:
        data = fh.read()
    return {"path": path, "sha256": hashlib.sha256(data).hexdigest()}


def _echo(argv) -> list[str]:
    """The command echo without ``--timing``, so reports with and without
    timing differ only in the timing field."""
    return [token for token in argv if token != "--timing"]


def _query_from_args(args) -> TracePairQuery:
    return TracePairQuery(node=args.node, ant_value=args.ant, con_value=args.con)


def _emit(args, report: dict, human: list[str]) -> None:
    if args.json:
        print(json.dumps(report, indent=2, ensure_ascii=False))
    else:
        for line in human:
            print(line)


def _cmd_validate(args) -> tuple[int, dict, list[str]]:
    proof = load_proof(args.file)
    report = validate(proof)
    payload = {**to_json(report), "nodes": len(proof.nodes)}
    code = EXIT_OK if report.ok else EXIT_FAIL
    human = [
        f"nodes: {len(proof.nodes)}",
        f"trace_injective: {report.trace_injective}",
        f"violations: {len(report.violations)}",
    ] + [f"  [{v.kind}] {v.location}: {v.detail}" for v in report.violations]
    return code, payload, human


def _cmd_soundness(args) -> tuple[int, dict, list[str]]:
    proof = load_proof(args.file)
    check_structure(proof)
    report = check_global_soundness(proof)
    payload = {"verdict": report.verdict}
    human = [f"global soundness: {report.verdict}"]
    if report.witness is not None:
        payload["witness"] = to_json(report.witness)
        human.append(f"  lasso prefix: {' '.join(report.witness.prefix)}")
        human.append(f"  lasso cycle:  {' '.join(report.witness.cycle)}")
    return (EXIT_OK if report.sound else EXIT_FAIL), payload, human


def _cmd_traces(args) -> tuple[int, dict, list[str]]:
    proof = load_proof(args.file)
    if args.cycles:
        if args.cycles == "binary":
            cycles = simple_binary_cycles(proof)
        else:
            cycles = simple_cycles(proof, args.cycles)
        found = [walk_json(cycle) for cycle in cycles]
        payload = {"cycles": found, "kind": args.cycles}
        human = [f"simple cycles ({args.cycles}): {len(found)}"] + [
            f"  {' '.join(c['path'])} / {' '.join(c['trace'])}" for c in found
        ]
        return EXIT_OK, payload, human
    if not args.node or not args.value:
        raise ValueError("traces requires --node and --value (or --cycles)")
    found = [
        walk_json(walk)
        for walk in enumerate_right_maximal(proof, args.node, args.value, args.max_len)
    ]
    payload = {
        "node": args.node,
        "value": args.value,
        "max_path_len": args.max_len,
        "maximal_traces": found,
    }
    human = [f"positive maximal right-hand traces (paths <= {args.max_len}): {len(found)}"] + [
        f"  {' '.join(c['path'])} / {' '.join(c['trace'])}" for c in found
    ]
    return EXIT_OK, payload, human


def _cmd_automata(args) -> tuple[int, dict, list[str]]:
    proof = load_proof(args.file)
    query = _query_from_args(args)
    if args.consequent:
        auto = build_consequent(proof, query)
    elif args.approx is not None:
        auto = build_antecedent_approx(proof, query, args.approx)
    else:
        auto = build_antecedent_full(proof, query)
    auto = auto.table()
    payload = {
        "kind": auto.kind,
        "approx_level": auto.approx_level,
        "states": len(auto.states),
        "reachable_states": len(auto.reachable_states()),
        "finals": len(auto.finals),
        "transitions": sum(len(t) for t in auto.transitions.values()),
    }
    human = [f"{k}: {v}" for k, v in payload.items()]
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(export_dot(auto))
        payload["dot"] = args.dot
        human.append(f"dot written to {args.dot}")
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            fh.write(automaton_to_json(auto))
        payload["save"] = args.save
        human.append(f"automaton written to {args.save}")
    return EXIT_OK, payload, human


def _cmd_restrictions(args) -> tuple[int, dict, list[str]]:
    proof = load_proof(args.file)
    query = _query_from_args(args)
    reports = check_all_restrictions(proof, query)
    thresholds = compute_thresholds(proof, query)
    payload = {"checks": to_json(reports), "thresholds": to_json(thresholds)}
    human = [f"{r.name}: {'pass' if r.passed else 'FAIL'}" for r in reports]
    human.append(f"thresholds: {json.dumps(payload['thresholds'])}")
    code = EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL
    return code, payload, human


def _cmd_contain(args) -> tuple[int, dict, list[str]]:
    with open(args.b, "rb") as fh:
        b = automaton_from_json(fh.read())
    with open(args.a, "rb") as fh:
        a = automaton_from_json(fh.read())
    check_bounds(args.lag_cap, args.oracle_len)
    if args.engine == "oracle":
        verdict = oracle_compare(b, a, args.strict, args.oracle_len)
    else:
        verdict = decide_containment(b, a, args.strict, lag_cap=args.lag_cap)
    payload = to_json(verdict)
    human = [f"containment ({'<' if args.strict else '<='}): {verdict.status}"]
    if verdict.counterexample is not None:
        human.append(
            "  counterexample: " + " ".join(str(l) for l in verdict.counterexample)
        )
        human.append(f"  values: {verdict.lhs_value} vs {verdict.rhs_value}")
    return EXIT_OF[ORDER_STATUS[verdict.status]], payload, human


def _cmd_order(args) -> tuple[int, dict, list[str]]:
    proof = load_proof(args.file)
    query = _query_from_args(args)
    verdict = decide_order(
        proof,
        query,
        strict=args.strict,
        engine=args.engine,
        lag_cap=args.lag_cap,
        oracle_len=args.oracle_len,
    )
    payload = to_json(verdict)
    rel = "<" if args.strict else "<="
    human = [
        f"{query.con_value} {rel} {query.ant_value} at {query.node}: {verdict.status}"
    ]
    for reason in verdict.reasons:
        if not reason.get("ok", True):
            human.append(f"  {reason['stage']}: failed")
    return EXIT_OF[verdict.status], payload, human


def _cmd_oracle(args) -> tuple[int, dict, list[str]]:
    proof = load_proof(args.file)
    query = _query_from_args(args)
    outcome = definition_oracle(
        proof, query, strict=args.strict, max_path_len=args.max_len
    )
    payload = to_json(outcome)
    if outcome.ok:
        human = [f"no counterexample up to path length {outcome.max_path_len}"]
        return EXIT_OK, payload, human
    human = [
        "counterexample trace: "
        + " ".join(outcome.counterexample["trace"])
        + " along "
        + " ".join(outcome.counterexample["path"])
    ]
    return EXIT_FAIL, payload, human


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``cep`` parser, built on first use and shared by every later
    call in the process; each subcommand's ``run`` default is its handler."""
    parser = argparse.ArgumentParser(
        prog="cep",
        description="analyses of cyclic entailment proofs: soundness, "
        "trace automata, and trace value orderings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        return p

    def engine_options(p):
        p.add_argument("--strict", action="store_true")
        p.add_argument("--engine", choices=["lagset", "oracle"], default="lagset")
        p.add_argument(
            "--lag-cap",
            type=int,
            default=64,
            dest="lag_cap",
            help="ceiling of the lag-set window cap: the search runs at caps 1, "
            "2, 4, ... and doubles only while a clamp could change the verdict "
            "(default 64)",
        )
        p.add_argument("--oracle-len", type=int, default=12, dest="oracle_len")

    def common(p, with_query=False):
        p.add_argument("--json", action="store_true", help="machine-readable report")
        p.add_argument(
            "--timing", action="store_true", help="include wall-clock timing"
        )
        if with_query:
            p.add_argument("--node", required=True, help="query node id")
            p.add_argument("--ant", required=True, help="antecedent trace value")
            p.add_argument("--con", required=True, help="consequent trace value")

    p = command("validate", _cmd_validate, "structural validation report")
    p.add_argument("file")
    common(p)

    p = command("soundness", _cmd_soundness, "global soundness verdict")
    p.add_argument("file")
    common(p)

    p = command("traces", _cmd_traces, "enumerate maximal traces or cycles")
    p.add_argument("file")
    p.add_argument("--node", help="root node for trace enumeration")
    p.add_argument("--value", help="first consequent trace value")
    p.add_argument("--max-len", type=int, default=8, dest="max_len")
    p.add_argument(
        "--cycles", choices=["left", "right", "binary"], help="list simple cycles"
    )
    common(p)

    p = command("automata", _cmd_automata, "build and export trace automata")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--consequent", action="store_true")
    group.add_argument("--full", action="store_true")
    group.add_argument("--approx", type=int, default=None, metavar="N")
    p.add_argument("--dot", help="write DOT rendering to this path")
    p.add_argument("--save", help="write automaton JSON to this path")
    common(p, with_query=True)

    p = command("restrictions", _cmd_restrictions, "structural restriction checks")
    p.add_argument("file")
    common(p, with_query=True)

    p = command("contain", _cmd_contain, "containment between automaton files")
    p.add_argument("b", help="left automaton (JSON, as written by --save)")
    p.add_argument("a", help="right automaton (JSON)")
    engine_options(p)
    common(p)

    p = command("order", _cmd_order, "decide the trace value ordering")
    p.add_argument("file")
    engine_options(p)
    common(p, with_query=True)

    p = command("oracle", _cmd_oracle, "bounded definition-level check of the ordering")
    p.add_argument("file")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--max-len", type=int, default=10, dest="max_len")
    common(p, with_query=True)

    return parser


def run_cli(argv=None) -> int:
    level = os.environ.get("CEP_LOG", "WARNING").upper()
    if not isinstance(logging.getLevelName(level), int):
        print(f"error: CEP_LOG: unknown logging level {level!r}", file=sys.stderr)
        return EXIT_USAGE
    logging.basicConfig(level=level)
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    started = time.monotonic()
    try:
        code, payload, human = args.run(args)
    except (ProofParseError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    inputs = []
    for attr in ("file", "b", "a"):
        path = getattr(args, attr, None)
        if path:
            inputs.append(_digest(path))
    report = {
        "command": _echo(argv if argv is not None else sys.argv[1:]),
        "input": inputs,
        "report": payload,
        "exit_code": code,
    }
    if args.timing:
        report["timing_ms"] = round(1000 * (time.monotonic() - started), 3)
    _emit(args, report, human)
    return code


def main() -> None:
    sys.exit(run_cli())
