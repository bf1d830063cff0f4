"""Command-line front end: thresholds, constructions, solvers, and
verification as batch commands with machine-readable output.

Exit codes are a stable contract: 0 yes/pass, 1 no/fail, 2 usage error or
hypothesis violation, 3 resource abort.  Identical invocations (including
seed and worker count) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from .constructions import FAMILIES
from .errors import CapExceededError, Graph6Error, HypothesisError, ParameterRangeError
from .formats import encode_graph6, format_edge_list, parse_graph
from .graph import Graph
from .solvers import (
    chvatal_hampath_condition,
    equitable_colouring,
    krfree_greedy_packing,
    perfect_kr_packing,
    perfect_matching,
    square_hamilton_obstructions,
    turan_partition,
)
from .thresholds import (
    colouring_threshold,
    matching_threshold,
    packing_threshold,
    second_branch_bound_decreasing,
    second_branch_lower_bound,
    turan_edges,
)
from .verify import (
    audit_constructions,
    audit_instance,
    conjecture1_search,
    question1_search,
    verify_mainthm1_threshold,
    verify_matching_threshold,
    verify_t1_threshold,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_ABORT = 3


def _require(args: argparse.Namespace, *names: str) -> list:
    values = []
    for name in names:
        value = getattr(args, name)
        if value is None:
            raise ParameterRangeError(f"missing required option --{name}")
        values.append(value)
    return values


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(" ".join(f"{key}={value}" for key, value in payload.items()))


def _cmd_threshold(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind == "f2":
        n, d = _require(args, "n", "d")
        tv = matching_threshold(n, d)
        payload = {"value": tv.value, "branch": tv.branch}
    elif kind == "f":
        n, r, big_d = _require(args, "n", "r", "D")
        tv = colouring_threshold(n, r, big_d)
        payload = {"value": tv.value, "branch": tv.branch}
    elif kind == "g":
        n, r, big_d = _require(args, "n", "r", "D")
        tv = packing_threshold(n, r, big_d)
        payload = {"value": tv.value, "branch": tv.branch}
    elif kind == "turan":
        m, s = _require(args, "m", "s")
        payload = {"value": turan_edges(m, s)}
    else:  # appendix
        n, r = _require(args, "n", "r")
        if args.x is not None:
            payload = {"value": second_branch_lower_bound(n, r, args.x)}
        else:
            payload = {"decreasing": second_branch_bound_decreasing(n, r)}
    _emit(payload, args.format)
    return EXIT_YES


def _cmd_construct(args: argparse.Namespace) -> int:
    family = FAMILIES[args.family]
    params = {}
    for name in family.params:
        value = getattr(args, name)
        if value is None:
            raise ParameterRangeError(f"{args.family} requires --{name}")
        params[name] = value
    graph = family.build(**params)
    if not args.audit:
        if args.out == "edges":
            print(format_edge_list(graph), end="")
        else:
            print(encode_graph6(graph))
        return EXIT_YES
    problems = audit_instance(
        args.family, params, node_cap=args.node_cap, solver_cap=args.solver_cap
    )
    print(f"graph6: {encode_graph6(graph)}")
    print(f"vertices: {graph.n}")
    print(f"edges: {graph.edge_count}")
    if problems:
        for problem in problems:
            print(f"problem: {problem}")
        print("audit: fail")
        return EXIT_NO
    print("audit: ok")
    return EXIT_YES


def _read_graph(args: argparse.Namespace) -> Graph:
    if args.graph == "-":
        text = sys.stdin.read()
    else:
        with open(args.graph, encoding="utf-8") as handle:
            text = handle.read()
    return parse_graph(text, args.format)


def _print_blocks(blocks) -> None:
    for block in blocks:
        print(" ".join(str(v) for v in block))


def _cmd_solve(args: argparse.Namespace) -> int:
    graph = _read_graph(args)
    task = args.task
    if task == "matching":
        outcome = perfect_matching(graph, args.node_cap)
        if outcome.decision:
            _print_blocks(outcome.certificate.blocks)
        return EXIT_YES if outcome.decision else EXIT_NO
    if task == "pack":
        (r,) = _require(args, "r")
        outcome = perfect_kr_packing(graph, r, args.node_cap)
        if outcome.decision:
            _print_blocks(outcome.certificate.blocks)
        return EXIT_YES if outcome.decision else EXIT_NO
    if task == "colour":
        (k,) = _require(args, "k")
        outcome = equitable_colouring(graph, k, args.node_cap)
        if outcome.decision:
            _print_blocks(outcome.certificate.classes)
        return EXIT_YES if outcome.decision else EXIT_NO
    if task == "krfree":
        (r,) = _require(args, "r")
        outcome = krfree_greedy_packing(graph, r, args.node_cap)
        _print_blocks(outcome.certificate.blocks)
        return EXIT_YES
    if task == "turan-partition":
        (r,) = _require(args, "r")
        classes = turan_partition(graph, r, args.node_cap)
        _print_blocks(classes)
        return EXIT_YES
    if task == "chvatal":
        holds = chvatal_hampath_condition(graph)
        print(f"condition={'true' if holds else 'false'}")
        return EXIT_YES if holds else EXIT_NO
    # square-check
    obstructions = square_hamilton_obstructions(graph)
    if obstructions:
        print("obstructions: " + " ".join(str(v) for v in obstructions))
        return EXIT_NO
    print("obstructions: none")
    return EXIT_YES


def _cmd_verify(args: argparse.Namespace) -> int:
    predicate = args.predicate
    extra = {} if args.n_cap is None else {"n_cap": args.n_cap}
    common = dict(
        mode=args.mode,
        seed=args.seed,
        samples=args.samples,
        node_cap=args.node_cap,
        timing=args.timing,
        **extra,
    )
    if predicate == "matching":
        (n,) = _require(args, "n")
        report = verify_matching_threshold(n, d=args.d, **common)
    elif predicate == "t1":
        n, r = _require(args, "n", "r")
        report = verify_t1_threshold(n, r, big_d=args.D, **common)
    elif predicate == "mainthm1":
        n, r = _require(args, "n", "r")
        report = verify_mainthm1_threshold(n, r, big_d=args.D, **common)
    elif predicate == "conj1":
        n, r = _require(args, "n", "r")
        report = conjecture1_search(n, r, **common)
    elif predicate == "ques1":
        n, r = _require(args, "n", "r")
        report = question1_search(n, r, **common)
    else:  # audit
        report = audit_constructions(
            max_n=args.max_n,
            node_cap=args.node_cap,
            solver_cap=args.solver_cap,
            timing=args.timing,
        )
    print(report.to_json())
    return {"pass": EXIT_YES, "fail": EXIT_NO, "aborted": EXIT_ABORT}[report.status]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="packlab",
        description="exact thresholds, extremal constructions, decision "
        "solvers, and enumeration checks for clique packings and "
        "equitable colourings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_thr = sub.add_parser("threshold", help="evaluate a closed-form threshold")
    p_thr.add_argument("kind", choices=("f2", "f", "g", "turan", "appendix"))
    p_thr.add_argument("--n", type=int)
    p_thr.add_argument("--d", type=int)
    p_thr.add_argument("--r", type=int)
    p_thr.add_argument("--D", type=int)
    p_thr.add_argument("--m", type=int)
    p_thr.add_argument("--s", type=int)
    p_thr.add_argument("--x", type=float)
    p_thr.add_argument("--format", choices=("text", "json"), default="text")
    p_thr.set_defaults(func=_cmd_threshold)

    p_con = sub.add_parser("construct", help="emit an extremal construction")
    p_con.add_argument("family", choices=sorted(FAMILIES))
    p_con.add_argument("--n", type=int)
    p_con.add_argument("--d", type=int)
    p_con.add_argument("--r", type=int)
    p_con.add_argument("--D", type=int)
    p_con.add_argument("--j", type=int)
    p_con.add_argument("--k", type=int)
    p_con.add_argument("--C", type=int)
    p_con.add_argument("--K", type=int)
    p_con.add_argument("--out", choices=("graph6", "edges"), default="graph6")
    p_con.add_argument("--audit", action="store_true",
                       help="re-check the instance's claimed properties")
    p_con.add_argument("--node-cap", type=int, default=None)
    p_con.add_argument("--solver-cap", type=int, default=12)
    p_con.set_defaults(func=_cmd_construct)

    p_sol = sub.add_parser("solve", help="decide a property of an input graph")
    p_sol.add_argument(
        "task",
        choices=(
            "matching", "pack", "colour", "krfree", "turan-partition",
            "chvatal", "square-check",
        ),
    )
    p_sol.add_argument("graph", nargs="?", default="-",
                       help="input file, or - for stdin (default)")
    p_sol.add_argument("--r", type=int)
    p_sol.add_argument("--k", type=int)
    p_sol.add_argument("--format", choices=("graph6", "edges"), default=None,
                       help="input format (default: auto-detect)")
    p_sol.add_argument("--node-cap", type=int, default=None)
    p_sol.set_defaults(func=_cmd_solve)

    p_ver = sub.add_parser("verify", help="run an enumeration or audit task")
    p_ver.add_argument(
        "predicate",
        choices=("matching", "t1", "mainthm1", "conj1", "ques1", "audit"),
    )
    p_ver.add_argument("--n", type=int)
    p_ver.add_argument("--r", type=int)
    p_ver.add_argument("--d", type=int)
    p_ver.add_argument("--D", type=int)
    p_ver.add_argument("--mode", choices=("exhaustive", "sampled"),
                       default="exhaustive")
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--samples", type=int, default=None)
    p_ver.add_argument("--workers", type=int, default=1,
                       help="accepted for compatibility; has no effect")
    p_ver.add_argument("--node-cap", type=int, default=None)
    p_ver.add_argument("--n-cap", type=int, default=None)
    p_ver.add_argument("--max-n", type=int, default=120,
                       help="grid bound for the construction audit")
    p_ver.add_argument("--solver-cap", type=int, default=12)
    p_ver.add_argument("--timing", action="store_true",
                       help="record wall time (breaks byte-identical reruns)")
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterRangeError, HypothesisError, Graph6Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ABORT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
