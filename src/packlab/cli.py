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
    if kind in ("f2", "f", "g"):
        threshold, names = {
            "f2": (matching_threshold, ("n", "d")),
            "f": (colouring_threshold, ("n", "r", "D")),
            "g": (packing_threshold, ("n", "r", "D")),
        }[kind]
        tv = threshold(*_require(args, *names))
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


# task: (solver, required options, certificate field printed on a yes);
# krfree's greedy packer answers yes or raises
_DECIDERS = {
    "matching": (perfect_matching, (), "blocks"),
    "pack": (perfect_kr_packing, ("r",), "blocks"),
    "colour": (equitable_colouring, ("k",), "classes"),
    "krfree": (krfree_greedy_packing, ("r",), "blocks"),
}

# predicate: (verifier, required options, {keyword: degree option})
_VERIFIERS = {
    "matching": (verify_matching_threshold, ("n",), {"d": "d"}),
    "t1": (verify_t1_threshold, ("n", "r"), {"big_d": "D"}),
    "mainthm1": (verify_mainthm1_threshold, ("n", "r"), {"big_d": "D"}),
    "conj1": (conjecture1_search, ("n", "r"), {}),
    "ques1": (question1_search, ("n", "r"), {}),
}


def _cmd_solve(args: argparse.Namespace) -> int:
    graph = _read_graph(args)
    task = args.task
    if task in _DECIDERS:
        solver, names, field = _DECIDERS[task]
        outcome = solver(graph, *_require(args, *names), args.node_cap)
        if outcome.decision:
            _print_blocks(getattr(outcome.certificate, field))
        return EXIT_YES if outcome.decision else EXIT_NO
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
    if args.predicate == "audit":
        report = audit_constructions(
            max_n=args.max_n,
            node_cap=args.node_cap,
            solver_cap=args.solver_cap,
            timing=args.timing,
        )
    else:
        verifier, names, degree = _VERIFIERS[args.predicate]
        extra = {keyword: getattr(args, option) for keyword, option in degree.items()}
        if args.n_cap is not None:
            extra["n_cap"] = args.n_cap
        report = verifier(
            *_require(args, *names),
            mode=args.mode,
            seed=args.seed,
            samples=args.samples,
            node_cap=args.node_cap,
            timing=args.timing,
            **extra,
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
    for name in dict.fromkeys(p for family in FAMILIES.values() for p in family.params):
        p_con.add_argument(f"--{name}", type=int)
    p_con.add_argument("--out", choices=("graph6", "edges"), default="graph6")
    p_con.add_argument("--audit", action="store_true",
                       help="re-check the instance's claimed properties")
    p_con.add_argument("--node-cap", type=int, default=None)
    p_con.add_argument("--solver-cap", type=int, default=12)
    p_con.set_defaults(func=_cmd_construct)

    p_sol = sub.add_parser("solve", help="decide a property of an input graph")
    p_sol.add_argument("task", choices=(*_DECIDERS, "turan-partition", "chvatal",
                                        "square-check"))
    p_sol.add_argument("graph", nargs="?", default="-",
                       help="input file, or - for stdin (default)")
    p_sol.add_argument("--r", type=int)
    p_sol.add_argument("--k", type=int)
    p_sol.add_argument("--format", choices=("graph6", "edges"), default=None,
                       help="input format (default: auto-detect)")
    p_sol.add_argument("--node-cap", type=int, default=None)
    p_sol.set_defaults(func=_cmd_solve)

    p_ver = sub.add_parser("verify", help="run an enumeration or audit task")
    p_ver.add_argument("predicate", choices=(*_VERIFIERS, "audit"))
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
    except (ParameterRangeError, HypothesisError, Graph6Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    raise SystemExit(main())
