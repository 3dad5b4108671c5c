"""Command-line surface.

Subcommands:
  analyze <spec> [--json PATH] [--dot PATH] [--max-order N]
  construct <family> <params...> -o PATH
  gamma <n1,n2,...> [--dot PATH]
  verify [--corpus DIR] [--schur-cover PATH]

Exit codes: 0 success, 1 invalid input, 2 verification failure,
3 resource cap exceeded.  CONJLAB_MAX_ORDER mirrors --max-order (the
flag wins).
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys

from . import classgraph, families, specio
from .errors import CapExceeded, ConjlabError, SpecFileError
from .groups import DEFAULT_MAX_ORDER

# conjlab.verify is bound now and run at its first attribute read (importlib's
# LazyLoader): only the verify command reads it, so no other compiles it.  One
# imported already is kept, or its classes would exist twice and not pickle.
verify = sys.modules.get(f"{__package__}.verify")
if verify is None:
    _spec = importlib.util.find_spec(f"{__package__}.verify")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    verify = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(verify)
    setattr(sys.modules[__package__], "verify", verify)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VERIFY_FAILED = 2
EXIT_CAP = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="conjlab",
                     description="conjugacy class sizes, cover digraphs, "
                                 "and SP-group classification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze a group-spec file")
    p.add_argument("spec", help="path to a group-spec JSON file")
    p.add_argument("--json", dest="json_path", help="write the analysis report as JSON")
    p.add_argument("--dot", dest="dot_path", help="write Gamma(N(G)) in DOT format")
    p.add_argument("--max-order", type=int, default=None)

    p = sub.add_parser("construct", help="write a family member as a group-spec file")
    p.add_argument("family", help=f"one of {sorted(families.FAMILIES)}")
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--max-order", type=int, default=None)

    p = sub.add_parser("gamma", help="build the divisibility-cover digraph of a set")
    p.add_argument("members", help="comma-separated integers > 1, e.g. 3,6,8")
    p.add_argument("--dot", dest="dot_path")

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--corpus", dest="corpus_dir", default=None,
                   help="directory of expectations.json and the group specs "
                        "it names (default: the bundled corpus)")
    p.add_argument("--schur-cover", dest="schur_cover", default=None,
                   help="generator file for the order-2160 cover of PSL(2, 9)")
    # No effect: the report does not depend on a seed.  perfbench/run.py still
    # runs `verify --seed N`, so the option stays until the benchmark drops it.
    p.add_argument("--seed", type=int, default=None, help=argparse.SUPPRESS)
    return parser


def _max_order(args) -> int:
    cap, source = getattr(args, "max_order", None), "--max-order"
    if cap is None:
        env = os.environ.get("CONJLAB_MAX_ORDER")
        if not env:
            return DEFAULT_MAX_ORDER
        try:
            cap, source = int(env), "CONJLAB_MAX_ORDER"
        except ValueError as exc:
            raise _UsageError(f"CONJLAB_MAX_ORDER={env!r} is not an integer") from exc
    if cap < 1:
        raise _UsageError(f"{source} must be a positive integer, got {cap}")
    return cap


def _cmd_analyze(args, out) -> int:
    group = specio.load_group_spec(args.spec, max_order=_max_order(args))
    report = specio.analysis_report(group)
    _print_report(report, out)
    if args.json_path:
        with open(args.json_path, "wb") as fh:
            fh.write(specio.report_json(report))
    if args.dot_path:
        gamma = classgraph.CoverDigraph(
            tuple(report["gamma"]["vertices"]),
            tuple(tuple(e) for e in report["gamma"]["edges"]))
        with open(args.dot_path, "wb") as fh:
            fh.write(classgraph.export(gamma))
    return EXIT_OK


def _print_report(report: dict, out) -> None:
    pred = report["predicates"]
    cls = report["classification"]
    print(f"group      : {report['name']}", file=out)
    print(f"order      : {report['order']}  (center {report['center_order']})", file=out)
    print(f"class sizes: {report['class_sizes']}", file=out)
    print(f"N(G)       : {report['N']}  (rank {report['rank']})", file=out)
    edges = ", ".join(f"{a} -> {b}" for a, b in report["gamma"]["edges"]) or "(none)"
    print(f"gamma edges: {edges}", file=out)
    flags = ", ".join(f"{k}={pred[k]}" for k in ("sp", "ch", "ca", "f"))
    print(f"predicates : {flags}", file=out)
    if pred["sp_witness"]:
        print(f"sp witness : {tuple(pred['sp_witness'])} (divisor pair in N)", file=out)
    print(f"verdict    : {cls['verdict']}", file=out)
    if cls["evidence"]:
        print(f"evidence   : {cls['evidence']}", file=out)
    if cls["all_matching"] and len(cls["all_matching"]) > 1:
        print(f"also fits  : {cls['all_matching']}", file=out)


def _cmd_construct(args, out) -> int:
    group = families.build_family(args.family, *args.params, max_order=_max_order(args))
    specio.write_group_spec(group, args.output)
    print(f"wrote {args.family}{tuple(args.params)} "
          f"(order {group.order()}) to {args.output}", file=out)
    return EXIT_OK


def _cmd_gamma(args, out) -> int:
    try:
        members = [int(tok) for tok in args.members.split(",") if tok.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad member list {args.members!r}") from exc
    if not members:
        raise _UsageError("need at least one integer")
    graph = classgraph.build_gamma(members)
    primitive = classgraph.is_primitive(members)
    print(f"vertices: {list(graph.vertices)}", file=out)
    if graph.edges:
        for a, b in graph.edges:
            print(f"edge: {a} -> {b}", file=out)
    else:
        print("edges: (none)", file=out)
    print(f"primitive: {str(primitive).lower()}", file=out)
    if args.dot_path:
        with open(args.dot_path, "wb") as fh:
            fh.write(classgraph.export(graph))
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    corpus = None
    if args.corpus_dir:
        corpus = verify.load_corpus_dir(args.corpus_dir)
    reports = verify.run_all(corpus=corpus, schur_path=args.schur_cover)
    failed = 0
    for report in reports:
        for line in report.lines():
            print(line, file=out)
        failed += len(report.failures)
    print(f"total: {'OK' if not failed else f'{failed} FAILURE(S)'}", file=out)
    return EXIT_OK if not failed else EXIT_VERIFY_FAILED


def run_command(argv, out=None, err=None) -> int:
    """Parse argv and run one subcommand; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "analyze":
            return _cmd_analyze(args, out)
        if args.command == "construct":
            return _cmd_construct(args, out)
        if args.command == "gamma":
            return _cmd_gamma(args, out)
        if args.command == "verify":
            return _cmd_verify(args, out)
        raise _UsageError(f"unknown command {args.command!r}")
    except (_UsageError, SpecFileError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_INVALID
    except CapExceeded as exc:
        print(f"error: {exc}", file=err)
        return EXIT_CAP
    except ConjlabError as exc:
        print(f"internal error: {exc}", file=err)
        return EXIT_VERIFY_FAILED


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
