"""Command-line front end over the library.

Exit codes: 0 satisfied / success, 1 violated (witness printed), 2
usage or parse error, 3 enumeration budget exceeded.  Output is
deterministic: identical inputs and flags give identical bytes.
"""

import argparse
import json
import sys
from functools import cache

from .errors import (
    DEFAULT_BUDGET, BudgetExceededError, GaloisKitError, Meter, NotSeparableError,
)
from .operations import close_composition, close_perm_dummy
from .constraints import satisfies_constraint
from .clusters import ClusterVerdict, satisfies_cluster
from .galois import (
    GaloisConfig,
    c_pol,
    cl_inv,
    f_pol,
    gc_inv,
    separating_cluster,
    separating_constraint,
)
from .textio import (
    HEADER,
    Workspace,
    format_class,
    format_cluster,
    format_constraint,
    format_matrix,
    format_multiset,
    parse_workspace_file,
)
from .verify import SUITE_NAMES, run_suite

__all__ = ["main"]


class _Reporter:
    """Collects (key, value) fields; renders text or json-lines."""

    def __init__(self, fmt):
        self.fmt = fmt
        self.fields = []

    def add(self, key, value):
        self.fields.append((key, str(value)))

    def raw(self, line):
        # pre-formatted entity/file line, emitted verbatim in text mode
        self.fields.append(("line", line))

    def emit(self, out=None):
        if out is None:
            out = sys.stdout
        for key, value in self.fields:
            if self.fmt == "json-lines":
                out.write(json.dumps({key: value}) + "\n")
            elif key == "line":
                out.write(value + "\n")
            else:
                out.write(f"{key}: {value}\n")


def _load_workspace(paths):
    ws = Workspace()
    for path in paths or []:
        parse_workspace_file(path, ws)
    return ws


def _names(text):
    return [n for n in text.split(",") if n]


def _report_witness(report, verdict):
    """The witness lines of a violated constraint or cluster verdict."""
    if verdict:
        return
    if isinstance(verdict, ClusterVerdict):
        m1, m2, out = verdict.witness
        report.raw(format_matrix("witness.applied", m1))
        report.raw(format_multiset("witness.rest", m2))
        report.raw(format_multiset("witness.output", out))
    else:
        report.raw(format_matrix("witness", verdict.witness))


def cmd_satisfies(args, report):
    ws = _load_workspace(args.workspace)
    f = ws.get("operation", args.fn)
    if (args.constraint is None) == (args.cluster is None):
        raise GaloisKitError("give exactly one of --constraint / --cluster")
    if args.constraint is not None:
        c = ws.get("constraint", args.constraint)
        verdict = satisfies_constraint(f, c)
        report.add("check", f"satisfies {args.fn} constraint {args.constraint}")
    else:
        cluster = ws.get("cluster", args.cluster)
        breadth = args.breadth if args.breadth is not None else max(f.arity, 4)
        verdict = satisfies_cluster(f, cluster, breadth)
        report.add("check", f"satisfies {args.fn} cluster {args.cluster}")
        report.add("breadth", breadth)
    report.add("satisfied", "yes" if verdict else "no")
    _report_witness(report, verdict)
    return 0 if verdict else 1


_CLOSE_OPS = {
    frozenset({"zeta", "tau", "nabla"}): close_perm_dummy,
    frozenset({"zeta", "tau", "nabla", "star"}): close_composition,
}


def cmd_close(args, report):
    ws = _load_workspace(args.workspace)
    cls_ = ws.get("class", args.cls)
    ops = frozenset(_names(args.ops))
    if ops not in _CLOSE_OPS:
        raise GaloisKitError(
            "supported op sets: zeta,tau,nabla (variable permutation and "
            "dummy addition) or zeta,tau,nabla,star (full composition)"
        )
    closed = _CLOSE_OPS[ops](cls_, args.cap)
    report.raw(HEADER)
    report.raw(
        f"# bounded-arity closure: closed only up to arity {args.cap}; "
        "larger-arity consequences are not represented"
    )
    report.raw(format_class(args.cls + ".closed", closed))
    return 0


def _config(args, domain_size, codomain_size):
    return GaloisConfig(
        domain_size,
        n_max=args.cap,
        m_max=args.m_max,
        breadth=args.breadth if args.breadth is not None else max(args.cap, 2),
        codomain_size=codomain_size,
    )


def cmd_inv(args, report):
    ws = _load_workspace(args.workspace)
    cls_ = ws.get("class", args.cls)
    cfg = _config(args, cls_.domain_size, cls_.codomain_size)
    # answer first, so that a refusal or error prints no workspace lines
    if args.kind == "constraint":
        invariants, fmt = gc_inv(cls_, cfg), format_constraint
    else:
        invariants, fmt = cl_inv(cls_, cfg), format_cluster
    report.raw(HEADER)
    report.raw(
        f"# invariants at bounded caps (arity <= {cfg.n_max}); the emitted "
        "family generates the Galois-closed class at matching caps"
    )
    for i, entity in enumerate(invariants):
        report.raw(fmt(f"{args.cls}.inv{i}", entity))
    return 0


def cmd_pol(args, report):
    ws = _load_workspace(args.workspace)
    names = _names(args.names)
    if not names:
        raise GaloisKitError("--names must list at least one entity")
    entities = [ws.get(args.kind, n) for n in names]
    k = entities[0].domain_size
    if args.kind == "constraint":
        result = f_pol(entities, _config(args, k, entities[0].codomain_size))
    else:
        result = c_pol(entities, _config(args, k, k))
    report.raw(HEADER)
    report.raw(format_class("pol", result))
    return 0


def cmd_separate(args, report):
    ws = _load_workspace(args.workspace)
    cls_ = ws.get("class", args.cls)
    g = ws.get("operation", args.fn)
    try:
        if args.kind == "constraint":
            c = separating_constraint(cls_, g)
            report.raw(HEADER)
            report.raw(format_constraint("separator", c))
            verdict = satisfies_constraint(g, c)
        else:
            cfg = _config(args, cls_.domain_size, cls_.codomain_size)
            cluster = separating_cluster(cls_, g, cfg)
            report.raw(HEADER)
            report.raw(format_cluster("separator", cluster))
            verdict = satisfies_cluster(g, cluster, max(cfg.breadth, g.arity))
    except NotSeparableError as e:
        report.add("separated", "no")
        report.add("reason", str(e))
        return 1
    report.add("separated", "yes" if not verdict else "no")
    _report_witness(report, verdict)
    return 0


def cmd_verify(args, report):
    passed, results = run_suite(args.suite)
    for r in results:
        report.add("result", r.line())
    report.add("suite", args.suite)
    report.add("passed", "yes" if passed else "no")
    return 0 if passed else 1


def _budget(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"budget must be nonnegative, got {value}")
    return value


@cache
def _build_parser():
    """The parser, built on the first call and reused for the process.

    Parsing leaves the parser unchanged: each call fills a fresh
    namespace from the defaults, and ``-w`` starts from None every time.
    """
    parser = argparse.ArgumentParser(
        prog="galois-kit",
        description="Finite-domain Galois connections between function "
        "classes, generalized constraints, and clusters.",
    )
    parser.add_argument(
        "--format", choices=("text", "json-lines"), default="text"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, breadth=True):
        p.add_argument("--workspace", "-w", action="append", metavar="FILE",
                       help="input file (repeatable)")
        p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
        p.add_argument("--stats", action="store_true",
                       help="print the work meter's steps per phase")
        if breadth:
            p.add_argument("--breadth", type=int, default=None)

    p = sub.add_parser("satisfies", help="check one function against one "
                       "constraint or cluster")
    common(p)
    p.add_argument("--fn", required=True)
    p.add_argument("--constraint")
    p.add_argument("--cluster")
    p.set_defaults(run=cmd_satisfies)

    p = sub.add_parser("close", help="close a class under table rewrites "
                       "up to an arity cap")
    common(p, breadth=False)
    p.add_argument("--class", dest="cls", required=True)
    p.add_argument("--ops", required=True,
                   help="comma list: zeta,tau,nabla[,star]")
    p.add_argument("--cap", type=int, required=True)
    p.set_defaults(run=cmd_close)

    p = sub.add_parser("inv", help="invariant constraints or clusters of a class")
    common(p)
    p.add_argument("--class", dest="cls", required=True)
    p.add_argument("--kind", choices=("constraint", "cluster"), required=True)
    p.add_argument("--cap", type=int, required=True)
    p.add_argument("--m-max", type=int, default=2)
    p.set_defaults(run=cmd_inv)

    p = sub.add_parser("pol", help="all bounded-arity functions satisfying "
                       "named constraints or clusters")
    common(p)
    p.add_argument("--kind", choices=("constraint", "cluster"), required=True)
    p.add_argument("--names", required=True)
    p.add_argument("--cap", type=int, required=True)
    p.add_argument("--m-max", type=int, default=2)
    p.set_defaults(run=cmd_pol)

    p = sub.add_parser("separate", help="build a separating constraint or "
                       "cluster for a function outside a class")
    common(p)
    p.add_argument("--class", dest="cls", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--kind", choices=("constraint", "cluster"), required=True)
    p.add_argument("--cap", type=int, default=2)
    p.add_argument("--m-max", type=int, default=2)
    p.set_defaults(run=cmd_separate)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=SUITE_NAMES)
    # the fixed suites take no --budget and run without one
    p.set_defaults(run=cmd_verify, budget=float("inf"), stats=False)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    report = _Reporter(args.format)
    meter = Meter(args.budget)
    try:
        with meter:  # every call the command makes charges it
            code = args.run(args, report)
    except BudgetExceededError as e:
        report.add("error", str(e))
        code = 3
    except (GaloisKitError, OSError) as e:
        report.add("error", str(e))
        code = 2
    if args.stats:
        for phase in sorted(meter.done):
            report.add("stats." + phase.replace(" ", "_"), meter.done[phase])
    report.emit()
    return code


if __name__ == "__main__":
    sys.exit(main())
