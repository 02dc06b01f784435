"""Command-line interface: moments, verify-rule, bound, integrate, sandwich.

Exit codes: 0 success, 1 invariant/verification failure or out of
memory, 2 parse or IO error, 3 refinement budget exhausted.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import adaptive as adaptive_mod
from . import bounds as bounds_mod
from . import cubature as cubature_mod
from . import field as field_mod
from . import geometry, moments
from .errors import (ArityError, BudgetExhausted, CerticubeError,
                     ParseError, RuleNotApplicable, UnknownRule)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3


def _fmt(x):
    return format(float(x), ".17g")


@functools.cache  # built once per process: argparse set-up is slow
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="certicube",
        description="Certified integration on simplices.")
    parser.add_argument("--threads", type=int, default=os.cpu_count(),
                        help="accepted and ignored: output is the same "
                             "for every value")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="print unit-simplex moment table")
    p.add_argument("--dim", type=int, required=True)

    p = sub.add_parser("verify-rule", help="verify a cubature rule file")
    p.add_argument("rule_file")

    p = sub.add_parser("sandwich", help="convex lower/upper integral bounds")
    p.add_argument("--expr", required=True)
    p.add_argument("--simplex", required=True)
    p.add_argument("--screen", action="store_true",
                   help="reject non-convex fields by Hessian sampling")

    p = sub.add_parser("bound", help="single-shot certified bound")
    p.add_argument("--rule", required=True,
                   help="built-in rule name or rule file path")
    p.add_argument("--expr", required=True)
    p.add_argument("--simplex", required=True)
    p.add_argument("--K", type=float, default=None,
                   help="analytic curvature constant (certified)")

    p = sub.add_parser("integrate", help="adaptive certified integration")
    p.add_argument("--expr", required=True)
    p.add_argument("--simplex", required=True)
    p.add_argument("--tol", type=float, required=True)
    p.add_argument("--rule", default=None,
                   help="built-in rule name or file (default: midpoint)")
    p.add_argument("--max-cells", type=int, default=10 ** 6)
    p.add_argument("--K", type=float, default=None)
    p.add_argument("--k-mode", choices=("per-cell", "global"),
                   default="per-cell")
    p.add_argument("--report", default=None,
                   help="write a refinement report to this path")
    return parser


def _load_rule_arg(name, n):
    if name in cubature_mod.BUILTIN_NAMES:
        return cubature_mod.builtin(name, n)
    return cubature_mod.load_rule(name)


def _print_certified(result, out):
    print(f"estimate: {_fmt(result.estimate)}", file=out)
    print(f"radius:   {_fmt(result.radius)}", file=out)
    print(f"K:        {_fmt(result.K_used)} "
          f"(certified: {'yes' if result.K_certified else 'no'})", file=out)
    lo, hi = result.interval
    print(f"interval: [{_fmt(lo)}, {_fmt(hi)}]", file=out)
    print(f"cells:    {result.cells}", file=out)


def _cmd_moments(args, out):
    table = moments.moment_table(args.dim)
    rows = [
        ("volume", table.volume),
        ("first moment", table.first),
        ("square moment", table.square),
        ("mixed moment", table.mixed),
        ("central second moment", table.central_scalar),
        ("central matrix diag", table.central_matrix[0][0]),
    ]
    if args.dim >= 2:
        rows.append(("central matrix offdiag", table.central_matrix[0][1]))
    print(f"unit simplex moments, dimension {table.dimension}", file=out)
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"  {name:<{width}}  {_fmt(value):<24} {value}", file=out)
    return EXIT_OK


def _cmd_verify_rule(args, out):
    rule = cubature_mod.load_rule(args.rule_file)
    report = cubature_mod.verify(rule)
    yn = lambda flag: "yes" if flag else "no"
    print(f"exactness: {report.exactness_degree}, "
          f"positive: {yn(report.positivity)}, "
          f"HH: {yn(report.hh_applicable)}", file=out)
    print(f"barycenter condition: {yn(report.barycenter_ok)}", file=out)
    print(f"max residual: {_fmt(max(report.residuals.values()))}", file=out)
    print(f"degree-2 certificate: {yn(report.thm2_applicable)}", file=out)
    try:
        _, factor = bounds_mod.certificate(rule, rule.dimension)
    except RuleNotApplicable:
        print("certificate: none", file=out)
        return EXIT_FAIL
    name = "midpoint, factor 1/2" if factor < 1 else "rule, factor 1"
    print(f"certificate: {name}", file=out)
    return EXIT_OK


def _cmd_sandwich(args, out):
    simplex = geometry.load_simplex(args.simplex)
    f = field_mod.parse_expr(args.expr, simplex.dimension)
    result = bounds_mod.hh_sandwich(f, simplex, screen=args.screen)
    print(f"lower: {_fmt(result.lower)}", file=out)
    print(f"upper: {_fmt(result.upper)}", file=out)
    return EXIT_OK


def _cmd_bound(args, out):
    simplex = geometry.load_simplex(args.simplex)
    f = field_mod.parse_expr(args.expr, simplex.dimension)
    # Certificate and dimension first: a rule refused for either must not
    # pay for a K lattice.
    rule, factor = bounds_mod.certificate(
        _load_rule_arg(args.rule, simplex.dimension), simplex.dimension)
    certified = args.K is not None
    gauge = args.K if certified else field_mod.d2f_sup_norm(f, simplex)
    result = bounds_mod.rule_bound(rule, f, simplex, gauge,
                                   gauge_certified=certified)
    label = " (midpoint bound)" if factor < 1 else ""
    print(f"rule: {rule.provenance}{label}", file=out)
    _print_certified(result, out)
    return EXIT_OK


def _cmd_integrate(args, out):
    simplex = geometry.load_simplex(args.simplex)
    f = field_mod.parse_expr(args.expr, simplex.dimension)
    rule = (None if args.rule is None
            else _load_rule_arg(args.rule, simplex.dimension))
    cfg = adaptive_mod.AdaptiveConfig(
        tolerance=args.tol, max_cells=args.max_cells, rule=rule,
        k_mode=args.k_mode, k_override=args.K)
    diag = adaptive_mod.RunDiagnostics()
    exhausted = None
    try:
        result = adaptive_mod.integrate_adaptive(f, simplex, cfg,
                                                 diagnostics=diag)
    except BudgetExhausted as exc:
        exhausted, result = exc, exc.result
    # The report first: a report that cannot be written fails the run
    # before it prints a result.
    if args.report is not None:
        with open(args.report, "w") as fh:
            fh.write(f"cells {result.cells}\n")
            fh.write(f"estimate {_fmt(result.estimate)}\n")
            fh.write(f"radius {_fmt(result.radius)}\n")
            fh.write(f"K_max {_fmt(diag.k_max)}\n")
            fh.write(f"K_min {_fmt(diag.k_min)}\n")
            fh.write(f"stop {diag.stop}\n")
            fh.write(f"K_source {diag.k_source}\n")
            fh.write(f"rounds {diag.rounds}\n")
            fh.write(f"discarded_splits {diag.discarded_splits}\n")
            fh.write("depth histogram\n")
            for depth, count in sorted(diag.depth_histogram.items()):
                fh.write(f"  {depth} {count}\n")
    if exhausted is not None:
        print(f"budget exhausted: {exhausted}", file=out)
    _print_certified(result, out)
    return EXIT_OK if exhausted is None else EXIT_BUDGET


_COMMANDS = {
    "moments": _cmd_moments,
    "verify-rule": _cmd_verify_rule,
    "sandwich": _cmd_sandwich,
    "bound": _cmd_bound,
    "integrate": _cmd_integrate,
}


def run(argv, out=None):
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    # argparse reads "--opt=--" as an empty list and skips its type=.
    empty = [name for name, value in vars(args).items() if value == []]
    if empty:
        print(f"error: --{empty[0].replace('_', '-')} needs a value", file=out)
        return EXIT_PARSE
    try:
        return _COMMANDS[args.command](args, out)
    except (ParseError, ArityError, OSError, UnknownRule, ValueError) as exc:
        line = getattr(exc, "line", None)  # set by a file's ParseError
        print(f"error: {exc}" if line is None else f"error: line {line}: {exc}",
              file=out)
        return EXIT_PARSE
    except CerticubeError as exc:
        print(f"error: {exc}", file=out)
        return EXIT_FAIL
    except MemoryError:
        print("error: out of memory", file=out)
        return EXIT_FAIL


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
