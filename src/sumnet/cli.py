"""Command-line front end.

Exit codes are a stable contract: 0 success, 1 usage error, 2 validation
or verification failure.  JSON output is versioned and byte-deterministic
for identical invocations.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from ._jsonwriter import dumps
from .alphabet_change import (
    InvalidGammaError,
    TooLargeError,
    exhaustive_failure_search,
    run_counterexample,
)
from .coding import (
    CharMismatchError,
    DegenerateLengthError,
    UnsupportedLambdaError,
    build_code,
    code_from_json,
    code_save,
    code_to_json,  # noqa: F401  (unused here; perfbench's traced set-up reads it from this module)
)
from .designs import (
    Design,
    InvalidDesignError,
    ParseError,
    UnsupportedOrderError,
    _read_text,
    design_load,
    design_save,
    design_verify,
    fano,
    sts_bose,
)
from .field import NotPrimeError, PrimeField
from .network import (
    build_sum_network,
    network_export_json,  # noqa: F401  (unused here; perfbench's traced run wraps it in this module)
    network_save,
    network_save_dot,
    network_validate,
    parse_node_label,
)
from .verify import (
    ShapeMismatchError,
    block_sum_recoverable,
    capacity_report,
    partial_sum_recoverable,
    simulate_trials,
    transfer_check,
)

USAGE_ERROR = 1
CHECK_FAILED = 2


class _Parser(argparse.ArgumentParser):
    # argparse defaults to exit code 2 on bad flags; the CLI contract
    # reserves 2 for failed checks and uses 1 for usage problems
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _add_design_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--fano", action="store_true", help="the 7-point, 7-block plane")
    group.add_argument("--sts", type=int, metavar="V", help="Steiner triple system, V = 3 mod 6")
    group.add_argument("--load", metavar="FILE", help="design JSON file")


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sumnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", parents=[], help="generate or check a block design")
    _add_design_source(p)
    p.add_argument("--save", metavar="FILE", help="write the design as JSON")
    _add_format(p)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("build", help="construct and validate the sum-network")
    _add_design_source(p)
    p.add_argument("--dot", metavar="FILE", help="write a DOT rendering")
    p.add_argument("--json", metavar="FILE", help="write the network as JSON")
    p.add_argument(
        "--filter-terminals",
        metavar="LIST",
        help="restrict the DOT output to these terminals, e.g. p1,B1",
    )
    _add_format(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("code", help="synthesize a code and run all checks")
    _add_design_source(p)
    p.add_argument("--field", type=int, required=True, metavar="P", help="prime field size")
    p.add_argument("--save-code", metavar="FILE", help="write the code as JSON")
    _add_format(p)
    p.set_defaults(func=cmd_code)

    p = sub.add_parser("capacity", help="report achieved rate against the bound")
    _add_design_source(p)
    p.add_argument("--field", type=int, required=True, metavar="P")
    _add_format(p)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("simulate", help="random end-to-end transmissions vs plain sums")
    _add_design_source(p)
    p.add_argument("--field", type=int, required=True, metavar="P")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None, help="defaults to $SUMNET_SEED or 0")
    p.add_argument("--code", metavar="FILE", help="verify a saved code instead of a fresh one")
    _add_format(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("counterexample", help="alphabet-change failure demonstration")
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument(
        "--search", action="store_true", help="exhaustively search inputs per completion"
    )
    _add_format(p)
    p.set_defaults(func=cmd_counterexample)
    return parser


def _resolve_design(args) -> Design:
    if args.fano:
        return fano()
    if args.sts is not None:
        return sts_bose(args.sts)
    return design_load(args.load)


def _fraction_dict(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def _emit_json(payload: dict) -> None:
    print(dumps(payload))


def _design_summary(d: Design) -> str:
    return f"v={d.v} k={d.k} lambda={d.lambda_} b={d.b} r={d.r}"


def cmd_design(args) -> int:
    d = _resolve_design(args)
    report = design_verify(d)
    if args.save:
        design_save(d, args.save)
    if args.format == "json":
        _emit_json(
            {
                "schema": "sumnet.design-report/1",
                "design": d.to_dict(),
                "valid": report.ok,
                "problems": report.problems,
            }
        )
    else:
        if report.ok:
            print(_design_summary(d))
            print("blocks: " + " / ".join(" ".join(str(p + 1) for p in blk) for blk in d.blocks))
            print("valid: yes")
        else:
            print(f"v={d.v} k={d.k} lambda={d.lambda_} b={d.b}")
            print("valid: no")
            for problem in report.problems:
                print(f"  - {problem}")
    return 0 if report.ok else CHECK_FAILED


def cmd_build(args) -> int:
    d = _resolve_design(args)
    net = build_sum_network(d)
    report = network_validate(net)
    terminals = None
    if args.filter_terminals:
        terminals = [_parse_terminal(s) for s in args.filter_terminals.split(",")]
    if args.dot:
        network_save_dot(net, args.dot, terminals)
    if args.json:
        network_save(net, args.json)
    bottlenecks = len(net.bottlenecks())
    if args.format == "json":
        _emit_json(
            {
                "schema": "sumnet.network-report/1",
                "design": d.to_dict(),
                "nodes": len(net.nodes),
                "edges": len(net.edges),
                "bottlenecks": bottlenecks,
                "valid": report.ok,
                "problems": report.problems,
            }
        )
    else:
        print(_design_summary(d))
        print(f"nodes: {len(net.nodes)}  edges: {len(net.edges)}  bottlenecks: {bottlenecks}")
        print(f"valid: {'yes' if report.ok else 'no'}")
        for problem in report.problems:
            print(f"  - {problem}")
    return 0 if report.ok else CHECK_FAILED


def _parse_terminal(token: str):
    token = token.strip()
    if token.startswith("p"):
        return parse_node_label(f"terminal-point:{token[1:]}")
    if token.startswith("B"):
        return parse_node_label(f"terminal-block:{token[1:]}")
    raise ParseError(f"terminal {token!r} should look like p3 or B2")


def cmd_code(args) -> int:
    d = _resolve_design(args)
    f = PrimeField(args.field)
    net = build_sum_network(d)
    code = build_code(net, f)
    transfer = transfer_check(net, code)
    psum = partial_sum_recoverable(net, code)
    bsum = block_sum_recoverable(net, code)
    ok = transfer.ok and psum.ok and bsum.ok
    if args.save_code:
        code_save(code, args.save_code)
    m, n = code.params.m, code.params.n
    if args.format == "json":
        _emit_json(
            {
                "schema": "sumnet.code-report/1",
                "design": d.to_dict(),
                "p": f.p,
                "regime": code.params.regime,
                "rate": {"m": m, "n": n},
                "transfer_check": transfer.ok,
                "partial_sum_recoverable": psum.ok,
                "block_sum_recoverable": bsum.ok,
                "failures": [
                    {"at": x.at.label(), "detail": x.detail}
                    for result in (transfer, psum, bsum)
                    for x in result.failures
                ],
            }
        )
    else:
        print(_design_summary(d))
        print(f"field: GF({f.p})")
        print(f"regime: {code.params.regime}")
        print(f"rate: {m}/{n}")
        print(f"transfer check: {'ok' if transfer.ok else 'FAILED'}")
        print(f"partial-sum recoverability: {'ok' if psum.ok else 'FAILED'}")
        print(f"block-sum recoverability: {'ok' if bsum.ok else 'FAILED'}")
        for result in (transfer, psum, bsum):
            for x in result.failures:
                print(f"  - {x.at.label()}: {x.detail}")
    return 0 if ok else CHECK_FAILED


def cmd_capacity(args) -> int:
    d = _resolve_design(args)
    f = PrimeField(args.field)
    report = capacity_report(d, f)
    if args.format == "json":
        _emit_json(
            {
                "schema": "sumnet.capacity-report/1",
                "design": d.to_dict(),
                "p": f.p,
                "regime": report.regime,
                "achieved": _fraction_dict(report.achieved),
                "upper": _fraction_dict(report.upper),
                "matches": report.matches,
            }
        )
    else:
        print(_design_summary(d))
        print(f"field: GF({f.p})")
        print(f"regime: {report.regime}")
        print(f"achieved: {report.achieved}")
        print(f"upper bound: {report.upper}")
        print(f"achieved equals bound: {'yes' if report.matches else 'no'}")
    return 0


def cmd_simulate(args) -> int:
    seed = args.seed
    if seed is None:
        seed = os.environ.get("SUMNET_SEED", "0")
        seed = int(seed) if seed.isdecimal() else -1
    for name, value in (("--trials", args.trials), ("--seed or $SUMNET_SEED", seed)):
        if value < 0:
            print(f"sumnet: error: {name} must be a non-negative integer", file=sys.stderr)
            return USAGE_ERROR
    d = _resolve_design(args)
    f = PrimeField(args.field)
    net = build_sum_network(d)
    if args.code:
        code = code_from_json(_read_text(args.code))
        if code.field != f:
            raise ShapeMismatchError(f"saved code is over GF({code.field.p}), not GF({f.p})")
    else:
        code = build_code(net, f)
    summary = simulate_trials(net, code, args.trials, seed)
    passes = summary.trials - summary.mismatched_trials
    if args.format == "json":
        _emit_json(
            {
                "schema": "sumnet.simulation-report/1",
                "design": d.to_dict(),
                "p": f.p,
                "trials": summary.trials,
                "seed": summary.seed,
                "ok": summary.ok,
                "failures": [
                    {"at": x.at.label(), "detail": x.detail}
                    for x in summary.failures
                ],
            }
        )
    else:
        print(f"{passes}/{summary.trials} trials match the plain sum (seed {summary.seed})")
        for x in summary.failures:
            print(f"  - {x.at.label()}: {x.detail}")
    return 0 if summary.ok else CHECK_FAILED


def cmd_counterexample(args) -> int:
    report = exhaustive_failure_search(args.gamma) if args.search else run_counterexample(args.gamma)
    if args.format == "json":
        _emit_json(report.to_dict())
    else:
        p = report.params
        print(f"gamma={p.gamma} t={p.t} nprime={p.nprime} kprime={p.kprime} mode={report.mode}")
        for o in report.outcomes:
            if o.x1 is None:
                print(f"  2 -> {o.two_maps_to}: no failing input pair (exhausted search)")
            else:
                verdict = "FAILS" if o.fails else "matches"
                print(
                    f"  2 -> {o.two_maps_to}: x1={list(o.x1)} x2={list(o.x2)} "
                    f"decoded={list(o.decoded)} true sum={list(o.expected)} -> {verdict}"
                )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors and --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UnsupportedOrderError, InvalidGammaError, TooLargeError, NotPrimeError) as exc:
        print(f"sumnet: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (
        ParseError,
        InvalidDesignError,
        CharMismatchError,
        UnsupportedLambdaError,
        DegenerateLengthError,
        ShapeMismatchError,
        OSError,
    ) as exc:
        print(f"sumnet: error: {exc}", file=sys.stderr)
        return CHECK_FAILED


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
