"""Command line front end.

Subcommands: normalize, mul, degree, symbol, nilbound, rank, stable-iso,
complete-row, check.  Exit codes: 0 success/pass, 1 property or
verification failure, 2 usage or parse error.  Output is deterministic
for fixed arguments and seed; --format json mirrors the text reports.
"""

from __future__ import annotations

import argparse
import json
import sys

from .exprparse import (ExprError, check_degree_budget, degree_bound,
                        eval_expression, parse_expression)
from .k0 import (BaseScalars, IdempotentMatrix, SeriesScalars, _stable_iso,
                 idempotent_rank, render_matrix, unimodular_complete)
from .rings import parse_ring_preset, sigma_nilpotence_bound
from .series import principal_symbol
from .suites import SUITE_NAMES, run_property_suite


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--ring", default="zmod:2^3", metavar="PRESET",
                        help="ring preset, e.g. zmod:2^3 or truncpoly:3:3:c=2")
    common.add_argument("--prec", type=int, default=None, metavar="N",
                        help="work in S/G_N instead of the polynomial ring")
    common.add_argument("--seed", type=int, default=0, metavar="SEED")
    common.add_argument("--samples", type=int, default=200, metavar="COUNT")
    common.add_argument("--format", choices=("text", "json"), default="text")

    parser = argparse.ArgumentParser(
        prog="skewseries",
        description="Exact skew polynomial / twisted power series calculator "
                    "with filtration, graded-symbol and projective-rank tools.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", parents=[common],
                       help="evaluate an expression to left normal form")
    p.add_argument("expr")

    p = sub.add_parser("mul", parents=[common],
                       help="multiply two expressions")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("degree", parents=[common],
                       help="filtration degree of a class in S/G_N (needs --prec)")
    p.add_argument("expr")

    p = sub.add_parser("symbol", parents=[common],
                       help="principal symbol in the associated graded ring (needs --prec)")
    p.add_argument("expr")

    p = sub.add_parser("nilbound", parents=[common],
                       help="verified sigma-nilpotence bound for delta")
    p.add_argument("--n", type=int, required=True, dest="target",
                   help="target radical power I^n")
    p.add_argument("--word-limit", type=int, default=6)

    p = sub.add_parser("rank", parents=[common],
                       help="diagonalize an idempotent matrix and certify its free rank")
    p.add_argument("matrix", help="rows separated by ';', entries by ','")

    p = sub.add_parser("stable-iso", parents=[common],
                       help="stable isomorphism witness for two idempotents")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("complete-row", parents=[common],
                       help="complete a unimodular row to an invertible matrix")
    p.add_argument("row", help="entries separated by ','")

    p = sub.add_parser("check", parents=[common],
                       help="run a named property suite")
    p.add_argument("suite", choices=SUITE_NAMES)

    return parser


def _emit(args, lines, payload) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _eval_arg(text, ctx, precision):
    ast = parse_expression(text, ctx)
    return eval_expression(ast, ctx, precision)


def _scalars_for(ctx, precision):
    return BaseScalars(ctx) if precision is None else SeriesScalars(ctx, precision)


def _parse_entry(text, ctx, precision):
    value = _eval_arg(text.strip(), ctx, precision)
    if precision is None:
        if value.degree > 0:
            raise ValueError(
                "matrix entries over R must be constant; pass --prec for series entries")
        return value.coeff(0)
    return value


def _parse_row(text, ctx, precision):
    return tuple(_parse_entry(cell, ctx, precision)
                 for cell in text.split(","))


def _parse_matrix(text, ctx, precision):
    rows = [_parse_row(row, ctx, precision) for row in text.split(";")]
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix must be square")
    return tuple(rows)


def _matrix_lines(scalars, label, m):
    return [f"{label}:"] + render_matrix(scalars, m)


def _matrix_json(scalars, m):
    return [[scalars.render(x) for x in row] for row in m]


def _cmd_normalize(args, ctx):
    value = _eval_arg(args.expr, ctx, args.prec)
    text = value.render()
    return 0, [text], {"verdict": "ok", "result": text}


def _cmd_mul(args, ctx):
    left = parse_expression(args.left, ctx)
    right = parse_expression(args.right, ctx)
    if args.prec is None:
        check_degree_budget(degree_bound(left) + degree_bound(right))
    text = (eval_expression(left, ctx, args.prec)
            * eval_expression(right, ctx, args.prec)).render()
    return 0, [text], {"verdict": "ok", "result": text}


def _require_prec(args):
    if args.prec is None:
        raise ValueError("this subcommand needs --prec")


def _cmd_degree(args, ctx):
    _require_prec(args)
    value = _eval_arg(args.expr, ctx, args.prec)
    deg = value.filtration_degree()
    return 0, [str(deg)], {"verdict": "ok", "degree": deg}


def _cmd_symbol(args, ctx):
    _require_prec(args)
    value = _eval_arg(args.expr, ctx, args.prec)
    if value.is_zero():
        return 1, ["error: zero has no principal symbol"], \
            {"verdict": "zero has no principal symbol"}
    sym = principal_symbol(value)
    comps = [{"layer": layer, "xdeg": xdeg, "coeff": ctx.render(rep)}
             for (layer, xdeg), rep in sym.components]
    lines = [f"degree: {value.filtration_degree()}", f"symbol: {sym.render()}"]
    return 0, lines, {"verdict": "ok", "degree": value.filtration_degree(),
                      "symbol": sym.render(), "components": comps}


def _cmd_nilbound(args, ctx):
    if args.target < 1 or args.word_limit < 1:
        raise ValueError("--n and --word-limit must be >= 1")
    bound = sigma_nilpotence_bound(ctx, args.target, args.word_limit)
    if bound is None:
        return 0, [f"not found (word limit {args.word_limit})"], \
            {"verdict": "not-found", "m": None}
    return 0, [f"m = {bound}"], {"verdict": "found", "m": bound}


def _cmd_rank(args, ctx):
    scalars = _scalars_for(ctx, args.prec)
    entries = _parse_matrix(args.matrix, ctx, args.prec)
    try:
        idem = IdempotentMatrix(scalars, entries)
    except ValueError as exc:
        if "not idempotent" in str(exc):
            return 1, ["NOT IDEMPOTENT"], \
                {"verdict": "NOT IDEMPOTENT", "rank": None, "certificate": None}
        raise
    witness = idempotent_rank(idem)
    verdict = f"RANK {witness.rank} VERIFIED"
    k0_class = f"{witness.rank}*[{scalars.description}]"
    lines = [f"base: {scalars.description}"]
    lines += _matrix_lines(scalars, "e", idem.entries)
    lines += _matrix_lines(scalars, "conjugator U", witness.conjugator)
    lines += _matrix_lines(scalars, "inverse U^-1", witness.conjugator_inv)
    lines += _matrix_lines(scalars, "U e U^-1", witness.diagonal_form())
    lines.append(f"K0 class: {k0_class}")
    lines.append(verdict)
    payload = {
        "verdict": verdict,
        "rank": witness.rank,
        "base": scalars.description,
        "k0_class": k0_class,
        "certificate": {
            "U": _matrix_json(scalars, witness.conjugator),
            "U_inv": _matrix_json(scalars, witness.conjugator_inv),
            "diagonal": _matrix_json(scalars, witness.diagonal_form()),
        },
    }
    return 0, lines, payload


def _cmd_stable_iso(args, ctx):
    scalars = _scalars_for(ctx, args.prec)
    left = IdempotentMatrix(scalars, _parse_matrix(args.left, ctx, args.prec))
    right = IdempotentMatrix(scalars, _parse_matrix(args.right, ctx, args.prec))
    # zero-padding to a common size changes neither rank
    w_left, w_right, witness = _stable_iso(left, right)
    rank_left, rank_right = w_left.rank, w_right.rank
    lines = [f"base: {scalars.description}",
             f"rank e1: {rank_left}",
             f"rank e2: {rank_right}"]
    if witness is None:
        verdict = f"NO STABLE ISO (rank {rank_left} != rank {rank_right})"
        lines.append(verdict)
        return 0, lines, {"verdict": verdict, "t": None, "certificate": None}
    verdict = "STABLE ISO VERIFIED"
    lines.append(f"t = {witness.t}")
    lines += _matrix_lines(scalars, "conjugator W", witness.conjugator)
    lines.append(verdict)
    payload = {
        "verdict": verdict,
        "t": witness.t,
        "certificate": {
            "W": _matrix_json(scalars, witness.conjugator),
            "W_inv": _matrix_json(scalars, witness.conjugator_inv),
        },
    }
    return 0, lines, payload


def _cmd_complete_row(args, ctx):
    scalars = _scalars_for(ctx, args.prec)
    row = _parse_row(args.row, ctx, args.prec)
    try:
        completed = unimodular_complete(scalars, row)
    except ValueError as exc:
        if "not unimodular" in str(exc):
            return 1, ["NOT UNIMODULAR"], \
                {"verdict": "NOT UNIMODULAR", "certificate": None}
        raise
    lines = [f"base: {scalars.description}",
             f"row: [{', '.join(scalars.render(x) for x in row)}]"]
    lines += _matrix_lines(scalars, "completion M", completed.matrix)
    lines += _matrix_lines(scalars, "inverse M^-1", completed.inverse)
    lines.append("COMPLETION VERIFIED")
    payload = {
        "verdict": "COMPLETION VERIFIED",
        "certificate": {
            "M": _matrix_json(scalars, completed.matrix),
            "M_inv": _matrix_json(scalars, completed.inverse),
        },
    }
    return 0, lines, payload


def _cmd_check(args, ctx):
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    report = run_property_suite(args.suite, ctx, args.prec, args.samples, args.seed)
    lines = [
        f"suite: {args.suite}",
        f"ring: {ctx.name}",
        f"precision: {args.prec if args.prec is not None else 'default'}",
        f"samples: {args.samples}",
        f"seed: {args.seed}",
        f"checked: {report.checked}",
    ]
    for key in sorted(report.details):
        lines.append(f"{key}: {report.details[key]}")
    if report.counterexample:
        lines.append(f"counterexample: {report.counterexample}")
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
    payload = report.to_json_dict()
    payload.update({"ring": ctx.name, "samples": args.samples, "seed": args.seed})
    return (0 if report.passed else 1), lines, payload


_COMMANDS = {
    "normalize": _cmd_normalize,
    "mul": _cmd_mul,
    "degree": _cmd_degree,
    "symbol": _cmd_symbol,
    "nilbound": _cmd_nilbound,
    "rank": _cmd_rank,
    "stable-iso": _cmd_stable_iso,
    "complete-row": _cmd_complete_row,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        ctx = parse_ring_preset(args.ring)
        if args.prec is not None and args.prec < 1:
            raise ValueError("--prec must be >= 1")
        code, lines, payload = _COMMANDS[args.command](args, ctx)
    except ExprError as exc:
        print(f"error: syntax error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(args, lines, payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
