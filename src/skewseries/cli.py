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
import threading

from .exprparse import ExprError, Mul, eval_expression, parse_expression
from .k0 import (BaseScalars, IdempotentMatrix, NotIdempotent, NotUnimodular,
                 SeriesScalars, _stable_iso, idempotent_rank,
                 unimodular_complete)
from .rings import parse_ring_preset
from .series import principal_symbol
from .suites import (NILBOUND_WORD_LIMIT, SUITE_NAMES, run_property_suite,
                     sigma_nilpotence_bound)


class _Parser(argparse.ArgumentParser):
    """argparse reads a word that starts with '-' as an option unless it is
    a negative number such as -1, so an expression or matrix such as -1-x
    must come after '--'.  Every option here has two dashes except -h, so a
    usage error after a word with one dash (before any '--') names '--'.
    The subcommand parsers are of this class too.  A parser serves every
    later call of the process, and threads may share it, so the dashed
    words are kept per thread and set afresh by each parse."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._call = threading.local()

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        words = args[:args.index("--")] if "--" in args else args
        self._call.dashed = [w for w in words if w.startswith("-") and w != "-h"
                             and not w.startswith("--") and not w[1:].isdigit()]
        return super().parse_known_args(args, namespace)

    def error(self, message):
        dashed = getattr(self._call, "dashed", ())
        if dashed:
            message += (f"; {dashed[0]!r} was read as an option: put an "
                        f"argument that starts with '-' after '--', as in "
                        f"skewseries normalize --ring zmod:2^3 -- -1-x")
        super().error(message)


class _UsageFormatter(argparse.HelpFormatter):
    """Wraps the top-level usage the same way on every Python version.
    argparse before 3.13 splits the usage at spaces outside brackets before
    wrapping it, so '{normalize,...,check}' and the '...' after it can go
    on two lines; from 3.13 it wraps whole parts, and keeps the pair as
    one.  This hands 3.13 the pair as two parts.  Earlier versions never
    call the method."""

    def _get_actions_usage_parts(self, actions, groups):
        parts = []
        for part in super()._get_actions_usage_parts(actions, groups):
            # a subcommand positional: '{choices} ...'
            parts += part.rsplit(" ", 1) if part.endswith(" ...") else [part]
        return parts


# flags and options of each argument, for argparse's add_argument
_COMMON = (
    (("--ring",), {"default": "zmod:2^3", "metavar": "PRESET",
                   "help": "ring preset, e.g. zmod:2^3 or truncpoly:3:3:c=2"}),
    (("--prec",), {"type": int, "default": None, "metavar": "N",
                   "help": "work in S/G_N instead of the polynomial ring"}),
    (("--seed",), {"type": int, "default": 0, "metavar": "SEED"}),
    (("--samples",), {"type": int, "default": 200, "metavar": "COUNT"}),
    (("--format",), {"choices": ("text", "json"), "default": "text"}),
)
_EXPR = ((("expr",), {}),)
_PAIR = ((("left",), {}), (("right",), {}))


# the top-level parser, built by the first build_parser() call
_top = None


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser with every subcommand's parser, all built on the
    first call and returned again on every later one.  Help and usage are
    formatted when they are printed, so they follow COLUMNS at that time."""
    global _top
    if _top is None:
        parser = _Parser(
            prog="skewseries",
            description="Exact skew polynomial / twisted power series calculator "
                        "with filtration, graded-symbol and projective-rank tools.",
            formatter_class=_UsageFormatter)
        # parser_class defaults to the class of the parser, _Parser
        sub = parser.add_subparsers(dest="command", required=True)
        for name, (text, arguments, _) in _SUBCOMMANDS.items():
            subparser = sub.add_parser(name, help=text)
            for flags, options in _COMMON + arguments:
                subparser.add_argument(*flags, **options)
        # kept only once whole: a build cut short is started again
        _top = parser
    return _top


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
    return tuple(_parse_row(row, ctx, precision) for row in text.split(";"))


def _idempotent(scalars, entries):
    """IdempotentMatrix(scalars, entries), or None when e*e != e.  A
    matrix that is not square raises ValueError, a usage error."""
    try:
        return IdempotentMatrix(scalars, entries)
    except NotIdempotent:
        return None


def _rendered(scalars, *matrices):
    """Each matrix as rows of rendered entries, as the JSON payloads show
    it; _matrix_lines builds the text rows from the same strings."""
    return [[[scalars.render(x) for x in row] for row in m] for m in matrices]


def _matrix_lines(label, rendered):
    return [f"{label}:"] + [f"[{', '.join(row)}]" for row in rendered]


def _cmd_normalize(args, ctx):
    value = _eval_arg(args.expr, ctx, args.prec)
    text = value.render()
    return 0, [text], {"verdict": "ok", "result": text}


def _cmd_mul(args, ctx):
    product = Mul(parse_expression(args.left, ctx),
                  parse_expression(args.right, ctx))
    text = eval_expression(product, ctx, args.prec).render()
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
    deg, text = value.filtration_degree(), sym.render()
    return 0, [f"degree: {deg}", f"symbol: {text}"], \
        {"verdict": "ok", "degree": deg, "symbol": text, "components": comps}


def _cmd_nilbound(args, ctx):
    if args.word_limit > NILBOUND_WORD_LIMIT:
        raise ValueError(f"--word-limit must be at most {NILBOUND_WORD_LIMIT}")
    bound = sigma_nilpotence_bound(ctx, args.target, args.word_limit)
    if bound is None:
        return 0, [f"not found (word limit {args.word_limit})"], \
            {"verdict": "not-found", "m": None}
    return 0, [f"m = {bound}"], {"verdict": "found", "m": bound}


def _cmd_rank(args, ctx):
    scalars = _scalars_for(ctx, args.prec)
    idem = _idempotent(scalars, _parse_matrix(args.matrix, ctx, args.prec))
    if idem is None:
        return 1, ["NOT IDEMPOTENT"], \
            {"verdict": "NOT IDEMPOTENT", "rank": None, "certificate": None}
    witness = idempotent_rank(idem)
    verdict = f"RANK {witness.rank} VERIFIED"
    k0_class = f"{witness.rank}*[{scalars.description}]"
    e, u, u_inv, diagonal = _rendered(
        scalars, idem.entries, witness.conjugator, witness.conjugator_inv,
        witness.diagonal_form())
    lines = [f"base: {scalars.description}"]
    lines += _matrix_lines("e", e)
    lines += _matrix_lines("conjugator U", u)
    lines += _matrix_lines("inverse U^-1", u_inv)
    lines += _matrix_lines("U e U^-1", diagonal)
    lines.append(f"K0 class: {k0_class}")
    lines.append(verdict)
    payload = {
        "verdict": verdict,
        "rank": witness.rank,
        "base": scalars.description,
        "k0_class": k0_class,
        "certificate": {"U": u, "U_inv": u_inv, "diagonal": diagonal},
    }
    return 0, lines, payload


def _cmd_stable_iso(args, ctx):
    scalars = _scalars_for(ctx, args.prec)
    left = _parse_matrix(args.left, ctx, args.prec)
    right = _parse_matrix(args.right, ctx, args.prec)
    # both are built before either verdict, so that a matrix that is not
    # square is a usage error whatever the other one is
    left, right = _idempotent(scalars, left), _idempotent(scalars, right)
    if left is None or right is None:
        return 1, ["NOT IDEMPOTENT"], \
            {"verdict": "NOT IDEMPOTENT", "t": None, "certificate": None}
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
    w, w_inv = _rendered(scalars, witness.conjugator, witness.conjugator_inv)
    lines.append(f"t = {witness.t}")
    lines += _matrix_lines("conjugator W", w)
    lines.append(verdict)
    payload = {
        "verdict": verdict,
        "t": witness.t,
        "certificate": {"W": w, "W_inv": w_inv},
    }
    return 0, lines, payload


def _cmd_complete_row(args, ctx):
    scalars = _scalars_for(ctx, args.prec)
    row = _parse_row(args.row, ctx, args.prec)
    try:
        completed = unimodular_complete(scalars, row)
    except NotUnimodular:
        return 1, ["NOT UNIMODULAR"], \
            {"verdict": "NOT UNIMODULAR", "certificate": None}
    m, m_inv = _rendered(scalars, completed.matrix, completed.inverse)
    lines = [f"base: {scalars.description}",
             f"row: [{', '.join(scalars.render(x) for x in row)}]"]
    lines += _matrix_lines("completion M", m)
    lines += _matrix_lines("inverse M^-1", m_inv)
    lines.append("COMPLETION VERIFIED")
    payload = {
        "verdict": "COMPLETION VERIFIED",
        "certificate": {"M": m, "M_inv": m_inv},
    }
    return 0, lines, payload


def _cmd_check(args, ctx):
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


# name: (help, the arguments that follow the common options, handler)
_SUBCOMMANDS = {
    "normalize": ("evaluate an expression to left normal form", _EXPR,
                  _cmd_normalize),
    "mul": ("multiply two expressions", _PAIR, _cmd_mul),
    "degree": ("filtration degree of a class in S/G_N (needs --prec)", _EXPR,
               _cmd_degree),
    "symbol": ("principal symbol in the associated graded ring (needs --prec)",
               _EXPR, _cmd_symbol),
    "nilbound": ("verified sigma-nilpotence bound for delta", (
        (("--n",), {"type": int, "required": True, "dest": "target",
                    "help": "target radical power I^n"}),
        (("--word-limit",), {"type": int, "default": 6})), _cmd_nilbound),
    "rank": ("diagonalize an idempotent matrix and certify its free rank",
             ((("matrix",), {"help": "rows separated by ';', entries by ','"}),),
             _cmd_rank),
    "stable-iso": ("stable isomorphism witness for two idempotents", _PAIR,
                   _cmd_stable_iso),
    "complete-row": ("complete a unimodular row to an invertible matrix",
                     ((("row",), {"help": "entries separated by ','"}),),
                     _cmd_complete_row),
    "check": ("run a named property suite",
              ((("suite",), {"choices": SUITE_NAMES}),), _cmd_check),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        ctx = parse_ring_preset(args.ring)
        if args.prec is not None and args.prec < 1:
            raise ValueError("--prec must be >= 1")
        code, lines, payload = _SUBCOMMANDS[args.command][2](args, ctx)
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
