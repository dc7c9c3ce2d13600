"""Parser and evaluator for noncommutative expressions in x and ring constants.

Grammar (products are ordered; adjacency never denotes multiplication):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' nat]
    atom   := literal | 'x' | '(' expr ')' | '-' atom

Literals are nonnegative integers (reduced into the coefficient ring) plus
any ring-specific named generators such as ``t`` for the truncated
polynomial presets.  Errors carry a 1-based source column.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rings import RingContext
from .series import TruncatedSeries
from .skewpoly import SkewPoly

MAX_EXPONENT = 512
# largest x-degree bound an expression may have for evaluation in R[x];
# S/G_N evaluation is bounded by N instead
MAX_DEGREE = 512


class ExprError(ValueError):
    """Parse-time failure with a 1-based column position."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} at column {column}")
        self.message = message
        self.column = column


@dataclass(frozen=True)
class Const:
    payload: object


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Neg:
    child: object


@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "name", "op", "end"
    text: str
    column: int


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        col = i + 1
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("num", text[i:j], col))
            i = j
        elif ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            tokens.append(_Token("name", text[i:j], col))
            i = j
        elif ch in "+-*^()":
            tokens.append(_Token("op", ch, col))
            i += 1
        else:
            raise ExprError(f"unexpected character {ch!r}", col)
    tokens.append(_Token("end", "", n + 1))
    return tokens


class _Parser:
    def __init__(self, tokens, ctx: RingContext):
        self.tokens = tokens
        self.pos = 0
        self.ctx = ctx
        self.literals = ctx.named_literals()

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text):
        tok = self.current
        if tok.kind != "op" or tok.text != text:
            raise ExprError(f"expected {text!r}", tok.column)
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.current
        if tok.kind != "end":
            raise ExprError(f"unexpected token {tok.text!r}", tok.column)
        return node

    def expr(self):
        node = self.term()
        while self.current.kind == "op" and self.current.text in "+-":
            op = self.advance().text
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.current.kind == "op" and self.current.text == "*":
            self.advance()
            node = Mul(node, self.factor())
        return node

    def factor(self):
        node = self.atom()
        if self.current.kind == "op" and self.current.text == "^":
            self.advance()
            tok = self.current
            if tok.kind != "num":
                raise ExprError("expected exponent", tok.column)
            self.advance()
            exponent = int(tok.text)
            if exponent > MAX_EXPONENT:
                raise ExprError("exponent overflow", tok.column)
            node = Pow(node, exponent)
        return node

    def atom(self):
        tok = self.current
        if tok.kind == "num":
            self.advance()
            return Const(self.ctx.from_int(int(tok.text)))
        if tok.kind == "name":
            self.advance()
            if tok.text == "x":
                return Var()
            if tok.text in self.literals:
                return Const(self.literals[tok.text])
            raise ExprError(f"unknown literal {tok.text!r}", tok.column)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.atom())
        raise ExprError(f"syntax error near {tok.text!r}" if tok.text else
                        "unexpected end of input", tok.column)


def parse_expression(text: str, ctx: RingContext):
    """Parse an expression over the given ring; raises ExprError with a
    1-based column on bad input."""
    if not text.strip():
        raise ExprError("empty expression", 1)
    return _Parser(_tokenize(text), ctx).parse()


_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4


def _render(node, ctx, parent_prec):
    if isinstance(node, Const):
        s = ctx.render(node.payload)
        if parent_prec > _PREC_ADD and (" + " in s or " - " in s):
            return f"({s})"
        return s
    if isinstance(node, Var):
        return "x"
    if isinstance(node, (Add, Sub)):
        op = " + " if isinstance(node, Add) else " - "
        s = _render(node.left, ctx, _PREC_ADD) + op + _render(node.right, ctx, _PREC_MUL)
        return f"({s})" if parent_prec > _PREC_ADD else s
    if isinstance(node, Mul):
        s = _render(node.left, ctx, _PREC_MUL) + "*" + _render(node.right, ctx, _PREC_POW)
        return f"({s})" if parent_prec > _PREC_MUL else s
    if isinstance(node, Pow):
        return _render(node.base, ctx, _PREC_ATOM) + f"^{node.exponent}"
    if isinstance(node, Neg):
        inner = _render(node.child, ctx, _PREC_ATOM)
        # '-' binds to a whole atom, so a power must keep its parentheses
        if isinstance(node.child, Pow):
            inner = f"({inner})"
        return "-" + inner
    raise TypeError(f"not an expression node: {node!r}")


def render_expression(node, ctx: RingContext) -> str:
    """Canonical text that reparses to the identical tree."""
    return _render(node, ctx, _PREC_ADD)


def degree_bound(node) -> int:
    """Upper bound on the x-degree of the value in R[x]: a sum takes the
    larger degree, a product the sum and a power e times the base's."""
    if isinstance(node, Const):
        return 0
    if isinstance(node, Var):
        return 1
    if isinstance(node, (Add, Sub)):
        return max(degree_bound(node.left), degree_bound(node.right))
    if isinstance(node, Mul):
        return degree_bound(node.left) + degree_bound(node.right)
    if isinstance(node, Pow):
        return node.exponent * degree_bound(node.base)
    if isinstance(node, Neg):
        return degree_bound(node.child)
    raise TypeError(f"not an expression node: {node!r}")


def check_degree_budget(degree: int) -> None:
    """Reject an evaluation in R[x] whose degree bound exceeds MAX_DEGREE."""
    if degree > MAX_DEGREE:
        raise ValueError(f"x-degree bound {degree} exceeds the budget of "
                         f"{MAX_DEGREE} for R[x]; evaluate in S/G_N (--prec) instead")


def eval_expression(node, ctx: RingContext, precision: int | None = None):
    """Evaluate to a SkewPoly, or to its class in S/G_N when a precision is
    given.  The class is computed in S/G_N from the leaves up: G_N is a
    two-sided ideal, so this is the class of the polynomial.  In R[x] the
    degree bound must be within MAX_DEGREE (ValueError otherwise)."""
    if precision is None:
        check_degree_budget(degree_bound(node))
        return _eval(node, lambda a: SkewPoly.from_scalar(ctx, a), SkewPoly.var(ctx))
    return _eval(node, lambda a: TruncatedSeries.constant(ctx, precision, a),
                 TruncatedSeries.var(ctx, precision))


def _eval(node, constant, var):
    if isinstance(node, Const):
        return constant(node.payload)
    if isinstance(node, Var):
        return var
    if isinstance(node, Add):
        return _eval(node.left, constant, var) + _eval(node.right, constant, var)
    if isinstance(node, Sub):
        return _eval(node.left, constant, var) - _eval(node.right, constant, var)
    if isinstance(node, Mul):
        return _eval(node.left, constant, var) * _eval(node.right, constant, var)
    if isinstance(node, Pow):
        return _eval(node.base, constant, var) ** node.exponent
    if isinstance(node, Neg):
        return -_eval(node.child, constant, var)
    raise TypeError(f"not an expression node: {node!r}")
