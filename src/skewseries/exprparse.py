"""Parser and evaluator for noncommutative expressions in x and ring constants.

Grammar (products are ordered; adjacency never denotes multiplication):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' nat]
    atom   := literal | 'x' | '(' expr ')' | '-' atom

Literals are nonnegative integers (reduced into the coefficient ring) plus
any ring-specific named generators such as ``t`` for the truncated
polynomial presets.  Errors carry a 1-based source column.

Input budgets: an exponent is at most MAX_EXPONENT, the x-degree bound of
an evaluation in R[x] at most MAX_DEGREE, and the depth of the tree at most
MAX_DEPTH (parentheses, unary minus and ``^`` each add a level, and so does
each operator of a ``+``/``-``/``*`` chain), so that parsing, evaluating
and rendering never recurse deeper than that.

Evaluation goes by the shape of each node.  Elements are kept in left
normal form sum a_i x^i, so a subtree without x is an element of R: it is
folded with the ring's own operations and lifted once, which is exact
because R -> S/G_N is a ring map with canonical representatives; a
power of a constant squares and multiplies in R in the order of
skewpoly._power.  A term ``c*x^k`` is already in normal form and is built
directly.  Only the rest (a constant times anything else, right scalars,
sums with x, other products, powers of non-monomials) goes through the
SkewPoly/TruncatedSeries operators.
"""

from __future__ import annotations

from .report import Record
from .rings import RingContext
from .series import TruncatedSeries
from .skewpoly import SkewPoly, _power

MAX_EXPONENT = 512
# largest x-degree bound an expression may have for evaluation in R[x];
# S/G_N evaluation is bounded by N instead
MAX_DEGREE = 512
# deepest expression tree the parser accepts (see the module docstring)
MAX_DEPTH = 100


class ExprError(ValueError):
    """Parse-time failure with a 1-based column position."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} at column {column}")
        self.message = message
        self.column = column


class _Node(Record):
    """Base of the expression nodes: light __slots__ records.  Nodes are
    not changed after they are built.  They are not FrozenRecords, because
    the parser builds many of them and plain assignment is cheaper."""

    __slots__ = ()


class Const(_Node):
    __slots__ = _fields = ("payload",)

    def __init__(self, payload):
        self.payload = payload


class Var(_Node):
    __slots__ = ()


class _Binary(_Node):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Pow(_Node):
    __slots__ = _fields = ("base", "exponent")

    def __init__(self, base, exponent: int):
        self.base = base
        self.exponent = exponent


class Neg(_Node):
    __slots__ = _fields = ("child",)

    def __init__(self, child):
        self.child = child


def _tokenize(text: str) -> list:
    """(kind, text, column) tuples, kind one of "num", "name", "op" and a
    final "end".  Numbers are runs of str.isdecimal characters, exactly the
    digits int() accepts."""
    tokens = []
    append = tokens.append
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in "+-*^()":
            append(("op", ch, i + 1))
            i += 1
        elif ch.isspace():
            i += 1
        elif ch.isdecimal():
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            append(("num", text[i:j], i + 1))
            i = j
        elif ch.isalpha():
            j = i + 1
            while j < n and text[j].isalnum():
                j += 1
            append(("name", text[i:j], i + 1))
            i = j
        else:
            raise ExprError(f"unexpected character {ch!r}", i + 1)
    append(("end", "", n + 1))
    return tokens


def _number(text: str, column: int) -> int:
    try:
        return int(text)
    except ValueError:  # longer than sys.get_int_max_str_digits()
        raise ExprError("number too long", column) from None


def _level(height: int, column: int) -> int:
    if height > MAX_DEPTH:
        raise ExprError(f"expression deeper than {MAX_DEPTH} levels", column)
    return height


class _Parser:
    """Recursive descent over the token list.  Each rule returns the node
    and the height of its tree, and rejects a height over MAX_DEPTH at the
    token that adds the level.  ``nest`` counts the open parentheses and
    unary minuses around the current token: each adds at least one level,
    so a group opened with nest + 2 > MAX_DEPTH is rejected before the
    parser recurses into it."""

    def __init__(self, tokens, ctx: RingContext):
        self.tokens = tokens
        self.pos = 0
        self.nest = 0
        self.ctx = ctx
        self.literals = ctx.named_literals()

    def parse(self):
        node, _ = self.expr()
        kind, text, column = self.tokens[self.pos]
        if kind != "end":
            raise ExprError(f"unexpected token {text!r}", column)
        return node

    def expr(self):
        node, height = self.term()
        tokens = self.tokens
        while True:
            kind, op, column = tokens[self.pos]
            if kind != "op" or op not in "+-":
                return node, height
            self.pos += 1
            rhs, rhs_height = self.term()
            height = _level(max(height, rhs_height) + 1, column)
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)

    def term(self):
        node, height = self.factor()
        tokens = self.tokens
        while True:
            kind, op, column = tokens[self.pos]
            if kind != "op" or op != "*":
                return node, height
            self.pos += 1
            rhs, rhs_height = self.factor()
            height = _level(max(height, rhs_height) + 1, column)
            node = Mul(node, rhs)

    def factor(self):
        node, height = self.atom()
        kind, op, column = self.tokens[self.pos]
        if kind == "op" and op == "^":
            self.pos += 1
            kind, text, exp_column = self.tokens[self.pos]
            if kind != "num":
                raise ExprError("expected exponent", exp_column)
            self.pos += 1
            exponent = _number(text, exp_column)
            if exponent > MAX_EXPONENT:
                raise ExprError("exponent overflow", exp_column)
            node = Pow(node, exponent)
            height = _level(height + 1, column)
        return node, height

    def atom(self):
        kind, text, column = self.tokens[self.pos]
        if kind == "num":
            self.pos += 1
            return Const(self.ctx.from_int(_number(text, column))), 1
        if kind == "name":
            self.pos += 1
            if text == "x":
                return Var(), 1
            if text in self.literals:
                return Const(self.literals[text]), 1
            raise ExprError(f"unknown literal {text!r}", column)
        if kind == "op" and text in "(-":
            _level(self.nest + 2, column)
            self.pos += 1
            self.nest += 1
            if text == "(":
                node, height = self.expr()
                kind, close, close_column = self.tokens[self.pos]
                if kind != "op" or close != ")":
                    raise ExprError("expected ')'", close_column)
                self.pos += 1
            else:
                node, height = self.atom()
                node = Neg(node)
            self.nest -= 1
            return node, _level(height + 1, column)
        raise ExprError(f"syntax error near {text!r}" if text else
                        "unexpected end of input", column)


def parse_expression(text: str, ctx: RingContext):
    """Parse an expression over the given ring; raises ExprError with a
    1-based column on bad input, including a tree deeper than MAX_DEPTH."""
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
        s = _render(node.base, ctx, _PREC_ATOM) + f"^{node.exponent}"
        # a factor takes one exponent and '-' binds to a whole atom, so the
        # base of a power and the child of a '-' keep a power's parentheses
        return f"({s})" if parent_prec > _PREC_POW else s
    if isinstance(node, Neg):
        return "-" + _render(node.child, ctx, _PREC_ATOM)
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
    degree bound must be within MAX_DEGREE (ValueError otherwise).

    Constant subtrees are folded in R and lifted once, and ``x``, ``x^k``
    and ``c*x^k`` are built as the monomial c x^k; everything else,
    ``c*f`` for a non-monomial f included, uses the SkewPoly/TruncatedSeries
    operators."""
    if precision is None:
        check_degree_budget(degree_bound(node))
    evaluator = _Evaluator(ctx, precision)
    return evaluator.lift(*evaluator.value(node))


class _Evaluator:
    """One evaluation in R[x] (precision None) or in S/G_N.  value(node)
    returns a pair (c, k): the monomial c x^k for an int k, with k = 0 for
    an element c of R, or a lifted SkewPoly/TruncatedSeries c for k None."""

    def __init__(self, ctx: RingContext, precision):
        self.ctx = ctx
        self.precision = precision
        self.zero = ctx.zero()
        self.one = ctx.one()

    def element(self, coeffs):
        """The SkewPoly, or the class in S/G_N, with these coefficients."""
        if self.precision is None:
            return SkewPoly(self.ctx, coeffs)
        return TruncatedSeries(self.ctx, self.precision, coeffs)

    def lift(self, c, k):
        """The pair as a SkewPoly or TruncatedSeries."""
        if k is None:
            return c
        # x^k lies in G_N once k >= N
        if self.precision is not None and k >= self.precision:
            return self.element(())
        return self.element((self.zero,) * k + (c,))

    def value(self, node):
        kind = type(node)
        if kind is Const:
            return node.payload, 0
        if kind is Var:
            return self.one, 1
        if kind is Neg:
            c, k = self.value(node.child)
            return (-c, None) if k is None else (self.ctx.neg(c), k)
        if kind is Pow:
            return self.power(self.value(node.base), node.exponent)
        if kind is Mul:
            return self.product(self.value(node.left), self.value(node.right))
        if kind is Add or kind is Sub:
            (a, k), (b, l) = self.value(node.left), self.value(node.right)
            if k == 0 and l == 0:
                op = self.ctx.add if kind is Add else self.ctx.sub
                return op(a, b), 0
            lhs, rhs = self.lift(a, k), self.lift(b, l)
            return (lhs + rhs if kind is Add else lhs - rhs), None
        raise TypeError(f"not an expression node: {node!r}")

    def product(self, left, right):
        (c, k), (d, l) = left, right
        if k == 0 and l is not None:
            return (c if d == self.one else self.ctx.mul(c, d)), l
        return self.lift(c, k) * self.lift(d, l), None

    def power(self, base, exponent: int):
        c, k = base
        if k == 0:
            return _power(self.one, c, exponent, self.ctx.mul), 0
        # (x^k)^e = x^(k e) where x*1 = 1*x; otherwise (the delta=broken
        # control has delta(1) = t, so x x = x^2 + t x) it is multiplied out
        if k is not None and c == self.one and self.ctx.one_commutes_with_x():
            return c, k * exponent
        return self.lift(c, k) ** exponent, None
