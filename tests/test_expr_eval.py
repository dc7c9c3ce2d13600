"""The shape-directed evaluator against the evaluator it replaced, which
lifted every leaf and computed every node with one SkewPoly or
TruncatedSeries operation."""

import random

import pytest

from conftest import BROKEN_PRESET, PRESET_MATRIX
from skewseries import (SkewPoly, TruncatedSeries, eval_expression,
                        parse_expression, parse_ring_preset)
from skewseries.exprparse import (Add, Const, Mul, Neg, Pow, Sub, Var,
                                  check_degree_budget, degree_bound)


def oracle_eval(node, ctx, precision=None):
    """Every constant lifted to SkewPoly.from_scalar (or
    TruncatedSeries.constant), x to the variable, and every node one
    operator of those classes."""
    if precision is None:
        check_degree_budget(degree_bound(node))
        return _lifted(node, lambda a: SkewPoly.from_scalar(ctx, a), SkewPoly.var(ctx))
    return _lifted(node, lambda a: TruncatedSeries.constant(ctx, precision, a),
                   TruncatedSeries.var(ctx, precision))


def _lifted(node, constant, var):
    if isinstance(node, Const):
        return constant(node.payload)
    if isinstance(node, Var):
        return var
    if isinstance(node, Add):
        return _lifted(node.left, constant, var) + _lifted(node.right, constant, var)
    if isinstance(node, Sub):
        return _lifted(node.left, constant, var) - _lifted(node.right, constant, var)
    if isinstance(node, Mul):
        return _lifted(node.left, constant, var) * _lifted(node.right, constant, var)
    if isinstance(node, Pow):
        return _lifted(node.base, constant, var) ** node.exponent
    if isinstance(node, Neg):
        return -_lifted(node.child, constant, var)
    raise TypeError(f"not an expression node: {node!r}")


# t stands for the ring's radical generator (t on truncpoly, p on zmod)
CORPUS = (
    # constants folded in R
    "(2*t^4)", "t^0", "0^0", "-(t - 2)", "3 - t*t + 2", "(1 + t)^5*(2 - t)^3",
    "-(-t)^3", "(t^2)^0*x",
    # monomials built directly
    "x", "x^0", "x^1", "x^5", "t*x^7", "2*t^4*x^3", "-x^3", "-(t*x^2)",
    "(x^2)^3", "((x^2)^3)^2", "(x^3)^0", "0*x^4", "(t + 2)*x^2", "(t^3)*x",
    # products of x-powers, through the kernel
    "x*x", "x^2*x^3", "2*x*x", "t*x^2*x", "-x^2*x",
    # a constant on the left of a non-monomial
    "t*(x + t)^3", "0*(x + t)", "(t^3)*(x + t)^2", "t*(2*(x + 1))", "t*(x*t)",
    # a right scalar, and monomials that are not products of x-powers
    "x^3*t", "x^3*t*x", "(t*x)^3", "(2*x^2)^2", "x^2*(t*x)", "(x*t)^2",
    # sums with x and general products
    "(t + x)^9 * (2 + t*x)", "t - t*x^2 + 3", "x^2 - x^2", "x - (t + 1)*x^3",
    "(1 + x)^4 - x^4", "(x + t)^2*x^3*t",
)


@pytest.mark.parametrize("preset", PRESET_MATRIX + (BROKEN_PRESET,))
def test_corpus_matches_the_oracle(preset):
    ctx = parse_ring_preset(preset)
    u = ctx.render(ctx.radical_gens[0])
    for text in CORPUS:
        node = parse_expression(text.replace("t", f"({u})"), ctx)
        for precision in (None, *range(1, 9)):
            value = eval_expression(node, ctx, precision)
            assert type(value) is (SkewPoly if precision is None else TruncatedSeries)
            assert value == oracle_eval(node, ctx, precision), (text, precision)


def _random_tree(rng, literals, depth):
    if depth == 0 or rng.random() < 0.25:
        return Var() if rng.random() < 0.5 else Const(rng.choice(literals))
    shape = rng.randrange(5)
    if shape == 0:
        return Pow(_random_tree(rng, literals, depth - 1), rng.randrange(5))
    if shape == 1:
        return Neg(_random_tree(rng, literals, depth - 1))
    cls = (Add, Sub, Mul)[shape - 2]
    return cls(_random_tree(rng, literals, depth - 1),
               _random_tree(rng, literals, depth - 1))


@pytest.mark.parametrize("preset", PRESET_MATRIX + (BROKEN_PRESET,))
def test_random_trees_match_the_oracle(preset):
    ctx = parse_ring_preset(preset)
    literals = [ctx.zero(), ctx.one(), ctx.from_int(2), *ctx.radical_gens]
    rng = random.Random(13)
    for _ in range(60):
        node = _random_tree(rng, literals, 4)
        if degree_bound(node) > 40:
            continue
        for precision in (None, 1, 3, 6):
            assert eval_expression(node, ctx, precision) == \
                oracle_eval(node, ctx, precision), (node, precision)


@pytest.mark.parametrize("precision", (None, 8))
def test_monomial_costs_only_the_constant_fold(monkeypatch, precision):
    # 2*t^4 takes t*t, t^2*t^2 (square-and-multiply from the base at the
    # lowest set bit, as skewpoly._power) and 2*t^4; x^3 and the product
    # with it take none
    ctx = parse_ring_preset("truncpoly:3:6:c=2")
    node = parse_expression("2*t^4*x^3", ctx)
    t = ctx.named_literals()["t"]
    t2, t4 = ctx.mul(t, t), ctx.mul(ctx.mul(t, t), ctx.mul(t, t))
    calls = []
    plain = ctx.mul

    def mul(a, b):
        calls.append((a, b))
        return plain(a, b)

    def no_product(*_):
        raise AssertionError("no SkewPoly or TruncatedSeries product expected")

    for cls in (SkewPoly, TruncatedSeries):
        monkeypatch.setattr(cls, "__mul__", no_product)
        monkeypatch.setattr(cls, "__pow__", no_product)
    monkeypatch.setattr(ctx, "mul", mul)
    value = eval_expression(node, ctx, precision)
    two = ctx.from_int(2)
    assert calls == [(t, t), (t2, t2), (two, t4)]
    coeffs = (ctx.zero(),) * 3 + (plain(two, t4),)
    if precision is None:
        assert value == SkewPoly(ctx, coeffs)
    else:
        assert value == TruncatedSeries(ctx, precision, coeffs)


@pytest.mark.parametrize("precision", (None, 5))
def test_constant_times_a_sum_uses_the_kernel(monkeypatch, precision):
    # t*(x + t) is one product of the lifted t with the lifted sum
    ctx = parse_ring_preset("truncpoly:3:3:c=2")
    cls = SkewPoly if precision is None else TruncatedSeries
    products = []
    plain = cls.__mul__

    def counted(a, b):
        products.append((a, b))
        return plain(a, b)

    monkeypatch.setattr(cls, "__mul__", counted)
    node = parse_expression("t*(x + t)", ctx)
    value = eval_expression(node, ctx, precision)
    monkeypatch.undo()
    assert value == oracle_eval(node, ctx, precision)
    t = ctx.named_literals()["t"]
    assert [a.coeffs[:1] for a, _ in products] == [(t,)]
