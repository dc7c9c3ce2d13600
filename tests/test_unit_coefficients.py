"""Coefficients equal to 1 in the product kernel (skewpoly._add_products).
A left coefficient 1 adds the operator value itself (1*v = v in R), and a
right coefficient 1, where x*1 = 1*x, adds its partner's coefficients with
no operator row and no multiplication.  The kernel as it was before these
two rules (_reference_add_products, kept here as an oracle) and the
iterated-commutation product (poly_mul_commutation) must give the same
products on factors a third of whose coefficients are 1, and the kernel
must make the reference's multiplications, in order, less exactly those
by 1."""

import collections
import random

import pytest

from conftest import BROKEN_PRESET, PRESET_MATRIX
from skewseries import (SkewPoly, TruncatedSeries, parse_ring_preset,
                        poly_mul_commutation, skewpoly)
from skewseries.series import matrix_product
from skewseries.skewpoly import _NO_TERMS, _operator_rows

UNIT_PRESETS = PRESET_MATRIX + (BROKEN_PRESET,)
PRECISIONS = tuple(range(1, 13))


def _reference_add_products(ctx, partners, width, gb, lb, length):
    """_add_products without the rules for coefficients 1: every term is
    a_j * M_{j-n,n}(b_i) by ctx.mul, the operator row of every nonzero b_i
    looked up, and every slot summed by ctx.add."""
    zero = ctx.zero()
    add, mul = ctx.add, ctx.mul
    table = ctx._mkl_rows
    single = len(partners) == 1
    if single:
        ((f, la, acc),) = partners
    for i in range(min(lb, length)):
        b = gb[i]
        if b == zero:
            continue
        top = min(width, length - i)
        rows = table.get(b, _NO_TERMS)
        if len(rows) < top:
            rows = _operator_rows(ctx, b, top)
        if single:
            for n, row in zip(range(top), rows):
                m = i + n
                for k, v in row:
                    j = n + k
                    if j >= la:
                        break
                    a = f[j]
                    if a != zero:
                        acc[m] = add(acc[m], mul(a, v))
            continue
        for n, row in zip(range(top), rows):
            m = i + n
            for k, v in row:
                j = n + k
                if j >= width:
                    break
                for f, la, acc in partners:
                    if j < la:
                        a = f[j]
                        if a != zero:
                            acc[m] = add(acc[m], mul(a, v))


def _kernels(monkeypatch, reference_ctx, mutant=False):
    """Route the kernel of reference_ctx to _reference_add_products.  A
    mutant kernel takes the right-unit branch on every context, without
    x*1 = 1*x."""
    plain = skewpoly._add_products

    def routed(ctx, partners, width, gb, lb, length, right_unit):
        if ctx is reference_ctx:
            _reference_add_products(ctx, partners, width, gb, lb, length)
        else:
            plain(ctx, partners, width, gb, lb, length, right_unit or mutant)

    monkeypatch.setattr(skewpoly, "_add_products", routed)


def _record(ctx, calls):
    """Log the arguments of every ctx.mul in calls["mul"] and count every
    ctx.add in calls["add"]."""
    plain_mul, plain_add = ctx.mul, ctx.add

    def mul(a, b):
        calls["mul"].append((a, b))
        return plain_mul(a, b)

    def add(a, b):
        calls["add"].append((a, b))
        return plain_add(a, b)

    ctx.mul, ctx.add = mul, add


def _unit_heavy_poly(ctx, length, rng):
    """A polynomial of at most ``length`` coefficients, each 1, zero or
    random with equal odds."""
    one, zero = ctx.one(), ctx.zero()
    return SkewPoly(ctx, [rng.choice((one, zero, ctx.sample(rng)))
                          for _ in range(length)])


def _moved(ctx, x):
    """x on the context ctx of the same preset."""
    if isinstance(x, SkewPoly):
        return SkewPoly(ctx, x.coeffs)
    return TruncatedSeries(ctx, x.precision, x.coeffs)


def _draws(ctx, rng):
    """(name, left, right) factors for the three kinds of product: SkewPoly
    products, series products at N = 1..12 and 3x3 matrix products of
    series; a whole factor 1 and x are among the polynomials."""
    polys = [SkewPoly.one(ctx), SkewPoly.var(ctx)] + [
        _unit_heavy_poly(ctx, rng.randrange(1, 9), rng) for _ in range(10)]
    for f in polys:
        for g in polys:
            yield "poly", f, g
    for n in PRECISIONS:
        series = [TruncatedSeries.from_poly(f, n) for f in polys]
        for _ in range(12):
            yield "series", rng.choice(series), rng.choice(series)
        for _ in range(2):
            a, b = ([[rng.choice(series) for _ in range(3)] for _ in range(3)]
                    for _ in range(2))
            yield "matrix", a, b


def _product(kind, f, g):
    if kind == "matrix":
        x = f[0][0]
        return matrix_product(x.ctx, x.precision, f, g)
    return f * g


def _oracle(kind, f, g):
    """The product by iterated commutation, with no call of the kernel."""
    def pair(x, y):
        prod = poly_mul_commutation(x.to_poly(), y.to_poly())
        return TruncatedSeries.from_poly(prod, x.precision)

    if kind == "poly":
        return poly_mul_commutation(f, g)
    if kind == "series":
        return pair(f, g)
    out = []
    for row in f:
        out_row = []
        for col in zip(*g):
            acc = TruncatedSeries.zero(row[0].ctx, row[0].precision)
            for x, y in zip(row, col):
                acc = acc + pair(x, y)
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def _on(ctx, kind, x):
    if kind == "matrix":
        return [[_moved(ctx, y) for y in row] for row in x]
    return _moved(ctx, x)


@pytest.mark.parametrize("preset", UNIT_PRESETS)
def test_products_match_the_reference_and_commutation(preset, monkeypatch):
    ctx, ref = parse_ring_preset(preset), parse_ring_preset(preset)
    right_unit = ctx.one_commutes_with_x()
    assert right_unit == (preset != BROKEN_PRESET)
    one = ctx.one()
    _kernels(monkeypatch, ref)
    calls = collections.defaultdict(list)
    ref_calls = collections.defaultdict(list)
    _record(ctx, calls)
    _record(ref, ref_calls)
    skipped = collections.Counter()
    for kind, f, g in _draws(ctx, random.Random(f"{preset}/units")):
        for log in (calls, ref_calls):
            log.clear()
        got = _product(kind, f, g)
        assert got == _product(kind, _on(ref, kind, f), _on(ref, kind, g))
        # the kernel's multiplications are the reference's, in order, but
        # for a left factor 1 and, where x*1 = 1*x, a right factor 1
        kept = [(a, b) for a, b in ref_calls["mul"]
                if not (a == one or (right_unit and b == one))]
        assert calls["mul"] == kept, (kind, f, g)
        assert len(calls["add"]) <= len(ref_calls["add"])
        skipped["left"] += sum(a == one for a, _ in ref_calls["mul"])
        skipped["right"] += sum(right_unit and a != one and b == one
                                for a, b in ref_calls["mul"])
        skipped["add"] += len(ref_calls["add"]) - len(calls["add"])
        assert got == _oracle(kind, f, g), (kind, f, g)
    # the left-unit rule is met on every preset; the right-unit rule is
    # taken only where x*1 = 1*x, and there a slot still zero takes a_n
    # with no add
    assert skipped["left"] > 0
    assert (skipped["right"] > 0) == (skipped["add"] > 0) == right_unit
    # a right coefficient 1 builds no operator row; every other row is
    # the reference's
    assert (one in ctx._mkl_rows) != right_unit
    assert ctx._mkl_rows == {b: rows for b, rows in ref._mkl_rows.items()
                             if not (right_unit and b == one)}


@pytest.mark.parametrize("preset", (BROKEN_PRESET, "truncpoly:3:3:c=2"))
def test_right_unit_without_the_gate_fails_on_delta_broken(preset, monkeypatch):
    # must-fail control: the right-unit branch taken without x*1 = 1*x
    # gives x*1 = x on delta=broken, where x*1 = x + t; where x*1 = 1*x
    # the mutant is the kernel itself
    ctx = parse_ring_preset(preset)
    _kernels(monkeypatch, None, mutant=True)
    wrong = sum(_product(kind, f, g) != _oracle(kind, f, g)
                for kind, f, g in _draws(ctx, random.Random(f"{preset}/mutant")))
    assert (wrong > 0) == (preset == BROKEN_PRESET)


def test_unit_coefficients_cost_no_multiplication():
    # (1 + x)^9 * (2 + t*x) on a fresh context, whose rows start empty.
    # Over F_3[t]/(t^6), where sigma(1) = 1 and delta(1) = 0, the power
    # takes (1 + x)^2 = 1 + 2x + x^2, its square and the square of that,
    # then (1 + x) * (1 + x)^8 = 1 + x^9; the only product of coefficients
    # neither of which is 1 is 2*2 in (1 + 2x + x^2)^2.  The product by
    # 2 + t*x has left coefficients 1 only.  The kernel without the two
    # rules makes 47 muls and 47 adds for the power and 5 muls and 5 adds
    # for the product, and builds the row of 1
    ctx = parse_ring_preset("truncpoly:3:6:c=2")
    one, x = SkewPoly.one(ctx), SkewPoly.var(ctx)
    base = one + x
    g = SkewPoly(ctx, (ctx.from_int(2), ctx.radical_gens[0]))
    calls = collections.defaultdict(list)
    _record(ctx, calls)
    f = base ** 9
    power = {op: len(log) for op, log in calls.items()}
    calls.clear()
    prod = f * g
    product = {op: len(log) for op, log in calls.items()}
    assert f == SkewPoly(ctx, [ctx.one()] + [ctx.zero()] * 8 + [ctx.one()])
    assert prod == poly_mul_commutation(f, g)
    assert power == {"mul": 1, "add": 25}
    assert product == {"add": 5}
    # a right coefficient 1 builds no operator row: only 2 and t have one
    assert set(ctx._mkl_rows) == {ctx.from_int(2), ctx.radical_gens[0]}
