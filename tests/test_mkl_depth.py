"""The depth d = RingContext.mkl_depth() at which the monomial operators
M_{k,l} vanish, and the product kernels that cut at it."""

import random

import pytest

from conftest import BROKEN_PRESET, PRESET_MATRIX
from skewseries import (SeriesScalars, SkewPoly, TruncatedSeries,
                        eval_expression, monomial_operator_words,
                        parse_expression, parse_ring_preset,
                        poly_mul_commutation, run_property_suite,
                        sigma_nilpotence_bound)
from skewseries.k0 import mat_mul
from skewseries.suites import random_poly

DEPTH_PRESETS = PRESET_MATRIX + (BROKEN_PRESET, "truncpoly:3:6:c=2",
                                 "truncpoly:7:3:c=3", "truncpoly:3:1:c=2",
                                 "truncpoly:2:8:c=1")


@pytest.mark.parametrize("preset", DEPTH_PRESETS)
def test_depth_is_the_verified_word_bound(preset):
    ctx = parse_ring_preset(preset)
    nil = ctx.radical_nilpotency
    d = ctx.mkl_depth()
    assert 1 <= d <= nil
    # every word with at least d delta letters (up to length nil + 2) is zero
    assert d == sigma_nilpotence_bound(ctx, nil, nil + 2)
    if d > 1:
        zero = ctx.zero()
        assert any(monomial_operator_words(ctx, d - 1, l, a)[0] != zero
                   for l in range(3) for a in ctx.elements())


def test_depth_per_family():
    depths = {preset: parse_ring_preset(preset).mkl_depth() for preset in (
        "zmod:2^10", "truncpoly:3:3:c=2:delta=zero", "truncpoly:3:3:c=1",
        BROKEN_PRESET, "truncpoly:3:6:c=2", "truncpoly:5:4:c=2",
        "truncpoly:7:3:c=3", "truncpoly:3:1:c=2")}
    assert depths == {
        "zmod:2^10": 1, "truncpoly:3:3:c=2:delta=zero": 1, "truncpoly:3:3:c=1": 1,
        BROKEN_PRESET: 3,
        "truncpoly:3:6:c=2": 2,     # ord_3(2) = 2
        "truncpoly:5:4:c=2": 3,     # ord_5(2) = 4, m - 1 = 3
        "truncpoly:7:3:c=3": 2,     # ord_7(3) = 6, m - 1 = 2
        "truncpoly:3:1:c=2": 1}


def test_depth_is_lazy_and_clamped_at_the_nilpotency():
    ctx = parse_ring_preset("truncpoly:3:6:c=2")
    assert ctx._family_mkl_depth is None
    assert ctx.mkl_depth() == 2
    ctx.radical_nilpotency = 1
    assert ctx.mkl_depth() == 1


def test_oracle_checks_vanishing_from_the_depth():
    ctx = parse_ring_preset("truncpoly:3:3:c=2")
    report = run_property_suite("mkl-oracle", ctx, None, 1, 0)
    assert report.passed, report.counterexample
    assert report.details["mkl_depth"] == 2
    # |R| elements times the (k, l) with k + l <= 6 and k >= 2
    assert report.details["vanishing_checks"] == 27 * sum(
        1 for total in range(7) for k in range(2, total + 1))


def test_memo_rows_stop_at_the_depth():
    # the operator rows hold k < d only, whether the closed form built them
    # (the memo then stays empty) or the recursion, which the control preset
    # runs no deeper than k = d
    for preset in ("zmod:2^3", "truncpoly:3:6:c=2", BROKEN_PRESET):
        ctx = parse_ring_preset(preset)
        lin = SkewPoly(ctx, (ctx.radical_gens[0], ctx.one()))
        g = SkewPoly(ctx, (ctx.one(), ctx.radical_gens[0]))
        assert lin ** 40 * g == poly_mul_commutation(lin ** 40, g)
        d = ctx.mkl_depth()
        assert {k for rows in ctx._mkl_rows.values()
                for row in rows for k, _ in row} == set(range(d))
        assert all(k <= d for k, _, _ in ctx._mkl_cache)
        assert bool(ctx._mkl_cache) == (preset == BROKEN_PRESET)


def _kernels(ctx, power):
    """The SkewPoly, TruncatedSeries and matrix products, three ways into
    the kernel that cuts at the depth, each on 2*x^power * t; the series
    are taken at N = power + 2, so t is nonzero in S/G_N.  The left factor
    is 2*x^power, not x^power: a left factor 1 costs every product
    additions only, reading no operator row."""
    t = ctx.radical_gens[0]
    two_x_pow = (ctx.zero(),) * power + (ctx.from_int(2),)
    n = power + 2
    series_2x = TruncatedSeries(ctx, n, two_x_pow)
    series_t = TruncatedSeries.constant(ctx, n, t)
    return (lambda: SkewPoly(ctx, two_x_pow) * SkewPoly.from_scalar(ctx, t),
            lambda: series_2x * series_t,
            lambda: mat_mul(SeriesScalars(ctx, n), ((series_2x,),), ((series_t,),)))


class TestDepthOneTooSmall:
    """With the depth claimed one below the true value, every kernel that
    cuts at it must notice the nonzero term it skips."""

    @pytest.fixture
    def shrunk(self, monkeypatch):
        ctx = parse_ring_preset("truncpoly:3:3:c=2")
        assert ctx.mkl_depth() == 2
        monkeypatch.setattr(ctx, "mkl_depth", lambda: 1)
        return ctx

    def test_every_kernel_raises(self, shrunk):
        # 2*x^2 * t skips M_{1,0}(t) = delta(t) = t^2; 2 * t skips no term,
        # but the operator row of t must not admit a nonzero M_{1,0}(t).
        # 1 * t is t in every kernel, added without reading the row of t
        ctx, t = shrunk, shrunk.radical_gens[0]
        series_t = TruncatedSeries.constant(ctx, 2, t)
        assert SkewPoly.one(ctx) * SkewPoly.from_scalar(ctx, t) \
            == SkewPoly.from_scalar(ctx, t)
        assert TruncatedSeries.one(ctx, 2) * series_t == series_t
        assert mat_mul(SeriesScalars(ctx, 2), ((TruncatedSeries.one(ctx, 2),),),
                       ((series_t,),)) == ((series_t,),)
        assert ctx._mkl_rows == {}
        for power in (0, 2):
            for kernel in _kernels(shrunk, power):
                with pytest.raises(AssertionError,
                                   match="nilpotence bound violated"):
                    kernel()


@pytest.mark.parametrize("preset", ("zmod:2^3", "truncpoly:3:3:c=2",
                                    BROKEN_PRESET))
def test_warm_products_do_not_read_the_depth(preset, monkeypatch):
    # a context's depth is fixed by its family and its nilpotency, so the
    # kernels read it only where they build or extend an operator row:
    # products whose rows are all built read it no more
    ctx = parse_ring_preset(preset)
    rng = random.Random(preset)
    pairs = [(random_poly(ctx, 5, rng), random_poly(ctx, 4, rng))
             for _ in range(6)]
    products = [k for power in (0, 2) for k in _kernels(ctx, power)] + [
        lambda f=f, g=g: f * g for f, g in pairs] + [
        lambda f=f, g=g: TruncatedSeries.from_poly(f, 5)
        * TruncatedSeries.from_poly(g, 5) for f, g in pairs]
    reads = []
    plain = ctx.mkl_depth

    def counted():
        reads.append(None)
        return plain()
    monkeypatch.setattr(ctx, "mkl_depth", counted)
    cold = [product() for product in products]
    assert reads and ctx._mkl_rows
    del reads[:]
    assert [product() for product in products] == cold
    assert reads == []


def _counted_eval(text, precision):
    """eval_expression on a fresh truncpoly:3:6:c=2 context, with the number
    of ring multiplications it made."""
    ctx = parse_ring_preset("truncpoly:3:6:c=2")
    node = parse_expression(text, ctx)
    calls = [0]
    plain = ctx.mul

    def mul(a, b):
        calls[0] += 1
        return plain(a, b)
    ctx.mul = mul
    value = eval_expression(node, ctx, precision)
    del ctx.mul
    return ctx, value, calls[0]


def test_product_cost_at_the_depth():
    # 110 and 59 multiplications with the cut at the nilpotency (6) and
    # every zero term multiplied out
    text = "(t + x)^16 * (2 + t*x^3)"
    ctx, poly, calls = _counted_eval(text, None)
    t = ctx.radical_gens[0]
    lin = SkewPoly(ctx, (t, ctx.one()))
    expected = SkewPoly.one(ctx)
    for _ in range(16):
        expected = poly_mul_commutation(lin, expected)
    expected = poly_mul_commutation(expected, SkewPoly(
        ctx, (ctx.from_int(2), ctx.zero(), ctx.zero(), t)))
    assert poly == expected
    assert calls <= 35
    _, series, calls = _counted_eval(text, 12)
    assert series == TruncatedSeries.from_poly(expected, 12)
    assert calls <= 22


# the depth well below the nilpotency (2 against 6), and a q-twist whose
# depth is m - 1 rather than ord_q(c); PRESET_MATRIX covers the others
@pytest.mark.parametrize("preset", ("truncpoly:3:6:c=2", "truncpoly:7:3:c=3"))
def test_products_match_commutation_past_the_depth(preset):
    ctx = parse_ring_preset(preset)
    rng = random.Random(31)
    for _ in range(4):
        f = random_poly(ctx, ctx.radical_nilpotency + 2, rng)
        g = random_poly(ctx, ctx.radical_nilpotency + 2, rng)
        assert f * g == poly_mul_commutation(f, g)
