"""The operator rows of the product kernel (RingContext._mkl_rows).  On one
warm context a sequence of products builds rows short and then extends
them; every product must still match an oracle that never reads the rows,
and every stored row must hold exactly the word-enumeration values.  The
rows come from the family's closed form (RingContext._closed_rows) where
it has one, and the M_{k,l} recursion is its oracle."""

import gc
import random
import sys
import threading
import weakref

import pytest

from conftest import (BROKEN_PRESET, PRESET_MATRIX,
                      assert_rows_are_the_operator_values)
from skewseries import (SeriesScalars, SkewPoly, TruncatedSeries,
                        monomial_operator_words, parse_ring_preset,
                        poly_mul_commutation, run_property_suite, skewpoly)
from skewseries.k0 import mat_mul
from skewseries.series import random_series
from skewseries.skewpoly import _recursion_rows
from skewseries.suites import random_poly

ROW_PRESETS = PRESET_MATRIX + (BROKEN_PRESET,
                               "truncpoly:3:6:c=2")

# (left length, right length, precision) per step: the widths and lengths
# rise and fall, so most rows are built short and extended later
STEPS = ((2, 3, 2), (5, 2, 6), (1, 4, 3), (7, 3, 9), (3, 5, 2), (9, 2, 11),
         (4, 6, 5))


def _by_commutation(x, y):
    """The series product from the iterated-commutation polynomial product."""
    return TruncatedSeries.from_poly(
        poly_mul_commutation(x.to_poly(), y.to_poly()), x.precision)


def _schoolbook(ctx, precision, a, b):
    """a * b over S/G_N as the fold acc = acc + x*y, each x*y by
    commutation."""
    out = []
    for row in a:
        out_row = []
        for col in zip(*b):
            acc = TruncatedSeries.zero(ctx, precision)
            for x, y in zip(row, col):
                acc = acc + _by_commutation(x, y)
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def _random_entries(ctx, precision, max_length, shape, rng):
    """Series of random lengths up to max_length, zero now and then."""
    rows, cols = shape
    return tuple(tuple(
        TruncatedSeries.from_poly(
            random_poly(ctx, rng.randrange(max_length), rng), precision)
        for _ in range(cols)) for _ in range(rows))


@pytest.mark.parametrize("preset", ROW_PRESETS)
def test_warm_rows_match_the_oracles(preset):
    ctx = parse_ring_preset(preset)
    d, zero = ctx.mkl_depth(), ctx.zero()
    rng = random.Random(preset)
    lengths, extended = {}, 0
    for la, lb, precision in STEPS:
        f, g = random_poly(ctx, la - 1, rng), random_poly(ctx, lb - 1, rng)
        assert f * g == poly_mul_commutation(f, g)
        fs = TruncatedSeries.from_poly(f, precision)
        gs = TruncatedSeries.from_poly(g, precision)
        assert fs * gs == _by_commutation(fs, gs)
        a = _random_entries(ctx, precision, la, (2, 3), rng)
        b = _random_entries(ctx, precision, lb, (3, 2), rng)
        assert mat_mul(SeriesScalars(ctx, precision), a, b) == \
            _schoolbook(ctx, precision, a, b)
        for b_i, rows in ctx._mkl_rows.items():
            extended += lengths.get(b_i, len(rows)) < len(rows)
            lengths[b_i] = len(rows)
    assert extended
    for b_i, rows in ctx._mkl_rows.items():
        for n, row in enumerate(rows):
            words = [(k, monomial_operator_words(ctx, k, n, b_i)[0])
                     for k in range(d)]
            assert row == tuple((k, v) for k, v in words if v != zero)
    assert_rows_are_the_operator_values(ctx)


def test_a_row_extended_while_it_is_built(monkeypatch):
    # the row build of (1 + x + x^2) * t asks the recursion for M_{k,2}(t);
    # a product that extends the row of t to 7 entries runs first, inside
    # that call, and the outer build must not append its rows 0..2 after it.
    # Only the recursion calls out while a row is built, so the control
    # preset, which has no closed form, is the one to interleave
    ctx = parse_ring_preset(BROKEN_PRESET)
    t = ctx.radical_gens[0]
    plain = skewpoly.monomial_operator_apply
    nested = []

    def interleaved(ctx_, k, l, a):
        if a == t and l == 2 and not nested:
            nested.append((k, l))
            SkewPoly(ctx, (ctx.one(),) * 7) * SkewPoly(ctx, (t,))
        return plain(ctx_, k, l, a)

    monkeypatch.setattr(skewpoly, "monomial_operator_apply", interleaved)
    g = SkewPoly(ctx, (t,))
    f = SkewPoly(ctx, (ctx.one(),) * 3)
    assert f * g == poly_mul_commutation(f, g)
    assert nested
    f = SkewPoly(ctx, (ctx.one(),) * 10)
    assert f * g == poly_mul_commutation(f, g)
    assert_rows_are_the_operator_values(ctx)


@pytest.mark.parametrize("preset", ("truncpoly:3:3:c=2", BROKEN_PRESET))
def test_threads_share_one_context(preset):
    # two threads build and extend the rows of one context at once, from
    # the closed form and from the recursion; every product must match the
    # oracle and every stored row must stay whole
    for seed in range(20):
        ctx = parse_ring_preset(preset)
        rng = random.Random(seed)
        pairs = [(random_poly(ctx, rng.randrange(1, 9), rng),
                  random_poly(ctx, rng.randrange(1, 4), rng))
                 for _ in range(40)]
        expected = [poly_mul_commutation(f, g) for f, g in pairs]
        wrong = []

        def work(order):
            for idx in order:
                f, g = pairs[idx]
                if f * g != expected[idx]:
                    wrong.append(idx)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(order,))
                       for order in (range(40), range(39, -1, -1))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        # a thread may store a shorter extension over a longer one; one more
        # pass on this thread brings each row back to the length the
        # products need, so the rows cover the memo again
        work(range(40))
        assert wrong == []
        assert_rows_are_the_operator_values(ctx)


# every n below this spans several periods ord_q(c) of the closed form
CLOSED_TOP = 40


def _rows_or_error(build, ctx, d, b, built, top):
    try:
        return build(ctx, d, b, built, top)
    except AssertionError as exc:
        return str(exc)


@pytest.mark.parametrize("preset", PRESET_MATRIX + ("truncpoly:3:6:c=2",
                                                    "truncpoly:7:3:c=3"))
def test_closed_rows_match_the_recursion(preset):
    # every b of the carrier (a seeded sample above 256 elements) and every
    # n < CLOSED_TOP at the family's depth, and at every depth up to the
    # nilpotency on a few b: below the true depth both raise at the same n
    # with the same text, at or above it both give the same rows
    ctx = parse_ring_preset(preset)
    elems = sorted(ctx.elements())
    if len(elems) > 256:
        elems = random.Random(preset).sample(elems, 256)
    nil, depth = ctx.radical_nilpotency, ctx.mkl_depth()
    closed = type(ctx)._closed_rows
    for i, b in enumerate(elems):
        for d in (range(1, nil + 1) if i < 8 else (depth,)):
            ref = parse_ring_preset(preset)
            expected = _rows_or_error(_recursion_rows, ref, d, b, 0, CLOSED_TOP)
            assert _rows_or_error(closed, ctx, d, b, 0, CLOSED_TOP) == expected
            if isinstance(expected, tuple):
                # an extension is the slice of the whole row
                assert closed(ctx, d, b, 7, CLOSED_TOP) == expected[7:]
    # the rows are ready for the kernel: values are the carrier's own
    # element objects (truncpoly's element table), and the distinct rows are
    # shared within the returned tuple
    if ctx.name.startswith("truncpoly"):
        for b in elems:
            rows = ctx._closed_rows(depth, b, 0, CLOSED_TOP)
            assert all(ctx._elems[v] is v for row in rows for _, v in row)
            assert len({id(row) for row in rows}) <= ctx._twist_order()


def test_the_control_preset_has_no_closed_form():
    ctx = parse_ring_preset(BROKEN_PRESET)
    t = ctx.radical_gens[0]
    assert ctx._closed_rows(ctx.mkl_depth(), t, 0, CLOSED_TOP) is None
    f, g = SkewPoly(ctx, (ctx.one(), t)), SkewPoly.from_scalar(ctx, t)
    assert f * g == poly_mul_commutation(f, g)
    assert ctx._mkl_cache
    assert_rows_are_the_operator_values(ctx)


def _used_context(preset):
    """A weak reference to a context that has run a product, a series
    product and a suite, and that nothing else refers to any more."""
    ctx = parse_ring_preset(preset)
    rng = random.Random(preset)
    f, g = random_poly(ctx, 4, rng), random_poly(ctx, 4, rng)
    f * g
    random_series(ctx, 5, rng) * random_series(ctx, 5, rng)
    run_property_suite("series-assoc", ctx, 4, 2, 1)
    return weakref.ref(ctx)


@pytest.mark.parametrize("preset", PRESET_MATRIX + (BROKEN_PRESET,))
def test_a_dropped_context_is_freed_by_reference_counting(preset):
    # a reference cycle through a context (a bound method of it stored on
    # it, say) would keep every per-request context alive until the cyclic
    # collector runs
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert _used_context(preset)() is None
    finally:
        if enabled:
            gc.enable()
