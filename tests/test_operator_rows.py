"""The operator rows of the product kernel (RingContext._mkl_rows).  On one
warm context a sequence of products builds rows short and then extends
them; every product must still match an oracle that never reads the rows,
and every stored row must hold exactly the word-enumeration values."""

import random
import sys
import threading

import pytest

from conftest import BROKEN_PRESET, PRESET_MATRIX, assert_rows_read_the_memo
from skewseries import (SeriesScalars, SkewPoly, TruncatedSeries,
                        monomial_operator_words, parse_ring_preset,
                        poly_mul_commutation, skewpoly)
from skewseries.k0 import mat_mul
from skewseries.skewpoly import random_poly

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
        for b_i, rows in ctx._mkl_rows[d].items():
            extended += lengths.get(b_i, len(rows)) < len(rows)
            lengths[b_i] = len(rows)
    assert extended
    assert set(ctx._mkl_rows) == {d}
    for b_i, rows in ctx._mkl_rows[d].items():
        for n, row in enumerate(rows):
            words = [(k, monomial_operator_words(ctx, k, n, b_i)[0])
                     for k in range(d)]
            assert row == tuple((k, v) for k, v in words if v != zero)
    assert_rows_read_the_memo(ctx)


def test_a_row_extended_while_it_is_built(monkeypatch):
    # the row build of (1 + x + x^2) * t asks the recursion for M_{k,2}(t);
    # a product that extends the row of t to 7 entries runs first, inside
    # that call, and the outer build must not append its rows 0..2 after it
    ctx = parse_ring_preset("truncpoly:3:3:c=2")
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
    assert_rows_read_the_memo(ctx)


def test_threads_share_one_context():
    # two threads build and extend the rows of one context at once; every
    # product must match the oracle and every stored row must stay whole
    for seed in range(20):
        ctx = parse_ring_preset("truncpoly:3:3:c=2")
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
        assert_rows_read_the_memo(ctx)
