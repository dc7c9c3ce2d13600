"""TruncPolyRing answers add and mul from a memo per context, and neg,
sigma and delta from closed formulas that store nothing.  The formulas
behind the memo (_add, _mul) are the oracles: every memoized value must
equal theirs, both on the miss that stores it and on the hit that reads it
back, and the tables must stay within MEMO_CAP entries.  neg and sigma
must equal their coefficientwise formulas, and delta must equal
t*(sigma(a) - a) composed of them."""

import itertools
import random
import sys
import threading
import time

import pytest

from conftest import BROKEN_PRESET, PRESET_MATRIX
from skewseries import TruncPolyRing, parse_ring_preset, run_property_suite
from skewseries.rings import MEMO_CAP

MEMO_PRESETS = tuple(p for p in PRESET_MATRIX if p.startswith("truncpoly")) + (
    BROKEN_PRESET, "truncpoly:3:4:c=2")
OPS = ("add", "mul")


def direct(name):
    """The formula behind the memo of the named operation."""
    return getattr(TruncPolyRing, "_" + name)


def direct_neg(ctx, a):
    return bytes((-x) % ctx.q for x in a)


def direct_sigma(ctx, a):
    """sigma(f)(t) = f(c*t): the coefficient of t^i scaled by c^i."""
    return bytes(x * pow(ctx.c, i, ctx.q) % ctx.q for i, x in enumerate(a))


def direct_delta(ctx, a):
    """delta from the formulas alone, bypassing every memo."""
    if ctx.delta_mode == "zero":
        return bytes(ctx.m)
    if ctx.delta_mode == "broken":
        return ctx._shift(a)
    return ctx._shift(direct("add")(ctx, direct_sigma(ctx, a),
                                    direct_neg(ctx, a)))


def memo_sizes(ctx):
    return {name: len(getattr(ctx, f"_{name}_memo")) for name in OPS}


def _formulas_refuse(ctx):
    """Make every formula raise on this instance: a call that still
    succeeds was answered by the memo."""
    def refuse(*args):
        raise AssertionError(f"formula called on a stored argument {args}")
    for name in OPS:
        setattr(ctx, "_" + name, refuse)


def _assert_memo_matches_formulas(ctx, pairs, singles):
    sizes = None
    for rep in range(2):
        for a, b in pairs:
            for name in ("add", "mul"):
                value = getattr(ctx, name)(a, b)
                assert value == direct(name)(ctx, a, b), (name, a, b)
                assert type(value) is bytes
        for a in singles:
            assert ctx.neg(a) == direct_neg(ctx, a)
            assert ctx.sigma(a) == direct_sigma(ctx, a)
            assert ctx.delta(a) == direct_delta(ctx, a)
        if rep == 0:
            sizes = memo_sizes(ctx)
            # the second pass repeats every call of the first; if the
            # first stored them all, it never reaches a formula
            if max(sizes.values()) < MEMO_CAP:
                _formulas_refuse(ctx)
    assert memo_sizes(ctx) == sizes
    return sizes


@pytest.mark.parametrize("preset", MEMO_PRESETS)
def test_memo_matches_formulas_on_every_pair(preset):
    ctx = parse_ring_preset(preset)
    elems = sorted(ctx.elements())
    sizes = _assert_memo_matches_formulas(
        ctx, itertools.product(elems, repeat=2), elems)
    n = len(elems)
    assert sizes == dict.fromkeys(OPS, min(n * n, MEMO_CAP))


def test_memo_matches_formulas_on_sampled_pairs():
    ctx = parse_ring_preset("truncpoly:3:6:c=2")
    rng = random.Random(6)
    pairs = [(ctx.sample(rng), ctx.sample(rng)) for _ in range(3000)]
    singles = [a for pair in pairs[:300] for a in pair]
    _assert_memo_matches_formulas(ctx, pairs, singles)


@pytest.mark.parametrize("bad", [bytes([3, 0, 0]), bytearray([1, 2, 0]),
                                 bytes([1, 2])])
def test_non_canonical_arguments_take_the_formula(bad):
    ctx = parse_ring_preset("truncpoly:3:3:c=2")
    t = ctx.radical_gens[0]
    for name in OPS:
        getattr(ctx, name)(t, t)
    canonical = {name: dict(getattr(ctx, f"_{name}_memo")) for name in OPS}
    # neg and sigma store nothing, so they read any byte sequence
    assert ctx.neg(bad) == direct_neg(ctx, bad)
    assert ctx.sigma(bad) == direct_sigma(ctx, bad)
    # the ring only hands out bytes: a bytearray cannot be a key, and add
    # and mul refuse it
    if type(bad) is bytearray:
        for name in OPS:
            for args in ((bad, t), (t, bad)):
                with pytest.raises(TypeError):
                    getattr(ctx, name)(*args)
        assert {name: dict(getattr(ctx, f"_{name}_memo"))
                for name in OPS} == canonical
        return
    for _ in range(2):
        for name in OPS:
            for args in ((bad, t), (t, bad)):
                assert getattr(ctx, name)(*args) == direct(name)(ctx, *args)
    # a hashable argument is a key of its own, which answers only itself
    for name in OPS:
        memo = getattr(ctx, f"_{name}_memo")
        assert {k: memo[k] for k in canonical[name]} == canonical[name]
        assert len(memo) - len(canonical[name]) == 2


class SlowMissTable(dict):
    """An element table whose misses sleep, which lets the other thread run
    between a lookup that found nothing and the entry that follows it."""

    def get(self, key, default=None):
        value = super().get(key, default)
        if value is None:
            time.sleep(0.001)
        return value


@pytest.mark.parametrize("table", [dict, SlowMissTable])
def test_two_threads_fill_one_context_without_a_lock(table):
    # the add and mul memos have no lock: two threads miss on the same
    # pairs, in opposite orders, and every value must still be its
    # formula's, each memo must end with one entry per pair, and every
    # stored value must be the element table's one object for it
    ctx = parse_ring_preset("truncpoly:3:3:c=2")
    ctx._elems = table()
    elems = sorted(ctx.elements())
    pairs = list(itertools.product(elems, repeat=2))
    wrong = []

    def work(order):
        for a, b in order:
            for name in OPS:
                if getattr(ctx, name)(a, b) != direct(name)(ctx, a, b):
                    wrong.append((name, a, b))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(order,))
                   for order in (pairs, pairs[::-1])]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert memo_sizes(ctx) == {"add": 27 ** 2, "mul": 27 ** 2}
    for name in OPS:
        memo = getattr(ctx, f"_{name}_memo")
        assert all(ctx._elems[v] is v for v in memo.values())


class RaisingMul(TruncPolyRing):
    """truncpoly:3:3:c=2 whose direct mul raises on t * t."""

    def __init__(self):
        super().__init__(3, 3, 2)

    def _mul(self, a, b):
        if a == b == self.radical_gens[0]:
            raise ArithmeticError("t * t")
        return super()._mul(a, b)


class LeakyMul(TruncPolyRing):
    """truncpoly:3:3:c=2 whose direct mul forgets to reduce the product of
    the constants 2 and 2: bytes([4, 0, 0]) is not an element of the
    carrier."""

    def __init__(self):
        super().__init__(3, 3, 2)

    def _mul(self, a, b):
        if a == b == bytes([2, 0, 0]):
            return bytes([4, 0, 0])
        return super()._mul(a, b)


def test_a_raising_formula_stores_nothing():
    ctx = RaisingMul()
    t = ctx.radical_gens[0]
    for _ in range(2):
        with pytest.raises(ArithmeticError, match=r"t \* t"):
            ctx.mul(t, t)
    assert ctx._mul_memo == {}
    assert ctx._elems == {}


def test_a_value_outside_the_carrier_is_not_stored():
    # the pair (2, 2) is a key of its own, so the leaked value can only
    # answer that pair again; the carrier check still sees it
    ctx = LeakyMul()
    two = ctx.from_int(2)
    assert ctx.mul(two, two) == ctx.mul(two, two) == bytes([4, 0, 0])
    report = run_property_suite("ring-axioms", LeakyMul(), None, 30, 3)
    assert not report.passed
    assert report.counterexample == "mul(2, 2) leaves the carrier"


def test_exhaustive_sigma_derivation_leaves_no_table_pairs_in_the_memos():
    # its add and mul tables come from the formulas (_table_rows); the
    # three products are those of the radical generators that check that
    # I^3 = 0 != I^2
    ctx = parse_ring_preset("truncpoly:3:3:c=2")
    assert run_property_suite("sigma-derivation", ctx, None, 30, 3).passed
    assert memo_sizes(ctx) == {"add": 0, "mul": 3}


def test_binary_tables_stop_at_the_cap():
    # truncpoly:2:8 has exactly MEMO_CAP pairs: a full table
    ctx = parse_ring_preset("truncpoly:2:8:c=1")
    elems = sorted(ctx.elements())
    for a, b in itertools.product(elems, repeat=2):
        assert ctx.mul(a, b) == direct("mul")(ctx, a, b)
    assert len(ctx._mul_memo) == MEMO_CAP
    # truncpoly:2:9 has more distinct products than the table holds
    ctx = parse_ring_preset("truncpoly:2:9:c=1")
    pairs = list(itertools.islice(
        itertools.product(sorted(ctx.elements()), repeat=2), MEMO_CAP + 1000))
    for _ in range(2):
        for a, b in pairs:
            assert ctx.mul(a, b) == direct("mul")(ctx, a, b)
    assert len(ctx._mul_memo) == MEMO_CAP
    assert max(memo_sizes(ctx).values()) <= MEMO_CAP


def test_code_table_stops_at_the_cap():
    # a + 0 = a, so each sum is a value new to the element table
    ctx = parse_ring_preset("truncpoly:2:17:c=1")
    zero = ctx.zero()
    elems = list(itertools.islice(ctx.elements(), MEMO_CAP + 100))
    for a in elems:
        assert ctx.add(a, zero) == direct("add")(ctx, a, zero)
    assert len(ctx._elems) == len(ctx._add_memo) == MEMO_CAP
    # a value new to the full table is returned, and stored nowhere
    assert ctx._add_memo.get((elems[-1], zero)) is None


def test_a_large_carrier_codes_only_what_it_sees(monkeypatch):
    def no_enumeration(self):
        raise AssertionError("R was enumerated")
    monkeypatch.setattr(TruncPolyRing, "elements", no_enumeration)
    ctx = parse_ring_preset("truncpoly:2:20:c=1")
    t, one = ctx.radical_gens[0], ctx.one()
    u = ctx.add(one, t)
    # the element table holds the values the memos returned, not the
    # arguments they were called with, and neg, sigma and delta enter
    # nothing
    assert set(ctx._elems) == {u}
    ctx.neg(u), ctx.sigma(t), ctx.delta(u)
    assert set(ctx._elems) == {u}
    seen = {u, ctx.mul(u, u)}
    assert set(ctx._elems) == seen
    assert all(ctx._elems[v] is v for v in seen)


def test_zero_and_one_are_stored(f27):
    assert f27.zero() is f27.zero() and f27.one() is f27.one()
    assert f27.zero() == bytes([0, 0, 0]) and f27.one() == bytes([1, 0, 0])


def _dicts(ctx):
    """A copy of every dict the context holds, by attribute name."""
    return {name: dict(value) for name, value in vars(ctx).items()
            if isinstance(value, dict)}


@pytest.mark.parametrize("preset", MEMO_PRESETS)
def test_unary_operations_store_nothing(preset):
    ctx = parse_ring_preset(preset)
    one, t = ctx.one(), ctx.radical_gens[0]
    ctx.mul(t, t), ctx.add(one, t)
    before = _dicts(ctx)
    assert before["_elems"] and before["_add_memo"] and before["_mul_memo"]
    for a in ctx.elements():
        ctx.neg(a), ctx.sigma(a), ctx.delta(a)
    assert _dicts(ctx) == before
