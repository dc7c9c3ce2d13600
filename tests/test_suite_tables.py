"""The exhaustive phases of ring-axioms, sigma-derivation and mkl-oracle run
over index tables of the ring operations.  The element-wise loops they
replaced are kept here as oracles; the tests require the same reports,
closure failures instead of tracebacks, and bounded operation counts."""

import copy
import functools
import itertools
import math
import random

import pytest

from conftest import BROKEN_PRESET, PRESET_MATRIX
from skewseries import (ZmodRing, monomial_operator_apply,
                        monomial_operator_words, parse_ring_preset,
                        run_property_suite, sigma_nilpotence_bound, skewpoly,
                        suites)
from skewseries.report import CheckReport
from skewseries.rings import TruncPolyRing
from skewseries.suites import (_exhaustive, _generator_positions, _on_rows,
                               _op_tables, _tuple_stream,
                               monomial_operator_word_images,
                               monomial_operator_word_sums)


# -- element-wise oracles ---------------------------------------------------
#
# The three checks as they were before the index tables: every law is
# evaluated on every tuple by calling the ring's operations.

def elementwise_ring_axiom_check(ctx, samples, seed):
    rng = random.Random(seed)
    zero, one = ctx.zero(), ctx.one()
    checked = 0
    cex = None

    singles = _tuple_stream(ctx, 1, samples, rng)
    for (a,) in singles:
        checked += 1
        if ctx.add(a, zero) != a:
            cex = f"a + 0 != a at a={ctx.render(a)}"
        elif ctx.add(a, ctx.neg(a)) != zero:
            cex = f"a + (-a) != 0 at a={ctx.render(a)}"
        elif ctx.mul(one, a) != a or ctx.mul(a, one) != a:
            cex = f"unit law fails at a={ctx.render(a)}"
        elif ctx.mul(zero, a) != zero or ctx.mul(a, zero) != zero:
            cex = f"zero absorption fails at a={ctx.render(a)}"
        if cex:
            break

    triples = _tuple_stream(ctx, 3, samples, rng)
    exhaustive = _exhaustive(ctx, 3)
    if cex is None:
        for a, b, c in triples:
            checked += 1
            if ctx.add(ctx.add(a, b), c) != ctx.add(a, ctx.add(b, c)):
                law = "additive associativity"
            elif ctx.add(a, b) != ctx.add(b, a):
                law = "additive commutativity"
            elif ctx.mul(ctx.mul(a, b), c) != ctx.mul(a, ctx.mul(b, c)):
                law = "multiplicative associativity"
            elif ctx.mul(a, ctx.add(b, c)) != ctx.add(ctx.mul(a, b), ctx.mul(a, c)):
                law = "left distributivity"
            elif ctx.mul(ctx.add(a, b), c) != ctx.add(ctx.mul(a, c), ctx.mul(b, c)):
                law = "right distributivity"
            else:
                continue
            cex = (f"{law} fails at a={ctx.render(a)}, b={ctx.render(b)}, "
                   f"c={ctx.render(c)}")
            break

    return CheckReport(name="ring-axioms", checked=checked, counterexample=cex,
                       details={"mode": "exhaustive" if exhaustive else "sampled"})


def elementwise_sigma_derivation_check(ctx, samples, seed):
    rng = random.Random(seed)
    one = ctx.one()
    radical = ctx.ideal_power(1)
    radical_sq = ctx.ideal_power(2)
    checked = 0
    cex = None

    if ctx.sigma(one) != one:
        cex = "sigma(1) != 1"

    singles = _tuple_stream(ctx, 1, samples, rng)
    if cex is None:
        for (a,) in singles:
            checked += 1
            if ctx.delta(a) not in radical:
                cex = f"delta({ctx.render(a)}) is outside I"
                break

    if cex is None:
        for a in sorted(radical):
            checked += 2
            if ctx.sigma(a) not in radical:
                cex = f"sigma({ctx.render(a)}) leaves I"
                break
            if ctx.delta(a) not in radical_sq:
                cex = f"delta({ctx.render(a)}) is outside I^2"
                break

    pairs = _tuple_stream(ctx, 2, samples, rng)
    exhaustive = _exhaustive(ctx, 2)
    if cex is None:
        for a, b in pairs:
            checked += 1
            if ctx.sigma(ctx.add(a, b)) != ctx.add(ctx.sigma(a), ctx.sigma(b)):
                law = "sigma additivity"
            elif ctx.sigma(ctx.mul(a, b)) != ctx.mul(ctx.sigma(a), ctx.sigma(b)):
                law = "sigma multiplicativity"
            elif ctx.delta(ctx.add(a, b)) != ctx.add(ctx.delta(a), ctx.delta(b)):
                law = "delta additivity"
            elif ctx.delta(ctx.mul(a, b)) != ctx.add(
                    ctx.mul(ctx.sigma(a), ctx.delta(b)), ctx.mul(ctx.delta(a), b)):
                law = "sigma-Leibniz rule"
            else:
                continue
            cex = f"{law} fails at a={ctx.render(a)}, b={ctx.render(b)}"
            break

    return CheckReport(name="sigma-derivation", checked=checked,
                       counterexample=cex,
                       details={"mode": "exhaustive" if exhaustive else "sampled",
                                "sigma_radical_onto": {
                                    ctx.sigma(a) for a in radical} == radical})


def elementwise_mkl_oracle_check(ctx, max_total=6, count_total=8):
    # the recursion is looked up on the module, so a monkeypatch reaches it
    checked = 0
    vanishing = 0
    closed_checks = 0
    cex = None
    zero = ctx.zero()
    depth = ctx.mkl_depth()
    elems = sorted(ctx.elements())
    # the family's closed-form rows (none on the control presets), compared
    # with the recursion for k < depth; their build checks k = depth
    closed, totals = {}, range(max_total + 1)
    try:
        for a in elems:
            rows = ctx._closed_rows(depth, a, 0, max_total + 1)
            if rows is None:
                closed = {}
                break
            closed[a] = rows
    except AssertionError as exc:
        closed, cex, totals = {}, str(exc), ()
    for total in totals:
        for k in range(total + 1):
            l = total - k
            for a in elems:
                checked += 1
                by_words, count = monomial_operator_words(ctx, k, l, a)
                if count != math.comb(total, k):
                    cex = f"word count mismatch at k={k}, l={l}"
                    break
                by_recursion = skewpoly.monomial_operator_apply(ctx, k, l, a)
                if by_words != by_recursion:
                    cex = (f"M_{{{k},{l}}} mismatch at a={ctx.render(a)}: "
                           f"words give {ctx.render(by_words)}")
                    break
                if closed and k < depth:
                    closed_checks += 1
                    by_closed = dict(closed[a][l]).get(k, zero)
                    if by_closed != by_recursion:
                        cex = (f"closed form of M_{{{k},{l}}} mismatch at "
                               f"a={ctx.render(a)}: closed form gives "
                               f"{ctx.render(by_closed)}")
                        break
                if k >= depth:
                    vanishing += 1
                    if by_words != zero:
                        cex = (f"M_{{{k},{l}}}({ctx.render(a)}) = "
                               f"{ctx.render(by_words)} does not vanish at "
                               f"k >= depth {depth}")
                        break
            if cex:
                break
        if cex:
            break
    if cex is None:
        for total in range(count_total + 1):
            for k in range(total + 1):
                checked += 1
                n_words = sum(1 for _ in itertools.combinations(range(total), k))
                if n_words != math.comb(total, k):
                    cex = f"word count mismatch at k={k}, l={total - k}"
                    break
    return CheckReport(name="mkl-oracle", checked=checked, counterexample=cex,
                       details={"max_total_degree": max_total,
                                "vanishing_checks": vanishing,
                                "closed_form_checks": closed_checks,
                                "mkl_depth": depth})


def _suite(name):
    """Suite ``name`` as a function of (ctx, samples, seed), run through
    run_property_suite; mkl-oracle ignores the last two."""
    return lambda ctx, samples=30, seed=3: run_property_suite(
        name, ctx, None, samples, seed)


ring_axioms = _suite("ring-axioms")
sigma_derivation = _suite("sigma-derivation")
mkl_oracle = _suite("mkl-oracle")


# -- control rings ----------------------------------------------------------

class BadMul(ZmodRing):
    def mul(self, a, b):
        return (a * b + 1) % self.cardinality


class LateWrongMul(ZmodRing):
    """Z/27 whose mul is wrong on the last pair of the sorted carrier only;
    right distributivity first sees it at (1, 25, 26), deep inside the
    (a, b) = (1, 25) row."""

    def __init__(self):
        super().__init__(3, 3)

    def mul(self, a, b):
        if a == b == 26:
            return 0
        return super().mul(a, b)


class NonAdditiveSigma(ZmodRing):
    """Z/27 with sigma the identity except sigma(25) = 26: sigma(1) = 1 and
    sigma(I) <= I still hold, additivity first fails at (1, 24)."""

    def __init__(self):
        super().__init__(3, 3)

    def sigma(self, a):
        return 26 if a == 25 else a


class LeakyMul(ZmodRing):
    """Z/8 whose mul forgets to reduce a product with left factor 3: the unit
    and zero laws hold, but mul(3, 3) = 9 is not an element of the carrier."""

    def __init__(self):
        super().__init__(2, 3)

    def mul(self, a, b):
        return a * b if a == 3 else super().mul(a, b)


class LeakySigma(ZmodRing):
    """Z/8 with sigma(5) = 13, outside the carrier."""

    def __init__(self):
        super().__init__(2, 3)

    def sigma(self, a):
        return 13 if a == 5 else a


# One control per counterexample text that no shipped preset reaches.  Each
# breaks one law so that it is the first to fail, on a carrier small enough
# for the index tables and on one large enough to be sampled; a wrong row
# comparison on the table path would skip the law and pass the control.

class WrongZeroSum(ZmodRing):
    """Z/8 whose 5 + 0 is 6."""

    def __init__(self):
        super().__init__(2, 3)

    def add(self, a, b):
        return 6 if (a, b) == (5, 0) else super().add(a, b)


class WrongNeg(ZmodRing):
    """Z/8 whose -3 is 4."""

    def __init__(self):
        super().__init__(2, 3)

    def neg(self, a):
        return 4 if a == 3 else super().neg(a)


class WrongZeroProduct(ZmodRing):
    """Z/8 whose 0 * 5 is 1; the unit laws still hold."""

    def __init__(self):
        super().__init__(2, 3)

    def mul(self, a, b):
        return 1 if (a, b) == (0, 5) else super().mul(a, b)


class NonAssociativeAdd(TruncPolyRing):
    """F_5[t]/(t^m) whose sum gains g(a_0, b_0) t^(m-1), with g(x, y) =
    x*f(y/x) for x, y and x + y nonzero, f(2) = 2 and f(3) = 1, else 0.
    g is symmetric, so the sum commutes, 0 is neutral and -a the inverse of
    a; g(cx, cy) = c*g(x, y), so both distributive laws hold; but g is not
    a 2-cocycle, so (1 + 1) + 2 != 1 + (1 + 2).  Only the additive
    associativity comparison of a table row can see it: on Z/2^n a
    non-associative sum also broke distributivity in the same rows."""

    _F = {2: 2, 3: 1}

    def __init__(self, m):
        super().__init__(5, m, 1)

    def add(self, a, b):
        s = super().add(a, b)
        x, y = a[0], b[0]
        if x and y and (x + y) % 5:
            g = x * self._F.get(y * pow(x, -1, 5) % 5, 0)
            s = s[:-1] + bytes([(s[-1] + g) % 5])
        return s


class NonCommutativeAdd(TruncPolyRing):
    """F_q[t]/(t^m), m >= 3, whose sum gains a_0 b_1 t^(m-1), with the
    matching inverse: a group, so associative, but t + 1 != 1 + t."""

    def __init__(self, q, m):
        super().__init__(q, m, 1)

    def add(self, a, b):
        s = super().add(a, b)
        return s[:-1] + bytes([(s[-1] + a[0] * b[1]) % self.q])

    def neg(self, a):
        n = super().neg(a)
        return n[:-1] + bytes([(n[-1] + a[0] * a[1]) % self.q])


class NonAssociativeMul(TruncPolyRing):
    """F_q[t]/(t^m), m >= 4, whose product gains a_1 b_2 t^3: bilinear, so
    distributive, with the same unit and zero, but t*t^2 != t^2*t, so
    (t*t)*t != t*(t*t)."""

    def __init__(self, q, m):
        super().__init__(q, m, 1)

    def mul(self, a, b):
        p = super().mul(a, b)
        return p[:3] + bytes([(p[3] + a[1] * b[2]) % self.q]) + p[4:]


class LeftNonDistributiveMul(TruncPolyRing):
    """F_q[t]/(t^m), m >= 3, whose product a*b gains a_1 b_1 t^(m-1) when
    b_0 = 0: additive in a, so right distributive, and still associative
    with the same unit and zero, but t*(t + 1) != t*t + t*1.  On Z/p^n no
    control can make left distributivity the first law to fail on the
    table path: right distributivity at (1, b, c) forces the plain
    product."""

    def __init__(self, q, m):
        super().__init__(q, m, 1)

    def mul(self, a, b):
        p = super().mul(a, b)
        if b[0] == 0:
            p = p[:-1] + bytes([(p[-1] + a[1] * b[1]) % self.q])
        return p


class SigmaOfOneIsThree(ZmodRing):
    def __init__(self):
        super().__init__(2, 3)

    def sigma(self, a):
        return 3 if a == 1 else a


class DeltaOutsideI(ZmodRing):
    def __init__(self):
        super().__init__(2, 3)

    def delta(self, a):
        return 1 if a == 3 else 0


class SigmaLeavesI(ZmodRing):
    def __init__(self):
        super().__init__(2, 3)

    def sigma(self, a):
        return 3 if a == 2 else a


class DeltaOutsideI2(ZmodRing):
    def __init__(self):
        super().__init__(2, 3)

    def delta(self, a):
        return 2 if a == 2 else 0


class NonMultiplicativeSigma(TruncPolyRing):
    """F_3[t]/(t^m), delta = 0, with sigma scaling t^2 by 2 and every other
    t^i by 1: F_3-linear, fixing 1 and keeping I, but sigma(t)^2 = t^2 !=
    sigma(t^2).  On Z/p^n an additive sigma with sigma(1) = 1 is the
    identity, so no zmod control can make this law the first to fail."""

    def __init__(self, m):
        super().__init__(3, m, 1, delta_mode="zero")
        self._cpow = [2 if i == 2 else 1 for i in range(m)]


class NonAdditiveDelta(ZmodRing):
    """Z/2^n, n >= 3, with delta(a) = 2^(n-1) for a = 3 mod 4 and 0 else:
    a*h(a) for the homomorphism h from the units onto {0, 2^(n-1)}, so it
    obeys the Leibniz rule with sigma = id, maps R into I and I to 0, but
    delta(1 + 2) != delta(1) + delta(2)."""

    def delta(self, a):
        return self.cardinality // 2 if a % 4 == 3 else 0


class EulerDerivation(TruncPolyRing):
    """F_2[t]/(t^8), sigma = id, with the derivation delta = t^2 d/dt,
    delta(t^i) = i t^(i+1): a sigma-derivation with delta(R) <= I and
    delta(I) <= I^2 on a carrier of 256 elements, the largest whose pairs
    are enumerated."""

    def __init__(self):
        super().__init__(2, 8, 1)

    def delta(self, a):
        return b"\0" + bytes(i % 2 * x for i, x in enumerate(a[:-1]))


class LastPositionLeibniz(EulerDerivation):
    """EulerDerivation whose product t^2 * (1 + t + ... + t^7), the last
    element, has its constant term flipped.  delta kills the constant term,
    so the sigma-Leibniz rule still holds at a = t^2; it first fails at
    a = t, b = that last element, where delta(a) = t^2 enters only the
    right side's sum of two rows, the one operation of the sigma laws that
    walks position by position."""

    def mul(self, a, b):
        p = super().mul(a, b)
        if a == bytes([0, 0, 1]) + bytes(5) and b == bytes([1] * 8):
            p = bytes([1 - p[0]]) + p[1:]
        return p


def _wrong_at(k0, l0, a0):
    """The recursion, except that the call which first enters M_{k0,l0}(a0)
    in the context's memo adds 1 to that entry: mkl-oracle reads it back
    from the memo its fill leaves, and the element-wise loop gets it as the
    value of its own call."""
    plain = monomial_operator_apply
    key = (k0, l0, a0)

    def wrong(ctx, k, l, a):
        memo = ctx._mkl_cache
        fresh = key not in memo
        value = plain(ctx, k, l, a)
        if fresh and key in memo:
            memo[key] = ctx.add(memo[key], ctx.one())
            if (k, l, a) == key:
                value = memo[key]
        return value
    return wrong


# -- differential tests -----------------------------------------------------

DIFFERENTIAL_PRESETS = PRESET_MATRIX + ("zmod:3^3", "truncpoly:3:4:c=2",
                                        BROKEN_PRESET)
SEEDS = (3, 11)

SEEDED = ((ring_axioms, elementwise_ring_axiom_check),
          (sigma_derivation, elementwise_sigma_derivation_check))


def _outcome(suite, ctx, *args):
    """The report's fields, or the exception the suite raised."""
    try:
        report = suite(ctx, *args)
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)
    return report.passed, report.checked, report.counterexample, report.details


def _assert_same_reports(make_ctx):
    """All three suites on fresh contexts from make_ctx: tabled == oracle."""
    for tabled, oracle in SEEDED:
        for seed in SEEDS:
            assert (_outcome(tabled, make_ctx(), 30, seed)
                    == _outcome(oracle, make_ctx(), 30, seed))
    assert (_outcome(mkl_oracle, make_ctx())
            == _outcome(elementwise_mkl_oracle_check, make_ctx()))


@pytest.mark.parametrize("preset", DIFFERENTIAL_PRESETS)
def test_tabled_suites_match_elementwise_loops(preset):
    _assert_same_reports(lambda: parse_ring_preset(preset))


@pytest.mark.parametrize("ring, passing", [
    # BadMul breaks I^3 = 0, so sigma-derivation raises on both sides
    (lambda: BadMul(2, 3), [False, ValueError, True]),
    (LateWrongMul, [False, True, True]),
    (NonAdditiveSigma, [True, False, True])])
def test_control_rings_match_elementwise_loops(ring, passing):
    _assert_same_reports(ring)
    outcomes = [_outcome(ring_axioms, ring(), 30, 3),
                _outcome(sigma_derivation, ring(), 30, 3),
                _outcome(mkl_oracle, ring())]
    assert [outcome[0] for outcome in outcomes] == passing


def test_late_failures_are_found_inside_a_row():
    report = ring_axioms(LateWrongMul(), 30, 3)
    assert report.counterexample == \
        "right distributivity fails at a=1, b=25, c=26"
    assert report.checked == 27 + 27 * 27 + 25 * 27 + 27
    report = sigma_derivation(NonAdditiveSigma(), 30, 3)
    assert report.counterexample == "sigma additivity fails at a=1, b=24"


def _subclassed(preset):
    """A fresh context of preset as an instance of a subclass of its family,
    which changes nothing but has no additive model (a subclass may
    redefine sigma, delta or add), so mkl-oracle runs the recursion at
    every element."""
    ctx = parse_ring_preset(preset)
    ctx.__class__ = type("Sub" + type(ctx).__name__, (type(ctx),), {})
    return ctx


# On the shipped families mkl-oracle runs the recursion at the products of
# radical generators only, so a wrong value there must fail the suite; a
# subclass runs it at every element, so there a wrong value at the last
# element must.  The recursion at every element of both carriers, family or
# not, is checked in tier-1 by
# test_acceptance.py::test_criterion_01_mkl_oracle_equivalence.
@pytest.mark.parametrize("preset", ["truncpoly:3:3:c=2", "zmod:3^3"])
def test_wrong_recursion_value_matches_elementwise_loop(preset, monkeypatch):
    # the column of M_{2,3} differs at the last generator (t^2, and 1), so
    # the suite runs the recursion at every element and walks that column:
    # 7 calls per generator, then 7 per element
    ctx = parse_ring_preset(preset)
    elems = sorted(ctx.elements())
    points = _model_of(ctx)
    generator = elems[points[-1]]
    wrong = _wrong_at(2, 3, generator)
    outcome, calls = _recursion_calls(
        monkeypatch, lambda: parse_ring_preset(preset), wrong)
    assert outcome[0] is False
    assert outcome[2].startswith(
        f"M_{{2,3}} mismatch at a={ctx.render(generator)}")
    assert calls == 7 * len(points) + 7 * ctx.cardinality
    monkeypatch.setattr(skewpoly, "monomial_operator_apply", wrong)
    assert outcome == \
        _outcome(elementwise_mkl_oracle_check, parse_ring_preset(preset))


@pytest.mark.parametrize("preset", ["truncpoly:3:3:c=2", "zmod:3^3"])
def test_wrong_recursion_value_at_the_last_element_fails_a_subclass(
        preset, monkeypatch):
    ctx = _subclassed(preset)
    last = sorted(ctx.elements())[-1]
    monkeypatch.setattr(skewpoly, "monomial_operator_apply", _wrong_at(2, 3, last))
    tabled = mkl_oracle(_subclassed(preset))
    assert not tabled.passed
    assert tabled.counterexample.startswith(
        f"M_{{2,3}} mismatch at a={ctx.render(last)}")
    assert _outcome(mkl_oracle, _subclassed(preset)) == \
        _outcome(elementwise_mkl_oracle_check, _subclassed(preset))


def _recursion_calls(monkeypatch, make_ctx, recursion=monomial_operator_apply):
    """The mkl-oracle report on a fresh context from make_ctx, with the
    number of calls it made to the M_{k,l} recursion (``recursion`` in
    place of skewpoly.monomial_operator_apply)."""
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return recursion(*args)

    with monkeypatch.context() as patch:
        patch.setattr(skewpoly, "monomial_operator_apply", counted)
        outcome = _outcome(mkl_oracle, make_ctx())
    return outcome, calls[0]


@pytest.mark.parametrize("preset", DIFFERENTIAL_PRESETS)
def test_the_generator_path_matches_the_per_element_path(preset, monkeypatch):
    # T + 1 = 7 recursion calls per point: the spanning products of radical
    # generators on the family, every element of a subclass or where the
    # spanning set is switched off
    ctx = parse_ring_preset(preset)
    outcome, calls = _recursion_calls(monkeypatch,
                                      lambda: parse_ring_preset(preset))
    assert outcome[0] and calls == 7 * len(_model_of(ctx))
    # a subclass has no closed form either, so its report is its own
    assert _recursion_calls(monkeypatch, lambda: _subclassed(preset)) == \
        (_outcome(elementwise_mkl_oracle_check, _subclassed(preset)),
         7 * ctx.cardinality)
    monkeypatch.setattr(suites, "_generator_positions", lambda *args: None)
    assert _recursion_calls(monkeypatch, lambda: parse_ring_preset(preset)) == \
        (outcome, 7 * ctx.cardinality)


def _model_of(ctx):
    """_generator_positions over ctx's sorted carrier and its tables."""
    elems = sorted(ctx.elements())
    tables, _ = _op_tables(ctx, elems, unary=("sigma", "delta"))
    return _generator_positions(ctx, elems, tables)


@pytest.mark.parametrize("preset", PRESET_MATRIX + (
    BROKEN_PRESET, "truncpoly:2:8:c=1", "truncpoly:13:2:c=2",
    "truncpoly:251:1:c=1", "zmod:5^1", "truncpoly:2:1:c=1"))
def test_the_points_are_one_on_zmod_and_the_powers_of_t_on_truncpoly(
        preset, monkeypatch):
    ctx = parse_ring_preset(preset)
    elems = sorted(ctx.elements())
    muls = [0]
    plain = type(ctx).mul

    def counted(self, a, b):
        muls[0] += 1
        return plain(self, a, b)

    monkeypatch.setattr(type(ctx), "mul", counted)
    points = [elems[i] for i in _model_of(ctx)]
    if isinstance(ctx, ZmodRing):
        # 1 spans Z/p^n alone, so no product of radical generators is taken
        assert points == [1] and muls[0] == 0
    else:
        m = ctx.m
        assert points == [bytes(i) + b"\1" + bytes(m - 1 - i)
                          for i in range(m)]


def test_generators_that_miss_a_basis_element_are_refused(monkeypatch):
    # without t^2, the sums of t^0 and t^1 give 9 of the 27 elements
    preset = "truncpoly:3:3:c=2"
    ctx = parse_ring_preset(preset)
    elems = sorted(ctx.elements())
    t = ctx.radical_gens[0]
    assert [elems[i] for i in _model_of(ctx)] == [ctx.one(), t, ctx.mul(t, t)]
    # no product of two radical generators
    plain = TruncPolyRing.ideal_power_gens
    monkeypatch.setattr(TruncPolyRing, "ideal_power_gens",
                        lambda self, k: () if k == 2 else plain(self, k))
    assert _model_of(parse_ring_preset(preset)) is None
    assert _recursion_calls(monkeypatch, lambda: parse_ring_preset(preset)) == \
        (_outcome(elementwise_mkl_oracle_check, parse_ring_preset(preset)),
         7 * ctx.cardinality)


# the first and the last element of a column: mkl-oracle compares whole
# columns and walks one only where it differs
ENDS = pytest.mark.parametrize("where", [0, -1], ids=["first", "last"])


@ENDS
def test_a_wrong_closed_form_fails_the_oracle(monkeypatch, where):
    # M_{0,3}(a) replaced by 1 in the closed-form rows of one element
    ctx = parse_ring_preset("truncpoly:3:3:c=2")
    wrong_at = sorted(ctx.elements())[where]
    plain = TruncPolyRing._closed_rows

    def wrong(self, d, b, built, top):
        rows = plain(self, d, b, built, top)
        if b == wrong_at:
            rows = rows[:3] + (((0, self.one()),),) + rows[4:]
        return rows

    monkeypatch.setattr(TruncPolyRing, "_closed_rows", wrong)
    report = mkl_oracle(parse_ring_preset("truncpoly:3:3:c=2"))
    assert not report.passed
    assert report.counterexample == (
        f"closed form of M_{{0,3}} mismatch at a={ctx.render(wrong_at)}: "
        "closed form gives 1")
    assert _outcome(mkl_oracle, parse_ring_preset("truncpoly:3:3:c=2")) == \
        _outcome(elementwise_mkl_oracle_check, parse_ring_preset("truncpoly:3:3:c=2"))


@ENDS
@pytest.mark.parametrize("preset", ["truncpoly:3:3:c=2", "zmod:3^3"])
def test_a_sigma_wrong_at_one_element_fails_the_oracle_there(
        monkeypatch, preset, where):
    # sigma(a) + 1 at one element, patched on the family itself so that its
    # closed form, which does not call sigma, still runs: words and
    # recursion agree on M_{0,1}(a) = sigma(a), the closed form does not
    ctx = parse_ring_preset(preset)
    wrong_at = sorted(ctx.elements())[where]
    family = type(ctx)
    plain = family.sigma

    def wrong(self, a):
        value = plain(self, a)
        return self.add(value, self.one()) if a == wrong_at else value

    monkeypatch.setattr(family, "sigma", wrong)
    report = mkl_oracle(parse_ring_preset(preset))
    assert not report.passed
    assert report.counterexample.startswith(
        f"closed form of M_{{0,1}} mismatch at a={ctx.render(wrong_at)}: ")
    assert _outcome(mkl_oracle, parse_ring_preset(preset)) == \
        _outcome(elementwise_mkl_oracle_check, parse_ring_preset(preset))


@ENDS
def test_a_delta_wrong_at_one_element_refuses_the_model(monkeypatch, where):
    # delta(a) + 1 at one element, patched on the family itself: delta is
    # then not additive, so mkl-oracle runs the recursion at every element,
    # where words and recursion agree on M_{1,0}(a) = delta(a) and the
    # closed form, which does not call delta, does not
    preset = "truncpoly:3:3:c=2"
    ctx = parse_ring_preset(preset)
    wrong_at = sorted(ctx.elements())[where]
    plain = TruncPolyRing.delta

    def wrong(self, a):
        value = plain(self, a)
        return self.add(value, self.one()) if a == wrong_at else value

    monkeypatch.setattr(TruncPolyRing, "delta", wrong)
    assert _model_of(parse_ring_preset(preset)) is None
    report = mkl_oracle(parse_ring_preset(preset))
    assert not report.passed
    assert report.counterexample.startswith(
        f"closed form of M_{{1,0}} mismatch at a={ctx.render(wrong_at)}: ")
    assert _recursion_calls(monkeypatch, lambda: parse_ring_preset(preset)) == \
        (_outcome(elementwise_mkl_oracle_check, parse_ring_preset(preset)),
         7 * ctx.cardinality)


def test_a_closed_form_below_its_depth_fails_the_oracle(monkeypatch):
    # at depth 1 the rows of t see M_{1,0}(t) = delta(t) = t^2 != 0
    monkeypatch.setattr(TruncPolyRing, "mkl_depth", lambda self: 1)
    report = mkl_oracle(parse_ring_preset("truncpoly:3:3:c=2"))
    assert (report.passed, report.checked) == (False, 0)
    assert report.counterexample.startswith(
        "sigma-nilpotence bound violated: M_{1,0}(")
    assert _outcome(mkl_oracle, parse_ring_preset("truncpoly:3:3:c=2")) == \
        _outcome(elementwise_mkl_oracle_check, parse_ring_preset("truncpoly:3:3:c=2"))


@pytest.mark.parametrize("preset", DIFFERENTIAL_PRESETS)
def test_word_sums_match_word_enumeration(preset):
    ctx = parse_ring_preset(preset)
    elems = sorted(ctx.elements())
    tables, cex = _op_tables(ctx, elems, unary=("sigma", "delta"))
    assert cex is None
    max_total = 6 if ctx.cardinality <= 81 else 3
    layers = monomial_operator_word_images(
        tables["sigma"], tables["delta"], len(elems), max_total)
    for total, images in enumerate(layers):
        assert len(images) == 2 ** total
        for k in range(total + 1):
            sums, count = monomial_operator_word_sums(
                ctx, k, total - k, elems, images)
            assert count == math.comb(total, k)
            assert sums == [monomial_operator_words(ctx, k, total - k, a)[0]
                            for a in elems]


@pytest.mark.parametrize("preset", PRESET_MATRIX + (BROKEN_PRESET,
                                                    "truncpoly:2:8:c=1"))
def test_family_column_sums_match_the_elementwise_fold(preset):
    # the family sums each (k, l) without ctx.add; the fold per element,
    # the path of every subclass, is its oracle
    ctx = parse_ring_preset(preset)
    elems = sorted(ctx.elements())
    tables, _ = _op_tables(ctx, elems, unary=("sigma", "delta"))
    # a top of 7 stores the images of every layer up to 6
    layers = monomial_operator_word_images(
        tables["sigma"], tables["delta"], len(elems), 7)
    calls = _count_calls(ctx, ("add",))
    for total, images in zip(range(7), layers):
        for k in range(total + 1):
            sums, count = monomial_operator_word_sums(
                ctx, k, total - k, elems, images)
            assert calls["add"] == 0 and count == math.comb(total, k)
            words = [word for word in images if word.count("d") == k]
            assert sums == [
                functools.reduce(ctx.add, (elems[images[word][i]]
                                           for word in words), ctx.zero())
                for i in range(len(elems))]
            calls["add"] = 0


# subclass controls, which keep the per-element fold, with their mkl-oracle
# checked count and counterexample (None where the suite passes)
@pytest.mark.parametrize("ring, checked, cex", [
    (LeakySigma, 0, "sigma(5) leaves the carrier"),
    (DeltaOutsideI, 20, "M_{1,0}(3) = 1 does not vanish at k >= depth 1"),
    (lambda: NonAdditiveDelta(2, 3), 20,
     "M_{1,0}(3) = 4 does not vanish at k >= depth 1"),
    (EulerDerivation, 517,
     "M_{1,0}(t^5) = t^6 does not vanish at k >= depth 1"),
    (NonAdditiveSigma, 801, None), (lambda: NonAssociativeAdd(3), 3545, None),
    (lambda: NonCommutativeAdd(3, 3), 801, None)],
    ids=["leaky-sigma", "delta-outside-I", "non-additive-delta",
         "euler-derivation", "non-additive-sigma", "non-associative-add",
         "non-commutative-add"])
def test_subclasses_fold_the_word_sums_per_element(ring, checked, cex):
    ctx = ring()
    assert ctx._column_sums([sorted(ctx.elements())]) is None
    report = mkl_oracle(ctx)
    assert (report.checked, report.counterexample) == (checked, cex)


def test_the_recursion_adds_once_per_interior_cell():
    # M_{6-l,l}(a) for l = 0..6 fill the triangle k + l <= 6 of a's memo:
    # 7 cells on the edge k = 0, 6 more on the edge l = 0, and 15 interior
    # cells, each one add of delta and sigma of its neighbours; no add has
    # the zero the context hands out as an operand
    ctx = parse_ring_preset(BROKEN_PRESET)
    zero, plain = ctx.zero(), ctx.add
    operands = []
    ctx.add = lambda a, b: operands.extend((a, b)) or plain(a, b)
    calls = _count_calls(ctx, ("add",))
    elems = sorted(ctx.elements())
    for a in elems:
        calls["add"] = 0
        for l in range(7):
            monomial_operator_apply(ctx, 6 - l, l, a)
        assert calls["add"] == 15
    assert len(operands) == 2 * 15 * len(elems)
    assert not any(x is zero for x in operands)
    memo = ctx._mkl_cache
    assert len(memo) == 28 * len(elems)
    assert all(memo[(k, l, a)] == monomial_operator_words(ctx, k, l, a)[0]
               for k, l, a in memo)


# (suite, ring, mode, counterexample prefix)
LAW_CONTROLS = (
    (ring_axioms, WrongZeroSum, "exhaustive", "a + 0 != a at a=5"),
    (ring_axioms, WrongNeg, "exhaustive", "a + (-a) != 0 at a=3"),
    (ring_axioms, WrongZeroProduct, "exhaustive", "zero absorption fails at a=5"),
    (ring_axioms, lambda: NonAssociativeAdd(2), "exhaustive",
     "additive associativity fails at a=1, b=1, c=2"),
    (ring_axioms, lambda: NonAssociativeAdd(3), "sampled",
     "additive associativity fails at "),
    (ring_axioms, lambda: NonCommutativeAdd(3, 3), "exhaustive",
     "additive commutativity fails at a=t, b=1, c=0"),
    (ring_axioms, lambda: NonCommutativeAdd(2, 6), "sampled",
     "additive commutativity fails at "),
    (ring_axioms, lambda: NonAssociativeMul(2, 4), "exhaustive",
     "multiplicative associativity fails at a=t, b=t, c=t"),
    (ring_axioms, lambda: NonAssociativeMul(2, 6), "sampled",
     "multiplicative associativity fails at "),
    (ring_axioms, lambda: LeftNonDistributiveMul(3, 3), "exhaustive",
     "left distributivity fails at a=t, b=t, c=1"),
    (ring_axioms, lambda: LeftNonDistributiveMul(2, 6), "sampled",
     "left distributivity fails at "),
    (sigma_derivation, SigmaOfOneIsThree, "exhaustive", "sigma(1) != 1"),
    (sigma_derivation, DeltaOutsideI, "exhaustive", "delta(3) is outside I"),
    (sigma_derivation, SigmaLeavesI, "exhaustive", "sigma(2) leaves I"),
    (sigma_derivation, DeltaOutsideI2, "exhaustive", "delta(2) is outside I^2"),
    (sigma_derivation, lambda: NonMultiplicativeSigma(3), "exhaustive",
     "sigma multiplicativity fails at a=t, b=t"),
    (sigma_derivation, lambda: NonMultiplicativeSigma(6), "sampled",
     "sigma multiplicativity fails at "),
    (sigma_derivation, lambda: NonAdditiveDelta(2, 3), "exhaustive",
     "delta additivity fails at a=1, b=2"),
    (sigma_derivation, lambda: NonAdditiveDelta(2, 9), "sampled",
     "delta additivity fails at "),
)


@pytest.mark.parametrize("suite, ring, mode, prefix", LAW_CONTROLS,
                         ids=[f"{c[3].split(' at')[0]}-{c[2]}" for c in LAW_CONTROLS])
@pytest.mark.parametrize("seed", SEEDS)
def test_each_law_fails_first_on_its_control(suite, ring, mode, prefix, seed):
    report = suite(ring(), 30, seed)
    assert report.to_json_dict()["verdict"] == "FAIL"
    assert report.details["mode"] == mode
    assert report.counterexample.startswith(prefix), report.counterexample
    oracle = (elementwise_ring_axiom_check if suite is ring_axioms
              else elementwise_sigma_derivation_check)
    assert _outcome(suite, ring(), 30, seed) == _outcome(oracle, ring(), 30, seed)


# -- one definition per law -------------------------------------------------
#
# Each law is written once, in _ring_law_failure or _sigma_law_failure, and
# both paths of suites._law_check run it.  A law added there, one the ring's
# own operations break, must then be reported where the plain loop over the
# tuples reports it, on the table path and on the sampled one.

def _extra_ring_law(add, mul, a, b, c):
    if mul(mul(a, b), c) != mul(mul(a, a), c):
        return "a*b*c = a*a*c"
    return None


def _extra_pair_law(add, mul, sigma, delta, a, b):
    if mul(mul(sigma(a), a), b) != mul(a, mul(sigma(b), b)):
        return "sigma(a)*a*b = a*sigma(b)*b"
    return None


def _plain_law_loop(ctx, law, names, arity, samples, rng, checked):
    """suites._law_check as the plain loop: ``law`` at every tuple of
    _tuple_stream, through the ring's own operations."""
    ops = [getattr(ctx, name) for name in names]
    for args in _tuple_stream(ctx, arity, samples, rng):
        checked += 1
        failed = law(*ops, *args)
        if failed:
            shown = ", ".join(f"{name}={ctx.render(x)}"
                              for name, x in zip("abc", args))
            return checked, f"{failed} fails at {shown}"
    return checked, None


@pytest.mark.parametrize("suite, law, extra, preset, mode, cex", [
    (ring_axioms, "_ring_law_failure", _extra_ring_law, "truncpoly:3:3:c=2",
     "exhaustive", "a*b*c = a*a*c fails at a=t^2, b=1, c=1"),
    (ring_axioms, "_ring_law_failure", _extra_ring_law, "zmod:2^6",
     "sampled", "a*b*c = a*a*c fails at "),
    (sigma_derivation, "_sigma_law_failure", _extra_pair_law, "zmod:3^5",
     "exhaustive", "sigma(a)*a*b = a*sigma(b)*b fails at a=1, b=2"),
    (sigma_derivation, "_sigma_law_failure", _extra_pair_law, "zmod:2^9",
     "sampled", "sigma(a)*a*b = a*sigma(b)*b fails at ")],
    ids=["triples-exhaustive", "triples-sampled", "pairs-exhaustive",
         "pairs-sampled"])
@pytest.mark.parametrize("seed", SEEDS)
def test_a_law_added_to_its_function_fails_on_both_paths(
        monkeypatch, suite, law, extra, preset, mode, cex, seed):
    plain = getattr(suites, law)
    monkeypatch.setattr(suites, law,
                        lambda *args: plain(*args) or extra(*args))
    report = suite(parse_ring_preset(preset), 30, seed)
    assert report.details["mode"] == mode
    assert report.counterexample.startswith(cex), report.counterexample
    monkeypatch.setattr(suites, "_law_check", _plain_law_loop)
    looped = suite(parse_ring_preset(preset), 30, seed)
    assert (report.checked, report.counterexample) == \
        (looped.checked, looped.counterexample)


# -- the byte engine at |R| = 256 -------------------------------------------
#
# _on_rows holds a position in one byte, so the exhaustive pairs may cover
# at most 256 elements; at exactly 256 the last position is 255.

def test_exhaustive_pairs_cover_at_most_256_elements():
    assert _exhaustive(ZmodRing(2, 8), 2)
    assert not _exhaustive(ZmodRing(257, 1), 2)


@pytest.mark.parametrize("preset", ["truncpoly:3:3:c=2", "zmod:2^8"])
def test_row_operations_read_the_table(preset):
    # every kind of argument pair, the column of (row, position) included,
    # which no shipped law makes, and constant rows, which delta = 0 makes
    # and which are answered by the translate of the other argument
    ctx = parse_ring_preset(preset)
    elems = sorted(ctx.elements())
    n = len(elems)
    tables, _ = _op_tables(ctx, elems, unary=("sigma",), binary=("mul",))
    mul, sigma = _on_rows(tables["mul"]), _on_rows(tables["sigma"])
    rng = random.Random(5)
    x, y = (bytes(rng.randrange(n) for _ in range(n)) for _ in range(2))
    table = tables["mul"]
    for i in (0, 1, n - 1):
        assert sigma(i) == tables["sigma"][i]
        assert mul(i, n - 1 - i) == table[i][n - 1 - i]
        assert mul(i, y) == bytes(table[i][j] for j in y)
        assert mul(x, i) == bytes(table[j][i] for j in x)
        same = bytes([i]) * n
        assert mul(same, y) == bytes(table[i][j] for j in y)
        assert mul(x, same) == bytes(table[j][i] for j in x)
        assert mul(same, same) == bytes([table[i][i]]) * n
    assert sigma(x) == bytes(tables["sigma"][j] for j in x)
    assert mul(x, y) == bytes(table[i][j] for i, j in zip(x, y))


@pytest.mark.parametrize("ring", [
    lambda: ZmodRing(2, 8), lambda: TruncPolyRing(2, 8, 1), EulerDerivation],
    ids=["zmod:2^8", "truncpoly:2:8:c=1", "euler-derivation"])
def test_pairs_at_256_elements_match_the_plain_loop(monkeypatch, ring):
    report = sigma_derivation(ring(), 30, 3)
    assert report.passed and report.details["mode"] == "exhaustive"
    assert report.checked == 256 + 2 * 128 + 256 ** 2
    monkeypatch.setattr(suites, "_law_check", _plain_law_loop)
    looped = sigma_derivation(ring(), 30, 3)
    assert (report.checked, report.counterexample) == \
        (looped.checked, looped.counterexample)


def test_a_fault_at_the_last_position_is_found_through_a_row_sum(monkeypatch):
    report = sigma_derivation(LastPositionLeibniz(), 30, 3)
    assert report.counterexample == (
        "sigma-Leibniz rule fails at a=t, "
        "b=1 + t + t^2 + t^3 + t^4 + t^5 + t^6 + t^7")
    # a = t is the head at position 64, and b the last position
    assert report.checked == 256 + 2 * 128 + 64 * 256 + 256
    monkeypatch.setattr(suites, "_law_check", _plain_law_loop)
    looped = sigma_derivation(LastPositionLeibniz(), 30, 3)
    assert (report.checked, report.counterexample) == \
        (looped.checked, looped.counterexample)


# -- the family's own add and mul tables -----------------------------------
#
# _op_tables reads add and mul from ctx._table_rows wherever the family
# answers, so no exhaustive check calls ctx.add or ctx.mul per pair there.
# The table built with one such call per pair is the oracle: on truncpoly
# it calls _add and _mul, whose formulas the rows apply to a whole row at
# once (a packed mul row is _mul's Kronecker substitution over the
# carrier), and on zmod this test is what ties the rows of Z/p^n to
# ZmodRing.add and mul.

TABLE_PRESETS = tuple(p for p in PRESET_MATRIX
                      if parse_ring_preset(p).cardinality <= 256) + (
    BROKEN_PRESET, "zmod:2^8") + tuple(
    # every truncpoly carrier of at most 256 elements within _mul's byte
    # bound m(q-1)^2 <= 255, where a mul row is one packed product
    f"truncpoly:{q}:{m}:c=1" for q, top in ((2, 8), (3, 5), (5, 3))
    for m in range(1, top + 1)) + (
    "truncpoly:7:2:c=1", "truncpoly:11:2:c=1",
    # past the bound: schoolbook _mul once per pair, and _add coefficient
    # by coefficient
    "truncpoly:13:2:c=2", "truncpoly:251:1:c=1")


def _pairwise_rows(ctx, name, elems):
    index = {a: i for i, a in enumerate(elems)}
    op = getattr(ctx, name)
    return [bytes([index[op(a, b)] for b in elems]) for a in elems]


@pytest.mark.parametrize("preset", TABLE_PRESETS)
@pytest.mark.parametrize("name", ["add", "mul"])
def test_family_rows_match_the_pairwise_table(preset, name):
    ctx = parse_ring_preset(preset)
    elems = sorted(ctx.elements())
    rows = ctx._table_rows(name, elems)
    assert rows is not None and {type(row) for row in rows} == {bytes}
    assert rows == _pairwise_rows(ctx, name, elems)
    tables, cex = _op_tables(ctx, elems, binary=(name,))
    assert cex is None and tables[name] == rows


@pytest.mark.parametrize("ring", [
    LeakyMul, lambda: NonAssociativeAdd(2), lambda: ZmodRing(257, 1),
    lambda: ZmodRing(2, 3)], ids=["subclass-zmod", "subclass-truncpoly",
                                  "zmod:257^1", "zmod:2^3"])
def test_no_family_rows_on_a_subclass_past_256_elements_or_other_names(ring):
    ctx = ring()
    elems = sorted(ctx.elements())
    shipped = type(ctx) is ZmodRing and ctx.cardinality <= 256
    assert (ctx._table_rows("add", elems) is None) is not shipped
    for name in ("sigma", "delta", "neg", "sub"):
        assert ctx._table_rows(name, elems) is None


_family_table_rows = TruncPolyRing._table_rows


def _overlapping_mul_rows(self, name, elems):
    """TruncPolyRing's packed mul rows with slots of m bytes instead of
    2m - 1: the bytes of each product from t^m up spill into the low bytes
    of the next slot.  The add rows are the family's own."""
    if name != "mul":
        return _family_table_rows(self, name, elems)
    m, n = self.m, len(elems)
    index = {a: i for i, a in enumerate(elems)}
    carrier = int.from_bytes(b"".join(elems), "little")
    rows = []
    for a in elems:
        values = (int.from_bytes(a, "little") * carrier).to_bytes(
            n * m + m, "little").translate(self._byte_residues)
        rows.append(bytes(index[values[j:j + m]] for j in range(0, n * m, m)))
    return rows


def test_overlapping_product_slots_fail_the_comparison_and_the_suite(
        monkeypatch):
    monkeypatch.setattr(TruncPolyRing, "_table_rows", _overlapping_mul_rows)
    with pytest.raises(AssertionError):
        test_family_rows_match_the_pairwise_table("truncpoly:3:3:c=2", "mul")
    report = ring_axioms(parse_ring_preset("truncpoly:3:3:c=2"), 30, 3)
    assert report.counterexample == \
        "left distributivity fails at a=t^2, b=t^2, c=t^2"


def test_a_wrong_family_row_fails_the_comparison_and_the_suite(monkeypatch):
    # the add row of a rotated by a + 1, i.e. a + b + 1: associative and
    # commutative, but not distributive
    def rotated(self, name, elems):
        if name != "add":
            return None
        every = bytes(range(len(elems)))
        return [every[a + 1:] + every[:a + 1] for a in every]

    monkeypatch.setattr(ZmodRing, "_table_rows", rotated)
    ctx = parse_ring_preset("zmod:2^3")
    elems = sorted(ctx.elements())
    assert ctx._table_rows("add", elems) != _pairwise_rows(ctx, "add", elems)
    report = ring_axioms(ctx, 30, 3)
    assert report.counterexample == "left distributivity fails at a=0, b=0, c=0"


# -- closure ----------------------------------------------------------------

@pytest.mark.parametrize("suite, ring, checked, cex", [
    (ring_axioms, LeakyMul, 8, "mul(3, 3) leaves the carrier"),
    (sigma_derivation, LeakyMul, 16, "mul(3, 3) leaves the carrier"),
    (sigma_derivation, LeakySigma, 16, "sigma(5) leaves the carrier"),
    (mkl_oracle, LeakySigma, 0, "sigma(5) leaves the carrier")])
def test_values_outside_the_carrier_fail_the_suite(suite, ring, checked, cex):
    report = suite(ring())
    assert not report.passed
    assert report.counterexample == cex
    assert report.checked == checked


def test_nilbound_raises_on_a_value_outside_the_carrier():
    # only a faulty subclass can leak a value; the search refuses it with
    # the tables' counterexample, as a wrong depth raises _depth_cut_error
    with pytest.raises(AssertionError, match=r"^sigma\(5\) leaves the carrier$"):
        sigma_nilpotence_bound(LeakySigma(), 1)


def test_op_tables_reraise_a_key_error_of_the_operation():
    class RaisingMul(ZmodRing):
        def mul(self, a, b):
            raise KeyError("from inside mul")

    ctx = RaisingMul(2, 2)
    with pytest.raises(KeyError, match="from inside mul"):
        _op_tables(ctx, sorted(ctx.elements()), binary=("mul",))


# -- cost -------------------------------------------------------------------

def _count_calls(ctx, names):
    """Count the calls of the named operations made by the caller, not those
    one operation makes to another (sub calls neg and add)."""
    calls = dict.fromkeys(names, 0)
    depth = [0]
    for name in names:
        plain = getattr(ctx, name)

        def counted(*args, _name=name, _plain=plain):
            calls[_name] += depth[0] == 0
            depth[0] += 1
            try:
                return _plain(*args)
            finally:
                depth[0] -= 1
        setattr(ctx, name, counted)
    return calls


def test_ring_axioms_builds_tables_instead_of_calling_per_triple():
    ctx = parse_ring_preset("truncpoly:3:3:c=2")
    calls = _count_calls(ctx, ("mul", "add"))
    report = ring_axioms(ctx, 30, 3)
    assert report.passed and report.checked == 27 + 27 ** 3
    # the mul table plus the four products of each single-element law
    assert calls["mul"] <= 27 ** 2 + 4 * 27
    assert calls["add"] <= 27 ** 2 + 2 * 27


def test_mkl_oracle_calls_sigma_and_delta_once_per_element(monkeypatch):
    ctx = parse_ring_preset("truncpoly:3:4:c=2")
    calls = _count_calls(ctx, ("sigma", "delta"))
    # the word side's tables are built before the recursion fills its memo:
    # count the calls made up to the first recursion call
    table_phase = []

    def recursion(*args):
        if not table_phase:
            table_phase.append(dict(calls))
        return monomial_operator_apply(*args)

    monkeypatch.setattr(skewpoly, "monomial_operator_apply", recursion)
    assert mkl_oracle(ctx).passed
    assert table_phase == [{"sigma": ctx.cardinality,
                            "delta": ctx.cardinality}]


@pytest.mark.parametrize("preset", ["truncpoly:3:4:c=2", BROKEN_PRESET])
def test_nilbound_calls_sigma_and_delta_once_per_element(preset):
    ctx = parse_ring_preset(preset)
    calls = _count_calls(ctx, ("sigma", "delta"))
    sigma_nilpotence_bound(ctx, 3, 16)
    assert calls == {"sigma": ctx.cardinality, "delta": ctx.cardinality}


# closed_form_checks: every element at each (k, l) with k < d and
# k + l <= 6, 7 pairs at d = 1 and 13 at d = 2
@pytest.mark.parametrize("preset, checked, details", [
    ("zmod:2^10", 28717,
     {"max_total_degree": 6, "vanishing_checks": 21504,
      "closed_form_checks": 7 * 1024, "mkl_depth": 1}),
    ("truncpoly:3:3:c=2", 801,
     {"max_total_degree": 6, "vanishing_checks": 405,
      "closed_form_checks": 13 * 27, "mkl_depth": 2}),
    (BROKEN_PRESET, 801,
     {"max_total_degree": 6, "vanishing_checks": 270,
      "closed_form_checks": 0, "mkl_depth": 3})])
def test_mkl_oracle_leaves_the_memo_as_it_found_it(preset, checked, details):
    ctx = parse_ring_preset(preset)
    lin = skewpoly.SkewPoly(ctx, (ctx.radical_gens[0], ctx.one()))
    lin ** 5 * lin
    # products on a family with a closed form leave the memo empty, so the
    # recursion fills some of it here
    monomial_operator_apply(ctx, 2, 3, ctx.radical_gens[0])
    memo, rows = ctx._mkl_cache, ctx._mkl_rows
    before, rows_before = dict(memo), copy.deepcopy(rows)
    assert before and rows_before
    report = mkl_oracle(ctx)
    assert ctx._mkl_cache is memo and memo == before
    assert ctx._mkl_rows is rows and rows == rows_before
    assert (report.passed, report.checked, report.details) == \
        (True, checked, details)
