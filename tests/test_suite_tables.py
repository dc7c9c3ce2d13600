"""The exhaustive phases of ring-axioms, sigma-derivation and mkl-oracle run
over index tables of the ring operations.  The element-wise loops they
replaced are kept here as oracles; the tests require the same reports,
closure failures instead of tracebacks, and bounded operation counts."""

import copy
import itertools
import math
import random

import pytest

from conftest import BROKEN_PRESET, PRESET_MATRIX
from skewseries import (ZmodRing, monomial_operator_apply,
                        monomial_operator_words, parse_ring_preset, rings,
                        run_property_suite, sigma_nilpotence_bound, skewpoly)
from skewseries.report import CheckReport
from skewseries.rings import (TruncPolyRing, _exhaustive, _op_tables,
                              _tuple_stream)
from skewseries.skewpoly import monomial_operator_word_sums


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
                                "sigma_radical_onto": ctx.sigma_radical_onto()})


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
            s = s[:-1] + ((s[-1] + g) % 5,)
        return s


class NonCommutativeAdd(TruncPolyRing):
    """F_q[t]/(t^m), m >= 3, whose sum gains a_0 b_1 t^(m-1), with the
    matching inverse: a group, so associative, but t + 1 != 1 + t."""

    def __init__(self, q, m):
        super().__init__(q, m, 1)

    def add(self, a, b):
        s = super().add(a, b)
        return s[:-1] + ((s[-1] + a[0] * b[1]) % self.q,)

    def neg(self, a):
        n = super().neg(a)
        return n[:-1] + ((n[-1] + a[0] * a[1]) % self.q,)


class NonAssociativeMul(TruncPolyRing):
    """F_q[t]/(t^m), m >= 4, whose product gains a_1 b_2 t^3: bilinear, so
    distributive, with the same unit and zero, but t*t^2 != t^2*t, so
    (t*t)*t != t*(t*t)."""

    def __init__(self, q, m):
        super().__init__(q, m, 1)

    def mul(self, a, b):
        p = super().mul(a, b)
        return p[:3] + ((p[3] + a[1] * b[2]) % self.q,) + p[4:]


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
            p = p[:-1] + ((p[-1] + a[1] * b[1]) % self.q,)
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


@pytest.mark.parametrize("preset", ["truncpoly:3:3:c=2", "zmod:3^3"])
def test_wrong_recursion_value_matches_elementwise_loop(preset, monkeypatch):
    ctx = parse_ring_preset(preset)
    last = sorted(ctx.elements())[-1]
    monkeypatch.setattr(skewpoly, "monomial_operator_apply", _wrong_at(2, 3, last))
    tabled = mkl_oracle(parse_ring_preset(preset))
    assert not tabled.passed
    assert tabled.counterexample.startswith(
        f"M_{{2,3}} mismatch at a={ctx.render(last)}")
    assert _outcome(mkl_oracle, parse_ring_preset(preset)) == \
        _outcome(elementwise_mkl_oracle_check, parse_ring_preset(preset))


def test_a_wrong_closed_form_fails_the_oracle(monkeypatch):
    # M_{0,3}(a) replaced by 1 in the closed-form rows of the last element
    ctx = parse_ring_preset("truncpoly:3:3:c=2")
    last = sorted(ctx.elements())[-1]
    plain = TruncPolyRing._closed_rows

    def wrong(self, d, b, built, top):
        rows = plain(self, d, b, built, top)
        if b == last:
            rows = rows[:3] + (((0, self.one()),),) + rows[4:]
        return rows

    monkeypatch.setattr(TruncPolyRing, "_closed_rows", wrong)
    report = mkl_oracle(parse_ring_preset("truncpoly:3:3:c=2"))
    assert not report.passed
    assert report.counterexample == (
        f"closed form of M_{{0,3}} mismatch at a={ctx.render(last)}: "
        "closed form gives 1")
    assert _outcome(mkl_oracle, parse_ring_preset("truncpoly:3:3:c=2")) == \
        _outcome(elementwise_mkl_oracle_check, parse_ring_preset("truncpoly:3:3:c=2"))


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
    for total in range(max_total + 1):
        for k in range(total + 1):
            sums, count = monomial_operator_word_sums(
                ctx, k, total - k, elems, tables["sigma"], tables["delta"])
            assert count == math.comb(total, k)
            assert sums == [monomial_operator_words(ctx, k, total - k, a)[0]
                            for a in elems]


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
# both paths of rings._law_check run it.  A law added there, one the ring's
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
    """rings._law_check as the plain loop: ``law`` at every tuple of
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
    plain = getattr(rings, law)
    monkeypatch.setattr(rings, law,
                        lambda *args: plain(*args) or extra(*args))
    report = suite(parse_ring_preset(preset), 30, seed)
    assert report.details["mode"] == mode
    assert report.counterexample.startswith(cex), report.counterexample
    monkeypatch.setattr(rings, "_law_check", _plain_law_loop)
    looped = suite(parse_ring_preset(preset), 30, seed)
    assert (report.checked, report.counterexample) == \
        (looped.checked, looped.counterexample)


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
