import functools
import itertools
import random
import re
import time

import pytest

from skewseries import (INF, ZmodRing, parse_ring_preset, run_property_suite,
                        sigma_nilpotence_bound)
from skewseries.suites import NILBOUND_WORD_LIMIT, sigma_radical_onto

from conftest import BROKEN_PRESET, PRESET_MATRIX


class TestPresets:
    def test_zmod_basics(self, z8):
        assert z8.name == "zmod:2^3"
        assert z8.cardinality == 8
        assert z8.radical_nilpotency == 3
        assert z8.mul(3, 5) == 7
        assert z8.is_local()

    def test_truncpoly_basics(self, f27):
        assert f27.cardinality == 27
        assert f27.radical_nilpotency == 3
        t = f27.named_literals()["t"]
        assert f27.sigma(t) == f27.mul(f27.from_int(2), t)
        # delta(t) = t*(2t - t) = t^2
        assert f27.delta(t) == f27.mul(t, t)
        assert f27.is_local()

    def test_sigma_maps_radical_onto_for_presets(self, z8, f27):
        assert sigma_radical_onto(z8, z8.ideal_power(1))
        assert sigma_radical_onto(f27, f27.ideal_power(1))

    def test_field_edge_case(self):
        f3 = parse_ring_preset("zmod:3^1")
        assert f3.radical_nilpotency == 1
        assert f3.ideal_valuation(0) == INF
        assert f3.ideal_valuation(2) == 0
        assert f3.is_local()

    @pytest.mark.parametrize("bad", [
        "zmod", "zmod:6^2", "zmod:8", "truncpoly:4:3:c=2", "truncpoly:3:3",
        "truncpoly:3:3:c=0", "nosuch:1", "zmod:2^3:delta=broken",
        "zmod:2^3:delta=zero", "truncpoly:3:3:c=2:frob=1",
        # a second modifier, even the same one again
        "truncpoly:3:3:c=2:delta=zero:delta=broken",
        "truncpoly:3:3:c=2:delta=zero:delta=zero",
    ])
    def test_preset_errors(self, bad):
        with pytest.raises(ValueError):
            parse_ring_preset(bad)

    @pytest.mark.parametrize("preset, message", [
        ("zmod:4294967311^1", "zmod modulus base 4294967311 is at least 2^32"),
        ("zmod:2^65", "zmod preset 'zmod:2^65' has more than 2^64 elements"),
        ("zmod:3^41", "zmod preset 'zmod:3^41' has more than 2^64 elements"),
    ])
    def test_zmod_bounds(self, preset, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_ring_preset(preset)
        # the largest accepted presets on either bound
        assert parse_ring_preset("zmod:2^64").cardinality == 1 << 64
        assert parse_ring_preset("zmod:4294967291^2").p == 4294967291

    def test_modifiers(self):
        dz = parse_ring_preset("truncpoly:3:3:c=2:delta=zero")
        assert dz.delta(dz.named_literals()["t"]) == dz.zero()
        broken = parse_ring_preset(BROKEN_PRESET)
        assert broken.delta(broken.one()) == broken.named_literals()["t"]


class TestAxiomChecks:
    def test_zmod_passes(self, z8):
        report = run_property_suite("ring-axioms", z8, None, 500, 42)
        assert report.passed and report.counterexample is None
        assert report.details["mode"] == "exhaustive"

    def test_truncpoly_passes(self, f27):
        assert run_property_suite("ring-axioms", f27, None, 500, 42).passed

    def test_corrupted_mul_fails(self):
        class BadMul(ZmodRing):
            def mul(self, a, b):
                return (a * b + 1) % self.cardinality

        report = run_property_suite("ring-axioms", BadMul(2, 3), None, 500, 42)
        assert not report.passed
        assert report.counterexample is not None


class TestSigmaDerivation:
    def test_zero_delta_passes(self, z8):
        assert run_property_suite("sigma-derivation", z8, None, 500, 42).passed

    def test_qtwist_delta_passes(self, f27):
        report = run_property_suite("sigma-derivation", f27, None, 500, 42)
        assert report.passed
        assert report.details["sigma_radical_onto"] is True

    def test_broken_delta_fails(self):
        broken = parse_ring_preset(BROKEN_PRESET)
        report = run_property_suite("sigma-derivation", broken, None, 500, 42)
        assert not report.passed
        # the Leibniz identity already fails at a = b = 1
        one, t = broken.one(), broken.named_literals()["t"]
        lhs = broken.delta(broken.mul(one, one))
        rhs = broken.add(broken.mul(broken.sigma(one), broken.delta(one)),
                         broken.mul(broken.delta(one), one))
        assert lhs == t
        assert rhs == broken.add(t, t)
        assert lhs != rhs


class TestIdealStructure:
    def test_valuation_examples(self, z8):
        assert z8.ideal_valuation(0) == INF
        assert z8.ideal_valuation(4) == 2
        assert z8.ideal_valuation(6) == 1
        assert z8.ideal_valuation(3) == 0

    def test_valuation_truncpoly(self, f27):
        t = f27.named_literals()["t"]
        assert f27.ideal_valuation(t) == 1
        assert f27.ideal_valuation(f27.mul(t, t)) == 2
        assert f27.ideal_valuation(f27.add(f27.one(), t)) == 0

    def test_valuation_superadditive(self, z8, f27):
        for ctx in (z8, f27):
            for a in ctx.elements():
                for b in ctx.elements():
                    v = ctx.ideal_valuation(ctx.mul(a, b))
                    assert v >= min(ctx.ideal_valuation(a) + ctx.ideal_valuation(b),
                                    INF)

    def test_reduce_examples(self, z8, f27):
        assert z8.reduce_mod_ideal_power(7, 1) == 1
        one_t_t2 = bytes([1, 1, 1])
        assert f27.reduce_mod_ideal_power(one_t_t2, 2) == bytes([1, 1, 0])
        for ctx in (z8, f27):
            for a in ctx.elements():
                assert ctx.reduce_mod_ideal_power(a, 0) == ctx.zero()

    def test_reduce_range_errors(self, z8):
        with pytest.raises(ValueError, match="invalid ideal power"):
            z8.reduce_mod_ideal_power(1, 4)
        with pytest.raises(ValueError, match="invalid ideal power"):
            z8.reduce_mod_ideal_power(1, -1)

    def test_reduce_is_canonical(self, z8, f27):
        for ctx in (z8, f27):
            for k in range(ctx.radical_nilpotency + 1):
                power = ctx.ideal_power(k)
                for a in ctx.elements():
                    r = ctx.reduce_mod_ideal_power(a, k)
                    assert ctx.reduce_mod_ideal_power(r, k) == r
                    assert ctx.sub(r, a) in power
                # elements of I^k reduce to zero
                for a in power:
                    assert ctx.reduce_mod_ideal_power(a, k) == ctx.zero()
        assert z8.reduce_mod_ideal_power(5, 3) == 5

    def test_delta_deepens_radical_powers(self, z8, f27):
        # delta(I^k) <= I^(k+1), on generators and on the whole power
        for ctx in (z8, f27):
            for k in range(ctx.radical_nilpotency):
                deeper = ctx.ideal_power(k + 1)
                for w in ctx.ideal_power_gens(k):
                    assert ctx.delta(w) in deeper
                for a in ctx.ideal_power(k):
                    assert ctx.delta(a) in deeper

    @pytest.mark.parametrize("preset", PRESET_MATRIX + (BROKEN_PRESET,))
    def test_ideal_power_gens_are_the_products_of_k_generators(self, preset):
        # oracle: every product of k generators, each multiplied from 1 left
        # to right, as a sorted tuple without repeats; read past the
        # nilpotency too, where every product is zero
        ctx, ref = parse_ring_preset(preset), parse_ring_preset(preset)
        for k in range(ctx.radical_nilpotency + 2):
            products = set()
            for combo in itertools.product(ref.radical_gens, repeat=k):
                products.add(functools.reduce(ref.mul, combo, ref.one()))
            assert ctx.ideal_power_gens(k) == tuple(sorted(products))

    def test_ideal_power_gens_cost_one_product_per_level(self):
        # each level is built once from the one before: m - 1 products for
        # k = 0 ... m-1 on one generator (m(m-1)/2 when each product of k
        # generators was built from 1), and none when read again
        ctx = parse_ring_preset("truncpoly:3:4:c=2")
        m = ctx.radical_nilpotency
        calls = []
        plain = ctx.mul
        ctx.mul = lambda a, b: calls.append((a, b)) or plain(a, b)
        (t,) = ctx.radical_gens
        t2 = plain(t, t)
        assert [ctx.ideal_power_gens(k) for k in range(m)] == \
            [(ctx.one(),), (t,), (t2,), (plain(t2, t),)]
        assert len(calls) == m - 1 == 3
        for k in range(m):
            ctx.ideal_power_gens(k)
        assert len(calls) == 3

    @pytest.mark.parametrize("preset", PRESET_MATRIX + (BROKEN_PRESET,))
    def test_no_list_of_an_ideal_power_is_kept(self, preset):
        # each reader lists I^k once, so the context keeps none of the lists;
        # the check I^nil = 0 != I^(nil-1), on the products of nil and of
        # nil - 1 generators, runs on the first read alone
        ctx = parse_ring_preset(preset)
        nil, levels = ctx.radical_nilpotency, []
        plain = ctx.ideal_power_gens
        ctx.ideal_power_gens = lambda k: levels.append(k) or plain(k)
        lists = {k: ctx.ideal_power_list(k) for k in range(1, nil)}
        assert ctx.ideal_power(1) == frozenset(lists[1])
        assert ctx.ideal_power_list(1) is not lists[1]
        run_property_suite("sigma-derivation", ctx, None, 20, 0)
        ctx.is_local()
        assert levels == [nil, nil - 1]
        for value in vars(ctx).values():
            for held in (value.values() if isinstance(value, dict) else (value,)):
                assert not isinstance(held, list) or held not in lists.values()


def _nilbound_by_tuples(ctx, n, word_limit):
    """sigma_nilpotence_bound as it was before images were numbered: the
    layers are keyed by the image tuples themselves."""
    worst = 0
    moves = {}
    layer = {tuple(sorted(ctx.elements())): 0}
    for _ in range(word_limit):
        nxt = {}
        for image, count in layer.items():
            if image not in moves:
                moves[image] = []
                for fn, dk in ((ctx.delta, 1), (ctx.sigma, 0)):
                    img = tuple(map(fn, image))
                    leaves = any(ctx.ideal_valuation(x) < n for x in img)
                    moves[image].append((img, dk, leaves))
            for img, dk, leaves in moves[image]:
                reached = count + dk
                nxt[img] = max(nxt.get(img, 0), reached)
                if leaves:
                    worst = max(worst, reached)
        layer = nxt
    return worst + 1 if worst < word_limit else None


class TestNilpotenceBound:
    def test_zero_delta_gives_one(self, z8):
        for n in range(1, 4):
            assert sigma_nilpotence_bound(z8, n) == 1

    def test_qtwist_bounds(self, f27):
        # delta(R) <= (t^2), so one delta factor reaches I^2 already
        assert sigma_nilpotence_bound(f27, 1) == 1
        assert sigma_nilpotence_bound(f27, 2) == 1
        # delta(t) = t^2 != 0 shows one factor is not enough for I^3 = 0
        assert sigma_nilpotence_bound(f27, 3) == 2

    def test_target_beyond_nilpotency_collapses(self, z8, f27):
        for ctx in (z8, f27):
            nil = ctx.radical_nilpotency
            assert sigma_nilpotence_bound(ctx, nil + 2) == \
                sigma_nilpotence_bound(ctx, nil)

    def test_not_found_on_tight_word_limit(self):
        broken = parse_ring_preset(BROKEN_PRESET)
        # broken delta only shifts, so no bound certifies I^3 with one letter
        assert sigma_nilpotence_bound(broken, 3, word_limit=1) is None

    def test_validation(self, z8):
        with pytest.raises(ValueError):
            sigma_nilpotence_bound(z8, 0)
        with pytest.raises(ValueError):
            sigma_nilpotence_bound(z8, 1, word_limit=0)

    @pytest.mark.parametrize("preset", PRESET_MATRIX + (BROKEN_PRESET,))
    def test_the_cli_budget_changes_no_bound(self, preset):
        # the CLI rejects word limits above NILBOUND_WORD_LIMIT; below it the
        # bound has stopped changing once the limit passes the nilpotency
        ctx = parse_ring_preset(preset)
        nil = ctx.radical_nilpotency
        for n in range(1, nil + 1):
            assert sigma_nilpotence_bound(ctx, n, NILBOUND_WORD_LIMIT) == \
                sigma_nilpotence_bound(ctx, n, nil + 2)

    def test_search_is_linear_in_the_word_limit(self, f27):
        # one delta count per image: 10,000 layers over the few images of
        # f27 take about 0.2 s of CPU time, where a set of counts per image
        # made the search quadratic (8.6 s)
        start = time.process_time()
        assert sigma_nilpotence_bound(f27, 1, 10_000) == 1
        assert time.process_time() - start < 2

    @pytest.mark.parametrize("preset", PRESET_MATRIX + (BROKEN_PRESET,))
    def test_numbered_images_give_the_tuple_keyed_bound(self, preset):
        ctx = parse_ring_preset(preset)
        for n in range(1, ctx.radical_nilpotency + 2):
            for limit in (*range(1, 9), NILBOUND_WORD_LIMIT):
                assert sigma_nilpotence_bound(ctx, n, limit) == \
                    _nilbound_by_tuples(ctx, n, limit), (n, limit)


# -- enumeration oracles ----------------------------------------------------
#
# The ring structure in src/ is computed in closed form per preset family.
# These brute-force versions enumerate the carrier instead; the tests below
# require both to agree exactly on small presets.

ORACLE_PRESETS = PRESET_MATRIX + (BROKEN_PRESET, "zmod:5^1",
                                  "truncpoly:3:1:c=1")


def _additive_span(ctx, seed):
    """Additive subgroup generated by ``seed``, as a frozenset."""
    closure = {ctx.zero()}
    gens = sorted(set(seed))
    changed = True
    while changed:
        changed = False
        for g in gens:
            for a in list(closure):
                s = ctx.add(a, g)
                if s not in closure:
                    closure.add(s)
                    changed = True
    return frozenset(closure)


@functools.lru_cache(maxsize=None)
def _enumerated_structure(preset):
    """(ideal powers I^0..I^nil, inverse table, is_local) by enumeration."""
    ctx = parse_ring_preset(preset)
    carrier = sorted(ctx.elements())
    # two-sided ideal generated by the radical generators
    left = [ctx.mul(r, g) for g in ctx.radical_gens for r in carrier]
    seed = [ctx.mul(rg, s) for rg in left for s in carrier]
    radical = _additive_span(ctx, seed)
    powers = [frozenset(carrier), radical]
    while len(powers) <= ctx.radical_nilpotency:
        powers.append(_additive_span(
            ctx, [ctx.mul(a, b) for a in powers[-1] for b in radical]))
    one = ctx.one()
    inverses = {}
    for a in carrier:
        for b in carrier:
            if ctx.mul(a, b) == one and ctx.mul(b, a) == one:
                inverses[a] = b
                break
    local = all((a in inverses) != (a in radical) for a in carrier)
    return powers, inverses, local


def _enumerated_valuation(powers, a):
    if a in powers[-1]:           # I^nil = {0}
        return INF
    return max(k for k, power in enumerate(powers) if a in power)


def _word_enumeration_bounds(ctx, targets, max_limit):
    """{n: [sigma_nilpotence_bound(ctx, n, limit) for limit 1..max_limit]}
    for each n in targets, by applying every word in delta, sigma to every
    element.  The words of each length are the words one letter shorter
    with a letter applied after them, so each keeps its own image of the
    carrier; no two words are merged."""
    first_failure = {n: {} for n in targets}   # n -> {delta count: length}
    words = [(tuple(sorted(ctx.elements())), 0)]   # (image, delta count)
    for length in range(1, max_limit + 1):
        words = [(tuple(map(fn, image)), k + dk) for image, k in words
                 for fn, dk in ((ctx.delta, 1), (ctx.sigma, 0))]
        for n, failures in first_failure.items():
            target = ctx.ideal_power(n)
            for image, k in words:
                if k and k not in failures and any(x not in target for x in image):
                    failures[k] = length
    bounds = {}
    for n, failures in first_failure.items():
        bounds[n] = []
        for limit in range(1, max_limit + 1):
            failing = [k for k, length in failures.items() if length <= limit]
            m = max(failing) + 1 if failing else 1
            bounds[n].append(m if m <= limit else None)
    return bounds


@pytest.mark.parametrize("preset", ORACLE_PRESETS)
class TestClosedFormsAgainstEnumeration:
    def test_ideal_powers(self, preset):
        ctx = parse_ring_preset(preset)
        powers, _, _ = _enumerated_structure(preset)
        nil = ctx.radical_nilpotency
        assert powers[nil] == {ctx.zero()}
        for k in range(nil + 2):
            expected = powers[min(k, nil)]
            assert ctx.ideal_power(k) == expected
            # seeded draws index into this list, so its order is fixed too
            assert ctx.ideal_power_list(k) == sorted(expected)

    def test_sizes_of_and_draws_from_ideal_powers(self, preset):
        # the closed forms behind the carrier budgets and the suites' draws
        ctx = parse_ring_preset(preset)
        for k in range(ctx.radical_nilpotency + 2):
            power = ctx.ideal_power_list(k)
            assert ctx.ideal_power_size(k) == len(power)
            for seed in range(5):
                listed, drawn = random.Random(seed), random.Random(seed)
                for _ in range(3):
                    assert ctx.sample_ideal_power(k, drawn) == \
                        listed.choice(power)
                assert drawn.getstate() == listed.getstate()

    def test_valuation_units_and_inverses(self, preset):
        ctx = parse_ring_preset(preset)
        powers, inverses, _ = _enumerated_structure(preset)
        for a in ctx.elements():
            assert ctx.ideal_valuation(a) == _enumerated_valuation(powers, a)
            assert ctx.is_unit(a) == (a in inverses)
            if a in inverses:
                assert ctx.inv(a) == inverses[a]
            else:
                with pytest.raises(ValueError, match="is not a unit"):
                    ctx.inv(a)

    def test_is_local(self, preset):
        _, _, local = _enumerated_structure(preset)
        assert local
        assert parse_ring_preset(preset).is_local() == local


class TestClosedFormChecks:
    @pytest.mark.parametrize("shift, message", [
        (1, "I\\^3 already vanishes"), (-1, "I\\^2 does not vanish")])
    def test_wrong_nilpotency_is_rejected(self, shift, message):
        class OffByOne(ZmodRing):
            def __init__(self):
                super().__init__(2, 3)
                self.radical_nilpotency += shift

        for first_use in (lambda c: c.ideal_power(1), lambda c: c.ideal_valuation(1),
                          lambda c: c.is_local()):
            with pytest.raises(ValueError, match=message):
                first_use(OffByOne())

    def test_a_wrong_inverse_formula_fails_to_verify_in_inv(self):
        class NoInverse(ZmodRing):
            def _inv(self, a):
                return a

        # R/I = F_3 is a field whatever _inv says, so Z/9 stays local, and
        # inv is where the wrong formula is caught
        ring = NoInverse(3, 2)
        assert ring.is_local()
        with pytest.raises(AssertionError, match="failed to verify"):
            ring.inv(2)

    # zmod:4294967291^1 has p - 1 nonzero residues, so set-up must not
    # visit them; on ^2, ideal_power(1) itself lists p elements
    @pytest.mark.parametrize("preset", ["truncpoly:3:6:c=2", "zmod:2^10",
                                        "zmod:4294967291^1"])
    def test_set_up_makes_few_products(self, preset):
        ctx = parse_ring_preset(preset)
        calls = []
        plain_mul = ctx.mul

        def counted(a, b):
            calls.append(None)
            return plain_mul(a, b)

        ctx.mul = counted
        ctx.ideal_power(1)
        assert ctx.is_unit(ctx.one())
        assert ctx.is_local()
        assert len(calls) <= 64


@pytest.mark.parametrize("preset", PRESET_MATRIX + (BROKEN_PRESET,))
def test_layered_bound_matches_word_enumeration(preset):
    _assert_layered_bound_matches(parse_ring_preset(preset))


def test_layered_bound_merges_words_with_different_delta_counts():
    # with delta = sigma = id every word of a length has the same image,
    # so the layered search must keep the largest of their delta counts
    class IdentityDelta(ZmodRing):
        def delta(self, a):
            return a

    _assert_layered_bound_matches(IdentityDelta(2, 3))
    assert sigma_nilpotence_bound(IdentityDelta(2, 3), 1, 8) is None


def _assert_layered_bound_matches(ctx):
    layered = {n: [sigma_nilpotence_bound(ctx, n, limit) for limit in range(1, 9)]
               for n in range(1, 4)}
    assert layered == _word_enumeration_bounds(ctx, range(1, 4), 8)


@pytest.mark.parametrize("preset", PRESET_MATRIX + (BROKEN_PRESET,))
def test_sigma_permutes_the_carrier(preset):
    # sigma is an automorphism of R: one preimage for every element, and the
    # radical is mapped onto itself
    ctx = parse_ring_preset(preset)
    images = {ctx.sigma(a) for a in ctx.elements()}
    assert images == set(ctx.elements())
    assert sigma_radical_onto(ctx, ctx.ideal_power(1))


@pytest.mark.parametrize("preset", ["zmod:2^10", "zmod:3^5"])
def test_zmod_reducer_per_k(preset):
    ctx = parse_ring_preset(preset)
    for k in range(ctx.n + 1):
        assert ctx.ideal_power_label(k) == str(ctx.p ** k)
        for a in ctx.elements():
            assert ctx._reduce(a, k) == a % ctx.p ** k
