import copy
import operator
import random

import pytest

from conftest import BROKEN_PRESET, PRESET_MATRIX, assert_stored_trimmed
from skewseries import series, skewpoly
from skewseries import (GradedElem, SkewPoly, TruncatedSeries, eval_expression,
                        parse_expression, parse_ring_preset,
                        poly_mul_commutation, principal_symbol,
                        run_property_suite)
from skewseries.series import matrix_product, mul_add, random_series
from skewseries.suites import (filtration_generators, random_poly,
                               random_series_in_filtration)


class TestTruncation:
    def test_zero_poly(self, z8):
        assert TruncatedSeries.from_poly(SkewPoly.zero(z8), 3).is_zero()

    def test_constant_is_one_slot(self, z8):
        c = TruncatedSeries.constant(z8, 8, 3)
        assert c.coeffs == (3,)
        assert TruncatedSeries.zero(z8, 8).coeffs == ()
        # the representative shares the stored tuple, already trimmed
        assert c.to_poly() == SkewPoly(z8, (3,)) and c.to_poly().coeffs is c.coeffs

    def test_reduction_example(self, z8):
        f = SkewPoly(z8, (4, 2, 1))
        s = TruncatedSeries.from_poly(f, 3)
        assert s.coeffs == (4, 2, 1)
        # one more radical layer gone per slot
        t = TruncatedSeries.from_poly(SkewPoly(z8, (7, 7, 7)), 3)
        assert t.coeffs == (7, 3, 1)

    def test_x_power_dies_at_precision(self, z8):
        for n in range(1, 5):
            s = TruncatedSeries.from_poly(SkewPoly.var(z8) ** n, n)
            assert s.is_zero()

    def test_render_verbatim(self, z8):
        s = TruncatedSeries.from_poly(SkewPoly(z8, (4, 2, 1)), 3)
        assert s.render() == "4 (mod 8) + 2 (mod 4)*x + 1 (mod 2)*x^2 [N=3]"
        assert TruncatedSeries.zero(z8, 3).render() == "0 [N=3]"

    def test_precision_validation(self, z8):
        with pytest.raises(ValueError):
            TruncatedSeries(z8, 0, ())


class TestSeriesProduct:
    def test_one_is_neutral(self, f27):
        rng = random.Random(2)
        one = TruncatedSeries.one(f27, 4)
        for _ in range(20):
            f = random_series(f27, 4, rng)
            assert f * one == f
            assert one * f == f

    @pytest.mark.parametrize("preset", PRESET_MATRIX)
    def test_one_commutes_with_x(self, preset):
        # sigma(1) = 1 and delta(1) = 0, so the class of 1 is a two-sided
        # identity: the block kernel and idempotent_rank skip products by 1
        # on this ground.  The predicate is computed on first use only
        ctx = parse_ring_preset(preset)
        assert ctx._one_commutes_with_x is None
        assert ctx.one_commutes_with_x()
        rng = random.Random(preset)
        for precision in range(1, 9):
            one = TruncatedSeries.one(ctx, precision)
            for f in [TruncatedSeries.var(ctx, precision)] + [
                    random_series(ctx, precision, rng) for _ in range(3)]:
                assert f * one == f == one * f

    def test_one_is_only_a_left_identity_on_the_broken_control(self):
        # must-fail control: delta(1) = t, so x*1 = x + t at N = 3; this is
        # why a right factor 1 and a pivot 1 keep the full path unless the
        # predicate holds.  1*x = x holds for every sigma and delta
        ctx = parse_ring_preset(BROKEN_PRESET)
        assert not ctx.one_commutes_with_x()
        x, one = TruncatedSeries.var(ctx, 3), TruncatedSeries.one(ctx, 3)
        assert x * one != x
        assert x * one == x + TruncatedSeries.constant(ctx, 3, ctx.radical_gens[0])
        assert one * x == x

    def test_x_times_t(self, f27):
        t = f27.named_literals()["t"]
        x = TruncatedSeries.var(f27, 3)
        ts = TruncatedSeries.constant(f27, 3, t)
        via_poly = TruncatedSeries.from_poly(
            SkewPoly.var(f27) * SkewPoly.from_scalar(f27, t), 3)
        assert x * ts == via_poly

    def test_from_poly_is_multiplicative(self, matrix_ctx):
        """R[x] -> S/G_N is a ring map: from_poly commutes with +, unary and
        binary -, * and ** e for e = 0..5, zero operands included; f ** 0
        is the 1 of each class, and every result in R[x] and in S/G_N is
        stored without a trailing zero."""
        ctx = matrix_ctx
        rng = random.Random(f"{ctx.name}/13")
        zero, one = SkewPoly.zero(ctx), SkewPoly.one(ctx)
        for n in (1, 2, 4):
            def lift(f):
                return TruncatedSeries.from_poly(f, n)

            polys = [random_poly(ctx, n - 1, rng) for _ in range(24)]
            pairs = list(zip(polys[::2], polys[1::2]))
            pairs += [(zero, zero), (zero, polys[0]), (polys[0], zero),
                      (one, polys[1]), (polys[1], one)]
            for f, g in pairs:
                for op in (operator.add, operator.sub, operator.mul):
                    poly, cls = op(f, g), op(lift(f), lift(g))
                    assert lift(poly) == cls
                    assert_stored_trimmed(poly, cls)
                assert lift(-f) == -lift(f)
                assert_stored_trimmed(-f, -lift(f))
            for f in polys[:4] + [zero, one]:
                assert f ** 0 == one
                assert lift(f) ** 0 == TruncatedSeries.one(ctx, n)
                for e in range(6):
                    poly, cls = f ** e, lift(f) ** e
                    assert lift(poly) == cls
                    assert_stored_trimmed(poly, cls)

    def test_representative_independence_example(self, z8):
        # perturbing the x-coefficient of a lift by 2 (an element of J^(2-1))
        # must leave the product class in S/G_2 unchanged
        lift = SkewPoly(z8, (1, 1))
        lift_pert = SkewPoly(z8, (1, 3))
        g_lift = SkewPoly(z8, (3, 5))
        f = TruncatedSeries.from_poly(lift, 2)
        f_pert = TruncatedSeries.from_poly(lift_pert, 2)
        assert f_pert == f
        assert TruncatedSeries.from_poly(lift_pert * g_lift, 2) == \
            TruncatedSeries.from_poly(lift * g_lift, 2)
        assert TruncatedSeries.from_poly(g_lift * lift_pert, 2) == \
            TruncatedSeries.from_poly(g_lift * lift, 2)

    def test_law_suite(self, z8, f27):
        for ctx in (z8, f27):
            report = run_property_suite("series-assoc", ctx, 4, 50, 3)
            assert report.passed, report.counterexample

    def test_mismatch_errors(self, z8, f27):
        with pytest.raises(ValueError, match="precision mismatch"):
            TruncatedSeries.one(z8, 2) * TruncatedSeries.one(z8, 3)
        with pytest.raises(ValueError, match="ring context mismatch"):
            TruncatedSeries.one(z8, 2) * TruncatedSeries.one(f27, 2)

    @pytest.mark.parametrize(
        "preset", PRESET_MATRIX + (BROKEN_PRESET,))
    def test_slots_match_clamped_reduction(self, preset):
        # the constructor reduces slot i only while N - i is below the
        # nilpotency; every slot must still be reduce_clamped(c, N - i),
        # and the zero slots that end the class are not stored
        ctx = parse_ring_preset(preset)
        zero = ctx.zero()
        rng = random.Random(preset)
        for n in range(1, ctx.radical_nilpotency + 3):
            for size in (n - 1, n, n + 2):
                for _ in range(5):
                    coeffs = [ctx.sample(rng) for _ in range(size)]
                    padded = (coeffs + [zero] * n)[:n]
                    expected = [ctx.reduce_clamped(c, n - i)
                                for i, c in enumerate(padded)]
                    while expected and expected[-1] == zero:
                        expected.pop()
                    assert TruncatedSeries(ctx, n, coeffs).coeffs == tuple(expected)

    def test_tower_compatibility(self, z8, f27):
        # S/G_N -> S/G_(N-1) commutes with multiplication
        rng = random.Random(17)
        for ctx in (z8, f27):
            for _ in range(30):
                f = random_series(ctx, 5, rng)
                g = random_series(ctx, 5, rng)
                assert (f * g).reduce_precision(4) == \
                    f.reduce_precision(4) * g.reduce_precision(4)


def _old_slots(ctx, n, coeffs):
    """The class of sum coeffs[i] x^i in S/G_n in the N-slot representation:
    exactly n slots, slot i the coefficient reduced by
    reduce_clamped(c_i, n - i), trailing zeros kept."""
    padded = (list(coeffs) + [ctx.zero()] * n)[:n]
    return tuple(ctx.reduce_clamped(c, n - i) for i, c in enumerate(padded))


def _padded(f):
    """The stored coefficients of f padded with zeros to N slots."""
    return f.coeffs + (f.ctx.zero(),) * (f.precision - len(f.coeffs))


def _lift_ending_in_the_ideal(ctx, n, rng):
    """n coefficients whose slots from a random one on lie in I^(n-i), so
    they reduce to zero in S/G_n."""
    head = rng.randrange(n)
    return ([ctx.sample(rng) for _ in range(head)]
            + [ctx.sample_ideal_power(n - i, rng) for i in range(head, n)])


def _sample_classes(ctx, n, rng):
    """Classes of S/G_n for the storage tests: the zero class, x^(n-1),
    random classes and classes whose lifts end in slots that vanish."""
    out = [TruncatedSeries.zero(ctx, n),
           TruncatedSeries(ctx, n, [ctx.zero()] * (n - 1) + [ctx.one()])]
    for _ in range(3):
        out.append(random_series(ctx, n, rng))
        out.append(TruncatedSeries(ctx, n, _lift_ending_in_the_ideal(ctx, n, rng)))
    return out


TRIM_PRESETS = PRESET_MATRIX + (BROKEN_PRESET,)
TRIM_PRECISIONS = (1, 2, 3, 5)


@pytest.mark.parametrize("preset", TRIM_PRESETS)
class TestTrimmedStorage:
    """A class is stored without trailing zero slots, and padding it back
    to N slots gives exactly the N-slot representation (_old_slots) of the
    unreduced result."""

    def test_no_class_ends_in_a_zero_slot(self, preset):
        ctx = parse_ring_preset(preset)
        rng = random.Random(f"{preset}/trimmed")
        texts = ["x - x", "(1 + x)^5", "x^2*(1 + x) - x^3", "(1 + x)^3 - 1",
                 "x^4 + x^3 + x^2 + x"]
        for n in TRIM_PRECISIONS:
            fs = _sample_classes(ctx, n, rng)
            assert_stored_trimmed(fs)
            for _ in range(4):
                lift = _lift_ending_in_the_ideal(ctx, n, rng)
                assert_stored_trimmed(
                    TruncatedSeries(ctx, n, lift + [ctx.zero()] * 2),
                    TruncatedSeries._from_slots(ctx, n, lift))
            for f, g in zip(fs, fs[1:] + fs[:1]):
                assert_stored_trimmed(f + g, f - g, f - f, -f, f * g, g * f,
                                      f ** 3, f ** n)
                assert_stored_trimmed([f.reduce_precision(m)
                                       for m in range(1, n + 1)])
            a, b = (fs[:3], fs[3:6]), (fs[4:6], fs[1:3], fs[6:8])
            assert_stored_trimmed(matrix_product(ctx, n, a, b))
            for v in fs[:4]:
                for v_right in (False, True):
                    assert_stored_trimmed(
                        mul_add(ctx, n, v, fs[2:], v_right=v_right),
                        mul_add(ctx, n, v, fs[2:], fs[:-2], v_right))
            for text in texts:
                assert_stored_trimmed(
                    eval_expression(parse_expression(text, ctx), ctx, n))

    def test_padding_gives_the_clamped_slots(self, preset):
        ctx = parse_ring_preset(preset)
        rng = random.Random(f"{preset}/padded")
        for n in TRIM_PRECISIONS:
            for _ in range(4):
                lift = _lift_ending_in_the_ideal(ctx, n, rng)
                assert _padded(TruncatedSeries(ctx, n, lift)) == \
                    _old_slots(ctx, n, lift)
                assert _padded(TruncatedSeries._from_slots(ctx, n, list(lift))) == \
                    _old_slots(ctx, n, lift)
            fs = _sample_classes(ctx, n, rng)
            lifts = [f.to_poly() for f in fs]
            for (f, pf), (g, pg) in zip(zip(fs, lifts),
                                        zip(fs[1:] + fs[:1], lifts[1:] + lifts[:1])):
                assert _padded(f + g) == _old_slots(ctx, n, (pf + pg).coeffs)
                assert _padded(f - g) == _old_slots(ctx, n, (pf - pg).coeffs)
                assert _padded(f * g) == _old_slots(ctx, n, (pf * pg).coeffs)
                for m in range(1, n + 1):
                    assert _padded(f.reduce_precision(m)) == \
                        _old_slots(ctx, m, pf.coeffs)
            a, b = (fs[:3], fs[3:6]), (fs[4:6], fs[1:3], fs[6:8])
            pa = [[f.to_poly() for f in row] for row in a]
            pb = [[f.to_poly() for f in row] for row in b]
            for row, prow in zip(matrix_product(ctx, n, a, b), pa):
                for entry, pcol in zip(row, zip(*pb)):
                    total = SkewPoly.zero(ctx)
                    for x, y in zip(prow, pcol):
                        total = total + x * y
                    assert _padded(entry) == _old_slots(ctx, n, total.coeffs)
            v, pv = fs[3], lifts[3]
            for v_right in (False, True):
                out = mul_add(ctx, n, v, fs[2:], fs[:-2], v_right)
                for entry, px, py in zip(out, lifts, lifts[2:]):
                    prod = py * pv if v_right else pv * py
                    assert _padded(entry) == _old_slots(ctx, n, (px + prod).coeffs)


class TestNilpotenceCut:
    """The series product shares the polynomial product's kernel, which
    skips the terms with at least radical-nilpotency delta factors."""

    def test_kernel_matches_commutation_above_nilpotency(self, matrix_ctx):
        _check_products_against_commutation(matrix_ctx, random.Random(31))

    def test_cut_is_tight_on_the_broken_control(self):
        # see the test of the same name in test_skewpoly.py
        _check_products_against_commutation(
            parse_ring_preset(BROKEN_PRESET), random.Random(33))

    def test_square_and_multiply_matches_left_fold(self, matrix_ctx):
        ctx = matrix_ctx
        rng = random.Random(32)
        for n in (3, 7):
            f = random_series(ctx, n, rng)
            acc = TruncatedSeries.one(ctx, n)
            for e in range(21):
                assert f ** e == acc
                acc = acc * f

    def test_direct_evaluation_matches_from_poly(self, matrix_ctx):
        ctx = matrix_ctx
        u = ctx.render(ctx.radical_gens[0])
        for text in (f"({u} + x)^9 * (2 + x^2*{u}) - x*{u}*x",
                     f"(1 + x + {u})^6 - ({u}*x + 3)^2 * (x^3 + 1)",
                     f"-(x*{u} + {u}*x)^3 + x^5"):
            node = parse_expression(text, ctx)
            poly = eval_expression(node, ctx)
            for n in range(1, 9):
                assert eval_expression(node, ctx, n) == \
                    TruncatedSeries.from_poly(poly, n), (text, n)

    def test_vanishing_check_fires(self, delta_ctx):
        # with I^1 claimed zero, constants are not reduced and x^2 * t skips
        # M_{1,0}(t) = delta(t) = t^2 != 0
        shrunk = copy.copy(delta_ctx)
        shrunk.radical_nilpotency = 1
        t = shrunk.radical_gens[0]
        x_sq = TruncatedSeries(shrunk, 3, (shrunk.zero(), shrunk.zero(), shrunk.one()))
        with pytest.raises(AssertionError, match="nilpotence bound violated"):
            x_sq * TruncatedSeries.constant(shrunk, 3, t)


def _check_products_against_commutation(ctx, rng):
    n = ctx.radical_nilpotency + 3
    for _ in range(6):
        f = random_series(ctx, n, rng)
        g = random_series(ctx, n, rng)
        expected = poly_mul_commutation(f.to_poly(), g.to_poly())
        assert f * g == TruncatedSeries.from_poly(expected, n)


class TestFiltration:
    def test_zero_class_has_full_degree(self, z8):
        assert TruncatedSeries.zero(z8, 4).filtration_degree() == 4

    def test_degree_examples(self, z8):
        s = TruncatedSeries.from_poly(SkewPoly(z8, (4, 2, 1)), 4)
        assert s.filtration_degree() == 2
        two_x = TruncatedSeries.from_poly(SkewPoly(z8, (0, 2)), 4)
        assert two_x.filtration_degree() == 2
        # 2x sits in G_2 but not G_3 since 2 is not in J^2 = (4)
        assert z8.ideal_valuation(2) + 1 == 2

    def test_degree_superadditive(self, z8, f27):
        rng = random.Random(23)
        for ctx in (z8, f27):
            for _ in range(100):
                f = random_series(ctx, 5, rng)
                g = random_series(ctx, 5, rng)
                assert (f * g).filtration_degree() >= min(
                    5, f.filtration_degree() + g.filtration_degree())

    def test_filtration_generators(self, z8):
        gens = filtration_generators(z8, 4, 2)
        renders = {g.render() for g in gens}
        assert "4 (mod 8) [N=4]" in renders          # 4 = 2*2 at slot 0
        assert "2 (mod 8)*x [N=4]" in renders        # 2 at slot 1
        assert "1 (mod 4)*x^2 [N=4]" in renders      # x^2
        assert all(g.filtration_degree() >= 2 for g in gens)

    def test_sampled_filtration_membership(self, f27):
        rng = random.Random(29)
        for k in range(5):
            for _ in range(20):
                g = random_series_in_filtration(f27, 4, k, rng)
                assert g.filtration_degree() >= min(k, 4)

    def test_ideal_closure(self, z8, f27):
        for ctx in (z8, f27):
            report = run_property_suite("ideal-closure", ctx, 4, 50, 31)
            assert report.passed, report.counterexample
            assert report.details["max_filtration_index"] == 4


class TestGraded:
    def test_symbol_of_x(self, z8):
        x = TruncatedSeries.var(z8, 3)
        assert principal_symbol(x).components == (((0, 1), 1),)

    def test_symbol_of_2x(self, z8):
        s = TruncatedSeries.from_poly(SkewPoly(z8, (0, 2)), 4)
        assert principal_symbol(s).components == (((1, 1), 2),)

    def test_full_boundary_symbol(self, z8):
        s = TruncatedSeries.from_poly(SkewPoly(z8, (4, 2, 1)), 4)
        comps = dict(principal_symbol(s).components)
        assert comps == {(2, 0): 4, (1, 1): 2, (0, 2): 1}

    def test_zero_has_no_symbol(self, z8):
        with pytest.raises(ValueError, match="zero has no principal symbol"):
            principal_symbol(TruncatedSeries.zero(z8, 3))

    def test_graded_one_neutral(self, f27):
        rng = random.Random(37)
        one = GradedElem.one(f27)
        for _ in range(20):
            f = random_series(f27, 4, rng)
            if f.is_zero():
                continue
            u = principal_symbol(f)
            assert u * one == u
            assert one * u == u

    def test_xbar_times_tbar_keeps_derivation_term(self, f27):
        # x*t = 2t*x + t^2 with both terms on the degree-2 boundary, so the
        # graded product must carry the layer-raising derivation component;
        # cross-checked against the symbol of the actual product.
        t = f27.named_literals()["t"]
        x = TruncatedSeries.var(f27, 4)
        ts = TruncatedSeries.constant(f27, 4, t)
        model = principal_symbol(x) * principal_symbol(ts)
        t_sq = f27.mul(t, t)
        two_t = f27.mul(f27.from_int(2), t)
        assert dict(model.components) == {(2, 0): t_sq, (1, 1): two_t}
        assert model == principal_symbol(x * ts)

    def test_pure_twist_when_delta_zero(self, z8):
        # over a delta = 0 preset the product is the plain twisted rule
        two_x = TruncatedSeries.from_poly(SkewPoly(z8, (0, 2)), 4)
        sym = principal_symbol(two_x)
        sq = sym * sym
        assert dict(sq.components) == {(2, 2): 4}

    def test_cancellation_to_zero(self, z8):
        two = TruncatedSeries.constant(z8, 4, 2)
        four = TruncatedSeries.constant(z8, 4, 4)
        assert (two * four).is_zero()
        prod = principal_symbol(two) * principal_symbol(four)
        assert prod.is_zero()

    def test_graded_iso_suite(self, z8, f27):
        for ctx in (z8, f27):
            report = run_property_suite("graded-iso", ctx, 5, 50, 41)
            assert report.passed, report.counterexample
            assert report.details["exact_branch"] > 0
            assert report.details["jump_branch"] > 0


def _five_products(ctx, n, f, g):
    """f*g by each path into the product kernel: SkewPoly, TruncatedSeries
    (at N = n), matrix_product on 1x1 matrices, and mul_add with f as v
    and with g as v (v_right)."""
    sf, sg = TruncatedSeries.from_poly(f, n), TruncatedSeries.from_poly(g, n)
    return {"SkewPoly": TruncatedSeries.from_poly(f * g, n),
            "TruncatedSeries": sf * sg,
            "matrix_product": matrix_product(ctx, n, ((sf,),), ((sg,),))[0][0],
            "mul_add": mul_add(ctx, n, sf, [sg])[0],
            "mul_add v_right": mul_add(ctx, n, sg, [sf], v_right=True)[0]}


class TestOneKernelEntry:
    """Every product, single, matrix or k0 step, is one call of
    skewpoly._block_product, which alone decides when a product by 1 costs
    additions only."""

    def test_right_one_keeps_the_full_path_on_delta_broken(self):
        # delta(1) = t there, so x*1 = x + t: a right factor 1 may not be
        # added as it stands, while a left factor 1 always may
        ctx = parse_ring_preset(BROKEN_PRESET)
        assert not ctx.one_commutes_with_x()
        x, one = SkewPoly.var(ctx), SkewPoly.one(ctx)
        x_one = poly_mul_commutation(x, one)
        assert x_one == x + SkewPoly.from_scalar(ctx, ctx.radical_gens[0])
        expected = TruncatedSeries.from_poly(x_one, 3)
        assert _five_products(ctx, 3, x, one) == dict.fromkeys(
            ("SkewPoly", "TruncatedSeries", "matrix_product", "mul_add",
             "mul_add v_right"), expected)
        assert set(_five_products(ctx, 3, one, x).values()) == {
            TruncatedSeries.var(ctx, 3)}

    def test_every_product_is_one_block_call(self, f27, monkeypatch):
        shapes = []
        plain = skewpoly._block_product

        def counted(ctx, rows, cols, length, out):
            shapes.append((len(rows), len(cols)))
            plain(ctx, rows, cols, length, out)

        # series imports the kernel by name: count it wherever it is bound
        for module in (skewpoly, series):
            if hasattr(module, "_block_product"):
                monkeypatch.setattr(module, "_block_product", counted)
        rng = random.Random(97)
        f, g = (random_poly(f27, 2, rng) for _ in range(2))
        sf, sg, sh = (random_series(f27, 4, rng) for _ in range(3))
        products = {
            "SkewPoly": lambda: f * g,
            "TruncatedSeries": lambda: sf * sg,
            "matrix_product": lambda: matrix_product(
                f27, 4, ((sf, sg), (sg, sh)), ((sh, sf), (sf, sg))),
            "mul_add": lambda: mul_add(f27, 4, sf, [sg, sh, sf], [sh, sh, sg]),
            "mul_add v_right": lambda: mul_add(f27, 4, sf, [sg, sh, sf],
                                               v_right=True)}
        expected = {"SkewPoly": [(1, 1)], "TruncatedSeries": [(1, 1)],
                    "matrix_product": [(2, 2)], "mul_add": [(1, 3)],
                    "mul_add v_right": [(3, 1)]}
        for name, product in products.items():
            del shapes[:]
            product()
            assert shapes == expected[name], name


def _oracle_product(x, y):
    """x * y in S/G_N by the iterated-commutation oracle, with no call of
    the block kernel."""
    return TruncatedSeries.from_poly(
        poly_mul_commutation(x.to_poly(), y.to_poly()), x.precision)


def _unit_heavy_factors(ctx, n, rng):
    """Square factors of size 3 at N = n for a * b: identities,
    permutations, and matrices a third of whose entries are 1 and a third
    zero, in every pairing with each other and with a random matrix."""
    zero, one = TruncatedSeries.zero(ctx, n), TruncatedSeries.one(ctx, n)
    ident = tuple(tuple(one if r == c else zero for c in range(3))
                  for r in range(3))
    perm = rng.sample(range(3), 3)
    permutation = tuple(tuple(one if c == perm[r] else zero for c in range(3))
                        for r in range(3))
    units = [tuple(tuple(rng.choice((one, zero, random_series(ctx, n, rng)))
                         for _ in range(3)) for _ in range(3)) for _ in range(2)]
    dense = tuple(tuple(random_series(ctx, n, rng) for _ in range(3))
                  for _ in range(3))
    shapes = (ident, permutation, *units, dense)
    return [(a, b) for a in shapes for b in shapes]


class TestProductsByOneShareThePartner:
    """A product by 1 with nothing else to add returns the partner's class
    as it is: 1*g always, f*1 only where x*1 = 1*x.  The outputs must still
    be the fold of + and * (with the product taken by the oracle), no
    operand may be written, and an output that is such a product must be
    the partner itself."""

    @pytest.mark.parametrize("preset", PRESET_MATRIX + (BROKEN_PRESET,))
    def test_matrix_product(self, preset):
        ctx = parse_ring_preset(preset)
        right_unit = ctx.one_commutes_with_x()
        rng = random.Random(f"{preset}/share")
        shared = {"left": 0, "right": 0}
        for n in (1, 2, 4):
            zero, one = TruncatedSeries.zero(ctx, n), TruncatedSeries.one(ctx, n)
            for a, b in _unit_heavy_factors(ctx, n, rng):
                before = [[x.coeffs for x in row] for row in a + b]
                out = matrix_product(ctx, n, a, b)
                assert [[x.coeffs for x in row] for row in a + b] == before
                for r, row in enumerate(a):
                    for c, col in enumerate(zip(*b)):
                        fold = zero
                        for x, y in zip(row, col):
                            fold = fold + _oracle_product(x, y)
                        assert out[r][c] == fold
                        pairs = [(x, y) for x, y in zip(row, col)
                                 if x != zero and y != zero]
                        if len(pairs) != 1:
                            continue
                        x, y = pairs[0]
                        if x == one:
                            assert out[r][c] is y
                            shared["left"] += 1
                        elif y == one and right_unit:
                            assert out[r][c] is x
                            shared["right"] += 1
        assert shared["left"] > 0 and (shared["right"] > 0) == right_unit

    @pytest.mark.parametrize("preset", PRESET_MATRIX + (BROKEN_PRESET,))
    def test_mul_add(self, preset):
        ctx = parse_ring_preset(preset)
        right_unit = ctx.one_commutes_with_x()
        rng = random.Random(f"{preset}/share-steps")
        shared = {"left": 0, "right": 0}
        for n in (1, 2, 4):
            zero, one = TruncatedSeries.zero(ctx, n), TruncatedSeries.one(ctx, n)
            pool = [zero, one, one, random_series(ctx, n, rng),
                    TruncatedSeries.var(ctx, n)]
            for _ in range(40):
                v = rng.choice(pool)
                ys = [rng.choice(pool) for _ in range(4)]
                xs = [rng.choice(pool) for _ in range(4)]
                for v_right in (False, True):
                    for addends in (None, xs):
                        before = [z.coeffs for z in (v, *ys, *xs)]
                        out = mul_add(ctx, n, v, ys, addends, v_right)
                        assert [z.coeffs for z in (v, *ys, *xs)] == before
                        for idx, y in enumerate(ys):
                            prod = (_oracle_product(y, v) if v_right
                                    else _oracle_product(v, y))
                            x = zero if addends is None else xs[idx]
                            assert out[idx] == x + prod
                            if x != zero or v == zero or y == zero:
                                continue
                            left, right = (y, v) if v_right else (v, y)
                            if left == one:
                                assert out[idx] is right
                                shared["left"] += 1
                            elif right == one and right_unit:
                                assert out[idx] is left
                                shared["right"] += 1
        assert shared["left"] > 0 and (shared["right"] > 0) == right_unit

    def test_single_products(self, f27):
        rng = random.Random(101)
        one = TruncatedSeries.one(f27, 4)
        f = random_series(f27, 4, rng)
        assert one * f is f and f * one is f
        p, q = SkewPoly.one(f27), random_poly(f27, 3, rng)
        assert p * q is q and q * p is q

    def test_right_one_takes_the_full_formula_on_delta_broken(self):
        # x*1 = x + t there, so neither product shares x: the right factor
        # 1 goes through the closed formula, which the oracle agrees with
        ctx = parse_ring_preset(BROKEN_PRESET)
        x, one = TruncatedSeries.var(ctx, 3), TruncatedSeries.one(ctx, 3)
        x_one = _oracle_product(x, one)
        assert x_one != x
        for prod in (x * one, matrix_product(ctx, 3, ((x,),), ((one,),))[0][0],
                     mul_add(ctx, 3, one, [x], v_right=True)[0],
                     mul_add(ctx, 3, x, [one])[0]):
            assert prod == x_one and prod is not x
        assert one * x is x
