import copy
import math
import random

import pytest

from conftest import BROKEN_PRESET
from skewseries import (NEG_INF, SkewPoly, monomial_operator_apply,
                        monomial_operator_words, parse_ring_preset,
                        poly_mul_commutation, run_property_suite)
from skewseries.suites import random_poly


class TestMonomialOperator:
    def test_identity_and_pure_powers(self, f27):
        t = f27.named_literals()["t"]
        a = f27.add(f27.one(), t)
        assert monomial_operator_apply(f27, 0, 0, a) == a
        assert monomial_operator_apply(f27, 0, 2, a) == f27.sigma(f27.sigma(a))
        assert monomial_operator_apply(f27, 2, 0, a) == f27.delta(f27.delta(a))

    def test_mixed_word(self, f27):
        for a in f27.elements():
            expected = f27.add(f27.delta(f27.sigma(a)), f27.sigma(f27.delta(a)))
            assert monomial_operator_apply(f27, 1, 1, a) == expected

    def test_word_counts(self, f27):
        a = f27.one()
        for total in range(9):
            for k in range(total + 1):
                _, count = monomial_operator_words(f27, k, total - k, a)
                assert count == math.comb(total, k)

    def test_recursion_matches_words(self, z8, f27):
        for ctx in (z8, f27):
            report = run_property_suite("mkl-oracle", ctx, None, 1, 0)
            assert report.passed, report.counterexample


class TestNormalization:
    def test_single_step_rule(self, f27):
        # x*r = sigma(r)*x + delta(r)
        x = SkewPoly.var(f27)
        for r in f27.elements():
            expected = SkewPoly(f27, (f27.delta(r), f27.sigma(r)))
            assert x * SkewPoly.from_scalar(f27, r) == expected

    def test_degree_zero_unchanged(self, f27):
        # x^0 * t commutes nothing past t
        t = SkewPoly.from_scalar(f27, f27.named_literals()["t"])
        assert SkewPoly.one(f27) * t == t

    def test_left_form_is_its_monomial_sum(self, z8, f27):
        # a scalar left of x^i needs no commutation: sum a_i * x^i is f
        rng = random.Random(6)
        for ctx in (z8, f27):
            x = SkewPoly.var(ctx)
            for _ in range(100):
                f = random_poly(ctx, 4, rng)
                total = SkewPoly.zero(ctx)
                for i, a in enumerate(f.coeffs):
                    total = total + SkewPoly.from_scalar(ctx, a) * x ** i
                assert total == f

    def test_two_steps_match_iterated_commutation(self, f27):
        t = SkewPoly.from_scalar(f27, f27.named_literals()["t"])
        x_sq = SkewPoly(f27, (f27.zero(), f27.zero(), f27.one()))
        assert x_sq * t == poly_mul_commutation(x_sq, t)


class TestProducts:
    def test_units(self, f27):
        rng = random.Random(1)
        one = SkewPoly.one(f27)
        for _ in range(20):
            g = random_poly(f27, 3, rng)
            assert one * g == g
            assert g * one == g

    def test_commutation_example(self, f27):
        t = f27.named_literals()["t"]
        x = SkewPoly.var(f27)
        product = x * SkewPoly.from_scalar(f27, t)
        two_t = f27.mul(f27.from_int(2), t)
        t_sq = f27.mul(t, t)
        assert product == SkewPoly(f27, (t_sq, two_t))
        assert product.render() == "t^2 + 2*t*x"

    def test_closed_formula_matches_commutation(self, z8, f27):
        rng = random.Random(11)
        for ctx in (z8, f27):
            for _ in range(50):
                f = random_poly(ctx, 4, rng)
                g = random_poly(ctx, 4, rng)
                assert f * g == poly_mul_commutation(f, g)

    def test_law_suite(self, z8, f27):
        for ctx in (z8, f27):
            report = run_property_suite("poly-assoc", ctx, None, 200, 9)
            assert report.passed, report.counterexample

    def test_degree_of_zero(self, z8):
        assert SkewPoly.zero(z8).degree == NEG_INF
        assert SkewPoly.zero(z8).render() == "0"

    def test_degree_bound_and_leading_term(self, z8, f27):
        rng = random.Random(3)
        for ctx in (z8, f27):
            for _ in range(100):
                f = random_poly(ctx, 3, rng)
                g = random_poly(ctx, 3, rng)
                if f.is_zero() or g.is_zero():
                    assert (f * g).is_zero()
                    continue
                fg = f * g
                assert fg.degree <= f.degree + g.degree
                lead = ctx.mul(f.coeffs[-1],
                               monomial_operator_apply(ctx, 0, f.degree, g.coeffs[-1]))
                if lead != ctx.zero():
                    assert fg.degree == f.degree + g.degree

    def test_additive_laws(self, f27):
        rng = random.Random(5)
        zero = SkewPoly.zero(f27)
        for _ in range(50):
            f = random_poly(f27, 3, rng)
            g = random_poly(f27, 3, rng)
            h = random_poly(f27, 3, rng)
            assert f + zero == f
            assert f + (-f) == zero
            assert (f + g) * h == f * h + g * h

    def test_ctx_mismatch(self, z8, f27):
        with pytest.raises(ValueError, match="ring context mismatch"):
            SkewPoly.one(z8) * SkewPoly.one(f27)
        with pytest.raises(ValueError, match="ring context mismatch"):
            SkewPoly.one(z8) + SkewPoly.one(f27)


class TestNilpotenceCut:
    """The product kernel sums only the terms with fewer delta factors than
    the radical nilpotency; it is compared here with the iterated
    commutation, which never cuts."""

    def test_kernel_matches_commutation_above_nilpotency(self, matrix_ctx):
        _check_products_against_commutation(matrix_ctx, random.Random(21))

    def test_cut_is_tight_on_the_broken_control(self):
        # On the Leibniz presets delta kills constants, so even
        # M_{nil-1,l} vanishes and a cut one term early would go unseen.
        # delta(f) = t*f gives M_{nil-1,0}(1) = t^(nil-1) != 0; single
        # products still match the commutation (only powers need
        # associativity).
        ctx = parse_ring_preset(BROKEN_PRESET)
        nil = ctx.radical_nilpotency
        assert monomial_operator_apply(ctx, nil - 1, 0, ctx.one()) != ctx.zero()
        rng = random.Random(26)
        _check_products_against_commutation(ctx, rng)
        _check_right_form_normalization(ctx, rng)

    def test_square_and_multiply_matches_left_fold(self, matrix_ctx):
        ctx = matrix_ctx
        rng = random.Random(22)
        f = random_poly(ctx, 2, rng)
        acc = SkewPoly.one(ctx)
        for e in range(21):
            assert f ** e == acc
            acc = acc * f

    def test_linear_power_matches_commutation_fold(self, matrix_ctx):
        ctx = matrix_ctx
        rng = random.Random(23)
        lin = SkewPoly(ctx, (ctx.radical_gens[0], ctx.one()))
        g = random_poly(ctx, 3, rng)
        expected = SkewPoly.one(ctx)
        for _ in range(257):
            expected = poly_mul_commutation(lin, expected)
        assert lin ** 257 * g == poly_mul_commutation(expected, g)

    def test_right_form_normalization_matches_commutation(self, matrix_ctx):
        _check_right_form_normalization(matrix_ctx, random.Random(24))

    def test_memo_has_at_most_nilpotency_plus_one_rows(self):
        # a degree-100 left factor asks no operator value past the
        # nilpotency: neither the closed form's rows nor, on the control
        # preset, the recursion's memo
        for preset in ("zmod:2^3", "truncpoly:3:3:c=2", BROKEN_PRESET):
            ctx = parse_ring_preset(preset)
            nil = ctx.radical_nilpotency
            lin = SkewPoly(ctx, (ctx.radical_gens[0], ctx.one()))
            product = lin ** 100 * random_poly(ctx, 3, random.Random(25))
            assert product.degree == 103
            assert all(k < nil for rows in ctx._mkl_rows.values()
                       for row in rows for k, _ in row)
            assert all(k <= nil for k, _, _ in ctx._mkl_cache)

    def test_vanishing_check_fires(self, delta_ctx):
        # A context claiming I^1 = 0 makes x^2 * t skip M_{1,0}(t) =
        # delta(t) = t^2 != 0 and M_{1,1}(t), which is 0 in characteristic
        # 3: the check has to cover every l' <= l, not only l.
        shrunk = copy.copy(delta_ctx)
        shrunk.radical_nilpotency = 1
        t = shrunk.radical_gens[0]
        x_sq = SkewPoly(shrunk, (shrunk.zero(), shrunk.zero(), shrunk.one()))
        with pytest.raises(AssertionError, match="nilpotence bound violated"):
            x_sq * SkewPoly.from_scalar(shrunk, t)
        # the real context multiplies the same factors
        x_sq = SkewPoly(delta_ctx, x_sq.coeffs)
        t_poly = SkewPoly.from_scalar(delta_ctx, t)
        assert x_sq * t_poly == poly_mul_commutation(x_sq, t_poly)


def _check_products_against_commutation(ctx, rng):
    degree = ctx.radical_nilpotency + 3
    for _ in range(6):
        f = random_poly(ctx, degree, rng)
        g = random_poly(ctx, degree, rng)
        assert f * g == poly_mul_commutation(f, g)


def _check_right_form_normalization(ctx, rng):
    """The product x^i * a in left form, against i single commutation steps
    x * (...)."""
    x = SkewPoly.var(ctx)
    for i in range(ctx.radical_nilpotency + 4):
        a = SkewPoly.from_scalar(ctx, ctx.sample(rng))
        expected = a
        for _ in range(i):
            expected = poly_mul_commutation(x, expected)
        x_pow = SkewPoly(ctx, (ctx.zero(),) * i + (ctx.one(),))
        assert x_pow * a == expected
