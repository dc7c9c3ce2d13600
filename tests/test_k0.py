import itertools
import pickle
import random
import sys
import threading

import pytest

from conftest import (BROKEN_PRESET, PRESET_MATRIX,
                      assert_rows_are_the_operator_values)
from skewseries import cli, k0, series, skewpoly
from skewseries import (BaseScalars, IdempotentMatrix, SeriesScalars, SkewPoly,
                        TruncatedSeries, idempotent_rank, parse_ring_preset,
                        random_idempotent, random_invertible,
                        run_property_suite, stable_iso_witness,
                        stably_free_witness, unimodular_complete)
from skewseries.k0 import (NotIdempotent, NotUnimodular, RankWitness, mat_diag,
                           mat_direct_sum, mat_identity, mat_mul)
from skewseries.rings import RingContext, TruncPolyRing
from skewseries.suites import random_series_in_filtration


def schoolbook_mat_mul(scalars, a, b):
    """Oracle for mat_mul: each entry is the fold acc = acc + x*y of the
    scalar add and mul, building and reducing every partial sum."""
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        out_row = []
        for j in range(cols):
            acc = scalars.zero()
            for k, x in enumerate(row):
                acc = scalars.add(acc, scalars.mul(x, b[k][j]))
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def all_2x2_idempotents(scalars):
    elems = sorted(scalars.ctx.elements())
    found = []
    for a, b, c, d in itertools.product(elems, repeat=4):
        m = ((a, b), (c, d))
        if mat_mul(scalars, m, m) == m:
            found.append(m)
    return found


def all_2x2_invertibles(scalars):
    elems = sorted(scalars.ctx.elements())
    mats = [((a, b), (c, d))
            for a, b, c, d in itertools.product(elems, repeat=4)]
    ident = mat_identity(scalars, 2)
    table = {}
    for m in mats:
        for w in mats:
            if mat_mul(scalars, m, w) == ident and mat_mul(scalars, w, m) == ident:
                table[m] = w
                break
    return table


def test_constant_matrices(z8):
    """mat_diag, mat_identity, mat_direct_sum and the zero padding of
    RankWitness.padded, entry by entry, over R and over S/G_N."""
    for scalars in (BaseScalars(z8), SeriesScalars(z8, 3)):
        one, zero = scalars.one(), scalars.zero()
        assert mat_diag(scalars, [1, 0, 1]) == \
            ((one, zero, zero), (zero, zero, zero), (zero, zero, one))
        assert mat_identity(scalars, 2) == ((one, zero), (zero, one))
        assert mat_identity(scalars, 0) == ()
        block = ((one, zero), (zero, zero))
        expected = ((one, zero, zero), (zero, zero, zero), (zero, zero, zero))
        assert mat_direct_sum(scalars, block, ((zero,),)) == expected
        padded = idempotent_rank(IdempotentMatrix(scalars, block)).padded(3)
        assert padded.matrix == expected
        assert padded.conjugator == padded.conjugator_inv == \
            mat_identity(scalars, 3)
        assert padded.rank == 1 and padded.scalars is scalars


class TestRank:
    def test_identity_and_zero(self, z8):
        scalars = BaseScalars(z8)
        for n in (1, 2, 3):
            w = idempotent_rank(IdempotentMatrix(scalars, mat_identity(scalars, n)))
            assert w.rank == n and w.verify()
            assert w.conjugator == mat_identity(scalars, n)
            w0 = idempotent_rank(IdempotentMatrix(
                scalars, mat_diag(scalars, [0] * n)))
            assert w0.rank == 0 and w0.verify()

    @pytest.mark.parametrize("preset", PRESET_MATRIX + (BROKEN_PRESET,))
    def test_unit_pivots_are_not_inverted(self, preset, monkeypatch):
        # both pivots of diag(1, 1, 0) are 1: where 1 is a two-sided
        # identity (always over R) neither is inverted or scaled by; on
        # delta=broken, over S/G_N, both are
        ctx = parse_ring_preset(preset)
        steps = []
        for cls, name in ((k0._ElementaryOps, "scale"), (BaseScalars, "inv"),
                          (SeriesScalars, "inv")):
            def counted(*args, _plain=getattr(cls, name), _name=name):
                steps.append(_name)
                return _plain(*args)
            monkeypatch.setattr(cls, name, counted)
        for scalars in (BaseScalars(ctx), SeriesScalars(ctx, 3)):
            del steps[:]
            w = idempotent_rank(IdempotentMatrix(scalars, mat_diag(scalars, [1, 1, 0])))
            assert w.rank == 2 and w.verify()
            full = isinstance(scalars, SeriesScalars) and preset == BROKEN_PRESET
            assert steps == (["inv", "scale"] * 2 if full else [])

    def test_handworked_rank_one(self, z8):
        scalars = BaseScalars(z8)
        e = IdempotentMatrix(scalars, ((1, 2), (0, 0)))
        w = idempotent_rank(e)
        assert w.rank == 1
        assert w.verify()

    def test_not_idempotent_rejected(self, z8):
        # a ValueError with the old text, so callers that catch either work
        assert issubclass(NotIdempotent, ValueError)
        with pytest.raises(NotIdempotent, match="^not idempotent$"):
            IdempotentMatrix(BaseScalars(z8), ((1, 1), (1, 1)))

    def test_non_local_base_rejected(self, z8):
        class NonLocal(BaseScalars):
            def is_local(self):
                return False

        scalars = NonLocal(z8)
        e = IdempotentMatrix(scalars, mat_identity(scalars, 2))
        with pytest.raises(ValueError, match="unsupported base"):
            idempotent_rank(e)

    def test_radical_diagonal_idempotent(self, z8):
        # genuine idempotent over Z/8 whose whole diagonal lies in J = (2):
        # the unit pivot must be dragged in from off the diagonal
        scalars = BaseScalars(z8)
        entries = ((6, 5, 5), (5, 6, 5), (5, 5, 6))
        e = IdempotentMatrix(scalars, entries)
        assert all(entries[i][i] % 2 == 0 for i in range(3))
        w = idempotent_rank(e)
        assert w.rank == 2 and w.verify()

    def test_conjugation_invariance(self, z8, f27):
        rng = random.Random(51)
        for ctx in (z8, f27):
            scalars = BaseScalars(ctx)
            for _ in range(20):
                e, ones = random_idempotent(scalars, 3, rng)
                v, vinv = random_invertible(scalars, 3, rng)
                conj = IdempotentMatrix(
                    scalars, mat_mul(scalars, mat_mul(scalars, v, e.entries), vinv))
                assert idempotent_rank(conj).rank == ones

    def test_rank_additive(self, z8):
        rng = random.Random(53)
        scalars = BaseScalars(z8)
        for _ in range(20):
            e1, r1 = random_idempotent(scalars, 2, rng)
            e2, r2 = random_idempotent(scalars, 3, rng)
            direct = IdempotentMatrix(
                scalars, mat_direct_sum(scalars, e1.entries, e2.entries))
            assert idempotent_rank(direct).rank == r1 + r2

    def test_suite(self, z8, f27):
        for ctx in (z8, f27):
            report = run_property_suite("k0-rank", ctx, None, 25, 55)
            assert report.passed, report.counterexample


class TestExhaustiveZ4:
    def test_classification(self, z4):
        scalars = BaseScalars(z4)
        idempotents = all_2x2_idempotents(scalars)
        assert ((0, 0), (0, 0)) in idempotents
        assert ((1, 0), (0, 1)) in idempotents
        ranks = {}
        for e in idempotents:
            w = idempotent_rank(IdempotentMatrix(scalars, e))
            assert w.verify()
            ranks[e] = w.rank
        assert set(ranks.values()) == {0, 1, 2}
        # rank 0 and rank 2 are the trivial classes
        assert [e for e, r in ranks.items() if r == 0] == [((0, 0), (0, 0))]
        assert [e for e, r in ranks.items() if r == 2] == [((1, 0), (0, 1))]
        # conjugacy orbits computed by brute force match the rank classes
        invertibles = all_2x2_invertibles(scalars)
        for e in idempotents:
            orbit = set()
            for v, vinv in invertibles.items():
                orbit.add(mat_mul(scalars, mat_mul(scalars, v, e), vinv))
            assert orbit == {f for f in idempotents if ranks[f] == ranks[e]}


def _conjugated_diag(scalars, n, rank, rng):
    """A random conjugate of diag(1^rank, 0^(n - rank))."""
    v, vinv = random_invertible(scalars, n, rng)
    d = mat_diag(scalars, [1] * rank + [0] * (n - rank))
    return IdempotentMatrix(scalars, mat_mul(scalars, mat_mul(scalars, v, d), vinv))


class TestStableIso:
    def test_equal_matrices(self, z8):
        scalars = BaseScalars(z8)
        e = IdempotentMatrix(scalars, ((1, 2), (0, 0)))
        w = stable_iso_witness(e, e)
        assert w is not None and w.t == 0 and w.verify()

    def test_equal_rank_different_shape(self, z8):
        scalars = BaseScalars(z8)
        e1 = IdempotentMatrix(scalars, ((1, 2), (0, 0)))
        e2 = IdempotentMatrix(scalars, ((1, 0), (0, 0)))
        w = stable_iso_witness(e1, e2)
        assert w is not None and w.t == 0 and w.verify()

    def test_rank_gap_has_no_witness(self, z8):
        scalars = BaseScalars(z8)
        one = IdempotentMatrix(scalars, ((1,),))
        zero = IdempotentMatrix(scalars, ((0,),))
        assert stable_iso_witness(one, zero) is None

    def test_size_padding(self, z8):
        scalars = BaseScalars(z8)
        e1 = IdempotentMatrix(scalars, ((1,),))
        e2 = IdempotentMatrix(scalars, ((1, 0, 0), (0, 0, 0), (0, 0, 0)))
        w = stable_iso_witness(e1, e2)
        assert w is not None and w.verify()

    @pytest.mark.parametrize("sizes,products", [((3, 3), 12), ((2, 3), 12)])
    def test_matrix_products(self, f27, monkeypatch, sizes, products):
        # 3 per rank certificate, 2 for W and W^-1 and 4 to verify them.  A
        # rank certificate checks U*U^-1, U^-1*U and U*e = D*U, where D*U is
        # U's rows selected, so (U*e)*U^-1 = D is no longer taken: 14 -> 12.
        # The 2x2 input's certificate is padded by blocks, not built again
        # for a padded matrix with its e*e = e check: 13 -> 12
        scalars = SeriesScalars(f27, 3)
        rng = random.Random(89)
        e1, e2 = (_conjugated_diag(scalars, n, 1, rng) for n in sizes)
        calls = [0]
        plain = mat_mul

        def counted(*args):
            calls[0] += 1
            return plain(*args)

        monkeypatch.setattr(k0, "mat_mul", counted)
        witness = stable_iso_witness(e1, e2)
        assert calls[0] == products
        assert witness is not None and witness.verify()

    @pytest.mark.parametrize("sizes,products", [((3, 3), 6), ((2, 3), 6)])
    def test_matrix_products_after_the_ranks(self, f27, monkeypatch, sizes,
                                             products):
        # the same inputs with their ranks asked for first: each input
        # reuses its kept rank certificate, the 2x2 one padded, so only W,
        # W^-1 and their 4 checks remain, 12 -> 6
        scalars = SeriesScalars(f27, 3)
        rng = random.Random(89)
        e1, e2 = (_conjugated_diag(scalars, n, 1, rng) for n in sizes)
        idempotent_rank(e1), idempotent_rank(e2)
        calls = [0]
        plain = mat_mul

        def counted(*args):
            calls[0] += 1
            return plain(*args)

        monkeypatch.setattr(k0, "mat_mul", counted)
        witness = stable_iso_witness(e1, e2)
        assert calls[0] == products
        assert witness is not None and witness.verify()
        assert witness == stable_iso_witness(*map(_fresh, (e1, e2)))

    def test_base_mismatch(self, z8, f27):
        e1 = IdempotentMatrix(BaseScalars(z8), ((1,),))
        e2 = IdempotentMatrix(BaseScalars(f27), ((f27.one(),),))
        with pytest.raises(ValueError, match="base mismatch"):
            stable_iso_witness(e1, e2)


class TestStablyFree:
    def test_zero_module_with_padding(self, z8):
        scalars = BaseScalars(z8)
        e = IdempotentMatrix(scalars, ((0,),))
        w = stably_free_witness(e, 1)
        assert (w.rank, w.s) == (0, 1)
        assert w.verify()

    def test_identity_no_padding(self, z8):
        scalars = BaseScalars(z8)
        e = IdempotentMatrix(scalars, mat_identity(scalars, 2))
        w = stably_free_witness(e, 0)
        assert w.rank == 2 and w.verify()

    def test_rank_one_with_padding(self, z8):
        scalars = BaseScalars(z8)
        e = IdempotentMatrix(scalars, ((1, 2), (0, 0)))
        w = stably_free_witness(e, 1)
        assert w.rank == 1 and w.verify()
        # shapes: forward (n+s) x (r+s), backward (r+s) x (n+s)
        assert len(w.forward) == 3 and len(w.forward[0]) == 2
        assert len(w.backward) == 2 and len(w.backward[0]) == 3


class TestUnimodular:
    def test_standard_basis_row(self, z8):
        scalars = BaseScalars(z8)
        c = unimodular_complete(scalars, (1, 0, 0))
        assert c.matrix == mat_identity(scalars, 3)
        assert c.verify()

    def test_handworked_completion(self, z8):
        c = unimodular_complete(BaseScalars(z8), (3, 2))
        assert c.matrix == ((3, 2), (0, 1))
        assert c.inverse == ((3, 2), (0, 1))
        assert c.verify()

    def test_unit_in_second_position(self, z8):
        c = unimodular_complete(BaseScalars(z8), (2, 3, 4))
        assert c.matrix[0] == (2, 3, 4)
        assert c.verify()

    def test_radical_row_rejected(self, z8):
        assert issubclass(NotUnimodular, ValueError)
        with pytest.raises(NotUnimodular, match="^not unimodular$"):
            unimodular_complete(BaseScalars(z8), (2, 4))

    def test_series_row(self, z8):
        scalars = SeriesScalars(z8, 3)
        row = (TruncatedSeries.from_poly(SkewPoly(z8, (1, 2)), 3),
               TruncatedSeries.from_poly(SkewPoly(z8, (2,)), 3))
        c = unimodular_complete(scalars, row)
        assert c.verify()


class TestSeriesScalars:
    def test_unit_test_and_inverse(self, z8, f27):
        rng = random.Random(61)
        for ctx in (z8, f27):
            scalars = SeriesScalars(ctx, 4)
            for _ in range(20):
                a = scalars.sample(rng)
                if scalars.is_unit(a):
                    inv = scalars.inv(a)
                    assert a * inv == scalars.one()
                    assert inv * a == scalars.one()
                else:
                    with pytest.raises(ValueError, match="not a unit"):
                        scalars.inv(a)

    def test_nilpotent_part_is_not_unit(self, z8):
        scalars = SeriesScalars(z8, 3)
        x = TruncatedSeries.var(z8, 3)
        assert not scalars.is_unit(x)

    def test_zero_class_is_not_a_unit(self, z8, f27):
        # the zero class stores no slot, not even the x^0 one
        for ctx in (z8, f27):
            for n in (1, 4):
                scalars = SeriesScalars(ctx, n)
                zero = scalars.zero()
                assert zero.coeffs == ()
                assert not scalars.is_unit(zero)
                with pytest.raises(ValueError, match="not a unit"):
                    scalars.inv(zero)


def geometric_inverse(scalars, a):
    """Oracle for SeriesScalars.inv: with u the x^0 slot of a and
    w = u^-1 (a - u) in G_1, a^-1 = (1 - w + w^2 - ... +- w^(N-1)) u^-1."""
    ctx, n = scalars.ctx, scalars.precision
    c0 = a.coeffs[0]
    uinv = TruncatedSeries.constant(ctx, n, ctx.inv(c0))
    w = uinv * (a - TruncatedSeries.constant(ctx, n, c0))
    acc = term = scalars.one()
    for _ in range(1, n):
        term = term * (-w)
        acc = acc + term
    return acc * uinv


def full_precision_newton(scalars, a):
    """Oracle for the precision doubling of SeriesScalars.inv: every Newton
    round b <- b + b(1 - ab) at N, from b = c0^-1, stopping at a zero
    residual, then the same two-sided check."""
    ctx, n, one = scalars.ctx, scalars.precision, scalars.one()
    b = TruncatedSeries.constant(ctx, n, ctx.inv(a.coeffs[0]))
    for _ in range((n - 1).bit_length()):
        residual = one - a * b
        if residual.is_zero():
            break
        b = b + b * residual
    if b * a != one or a * b != one:
        raise AssertionError("geometric inverse failed to verify")
    return b


def doubling_precisions(n):
    """The precisions of the series products of SeriesScalars.inv: two in
    each round, at 2, 4, ..., up to N, then the check's two at N."""
    out, p = [], 1
    while p < n:
        p = min(2 * p, n)
        out += [p, p]
    return out + [n, n]


INV_PRECISIONS = tuple(range(1, 10)) + (32,)


class TestNewtonInverse:
    @pytest.mark.parametrize("preset", PRESET_MATRIX)
    def test_matches_geometric_series(self, preset):
        ctx = parse_ring_preset(preset)
        rng = random.Random(83)
        for precision in INV_PRECISIONS:
            scalars = SeriesScalars(ctx, precision)
            for _ in range(3):
                a = k0._sample_unit(scalars, rng)
                assert scalars.inv(a) == geometric_inverse(scalars, a)

    @pytest.mark.parametrize("preset", PRESET_MATRIX)
    def test_matches_the_full_precision_iteration(self, preset):
        # precision doubling against every round at N, for N = 1..40, on
        # units with x-terms and on a constant unit
        ctx = parse_ring_preset(preset)
        rng = random.Random(f"{preset}/newton")
        for precision in range(1, 41):
            scalars = SeriesScalars(ctx, precision)
            units = [k0._sample_unit(scalars, rng) for _ in range(2)]
            units.append(TruncatedSeries.constant(ctx, precision,
                                                  units[0].coeffs[0]))
            for a in units:
                assert scalars.inv(a) == full_precision_newton(scalars, a)

    @pytest.mark.parametrize("precision", INV_PRECISIONS)
    def test_series_products(self, monkeypatch, precision):
        # ceil(log2 N) rounds of two products and the two-sided check, as
        # with every round at N (the geometric series made N + 3), but
        # round j runs at min(2^j, N): at N = 32 the products of rounds 1
        # to 4 run at 2, 4, 8 and 16, and round 5 and the check at 32
        scalars = SeriesScalars(parse_ring_preset("truncpoly:3:3:c=2"), precision)
        a = k0._sample_unit(scalars, random.Random(precision))
        calls = []
        plain_mul = TruncatedSeries.__mul__

        def counted_mul(x, y):
            calls.append((x.precision, y.precision))
            return plain_mul(x, y)

        monkeypatch.setattr(TruncatedSeries, "__mul__", counted_mul)
        scalars.inv(a)
        rounds = (precision - 1).bit_length()
        assert 2 ** rounds >= precision
        assert calls == [(p, p) for p in doubling_precisions(precision)]
        assert len(calls) == 2 * rounds + 2

    def test_broken_serre_transfer_crash_is_pinned(self):
        # the cli-cold benchmark expects exactly this crash of the suite's
        # default run on the delta=broken control
        with pytest.raises(AssertionError,
                           match="^geometric inverse failed to verify$"):
            cli.main(["check", "serre-transfer", "--ring", BROKEN_PRESET])

    @pytest.mark.parametrize("precision", (2, 3, 4, 8))
    def test_broken_preset_fails_to_verify(self, precision):
        # delta=broken is not a derivation, so S/G_N is not associative and
        # most units have no two-sided inverse; inv raises exactly when the
        # geometric series fails to verify too
        scalars = SeriesScalars(
            parse_ring_preset(BROKEN_PRESET), precision)
        one, raised, rng = scalars.one(), 0, random.Random(89)
        for _ in range(10):
            a = k0._sample_unit(scalars, rng)
            g = geometric_inverse(scalars, a)
            if g * a == one and a * g == one:
                assert scalars.inv(a) == g
                continue
            with pytest.raises(AssertionError,
                               match="^geometric inverse failed to verify$"):
                scalars.inv(a)
            raised += 1
        assert raised > 0


DOT_PRESETS = PRESET_MATRIX + (BROKEN_PRESET,)
# (rows of a, inner size, columns of b): square, row times column, column
# times row, rectangular
DOT_SHAPES = ((3, 3, 3), (1, 5, 1), (5, 1, 5), (2, 3, 4))


def _random_matrix(scalars, rows, cols, rng):
    """Entries are zero a third of the time, so zero products and trimmed
    factors occur too."""
    zero = scalars.zero()
    return tuple(tuple(zero if rng.random() < 1 / 3 else scalars.sample(rng)
                       for _ in range(cols)) for _ in range(rows))


def _pairwise_products(scalars, a, b, skip_units=False):
    """One series product per pair of entries of a * b over S/G_N, on the
    context of ``scalars``: the operator rows and memo the block kernel must
    leave behind as well.  With skip_units, not the pairs the block kernel
    adds without a product: a left factor 1, and a right factor 1 where
    x*1 = 1*x."""
    ctx, precision = scalars.ctx, scalars.precision
    unit = (ctx.one(),)
    right_unit = ctx.one_commutes_with_x()
    for row in a:
        for col in zip(*b):
            for x, y in zip(row, col):
                if skip_units and (x.coeffs == unit
                                   or (right_unit and y.coeffs == unit)):
                    continue
                TruncatedSeries(ctx, precision, x.coeffs) * \
                    TruncatedSeries(ctx, precision, y.coeffs)


def _count_constructions(monkeypatch, counts):
    """Count in counts["series"] every TruncatedSeries built, by the public
    constructor or by the kernels' reduce-only one (_from_slots)."""
    plain_init, plain_from_slots = TruncatedSeries.__init__, TruncatedSeries._from_slots

    def counted_init(self, *args):
        counts["series"] += 1
        plain_init(self, *args)

    def counted_from_slots(cls, *args):
        counts["series"] += 1
        return plain_from_slots(*args)

    monkeypatch.setattr(TruncatedSeries, "__init__", counted_init)
    monkeypatch.setattr(TruncatedSeries, "_from_slots", classmethod(counted_from_slots))


class TestFusedMatMul:
    @pytest.mark.parametrize("precision", (None,) + tuple(range(1, 9)))
    @pytest.mark.parametrize("preset", DOT_PRESETS)
    def test_matches_schoolbook(self, preset, precision):
        ctx, ref = parse_ring_preset(preset), parse_ring_preset(preset)
        scalars = (BaseScalars(ctx) if precision is None
                   else SeriesScalars(ctx, precision))
        rng = random.Random(f"{preset}/{precision}")
        for rows, inner, cols in DOT_SHAPES:
            for _ in range(3):
                a = _random_matrix(scalars, rows, inner, rng)
                b = _random_matrix(scalars, inner, cols, rng)
                assert mat_mul(scalars, a, b) == schoolbook_mat_mul(scalars, a, b)
                if precision is not None:
                    _pairwise_products(SeriesScalars(ref, precision), a, b)
        # the block kernel extends each coefficient's operator row as far as
        # its widest partner needs, which is as far as one closed product
        # per pair of entries extends it
        assert ctx._mkl_rows == ref._mkl_rows
        assert_rows_are_the_operator_values(ctx)

    def test_dimension_mismatch(self, z8):
        scalars = BaseScalars(z8)
        with pytest.raises(ValueError, match="matrix dimension mismatch"):
            mat_mul(scalars, ((1, 2),), ((1, 2),))

    @pytest.mark.parametrize("where", [(0, 0, 0), (0, 1, 1), (1, 1, 0), (1, 0, 1)])
    @pytest.mark.parametrize("wrong,message", [
        ("precision", "precision mismatch"),
        ("context", "ring context mismatch")])
    def test_series_entries_must_share_the_base(self, z8, f27, where, wrong,
                                                 message):
        # where = (in b?, row, column) of the one foreign entry.  With every
        # entry zero, the foreign one too, the kernel skips them all and
        # only the check sees them
        scalars = SeriesScalars(f27, 3)
        for fill in ("one", "zero"):
            make = getattr(TruncatedSeries, fill)
            foreign = make(f27, 4) if wrong == "precision" else make(z8, 3)
            entry = getattr(scalars, fill)()
            matrices = [[[entry] * 2 for _ in range(2)] for _ in range(2)]
            side, i, j = where
            matrices[side][i][j] = foreign
            a, b = (tuple(map(tuple, m)) for m in matrices)
            with pytest.raises(ValueError, match=message):
                mat_mul(scalars, a, b)
            with pytest.raises(ValueError, match=message):
                IdempotentMatrix(scalars, matrices[side])

    @pytest.mark.parametrize("wrong,message", [
        ("precision", "^precision mismatch$"),
        ("context", "^ring context mismatch$"),
        ("element", "^ring context mismatch$")])
    def test_series_steps_check_every_entry(self, z8, f27, wrong, message):
        # a foreign entry in the row added (row step), in the column added
        # to (column step), as the factor v, or in a matrix product
        scalars = SeriesScalars(f27, 3)
        one = scalars.one()
        foreign = {"precision": TruncatedSeries.one(f27, 4),
                   "context": TruncatedSeries.one(z8, 3),
                   "element": f27.one()}[wrong]
        for where in ("row", "column", "v", "product"):
            m = [[one, one], [one, one]]
            w = [[one, one], [one, one]]
            v = one
            if where == "row":
                m[1][0] = foreign
            elif where == "column":
                w[1][0] = foreign
            elif where == "v":
                v = foreign
            with pytest.raises(ValueError, match=message):
                if where == "product":
                    mat_mul(scalars, ((one, one),), ((one,), (foreign,)))
                else:
                    k0._ElementaryOps(scalars, rows=(m,), cols=(w,)).add(0, 1, v)

    def test_series_entries_on_an_equal_context(self, f27):
        # a second parse of the same preset is an equal context, not the
        # same object: its classes pass the full check
        scalars = SeriesScalars(f27, 3)
        twin = parse_ring_preset(f27.name)
        assert twin is not f27 and twin == f27
        rng = random.Random(71)
        a = _random_matrix(scalars, 2, 2, rng)
        b = _random_matrix(scalars, 2, 2, rng)
        moved = _moved(b, SeriesScalars(twin, 3))
        assert mat_mul(scalars, a, moved) == mat_mul(scalars, a, b)
        v = k0._sample_unit(scalars, rng)
        steps = [[list(row) for row in m] for m in (b, moved)]
        for rows in steps:
            k0._ElementaryOps(scalars, rows=(rows,), cols=(rows,)).add(0, 1, v)
        assert steps[0] == steps[1]

    def test_series_product_builds_each_entry_once(self, monkeypatch):
        # a fresh context, since its mul is counted by an instance override
        # and its M_{k,l} memo starts empty
        ctx = parse_ring_preset("truncpoly:3:3:c=2")
        scalars = SeriesScalars(ctx, 4)
        rng = random.Random(73)
        a = _random_matrix(scalars, 6, 6, rng)
        b = _random_matrix(scalars, 6, 6, rng)
        counts = {"series": 0, "mul": 0, "rows": 0}
        plain_mul = ctx.mul
        plain_rows = TruncPolyRing._closed_rows

        def counted_mul(x, y):
            counts["mul"] += 1
            return plain_mul(x, y)

        def counted_rows(*args):
            counts["rows"] += 1
            return plain_rows(*args)

        ctx.mul = counted_mul
        _count_constructions(monkeypatch, counts)
        monkeypatch.setattr(TruncPolyRing, "_closed_rows", counted_rows)
        fused = mat_mul(scalars, a, b)
        fused_counts = dict(counts)
        counts.update(series=0, mul=0)
        assert fused == schoolbook_mat_mul(scalars, a, b)
        assert fused_counts["series"] <= 36
        assert fused_counts["mul"] == counts["mul"] > 0
        # the operator row of each coefficient of b is built once for all six
        # rows of a: one closed-form call per row build or extension, which
        # also checks the cut.  A coefficient 1 of b, where x*1 = 1*x, adds
        # its partners' coefficients and builds no row, which here saves
        # the build and the one extension of the row of 1
        assert fused_counts["rows"] == 35


SPARSE_PRECISIONS = (None,) + tuple(range(1, 13))


def _sparse_factors(scalars, rng):
    """Pairs (a, b) for a * b whose entries are mostly zero: zero matrices,
    identities and permutations, a zero row or column, a single nonzero
    entry, then n x k by k x m factors for n = 1..8 at mixed densities,
    then factors with many entries 1: identities, permutations, and n x k
    by k x m factors a third of whose entries are 1, for n = 1, 3, 6."""
    zero, one = scalars.zero(), scalars.one()

    def dense(rows, cols, density=2 / 3):
        return tuple(tuple(scalars.sample(rng) if rng.random() < density else zero
                           for _ in range(cols)) for _ in range(rows))

    def with_units(rows, cols):
        # a third of the entries 1, a third zero
        return tuple(tuple(rng.choice((one, zero, scalars.sample(rng)))
                           for _ in range(cols)) for _ in range(rows))

    def single(n, i, j):
        x = scalars.sample(rng)
        while x == zero:
            x = scalars.sample(rng)
        return tuple(tuple(x if (r, c) == (i, j) else zero for c in range(n))
                     for r in range(n))

    n = 3
    m = dense(n, n)
    perm = rng.sample(range(n), n)
    permutation = tuple(tuple(one if c == perm[r] else zero for c in range(n))
                         for r in range(n))
    empty = tuple((zero,) * n for _ in range(n))
    zero_row = tuple(empty[0] if r == 1 else row for r, row in enumerate(dense(n, n)))
    zero_col = tuple(tuple(zero if c == 2 else x for c, x in enumerate(row))
                     for row in dense(n, n))
    yield empty, empty
    yield empty, m
    yield m, empty
    yield mat_identity(scalars, n), m
    yield m, mat_identity(scalars, n)
    yield permutation, m
    yield m, permutation
    yield zero_row, m
    yield m, zero_col
    yield zero_col, zero_row
    yield single(n, 0, 2), m
    yield m, single(n, 1, 0)
    yield single(n, 0, 2), single(n, 2, 1)
    for n in range(1, 9):
        inner, cols = rng.randint(1, 8), rng.randint(1, 8)
        density = rng.choice((0.25, 0.5, 0.9))
        yield dense(n, inner, density), dense(inner, cols, density)
    # factors with entries 1, which the block kernel adds without a product
    yield mat_identity(scalars, 3), mat_identity(scalars, 3)
    yield permutation, permutation
    for n in (1, 3, 6):
        inner, cols = rng.randint(1, 6), rng.randint(1, 6)
        yield with_units(n, inner), with_units(inner, cols)


class TestSparseMatMul:
    """The matrix kernels skip zero entries, and over S/G_N add the factors
    equal to 1 without a product; they must still give the schoolbook
    product and the product with x*1 = 1*x not assumed, and over S/G_N
    leave the operator rows, vanishing checks and memo of the products one
    pair of entries at a time, for the pairs without such a factor."""

    @pytest.mark.parametrize("preset", DOT_PRESETS)
    def test_matches_schoolbook(self, preset, monkeypatch):
        ctx, ref, rows_ref, full = (parse_ring_preset(preset) for _ in range(4))
        right_unit = ctx.one_commutes_with_x()
        assert right_unit == (preset != BROKEN_PRESET)
        calls, ref_calls = [], []
        _record_ring_calls(ctx, calls)
        _record_ring_calls(ref, ref_calls)
        kernel_calls = []
        plain_kernel = skewpoly._add_products

        def counted_kernel(c, partners, width, gb, lb, length, right_unit):
            if c is ctx:
                kernel_calls.append((gb, lb, [f for f, _, _ in partners]))
            plain_kernel(c, partners, width, gb, lb, length, right_unit)

        monkeypatch.setattr(skewpoly, "_add_products", counted_kernel)
        for precision in SPARSE_PRECISIONS:
            scalars = _scalars_on(ctx, precision)
            ref_scalars = _scalars_on(ref, precision)
            full_scalars = _scalars_on(full, precision)
            rng = random.Random(f"{preset}/{precision}/sparse")
            for a, b in _sparse_factors(scalars, rng):
                del calls[:], ref_calls[:], kernel_calls[:]
                fused = mat_mul(scalars, a, b)
                plain = schoolbook_mat_mul(ref_scalars, _moved(a, ref_scalars),
                                           _moved(b, ref_scalars))
                assert fused == plain
                zero = scalars.zero()
                # an output that no pair of nonzero entries reaches is zero
                reached = {(r, c) for r, row in enumerate(a)
                           for c, col in enumerate(zip(*b))
                           if any(x != zero and y != zero for x, y in zip(row, col))}
                empty = [fused[r][c] for r in range(len(a)) for c in range(len(b[0]))
                         if (r, c) not in reached]
                assert all(x == zero for x in empty)
                if precision is None:
                    # the fold of each entry keeps its order and its ring
                    # calls, but for the products with a zero factor
                    assert calls == _without_zero_products(ref_calls, ctx.zero())
                    continue
                # over S/G_N, the same with x*1 = 1*x not assumed ...
                with monkeypatch.context() as m:
                    m.setattr(RingContext, "one_commutes_with_x", lambda _: False)
                    assert mat_mul(full_scalars, _moved(a, full_scalars),
                                   _moved(b, full_scalars)) == fused
                # ... and they share one zero class, and the
                # kernel runs once per nonzero right-factor entry that
                # meets a left-factor entry other than 0 and 1, with those
                # partners; a right-factor 1 gets no pass where x*1 = 1*x
                assert all(x is empty[0] for x in empty)
                one = scalars.one()
                unit = one.coeffs
                assert all(lb > 0 and all(partners) and unit not in partners
                           and not (right_unit and gb == unit)
                           for gb, lb, partners in kernel_calls)
                assert len(kernel_calls) == sum(
                    1 for p in range(len(b)) for y in b[p]
                    if y != zero and not (right_unit and y == one)
                    and any(row[p] not in (zero, one) for row in a))
                _pairwise_products(SeriesScalars(rows_ref, precision), a, b,
                                   skip_units=True)
        assert ctx._mkl_rows == rows_ref._mkl_rows
        assert_rows_are_the_operator_values(ctx)

    def test_builds_each_reached_entry_once(self, monkeypatch):
        ctx = parse_ring_preset("truncpoly:3:3:c=2")
        scalars = SeriesScalars(ctx, 5)
        zero = scalars.zero()
        rng = random.Random(97)
        units = [k0._sample_unit(scalars, rng) for _ in range(32)]
        # row 2 of a and column 1 of b are zero, every other entry a unit:
        # 7 of 16 outputs get no term
        a = tuple(tuple(zero if r == 2 else units[4 * r + c] for c in range(4))
                  for r in range(4))
        b = tuple(tuple(zero if c == 1 else units[16 + 4 * r + c] for c in range(4))
                  for r in range(4))
        counts = {"series": 0}
        _count_constructions(monkeypatch, counts)
        out = mat_mul(scalars, a, b)
        # nine reduced outputs and one zero class shared by the others
        assert counts["series"] == 9 + 1
        assert len({id(out[r][c]) for r in range(4) for c in range(4)
                    if r == 2 or c == 1}) == 1


class OracleElementaryOps(k0._ElementaryOps):
    """Oracle for k0._ElementaryOps: each x + v*y of a row or column step
    is a scalar product and then a sum, entry by entry, through the base's
    mul and add."""

    def add(self, i, j, v, neg_v=None):
        if v == self.zero:
            return
        s = self.scalars
        for m in self.rows:
            m[i] = [s.add(x, s.mul(v, y)) for x, y in zip(m[i], m[j])]
        if neg_v is None:
            neg_v = s.neg(v)
        for m in self.cols:
            for row in m:
                row[j] = s.add(row[j], s.mul(row[i], neg_v))

    def scale(self, i, c, c_inv):
        s = self.scalars
        for m in self.rows:
            m[i] = [s.mul(c, x) for x in m[i]]
        for m in self.cols:
            for row in m:
                row[i] = s.mul(row[i], c_inv)


ELEMENTARY_PRESETS = PRESET_MATRIX + (BROKEN_PRESET, "truncpoly:3:6:c=2")
# None is the base R itself
ELEMENTARY_PRECISIONS = (None,) + tuple(range(1, 9))


def _scalars_on(ctx, precision):
    return BaseScalars(ctx) if precision is None else SeriesScalars(ctx, precision)


def _moved(m, scalars):
    """m with its entries on the context of scalars, as lists of rows."""
    if isinstance(scalars, BaseScalars):
        return [list(row) for row in m]
    return [[TruncatedSeries(scalars.ctx, scalars.precision, x.coeffs)
             for x in row] for row in m]


def _outcome(fn, *args):
    """fn(*args), or the type and text of the error it raises: over
    delta=broken S/G_N is not associative, and both paths must fail alike."""
    try:
        return fn(*args)
    except (AssertionError, ValueError) as exc:
        return type(exc), str(exc)


def _idempotent_or_constant(scalars, n, seed):
    """random_idempotent(scalars, n) from seed; where that is not idempotent
    (over delta=broken), the constant idempotent of R drawn from the same
    seed, which is one over S/G_N too."""
    e = _outcome(random_idempotent, scalars, n, random.Random(seed))
    if not isinstance(e[0], type):
        return e[0]
    ctx = scalars.ctx
    base, _ = random_idempotent(BaseScalars(ctx), n, random.Random(seed))
    return IdempotentMatrix(scalars, tuple(
        tuple(TruncatedSeries.constant(ctx, scalars.precision, x) for x in row)
        for row in base.entries))


def _witness_parts(w):
    return w if isinstance(w, tuple) else (w.rank, w.conjugator, w.conjugator_inv)


def _record_ring_calls(ctx, calls):
    """Log every add, mul and neg on ctx, with its arguments, in order."""
    for name in ("add", "mul", "neg"):
        plain = getattr(ctx, name)

        def logged(*args, _name=name, _plain=plain):
            calls.append((_name, args))
            return _plain(*args)

        setattr(ctx, name, logged)


def _without_zero_products(calls, zero):
    """The oracle's ring calls over R without each product that has a zero
    factor and the sum that adds its value: in the oracle's steps a sum
    follows its product at once, and a scaling has no sum."""
    kept, dropped = [], False
    for name, args in calls:
        if name == "mul" and zero in args:
            dropped = True
            continue
        if name == "add" and dropped:
            assert args[1] == zero
        else:
            kept.append((name, args))
        dropped = False
    return kept


def _assert_same_memo(ctx, ref):
    """The fused steps extend each operator row as far as the oracle's
    products one by one, and the rows hold the operator values."""
    assert ctx._mkl_rows == ref._mkl_rows
    assert_rows_are_the_operator_values(ctx)


class TestFusedElementaryOps:
    def test_series_add_builds_each_changed_entry_once(self, monkeypatch):
        # fresh contexts: their mul is counted by instance overrides and
        # their M_{k,l} memos fill alike from empty
        ctx, ref = (parse_ring_preset("truncpoly:3:3:c=2") for _ in range(2))
        scalars, ref_scalars = SeriesScalars(ctx, 4), SeriesScalars(ref, 4)
        rng = random.Random(79)
        u, w = (_random_matrix(scalars, 5, 5, rng) for _ in range(2))
        v = k0._sample_unit(scalars, rng)
        i, j = 1, 3
        counts = {"series": 0, "ctx": 0, "ref": 0}
        partners = []
        plain_kernel = skewpoly._add_products

        def counted_kernel(ctx, group, *args):
            partners.append(len(group))
            plain_kernel(ctx, group, *args)

        for name, c in (("ctx", ctx), ("ref", ref)):
            def counted_mul(x, y, _name=name, _plain=c.mul):
                counts[_name] += 1
                return _plain(x, y)
            c.mul = counted_mul

        fused_u, fused_w = _moved(u, scalars), _moved(w, scalars)
        plain_u, plain_w = _moved(u, ref_scalars), _moved(w, ref_scalars)
        ops = k0._ElementaryOps(scalars, rows=(fused_u,), cols=(fused_w,))
        oracle = OracleElementaryOps(ref_scalars, rows=(plain_u,), cols=(plain_w,))
        ref_v = TruncatedSeries(ref, 4, v.coeffs)
        _count_constructions(monkeypatch, counts)
        # the oracle's products go through the same kernel: count only the
        # fused step's passes
        with monkeypatch.context() as patch:
            patch.setattr(skewpoly, "_add_products", counted_kernel)
            ops.add(i, j, v)
        built = counts["series"]
        oracle.add(i, j, ref_v)
        assert (fused_u, fused_w) == (plain_u, plain_w)
        # an entry changes when its partner y in x + v*y is nonzero; one more
        # class is built, -v for the column step
        zero = scalars.zero()
        row_partners = sum(y != zero for y in u[j])
        col_partners = sum(row[i] != zero for row in w)
        assert 0 < row_partners < 5 and 0 < col_partners < 5
        assert built == row_partners + col_partners + 1
        # one kernel pass per entry of the row step, one for the column step
        assert partners == [1] * row_partners + [col_partners]
        assert counts["ctx"] == counts["ref"] > 0

    @pytest.mark.parametrize("preset", ELEMENTARY_PRESETS)
    def test_random_operations_match_the_oracle(self, preset):
        ctx, ref = parse_ring_preset(preset), parse_ring_preset(preset)
        for precision in ELEMENTARY_PRECISIONS:
            scalars = _scalars_on(ctx, precision)
            ref_scalars = _scalars_on(ref, precision)
            rng = random.Random(f"{preset}/{precision}")
            calls, ref_calls = [], []
            if precision is None:
                # over R the same ring calls run, in the same order, but for
                # the products with a zero factor
                _record_ring_calls(ctx, calls)
                _record_ring_calls(ref, ref_calls)
            for n in range(1, 7):
                a, u, w = (_random_matrix(scalars, n, n, rng) for _ in range(3))
                fa, fu, fw = (_moved(m, scalars) for m in (a, u, w))
                pa, pu, pw = (_moved(m, ref_scalars) for m in (a, u, w))
                # the layout of idempotent_rank: a is conjugated in place
                ops = k0._ElementaryOps(scalars, rows=(fa, fu), cols=(fa, fw))
                oracle = OracleElementaryOps(ref_scalars, rows=(pa, pu),
                                             cols=(pa, pw))
                for _ in range(3 * n):
                    kind = rng.randrange(3)
                    i, j = rng.randrange(n), rng.randrange(n)
                    if kind == 2:
                        ops.swap(i, j)
                        oracle.swap(i, j)
                        continue
                    args = [_random_matrix(scalars, 1, 1, rng)[0][0]
                            for _ in range(2)]
                    ref_args = _moved((args,), ref_scalars)[0]
                    if kind == 0:
                        ops.add(i, j, args[0])
                        oracle.add(i, j, ref_args[0])
                    else:
                        ops.scale(i, *args)
                        oracle.scale(i, *ref_args)
                    assert (fa, fu, fw) == (pa, pu, pw)
            if precision is None:
                assert calls == _without_zero_products(ref_calls, ctx.zero())
                del ctx.add, ctx.mul, ctx.neg, ref.add, ref.mul, ref.neg
        _assert_same_memo(ctx, ref)

    @pytest.mark.parametrize("preset", ELEMENTARY_PRESETS)
    def test_rank_and_generators_match_the_oracle(self, preset, monkeypatch):
        # the idempotents come from a third context, so that ctx and ref see
        # only the paths compared.  Two more compare idempotent_rank and
        # stable_iso_witness as they run with those that do not take 1 for
        # a two-sided identity, where every pivot 1 is inverted and scaled
        # by and every right factor 1 goes through the product kernel
        ctx, ref, gen, comp, full = (parse_ring_preset(preset) for _ in range(5))
        for precision in ELEMENTARY_PRECISIONS:
            scalars = _scalars_on(ctx, precision)
            ref_scalars = _scalars_on(ref, precision)
            gen_scalars = _scalars_on(gen, precision)
            for n in range(1, 7):
                seed = f"{preset}/{precision}/{n}"
                fused = _outcome(random_invertible, scalars, n, random.Random(seed))
                with monkeypatch.context() as m:
                    m.setattr(k0, "_ElementaryOps", OracleElementaryOps)
                    plain = _outcome(random_invertible, ref_scalars, n,
                                     random.Random(seed))
                assert fused == plain
                e = _idempotent_or_constant(gen_scalars, n, seed)
                fused = _witness_parts(_outcome(idempotent_rank, IdempotentMatrix(
                    scalars, _moved(e.entries, scalars))))
                with monkeypatch.context() as m:
                    m.setattr(k0, "_ElementaryOps", OracleElementaryOps)
                    plain = _witness_parts(_outcome(idempotent_rank, IdempotentMatrix(
                        ref_scalars, _moved(e.entries, ref_scalars))))
                assert fused == plain
                # stable_iso_witness of e and its reversal (rows and columns
                # in reverse order, an idempotent of the same rank), and the
                # same two calls with the full path forced
                entries = tuple(row[::-1] for row in e.entries[::-1])
                pairs = [(IdempotentMatrix(s, _moved(e.entries, s)),
                          IdempotentMatrix(s, _moved(entries, s)))
                         for s in (_scalars_on(comp, precision),
                                   _scalars_on(full, precision))]
                computed = (_outcome(idempotent_rank, pairs[0][0]),
                            _outcome(stable_iso_witness, *pairs[0]))
                with monkeypatch.context() as m:
                    m.setattr(RingContext, "one_commutes_with_x", lambda _: False)
                    m.setattr(BaseScalars, "one_is_two_sided", lambda _: False)
                    forced = (_outcome(idempotent_rank, pairs[1][0]),
                              _outcome(stable_iso_witness, *pairs[1]))
                assert _witness_parts(computed[0]) == _witness_parts(forced[0]) == fused
                assert computed[1] == forced[1]
        _assert_same_memo(ctx, ref)


class TestSerreTransfer:
    def test_explicit_conjugation_over_series(self, z8):
        # diag(1, 0) conjugated by I + (2x)E_12 over S/G_3
        scalars = SeriesScalars(z8, 3)
        two_x = TruncatedSeries.from_poly(SkewPoly(z8, (0, 2)), 3)
        v = ((scalars.one(), two_x), (scalars.zero(), scalars.one()))
        vinv = ((scalars.one(), -two_x), (scalars.zero(), scalars.one()))
        d = mat_diag(scalars, [1, 0])
        e = IdempotentMatrix(scalars, mat_mul(scalars, mat_mul(scalars, v, d), vinv))
        w = idempotent_rank(e)
        assert w.rank == 1 and w.verify()

    def test_suite(self, f27):
        report = run_property_suite("serre-transfer", f27, 4, 10, 67)
        assert report.passed, report.counterexample


def _reduce_matrix(m, precision):
    return tuple(tuple(x.reduce_precision(precision) for x in row) for row in m)


def _lift_idempotent(e, rng, precision, rounds):
    """An idempotent over S/G_N reducing to e over S/G_M (M = e's precision):
    lift the entries, perturb them by G_M and iterate f -> 3f^2 - 2f^3,
    which squares f^2 - f each round ([lam]).  None if f is not idempotent
    after the given number of rounds."""
    ctx, low = e.scalars.ctx, e.scalars.precision
    scalars = SeriesScalars(ctx, precision)
    f = tuple(tuple(TruncatedSeries(ctx, precision, x.coeffs)
                    + random_series_in_filtration(ctx, precision, low, rng)
                    for x in row) for row in e.entries)
    for _ in range(rounds + 1):
        f2 = mat_mul(scalars, f, f)
        if f2 == f:
            return IdempotentMatrix(scalars, f)
        f3 = mat_mul(scalars, f2, f)
        f = tuple(tuple(x + x + x - y - y for x, y in zip(r2, r3))
                  for r2, r3 in zip(f2, f3))
    return None


# (M, N): reduce S/G_N -> S/G_M, lift S/G_M -> S/G_N
PRECISION_PAIRS = ((1, 6), (2, 5), (3, 8), (4, 9))


class TestRankAcrossPrecisions:
    """K0(S/G_N) -> K0(S/G_M) keeps the rank, and every idempotent over
    S/G_M lifts to one of the same rank over S/G_N."""

    @pytest.mark.parametrize("low,high", PRECISION_PAIRS)
    def test_reduction_keeps_rank(self, matrix_ctx, low, high):
        rng = random.Random(97 + high)
        scalars = SeriesScalars(matrix_ctx, high)
        coarse = SeriesScalars(matrix_ctx, low)
        for n in (1, 2, 3):
            e, ones = random_idempotent(scalars, n, rng)
            w = idempotent_rank(e)
            reduced = IdempotentMatrix(coarse, _reduce_matrix(e.entries, low))
            assert idempotent_rank(reduced).rank == w.rank == ones
            reduced_witness = RankWitness(
                scalars=coarse, matrix=reduced.entries, rank=w.rank,
                conjugator=_reduce_matrix(w.conjugator, low),
                conjugator_inv=_reduce_matrix(w.conjugator_inv, low))
            assert reduced_witness.verify()

    @pytest.mark.parametrize("low,high", PRECISION_PAIRS)
    def test_idempotents_lift(self, matrix_ctx, low, high):
        rng = random.Random(101 + high)
        coarse = SeriesScalars(matrix_ctx, low)
        # f^2 - f lies in G_M and each round doubles its degree
        max_rounds = (-(-high // low) - 1).bit_length()
        for n in (1, 2, 3):
            e, ones = random_idempotent(coarse, n, rng)
            lifted = _lift_idempotent(e, rng, high, max_rounds)
            assert lifted is not None
            assert idempotent_rank(lifted).rank == ones
            assert _reduce_matrix(lifted.entries, low) == e.entries


# Seeded generator outputs, rendered row by row.  The benchmark builds its
# inputs with these generators, so the draws (i, then j, then r or the
# unit) must keep their order.
PINNED_INVERTIBLES = [
    ("z8", 1, 1, ['[7]'], ['[7]']),
    ("z8", 1, 2, ['[1, 7]', '[6, 3]'], ['[3, 1]', '[2, 1]']),
    ("z8", 2, 3, ['[0, 0, 1]', '[1, 0, 2]', '[0, 3, 0]'],
     ['[6, 1, 0]', '[0, 0, 3]', '[1, 0, 0]']),
    ("z8", 7, 4, ['[1, 0, 0, 1]', '[1, 0, 0, 0]', '[0, 0, 1, 0]', '[6, 1, 0, 6]'],
     ['[0, 1, 0, 0]', '[2, 0, 0, 1]', '[0, 0, 1, 0]', '[1, 7, 0, 0]']),
    ("s3", 1, 1, ['[1 + t + x]'], ['[1 + 2*t + 2*t^2 + 2*x + x^2]']),
    ("s3", 1, 2, ['[2 + t^2 + 2*x^2, 2 + t + 2*x^2]', '[0, 1]'],
     ['[2 + 2*t^2 + x^2, 2 + t + 2*t^2]', '[0, 1]']),
    ("s3", 2, 3,
     ['[0, 0, 1]',
      '[1 + 2*t*x + x^2, 1, 2*t + 2*t^2 + (1 + t)*x]',
      '[1 + 2*t + 2*t^2 + (1 + 2*t)*x + 2*x^2, 0, 2*t + 2*t^2 + (1 + t)*x + x^2]'],
     ['[t + t^2 + (2 + 2*t)*x, 0, 1 + t + t^2 + (2 + t)*x + 2*x^2]',
      '[0, 1, 2 + 2*t + 2*t^2 + x]',
      '[1, 0, 0]']),
]

PINNED_IDEMPOTENTS = [
    ("z8", 30, 2, ['[1, 2, 0]', '[0, 0, 4]', '[0, 4, 1]']),
    ("z8", 34, 2, ['[6, 0, 5]', '[0, 1, 0]', '[2, 0, 3]']),
    ("z8", 39, 1, ['[4, 4, 4]', '[7, 5, 5]', '[0, 0, 0]']),
    ("s3", 1, 1,
     ['[1, 0, 0]', '[2 + t^2 + 2*x^2, 0, 0]', '[1 + t + (1 + 2*t)*x, 0, 0]']),
    ("s3", 5, 2,
     ['[0, 0, 0]', '[0, 1, 0]', '[2*t + (1 + 2*t)*x + x^2, 0, 1]']),
    ("s3", 16, 2,
     ['[1, 0, 0]', '[0, 1, 0]', '[0, 2 + t + t^2 + (2 + t)*x, 0]']),
]


def _shown(scalars, m):
    return [f"[{', '.join(map(scalars.render, row))}]" for row in m]


class TestSeededGenerators:
    @pytest.fixture
    def bases(self, z8, f27):
        return {"z8": BaseScalars(z8), "s3": SeriesScalars(f27, 3)}

    @pytest.mark.parametrize("base,seed,n,m,minv", PINNED_INVERTIBLES)
    def test_random_invertible_is_pinned(self, bases, base, seed, n, m, minv):
        scalars = bases[base]
        got, got_inv = random_invertible(scalars, n, random.Random(seed))
        assert _shown(scalars, got) == m
        assert _shown(scalars, got_inv) == minv
        assert mat_mul(scalars, got, got_inv) == mat_identity(scalars, n)

    @pytest.mark.parametrize("base,seed,ones,entries", PINNED_IDEMPOTENTS)
    def test_random_idempotent_is_pinned(self, bases, base, seed, ones, entries):
        scalars = bases[base]
        e, got_ones = random_idempotent(scalars, 3, random.Random(seed))
        assert got_ones == ones
        assert _shown(scalars, e.entries) == entries
        assert idempotent_rank(e).rank == ones


class ColumnScaledByC(k0._ElementaryOps):
    """A wrong _ElementaryOps: a scaling multiplies the column by c, where
    it should multiply it by c^-1."""

    def scale(self, i, c, c_inv):
        super().scale(i, c, c)


def _conjugate_by_products(scalars, entries, rng):
    """Oracle for random_conjugate: V * entries * V^-1 by two matrix
    products, V and V^-1 from random_invertible."""
    v, vinv = random_invertible(scalars, len(entries), rng)
    return mat_mul(scalars, mat_mul(scalars, v, entries), vinv)


CONJUGATE_PRESETS = PRESET_MATRIX + (BROKEN_PRESET,)
# None is the base R itself
CONJUGATE_PRECISIONS = (None, 1, 2, 4, 8)


def _conjugate_mismatches(preset, monkeypatch, **patched):
    """Each case where random_conjugate, run with the names of k0 in
    ``patched`` replaced, differs from the oracle on the same seed, in its
    matrix (or the error it raises) or in the rng's next draw, as (tag,
    matrix, whether the matrices agree).  The matrices conjugated are 0, I,
    a 0/1 diagonal and an idempotent from _idempotent_or_constant, for
    n = 1..6."""
    ctx = parse_ring_preset(preset)
    for precision in CONJUGATE_PRECISIONS:
        scalars = _scalars_on(ctx, precision)
        for n in range(1, 7):
            for seed in range(5):
                tag = f"{preset}/{precision}/{n}/{seed}"
                pick = random.Random(tag + "/diagonal")
                diagonal = mat_diag(scalars, [pick.randrange(2) for _ in range(n)])
                e = _idempotent_or_constant(scalars, n, tag + "/idempotent")
                for entries in (mat_diag(scalars, [0] * n),
                                mat_identity(scalars, n), diagonal, e.entries):
                    rng, ref_rng = random.Random(tag), random.Random(tag)
                    with monkeypatch.context() as m:
                        for name, value in patched.items():
                            m.setattr(k0, name, value)
                        got = _outcome(k0.random_conjugate, scalars, entries, rng)
                    want = _outcome(_conjugate_by_products, scalars, entries,
                                    ref_rng)
                    if (got, rng.random()) != (want, ref_rng.random()):
                        yield tag, entries, got == want


def _steps_not_drawn(scalars, n, rng, ops, _plain=k0._random_steps):
    """A wrong _random_steps, for the must-fail control: with no ops it
    returns at once, where it should still draw every step."""
    if ops is not None:
        _plain(scalars, n, rng, ops)


class TestRandomConjugate:
    """random_conjugate conjugates in place wherever 1 is a two-sided
    identity, draws the steps for 0 and I there without applying them, and
    conjugates by V and V^-1 on delta=broken over S/G_N: either way its
    matrix, or the error it raises, and the rng's next draw are those of
    the two products by random_invertible's V and V^-1."""

    @pytest.mark.parametrize("preset", CONJUGATE_PRESETS)
    def test_matches_the_two_products(self, preset, monkeypatch):
        assert list(_conjugate_mismatches(preset, monkeypatch)) == []

    @pytest.mark.parametrize("preset", ("zmod:3^5", "truncpoly:3:3:c=2"))
    def test_column_scaled_by_c_is_caught(self, preset, monkeypatch):
        # must-fail control: the oracle's V^-1 is built by the correct
        # operations, so an in-place step that scales a column by c
        # instead of c^-1 changes the matrix
        assert next(_conjugate_mismatches(preset, monkeypatch,
                                          _ElementaryOps=ColumnScaledByC),
                    None) is not None

    @pytest.mark.parametrize("preset", ("zmod:3^5", "truncpoly:3:3:c=2"))
    def test_skipping_the_draws_is_caught(self, preset, monkeypatch):
        # must-fail control: returning 0 or I without drawing the steps
        # gives the right matrix, so only the rng-state check catches it
        found = list(itertools.islice(_conjugate_mismatches(
            preset, monkeypatch, _random_steps=_steps_not_drawn), 20))
        assert found
        assert all(matrices_agree for _, _, matrices_agree in found)

    @pytest.mark.parametrize("preset", CONJUGATE_PRESETS)
    def test_zero_and_identity_are_drawn_only(self, preset, monkeypatch):
        # 0 and I take neither an inverse nor an elementary operation,
        # except on delta=broken over S/G_N, where V and V^-1 are built
        ctx = parse_ring_preset(preset)
        log = []

        def logged(name, plain):
            def call(*args, **kwargs):
                log.append(name)
                return plain(*args, **kwargs)
            return call

        # an _ElementaryOps never built has no method called
        for name in ("_ElementaryOps", "random_invertible"):
            monkeypatch.setattr(k0, name, logged(name, getattr(k0, name)))
        for cls in (BaseScalars, SeriesScalars):
            monkeypatch.setattr(cls, "inv", logged("inv", cls.inv))
        for precision in CONJUGATE_PRECISIONS:
            scalars = _scalars_on(ctx, precision)
            for n in range(1, 7):
                for entries in (mat_diag(scalars, [0] * n),
                                mat_identity(scalars, n)):
                    del log[:]
                    got = _outcome(k0.random_conjugate, scalars, entries,
                                   random.Random(f"{preset}/{n}"))
                    if precision is not None and preset == BROKEN_PRESET:
                        assert log[:2] == ["random_invertible", "_ElementaryOps"]
                    else:
                        assert (got, log) == (entries, [])

    @pytest.mark.parametrize("preset", CONJUGATE_PRESETS)
    def test_v_is_built_only_on_delta_broken(self, preset, monkeypatch):
        # V and V^-1 are built, and multiplied by where random_invertible
        # returns, only over S/G_N on delta=broken
        ctx = parse_ring_preset(preset)
        calls = []
        for name in ("random_invertible", "mat_mul"):
            def logged(*args, _name=name, _plain=getattr(k0, name)):
                calls.append(_name)
                return _plain(*args)
            monkeypatch.setattr(k0, name, logged)
        for precision in CONJUGATE_PRECISIONS:
            scalars = _scalars_on(ctx, precision)
            for seed in range(3):
                del calls[:]
                _outcome(k0.random_conjugate, scalars,
                         mat_diag(scalars, [1, 0, 1]), random.Random(seed))
                if precision is not None and preset == BROKEN_PRESET:
                    assert calls in (["random_invertible"],
                                     ["random_invertible", "mat_mul", "mat_mul"])
                else:
                    assert calls == []


def _four_product_verify(w):
    """Oracle for RankWitness.verify: U*U^-1 = I and U^-1*U = I, then
    (U*e)*U^-1 = D, every identity by its full products."""
    s = w.scalars
    return (k0._mutually_inverse(s, w.conjugator, w.conjugator_inv)
            and mat_mul(s, mat_mul(s, w.conjugator, w.matrix),
                        w.conjugator_inv) == w.diagonal_form())


def _verify_without_inverse_check(w):
    """A wrong RankWitness.verify, for the must-fail control: it drops
    _mutually_inverse and accepts on U*e = D*U alone."""
    s, u, n, rank = w.scalars, w.conjugator, len(w.matrix), w.rank
    ue = mat_mul(s, u, w.matrix)
    if 0 <= rank <= n and ue == tuple(u[:rank]) + ((s.zero(),) * n,) * (n - rank):
        return True
    return mat_mul(s, ue, w.conjugator_inv) == w.diagonal_form()


VERIFY_PRESETS = PRESET_MATRIX + (BROKEN_PRESET,)
# None is the base R itself
VERIFY_PRECISIONS = (None, 1, 2, 4, 8)


def _rank_certificates(scalars, n, tag):
    """(kind, certificate) pairs of size n: idempotent_rank's certificate
    of a generated idempotent (where it verifies), and then each with one
    entry of U^-1 or of e moved by 1 and with its rank moved by 1; and
    certificates of e = I and e = 0 with U and U^-1 from
    random_invertible, at their ranks n and 0 and at the ranks n + 1 and
    -1 that fall outside 0..n."""
    rng = random.Random(tag)
    one, add = scalars.one(), scalars.add
    e = _idempotent_or_constant(scalars, n, tag + "/idempotent")
    w = _outcome(idempotent_rank, e)
    if isinstance(w, RankWitness):
        yield "valid", w
        for field in ("conjugator_inv", "matrix"):
            position = (rng.randrange(n), rng.randrange(n))
            yield field, _with_entry_moved(w, field, position, one, add)
        for step in (1, -1):
            yield f"rank{step:+d}", RankWitness(
                scalars, w.matrix, w.rank + step, w.conjugator, w.conjugator_inv)
    # random_invertible's own Newton check can fail on delta=broken; the
    # certificates of I and 0 then take U = U^-1 = I
    uv = _outcome(random_invertible, scalars, n, rng)
    u, uinv = (uv if isinstance(uv[1], tuple)
               else (mat_identity(scalars, n),) * 2)
    for rank in (n, n + 1, -1):
        yield f"I/{rank}", RankWitness(scalars, mat_identity(scalars, n), rank,
                                       u, uinv)
    for rank in (0, n + 1, -1):
        yield f"0/{rank}", RankWitness(scalars, mat_diag(scalars, [0] * n), rank,
                                       u, uinv)


def _verify_mismatches(preset, monkeypatch, verify, seen):
    """Each (tag, kind) where ``verify`` and the oracle give different
    verdicts (or errors) on a certificate of _rank_certificates, over R and
    S/G_N at N in VERIFY_PRECISIONS, n = 1..6.  ``seen`` counts the
    calls of verify by (verdict, matrix products made): 4 is the fallback
    product."""
    ctx = parse_ring_preset(preset)
    for precision in VERIFY_PRECISIONS:
        scalars = _scalars_on(ctx, precision)
        for n in range(1, 7):
            tag = f"{preset}/{precision}/{n}"
            for kind, w in _rank_certificates(scalars, n, tag):
                calls = [0]

                def counted(*args, _plain=mat_mul):
                    calls[0] += 1
                    return _plain(*args)

                with monkeypatch.context() as m:
                    m.setattr(k0, "mat_mul", counted)
                    got = _outcome(verify, w)
                want = _outcome(_four_product_verify, w)
                seen[got, calls[0]] = seen.get((got, calls[0]), 0) + 1
                if got != want:
                    yield tag, kind


class TestRankVerify:
    """RankWitness.verify checks U*U^-1, U^-1*U and U*e = D*U, and takes
    (U*e)*U^-1 = D only when the last fails: its verdict is that of the
    four products on valid and tampered certificates alike."""

    @pytest.mark.parametrize("preset", VERIFY_PRESETS)
    def test_matches_the_four_products(self, preset, monkeypatch):
        seen = {}
        assert list(_verify_mismatches(preset, monkeypatch, RankWitness.verify,
                                       seen)) == []
        # a wrong rank reaches the fallback product, and every certificate
        # accepted takes the short cut: on an associative base a valid one
        # has U*e = D*U, and on delta=broken so do these
        assert seen.get((False, 4)) and seen.get((True, 3))
        assert (True, 4) not in seen

    @pytest.mark.parametrize("preset", ("zmod:2^3", "truncpoly:3:3:c=2"))
    def test_dropped_inverse_check_is_caught(self, preset, monkeypatch):
        # must-fail control: U*e does not read U^-1, so a verify that skips
        # U*U^-1 = I accepts a certificate with a moved entry of U^-1
        kinds = {kind for _, kind in _verify_mismatches(
            preset, monkeypatch, _verify_without_inverse_check, {})}
        assert "conjugator_inv" in kinds


def _grid_stably_free(e, s):
    """Oracle for stably_free_witness: forward and backward built entry by
    entry on the (n+s) x (r+s) and (r+s) x (n+s) grids, U^-1[:, :r] and
    U[:r, :] on the module block and I_s on the padding."""
    scalars = e.scalars
    w = idempotent_rank(e)
    r, n = w.rank, e.size
    zero, one = scalars.zero(), scalars.one()
    forward = tuple(
        tuple(w.conjugator_inv[i][j] if i < n and j < r else
              (one if i >= n and j >= r and i - n == j - r else zero)
              for j in range(r + s))
        for i in range(n + s))
    backward = tuple(
        tuple(w.conjugator[i][j] if i < r and j < n else
              (one if i >= r and j >= n and i - r == j - n else zero)
              for j in range(n + s))
        for i in range(r + s))
    witness = k0.StablyFreeWitness(
        scalars=scalars, matrix=e.entries, rank=r, s=s,
        forward=forward, backward=backward)
    if not witness.verify():
        raise AssertionError("stably-free certificate failed to verify")
    return witness


def _grid_completion(scalars, row):
    """Oracle for unimodular_complete: M and M^-1 built as lists of rows,
    a basis vector per column other than the first unit's, and the
    inverse's entries set one by one."""
    row = tuple(row)
    n = len(row)
    unit_at = next((j for j, x in enumerate(row) if scalars.is_unit(x)), None)
    if unit_at is None:
        raise NotUnimodular("not unimodular")
    zero, one = scalars.zero(), scalars.one()
    others = [j for j in range(n) if j != unit_at]
    mat = [list(row)]
    for j in others:
        basis = [zero] * n
        basis[j] = one
        mat.append(basis)
    ainv = scalars.inv(row[unit_at])
    inv = [[zero] * n for _ in range(n)]
    inv[unit_at][0] = ainv
    for col, j in enumerate(others, start=1):
        inv[j][col] = one
        inv[unit_at][col] = scalars.neg(scalars.mul(ainv, row[j]))
    completed = k0.CompletedRow(
        scalars=scalars, row=row,
        matrix=tuple(tuple(r) for r in mat),
        inverse=tuple(tuple(r) for r in inv))
    if not completed.verify():
        raise AssertionError("row completion failed to verify")
    return completed


# None is the base R itself
IDENTITY_PRECISIONS = (None, 1, 2, 4)


def _row_with_unit_at(scalars, n, at, rng):
    """n entries whose first unit is at position ``at``: non-units before
    it, a unit there, and any entries after it."""
    row = []
    for j in range(n):
        x = k0._sample_unit(scalars, rng) if j == at else scalars.sample(rng)
        while j < at and scalars.is_unit(x):
            x = scalars.sample(rng)
        row.append(x)
    return row


def _on_a_fresh_context(preset, precision, make, build):
    """build(scalars, *make(scalars)) on a new context of preset, and the
    add, mul and neg calls that build makes, in order."""
    ctx = parse_ring_preset(preset)
    scalars = _scalars_on(ctx, precision)
    args, calls = make(scalars), []
    _record_ring_calls(ctx, calls)
    return build(scalars, *args), calls


def _parts(outcome):
    """The fields of a certificate, or the error that replaced it."""
    return outcome if isinstance(outcome, tuple) else outcome._values()


def _assert_matches_the_oracle(preset, precision, make, build, oracle, tag):
    """build and oracle, each on a new context, give the same certificates
    (or errors) from the same ring calls; every certificate verifies."""
    got, calls = _on_a_fresh_context(preset, precision, make, build)
    want, oracle_calls = _on_a_fresh_context(preset, precision, make, oracle)
    assert [_parts(x) for x in got] == [_parts(x) for x in want], tag
    assert calls == oracle_calls, tag
    for outcome in got:
        assert isinstance(outcome, tuple) or outcome.verify(), tag
    return got


class TestIdentityBlocks:
    """unimodular_complete and stably_free_witness take whole rows of
    mat_identity: their certificates equal those of the entry-by-entry
    oracles, from the same ring calls in the same order, and verify.  On
    delta=broken an inverse may fail to verify, and both must then fail
    alike."""

    @pytest.mark.parametrize("preset", VERIFY_PRESETS)
    def test_completion_matches_the_grid(self, preset):
        errors = 0
        for precision in IDENTITY_PRECISIONS:
            for n in range(1, 7):
                for at in range(n):
                    tag = f"{preset}/{precision}/{n}/{at}"
                    got = _assert_matches_the_oracle(
                        preset, precision,
                        lambda sc: (_row_with_unit_at(sc, n, at, random.Random(tag)),),
                        lambda sc, row: [_outcome(unimodular_complete, sc, row)],
                        lambda sc, row: [_outcome(_grid_completion, sc, row)],
                        tag)
                    errors += isinstance(got[0], tuple)
        assert errors == 0 or preset == BROKEN_PRESET

    @pytest.mark.parametrize("preset", VERIFY_PRESETS)
    def test_stably_free_matches_the_grid(self, preset):
        for precision in IDENTITY_PRECISIONS:
            for n in range(1, 7):
                tag = f"{preset}/{precision}/{n}"
                _assert_matches_the_oracle(
                    preset, precision,
                    lambda sc: (_idempotent_or_constant(sc, n, tag),),
                    lambda sc, e: [_outcome(stably_free_witness, e, s)
                                   for s in (0, 1, 2)],
                    lambda sc, e: [_outcome(_grid_stably_free, e, s)
                                   for s in (0, 1, 2)],
                    tag)


# -- must-fail controls -----------------------------------------------------

CONTROL_BASES = [(preset, precision)
                 for preset in ("zmod:2^3", "truncpoly:3:3:c=2")
                 for precision in (None, 3)]


def _with_entry_moved(record, field, position, one, add):
    """record with one entry of its matrix (or row) ``field`` moved by 1."""
    value = getattr(record, field)
    if field == "row":
        (j,) = position
        moved = tuple(add(x, one) if k == j else x for k, x in enumerate(value))
    else:
        i, j = position
        moved = tuple(tuple(add(x, one) if (r, c) == (i, j) else x
                            for c, x in enumerate(row))
                      for r, row in enumerate(value))
    fields = dict(zip(record._fields, record._values()))
    fields[field] = moved
    return type(record)(**fields)


def _positions(record, field):
    value = getattr(record, field)
    if field == "row":
        return [(j,) for j in range(len(value))]
    return [(i, j) for i, row in enumerate(value) for j in range(len(row))]


class TestTamperedCertificates:
    """Every verify re-checks its full identities by multiplication: a
    valid certificate with any one entry of any one of its matrices moved
    by 1 must fail."""

    FIELDS = {"RankWitness": ("matrix", "conjugator", "conjugator_inv"),
              "StableIsoWitness": ("left", "right", "conjugator",
                                   "conjugator_inv"),
              "StablyFreeWitness": ("matrix", "forward", "backward"),
              "CompletedRow": ("row", "matrix", "inverse")}

    @staticmethod
    def _certificates(scalars, rng):
        e, _ = random_idempotent(scalars, 3, rng)
        reversed_e = IdempotentMatrix(
            scalars, tuple(row[::-1] for row in e.entries[::-1]))
        m, _ = random_invertible(scalars, 3, rng)
        return [idempotent_rank(e), stable_iso_witness(e, reversed_e),
                stably_free_witness(e, 1), unimodular_complete(scalars, m[0])]

    @pytest.mark.parametrize("preset,precision", CONTROL_BASES)
    def test_one_moved_entry_fails(self, preset, precision):
        scalars = _scalars_on(parse_ring_preset(preset), precision)
        one, add = scalars.one(), scalars.add
        rng = random.Random(f"{preset}/{precision}/tamper")
        for _ in range(2):
            for cert in self._certificates(scalars, rng):
                assert cert.verify()
                fields = self.FIELDS[type(cert).__name__]
                for field in fields:
                    for position in _positions(cert, field):
                        tampered = _with_entry_moved(cert, field, position,
                                                     one, add)
                        assert not tampered.verify(), (cert, field, position)


class _Faults:
    """A scalar base with one planted fault: ``inv`` off by 1 on the unit
    bad_inv, ``neg`` off by 1 on bad_neg, or ``is_unit`` false on liar."""

    bad_inv = bad_neg = liar = None

    def inv(self, a):
        b = super().inv(a)
        return self.add(b, self.one()) if a == self.bad_inv else b

    def neg(self, a):
        b = super().neg(a)
        return self.add(b, self.one()) if a == self.bad_neg else b

    def is_unit(self, a):
        return a != self.liar and super().is_unit(a)


class FaultyBase(_Faults, BaseScalars):
    pass


class FaultySeries(_Faults, SeriesScalars):
    pass


class TestFaultInjectedBase:
    """Each check inside idempotent_rank, and the final one of
    unimodular_complete, fires with its own message on a base with one
    fault.  A wrong inverse leaves (pivot^-1 + 1) * pivot = 1 + pivot in the
    corner, so it is caught at the pivot column.  The pivot row is reached
    only by a matrix that stopped being idempotent after its column was
    normalized: with a correct inverse every step is a conjugation, so a
    wrong neg in the row clearing is planted instead."""

    @staticmethod
    def _base(preset, precision, **fault):
        ctx = parse_ring_preset(preset)
        scalars = (FaultyBase(ctx) if precision is None
                   else FaultySeries(ctx, precision))
        lift = ((lambda x: x) if precision is None else
                (lambda x: TruncatedSeries.constant(ctx, precision, x)))
        for name, value in fault.items():
            setattr(scalars, name, lift(value))
        return scalars, lift

    @staticmethod
    def _unit(ctx):
        """A unit u != 1 of R."""
        return next(u for u in sorted(ctx.elements())
                    if ctx.is_unit(u) and u != ctx.one())

    @pytest.mark.parametrize("preset,precision", CONTROL_BASES)
    def test_wrong_inverse_fails_the_pivot_column(self, preset, precision):
        # e = [[u, 1], [u(1 - u), 1 - u]] is idempotent with the pivot u
        ctx = parse_ring_preset(preset)
        u = self._unit(ctx)
        v = ctx.add(ctx.one(), ctx.neg(u))
        entries = ((u, ctx.one()), (ctx.mul(u, v), v))
        honest, lift = self._base(preset, precision)
        m = tuple(tuple(map(lift, row)) for row in entries)
        assert idempotent_rank(IdempotentMatrix(honest, m)).rank == 1
        scalars, _ = self._base(preset, precision, bad_inv=u)
        with pytest.raises(AssertionError,
                           match="^pivot column failed to normalize$"):
            idempotent_rank(IdempotentMatrix(scalars, m))

    @pytest.mark.parametrize("preset,precision", CONTROL_BASES)
    def test_wrong_negation_fails_the_pivot_row(self, preset, precision):
        # e = [[1, 1], [0, 0]]: the column is e_1 already, and clearing the
        # row adds -1 times column 1 to column 2
        ctx = parse_ring_preset(preset)
        honest, lift = self._base(preset, precision)
        m = tuple(tuple(map(lift, row))
                  for row in ((ctx.one(), ctx.one()), (ctx.zero(), ctx.zero())))
        assert idempotent_rank(IdempotentMatrix(honest, m)).rank == 1
        scalars, _ = self._base(preset, precision, bad_neg=ctx.one())
        with pytest.raises(AssertionError, match="^pivot row failed to clear$"):
            idempotent_rank(IdempotentMatrix(scalars, m))

    @pytest.mark.parametrize("preset,precision", CONTROL_BASES)
    def test_unit_taken_for_radical_fails_the_block_check(self, preset,
                                                          precision):
        ctx = parse_ring_preset(preset)
        scalars, lift = self._base(preset, precision, liar=ctx.one())
        m = tuple(tuple(map(lift, row))
                  for row in ((ctx.one(), ctx.zero()), (ctx.zero(), ctx.zero())))
        with pytest.raises(AssertionError,
                           match="^radical-entry idempotent block is nonzero$"):
            idempotent_rank(IdempotentMatrix(scalars, m))

    @pytest.mark.parametrize("preset,precision", CONTROL_BASES)
    def test_wrong_inverse_fails_the_row_completion(self, preset, precision):
        ctx = parse_ring_preset(preset)
        u = self._unit(ctx)
        scalars, lift = self._base(preset, precision, bad_inv=u)
        with pytest.raises(AssertionError,
                           match="^row completion failed to verify$"):
            unimodular_complete(scalars, (lift(u), lift(ctx.one())))


def _fresh(e):
    """An IdempotentMatrix equal to e that keeps no witness."""
    return IdempotentMatrix(e.scalars, e.entries)


def _kept(e):
    return getattr(e, "_witness", None)


class TestWitnessReuse:
    """idempotent_rank keeps its witness on the matrix once it verifies: a
    second call returns that object, and stable_iso_witness and
    stably_free_witness called after it give what they give on fresh,
    equal matrices.  The oracle is idempotent_rank on a fresh copy."""

    @pytest.mark.parametrize("preset", VERIFY_PRESETS)
    def test_matches_fresh_copies(self, preset):
        ctx = parse_ring_preset(preset)
        for precision in VERIFY_PRECISIONS:
            scalars = _scalars_on(ctx, precision)
            for n in range(1, 7):
                tag = f"{preset}/{precision}/{n}"
                e = _idempotent_or_constant(scalars, n, tag)
                # the same rank, so stable_iso_witness builds W; and one
                # size smaller, so one side is padded
                other = IdempotentMatrix(
                    scalars, tuple(row[::-1] for row in e.entries[::-1]))
                small = _idempotent_or_constant(scalars, max(n - 1, 1),
                                               tag + "/small")
                w = _outcome(idempotent_rank, e)
                want = _outcome(idempotent_rank, _fresh(e))
                assert _parts(w) == _parts(want), tag
                if isinstance(w, RankWitness):
                    assert _kept(e) is w and idempotent_rank(e) is w, tag
                else:
                    # only a witness that verified is kept
                    assert _kept(e) is None, tag
                _outcome(idempotent_rank, other)
                for pair in ((e, other), (e, small), (small, e)):
                    got = _outcome(stable_iso_witness, *pair)
                    want = _outcome(stable_iso_witness,
                                    *(_fresh(x) for x in pair))
                    assert _parts(got or ()) == _parts(want or ()), (tag, pair)
                for s in (0, 2):
                    got = _outcome(stably_free_witness, e, s)
                    want = _outcome(stably_free_witness, _fresh(e), s)
                    assert _parts(got) == _parts(want), (tag, s)
                if isinstance(w, RankWitness):
                    assert _kept(e) is w, tag

    @pytest.mark.parametrize("preset,precision", CONTROL_BASES)
    def test_a_failed_verify_is_never_kept(self, preset, precision,
                                           monkeypatch):
        # must-fail control: with verify failing, every call raises, also
        # after the first, and the matrix keeps nothing
        scalars = _scalars_on(parse_ring_preset(preset), precision)
        e, _ = random_idempotent(scalars, 3, random.Random(f"{preset}/kept"))
        monkeypatch.setattr(RankWitness, "verify", lambda self: False)
        for call in (idempotent_rank, idempotent_rank,
                     lambda m: stable_iso_witness(m, m),
                     lambda m: stably_free_witness(m, 1), idempotent_rank):
            with pytest.raises(AssertionError,
                               match="^rank certificate failed to verify$"):
                call(e)
            assert _kept(e) is None
        monkeypatch.undo()
        w = idempotent_rank(e)
        assert w.verify() and _kept(e) is w

    def test_instances_built_without_init(self, z8):
        # pickle and object.__new__ leave the slot unset, and such a matrix
        # is diagonalized as usual
        scalars = BaseScalars(z8)
        e = IdempotentMatrix(scalars, ((1, 2), (0, 0)))
        bare = object.__new__(IdempotentMatrix)
        for name, value in zip(e._fields, e._values()):
            object.__setattr__(bare, name, value)
        w = idempotent_rank(e)
        copy = pickle.loads(pickle.dumps(e))
        for m in (bare, copy):
            assert _kept(m) is None
            got = idempotent_rank(m)
            assert got is not w and got == w and _kept(m) is got

    def test_concurrent_first_calls(self, f27):
        # more threads than cores race on one matrix's first call: each
        # gets a witness equal to a fresh copy's, and the one kept is one
        # of them
        scalars = SeriesScalars(f27, 4)
        e, _ = random_idempotent(scalars, 4, random.Random("threads"))
        want = idempotent_rank(_fresh(e))
        results = []
        barrier = threading.Barrier(6)

        def first_call():
            barrier.wait(timeout=30)
            results.append(idempotent_rank(e))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_call) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 6 and all(w == want for w in results)
        assert any(_kept(e) is w for w in results)
        assert idempotent_rank(e) is _kept(e)


# None is the base R itself
PAD_PRECISIONS = (None, 1, 2, 4)
PAD_DRAWS = 5
PAD_CASES = len(PAD_PRECISIONS) * 4 * PAD_DRAWS * 3


def _padded_by_rank(e, k):
    """The oracle of RankWitness.padded: idempotent_rank of e zero-padded
    by k, a new matrix diagonalized on its own, or the error it raises."""
    s = e.scalars
    return _outcome(idempotent_rank, IdempotentMatrix(
        s, mat_direct_sum(s, e.entries, mat_diag(s, [0] * k))))


def _zero_padded_inverse(w, n):
    """Mutant of RankWitness.padded: U^-1 gets a zero block, not I."""
    s, k = w.scalars, n - len(w.matrix)
    good = w.padded(n)
    return RankWitness(s, good.matrix, good.rank, good.conjugator,
                       mat_direct_sum(s, w.conjugator_inv, mat_diag(s, [0] * k)))


def _padding_mismatches(preset, pad):
    """(case, padded, oracle) for each drawn idempotent of size 1..4 over R
    and S/G_N, N in PAD_PRECISIONS, padded by 1..3 with pad, where pad's
    witness differs from the oracle's (or raises otherwise) or fails
    RankWitness.verify."""
    ctx = parse_ring_preset(preset)
    found = []
    for precision in PAD_PRECISIONS:
        scalars = _scalars_on(ctx, precision)
        for n in range(1, 5):
            for draw in range(PAD_DRAWS):
                e = _idempotent_or_constant(
                    scalars, n, f"{preset}/{precision}/{n}/pad{draw}")
                for k in (1, 2, 3):
                    case = (precision, n, draw, k)
                    got = _outcome(lambda: pad(idempotent_rank(e), n + k))
                    want = _padded_by_rank(e, k)
                    if _parts(got) != _parts(want) or (
                            isinstance(got, RankWitness) and not got.verify()):
                        found.append((case, got, want))
    return found


class TestPaddedWitness:
    """RankWitness.padded, which stable_iso_witness applies to the kept
    witness of a smaller input, against the witness of the padded matrix
    diagonalized on its own: equal, or both raise alike, and verified."""

    @pytest.mark.parametrize("preset", VERIFY_PRESETS)
    def test_matches_the_padded_matrix(self, preset):
        assert _padding_mismatches(preset, RankWitness.padded) == []

    def test_a_zero_block_in_the_inverse_is_caught(self):
        # must-fail control: the mutant is caught on every case
        found = _padding_mismatches("truncpoly:3:3:c=2", _zero_padded_inverse)
        assert len(found) == PAD_CASES
        assert all(not got.verify() for _, got, _ in found)

    def test_a_witness_of_the_size_is_returned_as_it_is(self, z8):
        w = idempotent_rank(IdempotentMatrix(BaseScalars(z8), ((1, 2), (0, 0))))
        assert w.padded(2) is w
