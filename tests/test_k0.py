import itertools
import random

import pytest

from conftest import PRESET_MATRIX
from skewseries import k0, skewpoly
from skewseries import (BaseScalars, IdempotentMatrix, SeriesScalars, SkewPoly,
                        TruncatedSeries, idempotent_rank, k0_rank_check,
                        parse_ring_preset, random_idempotent,
                        random_invertible, serre_transfer_check,
                        stable_iso_witness, stably_free_witness,
                        unimodular_complete)
from skewseries.k0 import (RankWitness, mat_diag, mat_direct_sum, mat_identity,
                          mat_mul, render_matrix)
from skewseries.series import random_series_in_filtration
from skewseries.skewpoly import _check_vanishing, monomial_operator_apply


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

    def test_handworked_rank_one(self, z8):
        scalars = BaseScalars(z8)
        e = IdempotentMatrix(scalars, ((1, 2), (0, 0)))
        w = idempotent_rank(e)
        assert w.rank == 1
        assert w.verify()

    def test_not_idempotent_rejected(self, z8):
        with pytest.raises(ValueError, match="not idempotent"):
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
            report = k0_rank_check(ctx, 25, seed=55)
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

    @pytest.mark.parametrize("sizes,products", [((3, 3), 14), ((2, 3), 15)])
    def test_matrix_products(self, f27, monkeypatch, sizes, products):
        # 4 per rank certificate, 2 for W and W^-1 and 4 to verify them,
        # plus the e*e = e check of each input that had to be padded
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
        assert (w.rank, w.s, w.t) == (0, 1, 0)
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
        with pytest.raises(ValueError, match="not unimodular"):
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

    @pytest.mark.parametrize("precision", INV_PRECISIONS)
    def test_series_products(self, monkeypatch, precision):
        # ceil(log2 N) rounds of two products, then the two-sided check;
        # the geometric series made N + 3
        scalars = SeriesScalars(parse_ring_preset("truncpoly:3:3:c=2"), precision)
        a = k0._sample_unit(scalars, random.Random(precision))
        calls = []
        plain_mul = TruncatedSeries.__mul__

        def counted_mul(x, y):
            calls.append(1)
            return plain_mul(x, y)

        monkeypatch.setattr(TruncatedSeries, "__mul__", counted_mul)
        scalars.inv(a)
        rounds = (precision - 1).bit_length()
        assert 2 ** rounds >= precision
        assert len(calls) <= 2 * rounds + 2

    @pytest.mark.parametrize("precision", (2, 3, 4, 8))
    def test_broken_preset_fails_to_verify(self, precision):
        # delta=broken is not a derivation, so S/G_N is not associative and
        # most units have no two-sided inverse; inv raises exactly when the
        # geometric series fails to verify too
        scalars = SeriesScalars(
            parse_ring_preset("truncpoly:3:3:c=2:delta=broken"), precision)
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


DOT_PRESETS = PRESET_MATRIX + ("truncpoly:3:3:c=2:delta=broken",)
# (rows of a, inner size, columns of b): square, row times column, column
# times row, rectangular
DOT_SHAPES = ((3, 3, 3), (1, 5, 1), (5, 1, 5), (2, 3, 4))


def _random_matrix(scalars, rows, cols, rng):
    """Entries are zero a third of the time, so zero products and trimmed
    factors occur too."""
    zero = scalars.zero()
    return tuple(tuple(zero if rng.random() < 1 / 3 else scalars.sample(rng)
                       for _ in range(cols)) for _ in range(rows))


def _pairwise_lookups(scalars, a, b):
    """The monomial operator lookups of one closed product per pair of
    entries of a * b over S/G_N: a call for every term a_j M_{j-n,n}(b_i)
    with a_j != 0, j - n < d and n < N - i, after the vanishing check of
    each nonzero b_i."""
    ctx, precision = scalars.ctx, scalars.precision
    zero, d = ctx.zero(), ctx.mkl_depth()
    for row in a:
        for col in zip(*b):
            for x, y in zip(row, col):
                fa = SkewPoly(ctx, x.coeffs).coeffs
                la = len(fa)
                for i, b_i in enumerate(SkewPoly(ctx, y.coeffs).coeffs):
                    if not la or i >= precision or b_i == zero:
                        continue
                    top = min(la, precision - i)
                    if min(la - 1 - d, top - 1) >= 0:
                        _check_vanishing(ctx, b_i, min(la - 1 - d, top - 1))
                    for n in range(top):
                        for j in range(n, min(la, n + d)):
                            if fa[j] != zero:
                                monomial_operator_apply(ctx, j - n, n, b_i)


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
                    _pairwise_lookups(SeriesScalars(ref, precision), a, b)
        # operator values are fetched only where a closed product per pair
        # of entries looks them up, so the memo ends up the same
        assert ctx._mkl_cache.keys() == ref._mkl_cache.keys()

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
        # where = (in b?, row, column) of the one foreign entry
        scalars = SeriesScalars(f27, 3)
        foreign = (TruncatedSeries.one(f27, 4) if wrong == "precision"
                   else TruncatedSeries.one(z8, 3))
        matrices = [[[scalars.one()] * 2 for _ in range(2)] for _ in range(2)]
        side, i, j = where
        matrices[side][i][j] = foreign
        a, b = (tuple(map(tuple, m)) for m in matrices)
        with pytest.raises(ValueError, match=message):
            mat_mul(scalars, a, b)
        with pytest.raises(ValueError, match=message):
            IdempotentMatrix(scalars, matrices[side])

    def test_series_product_builds_each_entry_once(self, monkeypatch):
        # a fresh context, since its mul is counted by an instance override
        # and its M_{k,l} memo starts empty
        ctx = parse_ring_preset("truncpoly:3:3:c=2")
        scalars = SeriesScalars(ctx, 4)
        rng = random.Random(73)
        a = _random_matrix(scalars, 6, 6, rng)
        b = _random_matrix(scalars, 6, 6, rng)
        counts = {"series": 0, "mul": 0, "mkl": 0}
        plain_init, plain_mul = TruncatedSeries.__init__, ctx.mul
        plain_mkl = skewpoly.monomial_operator_apply

        def counted_init(self, *args):
            counts["series"] += 1
            plain_init(self, *args)

        def counted_mul(x, y):
            counts["mul"] += 1
            return plain_mul(x, y)

        def counted_mkl(*args):
            counts["mkl"] += 1
            return plain_mkl(*args)

        ctx.mul = counted_mul
        monkeypatch.setattr(TruncatedSeries, "__init__", counted_init)
        monkeypatch.setattr(skewpoly, "monomial_operator_apply", counted_mkl)
        fused = mat_mul(scalars, a, b)
        fused_counts = dict(counts)
        counts.update(series=0, mul=0)
        assert fused == schoolbook_mat_mul(scalars, a, b)
        assert fused_counts["series"] <= 36
        assert fused_counts["mul"] == counts["mul"] > 0
        # the operator values of each entry of b are fetched once for all
        # six rows of a: 1763 lookups with one closed product per pair of
        # entries, 175 here
        assert 0 < fused_counts["mkl"] <= 1763 // 6


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
        report = serre_transfer_check(f27, 4, size_limit=3, samples=10, seed=67)
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


class TestSeededGenerators:
    @pytest.fixture
    def bases(self, z8, f27):
        return {"z8": BaseScalars(z8), "s3": SeriesScalars(f27, 3)}

    @pytest.mark.parametrize("base,seed,n,m,minv", PINNED_INVERTIBLES)
    def test_random_invertible_is_pinned(self, bases, base, seed, n, m, minv):
        scalars = bases[base]
        got, got_inv = random_invertible(scalars, n, random.Random(seed))
        assert render_matrix(scalars, got) == m
        assert render_matrix(scalars, got_inv) == minv
        assert mat_mul(scalars, got, got_inv) == mat_identity(scalars, n)

    @pytest.mark.parametrize("base,seed,ones,entries", PINNED_IDEMPOTENTS)
    def test_random_idempotent_is_pinned(self, bases, base, seed, ones, entries):
        scalars = bases[base]
        e, got_ones = random_idempotent(scalars, 3, random.Random(seed))
        assert got_ones == ones
        assert render_matrix(scalars, e.entries) == entries
        assert idempotent_rank(e).rank == ones
