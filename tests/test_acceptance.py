"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything here is exact arithmetic; there are no tolerances to tune.
"""

import contextlib
import io
import itertools
import math
import pathlib
import random

from skewseries import (BaseScalars, IdempotentMatrix, SeriesScalars,
                        filtration_generators, idempotent_rank,
                        monomial_operator_apply, monomial_operator_words,
                        parse_ring_preset, poly_mul_commutation,
                        random_idempotent, run_property_suite,
                        sigma_nilpotence_bound, stable_iso_witness)
from skewseries.cli import main
from skewseries.k0 import mat_direct_sum, mat_identity, mat_mul
from skewseries.suites import random_poly

Z8 = parse_ring_preset("zmod:2^3")
F27 = parse_ring_preset("truncpoly:3:3:c=2")
Z4 = parse_ring_preset("zmod:2^2")
PRESETS = (Z8, F27)


def _report(number, description):
    print(f"ACCEPTANCE {number:2d} PASS  {description}")


def test_criterion_01_mkl_oracle_equivalence():
    for ctx in PRESETS:
        for total in range(7):
            for k in range(total + 1):
                l = total - k
                for a in ctx.elements():
                    by_words, count = monomial_operator_words(ctx, k, l, a)
                    assert count == math.comb(total, k)
                    assert by_words == monomial_operator_apply(ctx, k, l, a)
    _report(1, "M_{k,l} recursion == word enumeration, k+l <= 6, both carriers")


def test_criterion_02_product_cross_validation():
    rng = random.Random(2024)
    for ctx in PRESETS:
        for _ in range(200):
            f = random_poly(ctx, 4, rng)
            g = random_poly(ctx, 4, rng)
            assert f * g == poly_mul_commutation(f, g)
    _report(2, "closed-formula product == iterated commutation, 200 pairs/preset")


def test_criterion_03_series_ring_laws():
    for ctx in PRESETS:
        for n in range(2, 7):
            report = run_property_suite("series-assoc", ctx, n, 200, 300 + n)
            assert report.passed, report.counterexample
    _report(3, "S/G_N associativity + distributivity, N in 2..6, 200 triples each")


def test_criterion_04_ideal_closure_and_submultiplicativity():
    for ctx in PRESETS:
        for n in range(1, 7):
            # filtration index k runs with seed 400 + 10 * n + k
            report = run_property_suite("ideal-closure", ctx, n, 200, 400 + 10 * n)
            assert report.passed, report.counterexample
            gens = [len(filtration_generators(ctx, n, k)) for k in range(n + 1)]
            assert all(gens)
            assert report.details["generator_checks"] == 2 * sum(gens)
    _report(4, "G_k two-sided closure + G_k*G_l <= G_(k+l), k <= N <= 6, "
               "x-multiplication exhaustive on generators")


def test_criterion_05_graded_symbol_multiplicativity():
    for ctx in PRESETS:
        report = run_property_suite("graded-iso", ctx, 6, 200, 500)
        assert report.passed, report.counterexample
        assert report.details["exact_branch"] > 0
        assert report.details["jump_branch"] > 0
    _report(5, "principal symbol is multiplicative incl. cancellation branch, "
               "N=6, 200 samples/preset")


def test_criterion_06_sigma_nilpotence_bounds():
    for ctx in PRESETS:
        nil = ctx.radical_nilpotency
        for n in range(1, nil + 1):
            m = sigma_nilpotence_bound(ctx, n)
            assert m is not None and m <= n
        assert sigma_nilpotence_bound(ctx, nil + 2) == \
            sigma_nilpotence_bound(ctx, nil)
    _report(6, "sigma-nilpotence bound m <= n for all n <= nilpotency, both presets")


def test_criterion_07_k0_baseline_exhaustive_z4():
    scalars = BaseScalars(Z4)
    elems = sorted(Z4.elements())
    idempotents = []
    for a, b, c, d in itertools.product(elems, repeat=4):
        m = ((a, b), (c, d))
        if mat_mul(scalars, m, m) == m:
            idempotents.append(m)
    ranks = {}
    for e in idempotents:
        w = idempotent_rank(IdempotentMatrix(scalars, e))
        assert w.verify()
        ranks[e] = w.rank
    assert set(ranks.values()) == {0, 1, 2}

    # brute-force conjugacy classes agree with the rank classification
    ident = mat_identity(scalars, 2)
    invertibles = {}
    mats = [((a, b), (c, d))
            for a, b, c, d in itertools.product(elems, repeat=4)]
    for m in mats:
        for w in mats:
            if mat_mul(scalars, m, w) == ident and mat_mul(scalars, w, m) == ident:
                invertibles[m] = w
                break
    for e in idempotents:
        orbit = {mat_mul(scalars, mat_mul(scalars, v, e), vinv)
                 for v, vinv in invertibles.items()}
        assert orbit == {f for f in idempotents if ranks[f] == ranks[e]}

    # rank additivity on every pair
    for e1 in idempotents:
        for e2 in idempotents:
            direct = IdempotentMatrix(scalars, mat_direct_sum(scalars, e1, e2))
            assert idempotent_rank(direct).rank == ranks[e1] + ranks[e2]
    _report(7, f"Z/4 exhaustive baseline: {len(idempotents)} idempotents "
               "diagonalize; conjugacy == rank; additivity on all pairs")


def test_criterion_08_stable_iso_iff_equal_rank():
    rng = random.Random(800)
    bases = [BaseScalars(Z8), BaseScalars(F27),
             SeriesScalars(Z8, 4), SeriesScalars(F27, 4)]
    for scalars in bases:
        for _ in range(50):
            e1, r1 = random_idempotent(scalars, rng.randint(1, 3), rng)
            e2, r2 = random_idempotent(scalars, rng.randint(1, 3), rng)
            witness = stable_iso_witness(e1, e2)
            assert (witness is not None) == (r1 == r2)
            if witness is not None:
                assert witness.t == 0
                assert witness.verify()
    _report(8, "stable-iso witness exists with t=0 iff ranks agree, "
               "50 pairs over R and S/G_4 for both presets")


def test_criterion_09_serre_transfer_witness():
    report = run_property_suite("serre-transfer", F27, 4, 50, 900)
    assert report.passed, report.counterexample
    assert report.checked >= 100
    _report(9, "50 random idempotents over S/G_4 (q-twist preset) certify their "
               "rank; constant idempotents agree over R and S/G_4")


def test_criterion_10_cli_contract():
    from test_parser_cli import GOLDEN_CASES, run_cli

    golden_dir = pathlib.Path(__file__).parent / "golden"
    for fname, argv, expected_code in GOLDEN_CASES:
        runs = [run_cli(argv) for _ in range(2)]
        assert runs[0] == runs[1], f"nondeterministic output for {fname}"
        code, out, _ = runs[0]
        assert code == expected_code
        assert out == (golden_dir / fname).read_text()
    # usage errors exit 2
    for argv in (["check", "nosuchsuite"],
                 ["normalize", "x^^2", "--ring", "zmod:2^3"],
                 ["normalize", "x", "--ring", "zmod:6^1"]):
        buf_out, buf_err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf_out), contextlib.redirect_stderr(buf_err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code == 2
    _report(10, "golden transcripts byte-identical across runs; exit codes 0/1/2")
