"""The benchmark's tracer patches names in src/; a refactor that moves one
of them would otherwise only break ``bench/run.py --trace 1``."""

import contextlib
import io
import pathlib

import pytest

from skewseries import cli

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench"
ARGV = ["rank", "6,5,5;5,6,5;5,5,6", "--ring", "zmod:2^3"]
# a power and a product evaluated directly in S/G_4
NORMALIZE_ARGV = ["normalize", "(t + x)^9 * (2 + t*x)", "--ring",
                  "truncpoly:3:3:c=2", "--prec", "4"]
# random_idempotent over S/G_4 (seed 5, n = 3) of rank 2; its certificate
# is verified by matrix products of series
RANK_SERIES_ARGV = [
    "rank",
    "0, 2*t^2 + t*x + t*x^2, (1 + t)*x + (2 + 2*t)*x^2;"
    "2 + 2*t + 2*x + t*x^2 + 2*x^3, 1 + 2*t^2 + (t + t^2)*x, (1 + 2*t + 2*t^2)*x + 2*x^3;"
    "2*t + t^2 + (2*t + t^2)*x + 2*t*x^2 + x^3, t^2*x, 1 + t*x",
    "--ring", "truncpoly:3:3:c=2", "--prec", "4"]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _traced_layers(monkeypatch, argv):
    """Run argv untraced and traced; the outputs must agree and every
    wrapper must come off again.  Returns the tracer."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    from tracer import Tracer

    plain = _run(argv)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _run(argv)
    finally:
        removed = tracer.uninstall()
    assert removed
    assert traced == plain
    return tracer


def test_tracer_hooks_fit_the_program(monkeypatch):
    tracer = _traced_layers(monkeypatch, ARGV)
    layers = tracer.metrics()
    assert layers["k0.rank_calls"][0] == 1
    assert layers["k0.scalar_mul_calls"][0] > 0
    # the ring set-up names the tracer wraps are still called, not just present
    assert any(span[0] == "rings.setup" for span in tracer.spans)


def test_tracer_sees_the_product_kernel(monkeypatch):
    layers = _traced_layers(monkeypatch, NORMALIZE_ARGV).metrics()
    # truncpoly's closed form builds the operator rows, so the product
    # kernel makes no call of the M_{k,l} recursion (the mkl-oracle suite
    # below still does)
    assert layers["skewpoly.mkl_calls"][0] == 0
    assert layers["series.mul_calls"][0] > 0
    # the ring operations' memo sits behind the counted methods: every
    # call is still seen (the counts before the memo, pinned).  The operator
    # rows fill M_{k,n}(b) for every k <= d up to the last n a product
    # needs, since row n is admitted only once M_{d,n}(b) = 0 is checked:
    # 14 adds and 14 sigma/delta calls more than checking only the terms a
    # product skips.  t*x is built as the monomial, without the series
    # product and its one mul and one add; nothing multiplies or raises
    # x-powers, so sigma(1) and delta(1) are not asked.  A sum of classes
    # adds only up to the longer operand's last nonzero slot, since classes
    # are stored without trailing zeros: 58 -> 54 adds.  Every product goes
    # through the block kernel, so the power's first step 1 * (t + x) adds
    # the two coefficients of t + x with no ring multiplication: 10 -> 8
    # muls (the adds it makes stay, and it reads no operator row the later
    # products do not fill anyway: 54 adds and 40 sigma/delta calls).  A
    # power now starts from the base at the lowest set bit of the exponent,
    # so the step 1 * (t + x) is not taken at all, and its two adds of a
    # coefficient onto a zero slot go: 54 -> 52 adds (a product by 1 whose
    # output holds nothing else is its partner, with no add, in any case).
    # The operator rows now come from truncpoly's closed form
    # (RingContext._closed_rows), which scales the coefficients of b by
    # precomputed weights and calls no counted ring method, so every add
    # and sigma/delta call of the recursion goes: 52 -> 12 adds and
    # 40 -> 0 sigma/delta calls
    assert layers["rings.mul_calls"][0] == 8
    assert layers["rings.add_calls"][0] == 12
    assert layers["rings.sigma_delta_calls"][0] == 0


def test_tracer_sees_the_series_matrix_products(monkeypatch):
    # the fused dot-product kernel must stay behind the k0.mat_mul name
    tracer = _traced_layers(monkeypatch, RANK_SERIES_ARGV)
    layers = tracer.metrics()
    assert layers["k0.rank_calls"][0] == 1
    assert layers["k0.mat_mul_calls"][0] > 0
    assert any(span[0] == "k0.verify" for span in tracer.spans)
    # as above, with 14 recursion steps for the full operator rows, and the
    # checked M_{d,n}(b) of every row: 102 adds and 102 sigma/delta calls
    # more than checking only the skipped terms.  Each
    # step x + v*y of a row or column operation accumulates the terms of
    # v*y onto the coefficients of x, so it makes no slot-by-slot add after
    # the product.  The entries fold their constants in R and build their
    # c*x^k terms directly: 54 -> 23 muls and 148 -> 62 adds for the nine
    # entries; five of those adds, and 15 sigma/delta calls, were the five
    # entries with x^2 or x^3 each asking sigma(1) and delta(1).  The
    # operator rows of 1 that x*x used to fill (10 sigma/delta calls and 10
    # adds) are now filled by the certificate's products instead.  Sums of
    # classes (the Newton steps of inv among them) add no zero slot past
    # both operands' last nonzero one: 1499 -> 1467 adds.  In the
    # certificate's matrix products a factor equal to 1 adds its partner's
    # coefficients with no ring multiplication: 58 products by a left 1 and
    # 34 by a right 1, 1028 -> 936 muls (the adds they feed stay).  Each of
    # the two inverses stops once 1 - ab is zero, so its last round no
    # longer adds b*0 = 0 to b, two slots each.  The entries' powers of x
    # and the right factors 1 ask x*1 = 1*x of the context, which computes
    # it on the first ask only: sigma(1) and delta(1) (delta calls sigma,
    # so 3 counted calls) and the add of delta's difference, once instead
    # of six times (five entries and the right 1): 1467 - 5 + 1 - 4 = 1459
    # adds and 431 -> 416 sigma/delta calls.  The row and column steps of
    # the elementary operations and the single series products are block
    # products as well, so their products by 1 cost no multiplication
    # either: 23 by a left 1 and 16 by a right 1 in the steps, 3 in the
    # single products, 936 -> 894 muls (the 1459 adds and 416 sigma/delta
    # calls stay).  A product by 1 whose output holds nothing else is now
    # the partner's class itself, so the adds of its coefficients onto zero
    # slots go: 1459 -> 1387 adds.  The seven t^2 of the entries are folded
    # from t, as a power now starts from the base at the lowest set bit of
    # the exponent, not from 1 * t: 894 -> 887 muls.  At N = 4 the Newton
    # rounds of inv run at 4 with precision doubling too (round 1 at N,
    # round 2 at 2^2 = N), so they make the same ring calls as before.
    # The operator rows come from truncpoly's closed form, with no ring
    # call, so the recursion's adds and sigma/delta calls go: 1387 -> 974
    # adds and 416 -> 3 sigma/delta calls, the 3 of x*1 = 1*x asking
    # sigma(1) and delta(1) once (the muls stay).  truncpoly's delta is
    # now its closed formula and calls neither sigma nor sub, so x*1 = 1*x
    # makes one sigma and one delta call and no add of its own: 974 -> 973
    # adds and 3 -> 2 sigma/delta calls.  is_local answers from the residue
    # field, F_3, and no longer verifies inverses of residues 1 and 2 by two
    # products each: 887 -> 883 muls.  The radical products that check
    # I^3 = 0 != I^2 are built a level at a time and kept, so those of I^2
    # are read from I^3's levels, not built again from 1: 883 -> 881 muls.
    # The rank certificate checks U*e = D*U, D*U being U's rows selected,
    # in place of the product (U*e)*U^-1 = D: 881 -> 821 muls and the
    # 973 -> 900 adds that summed them (the sigma/delta calls stay)
    assert layers["rings.mul_calls"][0] == 821
    assert layers["rings.add_calls"][0] == 900
    assert layers["rings.sigma_delta_calls"][0] == 2


@pytest.mark.parametrize("suite, counter", [
    ("ring-axioms", "rings.mul_calls"),
    # mkl-oracle never multiplies; its tables are of sigma and delta
    ("mkl-oracle", "rings.sigma_delta_calls")])
def test_tracer_counts_the_tabled_suites(monkeypatch, suite, counter):
    # the family's add and mul tables and word sums bypass the instance's
    # operations that the tracer wraps; what its counts still see is
    # ring-axioms' ctx.mul calls of the single-element laws, and
    # mkl-oracle's sigma and delta tables and its recursion
    argv = ["check", suite, "--ring", "truncpoly:3:3:c=2"]
    layers = _traced_layers(monkeypatch, argv).metrics()
    assert layers[counter][0] > 0
    assert layers["suites.checked"][0] > 0
    if suite == "mkl-oracle":
        # the recursion is the closed form's oracle here, so the tracer's
        # hook on monomial_operator_apply still sees calls
        assert layers["skewpoly.mkl_calls"][0] > 0


def test_every_pool_item_passes_its_gate(monkeypatch):
    # The benchmark's workloads call names in src/ (poly_mul_commutation
    # among them) that no other test reaches through bench/.  Every item of
    # each seed-7 pool must pass its gate; cli-cold's pool holds the known
    # delta=broken serre-transfer crash once per copy of its table.
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    from workloads import WORKLOADS

    outcomes = {}
    for name, workload in WORKLOADS.items():
        state = workload.setup()
        outcomes[name] = [outcome for item in workload.generate(7)
                          if (outcome := workload.gate(
                              state, item, workload.request(state, item))) != "ok"]
    assert outcomes == {"expr-warm": [], "rank-mixed": [],
                        "cli-cold": ["internal-error"] * 2}
