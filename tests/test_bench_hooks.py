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
    # call is still seen (the counts before the memo, pinned).  The sums
    # t + x and 2 + t*x make 4 adds, a sum of classes adding no slot past
    # both operands' last nonzero one; t*x is built as the monomial, with
    # no product.  A power starts from the base at the lowest set bit of
    # the exponent, so (t + x)^9 squares t + x (1 mul and 4 adds) and then
    # (t + x)^2 = 2t^2 + x^2 (1 mul and 3 adds); (t + x)^4 is zero in S/G_4,
    # and the products left have a zero factor and make no ring call.  A
    # coefficient 1 costs no multiplication: of the terms of (t + x)^2 only
    # t*t is a product, and of those of (2t^2 + x^2)^2 only 2t^2*2t^2; a
    # right coefficient 1 adds its partner's coefficients, and a slot still
    # zero takes one with no add.  Reading whether x*1 = 1*x, once per
    # product, asks sigma(1) and delta(1) on the first: the 2 sigma/delta
    # calls.  The operator rows come from truncpoly's closed form
    # (RingContext._closed_rows), which calls no counted ring method
    assert layers["rings.mul_calls"][0] == 2
    assert layers["rings.add_calls"][0] == 11
    assert layers["rings.sigma_delta_calls"][0] == 2


def test_tracer_sees_the_series_matrix_products(monkeypatch):
    # the fused dot-product kernel must stay behind the k0.mat_mul name
    tracer = _traced_layers(monkeypatch, RANK_SERIES_ARGV)
    layers = tracer.metrics()
    assert layers["k0.rank_calls"][0] == 1
    assert layers["k0.mat_mul_calls"][0] > 0
    assert any(span[0] == "k0.verify" for span in tracer.spans)
    # every product is a block product, as above: a factor equal to 1 adds
    # its partner's coefficients with no multiplication, a product by 1
    # whose output holds nothing else is the partner itself, a coefficient
    # 1 of either factor costs no multiplication either (see the test
    # above), and a sum of classes adds no slot past both operands' last
    # nonzero one.  The counts consist of:
    # - the nine entries, whose constants are folded in R, whose c*x^k
    #   terms are built directly and whose seven t^2 are folded from t:
    #   16 muls and 43 adds;
    # - the first x*1 = 1*x, which asks sigma(1) and delta(1) once (delta
    #   is truncpoly's closed formula and calls neither sigma nor sub): the
    #   2 sigma/delta calls, the operator rows coming from the closed form
    #   with no ring call;
    # - the check I^3 = 0 != I^2, which builds the radical products a level
    #   at a time and reads those of I^2 from I^3's levels: 3 muls;
    # - e*e = e, checked when the matrix is read: 123 muls and 137 adds;
    # - the row and column steps of idempotent_rank, each x + v*y
    #   accumulated onto x: 289 muls and 331 adds;
    # - its two series inverses, Newton rounds that stop once 1 - ab is
    #   zero, each checked by both products, with the two verified inverses
    #   of their constant terms in R: 28 muls and 37 adds;
    # - the certificate's U*U^-1 and U^-1*U (170 muls and 228 adds) and U*e
    #   (90 muls and 105 adds), which equals D*U, U's rows selected, so
    #   (U*e)*U^-1 is not taken
    assert layers["rings.mul_calls"][0] == 719
    assert layers["rings.add_calls"][0] == 881
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
