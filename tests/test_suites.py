"""run_property_suite over the preset matrix: the verdict of every suite on
each preset and on the delta=broken control, the sample count the runner
requires of every suite, and a FAIL verdict from each suite whose
counterexample no preset reaches (from poly-assoc and series-assoc, one per
counterexample text), on a layer with one planted fault."""

import pytest

from conftest import BROKEN_PRESET, PRESET_MATRIX
from skewseries import (SUITE_NAMES, SkewPoly, TruncatedSeries, k0,
                        parse_ring_preset, run_property_suite, series, skewpoly)
from skewseries.skewpoly import _LeftForm

# the suites that find a counterexample on the delta=broken control, where
# delta breaks the Leibniz rule and so S/G_N is not associative
FAIL_ON_BROKEN = {"sigma-derivation", "poly-assoc", "series-assoc"}


@pytest.mark.parametrize("preset", PRESET_MATRIX + (BROKEN_PRESET,))
@pytest.mark.parametrize("name", SUITE_NAMES)
def test_verdict_over_the_preset_matrix(name, preset):
    ctx = parse_ring_preset(preset)
    if (name, preset) == ("serre-transfer", BROKEN_PRESET):
        # a known finding: a rank certificate inside the suite fails to
        # verify and ends the run, where a FAIL verdict is wanted
        with pytest.raises(AssertionError,
                           match="^geometric inverse failed to verify$"):
            run_property_suite(name, ctx, None, 3, 7)
        return
    report = run_property_suite(name, ctx, None, 3, 7)
    fails = preset == BROKEN_PRESET and name in FAIL_ON_BROKEN
    assert report.name == name
    assert report.passed is not fails, report.counterexample
    assert report.passed == (report.counterexample is None)
    assert report.checked > 0


@pytest.mark.parametrize("samples", [0, -1])
@pytest.mark.parametrize("name", SUITE_NAMES)
def test_every_suite_rejects_fewer_than_one_sample(name, samples):
    with pytest.raises(ValueError, match="samples must be >= 1"):
        run_property_suite(name, parse_ring_preset("zmod:2^3"), None,
                           samples, 0)


def _generators_two_layers_low():
    """series.filtration_generators, giving those of G_(k-2) for G_k."""
    plain = series.filtration_generators
    return lambda ctx, precision, k: plain(ctx, precision, max(k - 2, 0))


def _without_delta_terms():
    """series.monomial_operator_apply with every M_{k,n}(b) of k >= 1
    delta factors zero."""
    plain = series.monomial_operator_apply
    return lambda ctx, k, n, b: ctx.zero() if k else plain(ctx, k, n, b)


def _misreported_rank(base):
    """random_idempotent, reporting one more than the rank it built when
    its matrix is over ``base``."""
    plain = k0.random_idempotent

    def lying(scalars, n, rng):
        e, ones = plain(scalars, n, rng)
        return e, ones + isinstance(scalars, base)
    return lying


def _products_off_by_one():
    """poly_mul_commutation, giving one more than the product."""
    plain = skewpoly.poly_mul_commutation
    return lambda f, g: plain(f, g) + SkewPoly.one(f.ctx)


def _sums_multiplying_off_by_one(reflected):
    """SkewPoly.__add__, whose sums are right but multiply to one more than
    the product: as left factors, or (reflected) as right factors, where
    Python tries a subclass's reflected product first.  A sum of the wrong
    value would fail the commutation oracle first, which sums as well."""
    plain = SkewPoly.__add__

    class Sum(SkewPoly):
        __slots__ = ()
        if reflected:
            def __rmul__(self, other):
                return plain(SkewPoly.__mul__(other, self),
                             SkewPoly.one(self.ctx))
        else:
            def __mul__(self, other):
                return plain(SkewPoly.__mul__(self, other),
                             SkewPoly.one(self.ctx))

    def add(f, g):
        total = plain(f, g)
        return Sum(total.ctx, total.coeffs)
    return add


def _series_sums_gaining(side):
    """TruncatedSeries.__add__, where f + g gains x*(f - g) (side "left")
    or (f - g)*x: right distributivity holds for the first and left
    distributivity for the second, since x is not central."""
    plain = _LeftForm.__add__

    def add(f, g):
        x = TruncatedSeries.var(f.ctx, f.precision)
        diff = plain(f, -g)
        return plain(plain(f, g), x * diff if side == "left" else diff * x)
    return add


# (suite, owner, name, replacement, samples and seed, counterexample prefix)
FAULTS = (
    ("ideal-closure", TruncatedSeries, "filtration_degree", lambda self: 0,
     (3, 7), "G_0*G_3 leaves G_3: "),
    ("ideal-closure", series, "filtration_generators",
     _generators_two_layers_low(), (3, 7),
     "x*g leaves G_2 for generator g = 1 (mod t^3) [N=4]"),
    ("graded-iso", series, "monomial_operator_apply", _without_delta_terms(),
     (10, 0), "symbol mismatch: "),
    # the boundary pair (x, t) reaches the delta part of the graded model:
    # x*t = 2t*x + t^2, whose t^2 sits on the degree-2 boundary
    ("graded-iso", series, "monomial_operator_apply", _without_delta_terms(),
     (3, 0), "symbol mismatch: f=1 (mod t^3)*x [N=4], g=t (mod t^3) [N=4], "),
    ("graded-iso", series, "monomial_operator_apply", _without_delta_terms(),
     (3, 7), "symbol mismatch: f=1 (mod t^3)*x [N=4], g=t (mod t^3) [N=4], "),
    ("k0-rank", k0, "random_idempotent", _misreported_rank(k0.BaseScalars),
     (3, 7), "rank 0 != generating rank 1"),
    ("serre-transfer", k0, "random_idempotent",
     _misreported_rank(k0.SeriesScalars), (3, 7),
     "series rank 0 != generating rank 1"),
    ("serre-transfer", k0, "random_idempotent",
     _misreported_rank(k0.BaseScalars), (3, 7),
     "base rank 2 != generating rank 3"),
    # every counterexample text of poly-assoc and series-assoc; the
    # delta=broken control reaches only "associativity fails"
    ("poly-assoc", skewpoly, "poly_mul_commutation", _products_off_by_one(),
     (3, 7), "products disagree: "),
    ("poly-assoc", SkewPoly, "__add__", _sums_multiplying_off_by_one(False),
     (3, 7), "right distributivity fails: "),
    ("poly-assoc", SkewPoly, "__add__", _sums_multiplying_off_by_one(True),
     (3, 7), "left distributivity fails: "),
    # a degree one too low
    ("poly-assoc", SkewPoly, "degree",
     property(lambda self: len(self.coeffs) - 2), (3, 7),
     "degree bound fails: "),
    ("series-assoc", TruncatedSeries, "__add__", _series_sums_gaining("left"),
     (3, 7), "left distributivity fails: "),
    ("series-assoc", TruncatedSeries, "__add__",
     _series_sums_gaining("right"), (3, 7), "right distributivity fails: "),
    # the image of a polynomial loses its top slot
    ("series-assoc", TruncatedSeries, "from_poly",
     classmethod(lambda cls, f, precision: cls(f.ctx, precision,
                                               f.coeffs[:precision - 1])),
     (3, 7), "product not well defined on classes: "),
)


@pytest.mark.parametrize("name,owner,attr,fault,run,prefix", FAULTS,
                         ids=[f"{f[0]}-{f[2]}-{i}" for i, f in enumerate(FAULTS)])
def test_a_planted_fault_is_a_fail_verdict(monkeypatch, name, owner, attr,
                                           fault, run, prefix):
    ctx = parse_ring_preset("truncpoly:3:3:c=2")
    assert run_property_suite(name, ctx, None, *run).passed
    monkeypatch.setattr(owner, attr, fault)
    report = run_property_suite(name, ctx, None, *run)
    assert report.to_json_dict()["verdict"] == "FAIL"
    assert report.counterexample.startswith(prefix), report.counterexample


@pytest.mark.parametrize("seed", [0, 7])
def test_graded_iso_passes_on_the_broken_control(seed):
    # delta(f) = t*f breaks the Leibniz rule, which only products of three
    # factors see; a pair's symbol and the graded model are built from the
    # same sigma and delta, and delta = t*f raises every radical layer by
    # one as the model assumes, so the two agree on every pair
    report = run_property_suite("graded-iso", parse_ring_preset(BROKEN_PRESET),
                                None, 3, seed)
    assert (report.passed, report.checked, report.details) == (
        True, 9, {"exact_branch": 7, "jump_branch": 2, "skipped": 4})
