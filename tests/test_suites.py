"""run_property_suite over the preset matrix: the verdict of every suite on
each preset and on the delta=broken control, the sample count the runner
requires of every suite, and a FAIL verdict from each suite whose
counterexample no preset reaches, on a layer with one planted fault."""

import pytest

from conftest import BROKEN_PRESET, PRESET_MATRIX
from skewseries import (SUITE_NAMES, TruncatedSeries, k0, parse_ring_preset,
                        run_property_suite, series)

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
