"""Named property suites exposed by the command line runner.

Each suite function returns (checked, counterexample or None, details):
the number of individual assertions it verified, a rendered description of
the first failure, and its check-specific counters.  run_property_suite is
the one place where such a run becomes a CheckReport."""

from __future__ import annotations

from .k0 import k0_rank_check, serre_transfer_check
from .report import CheckReport
from .rings import RingContext, ring_axiom_check, sigma_derivation_check
from .series import graded_iso_check, ideal_closure_check, series_law_check
from .skewpoly import mkl_oracle_check, poly_law_check

DEFAULT_PRECISION = 4

# name -> runner(ctx, precision, samples, seed), in the order of the CLI's
# choices; the suites over R take no precision
_SUITES = {
    "ring-axioms": lambda ctx, n, samples, seed: ring_axiom_check(
        ctx, samples, seed),
    "sigma-derivation": lambda ctx, n, samples, seed: sigma_derivation_check(
        ctx, samples, seed),
    "mkl-oracle": lambda ctx, n, samples, seed: mkl_oracle_check(ctx),
    "poly-assoc": lambda ctx, n, samples, seed: poly_law_check(
        ctx, samples, seed),
    "series-assoc": series_law_check,
    "ideal-closure": ideal_closure_check,
    "graded-iso": graded_iso_check,
    "k0-rank": lambda ctx, n, samples, seed: k0_rank_check(ctx, samples, seed),
    "serre-transfer": serre_transfer_check,
}
SUITE_NAMES = tuple(_SUITES)


def run_property_suite(name: str, ctx: RingContext, precision: int | None,
                       samples: int, seed: int) -> CheckReport:
    """Run one named invariant suite and return its report, which passes
    when the suite found no counterexample.

    ``samples`` must be at least 1, for every suite.  ``precision`` only
    matters for the series-level suites; it defaults to DEFAULT_PRECISION
    when omitted."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n = precision if precision is not None else DEFAULT_PRECISION
    checked, cex, details = _SUITES[name](ctx, n, samples, seed)
    return CheckReport(name, checked, cex, details)
