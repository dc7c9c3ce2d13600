"""Exact arithmetic for skew polynomials, truncated twisted power series
and projective-module rank witnesses over finite local coefficient rings."""

from .exprparse import (ExprError, eval_expression, parse_expression,
                        render_expression)
from .k0 import (BaseScalars, CompletedRow, IdempotentMatrix, RankWitness,
                 SeriesScalars, StableIsoWitness, StablyFreeWitness,
                 idempotent_rank, k0_rank_check, random_idempotent,
                 random_invertible, serre_transfer_check, stable_iso_witness,
                 stably_free_witness, unimodular_complete)
from .report import CheckReport
from .rings import (INF, RingContext, TruncPolyRing, ZmodRing,
                    parse_ring_preset, ring_axiom_check,
                    sigma_derivation_check, sigma_nilpotence_bound)
from .series import (GradedElem, TruncatedSeries, filtration_generators,
                     graded_iso_check, ideal_closure_check, principal_symbol,
                     series_law_check)
from .skewpoly import (NEG_INF, SkewPoly, mkl_oracle_check,
                       monomial_operator_apply, monomial_operator_words,
                       poly_law_check, poly_mul_commutation)
from .suites import SUITE_NAMES, run_property_suite

__version__ = "0.1.0"
