"""Exact arithmetic for skew polynomials, truncated twisted power series
and projective-module rank witnesses over finite local coefficient rings."""

from .exprparse import (ExprError, eval_expression, parse_expression,
                        render_expression)
from .k0 import (BaseScalars, CompletedRow, IdempotentMatrix, RankWitness,
                 SeriesScalars, StableIsoWitness, StablyFreeWitness,
                 idempotent_rank, random_idempotent, random_invertible,
                 stable_iso_witness, stably_free_witness, unimodular_complete)
from .report import CheckReport
from .rings import INF, RingContext, TruncPolyRing, ZmodRing, parse_ring_preset
from .series import GradedElem, TruncatedSeries, principal_symbol
from .skewpoly import (NEG_INF, SkewPoly, monomial_operator_apply,
                       poly_mul_commutation)
from .suites import (SUITE_NAMES, filtration_generators,
                     monomial_operator_words, run_property_suite,
                     sigma_nilpotence_bound)

__version__ = "0.1.0"
