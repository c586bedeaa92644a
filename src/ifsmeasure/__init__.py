"""Invariant vector measures of iterated function systems.

The package models finitely representable vector measures on [0, 1]
(Dirac atoms plus piecewise-constant densities with values in R^n or
C^n), the Markov-type operator built from contractive affine maps paired
with linear operators, and the norms under which that operator
contracts.  Fixed points are computed two independent ways — norm-
controlled iteration and exact evaluation on query sets — and
Monge-Kantorovich norms come with an exact one-dimensional formula plus
a certified two-sided bracket: witness pairings below, a closed-form
split bound above.
"""

from .exceptions import (DimensionMismatch, FieldMismatch, IterationLimit,
                         NotContractive, PartitionError, RefinementLimit)
from .hilbert import adjoint, matrix_exp, operator_norm, scalar_product
from .integral import (ContinuousFunction, SimpleFunction, integrate,
                       integrate_simple, vector_polynomial)
from .kernelops import (PolynomialFunction, SeparableKernel, kernel_sup_bound,
                        partition_variation_estimate, solve_invariance)
from .markov import (ContractionFactors, EvalResult, FixedPointResult,
                     IFSystem, apply_markov, dual_apply, eval_fixed_point,
                     factors, iterate_fixed_point, residual)
from .measure import (VectorMeasure, accumulate, apply_operator, combine,
                      prune, pushforward)
from .mk_norm import (LipschitzWitness, SandwichReport, mk_lower_bound,
                      mk_star_exact, mk_upper_bound, sandwich_check)
from .semigroup import (constant_map_transfer, countable_series_fixed_point,
                        countable_series_residual, exp_decay_fixed_point,
                        hc_quadrature, transfer_residual)
from .space import AffineMap, QuerySet, Span, preimage

__version__ = "0.1.0"

__all__ = [
    "AffineMap", "ContinuousFunction", "ContractionFactors",
    "DimensionMismatch", "EvalResult", "FieldMismatch",
    "FixedPointResult", "IFSystem", "IterationLimit",
    "LipschitzWitness", "NotContractive", "PartitionError",
    "PolynomialFunction", "QuerySet", "RefinementLimit", "SandwichReport",
    "SeparableKernel", "SimpleFunction", "Span",
    "VectorMeasure", "accumulate", "adjoint", "apply_markov",
    "apply_operator", "combine", "constant_map_transfer",
    "countable_series_fixed_point", "countable_series_residual",
    "dual_apply", "eval_fixed_point",
    "exp_decay_fixed_point", "factors", "hc_quadrature",
    "integrate", "integrate_simple", "iterate_fixed_point",
    "kernel_sup_bound", "matrix_exp", "mk_lower_bound", "mk_star_exact",
    "mk_upper_bound",
    "operator_norm", "partition_variation_estimate", "preimage", "prune",
    "pushforward", "residual", "sandwich_check", "scalar_product",
    "solve_invariance", "transfer_residual",
    "vector_polynomial", "__version__",
]
