"""Semiring provenance model: expressions, valuations, aggregation.

This subpackage is the substrate of Chapter 2 -- everything the
summarization algorithm (in :mod:`repro.core`) consumes:

* :mod:`~repro.provenance.semirings` / :mod:`~repro.provenance.monoids`
  -- the algebraic structures.
* :mod:`~repro.provenance.annotations` -- annotations with attributes,
  domains and summary-group membership.
* :mod:`~repro.provenance.expressions` -- the general ``N[Ann]`` AST
  with tensors and comparison tokens.
* :mod:`~repro.provenance.tensor_sum` -- the grouped tensor-sum normal
  form the summarizer operates on.
* :mod:`~repro.provenance.ddp_expression` -- DDP provenance over the
  tropical semiring.
* :mod:`~repro.provenance.valuation` /
  :mod:`~repro.provenance.valuation_classes` -- truth valuations and
  the classes ``V_Ann`` distances average over.
"""

import os

from ..observability import log as _log
from .annotations import Annotation, AnnotationUniverse
from .ddp_expression import (
    CostTransition,
    DBTransition,
    DDPExpression,
    DDPResult,
    Execution,
)
from .explanations import counterfactual_annotations, explain, witnesses
from .expressions import (
    ONE,
    ZERO,
    AggSum,
    Comparison,
    Product,
    ProvExpr,
    Sum,
    Tensor,
    Var,
)
from .monoids import (
    COUNT,
    MAX,
    MIN,
    SUM,
    AggregationMonoid,
    CountedAggregate,
    fold_counted,
    monoid_by_name,
)
from .polynomial import Monomial, Polynomial, from_expression
from .semirings import (
    BOOLEAN,
    NATURALS,
    REALS,
    TROPICAL,
    BooleanSemiring,
    FloatSemiring,
    NaturalsSemiring,
    Semiring,
    TropicalSemiring,
)
from .tensor_sum import Guard, GroupVector, TensorSum, Term
from .valuation import ALL_TRUE, Valuation, cancel
from .valuation_classes import (
    CancelSingleAnnotation,
    CancelSingleAttribute,
    CancelSubsets,
    ExplicitValuations,
    TaxonomyConsistent,
    ValuationClass,
    bernoulli_weighted,
)

__all__ = [
    "ALL_TRUE",
    "AggSum",
    "AggregationMonoid",
    "Annotation",
    "AnnotationUniverse",
    "BOOLEAN",
    "BooleanSemiring",
    "COUNT",
    "CancelSingleAnnotation",
    "CancelSingleAttribute",
    "CancelSubsets",
    "Comparison",
    "CostTransition",
    "CountedAggregate",
    "DBTransition",
    "DDPExpression",
    "DDPResult",
    "Execution",
    "ExplicitValuations",
    "FloatSemiring",
    "Guard",
    "GroupVector",
    "MAX",
    "Monomial",
    "MIN",
    "NATURALS",
    "NaturalsSemiring",
    "ONE",
    "Polynomial",
    "Product",
    "ProvExpr",
    "REALS",
    "SUM",
    "Semiring",
    "Sum",
    "TROPICAL",
    "TaxonomyConsistent",
    "Tensor",
    "TensorSum",
    "Term",
    "TropicalSemiring",
    "Valuation",
    "ValuationClass",
    "Var",
    "ZERO",
    "bernoulli_weighted",
    "cancel",
    "counterfactual_annotations",
    "explain",
    "fold_counted",
    "from_expression",
    "monoid_by_name",
    "witnesses",
]


# The ``REPRO_IR`` switch is gone; a leftover setting is reported once
# and otherwise ignored.
if os.environ.get("REPRO_IR", "").strip():
    _log.get_logger("provenance.ir").warning(
        "ir_mode_removed requested=%s resolution=ir",
        _log.quote(os.environ["REPRO_IR"]),
    )
