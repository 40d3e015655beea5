"""VAL-FUNC implementations (Definition 3.2.2, §3.2, Table 5.1).

A VAL-FUNC measures how much one valuation's result differs between
the original provenance and its summary.  The thesis names four:

* **Expected error** ``|v(p) - v'(p')|`` --
  :class:`AbsoluteDifference` (L1 over the aligned aggregation
  vectors; collapses to the scalar absolute difference for a single
  group).
* **Weighted fraction of disagreeing valuations** --
  :class:`Disagreement` (0 when the aligned vectors agree, 1
  otherwise; the weight ``w(v)`` is applied by the distance
  computation).
* **Euclidean distance** between aggregation vectors --
  :class:`EuclideanDistance`, the VAL-FUNC of the MovieLens and
  Wikipedia experiments.
* **DDP cost difference** (Example 5.2.2) -- :class:`DDPCostDifference`:
  the absolute cost difference when both sides are feasible, 0 when
  both are infeasible, and the maximum possible cost (max cost per
  transition × transitions per execution) when feasibility disagrees.

Vector alignment.  A summary may merge *group* annotations (Wikipedia
pages → WordNet concepts), so ``v(p)`` and ``v'(p')`` are vectors of
different dimensions.  Per §5.2 the original vector is first
transformed into the summary's coordinates by pushing each original
group key through the cumulative mapping and folding collisions with
the aggregation monoid; only then is the metric applied.

Every VAL-FUNC also exposes ``max_error`` -- the normalization bound
used in §6.3 ("we divide by the maximum possible error in order to
normalize to [0, 1]").
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Dict, Mapping, Optional

from ..provenance.ddp_expression import DDPExpression, DDPResult
from ..provenance.monoids import AggregationMonoid, CountedAggregate
from ..provenance.tensor_sum import GroupVector, TensorSum


def align_vector(
    original: GroupVector,
    alignment: Mapping[str, str],
    monoid: AggregationMonoid,
) -> GroupVector:
    """Transform an original-coordinates vector into summary coordinates.

    Each original group key is replaced by its image under the
    cumulative mapping; keys that collide (their groups were merged)
    are folded through the aggregation monoid, mirroring how the
    summary itself aggregates the merged group.
    """
    out: Dict[Optional[str], CountedAggregate] = {}
    for key, aggregate in original.items():
        image = alignment.get(key, key) if key is not None else None
        existing = out.get(image)
        out[image] = (
            aggregate if existing is None else existing.combine(aggregate, monoid)
        )
    return out


class VectorValFunc(ABC):
    """A VAL-FUNC over per-group aggregation vectors."""

    #: Table 5.1 name.
    name: str = "VAL-FUNC"

    #: Kernel tag for the coordinate-wise decomposition
    #: ``metric_finish(Σ_k metric_contrib(orig[k], summ[k]))``, or
    #: ``None``.  The step scorer rescores only a candidate's
    #: neighborhood through this decomposition; a VAL-FUNC without a
    #: tag is scored by the naive reference path.  A tag promises that
    #: ``metric_contrib`` / ``metric_finish`` are *exactly* the closed
    #: forms the kernel backends implement for it (IEEE-reproducible
    #: primitives only: +, -, *, abs, sqrt, comparisons -- never libm
    #: ``pow``), so kernel scoring stays bit-identical to the python
    #: reference forms.
    contrib_kind: Optional[str] = None

    def __init__(self, monoid: AggregationMonoid):
        self.monoid = monoid

    def __call__(
        self,
        original: GroupVector,
        summary: GroupVector,
        alignment: Mapping[str, str],
    ) -> float:
        aligned = align_vector(original, alignment, self.monoid)
        keys = set(aligned) | set(summary)
        return self.metric(
            {key: _fin(aligned.get(key)) for key in keys},
            {key: _fin(summary.get(key)) for key in keys},
        )

    @abstractmethod
    def metric(
        self, original: Mapping[Optional[str], float], summary: Mapping[Optional[str], float]
    ) -> float:
        """Distance between two same-keyed real vectors."""

    def metric_contrib(self, original: float, summary: float) -> float:
        """One coordinate's contribution to the decomposed metric.

        Must satisfy ``metric_contrib(x, x) == 0.0`` exactly and
        ``metric_contrib(o, s) >= 0`` so absent coordinates (both sides
        0) contribute nothing.
        """
        raise NotImplementedError(f"{self.name} is not decomposable")

    def metric_finish(self, total: float) -> float:
        """Map the summed contributions back to the metric's value."""
        raise NotImplementedError(f"{self.name} is not decomposable")

    def max_error(self, expression: TensorSum) -> float:
        """Normalization bound computed from the *original* expression.

        Coordinates range between 0 (everything cancelled) and the
        full uncancelled aggregate, so the all-cancelled valuation
        bounds the per-coordinate error; the bound combines the
        coordinates the same way the metric does.
        """
        return self.max_error_of(
            {
                key: _fin(aggregate)
                for key, aggregate in expression.full_vector().items()
            }
        )

    def max_error_of(self, full: Mapping[Optional[str], float]) -> float:
        """:meth:`max_error` from the original's finalized all-true
        values per group, in group order.

        Subclasses change the bound here: the distance computer reads
        it from the all-true values of its own column build.
        """
        return self.metric(full, {key: 0.0 for key in full})


class EuclideanDistance(VectorValFunc):
    """Euclidean distance between aggregation vectors (§3.2 item 3)."""

    name = "Euclidean Distance"
    contrib_kind = "sqdiff"

    # Squares are spelled ``delta * delta`` rather than ``delta ** 2``:
    # CPython routes ``**`` through libm ``pow``, which is not
    # correctly rounded on every platform, while IEEE multiplication is
    # exact everywhere -- the only form python and C agree on
    # bit-for-bit.

    def metric(self, original, summary) -> float:
        total = 0.0
        for key in original:
            delta = original[key] - summary[key]
            total += delta * delta
        return math.sqrt(total)

    def metric_contrib(self, original: float, summary: float) -> float:
        delta = original - summary
        return delta * delta

    def metric_finish(self, total: float) -> float:
        return math.sqrt(total) if total > 0.0 else 0.0


class AbsoluteDifference(VectorValFunc):
    """Expected-error VAL-FUNC ``|v(p) - v'(p')|`` (§3.2 item 1).

    Over vectors this is the L1 distance, which equals the scalar
    absolute difference when the provenance has a single group.
    """

    name = "Absolute Difference"
    contrib_kind = "absdiff"

    def metric(self, original, summary) -> float:
        return sum(abs(original[key] - summary[key]) for key in original)

    def metric_contrib(self, original: float, summary: float) -> float:
        return abs(original - summary)

    def metric_finish(self, total: float) -> float:
        return total if total > 0.0 else 0.0


class Disagreement(VectorValFunc):
    """Fraction-of-disagreeing-valuations VAL-FUNC (§3.2 item 2).

    Returns 1 when the aligned vectors differ at any coordinate and 0
    otherwise; the per-valuation weight ``w(v)`` is applied by the
    distance computation.
    """

    name = "Disagreement"
    contrib_kind = "isclose01"

    def metric(self, original, summary) -> float:
        return 0.0 if all(
            math.isclose(original[key], summary[key]) for key in original
        ) else 1.0

    def metric_contrib(self, original: float, summary: float) -> float:
        return 0.0 if math.isclose(original, summary) else 1.0

    def metric_finish(self, total: float) -> float:
        return 0.0 if total == 0.0 else 1.0

    def max_error_of(self, full: Mapping[Optional[str], float]) -> float:
        return 1.0


class DDPCostDifference:
    """The DDP difference VAL-FUNC of Example 5.2.2.

    * both feasible → ``|C_p - C_p'|``;
    * both infeasible → 0;
    * feasibility differs → the maximum possible cost difference,
      i.e. ``max_cost_per_transition * transitions_per_execution``
      (10 × 5 in the thesis).
    """

    name = "Absolute Difference (DDP)"

    def __init__(self, max_cost_per_transition: float = 10.0, max_transitions: int = 5):
        self.max_cost_per_transition = max_cost_per_transition
        self.max_transitions = max_transitions

    @property
    def _penalty(self) -> float:
        return self.max_cost_per_transition * self.max_transitions

    def __call__(
        self,
        original: DDPResult,
        summary: DDPResult,
        alignment: Mapping[str, str],
    ) -> float:
        if original.feasible and summary.feasible:
            return abs(original.cost - summary.cost)
        if not original.feasible and not summary.feasible:
            return 0.0
        return self._penalty

    def max_error(self, expression: DDPExpression) -> float:
        return self._penalty


def _fin(aggregate: Optional[CountedAggregate]) -> float:
    return aggregate.finalized_value() if aggregate is not None else 0.0
