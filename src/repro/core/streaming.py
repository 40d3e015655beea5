"""Streaming provenance ingest: append-only deltas and summary repair.

Provenance rarely arrives all at once -- new ratings stream in, new
users register, a user already summarized turns out to be a spammer.
This module gives those events a first-class shape:

* :class:`ProvenanceDelta` -- an *append-only* extension of a
  provenance instance: new annotations, new monomials (terms), new
  valuations for the class, and *extensions* of existing valuations
  (their false set grows -- e.g. a spam flag on an already-known
  user).  Deltas never remove or rewrite existing provenance; that
  invariant is what keeps the summary-repair machinery sound.
* :func:`apply_delta` -- extends a :class:`~repro.provenance
  .tensor_sum.TensorSum` with the delta's terms (congruent merging
  applies exactly as a from-scratch construction would).
* :func:`extend_valuations` -- applies a delta's valuation extensions
  to a valuation class, preserving positions, labels and weights (the
  prefix-stability the equivalence-partition repair keys on).
* :class:`SummaryRepairState` -- what one summarization run hands the
  next so it can *repair* rather than recompute: the equivalence
  partition (per-annotation truth signatures) and the step-0 candidate
  pool.

The repair contract, proven by ``tests/core/test_streaming_repair.py``
over a differential grid: a repaired run's output -- expression,
mapping, step records, distances -- is *bit-identical* to a
from-scratch run over the post-delta instance (with aligned summary
naming).  Repair only skips re-deriving state the delta provably does
not touch; every skipped derivation is replayed exactly by
construction (see docs/ALGORITHM.md on Prop 4.2.1 locality).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..provenance.annotations import Annotation
from ..provenance.tensor_sum import TensorSum, Term
from ..provenance.valuation import Valuation
from ..provenance.valuation_classes import ExplicitValuations, ValuationClass
from .equivalence import EquivalencePartition


@dataclass(frozen=True)
class ProvenanceDelta:
    """One append-only batch of new provenance.

    Parameters
    ----------
    annotations:
        Fresh annotations (new users, movies, ...).  Must not collide
        with existing names -- deltas append, they never redefine.
    terms:
        Fresh provenance terms referencing existing and/or delta
        annotations.
    valuations:
        Fresh valuations appended to the valuation class (classes
        derived from the universe, e.g. Cancel-Single-Annotation,
        grow implicitly with ``annotations`` instead).
    extend_valuations:
        Valuation label → annotation names newly added to that
        valuation's *false* set.  This is the only way a delta touches
        existing state, and it is truth-monotone per valuation: names
        flip true → false, never back.
    """

    annotations: Tuple[Annotation, ...] = ()
    terms: Tuple[Term, ...] = ()
    valuations: Tuple[Valuation, ...] = ()
    extend_valuations: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "annotations", tuple(self.annotations))
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "valuations", tuple(self.valuations))
        object.__setattr__(
            self,
            "extend_valuations",
            {
                label: tuple(names)
                for label, names in dict(self.extend_valuations).items()
            },
        )

    def is_empty(self) -> bool:
        return not (
            self.annotations
            or self.terms
            or self.valuations
            or self.extend_valuations
        )

    def flipped(self) -> Dict[str, Tuple[str, ...]]:
        """Valuation label → names whose truth the delta flipped."""
        return dict(self.extend_valuations)

    def describe(self) -> str:
        return (
            f"delta(+{len(self.annotations)} annotations, "
            f"+{len(self.terms)} terms, +{len(self.valuations)} valuations, "
            f"{len(self.extend_valuations)} extended)"
        )


def apply_delta(expression: TensorSum, delta: ProvenanceDelta) -> TensorSum:
    """The expression extended with the delta's terms.

    Existing terms keep their order (congruent merging is
    first-occurrence-stable), so any state keyed on the surviving
    terms -- scorer indexes, candidate neighborhoods -- diffs cleanly
    against the extended expression.
    """
    if not delta.terms:
        return expression
    return TensorSum(tuple(expression.terms) + delta.terms, expression.monoid)


def extend_valuations(
    valuations: ValuationClass, delta: ProvenanceDelta
) -> ValuationClass:
    """Apply the delta's valuation changes to a class.

    Extended valuations are replaced *in place* (same position, same
    label, same weight, false set grown via
    :meth:`~repro.provenance.valuation.Valuation.cancelling`); fresh
    valuations are appended.  The old class's labels therefore stay a
    prefix of the new class's -- the invariant
    :meth:`EquivalencePartition.repair` requires.  Unknown labels in
    ``extend_valuations`` raise ``KeyError`` (a delta must not
    silently miss its target).
    """
    extensions = dict(delta.extend_valuations)
    if not extensions and not delta.valuations:
        return valuations
    rebuilt: List[Valuation] = []
    for valuation in valuations:
        extra = extensions.pop(str(valuation), None)
        rebuilt.append(
            valuation.cancelling(extra) if extra else valuation
        )
    if extensions:
        raise KeyError(
            f"delta extends unknown valuation labels: {sorted(extensions)}"
        )
    rebuilt.extend(delta.valuations)
    extended = ExplicitValuations(rebuilt)
    extended.name = valuations.name
    return extended


@dataclass
class SummaryRepairState:
    """What a summarization run leaves behind for the next ingest.

    All components are *derived* state -- dropping any of them
    (or the whole object) only costs recomputation, never correctness:

    * ``partition`` -- per-annotation truth signatures over this run's
      original annotations and valuations
      (:class:`~repro.core.equivalence.EquivalencePartition`);
    * ``expression`` -- the step-0 expression (post equivalence
      grouping) the pool was derived against;
    * ``pool_raw`` -- the raw step-0 candidate list in fresh-generation
      order (``None`` when the run used no pool or never reached the
      greedy loop).

    The state holds live in-memory objects and is intentionally not
    serialized; a resumed session rebuilds it on its first run.
    """

    partition: Optional[EquivalencePartition] = None
    expression: Optional[object] = None
    pool_raw: Optional[list] = None
