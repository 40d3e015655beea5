"""Bit-packed Monte-Carlo candidate scoring (Prop. 4.1.2 at speed).

Large valuation classes cannot be enumerated, so the thesis samples:
draw valuations, evaluate both expressions, average the VAL-FUNC
values (Proposition 4.1.2, Chebyshev-bounded).  The reference
implementation (:meth:`~repro.core.distance.DistanceComputer.sampled`)
redraws a fresh batch *per candidate* and evaluates both expressions
from scratch per draw -- the paper's intended scalability path was the
slowest code in the repo.

:class:`SampledStepScorer` lifts the enumerating bitmask kernel
(:class:`~repro.core.fast_distance.FastStepScorer`) to one shared
Monte-Carlo batch per step:

* **One batch, every candidate.**  At construction the scorer draws
  ``N = DistanceComputer.sample_budget()`` valuations from the class
  (seeded, weight-aware: the weighted-average estimator is unchanged)
  and scores *all* of the step's candidates against that single batch.
  Draw and original-evaluation cost amortize over the whole candidate
  set, and the shared draws are *common random numbers*: every
  candidate's estimate shares the batch's noise, so ranking candidates
  is a paired comparison whose selection variance is far below
  independent per-candidate batches.
* **The same packed kernel.**  Batch positions take the enumerated
  valuations' place: each current annotation's dead bits across the
  batch pack into one little-endian ``array('Q')`` word row inside a
  contiguous :class:`~repro.core.kernels.masktable.MaskTable`, with
  the lifted false set computed once per *distinct* drawn member
  (sampling with replacement repeats members; all of a member's draw
  positions scatter in one entry).  Per-term dead masks, per-group
  baseline aggregates and the original's columns (built over the
  batch positions, a repeated member being one more position) are
  computed once per step, and a candidate touches only the terms
  containing its merged parts, exactly like the enumerating scorer.
  :meth:`packed_masks` materializes the canonical ``array('Q')`` word
  layout; the per-batch statistics fold in the same 64-draw blocks.
* **Deterministic batches make carried measurements valid.**  The
  batch is drawn once per scorer and *never* redrawn by
  :meth:`advance`: Prop 4.2.2's monotonicity (the engine's lazy queue
  treats stale distances as lower bounds) holds pointwise
  per valuation, so it survives sampling only while the valuation set
  is fixed.  With the batch pinned, the lazy-greedy queue treats
  sampled distances exactly like enumerated ones.

Estimates report ``exact=False`` with ``n_valuations`` equal to the
batch size, mirroring the reference sampled estimator; under a shared
seed the two paths are bit-identical (asserted by
``tests/core/test_sampled_scoring.py``), because both accumulate
``weight x VAL-FUNC`` in flat draw order over the same drawn sequence.
The reference path remains the fallback whenever the kernel's
preconditions fail.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..provenance.annotations import AnnotationUniverse
from ..provenance.tensor_sum import TensorSum
from ..provenance.valuation_classes import ValuationClass
from .combiners import DomainCombiners
from .distance import DistanceComputer, DistanceEstimate
from .fast_distance import FastStepScorer
from .kernels import MaskTable
from .kernels.masktable import WordRow
from .mapping import MappingState


class SampledStepScorer(FastStepScorer):
    """Scores one step's candidates against a shared sampled batch."""

    @staticmethod
    def applicable(expression, val_func, combiners: DomainCombiners,
                   valuations: ValuationClass, universe: AnnotationUniverse,
                   max_enumerate: int) -> bool:
        """Whether the sampled kernel replaces the reference sampler.

        The class must be *too large* to enumerate (otherwise the exact
        kernel applies) while the expression/VAL-FUNC/combiner
        preconditions of the bitmask kernel hold.
        """
        if len(valuations) <= max_enumerate:
            return False
        return FastStepScorer.applicable(
            expression, val_func, combiners, valuations, universe,
            len(valuations),
        )

    def __init__(
        self,
        computer: DistanceComputer,
        current: TensorSum,
        mapping: MappingState,
        universe: AnnotationUniverse,
        batch_size: Optional[int] = None,
        rng: Optional[random.Random] = None,
    ):
        draw_rng = computer.rng if rng is None else rng
        if batch_size is None:
            batch_size = computer.sample_budget()
        # The batch is drawn up front, before any kernel state exists:
        # the draws consume the computer's RNG in exactly the order the
        # reference sampler would, which is what makes seed-paired
        # differential comparison (and replay in tests) possible.
        sample = computer.valuations.sample
        self._batch = [sample(draw_rng) for _ in range(max(1, batch_size))]
        #: Count of packed-view materializations (see
        #: :meth:`packed_term_dead_table`); the re-packing regression
        #: test asserts repeated reads within one step cost one build.
        self.pack_builds = 0
        self._packed_term_table: Optional[MaskTable] = None
        self._packed_term_rows: Optional[List[WordRow]] = None
        self._packed_mask_views: Optional[Dict[str, WordRow]] = None
        self._batch_stats: Optional[Tuple[float, float]] = None
        super().__init__(computer, current, mapping, universe)

    # -- batch plumbing (hooks overridden from the enumerating kernel) -------

    def _step_valuations(self) -> List:
        return list(self._batch)

    def _original_columns(self):
        # Repeated members are repeated positions of the build.
        return self.computer.original_columns(self.valuations)

    def _build_masks(self) -> None:
        """Dead-bit rows across the batch, one lift per distinct member.

        Identical output to the enumerating ``_build_masks`` (bit ``i``
        set ⇔ the annotation is false under batch position ``i``), but
        the lifted false set -- the expensive part -- is computed once
        per distinct drawn valuation, and its scatter entry carries
        *all* of that member's draw positions at once: sampling with
        replacement from a stored class repeats member objects freely.
        """
        row_of = self._mask_rows()
        combiners = self.computer.combiners
        positions: Dict[int, List[int]] = {}
        members: Dict[int, object] = {}
        for index, valuation in enumerate(self.valuations):
            ident = id(valuation)
            bucket = positions.get(ident)
            if bucket is None:
                positions[ident] = [index]
                members[ident] = valuation
            else:
                bucket.append(index)
        entries = []
        for ident, valuation in members.items():
            rows: List[int] = []
            for name in combiners.lifted_false_set(
                valuation, self.mapping, self.universe
            ):
                row = row_of.get(name)
                if row is not None:
                    rows.append(row)
            if rows:
                entries.append((rows, positions[ident]))
        table = self._kernel.scatter_false_sets(
            len(row_of), entries, self.n_vals
        )
        self._set_masks(table, row_of)

    def _estimate(self, distance_value: float) -> DistanceEstimate:
        max_error = self.computer.max_error
        normalized = (
            min(1.0, distance_value / max_error) if max_error > 0 else 0.0
        )
        estimate = DistanceEstimate.__new__(DistanceEstimate)
        estimate.__dict__.update(
            value=distance_value,
            normalized=normalized,
            n_valuations=self.n_vals,
            exact=False,
        )
        return estimate

    # -- packed views & batch statistics -------------------------------------

    @property
    def batch_size(self) -> int:
        """Number of drawn valuations shared by every candidate."""
        return self.n_vals

    def packed_masks(self) -> Dict[str, WordRow]:
        """Per-annotation dead bits in the ``array('Q')`` word layout.

        Word ``w`` bit ``b`` covers batch position ``64*w + b`` -- the
        same blocking :meth:`_compute_batch_stats` folds over.  The
        rows ARE the scorer's live mask rows (zero-copy, memoized per
        step); treat them as read-only.
        """
        if self._packed_mask_views is None:
            self._packed_mask_views = dict(self._mask)
        return self._packed_mask_views

    def packed_term_dead_table(self) -> MaskTable:
        """The per-term dead rows as one contiguous :class:`MaskTable`.

        Wraps the scorer's own dead-row table (zero-copy; ``advance``
        builds a new table rather than writing into this one), at most
        once per step.  ``pack_builds`` counts the wrappings.
        """
        if self._packed_term_table is None:
            self._packed_term_table = MaskTable(
                len(self._terms), self.n_vals, self._dead
            )
            self.pack_builds += 1
        return self._packed_term_table

    def packed_term_dead(self) -> List[WordRow]:
        """Per-term dead bits in the ``array('Q')`` word layout.

        Zero-copy views into :meth:`packed_term_dead_table`, memoized
        until the next ``advance``.
        """
        if self._packed_term_rows is None:
            self._packed_term_rows = self.packed_term_dead_table().rows()
        return self._packed_term_rows

    @property
    def batch_mean(self) -> float:
        """Weighted mean baseline distance over the batch (raw value)."""
        return self._read_batch_stats()[0]

    @property
    def batch_variance(self) -> float:
        """Weighted variance of the batch's baseline VAL-FUNC values."""
        return self._read_batch_stats()[1]

    def _read_batch_stats(self) -> Tuple[float, float]:
        """The batch statistics, computed on first read after a build or
        :meth:`advance` (only traced steps read them)."""
        if self._batch_stats is None:
            self._batch_stats = self._compute_batch_stats()
        return self._batch_stats

    def _compute_batch_stats(self) -> Tuple[float, float]:
        """Weighted mean/variance of the baseline's per-draw values.

        Folds in 64-draw blocks matching the packed word layout: each
        block accumulates its weighted sums locally before the
        cross-block combine.  The variance is the achieved spread of
        this step's shared batch -- the engine exports it as a span
        attribute to compare against the Chebyshev worst case the
        ``(ε, δ)`` budget assumed.
        """
        metric = self.val_func.metric
        zero = self._zero_col
        # The metric walks its keys in the order of the set union of
        # original and baseline keys; each position reads one row of
        # the columns.  Equal rows (a repeated member's positions) give
        # equal values, so each distinct row pair is measured once.
        keys = list(self._aligned.keys() | self._baseline.keys())
        originals = zip(*[self._aligned.get(key, zero) for key in keys])
        summaries = zip(*[self._baseline.get(key, zero) for key in keys])
        measured: Dict[Tuple, float] = {}
        values: List[float] = []
        for rows in zip(originals, summaries):
            value = measured.get(rows)
            if value is None:
                original, summary = rows
                value = measured[rows] = metric(
                    dict(zip(keys, original)), dict(zip(keys, summary))
                )
            values.append(value)
        succ, weight_sum, sumsq = self._kernel.weighted_moments(
            values, self._weights_col
        )
        mean = succ / weight_sum if weight_sum else 0.0
        variance = (
            max(0.0, sumsq / weight_sum - mean * mean) if weight_sum else 0.0
        )
        return mean, variance

    # -- step transition ------------------------------------------------------

    def advance(
        self,
        parts,
        new_name: str,
        new_expression: TensorSum,
        new_mapping: MappingState,
    ) -> None:
        """Carry past the applied merge *without* redrawing the batch.

        Prop 4.2.2's lower-bound property -- what lets the engine carry
        stale measurements and run the lazy queue -- holds pointwise
        per valuation, so it survives sampling only while the batch is
        fixed.  Redrawing here would also invalidate every carried
        accumulator.  A fresh batch is drawn exactly when the engine
        constructs a fresh scorer.
        """
        super().advance(parts, new_name, new_expression, new_mapping)
        # The term table (and possibly the mask dict) moved: the packed
        # views must be re-materialized on next read.
        self._packed_term_table = None
        self._packed_term_rows = None
        self._packed_mask_views = None
        self._batch_stats = None
