"""The candidate scoring engine: serial, incremental, lazy.

One Algorithm-1 step measures candidate merges' sizes and distances --
the dominant cost of the whole algorithm.  The :class:`ScoringEngine`
owns that measurement and picks, per step, the cheapest kernel that
preserves the reference semantics:

* **fast** -- the batch :class:`~repro.core.fast_distance.FastStepScorer`
  when its preconditions hold;
* **fast + incremental** -- an
  :class:`~repro.core.fast_distance.IncrementalStepScorer` carried
  across steps (:meth:`ScoringEngine.advance` invalidates only the
  merged neighborhood) with sparse per-candidate metrics;
* **sampled** / **sampled + incremental** -- the
  :class:`~repro.core.sampled_scoring.SampledStepScorer` when the
  class is too large to enumerate: the same bitmask kernel over one
  shared Monte-Carlo batch per step (common random numbers), carried
  across steps with its batch pinned so the lazy queue stays sound;
* **naive** -- the reference :class:`~repro.core.distance
  .DistanceComputer` applied to each materialized candidate expression
  (for large classes this is the per-candidate reference sampler --
  also the fallback when ``sample_sharing`` is off or the kernel's
  preconditions fail).

Selection.  Under ``scoring="normalized"`` with the carried scorer
(``carry`` and ``incremental`` not off -- the default) the greedy loop
selects through :meth:`ScoringEngine.measure_lazy`: candidates sit in
a priority queue keyed by their possibly-stale ``CandidateScore``.
Stale scores are lower bounds (Prop 4.2.2: along a merge chain the
distance never falls and the size never grows), so only queue heads
are re-scored until the head is fresh, and the winner is the one a
full re-score would pick.  Every other configuration -- ordinal ranks,
beam search, ``carry``/``incremental`` off -- measures the whole step
through :meth:`ScoringEngine.measure` and ranks it in full.

Everything runs serially in the calling thread: there is no worker
pool, so the engine is safe to drive from any thread of the serving
tier.

Streaming repair.  The first measurement of a run (a fresh lazy queue)
goes through :meth:`ScoringEngine._score_step`, which records each
candidate's per-valuation accumulators so
:meth:`~ScoringEngine.capture_repair_checkpoint` can hand them to the
next run; that run re-bases the untouched candidates on the checkpoint
(:meth:`~ScoringEngine._score_from_seed`) instead of re-scoring them.

Robustness contract: if any fast path raises mid-run -- a latent
applicability gap, a broken scorer -- the engine rescores the
*entire* step through the naive path rather than crashing or returning
a partial candidate list.  ``path_counts`` records which path every
step actually took and ``fallback_count`` how often a fast path
failed -- including a failed scorer carry or repair seed, which only
drop carried state and re-measure fresh.
"""

from __future__ import annotations

import heapq
import time
from collections import Counter
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..observability import metrics as _metrics
from ..observability import tracing as _tracing
from ..provenance.annotations import Annotation, AnnotationUniverse
from .candidates import Candidate, virtual_summary
from .distance import DistanceComputer, DistanceEstimate
from .fast_distance import FastStepScorer, IncrementalStepScorer
from .mapping import MappingState
from .sampled_scoring import SampledStepScorer
from .scoring import ScoredCandidate, score_candidates
from . import kernels as _kernels

_SCORING_STEPS = _metrics.counter(
    "prox_scoring_steps_total",
    "Candidate-scoring steps measured, by engine path.",
    labelnames=("path",),
)
_SCORING_SECONDS = _metrics.histogram(
    "prox_scoring_seconds",
    "Pure candidate-scoring wall-clock seconds per step.",
)
_SCORING_CANDIDATES = _metrics.counter(
    "prox_scoring_candidates_total",
    "Candidates measured across all scoring steps.",
)
_SCORING_FALLBACKS = _metrics.counter(
    "prox_scoring_fallbacks_total",
    "Fast-path failures: steps rescored through the naive path, plus "
    "dropped scorer carries and repair seeds.",
)
_SCORING_CARRIED = _metrics.counter(
    "prox_scoring_candidates_carried_total",
    "Candidates whose measurement was carried across a step "
    "(served stale from the lazy queue or seeded by streaming repair).",
)
_SCORING_RESCORED = _metrics.counter(
    "prox_scoring_candidates_rescored_total",
    "Candidates freshly re-scored under cross-step carry "
    "(fresh queue, new pairs, or popped stale queue heads).",
)
_SCORING_SAMPLED_FAST = _metrics.counter(
    "prox_scoring_sampled_fast_total",
    "Scoring steps served by the bit-packed sampled (shared "
    "Monte-Carlo batch) kernel.",
)
_SAMPLE_BATCH_REUSE = _metrics.counter(
    "prox_scoring_sample_batch_reuse_total",
    "Sampled steps that reused the carried scorer's valuation batch "
    "instead of redrawing it.",
)

#: Margin subtracted from a stale queue key.  A stale (or repair-seeded)
#: estimate is a lower bound in exact arithmetic, but its float sum may
#: associate differently from a fresh walk's; the margin -- far above
#: that dust, far below any real score gap -- keeps the key a lower
#: bound bit for bit, so the popped fresh winner is exactly the one a
#: full re-score would rank first.
_STALE_MARGIN = 1e-9


class _OverlayUniverse:
    """Read-only view of a universe plus a few virtual annotations.

    Candidate scoring evaluates merges that are mostly discarded; the
    overlay lets the distance machinery resolve a candidate's virtual
    summary annotation without registering it.
    """

    __slots__ = ("_base", "_extra")

    def __init__(self, base: AnnotationUniverse, extra: Mapping[str, Annotation]):
        self._base = base
        self._extra = dict(extra)

    def __getitem__(self, name: str) -> Annotation:
        extra = self._extra.get(name)
        if extra is not None:
            return extra
        return self._base[name]

    def __contains__(self, name: str) -> bool:
        return name in self._extra or name in self._base


class ScoringEngine:
    """Measures one step's candidates; carries state between steps."""

    PATH_FAST = "fast"
    PATH_FAST_INCREMENTAL = "fast+incremental"
    PATH_SAMPLED = "sampled"
    PATH_SAMPLED_INCREMENTAL = "sampled+incremental"
    PATH_NAIVE = "naive"

    def __init__(self, problem, config, computer: DistanceComputer):
        self.problem = problem
        self.config = config
        self.computer = computer
        self._incremental = config.incremental is not False
        # Lazy selection needs absolute scores (ordinal ranks are
        # per-step, so a stale rank bounds nothing) and a scorer
        # carried through advance() (stale entries must describe an
        # earlier expression of the same merge chain).
        self._lazy = (
            config.scoring == "normalized"
            and config.carry is not False
            and self._incremental
        )
        # Bit-packed sampled scoring for classes too large to
        # enumerate: one shared Monte-Carlo batch per step instead of
        # per-candidate redraws through the naive path.  "auto"/"on"
        # engage it whenever the kernel's preconditions hold; "off"
        # restores the reference per-candidate sampler.
        self._sample_sharing = config.sample_sharing is not False
        self._scorer: Optional[IncrementalStepScorer] = None
        #: The lazy queue's carried measurements, parts → ``(size,
        #: estimate)``.  Valid only while ``_carry_expr`` tracks the
        #: scorer's current expression through advance().
        self._carry_store: Dict[Tuple[str, ...], tuple] = {}
        self._carry_expr: object = None
        self._carry_ready: bool = False
        #: Per-valuation accumulators of the current fresh queue, parts
        #: → ``(size, accs, weighted_finished)`` -- what
        #: :meth:`capture_repair_checkpoint` hands the next run.  Built
        #: only when a queue starts fresh; dropped by advance().
        self._detail_store: Optional[Dict[Tuple[str, ...], tuple]] = None
        #: Cross-run repair seed (a previous run's step-0 checkpoint
        #: plus the delta's flipped labels / affected names), consumed
        #: by the first measurement and then cleared.
        self._repair_seed: Optional[tuple] = None
        #: Step-0 measurements served from the repair seed (telemetry
        #: for the streaming-repair harness).
        self.last_repair_seeded: int = 0
        #: Path taken by the most recent measurement.
        self.last_path: str = ""
        #: Kernel backend that folded the most recent step's masks
        #: (the scorer's captured backend; the process-wide active
        #: backend for naive steps, which fold nothing).
        self.last_kernel: str = _kernels.active_backend()
        #: Shared-batch telemetry of the most recent sampled step:
        #: batch size, achieved baseline variance, and whether the
        #: carried scorer's batch was reused rather than redrawn.
        self.last_sample_batch: int = 0
        self.last_sample_variance: float = 0.0
        self.last_batch_reused: bool = False
        #: Carried (stale) / freshly scored candidate counts of the most
        #: recent step; they partition its candidate set.
        self.last_carried: int = 0
        self.last_rescored: int = 0
        #: Carried queue entries of the most recent step whose size was
        #: recomputed because the last merge touched their terms; every
        #: other carried size was shifted by the merge's size change.
        self.last_sizes_recomputed: int = 0
        #: How often each path was taken over the engine's lifetime.
        self.path_counts: Dict[str, int] = {}
        #: Fast-path failures: steps rescored naively, plus scorer
        #: carries and repair seeds dropped for a fresh measurement.
        self.fallback_count: int = 0

    @property
    def lazy(self) -> bool:
        """Whether :meth:`measure_lazy` drives candidate selection."""
        return self._lazy

    # -- public API --------------------------------------------------------------

    def measure(
        self,
        candidates: Sequence[Candidate],
        current,
        mapping: MappingState,
    ) -> Tuple[List[ScoredCandidate], float]:
        """Size and distance of every candidate against ``current``.

        Returns the measured candidates (in input order) and the pure
        scoring wall-clock time, excluding the step's shared
        precomputation -- the quantity Fig. 6.5a plots.
        """
        span = _tracing.span("score_candidates")
        with span:
            measured, seconds = self._measure(candidates, current, mapping)
            self._set_step_attrs(span, len(candidates), seconds)
        self._emit_step_metrics(len(candidates), seconds)
        return measured, seconds

    def measure_lazy(
        self,
        candidates: Sequence[Candidate],
        current,
        mapping: MappingState,
        w_dist: float,
        w_size: float,
        original_size: int,
    ) -> Tuple[ScoredCandidate, float]:
        """Select the step's best candidate via the lazy-greedy queue.

        Candidates sit in a priority queue keyed by ``CandidateScore``.
        Sizes are kept exact (cheap), while a carried entry's distance
        may be *stale* -- measured against an earlier expression in the
        merge chain.  By Prop 4.2.2 the distance from the original is
        non-decreasing along merge chains, so a stale distance (and
        with exact sizes, a stale score) is a lower bound on the fresh
        one: popping the minimum, re-scoring it if stale and pushing it
        back terminates with the true fresh argmin when the top entry
        is fresh.  Candidates far from the top are never re-scored and
        their staleness deepens harmlessly.
        """
        span = _tracing.span("score_candidates")
        with span:
            best, seconds = self._measure_lazy(
                candidates, current, mapping, w_dist, w_size, original_size
            )
            self._set_step_attrs(span, len(candidates), seconds)
        self._emit_step_metrics(len(candidates), seconds)
        return best, seconds

    def advance(
        self,
        parts: Sequence[str],
        new_name: str,
        new_expression,
        new_mapping: MappingState,
    ) -> None:
        """Carry the step scorer past the applied merge ``parts → new_name``.

        A failed carry is never fatal: the scorer is dropped, the
        failure is counted as a fallback, and the next measurement
        rebuilds from scratch.
        """
        self._detail_store = None
        scorer = self._scorer
        if scorer is None:
            self._invalidate_carry()
            return
        measured_expr = scorer.current
        try:
            scorer.advance(parts, new_name, new_expression, new_mapping)
        except Exception:
            self._scorer = None
            self._invalidate_carry()
            self._note_fallback()
            return
        # Re-link the queue's carried measurements to the new
        # expression.  A merge whose global term-canonicalization
        # collapsed duplicates *outside* its own neighborhood breaks the
        # carried-size identity for every candidate (the candidate's
        # own merge would collapse the same pair), not just for
        # intersecting ones -- drop the whole carry and re-measure.
        if (
            self._carry_ready
            and self._carry_expr is measured_expr
            and scorer.last_shift_local
        ):
            self._carry_expr = new_expression
        else:
            self._invalidate_carry()

    def capture_repair_checkpoint(self) -> Optional[dict]:
        """Snapshot the current step's measurement state for repair.

        Called by the summarizer right after the *first* greedy step's
        measurement (before any merge is applied): a later run over a
        delta-extended problem can :meth:`seed_repair` from this
        snapshot and skip re-measuring every candidate untouched by
        the delta.  Returns ``None`` when the step's path cannot seed
        a repair -- ordinal or beam selection, the sampled kernel
        (its Monte-Carlo batch is not reproducible across runs), a
        dense scorer or the naive fallback -- in which case the
        repaired run simply re-scores from scratch (correct, just not
        accelerated).
        """
        store = self._detail_store
        scorer = self._scorer
        if store is None or scorer is None or self._carry_expr is not scorer.current:
            return None
        labels = tuple(str(valuation) for valuation in scorer.valuations)
        if len(set(labels)) != len(labels):
            return None
        # No later step mutates the store's lists (advance drops the
        # reference, and seeding builds fresh lists), so the checkpoint
        # shares them rather than copying.
        return {
            "store": store,
            "labels": labels,
            "weights": tuple(valuation.weight for valuation in scorer.valuations),
            "expr_size": scorer.current.size(),
            "terms": tuple(scorer._terms),
            "nonzero_empty": all(not entries for entries in scorer._nonzero),
        }

    def seed_repair(
        self,
        checkpoint: Optional[dict],
        flipped_labels: Sequence[str] = (),
        affected_names: Sequence[str] = (),
    ) -> None:
        """Arm the next measurement with a prior run's step-0 checkpoint.

        ``flipped_labels`` are the valuation labels whose truth
        assignments the delta extended (their positions must be
        re-measured); ``affected_names`` the annotations the delta
        added or removed (candidates touching them are re-scored
        fresh).  The seed is consumed by the first lazy measurement
        and discarded on any applicability miss -- seeding can only
        skip work, never change a result.
        """
        self.last_repair_seeded = 0
        if checkpoint is None:
            self._repair_seed = None
            return
        self._repair_seed = (
            checkpoint,
            frozenset(flipped_labels),
            frozenset(affected_names),
        )

    # -- internals ---------------------------------------------------------------

    def _measure(
        self,
        candidates: Sequence[Candidate],
        current,
        mapping: MappingState,
    ) -> Tuple[List[ScoredCandidate], float]:
        # A full measurement re-bases nothing on earlier steps: a repair
        # seed is dropped unused and the lazy queue (if any) must
        # restart fresh afterwards.
        self._begin_step(candidates)
        self._invalidate_carry()
        scorer = self._fast_scorer(current, mapping)
        if scorer is not None:
            started = time.perf_counter()
            try:
                results = [scorer.score(candidate.parts) for candidate in candidates]
            except Exception:
                # The fast path bailed mid-run: never crash or skip
                # candidates -- rescore the whole step naively.
                self._scorer = None
                self._note_fallback()
            else:
                measured = [
                    ScoredCandidate(
                        candidate=candidate,
                        expression=None,
                        step_mapping={},
                        size=size,
                        distance=distance,
                    )
                    for candidate, (size, distance) in zip(candidates, results)
                ]
                self._note_fast_step(scorer)
                return measured, time.perf_counter() - started
        return self._measure_naive(candidates, current, mapping)

    def _measure_lazy(
        self,
        candidates: Sequence[Candidate],
        current,
        mapping: MappingState,
        w_dist: float,
        w_size: float,
        original_size: int,
    ) -> Tuple[ScoredCandidate, float]:
        if not self._lazy:
            # No carried scorer to keep stale entries sound: full
            # measurement + full ranking.
            measured, seconds = self._measure(candidates, current, mapping)
            return self._rank_first(measured, w_dist, w_size, original_size), seconds
        seed = self._begin_step(candidates)
        scorer = self._fast_scorer(current, mapping)
        if scorer is not None:
            started = time.perf_counter()
            try:
                best, carried, rescored, sizes_recomputed = self._lazy_select(
                    scorer, candidates, seed, w_dist, w_size, original_size
                )
            except Exception:
                self._scorer = None
                self._invalidate_carry()
                self._note_fallback()
            else:
                self.last_carried = carried
                self.last_rescored = rescored
                self.last_sizes_recomputed = sizes_recomputed
                self._note_fast_step(scorer)
                return best, time.perf_counter() - started
        # No fast kernel (or it failed): full naive measurement + rank.
        measured, seconds = self._measure_naive(candidates, current, mapping)
        return self._rank_first(measured, w_dist, w_size, original_size), seconds

    @staticmethod
    def _rank_first(
        measured: List[ScoredCandidate],
        w_dist: float,
        w_size: float,
        original_size: int,
    ) -> ScoredCandidate:
        return score_candidates(
            measured,
            w_dist=w_dist,
            w_size=w_size,
            original_size=original_size,
            strategy="normalized",
        )[0]

    def _begin_step(self, candidates: Sequence[Candidate]) -> Optional[tuple]:
        """Reset the per-step telemetry; returns (and disarms) the
        repair seed, which only the run's first measurement may use."""
        seed = self._repair_seed
        self._repair_seed = None
        # Default partition: everything freshly scored.  The lazy queue
        # overwrites both counts.
        self.last_carried = 0
        self.last_rescored = len(candidates)
        self.last_sizes_recomputed = 0
        self.last_sample_batch = 0
        self.last_sample_variance = 0.0
        self.last_batch_reused = False
        return seed

    def _fast_scorer(self, current, mapping: MappingState) -> Optional[FastStepScorer]:
        """The step's fast scorer, or ``None`` for the naive path."""
        mode = self._step_mode(current)
        if mode is None:
            return None
        try:
            return self._obtain_scorer(current, mapping, mode)
        except Exception:
            self._scorer = None
            self._note_fallback()
            return None

    def _step_mode(self, current) -> Optional[str]:
        """Which fast kernel (if any) can serve this step.

        ``"exact"`` enumerates the whole class (small classes);
        ``"sampled"`` scores against one shared Monte-Carlo batch
        (classes too large to enumerate, when ``sample_sharing`` is not
        off).  ``None`` falls through to the naive reference path.
        """
        problem = self.problem
        if FastStepScorer.applicable(
            current,
            problem.val_func,
            problem.combiners,
            problem.valuations,
            problem.universe,
            self.config.max_enumerate,
        ):
            return "exact"
        if self._sample_sharing and SampledStepScorer.applicable(
            current,
            problem.val_func,
            problem.combiners,
            problem.valuations,
            problem.universe,
            self.config.max_enumerate,
        ):
            return "sampled"
        return None

    def _obtain_scorer(
        self, current, mapping: MappingState, mode: str = "exact"
    ) -> FastStepScorer:
        if mode == "sampled":
            if not self._incremental:
                # Fresh scorer, fresh batch every step (the in-step
                # batch sharing across candidates still applies).
                return SampledStepScorer(
                    self.computer, current, mapping, self.problem.universe
                )
            carried = self._scorer
            if isinstance(carried, SampledStepScorer) and carried.current is current:
                # The carried scorer keeps its pinned batch: stale
                # carried measurements stay lower bounds (Prop 4.2.2
                # holds pointwise only over a fixed valuation set).
                self.last_batch_reused = True
                return carried
            self._scorer = SampledStepScorer(
                self.computer, current, mapping, self.problem.universe
            )
            self._invalidate_carry()
            return self._scorer
        if not self._incremental:
            return FastStepScorer(
                self.computer, current, mapping, self.problem.universe
            )
        carried = self._scorer
        if (
            carried is not None
            and not isinstance(carried, SampledStepScorer)
            and carried.current is current
        ):
            return carried
        self._scorer = IncrementalStepScorer(
            self.computer, current, mapping, self.problem.universe
        )
        self._invalidate_carry()
        return self._scorer

    def _scorer_path(self, scorer: FastStepScorer) -> str:
        # SampledStepScorer subclasses IncrementalStepScorer: test the
        # most specific flavor first.
        if isinstance(scorer, SampledStepScorer):
            return (
                self.PATH_SAMPLED_INCREMENTAL
                if self._incremental
                else self.PATH_SAMPLED
            )
        if isinstance(scorer, IncrementalStepScorer):
            return self.PATH_FAST_INCREMENTAL
        return self.PATH_FAST

    def _note_fast_step(self, scorer: FastStepScorer) -> None:
        self._record(self._scorer_path(scorer))
        self.last_kernel = scorer._kernel.name
        if isinstance(scorer, SampledStepScorer):
            self.last_sample_batch = scorer.batch_size
            self.last_sample_variance = scorer.batch_variance

    def _lazy_select(
        self,
        scorer: IncrementalStepScorer,
        candidates: Sequence[Candidate],
        seed: Optional[tuple],
        w_dist: float,
        w_size: float,
        original_size: int,
    ) -> Tuple[ScoredCandidate, int, int, int]:
        """Pop-rescore-reinsert until the queue's top entry is fresh.

        Entries hold ``[size, estimate, fresh]``.  Sizes are always
        exact -- a stale size could *overstate* the bound (sizes only
        shrink along chains) and break the lower-bound invariant.  A
        size depends on term structure alone, so a carried entry whose
        terms the last merge left untouched
        (:meth:`~repro.core.fast_distance.IncrementalStepScorer
        .size_intersects`) gets the exact carried-size shift and the
        rest a mask-free size recomputation; group overlap moves only
        the (stale anyway) distance.  New pairs (no carried entry)
        enter with the global distance floor 0.0.  A queue that cannot
        carry (the run's first step, or after a dropped carry) starts
        from :meth:`_score_step`.

        Returns the winner, the carried and rescored counts, and how
        many carried sizes were recomputed.
        """
        store = self._carry_store
        live = (
            self._carry_ready
            and self._carry_expr is scorer.current
            and scorer.last_affected_terms is not None
        )
        entries: List[list] = []
        sizes_recomputed = 0
        if not live:
            entries = self._score_step(scorer, candidates, seed)
        else:
            shift = scorer.last_size_shift
            for candidate in candidates:
                parts = candidate.parts
                entry = store.get(parts)
                if entry is None:
                    entries.append([scorer.candidate_size(parts), None, False])
                elif scorer.size_intersects(parts):
                    entries.append([scorer.candidate_size(parts), entry[1], False])
                    sizes_recomputed += 1
                else:
                    entries.append([entry[0] + shift, entry[1], False])
        rescored = sum(1 for entry in entries if entry[2])

        def entry_key(index: int) -> Tuple[float, float, Tuple[str, ...]]:
            size, estimate, fresh = entries[index]
            r_dist = estimate.normalized if estimate is not None else 0.0
            r_size = size / original_size if original_size else 0.0
            score = w_dist * r_dist + w_size * r_size
            return (
                score if fresh else score - _STALE_MARGIN,
                candidates[index].proposal.taxonomy_cost,
                candidates[index].parts,
            )

        heap = [(entry_key(index), index) for index in range(len(candidates))]
        heapq.heapify(heap)
        while True:
            _, index = heapq.heappop(heap)
            if entries[index][2]:
                best_index = index
                break
            size, estimate = scorer.score(candidates[index].parts)
            entries[index] = [size, estimate, True]
            rescored += 1
            heapq.heappush(heap, (entry_key(index), index))

        self._carry_store = {
            candidate.parts: (entry[0], entry[1])
            for candidate, entry in zip(candidates, entries)
            if entry[1] is not None
        }
        self._carry_expr = scorer.current
        self._carry_ready = True

        size, estimate, _ = entries[best_index]
        r_dist = estimate.normalized
        r_size = size / original_size if original_size else 0.0
        best = ScoredCandidate(
            candidate=candidates[best_index],
            expression=None,
            step_mapping={},
            size=size,
            distance=estimate,
            r_dist=r_dist,
            r_size=r_size,
            score=w_dist * r_dist + w_size * r_size,
        )
        return best, len(candidates) - rescored, rescored, sizes_recomputed

    def _score_step(
        self,
        scorer: IncrementalStepScorer,
        candidates: Sequence[Candidate],
        seed: Optional[tuple] = None,
    ) -> List[list]:
        """A fresh queue's entries ``[size, estimate, fresh]``.

        Sparse exact scorers record every candidate's per-valuation
        accumulators alongside (the repair checkpoint), or -- when the
        run was armed by :meth:`seed_repair` (``seed``) -- re-base the candidates
        the delta left untouched on the previous run's checkpoint;
        those seeded entries enter the queue as stale.
        """
        if not scorer._sparse or isinstance(scorer, SampledStepScorer):
            return [
                [size, estimate, True]
                for size, estimate in (
                    scorer.score(candidate.parts) for candidate in candidates
                )
            ]
        if seed is not None:
            try:
                seeded = self._score_from_seed(scorer, candidates, *seed)
            except Exception:
                # A broken seed only costs the repair its head start:
                # count it and measure the step fresh.
                self._note_fallback()
                seeded = None
            if seeded is not None:
                return seeded
        store: Dict[Tuple[str, ...], tuple] = {}
        entries: List[list] = []
        for candidate in candidates:
            size, estimate, accs, wf = scorer.score_detail(candidate.parts)
            store[candidate.parts] = (size, accs, wf)
            entries.append([size, estimate, True])
        self._detail_store = store
        return entries

    def _score_from_seed(
        self,
        scorer: IncrementalStepScorer,
        candidates: Sequence[Candidate],
        checkpoint: dict,
        flipped_labels: FrozenSet[str],
        affected_names: FrozenSet[str],
    ) -> Optional[List[list]]:
        """Step-0 queue entries re-based on a prior run's checkpoint.

        A carried candidate's accumulator at a valuation position is
        exactly the sum of its recomputed-neighborhood contributions
        (the step-0 baseline contributions are all zero -- gated).  For
        a candidate whose neighborhood the delta does not touch, those
        contributions are unchanged at every surviving valuation
        position, so the old accumulator is permuted by label and only
        the appended / flipped positions are recomputed
        (:meth:`~repro.core.fast_distance.IncrementalStepScorer
        .score_positions`); the finish walk then reproduces the fresh
        estimate up to summation order, which the queue's stale margin
        absorbs.  Sizes shift by the expression-size delta (the
        candidate's collision structure is untouched).  Returns
        ``None`` when any applicability gate fails.
        """
        if not checkpoint.get("nonzero_empty") or any(scorer._nonzero):
            return None
        new_labels = tuple(str(valuation) for valuation in scorer.valuations)
        if len(set(new_labels)) != len(new_labels):
            return None
        old_index = {
            label: index for index, label in enumerate(checkpoint["labels"])
        }
        old_weights = checkpoint["weights"]
        pi: List[Optional[int]] = []
        recompute: List[int] = []
        for position, label in enumerate(new_labels):
            carried = old_index.get(label)
            if carried is None or label in flipped_labels:
                pi.append(None)
                recompute.append(position)
                continue
            if scorer.valuations[position].weight != old_weights[carried]:
                return None
            pi.append(carried)

        # Dirty state: terms not carried verbatim from the checkpoint
        # expression (multiset diff -- renames, congruent-merge count
        # changes and fresh delta terms all change the Term value), the
        # groups containing them, and the delta's added/removed names.
        old_counts = Counter(checkpoint["terms"])
        affected_terms: set = set()
        affected_groups: set = set(affected_names)
        for index, term in enumerate(scorer._terms):
            if old_counts.get(term, 0) > 0:
                old_counts[term] -= 1
            else:
                affected_terms.add(index)
                affected_groups.add(term.group)
        for term, remaining in old_counts.items():
            if remaining > 0:
                affected_groups.add(term.group)
        key = scorer._key
        for name in affected_names:
            affected_terms.update(scorer._ann_terms.get(key(name), ()))
            affected_terms.update(scorer._group_terms.get(name, ()))

        store = checkpoint["store"]
        shift = scorer.current.size() - checkpoint["expr_size"]
        n_vals = scorer.n_vals
        # Append-only streams almost always keep the old valuations as a
        # positional prefix of the new ones (π = identity on the prefix,
        # recompute = the appended tail).  Detect that once and replace
        # the per-candidate permutation listcomps with one C-level list
        # concat -- the values are identical, only the copy is cheaper.
        n_old = len(checkpoint["labels"])
        prefix_carry = (
            len(pi) >= n_old
            and all(
                carried == position
                for position, carried in enumerate(pi[:n_old])
            )
            and all(carried is None for carried in pi[n_old:])
        )
        tail = [0.0] * (n_vals - n_old)
        entries: List[list] = []
        new_store: Dict[Tuple[str, ...], tuple] = {}
        seeded = 0
        for candidate in candidates:
            parts = candidate.parts
            entry = store.get(parts)
            if entry is None or self._seed_intersects(
                scorer, parts, affected_terms, affected_groups
            ):
                size, estimate, accs, wf = scorer.score_detail(parts)
                entries.append([size, estimate, True])
                new_store[parts] = (size, accs, wf)
                continue
            old_accs = entry[1]
            old_wf = entry[2]
            if prefix_carry:
                accs = old_accs + tail
                wf = old_wf + tail
            else:
                accs = [
                    old_accs[carried] if carried is not None else 0.0
                    for carried in pi
                ]
                wf = [
                    old_wf[carried] if carried is not None else 0.0
                    for carried in pi
                ]
            if recompute:
                for position, value in scorer.score_positions(
                    parts, recompute
                ).items():
                    accs[position] = value
            # Re-finish exactly the recomputed positions and re-sum the
            # carried weighted contributions (valid verbatim: the label
            # permutation gate pinned weights, and finish is a pure
            # function of the unchanged accumulator).
            estimate = scorer.refinish(accs, wf, recompute)
            size = entry[0] + shift
            entries.append([size, estimate, False])
            new_store[parts] = (size, accs, wf)
            seeded += 1
        self._detail_store = new_store
        self.last_repair_seeded = seeded
        return entries

    @staticmethod
    def _seed_intersects(
        scorer: IncrementalStepScorer,
        parts: Tuple[str, ...],
        affected_terms: set,
        affected_groups: set,
    ) -> bool:
        """Whether the delta perturbs this candidate's measurement.

        A seeded entry re-bases the candidate's *distance*, not just
        its size, so this is wider than the lazy queue's
        :meth:`IncrementalStepScorer.size_intersects`.  The measurement
        reads (a) the dead masks and values of the terms mentioning the
        candidate's parts or grouped under them and (b) the aggregates
        and contributions of those terms' groups.  It is disturbed
        exactly when that neighborhood meets the delta's dirty terms or
        dirty groups."""
        key = scorer._key
        terms = scorer._terms
        for name in parts:
            if name in affected_groups:
                return True
            for index in scorer._ann_terms.get(key(name), ()):
                if index in affected_terms or terms[index].group in affected_groups:
                    return True
            for index in scorer._group_terms.get(name, ()):
                if index in affected_terms:
                    return True
        return False

    def _measure_naive(
        self,
        candidates: Sequence[Candidate],
        current,
        mapping: MappingState,
    ) -> Tuple[List[ScoredCandidate], float]:
        """Reference path: materialize and measure each candidate."""
        self._invalidate_carry()
        problem = self.problem
        measured: List[ScoredCandidate] = []
        started = time.perf_counter()
        for candidate in candidates:
            parts = [problem.universe[name] for name in candidate.parts]
            virtual = virtual_summary(parts, candidate.proposal)
            overlay = _OverlayUniverse(problem.universe, {virtual.name: virtual})
            step_mapping = {name: virtual.name for name in candidate.parts}
            expression = current.apply_mapping(step_mapping)
            candidate_mapping = mapping.compose(step_mapping)
            distance = self.computer.distance(
                expression, candidate_mapping, universe=overlay
            )
            measured.append(
                ScoredCandidate(
                    candidate=candidate,
                    expression=expression,
                    step_mapping=step_mapping,
                    size=expression.size(),
                    distance=distance,
                )
            )
        self._record(self.PATH_NAIVE)
        self.last_kernel = _kernels.active_backend()
        return measured, time.perf_counter() - started

    def _record(self, path: str) -> None:
        self.last_path = path
        self.path_counts[path] = self.path_counts.get(path, 0) + 1

    def _sampled_step(self) -> bool:
        """Whether the most recent step ran the sampled kernel."""
        return self.last_path in (
            self.PATH_SAMPLED,
            self.PATH_SAMPLED_INCREMENTAL,
        )

    def _set_step_attrs(self, span, n_candidates: int, seconds: float) -> None:
        span.set("path", self.last_path)
        span.set("kernel", self.last_kernel)
        span.set("n_candidates", n_candidates)
        span.set("seconds", seconds)
        span.set("carried", self.last_carried)
        span.set("rescored", self.last_rescored)
        span.set("sizes_recomputed", self.last_sizes_recomputed)
        # Only when the sampled kernel actually engaged: enumerated
        # steps keep their span shape unchanged.
        if self._sampled_step():
            span.set("sample_batch", self.last_sample_batch)
            span.set("sample_variance", self.last_sample_variance)
            span.set("batch_reused", self.last_batch_reused)

    def _emit_step_metrics(self, n_candidates: int, seconds: float) -> None:
        if not _metrics.ENABLED:
            return
        _SCORING_STEPS.inc(path=self.last_path)
        _SCORING_SECONDS.observe(seconds)
        _SCORING_CANDIDATES.inc(n_candidates)
        if self.last_carried:
            _SCORING_CARRIED.inc(self.last_carried)
        if self.last_rescored:
            _SCORING_RESCORED.inc(self.last_rescored)
        if self._sampled_step():
            _SCORING_SAMPLED_FAST.inc()
            if self.last_batch_reused:
                _SAMPLE_BATCH_REUSE.inc()

    def _note_fallback(self) -> None:
        self.fallback_count += 1
        if _metrics.ENABLED:
            _SCORING_FALLBACKS.inc()

    def _invalidate_carry(self) -> None:
        self._carry_store = {}
        self._carry_expr = None
        self._carry_ready = False
        self._detail_store = None
