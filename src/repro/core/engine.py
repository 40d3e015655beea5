"""The candidate scoring engine: serial, carried, lazy.

One Algorithm-1 step measures candidate merges' sizes and distances --
the dominant cost of the whole algorithm.  The :class:`ScoringEngine`
owns that measurement and picks, per step, the cheapest path that
preserves the reference semantics:

* **fast + incremental** -- the
  :class:`~repro.core.fast_distance.FastStepScorer`, carried across
  steps (:meth:`ScoringEngine.advance` invalidates only the merged
  neighborhood) and scoring each candidate with one columnar sparse
  walk, when its preconditions hold;
* **sampled + incremental** -- the
  :class:`~repro.core.sampled_scoring.SampledStepScorer` when the
  class is too large to enumerate: the same bitmask kernel over one
  shared Monte-Carlo batch (common random numbers), carried across
  steps with its batch pinned so the lazy queue stays sound;
* **naive** -- the reference :class:`~repro.core.distance
  .DistanceComputer` applied to each materialized candidate expression
  (for large classes this is the per-candidate reference sampler --
  the path when the kernels' preconditions fail, and the fallback when
  a fast path raises).

Selection.  Under ``scoring="normalized"`` (the default) the greedy
loop selects through :meth:`ScoringEngine.measure_lazy`: candidates
sit in a priority queue keyed by a lower bound on their
``CandidateScore``.  An unscored candidate's key is its exact size
alone (a distance is never negative); a carried one's is its stale
score (Prop 4.2.2: along a merge chain the distance never falls and
the size never grows).  Only queue heads are scored until the head is
fresh, so the winner is the one a full re-score would pick.  Ordinal
ranks and beam search measure the whole step through
:meth:`ScoringEngine.measure` and rank it in full.

Everything runs serially in the calling thread: there is no worker
pool, so the engine is safe to drive from any thread of the serving
tier.

Robustness contract: if any fast path raises mid-run -- a latent
applicability gap, a broken scorer -- the engine rescores the
*entire* step through the naive path rather than crashing or returning
a partial candidate list.  ``path_counts`` records which path every
step actually took and ``fallback_count`` how often a fast path
failed -- including a failed scorer carry, which only drops carried
state and re-measures fresh.
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..observability import metrics as _metrics
from ..observability import tracing as _tracing
from ..provenance.annotations import Annotation, AnnotationUniverse
from .candidates import Candidate, virtual_summary
from .distance import DistanceComputer, DistanceEstimate
from .fast_distance import FastStepScorer
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
    "dropped scorer carries.",
)
_SCORING_CARRIED = _metrics.counter(
    "prox_scoring_candidates_carried_total",
    "Candidates the lazy queue never re-scored in a step "
    "(served by a stale or size-only key).",
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

#: Margin subtracted from a stale queue key.  A stale estimate is a
#: lower bound in exact arithmetic, but its float sum may associate
#: differently from a fresh walk's; the margin -- far above
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

    PATH_FAST_INCREMENTAL = "fast+incremental"
    PATH_SAMPLED_INCREMENTAL = "sampled+incremental"
    PATH_NAIVE = "naive"

    def __init__(self, problem, config, computer: DistanceComputer):
        self.problem = problem
        self.config = config
        self.computer = computer
        # Lazy selection needs absolute scores: ordinal ranks are
        # per-step, so a stale rank bounds nothing.
        self._lazy = config.scoring == "normalized"
        self._scorer: Optional[FastStepScorer] = None
        #: The lazy queue's carried entries, parts → ``(size,
        #: estimate)``; the estimate is ``None`` for a candidate never
        #: scored.  Valid only while ``_carry_expr`` tracks the scorer's
        #: current expression through advance().
        self._carry_store: Dict[Tuple[str, ...], tuple] = {}
        self._carry_expr: object = None
        self._carry_ready: bool = False
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
        #: Queue entries of the most recent step still keyed by size
        #: alone when the winner popped: not scored since the queue
        #: last started fresh.
        self.last_unscored: int = 0
        #: Queue sizes of the most recent step that the scorer's
        #: one-pass size computation did not cover and the exact
        #: per-candidate reference computed instead.
        self.last_sizes_fallback: int = 0
        #: How often each path was taken over the engine's lifetime.
        self.path_counts: Dict[str, int] = {}
        #: Fast-path failures: steps rescored naively, plus scorer
        #: carries dropped for a fresh measurement.
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

        Candidates sit in a priority queue keyed by a lower bound on
        their ``CandidateScore``.  Sizes are kept exact (cheap and
        mask-free).  A candidate never scored has no distance yet and
        is keyed by its size term alone: a distance is never negative,
        so that key bounds the fresh score with no monotonicity
        argument.  A carried entry's distance may be *stale* --
        measured against an earlier expression in the merge chain --
        and by Prop 4.2.2 the distance from the original is
        non-decreasing along merge chains, so a stale score is a lower
        bound too.  Popping the minimum, scoring it if not fresh and
        pushing it back terminates with the true fresh argmin when the
        top entry is fresh.  Candidates far from the top are never
        scored and their staleness deepens harmlessly.
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

    # -- internals ---------------------------------------------------------------

    def _measure(
        self,
        candidates: Sequence[Candidate],
        current,
        mapping: MappingState,
    ) -> Tuple[List[ScoredCandidate], float]:
        # A full measurement re-bases nothing on earlier steps: the lazy
        # queue (if any) must restart fresh afterwards.
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
        self._begin_step(candidates)
        scorer = self._fast_scorer(current, mapping)
        if scorer is not None:
            started = time.perf_counter()
            try:
                (
                    best,
                    carried,
                    rescored,
                    sizes_recomputed,
                    unscored,
                    sizes_fallback,
                ) = self._lazy_select(
                    scorer, candidates, w_dist, w_size, original_size
                )
            except Exception:
                self._scorer = None
                self._invalidate_carry()
                self._note_fallback()
            else:
                self.last_carried = carried
                self.last_rescored = rescored
                self.last_sizes_recomputed = sizes_recomputed
                self.last_unscored = unscored
                self.last_sizes_fallback = sizes_fallback
                self._note_fast_step(scorer)
                return best, time.perf_counter() - started
        # No fast kernel (or it failed): full naive measurement + rank.
        measured, seconds = self._measure_naive(candidates, current, mapping)
        best = score_candidates(
            measured,
            w_dist=w_dist,
            w_size=w_size,
            original_size=original_size,
            strategy="normalized",
        )[0]
        return best, seconds

    def _begin_step(self, candidates: Sequence[Candidate]) -> None:
        """Reset the per-step telemetry."""
        # Default partition: everything freshly scored.  The lazy queue
        # overwrites both counts.
        self.last_carried = 0
        self.last_rescored = len(candidates)
        self.last_sizes_recomputed = 0
        self.last_unscored = 0
        self.last_sizes_fallback = 0
        self.last_sample_batch = 0
        self.last_sample_variance = 0.0
        self.last_batch_reused = False

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
        (classes too large to enumerate).  ``None`` falls through to the
        naive reference path.
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
        if SampledStepScorer.applicable(
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
        self, current, mapping: MappingState, mode: str
    ) -> FastStepScorer:
        sampled = mode == "sampled"
        carried = self._scorer
        if (
            carried is not None
            and carried.current is current
            and isinstance(carried, SampledStepScorer) == sampled
        ):
            # A carried sampled scorer keeps its pinned batch: stale
            # carried measurements stay lower bounds (Prop 4.2.2
            # holds pointwise only over a fixed valuation set).
            self.last_batch_reused = sampled
            return carried
        scorer_cls = SampledStepScorer if sampled else FastStepScorer
        self._scorer = scorer_cls(
            self.computer, current, mapping, self.problem.universe
        )
        self._invalidate_carry()
        return self._scorer

    def _note_fast_step(self, scorer: FastStepScorer) -> None:
        if isinstance(scorer, SampledStepScorer):
            self._record(self.PATH_SAMPLED_INCREMENTAL)
            self.last_sample_batch = scorer.batch_size
            self.last_sample_variance = scorer.batch_variance
        else:
            self._record(self.PATH_FAST_INCREMENTAL)
        self.last_kernel = scorer._kernel.name

    def _lazy_select(
        self,
        scorer: FastStepScorer,
        candidates: Sequence[Candidate],
        w_dist: float,
        w_size: float,
        original_size: int,
    ) -> Tuple[ScoredCandidate, int, int, int, int, int]:
        """Pop-score-reinsert until the queue's top entry is fresh.

        Entries hold ``[size, estimate, fresh]``.  Sizes are always
        exact -- a stale size could *overstate* the bound (sizes only
        shrink along chains) and break the lower-bound invariant.  A
        candidate without an estimate (every candidate of a fresh
        queue, and new pairs of a carried one) is keyed by
        ``w_size · r_size`` alone: its distance term is at least 0, so
        the key never exceeds its fresh score.  A size depends on term
        structure alone, so a carried entry whose terms the last merge
        left untouched (:meth:`~repro.core.fast_distance
        .FastStepScorer.size_intersects`) gets the exact
        carried-size shift and the rest a mask-free size
        recomputation; group overlap moves only the (stale anyway)
        distance.  Size-only entries are carried like scored ones, so
        later steps shift their sizes instead of recomputing them.
        Every size the step needs -- fresh entries and recomputed
        carried ones -- comes from one
        :meth:`~repro.core.fast_distance.FastStepScorer.candidate_sizes`
        pass.

        Returns the winner, the carried and rescored counts, how many
        carried sizes were recomputed, how many entries were still
        size-only when the winner popped, and how many sizes the
        one-pass computation left to the per-candidate reference.
        """
        live = (
            self._carry_ready
            and self._carry_expr is scorer.current
            and scorer.last_affected_terms is not None
        )
        store = self._carry_store if live else {}
        shift = scorer.last_size_shift
        entries: List[list] = []
        sizes_recomputed = 0
        unsized: List[int] = []
        for index, candidate in enumerate(candidates):
            parts = candidate.parts
            entry = store.get(parts)
            if entry is None:
                entries.append([0, None, False])
                unsized.append(index)
            elif scorer.size_intersects(parts):
                entries.append([0, entry[1], False])
                unsized.append(index)
                sizes_recomputed += 1
            else:
                entries.append([entry[0] + shift, entry[1], False])
        sizes, sizes_fallback = scorer.candidate_sizes(
            [candidates[index].parts for index in unsized]
        )
        for index, size in zip(unsized, sizes):
            entries[index][0] = size
        rescored = 0

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
        }
        self._carry_expr = scorer.current
        self._carry_ready = True
        unscored = sum(1 for entry in entries if entry[1] is None)

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
        return (
            best,
            len(candidates) - rescored,
            rescored,
            sizes_recomputed,
            unscored,
            sizes_fallback,
        )

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
        return self.last_path == self.PATH_SAMPLED_INCREMENTAL

    def _set_step_attrs(self, span, n_candidates: int, seconds: float) -> None:
        span.set("path", self.last_path)
        span.set("kernel", self.last_kernel)
        span.set("n_candidates", n_candidates)
        span.set("seconds", seconds)
        span.set("carried", self.last_carried)
        span.set("rescored", self.last_rescored)
        span.set("sizes_recomputed", self.last_sizes_recomputed)
        span.set("unscored", self.last_unscored)
        span.set("sizes_fallback", self.last_sizes_fallback)
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
