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
``CandidateScore``: the exact size plus a distance bound.  After the
queue's winner merged into ``S_t``, every candidate is ``S_t ∘ X``,
and Prop 4.2.2 (the distance never falls along a merge chain) puts
its distance at or above ``dist(S_t)`` -- the winner's own estimate --
and at or above any estimate carried from an earlier step.  Only queue
heads are scored until no entry left can beat the best fresh one, so
the winner is the one a full re-score would pick.  The queue lives for
the whole run: past a merge it drops the candidates the candidate pool
dropped, enters the pool's new ones and re-sizes only the candidates
whose terms the merge touched; every other size moved by the merge's
size change, which the queue keeps as one run-level offset, so a step
costs what the merge touched rather than what the queue holds.
Ordinal ranks and beam search measure the whole step through
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
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

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
        # -- the run-long lazy queue (see :meth:`_lazy_select`) --
        #: Live entries by candidate parts.
        self._entries: Dict[Tuple[str, ...], _Entry] = {}
        #: ``(key, taxonomy cost, parts, stamp)`` items; an item whose
        #: stamp is not its entry's is dead and skipped when popped.
        self._heap: List[tuple] = []
        #: Name → parts of the live entries mentioning it.
        self._by_name: Dict[str, Set[Tuple[str, ...]]] = {}
        #: The expression the entries' sizes describe; ``None`` when
        #: there is no queue (the next lazy step builds one).
        self._queue_expr: object = None
        #: ``(w_dist, w_size, original_size)`` the keys were built for.
        self._weights: Optional[Tuple[float, float, int]] = None
        #: Run-level size offset: an entry's size is ``base + offset``.
        #: A merge moves every candidate it left untouched by exactly
        #: its size change, which lands here instead of in each entry.
        self._offset: int = 0
        #: Names whose candidates the merges since the last step may
        #: have re-sized (:attr:`FastStepScorer.last_touched`).
        self._touched: Set[Optional[str]] = set()
        #: The candidate-pool version the entries match.
        self._synced: Optional[Tuple[object, int]] = None
        #: Live entries never scored (still keyed by size alone).
        self._n_unscored: int = 0
        self._stamp: int = 0
        #: Lazy steps measured; an entry scored in the current one is fresh.
        self._epoch: int = 0
        #: Normalized distance of the queue's expression: a lower bound
        #: on every candidate's fresh distance that keeps it (Prop
        #: 4.2.2).  0.0 for a fresh queue.
        self._floor: float = 0.0
        #: The most recent lazy winner's parts and normalized estimate;
        #: advance() adopts the estimate as the floor when it applies
        #: exactly that merge.
        self._pending_floor: Optional[Tuple[Tuple[str, ...], float]] = None
        #: Path taken by the most recent measurement.
        self.last_path: str = ""
        #: Kernel backend that folded the most recent step's masks
        #: (the scorer's captured backend; the process-wide active
        #: backend for naive steps, which fold nothing).
        self.last_kernel: str = _kernels.active_backend()
        #: Shared-batch telemetry of the most recent sampled step:
        #: batch size, and whether the carried scorer's batch was
        #: reused rather than redrawn (see also
        #: :attr:`last_sample_variance`).
        self.last_sample_batch: int = 0
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
        #: Distance floor of the most recent lazy step's queue.
        self.last_floor: float = 0.0
        #: How often each path was taken over the engine's lifetime.
        self.path_counts: Dict[str, int] = {}
        #: Fast-path failures: steps rescored naively, plus scorer
        #: carries dropped for a fresh measurement.
        self.fallback_count: int = 0

    @property
    def lazy(self) -> bool:
        """Whether :meth:`measure_lazy` drives candidate selection."""
        return self._lazy

    @property
    def last_sample_variance(self) -> float:
        """Achieved baseline variance of the most recent sampled step's
        batch (0.0 after any other step).

        Read from the scorer, which computes it on first read; the
        next :meth:`advance` moves the scorer's baseline, so read it
        before that.
        """
        scorer = self._scorer
        if not self._sampled_step() or not isinstance(scorer, SampledStepScorer):
            return 0.0
        return scorer.batch_variance

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
        mask-free).  The distance term is the larger of two bounds.
        A carried estimate may be *stale* -- measured against an
        earlier expression ``S_k`` of the merge chain -- and by Prop
        4.2.2 the distance from the original never falls along the
        chain ``S_k ∘ X → S_t ∘ X``, so it bounds the fresh distance.
        The *floor* is the distance of the current expression ``S_t``
        itself, the previous winner's estimate: the chain ``S_t → S_t
        ∘ X`` puts every candidate that keeps Prop 4.2.2 at or above
        it, scored or not (:meth:`~repro.core.fast_distance
        .FastStepScorer.keeps_distance`).  A fresh queue's floor is 0,
        which bounds any distance with no monotonicity argument.
        Popping the minimum and scoring it unless it is fresh ends with
        the true fresh argmin once no key left can reach the best fresh
        score (:meth:`_lazy_select`).  The queue lives for the whole run
        (:meth:`_sync`): candidates far from the top are never scored
        and their staleness deepens harmlessly.
        """
        span = _tracing.span("score_candidates")
        with span:
            best, seconds = self._measure_lazy(
                candidates, current, mapping, w_dist, w_size, original_size
            )
            self._set_step_attrs(span, len(candidates), seconds)
            if span is not _tracing.NULL_SPAN:
                span.set("distance_floor", self.last_floor)
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
        parts = tuple(parts)
        pending, self._pending_floor = self._pending_floor, None
        scorer = self._scorer
        if scorer is None:
            self._invalidate_carry()
            return
        measured_expr = scorer.current
        keeps_distance = scorer.keeps_distance(parts)
        try:
            scorer.advance(parts, new_name, new_expression, new_mapping)
        except Exception:
            self._scorer = None
            self._invalidate_carry()
            self._note_fallback()
            return
        # Carry the queue to the new expression.  A merge whose global
        # term-canonicalization collapsed duplicates *outside* its own
        # neighborhood breaks the shifted-size identity for every
        # candidate (the candidate's own merge would collapse the same
        # pair), not just for intersecting ones -- drop the queue and
        # re-measure.  A merge that may lower distances leaves no
        # carried estimate a bound.
        if (
            self._queue_expr is measured_expr
            and scorer.last_shift_local
            and keeps_distance
        ):
            self._queue_expr = new_expression
            self._offset += scorer.last_size_shift
            self._touched.update(scorer.last_touched)
            if pending is not None and pending[0] == parts:
                self._floor = pending[1]
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
        self.last_floor = 0.0
        self.last_sample_batch = 0
        self.last_batch_reused = False

    def _fast_scorer(self, current, mapping: MappingState) -> Optional[FastStepScorer]:
        """The step's fast scorer, or ``None`` for the naive path."""
        carried = self._scorer
        if carried is not None and carried.current is current:
            # Carried by advance(): a merge keeps every applicability
            # precondition (same class, domains and combiners; values
            # stay non-negative), so the scorer's mode still holds.  A
            # carried sampled scorer keeps its pinned batch: stale
            # carried measurements stay lower bounds (Prop 4.2.2 holds
            # pointwise only over a fixed valuation set).
            self.last_batch_reused = isinstance(carried, SampledStepScorer)
            return carried
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
        scorer_cls = SampledStepScorer if mode == "sampled" else FastStepScorer
        span = _tracing.span("scorer_build")
        with span:
            self._scorer = scorer_cls(
                self.computer, current, mapping, self.problem.universe
            )
            if span is not _tracing.NULL_SPAN:
                span.set("n_vals", self._scorer.n_vals)
                span.set("n_keys", self._scorer.n_keys)
                span.set("nonzero_keys", self._scorer.nonzero_keys)
        self._invalidate_carry()
        return self._scorer

    def _note_fast_step(self, scorer: FastStepScorer) -> None:
        if isinstance(scorer, SampledStepScorer):
            self._record(self.PATH_SAMPLED_INCREMENTAL)
            self.last_sample_batch = scorer.batch_size
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
        """Pop, score and re-key until no entry can beat the best.

        The queue lives for the whole run (see :meth:`_sync`).  An
        entry's key is ``w_dist · bound + w_size · base / original_size
        − _STALE_MARGIN``, where ``base + offset`` is its exact size and
        ``bound`` its distance bound: its last estimate (0 if never
        scored), raised to the floor when the candidate keeps Prop
        4.2.2 (see :meth:`measure_lazy`).  Keys leave the run-level
        offset out, so a merge that shifts every untouched size alike
        re-keys nothing: it adds the same ``w_size · offset /
        original_size`` to every score, and the heap order stands.  The
        floor is applied when an entry pops: one keyed under a lower
        floor is re-keyed and pushed back unscored.  Every key thus
        stays a lower bound on the candidate's fresh score minus that
        shared term.  A popped entry is scored unless it already was
        this step, and its exact ``(score, taxonomy cost, parts)``
        competes for the win.  Popping stops once the next key exceeds
        the best score less the shared term and half the margin: every
        entry left scores above the best by at least half the margin,
        far above any float dust of the shift.

        Returns the winner, the carried and rescored counts, how many
        carried sizes were recomputed, how many entries were still
        size-only when the winner popped, and how many sizes the
        one-pass computation left to the per-candidate reference.
        """
        sizes_recomputed, sizes_fallback = self._sync(
            scorer, candidates, (w_dist, w_size, original_size)
        )
        self.last_floor = floor = self._floor
        self._epoch += 1
        epoch = self._epoch
        entries = self._entries
        heap = self._heap
        offset = self._offset
        keeps = None if scorer.merges_keep_distance else scorer.keeps_distance
        shared = w_size * offset / original_size if original_size else 0.0
        best: Optional[_Entry] = None
        best_rank: tuple = ()
        cutoff = float("inf")
        popped: List[_Entry] = []
        rescored = 0
        while heap and heap[0][0] <= cutoff:
            _, cost, parts, stamp = heapq.heappop(heap)
            entry = entries.get(parts)
            if entry is None or entry.stamp != stamp:
                continue
            if entry.scored != epoch:
                if _bound(entry, floor, keeps) > entry.bound:
                    self._push(entry, floor, keeps)
                    continue
                size, estimate = scorer.score(parts)
                if entry.estimate is None:
                    self._n_unscored -= 1
                entry.estimate = estimate
                entry.base = size - offset
                entry.scored = epoch
                rescored += 1
            popped.append(entry)
            size = entry.base + offset
            r_size = size / original_size if original_size else 0.0
            score = w_dist * entry.estimate.normalized + w_size * r_size
            rank = (score, cost, parts)
            if best is None or rank < best_rank:
                best, best_rank = entry, rank
                cutoff = score - shared - _STALE_MARGIN / 2
        if best is None:
            raise RuntimeError("the lazy queue holds no candidate")
        for entry in popped:
            self._push(entry, floor, keeps)

        estimate = best.estimate
        r_dist = estimate.normalized
        self._pending_floor = (best.candidate.parts, r_dist)
        size = best.base + offset
        r_size = size / original_size if original_size else 0.0
        winner = ScoredCandidate(
            candidate=best.candidate,
            expression=None,
            step_mapping={},
            size=size,
            distance=estimate,
            r_dist=r_dist,
            r_size=r_size,
            score=w_dist * r_dist + w_size * r_size,
        )
        return (
            winner,
            len(candidates) - rescored,
            rescored,
            sizes_recomputed,
            self._n_unscored,
            sizes_fallback,
        )

    def _sync(
        self,
        scorer: FastStepScorer,
        candidates: Sequence[Candidate],
        weights: Tuple[float, float, int],
    ) -> Tuple[int, int]:
        """Bring the queue's entries to this step's candidate set.

        A fresh queue enters every candidate.  A carried one (same
        weights, carried by :meth:`advance` to this expression) takes
        the pool's delta when ``candidates`` is the
        :class:`~repro.core.pool.CandidateSet` one advance past the
        set it matches: the dropped parts leave, the new candidates
        enter.  Any other sequence is diffed against the entries.
        Entries mentioning a name the merges touched are re-sized; new
        and re-sized entries get their sizes from one
        :meth:`~repro.core.fast_distance.FastStepScorer.candidate_sizes`
        call.  Every other size stays ``base + offset``: exact, because
        the merges carried each of its terms verbatim
        (:meth:`~repro.core.fast_distance.FastStepScorer
        .size_intersects`).  Sizes are never left stale -- a stale size
        could *overstate* the bound (sizes only shrink along chains).

        Returns how many carried sizes were recomputed and how many
        sizes the one-pass computation left to the reference.
        """
        pool = getattr(candidates, "pool", None)
        version = getattr(candidates, "version", None)
        if self._queue_expr is not scorer.current or self._weights != weights:
            self._reset_queue(scorer.current, weights)
            removed: Sequence[Tuple[str, ...]] = ()
            added: Sequence[Candidate] = candidates
        elif self._synced == (pool, version):
            removed, added = (), ()
        elif (
            pool is not None
            and self._synced == (pool, candidates.base)
            and candidates.added is not None
        ):
            removed, added = candidates.removed, candidates.added
        else:
            entries = self._entries
            listed = {candidate.parts: candidate for candidate in candidates}
            removed = {
                parts
                for parts, entry in entries.items()
                if listed.get(parts) != entry.candidate
            }
            added = [
                candidate
                for parts, candidate in listed.items()
                if parts not in entries or parts in removed
            ]
        self._synced = None if pool is None else (pool, version)

        entries = self._entries
        for parts in removed:
            self._remove(parts)
        by_name = self._by_name
        resized: Set[Tuple[str, ...]] = set()
        for name in self._touched:
            resized.update(by_name.get(name, ()))
        self._touched = set()
        resized_entries = [entries[parts] for parts in resized]
        fresh = [self._add(candidate) for candidate in added]
        if len(entries) != len(candidates):
            raise RuntimeError("lazy queue out of step with its candidates")

        sizing = fresh + resized_entries
        sizes, sizes_fallback = scorer.candidate_sizes(
            [entry.candidate.parts for entry in sizing]
        )
        offset = self._offset
        floor = self._floor
        keeps = None if scorer.merges_keep_distance else scorer.keeps_distance
        items = []
        for entry, size in zip(sizing, sizes):
            entry.base = size - offset
            items.append(self._item(entry, floor, keeps))
        heap = self._heap
        if len(items) > len(heap):
            heap.extend(items)
            heapq.heapify(heap)
        else:
            for item in items:
                heapq.heappush(heap, item)
        return len(resized_entries), sizes_fallback

    def _reset_queue(self, expression, weights: Tuple[float, float, int]) -> None:
        """Start an empty queue for ``expression``."""
        self._invalidate_carry()
        self._queue_expr = expression
        self._weights = weights

    def _add(self, candidate: Candidate) -> "_Entry":
        parts = candidate.parts
        if parts in self._entries:
            raise RuntimeError(f"candidate {parts} queued twice")
        entry = self._entries[parts] = _Entry(candidate)
        by_name = self._by_name
        for name in parts:
            holders = by_name.get(name)
            if holders is None:
                by_name[name] = {parts}
            else:
                holders.add(parts)
        self._n_unscored += 1
        return entry

    def _remove(self, parts: Tuple[str, ...]) -> None:
        entry = self._entries.pop(parts)
        by_name = self._by_name
        for name in parts:
            holders = by_name.get(name)
            if holders is not None:
                holders.discard(parts)
                if not holders:
                    del by_name[name]
        if entry.estimate is None:
            self._n_unscored -= 1

    def _push(self, entry: "_Entry", floor: float, keeps) -> None:
        """Key ``entry`` under the current floor and push it."""
        heapq.heappush(self._heap, self._item(entry, floor, keeps))

    def _item(self, entry: "_Entry", floor: float, keeps) -> tuple:
        """``entry``'s heap item under the current floor; it becomes the
        entry's live item."""
        parts = entry.candidate.parts
        entry.bound = bound = _bound(entry, floor, keeps)
        w_dist, w_size, original_size = self._weights
        r_size = entry.base / original_size if original_size else 0.0
        self._stamp += 1
        entry.stamp = self._stamp
        return (
            w_dist * bound + w_size * r_size - _STALE_MARGIN,
            entry.candidate.proposal.taxonomy_cost,
            parts,
            self._stamp,
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
        if span is _tracing.NULL_SPAN:
            # Untraced: skip the reads, the batch variance above all.
            return
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
        self._entries = {}
        self._heap = []
        self._by_name = {}
        self._queue_expr = None
        self._weights = None
        self._offset = 0
        self._touched = set()
        self._synced = None
        self._n_unscored = 0
        self._floor = 0.0
        self._pending_floor = None


def _bound(entry: "_Entry", floor: float, keeps) -> float:
    """``entry``'s distance bound: its last estimate (0 if never
    scored), raised to ``floor`` when the candidate keeps Prop 4.2.2
    (``keeps`` is ``None`` when every candidate does)."""
    estimate = entry.estimate
    bound = estimate.normalized if estimate is not None else 0.0
    if bound < floor and (keeps is None or keeps(entry.candidate.parts)):
        bound = floor
    return bound


class _Entry:
    """One candidate in the lazy queue.

    ``base + offset`` is its exact size; ``estimate`` its last measured
    distance (``None`` if never scored), ``scored`` the lazy step that
    measured it, ``bound`` the distance bound of its live heap item and
    ``stamp`` that item's stamp.
    """

    __slots__ = ("candidate", "base", "estimate", "scored", "bound", "stamp")

    def __init__(self, candidate: Candidate):
        self.candidate = candidate
        self.base = 0
        self.estimate: Optional[DistanceEstimate] = None
        self.scored = 0
        self.bound = 0.0
        self.stamp = 0
