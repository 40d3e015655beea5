"""The provenance summarization algorithm (Algorithm 1, Ch. 4.2).

The algorithm builds its homomorphism gradually.  Line 1 merges
valuation-equivalent annotations (distance stays exactly 0,
Proposition 4.2.1).  Each subsequent step enumerates the
constraint-satisfying single-pair merges (``CandidateHom``), measures
every candidate's size and approximate distance from the *original*
expression, picks the candidate with the minimal
``CandidateScore = wDist*rDist + wSize*rSize`` (taxonomy distances
break ties) and repeats until a stop condition fires:

* the expression reached ``TARGET-SIZE``;
* the distance reached ``TARGET-DIST`` -- in which case the *previous*
  expression (the last one within the bound) is returned, as in the
  final lines of Algorithm 1;
* the step budget ran out, or no candidate merge remains.

Note on the loop condition: the thesis's pseudo-code writes the two
stop conditions with ``or`` but describes them ("the stop condition
for TARGET-SIZE (TARGET-DIST) is when the expression meets the size
(resp. distance) bound") and uses them experimentally (§6.5, §6.6) as
independent stopping rules; we implement the described semantics --
either bound being met stops the loop.

Greedy search is justified by monotonicity (Proposition 4.2.2): along
a merge chain the distance never decreases and the size never
increases, so a step that overshoots a bound can never be repaired by
later steps (docs/ALGORITHM.md lists the distance half's exceptions).

Instrumentation: every step records wall-clock time and the average
per-candidate measurement time -- the quantities plotted in Fig. 6.5.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..observability import metrics as _metrics
from ..observability import slo as _slo
from ..observability import tracing as _tracing
from ..provenance.annotations import AnnotationUniverse
from .distance import DistanceComputer, DistanceEstimate
from .engine import QueueState, ScoringEngine
from .engine import _OverlayUniverse  # noqa: F401  (re-export)
from .equivalence import EquivalencePartition, compute_partition, group_equivalent
from .mapping import MappingState
from .pool import CandidatePool
from .problem import SummarizationConfig, SummarizationProblem
from .scoring import score_candidates
from .streaming import SummaryRepairState

_SUMMARIZE_RUNS = _metrics.counter(
    "prox_summarize_runs_total",
    "Completed summarization runs, by algorithm.",
    labelnames=("algorithm",),
)
_SUMMARIZE_STEPS = _metrics.counter(
    "prox_summarize_steps_total",
    "Greedy merge steps applied across all summarization runs.",
)
_SUMMARIZE_SECONDS = _metrics.histogram(
    "prox_summarize_seconds",
    "End-to-end summarization wall-clock seconds per run.",
)
_REPAIR_INVALIDATED = _metrics.counter(
    "prox_repair_invalidated_total",
    "Carried candidate-pool entries invalidated by streaming-repair "
    "runs (dropped or re-proposed because a delta touched them).",
)


@dataclass
class StepRecord:
    """One greedy step: what merged and what it cost.

    ``distance_after`` is the approximate distance of the expression
    after the step; baselines leave it ``None`` when no stop condition
    forced them to compute it.
    """

    step: int
    merged: Tuple[str, ...]
    new_annotation: str
    label: str
    size_after: int
    distance_after: Optional[DistanceEstimate]
    n_candidates: int
    candidate_seconds: float
    step_seconds: float
    #: Which engine path measured this step's candidates
    #: ("fast+incremental", "sampled+incremental" or "naive"); "" in
    #: records predating the engine.
    scoring_path: str = ""
    #: Candidates freshly scored this step (all of them under full
    #: ranking; only the popped stale queue heads under lazy
    #: selection); -1 in records predating the carry.
    n_rescored: int = -1
    #: Candidate sizes the lazy queue computed this step (new and
    #: re-sized candidates; every other size was carried); -1 when
    #: the step did not run the lazy queue.
    n_sized: int = -1

    @property
    def step_mapping(self) -> Dict[str, str]:
        """The single-step homomorphism this step applied."""
        return {name: self.new_annotation for name in self.merged}


@dataclass
class SummarizationResult:
    """Output of Algorithm 1 plus the telemetry the experiments plot."""

    original_expression: object
    summary_expression: object
    mapping: MappingState
    universe: AnnotationUniverse
    steps: List[StepRecord]
    stop_reason: str
    final_size: int
    #: Distance of ``summary_expression`` from the original: the last
    #: kept step's estimate when it is exact, else the reference
    #: computer's (:func:`final_distance_of`, greedy and beam alike).
    final_distance: DistanceEstimate
    equivalence_merges: int
    total_seconds: float
    config: SummarizationConfig
    equivalence_mapping: Dict[str, str] = field(default_factory=dict)
    #: Whether this run repaired a previous run's summary (streaming
    #: ingest) rather than computing from scratch.
    repaired: bool = False
    #: Carried pool entries the delta invalidated (repaired runs only).
    repair_invalidated: int = 0
    #: State a later run can repair from (:class:`~repro.core.streaming
    #: .SummaryRepairState`); every :class:`Summarizer` run sets it, beam
    #: search and the baselines leave it ``None``.  Holds live objects --
    #: intentionally not serialized.
    repair_state: Optional[SummaryRepairState] = None
    #: Steps whose fast scoring path raised and was rescored through
    #: the naive reference (``ScoringEngine.fallback_count``); a
    #: healthy run reports 0.
    scoring_fallbacks: int = 0
    #: Candidate-pool maintenance failures (an advance or the ingest
    #: raised, so the pool re-enumerated); a healthy run reports 0.
    pool_fallbacks: int = 0

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def original_size(self) -> int:
        return self.original_expression.size()

    def size_trajectory(self) -> List[int]:
        """Expression size after every step (starting point included)."""
        sizes = [self.original_size]
        sizes.extend(record.size_after for record in self.steps)
        return sizes

    def at_step(self, step: int):
        """The expression after ``step`` greedy steps (0 = after the
        equivalence grouping) -- the UI's left/right arrows (Figs
        7.5-7.8 let the user "observe the algorithm in action, step by
        step").
        """
        if not 0 <= step <= len(self.steps):
            raise IndexError(
                f"step must be in [0, {len(self.steps)}], got {step}"
            )
        expression = self.original_expression
        if self.equivalence_mapping:
            expression = expression.apply_mapping(self.equivalence_mapping)
        for record in self.steps[:step]:
            expression = expression.apply_mapping(record.step_mapping)
        return expression

    def summary_groups(self) -> Dict[str, Tuple[str, ...]]:
        """Final summary annotation → the base annotations it stands for."""
        groups: Dict[str, Tuple[str, ...]] = {}
        for current in self.mapping.current_names():
            annotation = self.universe[current]
            if annotation.is_summary:
                groups[current] = tuple(sorted(annotation.base_members()))
        return groups


def final_distance_of(
    computer: DistanceComputer,
    steps: List[StepRecord],
    expression,
    mapping: MappingState,
) -> Tuple[DistanceEstimate, str]:
    """The distance of the returned ``expression`` and its source.

    ``steps`` is the history that produced ``expression``: its last
    record already measured that expression, and an exact estimate
    equals the reference's bit for bit, so it is reported as is
    (source ``"step"``).  With no step, or a sampled last estimate,
    the reference computer measures it (source ``"reference"``; a
    sampled run keeps the reference's independent draw).
    """
    measured = steps[-1].distance_after if steps else None
    if measured is not None and measured.exact:
        return measured, "step"
    return computer.distance(expression, mapping), "reference"


class Summarizer:
    """Runs Algorithm 1 on a :class:`SummarizationProblem`."""

    def __init__(
        self,
        problem: SummarizationProblem,
        config: SummarizationConfig,
        repair_from: Optional[SummaryRepairState] = None,
        flipped: Optional[Dict[str, Tuple[str, ...]]] = None,
    ):
        """``repair_from`` seeds this run from a previous run's state
        (the problem must be the previous one extended by an
        append-only delta); ``flipped`` maps a valuation label to the
        annotations whose truth that delta flipped (valuation
        extensions).
        """
        self.problem = problem
        self.config = config
        self.repair_from = repair_from
        self.flipped = dict(flipped) if flipped else {}
        self._rng = random.Random(config.seed)

    def run(self) -> SummarizationResult:
        span = _tracing.span("summarize")
        with span:
            result = self._run(span)
        slo = self.config.slo_seconds
        breached = slo is not None and result.total_seconds > slo
        if breached:
            _slo.record_breach("summarize_run")
            if span is not _tracing.NULL_SPAN:
                span.set("slo_seconds", slo)
                span.set("slo_breached", True)
        if _metrics.ENABLED:
            _SUMMARIZE_RUNS.inc(algorithm="prov-approx")
            _SUMMARIZE_STEPS.inc(result.n_steps)
            _SUMMARIZE_SECONDS.observe(result.total_seconds)
        return result

    def _run(self, run_span) -> SummarizationResult:
        problem, config = self.problem, self.config
        started = time.perf_counter()
        original = problem.expression
        mapping = MappingState(sorted(original.annotation_names()))
        computer = DistanceComputer(
            original,
            problem.valuations,
            problem.val_func,
            problem.combiners,
            problem.universe,
            max_enumerate=config.max_enumerate,
            n_samples=config.distance_samples,
            epsilon=config.epsilon,
            delta=config.delta,
            rng=self._rng,
        )
        engine = ScoringEngine(problem, config, computer)

        # Streaming repair: a state captured by a previous run over the
        # pre-delta problem lets this run repair -- partition, pool and
        # step-0 queue sizes are delta-updated instead of recomputed.
        # Every repaired artifact is bit-identical to its from-scratch
        # counterpart (differential-tested), so the rest of the run is
        # oblivious to how step 0 came to be.  The state is consumed:
        # this run edits its pool and queue.
        state = self.repair_from
        pool: Optional[CandidatePool] = None
        queue: Optional[QueueState] = None
        if state is not None:
            pool, queue = state.pool, state.queue
            state.pool = state.queue = None
        if pool is None:
            # Cross-step candidate pool: after a merge {a, b} → c only
            # the candidates mentioning a/b/c change, so the pool
            # maintains the list in place of a fresh O(n²)
            # re-enumeration.  The maintained list is identical to
            # enumerate_candidates' -- see core.pool.
            pool = CandidatePool(
                problem.universe,
                problem.constraint,
                arity=config.merge_arity,
            )
        # A carried pool's count includes earlier runs' failures.
        carried_fallbacks = pool.fallbacks

        current = original
        equivalence_merges = 0
        equivalence_mapping: Dict[str, str] = {}
        partition: Optional[EquivalencePartition] = None
        if config.group_equivalent_first:
            names = sorted(original.annotation_names())
            if state is not None and state.partition is not None:
                partition = state.partition.repair(
                    names, problem.valuations, self.flipped
                )
            else:
                partition = compute_partition(names, problem.valuations)
            current, equivalence_mapping, equivalence_merges = group_equivalent(
                original,
                problem.universe,
                problem.valuations,
                problem.constraint,
                partition=partition,
            )
            if equivalence_mapping:
                mapping = mapping.compose(equivalence_mapping)

        repaired = state is not None
        repair_invalidated = 0
        if state is not None and state.expression is not None:
            repair_invalidated = pool.ingest(current)
            if _metrics.ENABLED and repair_invalidated:
                _REPAIR_INVALIDATED.inc(repair_invalidated)
            if queue is not None:
                engine.resume(queue, state.expression, current)
        # The greedy steps advance a fork of the step-0 pool, which the
        # next run's repair state carries.
        step0_pool = pool

        new_state: Optional[SummaryRepairState] = None
        steps: List[StepRecord] = []
        previous: Optional[Tuple[object, MappingState]] = None
        last_distance: Optional[DistanceEstimate] = None
        # The applied merge ``(parts, new name)`` the engine and pool
        # have not been carried past yet: the carry runs when the next
        # step starts, so a run that stops after a merge skips it.
        uncarried: Optional[Tuple[Tuple[str, ...], str]] = None
        stop_reason = "exhausted"
        while True:
            # The distance bound is checked before the size bound: the
            # final lines of Algorithm 1 revert to the previous
            # expression whenever the bound is exceeded, even if the
            # same step also reached TARGET-SIZE.
            if config.target_dist < 1.0:
                distance = (
                    last_distance
                    if last_distance is not None
                    else computer.distance(current, mapping)
                )
                if distance.normalized >= config.target_dist:
                    if previous is not None:
                        current, mapping = previous
                        steps.pop()
                    stop_reason = "target_dist"
                    break
            if current.size() <= config.target_size:
                stop_reason = "target_size"
                break
            if config.max_steps is not None and len(steps) >= config.max_steps:
                stop_reason = "max_steps"
                break

            step_span = _tracing.span("step[%d]", len(steps) + 1)
            with step_span:
                step_started = time.perf_counter()
                if uncarried is not None:
                    engine.advance(*uncarried, current, mapping)
                    if pool is step0_pool:
                        pool = pool.child(*uncarried, current)
                    else:
                        pool.advance(*uncarried, current)
                    uncarried = None
                candidates = pool.candidates(current)
                if not candidates:
                    stop_reason = "exhausted"
                    break

                if engine.lazy:
                    best, scoring_seconds = engine.measure_lazy(
                        candidates,
                        current,
                        mapping,
                        config.w_dist,
                        config.w_size,
                        original.size(),
                    )
                    candidate_seconds = scoring_seconds / len(candidates)
                else:
                    measured, scoring_seconds = engine.measure(
                        candidates, current, mapping
                    )
                    candidate_seconds = scoring_seconds / len(candidates)
                    best = score_candidates(
                        measured,
                        w_dist=config.w_dist,
                        w_size=config.w_size,
                        original_size=original.size(),
                        strategy=config.scoring,
                    )[0]
                if new_state is None:
                    # Step-0 capture: the pool this step read and the
                    # queue's sizes, for a future repaired run.
                    new_state = SummaryRepairState(
                        partition=partition,
                        expression=current,
                        pool=step0_pool,
                        queue=engine.snapshot(candidates),
                    )

                summary_parts = [problem.universe[name] for name in best.candidate.parts]
                summary = problem.universe.new_summary(
                    summary_parts,
                    label=best.candidate.proposal.label,
                    concept=best.candidate.proposal.concept,
                )
                step_mapping = {name: summary.name for name in best.candidate.parts}
                previous = (current, mapping)
                current = current.apply_mapping(step_mapping)
                mapping = mapping.compose(step_mapping)
                uncarried = (best.candidate.parts, summary.name)
                last_distance = best.distance
                steps.append(
                    StepRecord(
                        step=len(steps) + 1,
                        merged=best.candidate.parts,
                        new_annotation=summary.name,
                        label=best.candidate.proposal.label,
                        size_after=current.size(),
                        distance_after=best.distance,
                        n_candidates=len(candidates),
                        candidate_seconds=candidate_seconds,
                        step_seconds=time.perf_counter() - step_started,
                        scoring_path=engine.last_path,
                        n_rescored=engine.last_rescored,
                        n_sized=engine.last_sized,
                    )
                )
                step_span.set("step", len(steps))
                step_span.set("merged", best.candidate.parts)
                step_span.set("new_annotation", summary.name)
                step_span.set("size_after", steps[-1].size_after)
                step_span.set("n_candidates", len(candidates))
                step_span.set("scoring_path", engine.last_path)

        if new_state is None:
            # The greedy loop never measured (bound already met /
            # nothing to merge): carry the partition so later deltas
            # still repair the equivalence grouping.
            new_state = SummaryRepairState(partition=partition, expression=current)
        pool_fallbacks = step0_pool.fallbacks - carried_fallbacks
        if pool is not step0_pool:
            pool_fallbacks += pool.fallbacks

        # After a target_dist revert the popped step is gone, so the
        # last kept step describes the expression the run returns.
        final_distance, final_distance_source = final_distance_of(
            computer, steps, current, mapping
        )
        if run_span is not _tracing.NULL_SPAN:
            run_span.set("steps", len(steps))
            run_span.set("stop_reason", stop_reason)
            run_span.set("final_size", current.size())
            run_span.set("final_distance", final_distance.normalized)
            run_span.set("final_distance_source", final_distance_source)
            run_span.set("equivalence_merges", equivalence_merges)
            run_span.set("scoring_path_counts", dict(engine.path_counts))
            run_span.set("scoring_fallbacks", engine.fallback_count)
            run_span.set("pool_fallbacks", pool_fallbacks)
            run_span.set("distance_stats", computer.stats.as_dict())
            run_span.set("epsilon", config.epsilon)
            run_span.set("delta", config.delta)
            if repaired:
                run_span.set("repaired", True)
                run_span.set("repair_invalidated", repair_invalidated)
        return SummarizationResult(
            original_expression=original,
            summary_expression=current,
            mapping=mapping,
            universe=problem.universe,
            steps=steps,
            stop_reason=stop_reason,
            final_size=current.size(),
            final_distance=final_distance,
            equivalence_merges=equivalence_merges,
            total_seconds=time.perf_counter() - started,
            config=config,
            equivalence_mapping=equivalence_mapping,
            repaired=repaired,
            repair_invalidated=repair_invalidated,
            repair_state=new_state,
            scoring_fallbacks=engine.fallback_count,
            pool_fallbacks=pool_fallbacks,
        )


def summarize(
    problem: SummarizationProblem, config: Optional[SummarizationConfig] = None
) -> SummarizationResult:
    """Convenience wrapper: run Algorithm 1 with the given (or default) config."""
    return Summarizer(problem, config or SummarizationConfig()).run()
