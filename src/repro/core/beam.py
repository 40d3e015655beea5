"""Beam-search summarization -- widening the "A*-like" search (§4.2).

The thesis frames its search as "an A*-like search of expressions" but
Algorithm 1 keeps a single frontier expression per step (greedy
best-first).  :class:`BeamSummarizer` generalizes the frontier to a
*beam* of the ``beam_width`` best expressions: each step expands every
beam member's candidates, scores them all with the same
``CandidateScore``, and keeps the best ``beam_width`` distinct
expressions.  ``beam_width=1`` coincides with Algorithm 1 step for
step.

Because distance is monotone along merge chains (Prop 4.2.2) a wider
beam can only find summaries at least as good as the greedy path for
the same number of steps -- the ``bench_ablation_beam`` benchmark
measures how much it actually helps and at what cost.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..observability import metrics as _metrics
from ..observability import slo as _slo
from ..observability import tracing as _tracing
from .distance import DistanceComputer, DistanceEstimate
from .engine import ScoringEngine
from .equivalence import group_equivalent
from .mapping import MappingState
from .pool import CandidatePool
from .problem import SummarizationConfig, SummarizationProblem
from .summarize import (
    StepRecord,
    SummarizationResult,
    _SUMMARIZE_RUNS,
    _SUMMARIZE_SECONDS,
    _SUMMARIZE_STEPS,
    final_distance_of,
)


@dataclass
class _Beam:
    """One frontier expression with its history."""

    expression: object
    mapping: MappingState
    score: float
    steps: List[StepRecord]
    last_distance: Optional[DistanceEstimate]
    #: Per-member candidate pool, maintained along this member's own
    #: merge chain (children branch it via :meth:`CandidatePool.child`).
    pool: CandidatePool


class BeamSummarizer:
    """Algorithm 1 with a configurable search beam."""

    def __init__(
        self,
        problem: SummarizationProblem,
        config: SummarizationConfig,
        beam_width: int = 2,
    ):
        if beam_width < 1:
            raise ValueError("beam_width must be at least 1")
        self.problem = problem
        self.config = config
        self.beam_width = beam_width
        self._rng = random.Random(config.seed)

    def run(self) -> SummarizationResult:
        span = _tracing.span("beam_summarize", beam_width=self.beam_width)
        with span:
            result = self._run(span)
        slo = self.config.slo_seconds
        if slo is not None and result.total_seconds > slo:
            _slo.record_breach("summarize_run")
            if span is not _tracing.NULL_SPAN:
                span.set("slo_seconds", slo)
                span.set("slo_breached", True)
        if _metrics.ENABLED:
            _SUMMARIZE_RUNS.inc(algorithm="beam")
            _SUMMARIZE_STEPS.inc(result.n_steps)
            _SUMMARIZE_SECONDS.observe(result.total_seconds)
        return result

    def _run(self, run_span) -> SummarizationResult:
        problem, config = self.problem, self.config
        started = time.perf_counter()
        original = problem.expression
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
        # Each beam member has its own expression, so the engine's
        # cross-step carry never matches -- it simply rebuilds a fresh
        # step scorer (or falls back to the naive path) per member.
        # The candidate *pool* carry does apply: every member owns a
        # pool branched from its parent's (CandidatePool.child), so
        # only the member's own last merge is re-enumerated.
        engine = ScoringEngine(problem, config, computer)
        root_pool = CandidatePool(
            problem.universe,
            problem.constraint,
            arity=config.merge_arity,
        )

        current = original
        mapping = MappingState(sorted(original.annotation_names()))
        equivalence_merges = 0
        equivalence_mapping: Dict[str, str] = {}
        if config.group_equivalent_first:
            current, equivalence_mapping, equivalence_merges = group_equivalent(
                original, problem.universe, problem.valuations, problem.constraint
            )
            if equivalence_mapping:
                mapping = mapping.compose(equivalence_mapping)

        beams = [_Beam(current, mapping, 0.0, [], None, pool=root_pool)]
        stop_reason = "exhausted"
        for step_index in range(config.max_steps or 0):
            expansions: List[
                Tuple[float, DistanceEstimate, int, _Beam, Tuple[str, ...], str, int]
            ] = []
            step_started = time.perf_counter()
            step_span = _tracing.span("beam_step[%d]", step_index + 1)
            step_span.set("n_beams", len(beams))
            with step_span:
                for beam in beams:
                    candidates = beam.pool.candidates(beam.expression)
                    if not candidates:
                        continue
                    measured, _ = engine.measure(
                        candidates, beam.expression, beam.mapping
                    )
                    expansions.extend(
                        self._expand(beam, measured, len(candidates), original, config)
                    )
                step_span.set("n_expansions", len(expansions))
            if not expansions:
                stop_reason = "exhausted"
                break
            expansions.sort(key=lambda entry: (entry[0], entry[4]))
            candidate_seconds = (time.perf_counter() - step_started) / len(expansions)

            next_beams: List[_Beam] = []
            seen_keys: set = set()
            for score, distance, size, beam, parts, label, n_candidates in expansions:
                if len(next_beams) >= self.beam_width:
                    break
                summary_parts = [problem.universe[name] for name in parts]
                key = frozenset().union(
                    *(part.base_members() for part in summary_parts)
                ) | {id(beam)}
                frozen = (frozenset(key), size)
                if frozen in seen_keys:
                    continue
                seen_keys.add(frozen)
                summary = problem.universe.new_summary(summary_parts, label=label)
                step_mapping = {name: summary.name for name in parts}
                expression = beam.expression.apply_mapping(step_mapping)
                new_mapping = beam.mapping.compose(step_mapping)
                record = StepRecord(
                    step=len(beam.steps) + 1,
                    merged=parts,
                    new_annotation=summary.name,
                    label=label,
                    size_after=expression.size(),
                    distance_after=distance,
                    n_candidates=n_candidates,
                    candidate_seconds=candidate_seconds,
                    step_seconds=time.perf_counter() - step_started,
                    scoring_path=engine.last_path,
                )
                next_beams.append(
                    _Beam(
                        expression,
                        new_mapping,
                        score,
                        beam.steps + [record],
                        distance,
                        pool=beam.pool.child(parts, summary.name, expression),
                    )
                )
            beams = next_beams
            stop_reason = "max_steps"

            if all(
                beam.expression.size() <= config.target_size for beam in beams
            ):
                stop_reason = "target_size"
                break

        best = min(beams, key=lambda beam: beam.score)
        final_distance, final_distance_source = final_distance_of(
            computer, best.steps, best.expression, best.mapping
        )
        if run_span is not _tracing.NULL_SPAN:
            run_span.set("steps", len(best.steps))
            run_span.set("stop_reason", stop_reason)
            run_span.set("final_size", best.expression.size())
            run_span.set("final_distance", final_distance.normalized)
            run_span.set("final_distance_source", final_distance_source)
            run_span.set("scoring_path_counts", dict(engine.path_counts))
            run_span.set("scoring_fallbacks", engine.fallback_count)
        return SummarizationResult(
            original_expression=original,
            summary_expression=best.expression,
            mapping=best.mapping,
            universe=problem.universe,
            steps=best.steps,
            stop_reason=stop_reason,
            final_size=best.expression.size(),
            final_distance=final_distance,
            equivalence_merges=equivalence_merges,
            total_seconds=time.perf_counter() - started,
            config=config,
            equivalence_mapping=equivalence_mapping,
            scoring_fallbacks=engine.fallback_count,
        )

    @staticmethod
    def _expand(beam, measured, n_candidates, original, config):
        """Score one beam member's measured candidates (same math as before)."""
        original_size = original.size()
        expansions = []
        for scored in measured:
            candidate = scored.candidate
            size, distance = scored.size, scored.distance
            r_size = size / original_size if original_size else 0.0
            score = config.w_dist * distance.normalized + config.w_size * r_size
            expansions.append(
                (
                    score,
                    distance,
                    size,
                    beam,
                    candidate.parts,
                    candidate.proposal.label,
                    n_candidates,
                )
            )
        return expansions
