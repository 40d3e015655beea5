"""Streaming ingest + summary repair: the streamed ≡ frozen invariant.

The contract under test (see ``src/repro/core/streaming.py``): a
session that ingests provenance deltas and *repairs* its summary must
produce output bit-identical to a from-scratch summarization of the
final polynomial -- same merges, same step records, same distances.

The differential recipe mirrors a real streaming session against a
batch one.  The streamed session summarizes, ingests every delta, and
summarizes again (consuming the repair state).  The reference session
is built fresh over the same instance, ingests the same deltas *before
its first run*, and summarizes with ``repair="off"``; its summary-name
counter is aligned to the streamed session's so the generated summary
annotations (``S1``, ``S2``, ...) coincide.  Everything observable is
then compared exactly -- no tolerances anywhere.

The grid covers datasets × delta schedules × VAL-FUNCs × selection
(lazy queue or full ranking) × aggregations; every case asserts its
scoring path and zero fast-path fallbacks; the adversarial schedule
spam-flags users so
two previously-distinct equivalence classes merge mid-stream.  Beam
search runs outside the repair path, so its leg asserts the other half
of the invariant: an expression grown by ``apply_delta`` summarizes
(greedy and beam) identically to the same polynomial built frozen.
"""

import contextlib
from dataclasses import replace

import pytest

from repro.core.beam import BeamSummarizer
from repro.core.engine import ScoringEngine
from repro.core.equivalence import EquivalencePartition, equivalence_classes
from repro.core.problem import SummarizationConfig
from repro.core.streaming import apply_delta, extend_valuations
from repro.core.summarize import Summarizer
from repro.datasets.movielens import (
    MovieLensConfig,
    MovieLensDeltaConfig,
    generate_movielens,
    generate_movielens_deltas,
)
from repro.provenance.valuation_classes import CancelSingleAnnotation
from repro.provenance.tensor_sum import TensorSum
from repro.prox.session import ProxSession
from repro.prox.summarization import SummarizationRequest


def _snapshot(result):
    """Everything observable about a run, exactly comparable."""
    return {
        "terms": tuple(result.summary_expression.terms),
        "monoid": result.summary_expression.monoid.name,
        "final_size": result.final_size,
        "final_distance": (
            result.final_distance.value,
            result.final_distance.normalized,
        ),
        "steps": [
            (
                record.merged,
                record.label,
                record.size_after,
                record.distance_after.value,
                record.distance_after.normalized,
            )
            for record in result.steps
        ],
        "stop_reason": result.stop_reason,
    }


def ingested_session(cfg, dcfg, request):
    """A session that summarized once and then ingested every delta.

    Returns the session (its next summarize is the repaired run), the
    deltas, and the summary-name counter after the first run.
    """
    instance = generate_movielens(cfg)
    deltas = generate_movielens_deltas(instance, dcfg)
    streamed = ProxSession(instance)
    streamed.select_titles(list(streamed.titles()))
    streamed.summarize(request)
    counter_after = instance.universe.summary_counter
    for delta in deltas:
        streamed.ingest(delta)
    return streamed, deltas, counter_after


def run_differential(cfg, dcfg, request):
    """Streamed-and-repaired vs. fresh-instance from-scratch runs.

    Returns ``(repaired_result, scratch_result)`` -- asserting equality
    is the caller's job so individual cases can add extra claims.
    """
    streamed, deltas, counter_after = ingested_session(cfg, dcfg, request)
    repaired = streamed.summarize(request)

    reference_instance = generate_movielens(cfg)
    scratch = ProxSession(reference_instance)
    scratch.select_titles(list(scratch.titles()))
    for delta in deltas:
        scratch.ingest(delta)
    # The streamed session's first summarize consumed summary names;
    # align the counter so both runs generate the same S<n> labels.
    reference_instance.universe.summary_counter = counter_after
    from_scratch = scratch.summarize(
        SummarizationRequest(
            **{**request.__dict__, "repair": "off"}
        )
    )
    return repaired, from_scratch


def assert_clean(*results):
    """Each run scored every step on the incremental exact kernel and
    never fell back to the naive path."""
    for result in results:
        assert {r.scoring_path for r in result.steps} == {"fast+incremental"}
        assert result.scoring_fallbacks == 0


BASE = dict(n_users=24, n_movies=30, seed=3)
APPEND = dict(n_deltas=3, seed=11)
SPAM = dict(n_deltas=4, spam_flag_every=3, seed=11)

#: ``(instance, deltas, request, full_rank)``: the last flag runs both
#: sides under the full measure-and-rank path instead of the lazy queue.
GRID = [
    pytest.param(
        MovieLensConfig(**BASE),
        MovieLensDeltaConfig(**APPEND),
        SummarizationRequest(number_of_steps=6),
        False,
        id="append-default",
    ),
    pytest.param(
        MovieLensConfig(**BASE),
        MovieLensDeltaConfig(**SPAM),
        SummarizationRequest(number_of_steps=6),
        False,
        id="spam-adversarial",
    ),
    pytest.param(
        MovieLensConfig(include_movie_merges=True, **BASE),
        MovieLensDeltaConfig(**SPAM),
        SummarizationRequest(number_of_steps=6),
        False,
        id="movie-merges-spam",
    ),
    pytest.param(
        MovieLensConfig(**BASE),
        MovieLensDeltaConfig(n_deltas=4, new_movie_every=2, seed=7),
        SummarizationRequest(number_of_steps=6),
        False,
        id="new-movie-heavy",
    ),
    pytest.param(
        MovieLensConfig(**BASE),
        MovieLensDeltaConfig(**APPEND),
        SummarizationRequest(number_of_steps=6),
        False,
        id="lazy-queue",
    ),
    pytest.param(
        MovieLensConfig(**BASE),
        MovieLensDeltaConfig(**APPEND),
        SummarizationRequest(number_of_steps=6),
        True,
        id="carry-off",
    ),
    pytest.param(
        MovieLensConfig(**BASE),
        MovieLensDeltaConfig(**SPAM),
        SummarizationRequest(number_of_steps=6, val_func="Absolute Difference"),
        False,
        id="absolute-difference",
    ),
    pytest.param(
        MovieLensConfig(**BASE),
        MovieLensDeltaConfig(**APPEND),
        SummarizationRequest(
            number_of_steps=5, aggregation="SUM", val_func="Disagreement"
        ),
        False,
        id="sum-disagreement",
    ),
]


class TestStreamedEqualsFrozen:
    @pytest.mark.parametrize("cfg, dcfg, request_, ranked", GRID)
    def test_repaired_is_bit_identical(
        self, cfg, dcfg, request_, ranked, full_rank
    ):
        with full_rank() if ranked else contextlib.nullcontext():
            repaired, from_scratch = run_differential(cfg, dcfg, request_)
        assert _snapshot(repaired) == _snapshot(from_scratch)
        assert_clean(repaired, from_scratch)

    def test_default_config_repair_is_lazy_from_step_0(self):
        """Lazy-greedy selection is the default, and a repaired run's
        first queue enters by exact size alone like any fresh queue:
        it scores only the candidates whose size-only key reaches the
        top, and still matches the from-scratch run bit for bit."""
        request = SummarizationRequest()
        assert ScoringEngine(None, request.to_config(), None).lazy
        repaired, from_scratch = run_differential(
            MovieLensConfig(**BASE), MovieLensDeltaConfig(**APPEND), request
        )
        assert _snapshot(repaired) == _snapshot(from_scratch)
        assert_clean(repaired, from_scratch)
        assert repaired.repaired and not from_scratch.repaired
        for result in (repaired, from_scratch):
            first = result.steps[0]
            assert 0 < first.n_rescored < first.n_candidates

    def test_repair_actually_engages(self, monkeypatch):
        """Guard against the repair path silently never engaging: the
        repaired run must seed its candidate pool from the previous
        run and repair (not rebuild) the equivalence partition."""
        from repro.core.pool import CandidatePool

        calls = {"seed": 0, "repair": 0}
        original_seed = CandidatePool.seed
        original_repair = EquivalencePartition.repair

        def spy_seed(self, *args, **kwargs):
            calls["seed"] += 1
            return original_seed(self, *args, **kwargs)

        def spy_repair(self, *args, **kwargs):
            calls["repair"] += 1
            return original_repair(self, *args, **kwargs)

        monkeypatch.setattr(CandidatePool, "seed", spy_seed)
        monkeypatch.setattr(EquivalencePartition, "repair", spy_repair)
        repaired, from_scratch = run_differential(
            MovieLensConfig(**BASE),
            MovieLensDeltaConfig(**SPAM),
            SummarizationRequest(number_of_steps=6),
        )
        assert _snapshot(repaired) == _snapshot(from_scratch)
        assert_clean(repaired, from_scratch)
        assert repaired.repaired
        assert repaired.repair_invalidated > 0
        # Only the repaired run consumes a repair state.
        assert calls == {"seed": 1, "repair": 1}

    def test_failed_carry_during_repair_counts_a_fallback(self, monkeypatch):
        """A scorer that fails to carry past a merge inside a repaired
        run is dropped and rebuilt fresh: the output stays
        bit-identical, and the failure shows up in
        ``scoring_fallbacks`` instead of passing silently."""
        from repro.core.fast_distance import FastStepScorer

        cfg = MovieLensConfig(**BASE)
        dcfg = MovieLensDeltaConfig(**APPEND)
        request = SummarizationRequest(number_of_steps=6)
        expected, from_scratch = run_differential(cfg, dcfg, request)

        streamed, _, _ = ingested_session(cfg, dcfg, request)
        calls = {"n": 0}
        original = FastStepScorer.advance

        def advance_failing_once(self, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("carry poisoned")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(
            FastStepScorer, "advance", advance_failing_once
        )
        repaired = streamed.summarize(request)
        assert calls["n"] > 1, "the run never advanced past the failure"
        assert repaired.repaired
        assert _snapshot(repaired) == _snapshot(expected)
        assert _snapshot(repaired) == _snapshot(from_scratch)
        assert {r.scoring_path for r in repaired.steps} == {"fast+incremental"}
        assert repaired.scoring_fallbacks == 1

    def test_repeated_ingest_between_every_summarize(self):
        """Repair survives a summarize after *every* delta, not just one
        batch of deltas at the end (the schedule a live session runs)."""
        cfg = MovieLensConfig(**BASE)
        dcfg = MovieLensDeltaConfig(n_deltas=4, spam_flag_every=2, seed=5)
        request = SummarizationRequest(number_of_steps=6)

        instance = generate_movielens(cfg)
        deltas = generate_movielens_deltas(instance, dcfg)
        streamed = ProxSession(instance)
        streamed.select_titles(list(streamed.titles()))
        streamed.summarize(request)
        counters = []
        for delta in deltas:
            streamed.ingest(delta)
            result = streamed.summarize(request)
            counters.append(instance.universe.summary_counter)

        reference_instance = generate_movielens(cfg)
        scratch = ProxSession(reference_instance)
        scratch.select_titles(list(scratch.titles()))
        for index, delta in enumerate(deltas):
            scratch.ingest(delta)
        # Align naming with the streamed session's final run: it starts
        # generating names where its previous run stopped.
        reference_instance.universe.summary_counter = (
            counters[-2] if len(counters) > 1 else counters[-1]
        )
        from_scratch = scratch.summarize(
            SummarizationRequest(number_of_steps=6, repair="off")
        )
        assert _snapshot(result) == _snapshot(from_scratch)


class TestAdversarialClassMerge:
    def test_spam_flags_merge_equivalence_classes(self):
        """The adversarial schedule really merges two distinct classes."""
        instance = generate_movielens(MovieLensConfig(**BASE))
        deltas = generate_movielens_deltas(
            instance, MovieLensDeltaConfig(n_deltas=1, spam_flag_every=1, seed=11)
        )
        (delta,) = deltas
        assert delta.extend_valuations, "schedule produced no spam flag"
        flagged = sorted(
            names[0] for names in delta.extend_valuations.values()
        )

        # Spam flags target the per-user cancel valuations -- the class
        # the session summarizes with, not the instance default.
        valuations = CancelSingleAnnotation(instance.universe, domains=("user",))
        names = sorted(
            a.name for a in instance.universe if a.domain == "user"
        )
        before = equivalence_classes(names, valuations)
        extended = extend_valuations(valuations, delta)
        after = equivalence_classes(names, extended)

        def class_of(classes, name):
            return next(group for group in classes if name in group)

        first, second = flagged
        assert class_of(before, first) != class_of(before, second)
        assert class_of(after, first) == class_of(after, second)
        # And the incremental repair sees exactly the same merge.
        partition = EquivalencePartition.build(names, valuations)
        repaired = partition.repair(names, extended, delta.flipped())
        assert repaired.classes(names) == after


class TestStreamedExpressionConstruction:
    """``apply_delta`` growth ≡ frozen construction, under greedy & beam."""

    DELTA_CFG = dict(n_deltas=3, new_movie_every=2, seed=9)

    def _grown_and_frozen(self):
        """(instance, grown expression, frozen expression) -- instance
        freshly generated per call so summary names never collide."""
        instance = generate_movielens(MovieLensConfig(**BASE))
        deltas = generate_movielens_deltas(
            instance, MovieLensDeltaConfig(**self.DELTA_CFG)
        )
        session = ProxSession(instance)
        session.select_titles(list(session.titles()))
        base_terms = list(session.selected.terms)
        grown = session.selected
        for delta in deltas:
            session.ingest(delta)
            grown = session.selected
        all_terms = list(base_terms)
        for delta in deltas:
            all_terms.extend(delta.terms)
        frozen = TensorSum(tuple(all_terms), grown.monoid)
        return instance, grown, frozen

    def test_grown_expression_equals_frozen(self):
        _, grown, frozen = self._grown_and_frozen()
        assert tuple(grown.terms) == tuple(frozen.terms)

    def _run(self, which, summarizer_cls, **kwargs):
        instance, grown, frozen = self._grown_and_frozen()
        expression = grown if which == "grown" else frozen
        problem = replace(instance.problem(), expression=expression)
        config = SummarizationConfig(w_dist=0.7, max_steps=4, seed=0)
        return summarizer_cls(problem, config, **kwargs).run()

    def test_greedy_agrees_on_grown_expression(self):
        greedy_grown = self._run("grown", Summarizer)
        greedy_frozen = self._run("frozen", Summarizer)
        assert _snapshot(greedy_grown) == _snapshot(greedy_frozen)

    def test_beam_agrees_on_grown_expression(self):
        beam_grown = self._run("grown", BeamSummarizer, beam_width=2)
        beam_frozen = self._run("frozen", BeamSummarizer, beam_width=2)
        assert _snapshot(beam_grown) == _snapshot(beam_frozen)
