"""Instrumentation must not change what the pipeline computes.

The differential harness proves lazy-greedy ≡ full ranking ≡ naive;
this module proves the observability layer preserves that: the summary
a run produces is byte-identical whether tracing/metrics are on or
off, and the differential invariant still holds with tracing recording
every span.
"""

import pytest

from repro import serialization
from repro.core import SummarizationConfig, Summarizer
from repro.datasets import MovieLensConfig, generate_movielens
from repro.observability import metrics, profiling, tracing


@pytest.fixture
def instrumentation_guard():
    """Restore both switches and drop any recorded trace afterwards."""
    metrics_on = metrics.ENABLED
    tracing_on = tracing.is_enabled()
    yield
    metrics.set_enabled(metrics_on)
    tracing.set_enabled(tracing_on)
    tracing.take_trace()


def _problem():
    return generate_movielens(
        MovieLensConfig(n_users=12, n_movies=10, seed=3)
    ).problem()


def _summarize(**knobs):
    problem = _problem()
    config = SummarizationConfig(w_dist=0.7, max_steps=4, seed=3, **knobs)
    return Summarizer(problem, config).run()


def _portable(result):
    return serialization.dumps(serialization.summary_to_dict(result))


def test_output_is_byte_identical_with_instrumentation_off_and_on(
    instrumentation_guard,
):
    metrics.set_enabled(False)
    tracing.set_enabled(False)
    baseline = _summarize()

    metrics.set_enabled(True)
    tracing.set_enabled(True)
    tracing.take_trace()
    instrumented = _summarize()

    assert _portable(instrumented) == _portable(baseline)
    assert [r.merged for r in instrumented.steps] == [
        r.merged for r in baseline.steps
    ]
    assert [r.scoring_path for r in instrumented.steps] == [
        r.scoring_path for r in baseline.steps
    ]


def test_output_is_byte_identical_with_the_profiler_sampling(
    instrumentation_guard,
):
    """The sampling profiler observes frames from outside and must not
    perturb the run: byte-identical output with a profiler running at
    full rate, with and without tracing (span attribution on/off)."""
    metrics.set_enabled(False)
    tracing.set_enabled(False)
    baseline = _summarize()

    with profiling.Profiler(hz=500):
        profiled = _summarize()
    assert _portable(profiled) == _portable(baseline)

    metrics.set_enabled(True)
    tracing.set_enabled(True)
    tracing.take_trace()
    with profiling.Profiler(hz=500) as profiler:
        attributed = _summarize()
    tracing.take_trace()
    assert _portable(attributed) == _portable(baseline)
    assert profiler.snapshot()["samples"] >= 0  # sampling ran without harm


def test_differential_invariant_holds_with_tracing_on(
    instrumentation_guard, full_rank
):
    """Full-rank ≡ lazy-greedy merge sequences, spans recording
    throughout."""
    tracing.set_enabled(True)
    tracing.take_trace()
    with full_rank():
        ranked = _summarize()
    lazy = _summarize()
    assert [r.merged for r in ranked.steps] == [r.merged for r in lazy.steps]
    assert _portable(ranked) == _portable(lazy)


def test_trace_tree_matches_the_documented_hierarchy(instrumentation_guard):
    tracing.set_enabled(True)
    tracing.take_trace()
    result = _summarize()

    root = tracing.take_trace()
    assert root is not None and root.name == "summarize"
    steps = [child for child in root.children if child.name.startswith("step[")]
    assert [child.name for child in steps] == [
        f"step[{k}]" for k in range(1, len(steps) + 1)
    ]
    assert len(steps) >= result.n_steps
    for child in steps[: result.n_steps]:
        scoring = child.find("score_candidates")
        assert scoring is not None
        assert scoring.attributes["path"] in {"fast+incremental", "naive"}
        assert scoring.attributes["n_candidates"] >= 0
    assert root.attributes["stop_reason"] == result.stop_reason
    assert root.attributes["final_size"] == result.final_size


def test_metrics_advance_during_a_run(instrumentation_guard):
    metrics.set_enabled(True)
    steps_total = metrics.REGISTRY.get("prox_summarize_steps_total")
    scoring_seconds = metrics.REGISTRY.get("prox_scoring_seconds")
    before_steps = steps_total.value()
    before_count = scoring_seconds.count()

    result = _summarize()

    assert steps_total.value() == before_steps + result.n_steps
    assert scoring_seconds.count() >= before_count + result.n_steps


# -- cross-step candidate carry --------------------------------------------------


def test_output_is_byte_identical_with_carry_and_instrumentation(
    instrumentation_guard,
):
    """The carry counters/span attributes must not perturb a run:
    byte-identical output with instrumentation off and on, lazy
    (normalized) and full-ranking (ordinal)."""
    for knobs in (dict(), dict(scoring="ordinal")):
        metrics.set_enabled(False)
        tracing.set_enabled(False)
        baseline = _summarize(**knobs)

        metrics.set_enabled(True)
        tracing.set_enabled(True)
        tracing.take_trace()
        instrumented = _summarize(**knobs)
        tracing.take_trace()

        assert _portable(instrumented) == _portable(baseline), knobs


def test_carry_counters_advance_during_a_run(instrumentation_guard):
    metrics.set_enabled(True)
    carried_total = metrics.REGISTRY.get("prox_scoring_candidates_carried_total")
    rescored_total = metrics.REGISTRY.get("prox_scoring_candidates_rescored_total")
    before_carried = carried_total.value()
    before_rescored = rescored_total.value()

    result = _summarize()

    carried = sum(
        r.n_candidates - r.n_rescored for r in result.steps if r.n_rescored >= 0
    )
    rescored = sum(r.n_rescored for r in result.steps if r.n_rescored >= 0)
    assert carried > 0, "the carry never engaged on the sample instance"
    assert carried_total.value() == before_carried + carried
    assert rescored_total.value() >= before_rescored + rescored


def test_carry_counters_golden_scrape(instrumentation_guard):
    """The two carry families render in exposition format with their
    registered HELP text."""
    metrics.set_enabled(True)
    _summarize()
    scrape = metrics.REGISTRY.render()
    assert (
        "# HELP prox_scoring_candidates_carried_total Candidates the lazy "
        "queue never re-scored in a step (served by a stale or size-only "
        "key).\n"
        "# TYPE prox_scoring_candidates_carried_total counter\n"
    ) in scrape
    assert (
        "# HELP prox_scoring_candidates_rescored_total Candidates freshly "
        "re-scored under cross-step carry (fresh queue, new pairs, or "
        "popped stale queue heads).\n"
        "# TYPE prox_scoring_candidates_rescored_total counter\n"
    ) in scrape
    assert "prox_scoring_candidates_carried_total " in scrape
    assert "prox_scoring_candidates_rescored_total " in scrape


# -- bit-packed sampled scoring ---------------------------------------------------


def test_output_is_byte_identical_with_sampled_kernel_and_instrumentation(
    instrumentation_guard,
):
    """The sampled-step counters/span attributes must not perturb a
    shared-batch run: byte-identical output with instrumentation off
    and on."""
    knobs = dict(max_enumerate=0, distance_samples=64)
    metrics.set_enabled(False)
    tracing.set_enabled(False)
    baseline = _summarize(**knobs)

    metrics.set_enabled(True)
    tracing.set_enabled(True)
    tracing.take_trace()
    instrumented = _summarize(**knobs)
    tracing.take_trace()

    assert {r.scoring_path for r in baseline.steps} == {"sampled+incremental"}
    assert _portable(instrumented) == _portable(baseline)


def test_sampled_counters_advance_during_a_run(instrumentation_guard):
    metrics.set_enabled(True)
    sampled_total = metrics.REGISTRY.get("prox_scoring_sampled_fast_total")
    reuse_total = metrics.REGISTRY.get("prox_scoring_sample_batch_reuse_total")
    before_sampled = sampled_total.value()
    before_reuse = reuse_total.value()

    result = _summarize(max_enumerate=0, distance_samples=64)

    assert result.n_steps > 1
    # Every step ran the sampled kernel; the carried scorer's pinned
    # batch served every step after the first.
    assert sampled_total.value() == before_sampled + result.n_steps
    assert reuse_total.value() == before_reuse + result.n_steps - 1


def test_sampled_counters_golden_scrape(instrumentation_guard):
    """The two sampled families render in exposition format with their
    registered HELP text."""
    metrics.set_enabled(True)
    _summarize(max_enumerate=0, distance_samples=64)
    scrape = metrics.REGISTRY.render()
    assert (
        "# HELP prox_scoring_sampled_fast_total Scoring steps served by "
        "the bit-packed sampled (shared Monte-Carlo batch) kernel.\n"
        "# TYPE prox_scoring_sampled_fast_total counter\n"
    ) in scrape
    assert (
        "# HELP prox_scoring_sample_batch_reuse_total Sampled steps that "
        "reused the carried scorer's valuation batch instead of "
        "redrawing it.\n"
        "# TYPE prox_scoring_sample_batch_reuse_total counter\n"
    ) in scrape
    assert "prox_scoring_sampled_fast_total " in scrape
    assert "prox_scoring_sample_batch_reuse_total " in scrape


def test_scorer_build_span_reports_the_column_state(instrumentation_guard):
    """The scorer is built once, inside the first step's scoring span,
    and carried after: one ``scorer_build`` span per run."""
    tracing.set_enabled(True)
    tracing.take_trace()
    result = _summarize()
    root = tracing.take_trace()
    steps = [child for child in root.children if child.name.startswith("step[")]
    builds = [
        child.find("score_candidates").find("scorer_build")
        for child in steps[: result.n_steps]
    ]
    assert builds[0] is not None
    assert builds[1:] == [None] * (len(builds) - 1)
    attributes = builds[0].attributes
    assert attributes["n_vals"] == len(_problem().valuations)
    assert attributes["n_keys"] >= attributes["nonzero_keys"] >= 0


def test_score_candidates_spans_report_the_distance_floor(instrumentation_guard):
    """A lazy step's queue starts from the previous winner's distance:
    0.0 on a fresh queue, then each step's ``distance_floor`` is the
    step before's recorded distance."""
    tracing.set_enabled(True)
    tracing.take_trace()
    result = _summarize()
    root = tracing.take_trace()
    steps = [child for child in root.children if child.name.startswith("step[")]
    floors = [
        child.find("score_candidates").attributes["distance_floor"]
        for child in steps[: result.n_steps]
    ]
    assert result.n_steps >= 3
    assert floors[0] == 0.0
    assert floors[1:] == [
        record.distance_after.normalized for record in result.steps[:-1]
    ]
    assert any(floor > 0.0 for floor in floors)

    # The attribute is tracing-only: an untraced run merges the same.
    tracing.set_enabled(False)
    untraced = _summarize()
    assert [r.merged for r in untraced.steps] == [r.merged for r in result.steps]


def test_score_candidates_spans_report_batch_attributes(instrumentation_guard):
    tracing.set_enabled(True)
    tracing.take_trace()
    result = _summarize(max_enumerate=0, distance_samples=64)

    root = tracing.take_trace()
    steps = [child for child in root.children if child.name.startswith("step[")]
    assert len(steps) >= result.n_steps
    reused = []
    for child in steps[: result.n_steps]:
        scoring = child.find("score_candidates")
        assert scoring is not None
        assert scoring.attributes["path"] == "sampled+incremental"
        assert scoring.attributes["sample_batch"] == 64
        assert scoring.attributes["sample_variance"] >= 0.0
        reused.append(scoring.attributes["batch_reused"])
    assert reused[0] is False
    assert all(reused[1:]), "carried steps must reuse the pinned batch"

    # Enumerated steps keep their span shape: no sample attributes.
    tracing.take_trace()
    _summarize()
    root = tracing.take_trace()
    steps = [child for child in root.children if child.name.startswith("step[")]
    assert steps
    for child in steps:
        scoring = child.find("score_candidates")
        assert "sample_batch" not in scoring.attributes
        assert "batch_reused" not in scoring.attributes


def test_score_candidates_spans_report_carry_partition(
    instrumentation_guard, monkeypatch
):
    """``carried`` + ``rescored`` partition each step, and ``unscored``
    counts the queue entries still keyed by size alone when the winner
    popped: the step's candidates no step of the run has scored yet."""
    from repro.core.engine import ScoringEngine
    from repro.core.fast_distance import FastStepScorer

    scored = set()
    expected_unscored = []
    original_score = FastStepScorer.score
    original_select = ScoringEngine._lazy_select

    def spy_score(self, parts):
        scored.add(tuple(parts))
        return original_score(self, parts)

    def spy_select(self, scorer, candidates, *args, **kwargs):
        outcome = original_select(self, scorer, candidates, *args, **kwargs)
        expected_unscored.append(
            sum(1 for candidate in candidates if candidate.parts not in scored)
        )
        return outcome

    monkeypatch.setattr(FastStepScorer, "score", spy_score)
    monkeypatch.setattr(ScoringEngine, "_lazy_select", spy_select)
    tracing.set_enabled(True)
    tracing.take_trace()
    result = _summarize()

    root = tracing.take_trace()
    steps = [child for child in root.children if child.name.startswith("step[")]
    assert len(steps) >= result.n_steps
    partitions = []
    for child in steps[: result.n_steps]:
        scoring = child.find("score_candidates")
        assert scoring is not None
        carried = scoring.attributes["carried"]
        rescored = scoring.attributes["rescored"]
        unscored = scoring.attributes["unscored"]
        assert carried >= 0 and rescored >= 0
        assert 0 <= unscored <= carried
        partitions.append((carried, rescored, unscored))
    for (carried, rescored, _), record in zip(partitions, result.steps):
        assert carried + rescored == record.n_candidates
        assert rescored == record.n_rescored
    assert any(carried > 0 for carried, _, _ in partitions[1:])
    assert [unscored for _, _, unscored in partitions] == expected_unscored[
        : result.n_steps
    ]
    # A fresh queue enters every candidate by size: whatever step 0
    # did not score is still size-only -- most of the step.
    carried, rescored, unscored = partitions[0]
    assert unscored == carried > rescored


def test_score_candidates_spans_explain_size_carry(
    instrumentation_guard, monkeypatch
):
    """Each lazy step's span says how many carried sizes it recomputed
    (the last merge touched their terms) instead of shifting them.
    Wikipedia merges group keys, so some steps do recompute."""
    from repro.core.engine import ScoringEngine
    from repro.core.fast_distance import FastStepScorer
    from repro.datasets import WikipediaConfig, generate_wikipedia

    per_step = []
    original_measure = ScoringEngine.measure_lazy
    original_intersects = FastStepScorer.size_intersects

    def spy_measure(self, *args, **kwargs):
        per_step.append(0)
        return original_measure(self, *args, **kwargs)

    def spy_intersects(self, parts):
        moved = original_intersects(self, parts)
        per_step[-1] += moved
        return moved

    monkeypatch.setattr(ScoringEngine, "measure_lazy", spy_measure)
    monkeypatch.setattr(FastStepScorer, "size_intersects", spy_intersects)
    tracing.set_enabled(True)
    tracing.take_trace()
    problem = generate_wikipedia(
        WikipediaConfig(n_users=12, n_pages=10, seed=2)
    ).problem()
    result = Summarizer(problem, SummarizationConfig(max_steps=6, seed=2)).run()

    root = tracing.take_trace()
    steps = [child for child in root.children if child.name.startswith("step[")]
    reported = [
        child.find("score_candidates").attributes["sizes_recomputed"]
        for child in steps[: result.n_steps]
    ]
    assert reported == per_step[: result.n_steps]
    # A fresh queue carries nothing, so it recomputes nothing.
    assert reported[0] == 0
    assert any(count > 0 for count in reported[1:])


# -- kernel backends ---------------------------------------------------------------


def test_kernel_backend_golden_scrape(instrumentation_guard):
    """The kernel info gauge renders in exposition format with one
    sample per backend, 1 marking the active one."""
    from repro.core import kernels

    metrics.set_enabled(True)
    kernels.publish_backend_metric()
    scrape = metrics.REGISTRY.render()
    assert (
        "# HELP repro_kernel_backend Active scoring kernel backend "
        "(info-style: 1 for the active backend).\n"
        "# TYPE repro_kernel_backend gauge\n"
    ) in scrape
    active = kernels.active_backend()
    other = "python" if active == "native" else "native"
    assert f'repro_kernel_backend{{backend="{active}"}} 1' in scrape
    assert f'repro_kernel_backend{{backend="{other}"}} 0' in scrape


def test_score_candidates_spans_report_the_kernel(instrumentation_guard):
    from repro.core import kernels

    tracing.set_enabled(True)
    tracing.take_trace()
    result = _summarize()

    root = tracing.take_trace()
    steps = [child for child in root.children if child.name.startswith("step[")]
    assert len(steps) >= result.n_steps
    for child in steps[: result.n_steps]:
        scoring = child.find("score_candidates")
        assert scoring is not None
        assert scoring.attributes["kernel"] == kernels.active_backend()


def test_output_is_byte_identical_across_kernel_backends(
    instrumentation_guard,
):
    """The kernel tier is an execution-strategy change only: with
    instrumentation off OR on, the default (``auto``) backend's output
    is byte-identical to the reference backend's, on the enumerated and
    the sampled path."""
    from repro.core import kernels

    for knobs in ({}, dict(max_enumerate=0, distance_samples=64)):
        metrics.set_enabled(False)
        tracing.set_enabled(False)
        with kernels.backend(kernels.MODE_PYTHON):
            baseline = _summarize(**knobs)
        metrics.set_enabled(True)
        tracing.set_enabled(True)
        tracing.take_trace()
        with kernels.backend("auto"):
            instrumented = _summarize(**knobs)
        tracing.take_trace()
        assert _portable(instrumented) == _portable(baseline), knobs


# -- streaming ingest & summary repair ---------------------------------------------


def _streaming_session():
    from repro.datasets.movielens import (
        MovieLensDeltaConfig,
        generate_movielens_deltas,
    )
    from repro.prox import ProxSession, SummarizationRequest

    instance = generate_movielens(
        MovieLensConfig(n_users=14, n_movies=10, seed=3)
    )
    deltas = generate_movielens_deltas(
        instance, MovieLensDeltaConfig(n_deltas=3, spam_flag_every=2, seed=5)
    )
    session = ProxSession(instance)
    session.select_titles(session.titles())
    return session, deltas, SummarizationRequest(number_of_steps=4)


def _drive_stream():
    session, deltas, request = _streaming_session()
    session.summarize(request)
    results = []
    for delta in deltas:
        session.ingest(delta)
        results.append(session.summarize(request))
    return results


def test_streaming_repair_is_byte_identical_with_instrumentation_off_and_on(
    instrumentation_guard,
):
    """The ingest/repair counters and span attributes must not perturb
    the streamed loop: every repaired summary byte-identical with
    instrumentation off and on."""
    metrics.set_enabled(False)
    tracing.set_enabled(False)
    baseline = _drive_stream()

    metrics.set_enabled(True)
    tracing.set_enabled(True)
    tracing.take_trace()
    instrumented = _drive_stream()
    tracing.take_trace()

    assert [_portable(r) for r in instrumented] == [
        _portable(r) for r in baseline
    ]


def test_ingest_and_repair_counters_advance_during_a_stream(
    instrumentation_guard,
):
    metrics.set_enabled(True)
    ingested_total = metrics.REGISTRY.get("prox_ingest_deltas_total")
    invalidated_total = metrics.REGISTRY.get("prox_repair_invalidated_total")
    before_ingested = ingested_total.value()
    before_invalidated = invalidated_total.value()

    results = _drive_stream()

    assert ingested_total.value() == before_ingested + len(results)
    invalidated = sum(r.repair_invalidated for r in results)
    assert invalidated > 0, "the spam-flag delta never invalidated pool entries"
    assert invalidated_total.value() == before_invalidated + invalidated
    assert all(r.repaired for r in results), "a streamed run never repaired"


def test_ingest_and_repair_counters_golden_scrape(instrumentation_guard):
    """The two streaming families render in exposition format with
    their registered HELP text."""
    metrics.set_enabled(True)
    _drive_stream()
    scrape = metrics.REGISTRY.render()
    assert (
        "# HELP prox_ingest_deltas_total Streaming provenance deltas "
        "ingested into PROX sessions.\n"
        "# TYPE prox_ingest_deltas_total counter\n"
    ) in scrape
    assert (
        "# HELP prox_repair_invalidated_total Carried candidate-pool "
        "entries invalidated by streaming-repair runs (dropped or "
        "re-proposed because a delta touched them).\n"
        "# TYPE prox_repair_invalidated_total counter\n"
    ) in scrape
    assert "prox_ingest_deltas_total " in scrape
    assert "prox_repair_invalidated_total " in scrape


def test_ingest_spans_record_delta_shape(instrumentation_guard):
    tracing.set_enabled(True)
    tracing.take_trace()
    session, deltas, request = _streaming_session()
    session.summarize(request)
    tracing.take_trace()
    session.ingest(deltas[0])
    span = tracing.take_trace()
    assert span is not None and span.name == "ingest"
    assert span.attributes["annotations"] == len(deltas[0].annotations)
    assert span.attributes["terms"] == len(deltas[0].terms)
    assert span.attributes["extended_valuations"] == len(
        deltas[0].extend_valuations
    )
    assert span.attributes["selected_size"] == session.selected.size()
