"""The step-0 carry across a streaming ingest.

A repaired run takes the previous run's step-0 candidate pool and lazy
queue sizes, and edits both for the delta instead of rebuilding them
(``src/repro/core/streaming.py``).  These tests pin what makes that
sound and cheap:

* the carried sizes equal a fresh scorer's ``candidate_sizes`` on the
  post-delta expression, candidate for candidate;
* a repaired step 0 sizes at most the candidates the pool added plus
  those mentioning a name or group of a term the delta changed;
* the queue's heaps stay compact over many ingest + summarize cycles;
* a pool maintenance failure is counted, not hidden, and a run that
  raises mid-repair leaves the session able to recompute.
"""

import pytest

import repro.core.pool as pool_module
from repro.core.engine import ScoringEngine, _changed_terms
from repro.core.problem import SummarizationConfig
from repro.datasets.movielens import (
    MovieLensConfig,
    MovieLensDeltaConfig,
    generate_movielens,
    generate_movielens_deltas,
)
from repro.prox.session import ProxSession
from repro.prox.summarization import SummarizationRequest

from .test_streaming_repair import (
    APPEND,
    BASE,
    SPAM,
    _snapshot,
    assert_clean,
    ingested_session,
    run_differential,
)

SCHEDULES = [
    pytest.param(APPEND, id="append"),
    pytest.param(SPAM, id="spam"),
    pytest.param(
        dict(n_deltas=6, spam_flag_every=2, new_movie_every=3, seed=5), id="mixed"
    ),
]


def streamed_runs(dcfg, request, cycles=None):
    """One session summarizing after every delta; yields each
    repaired result."""
    instance = generate_movielens(MovieLensConfig(**BASE))
    deltas = generate_movielens_deltas(instance, MovieLensDeltaConfig(**dcfg))
    session = ProxSession(instance)
    session.select_titles(list(session.titles()))
    session.summarize(request)
    for delta in deltas[:cycles]:
        session.ingest(delta)
        yield session.summarize(request)


@pytest.fixture
def step0_spy(monkeypatch):
    """Records, for every repaired run's first lazy step, the carried
    sizes against the step's own fresh scorer, and the step's sizing
    work against the delta's reach."""
    records = []
    pending = {}
    original_resume = ScoringEngine.resume
    original_select = ScoringEngine._lazy_select

    def spy_resume(self, carried, old_expression, new_expression):
        pending[id(self)] = _changed_terms(old_expression, new_expression)[0]
        return original_resume(self, carried, old_expression, new_expression)

    def spy_select(self, scorer, candidates, *args, **kwargs):
        touched = pending.pop(id(self), None)
        outcome = original_select(self, scorer, candidates, *args, **kwargs)
        if touched is not None:
            parts_list = [candidate.parts for candidate in candidates]
            fresh, _ = scorer.candidate_sizes(parts_list)
            carried = [self._sizes[parts] + self._offset for parts in parts_list]
            reach = sum(
                1 for parts in parts_list if not touched.isdisjoint(parts)
            )
            added = len(candidates.added) if candidates.added is not None else None
            records.append(
                {
                    "exact": carried == fresh,
                    "sized": self.last_sized,
                    "bound": None if added is None else added + reach,
                    "n": len(parts_list),
                }
            )
        return outcome

    monkeypatch.setattr(ScoringEngine, "resume", spy_resume)
    monkeypatch.setattr(ScoringEngine, "_lazy_select", spy_select)
    return records


@pytest.mark.parametrize("dcfg", SCHEDULES)
def test_carried_step0_sizes_equal_fresh_ones(dcfg, step0_spy):
    request = SummarizationRequest(number_of_steps=4)
    results = list(streamed_runs(dcfg, request))
    assert all(result.repaired for result in results)
    assert_clean(*results)
    assert len(step0_spy) == len(results)
    for record in step0_spy:
        assert record["exact"], record


@pytest.mark.parametrize("dcfg", SCHEDULES)
def test_repaired_step0_sizes_only_what_the_delta_reaches(dcfg, step0_spy):
    """A repaired step 0 sizes the pool's new candidates and those
    mentioning a name or group of a changed term -- never all of them
    (a fresh queue sizes every candidate)."""
    request = SummarizationRequest(number_of_steps=2)
    results = list(streamed_runs(dcfg, request))
    assert len(step0_spy) == len(results)
    for record, result in zip(step0_spy, results):
        assert record["bound"] is not None, "the pool named no change"
        assert record["sized"] <= record["bound"], record
        assert record["sized"] < record["n"] / 4, record
        assert result.steps[0].n_sized == record["sized"]


def test_fresh_step0_sizes_every_candidate():
    request = SummarizationRequest(number_of_steps=2)
    instance = generate_movielens(MovieLensConfig(**BASE))
    session = ProxSession(instance)
    session.select_titles(list(session.titles()))
    first = session.summarize(request).steps[0]
    assert first.n_sized == first.n_candidates


def test_heaps_stay_compact_over_many_cycles(monkeypatch):
    """Dropped and re-sized candidates leave dead heap items behind;
    over 30 ingest + summarize cycles on one session the queue's heaps
    never hold more than twice its live entries plus the step's
    pushes, run after run."""
    seen = []
    original_select = ScoringEngine._lazy_select

    def spy_select(self, *args, **kwargs):
        outcome = original_select(self, *args, **kwargs)
        items = len(self._sized) + len(self._heap)
        seen.append((items, len(self._sizes), outcome[2]))
        return outcome

    monkeypatch.setattr(ScoringEngine, "_lazy_select", spy_select)
    request = SummarizationRequest(number_of_steps=3)
    dcfg = dict(n_deltas=30, spam_flag_every=4, new_movie_every=3, seed=5)
    results = list(streamed_runs(dcfg, request))
    assert len(results) == 30 and all(result.repaired for result in results)
    assert_clean(*results)
    for items, live, pushed in seen:
        assert items <= 2 * live + pushed, (items, live, pushed)
    carried = results[-1].repair_state.queue
    rescored = results[-1].steps[0].n_rescored
    assert len(carried.sized) <= 2 * len(carried.sizes) + rescored


def test_failed_pool_ingest_is_counted_and_harmless(monkeypatch):
    """A proposal that raises inside the pool's ingest invalidates the
    pool, which re-enumerates: the output stays bit-identical and the
    failure shows up in ``pool_fallbacks`` instead of passing silently."""
    cfg = MovieLensConfig(**BASE)
    dcfg = MovieLensDeltaConfig(**APPEND)
    request = SummarizationRequest(number_of_steps=6)
    expected, from_scratch = run_differential(cfg, dcfg, request)
    assert expected.pool_fallbacks == 0

    streamed, _, _ = ingested_session(cfg, dcfg, request)
    calls = {"n": 0}
    original = pool_module.propose_candidate
    original_ingest = pool_module.CandidatePool.ingest

    def failing_propose(*args, **kwargs):
        calls["n"] += 1
        raise RuntimeError("proposal poisoned")

    def ingest_with_failing_propose(self, *args, **kwargs):
        monkeypatch.setattr(pool_module, "propose_candidate", failing_propose)
        try:
            return original_ingest(self, *args, **kwargs)
        finally:
            monkeypatch.setattr(pool_module, "propose_candidate", original)

    monkeypatch.setattr(
        pool_module.CandidatePool, "ingest", ingest_with_failing_propose
    )
    repaired = streamed.summarize(request)
    assert calls["n"] == 1
    assert repaired.repaired
    assert repaired.pool_fallbacks == 1
    assert repaired.scoring_fallbacks == 0
    assert _snapshot(repaired) == _snapshot(expected)
    assert _snapshot(repaired) == _snapshot(from_scratch)


def test_run_raising_mid_repair_is_followed_by_an_identical_summarize(monkeypatch):
    """A repaired run that raises after editing the carried pool and
    queue leaves no half-edited state behind: the next summarize
    recomputes and matches the from-scratch run bit for bit."""
    cfg = MovieLensConfig(**BASE)
    dcfg = MovieLensDeltaConfig(**SPAM)
    request = SummarizationRequest(number_of_steps=6)
    _, from_scratch = run_differential(cfg, dcfg, request)

    streamed, _, counter_after = ingested_session(cfg, dcfg, request)
    universe = streamed.instance.universe
    original_advance = ScoringEngine.advance

    def advance_raising(self, *args, **kwargs):
        raise RuntimeError("run aborted mid-repair")

    monkeypatch.setattr(ScoringEngine, "advance", advance_raising)
    with pytest.raises(RuntimeError, match="mid-repair"):
        streamed.summarize(request)
    assert streamed.summarization.repair_state is None
    monkeypatch.setattr(ScoringEngine, "advance", original_advance)

    universe.summary_counter = counter_after
    again = streamed.summarize(request)
    assert not again.repaired
    assert_clean(again)
    assert _snapshot(again) == _snapshot(from_scratch)


def test_compaction_drops_dead_items():
    """Once dead items outnumber the live entries, the queue rebuilds
    its heaps from the live items alone, and selection still sees
    every live candidate."""
    instance = generate_movielens(MovieLensConfig(**BASE))
    session = ProxSession(instance)
    session.select_titles(list(session.titles()))
    session.summarize(SummarizationRequest(number_of_steps=1))
    state = session.summarization.repair_state
    queue = state.queue
    engine = ScoringEngine(None, SummarizationConfig(), None)
    engine._sizes, engine._sized = queue.sizes, queue.sized
    dropped = sorted(engine._sizes)[: 3 * len(engine._sizes) // 4]
    for parts in dropped:
        engine._remove(parts)
    assert len(engine._sized) > 2 * len(engine._sizes)
    engine._compact()
    assert sorted(item[2] for item in engine._sized) == sorted(engine._sizes)


def test_carried_queue_serves_new_weights():
    """Size-only items hold no weight: a repaired run whose form
    changed the distance weight (same request shape) still matches the
    from-scratch run bit for bit."""
    cfg = MovieLensConfig(**BASE)
    dcfg = MovieLensDeltaConfig(**APPEND)
    first = SummarizationRequest(number_of_steps=6, distance_weight=0.3)
    second = SummarizationRequest(number_of_steps=6, distance_weight=0.8)
    streamed, deltas, counter_after = ingested_session(cfg, dcfg, first)
    repaired = streamed.summarize(second)
    first_step = repaired.steps[0]
    assert repaired.repaired and first_step.n_sized < first_step.n_candidates

    reference = generate_movielens(cfg)
    scratch = ProxSession(reference)
    scratch.select_titles(list(scratch.titles()))
    for delta in deltas:
        scratch.ingest(delta)
    reference.universe.summary_counter = counter_after
    from_scratch = scratch.summarize(second)
    assert_clean(repaired, from_scratch)
    assert _snapshot(repaired) == _snapshot(from_scratch)
