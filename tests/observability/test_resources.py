"""Per-session resource accounting, gauges and the eviction advisor."""

import gc

import pytest

from repro.observability import metrics, resources
from repro.observability.resources import ResourceRegistry, SessionAccount


@pytest.fixture
def registry():
    return ResourceRegistry()


# -- registry lifecycle --------------------------------------------------------


def test_register_assigns_sequential_ids(registry):
    first = registry.register()
    second = registry.register()
    assert [first.session_id, second.session_id] == ["s1", "s2"]
    assert registry.ids() == ["s1", "s2"]
    assert registry.count() == 2


def test_register_rejects_duplicate_ids(registry):
    registry.register("alpha")
    with pytest.raises(ValueError, match="already registered"):
        registry.register("alpha")


def test_unregister_is_idempotent(registry):
    account = registry.register()
    registry.unregister(account.session_id)
    registry.unregister(account.session_id)  # no-op
    assert registry.count() == 0
    assert registry.get(account.session_id) is None


def test_unregister_drops_the_gauge_series(registry):
    if not metrics.ENABLED:
        pytest.skip("metrics disabled via REPRO_METRICS")
    account = registry.register("doomed")
    account.record_summarize(
        seconds=0.5,
        annotations=10,
        pool_candidates=5,
        summary_size=3,
    )
    gauge = metrics.REGISTRY.get("prox_session_annotations")
    assert gauge.value(session="doomed") == 10
    registry.unregister("doomed")
    scrape = metrics.REGISTRY.render()
    assert 'session="doomed"' not in scrape


def test_session_unregisters_on_garbage_collection():
    """ProxSession's weakref.finalize drops its account when collected."""
    from repro.datasets import MovieLensConfig, generate_movielens
    from repro.prox import ProxSession

    instance = generate_movielens(MovieLensConfig(n_users=6, n_movies=4, seed=1))
    session = ProxSession(instance)
    session_id = session.session_id
    assert resources.REGISTRY.get(session_id) is not None
    del session
    gc.collect()
    assert resources.REGISTRY.get(session_id) is None


def test_session_close_is_explicit_and_idempotent():
    from repro.datasets import MovieLensConfig, generate_movielens
    from repro.prox import ProxSession

    instance = generate_movielens(MovieLensConfig(n_users=6, n_movies=4, seed=1))
    session = ProxSession(instance)
    session_id = session.session_id
    session.close()
    session.close()
    assert resources.REGISTRY.get(session_id) is None


# -- accounting hooks ----------------------------------------------------------


def test_record_summarize_accumulates(registry):
    account = registry.register()
    account.record_summarize(
        seconds=1.5,
        annotations=7,
        pool_candidates=3,
        summary_size=9,
        repaired=True,
        repair_invalidated=2,
    )
    account.record_summarize(
        seconds=0.5,
        annotations=8,
        pool_candidates=4,
        summary_size=8,
    )
    assert account.summarize_runs == 2
    assert account.summarize_seconds == pytest.approx(2.0)
    assert account.repaired_runs == 1
    assert account.repair_invalidated == 2
    # cardinalities are levels, not totals
    assert account.annotations == 8
    assert account.pool_candidates == 4
    assert account.summary_size == 8


def test_retained_bytes_and_eviction_score():
    account = SessionAccount(session_id="x")
    account.annotations = 10
    account.pool_candidates = 5
    expected = 10 * resources._ANNOTATION_COST + 5 * resources._POOL_ENTRY_COST
    assert account.retained_bytes() == expected
    # fresh account: idleness factor ~1
    assert account.eviction_score() == pytest.approx(expected, rel=0.01)
    # idle half-life doubles the score
    account.last_active -= resources.IDLE_HALF_LIFE_SECONDS
    assert account.eviction_score() == pytest.approx(2 * expected, rel=0.01)


def test_to_dict_is_json_shaped(registry):
    import json

    account = registry.register()
    payload = json.loads(json.dumps(account.to_dict()))
    assert payload["session_id"] == account.session_id
    assert payload["retained_bytes"] == 0
    assert payload["eviction_score"] == 0.0


# -- aggregates and the advisor ------------------------------------------------


def test_eviction_ranking_orders_heaviest_idle_first(registry):
    light = registry.register("light")
    heavy = registry.register("heavy")
    idle_heavy = registry.register("idle_heavy")
    for account, pool in ((light, 1), (heavy, 100), (idle_heavy, 100)):
        account.record_summarize(
            seconds=0.1,
            annotations=pool,
            pool_candidates=pool,
            summary_size=1,
        )
    idle_heavy.last_active -= 2 * resources.IDLE_HALF_LIFE_SECONDS

    ranking = registry.eviction_ranking()
    assert [row["session_id"] for row in ranking] == [
        "idle_heavy",
        "heavy",
        "light",
    ]
    assert any("idle" in reason for reason in ranking[0]["reasons"])
    assert any("retains" in reason for reason in ranking[1]["reasons"])


def test_eviction_ranking_reports_negligible_footprint(registry):
    registry.register("empty")
    (row,) = registry.eviction_ranking()
    assert row["reasons"] == ["negligible footprint"]
    assert row["eviction_score"] == 0.0


def test_snapshot_is_sorted_by_session_id(registry):
    registry.register("s9")
    registry.register("s1")
    snapshot = registry.snapshot()
    assert [row["session_id"] for row in snapshot] == ["s1", "s9"]


# -- ProxSession integration ---------------------------------------------------


def test_session_accounting_tracks_a_real_workflow():
    from repro.datasets import MovieLensConfig, generate_movielens
    from repro.datasets.movielens import (
        MovieLensDeltaConfig,
        generate_movielens_deltas,
    )
    from repro.prox import ProxSession, SummarizationRequest

    instance = generate_movielens(MovieLensConfig(n_users=10, n_movies=8, seed=3))
    deltas = generate_movielens_deltas(
        instance, MovieLensDeltaConfig(n_deltas=2, seed=5)
    )
    session = ProxSession(instance)
    try:
        account = session.account
        session.select_titles(session.titles())
        assert account.selected_size == session.selected.size()

        result = session.summarize(SummarizationRequest(number_of_steps=2))
        assert account.summarize_runs == 1
        assert account.summarize_seconds >= result.total_seconds
        assert account.summary_size == result.final_size

        session.ingest(deltas[0])
        assert account.ingested_deltas == 1
        assert account.selected_size == session.selected.size()

        session.summarize(SummarizationRequest(number_of_steps=2))
        assert account.summarize_runs == 2
        assert account.retained_bytes() >= 0
        assert resources.REGISTRY.get(session.session_id) is account
    finally:
        session.close()
