"""The README's quickstart code must stay runnable verbatim-ish."""

from repro.core import SummarizationConfig, Summarizer
from repro.datasets import MovieLensConfig, generate_movielens
from repro.provenance import cancel


def test_quickstart_block():
    instance = generate_movielens(MovieLensConfig(seed=7))
    assert "⊗" in str(instance.expression)

    result = Summarizer(
        instance.problem(),
        SummarizationConfig(w_dist=0.7, max_steps=20),
    ).run()
    assert result.final_size <= instance.expression.size()
    assert 0.0 <= result.final_distance.normalized <= 1.0

    scenario = cancel(["UID101"])
    lifted = instance.combiners.lift_valuation(
        scenario, result.mapping, result.universe
    )
    vector = result.summary_expression.evaluate(lifted.false_set())
    assert vector  # the provisioning answer exists


def test_streaming_ingest_block():
    """README § Streaming ingest & summary repair, verbatim-ish."""
    from repro.datasets import MovieLensDeltaConfig, generate_movielens_deltas
    from repro.prox import ProxSession, SummarizationRequest

    instance = generate_movielens(MovieLensConfig(seed=7))
    session = ProxSession(instance)
    session.select_titles(session.titles())
    request = SummarizationRequest(number_of_steps=8)
    session.summarize(request)

    for delta in generate_movielens_deltas(
        instance, MovieLensDeltaConfig(n_deltas=3)
    ):
        session.ingest(delta)
        result = session.summarize(request)
        assert result.final_size <= session.selected.size()
    assert session.ingested_deltas == 3
    assert result.repaired and result.repair_invalidated >= 0


def test_package_version():
    import repro

    assert repro.__version__ == "1.0.0"
