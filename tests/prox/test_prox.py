"""PROX services: selection, summarization, provisioning, session."""

import pytest

from repro.datasets import MovieLensConfig, generate_movielens
from repro.prox import (
    EvaluatorService,
    ProxSession,
    SelectionService,
    SummarizationRequest,
    SummarizationService,
)


@pytest.fixture
def instance():
    return generate_movielens(
        MovieLensConfig(n_users=12, n_movies=8, include_movie_merges=True, seed=7)
    )


class TestSelection:
    def test_title_listing_and_search(self, instance):
        service = SelectionService(instance)
        titles = service.available_titles()
        assert len(titles) == 8
        matches = service.search_titles(titles[0][:4].lower())
        assert titles[0] in matches

    def test_by_titles(self, instance):
        service = SelectionService(instance)
        titles = service.available_titles()[:2]
        selected = service.by_titles(titles)
        assert set(selected.groups()) == set(titles)
        assert selected.size() < instance.expression.size()
        with pytest.raises(KeyError, match="unknown titles"):
            service.by_titles(["Nonexistent Movie"])

    def test_by_attributes(self, instance):
        service = SelectionService(instance)
        universe = instance.universe
        genre = universe.in_domain("movie")[0].attributes["genre"]
        selected = service.by_attributes(genre=genre)
        for group in selected.groups():
            assert universe[group].attributes["genre"] == genre
        with pytest.raises(LookupError, match="no movies match"):
            service.by_attributes(genre="nonexistent-genre")


class TestSummarizationService:
    def test_ui_parameters_applied(self, instance):
        service = SummarizationService(instance)
        selected = SelectionService(instance).by_titles(
            SelectionService(instance).available_titles()[:4]
        )
        request = SummarizationRequest(
            distance_weight=1.0,
            number_of_steps=3,
            aggregation="SUM",
            valuation_class="Cancel Single Attribute",
        )
        result = service.summarize(selected, request)
        assert result.summary_expression.monoid.name == "SUM"
        assert result.n_steps <= 3

    def test_unknown_options_rejected(self, instance):
        service = SummarizationService(instance)
        selected = SelectionService(instance).by_titles(
            SelectionService(instance).available_titles()[:2]
        )
        with pytest.raises(ValueError, match="unknown valuation class"):
            service.summarize(
                selected, SummarizationRequest(valuation_class="Cancel Everything")
            )
        with pytest.raises(ValueError, match="unknown VAL-FUNC"):
            service.summarize(
                selected, SummarizationRequest(val_func="Hamming")
            )


class TestEvaluator:
    def test_original_provisioning(self, instance):
        evaluator = EvaluatorService(instance)
        outcome = evaluator.evaluate_original(instance.expression)
        assert outcome.evaluation_time_ns > 0
        assert all(0 <= rating <= 5 for _, rating in outcome.rows())

    def test_false_attributes_cancel_groups(self, instance):
        evaluator = EvaluatorService(instance)
        full = evaluator.evaluate_original(instance.expression)
        without_males = evaluator.evaluate_original(
            instance.expression, false_attributes={"gender": "M"}
        )
        assert any(
            without_males.ratings[title] <= full.ratings[title]
            for title in full.ratings
        )


class TestSession:
    def test_full_loop(self, instance):
        session = ProxSession(instance)
        titles = session.titles()[:4]
        size = session.select_titles(titles)
        assert size > 0
        result = session.summarize(
            SummarizationRequest(distance_weight=0.5, number_of_steps=4)
        )
        assert result.final_size <= size
        view = session.expression_view()
        assert f"Provenance Size: {result.final_size}" in view
        groups = session.groups_view()
        for group in groups:
            assert group.size == len(group.members) >= 2
        original, summary = session.evaluate(false_annotations=[titles[0]])
        assert original.evaluation_time_ns > 0
        assert summary.evaluation_time_ns > 0

    def test_groups_view_matches_the_per_annotation_scan(self, instance):
        """The one-pass groups view equals, content and dict order, the
        scan it replaced: per summary annotation, every group of the
        full vector that holds a term naming it."""

        def reference(result):
            views = []
            for name, members in sorted(result.summary_groups().items()):
                aggregated = {}
                vector = result.summary_expression.full_vector()
                for group, aggregate in vector.items():
                    for term in result.summary_expression.terms:
                        if term.group == group and name in term.annotations:
                            aggregated[str(group)] = aggregate.finalized_value()
                            break
                views.append(
                    (
                        name,
                        len(members),
                        members,
                        list(result.universe[name].attributes.items()),
                        list(aggregated.items()),
                    )
                )
            return views

        session = ProxSession(instance)
        seen = 0
        for count, steps in ((4, 4), (8, 9), (2, 3)):
            session.select_titles(session.titles()[:count])
            result = session.summarize(
                SummarizationRequest(distance_weight=0.5, number_of_steps=steps)
            )
            got = [
                (
                    view.annotation,
                    view.size,
                    view.members,
                    list(view.shared_attributes.items()),
                    list(view.aggregated.items()),
                )
                for view in session.groups_view()
            ]
            assert got == reference(result)
            seen += sum(len(view[4]) for view in got)
        assert seen > 0

    def test_view_ordering_enforced(self, instance):
        session = ProxSession(instance)
        with pytest.raises(RuntimeError, match="select provenance first"):
            session.summarize()
        session.select_titles(session.titles()[:2])
        with pytest.raises(RuntimeError, match="summarize first"):
            session.expression_view()

    def test_default_instance(self):
        session = ProxSession(seed=3)
        assert session.titles()


class TestExplain:
    def test_explain_selected_title(self, instance):
        session = ProxSession(instance)
        titles = session.titles()[:3]
        session.select_titles(titles)
        text = session.explain(titles[0])
        assert titles[0] in text
        assert "MAX" in text

    def test_explain_requires_selection_and_membership(self, instance):
        session = ProxSession(instance)
        with pytest.raises(RuntimeError, match="select provenance first"):
            session.explain("anything")
        titles = session.titles()
        session.select_titles(titles[:2])
        with pytest.raises(KeyError, match="not in the current selection"):
            session.explain(titles[-1])


class TestIngest:
    def _delta(self, instance, n=1):
        from repro.datasets.movielens import (
            MovieLensDeltaConfig,
            generate_movielens_deltas,
        )

        return generate_movielens_deltas(
            instance, MovieLensDeltaConfig(n_deltas=n, seed=4)
        )

    def test_ingest_requires_selection(self, instance):
        from repro.core.streaming import ProvenanceDelta

        session = ProxSession(instance)
        with pytest.raises(RuntimeError, match="select provenance first"):
            session.ingest(ProvenanceDelta())

    def test_ingest_grows_selection_and_counts(self, instance):
        session = ProxSession(instance)
        session.select_titles(session.titles())
        size_before = session.selected.size()
        (delta,) = self._delta(instance)
        stats = session.ingest(delta)
        assert stats["ingested_deltas"] == 1
        assert stats["terms"] == len(delta.terms)
        assert stats["selected_size"] == session.selected.size() > size_before
        # The stale summary is dropped: a repaired one replaces it.
        assert session.result is None

    def test_ingest_rejects_unknown_term_annotation(self, instance):
        from repro.core.streaming import ProvenanceDelta
        from repro.provenance import Term

        session = ProxSession(instance)
        session.select_titles(session.titles())
        bad = ProvenanceDelta(terms=(Term(("no-such-annotation",), 1.0),))
        with pytest.raises(KeyError, match="unknown annotation"):
            session.ingest(bad)

    def test_ingest_rejects_unknown_extension_target(self, instance):
        from repro.core.streaming import ProvenanceDelta

        session = ProxSession(instance)
        session.select_titles(session.titles())
        bad = ProvenanceDelta(
            extend_valuations={"cancel UID100": ("no-such-annotation",)}
        )
        with pytest.raises(KeyError, match="unknown annotation"):
            session.ingest(bad)

    def test_ingest_then_repair_summarize(self, instance):
        session = ProxSession(instance)
        session.select_titles(session.titles())
        request = SummarizationRequest(number_of_steps=3)
        session.summarize(request)
        for delta in self._delta(instance, n=2):
            session.ingest(delta)
        result = session.summarize(request)
        assert result is session.result
        assert session.ingested_deltas == 2
