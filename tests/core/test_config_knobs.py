"""Less-travelled configuration knobs of the summarizer."""

from repro.core import (
    DistanceComputer,
    DomainCombiners,
    EuclideanDistance,
    MappingState,
    SummarizationConfig,
    Summarizer,
)
from repro.datasets import MovieLensConfig, generate_movielens
from repro.provenance import MAX, CancelSubsets


def problem(seed=6):
    return generate_movielens(
        MovieLensConfig(n_users=12, n_movies=6, seed=seed)
    ).problem()


def test_ordinal_scoring_through_the_algorithm():
    result = Summarizer(
        problem(), SummarizationConfig(w_dist=0.5, max_steps=4, scoring="ordinal")
    ).run()
    assert result.n_steps >= 1
    assert result.final_size < result.original_size


def test_group_equivalent_can_be_disabled():
    config_on = SummarizationConfig(max_steps=0, group_equivalent_first=True)
    config_off = SummarizationConfig(max_steps=0, group_equivalent_first=False)
    instance = generate_movielens(MovieLensConfig(n_users=12, n_movies=6, seed=6))
    with_grouping = Summarizer(instance.problem(), config_on).run()
    instance = generate_movielens(MovieLensConfig(n_users=12, n_movies=6, seed=6))
    without = Summarizer(instance.problem(), config_off).run()
    assert without.equivalence_merges == 0
    assert with_grouping.final_size <= without.final_size


def test_cancel_subsets_class_through_distances():
    instance = generate_movielens(MovieLensConfig(n_users=6, n_movies=4, seed=3))
    valuations = CancelSubsets(instance.universe, max_cancelled=2, domains=("user",))
    computer = DistanceComputer(
        instance.expression,
        valuations,
        EuclideanDistance(MAX),
        DomainCombiners(),
        instance.universe,
    )
    mapping = MappingState(sorted(instance.expression.annotation_names()))
    estimate = computer.distance(instance.expression, mapping)
    assert estimate.value == 0.0
    assert estimate.n_valuations == len(valuations)


def test_summarizer_with_subsets_valuations():
    instance = generate_movielens(MovieLensConfig(n_users=8, n_movies=4, seed=3))
    valuations = CancelSubsets(instance.universe, max_cancelled=2, domains=("user",))
    result = Summarizer(
        instance.problem(valuations=valuations),
        SummarizationConfig(w_dist=1.0, max_steps=3, seed=0),
    ).run()
    assert result.final_distance.n_valuations == len(valuations)
