"""The lazy queue's distance floor (Prop 4.2.2 on the chain S_t → S_t ∘ X).

After the queue's winner merged into ``S_t``, the engine keys every
candidate that keeps Prop 4.2.2 at no less than ``dist(S_t)``, the
winner's own estimate.  These tests check that every key the queue
builds stays at or below the candidate's fresh score along random merge
chains (exact and sampled scorers, MAX/SUM/COUNT, Euclidean/L1/
Disagreement, guards and group merges), pin the two ways a merge can
lower the distance on the fast paths, and bound the re-scoring work on
the ``exact_movielens`` benchmark shape.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AbsoluteDifference,
    AllowAll,
    Disagreement,
    DistanceComputer,
    DomainCombiners,
    EuclideanDistance,
    MappingState,
    ScoringEngine,
    SummarizationConfig,
    SummarizationProblem,
    Summarizer,
    enumerate_candidates,
)
from repro.core.fast_distance import FastStepScorer
from repro.datasets import MovieLensConfig, generate_movielens
from repro.provenance import (
    MAX,
    SUM,
    Annotation,
    AnnotationUniverse,
    CancelSingleAnnotation,
    CancelSingleAttribute,
    Guard,
    TensorSum,
    Term,
)

from .test_parallel_scoring import (
    MONOIDS,
    assert_lazy_replays_full_rank,
    random_problem,
)

VAL_FUNCS = {
    "euclidean": EuclideanDistance,
    "l1": AbsoluteDifference,
    "disagreement": Disagreement,
}

#: Batch size of the sampled rows: larger than every instance's
#: valuation class, so draws repeat members.
BATCH = 24


def movie_problem(seed, monoid, val_func_cls):
    """MovieLens-shaped: each (user, movie) term aggregates into its
    movie's group, so a movie merge is a group merge that also revives
    terms; valuations cancel one user or one movie."""
    rng = random.Random(seed)
    universe = AnnotationUniverse()
    users = [f"u{index}" for index in range(rng.randint(3, 5))]
    movies = [f"m{index}" for index in range(rng.randint(2, 4))]
    for name in users:
        universe.register(Annotation(name, "user", {"g": "x"}))
    for name in movies:
        universe.register(Annotation(name, "movie", {"g": "y"}))
    terms = [
        Term(tuple(sorted((user, movie))), float(rng.randint(0, 5)), group=movie)
        for user in users
        for movie in rng.sample(movies, rng.randint(1, len(movies)))
    ]
    return SummarizationProblem(
        expression=TensorSum(terms, monoid),
        universe=universe,
        valuations=CancelSingleAnnotation(universe, domains=("user", "movie")),
        val_func=val_func_cls(monoid),
        combiners=DomainCombiners(),
        constraint=AllowAll(),
    )


#: Instance families of the property: ``random_problem`` plain, with
#: guards, with every annotation its own group, and MovieLens-shaped.
SHAPES = ("plain", "guards", "group_merges", "movies")


def _problem(shape, seed, monoid, val_func_cls):
    if shape == "movies":
        return movie_problem(seed, monoid, val_func_cls)
    return random_problem(
        seed,
        monoid,
        val_func_cls=val_func_cls,
        n_terms=16,
        with_guards=shape == "guards",
        group_merges=shape == "group_merges",
    )


def _merge(problem, current, mapping, parts):
    universe = problem.universe
    summary = universe.new_summary([universe[name] for name in parts], label="m")
    step = {name: summary.name for name in parts}
    return summary.name, current.apply_mapping(step), mapping.compose(step)


def queue_keys(engine, scorer, candidates, w_dist, w_size, original_size):
    """The lazy queue's key per candidate, brought to ``candidates``:
    each live heap item's key plus the size term every entry shares
    (``w_size · offset / original_size``, left out of the keys)."""
    engine._sync(scorer, candidates, (w_dist, w_size, original_size))
    shared = w_size * engine._offset / original_size
    return {
        parts: key + shared
        for key, _, parts, stamp in engine._heap
        if parts in engine._entries and engine._entries[parts].stamp == stamp
    }


@pytest.mark.parametrize("sampled", [False, True], ids=["exact", "sampled"])
@pytest.mark.parametrize("monoid", sorted(MONOIDS))
@pytest.mark.parametrize("shape", SHAPES)
@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    val_func=st.sampled_from(sorted(VAL_FUNCS)),
    w_dist=st.floats(min_value=0.05, max_value=0.95),
    chain=st.lists(st.booleans(), min_size=3, max_size=5),
)
def test_floored_keys_never_exceed_fresh_scores(
    shape, monoid, sampled, seed, val_func, w_dist, chain
):
    """At every step of a merge chain, each queue key (plus the size
    term the queue's entries share) is at most the candidate's fresh
    score.  ``chain[t]`` says whether step ``t`` applies the queue's
    winner (which moves the floor) or a random candidate (which leaves
    it)."""
    problem = _problem(shape, seed, MONOIDS[monoid], VAL_FUNCS[val_func])
    config = SummarizationConfig(
        max_enumerate=0 if sampled else 512, distance_samples=BATCH
    )
    computer = DistanceComputer(
        problem.expression,
        problem.valuations,
        problem.val_func,
        problem.combiners,
        problem.universe,
        max_enumerate=config.max_enumerate,
        n_samples=BATCH,
        rng=random.Random(seed),
    )
    engine = ScoringEngine(problem, config, computer)
    rng = random.Random(seed)
    current = problem.expression
    mapping = MappingState(sorted(current.annotation_names()))
    original_size = current.size()
    w_size = 1.0 - w_dist
    expected_path = (
        ScoringEngine.PATH_SAMPLED_INCREMENTAL
        if sampled
        else ScoringEngine.PATH_FAST_INCREMENTAL
    )
    for follow_winner in chain:
        candidates = enumerate_candidates(
            current, problem.universe, problem.constraint
        )
        if not candidates:
            break
        scorer = engine._fast_scorer(current, mapping)
        keys = queue_keys(engine, scorer, candidates, w_dist, w_size, original_size)
        floor = engine._floor
        assert sorted(keys) == sorted(candidate.parts for candidate in candidates)
        for parts, key in keys.items():
            size, estimate = scorer.score(parts)
            fresh = w_dist * estimate.normalized + w_size * size / original_size
            assert key <= fresh, (parts, floor, key, fresh)
        best, _ = engine.measure_lazy(
            candidates, current, mapping, w_dist, w_size, original_size
        )
        assert engine.last_path == expected_path
        assert engine.last_floor == floor
        chosen = best.candidate if follow_winner else rng.choice(candidates)
        new_name, current, mapping = _merge(
            problem, current, mapping, chosen.parts
        )
        engine.advance(chosen.parts, new_name, current, mapping)
    assert engine.fallback_count == 0


# -- where Prop 4.2.2 fails on the fast paths --------------------------------------


def _group_merge_problem():
    """Users u1, u2 and movies m1, m2, each movie its own MAX group;
    valuations cancel one user at a time."""
    universe = AnnotationUniverse()
    for name in ("u1", "u2", "u3"):
        universe.register(Annotation(name, "user", {"g": "x"}))
    for name in ("m1", "m2"):
        universe.register(Annotation(name, "movie", {"g": "y"}))
    terms = [
        Term(("m1", "u1"), 4.0, group="m1"),
        Term(("m1", "u3"), 1.0, group="m1"),
        Term(("m2", "u3"), 5.0, group="m2"),
        Term(("m2", "u2"), 0.0, group="m2"),
    ]
    expression = TensorSum(terms, MAX)
    valuations = CancelSingleAnnotation(universe, domains=("user",))
    computer = DistanceComputer(
        expression, valuations, EuclideanDistance(MAX), DomainCombiners(), universe
    )
    return universe, expression, computer


def test_max_group_merge_can_lower_the_distance():
    """Merging u1, u2 revives ``u1``'s 4 in group m1 where the original
    has 1; merging the groups m1, m2 then compares max(4, 5) with
    max(1, 5), and the distance falls back to 0.  The scorer does not
    vouch for that merge, so the queue does not floor it."""
    universe, expression, computer = _group_merge_problem()
    mapping = MappingState(sorted(expression.annotation_names()))
    current = expression
    distances = [computer.exact(current, mapping).value]
    scorer = FastStepScorer(computer, current, mapping, universe)
    assert not scorer.merges_keep_distance
    assert scorer.keeps_distance(("u1", "u2"))
    assert not scorer.keeps_distance(("m1", "m2"))
    for parts in (("u1", "u2"), ("m1", "m2")):
        summary = universe.new_summary([universe[name] for name in parts], label="s")
        step = {name: summary.name for name in parts}
        current = current.apply_mapping(step)
        mapping = mapping.compose(step)
        distances.append(computer.exact(current, mapping).value)
    assert distances == [0.0, 1.0, 0.0]


def test_negated_guard_can_lower_the_distance():
    """``u1``'s term holds only while ``u2`` is false.  Merging u1, u3
    revives it under the valuation cancelling group A (u1 and u2), and
    merging u2, u4 cancels it there again: the distance falls from 2.0
    to 0.5.  No merge of an expression with such a guard is floored,
    and the engine keeps no estimate across its merges."""
    assert Guard(("u2",), 1.0, "==", 0.0).negated
    assert not Guard(("u2",), 5.0, ">", 2.0).negated
    universe = AnnotationUniverse()
    for name, group in (("u1", "A"), ("u2", "A"), ("u3", "B"), ("u4", "B")):
        universe.register(Annotation(name, "user", {"g": group}))
    expression = TensorSum(
        [
            Term(("u1",), 3.0, group="g", guards=(Guard(("u2",), 1.0, "==", 0.0),)),
            Term(("u3",), 1.0, group="g"),
        ],
        SUM,
    )
    valuations = CancelSingleAttribute(universe, attributes=("g",), domains=("user",))
    computer = DistanceComputer(
        expression, valuations, EuclideanDistance(SUM), DomainCombiners(), universe
    )
    mapping = MappingState(sorted(expression.annotation_names()))
    scorer = FastStepScorer(computer, expression, mapping, universe)
    assert not scorer.merges_keep_distance
    assert not scorer.keeps_distance(("u1", "u3"))

    problem = SummarizationProblem(
        expression=expression,
        universe=universe,
        valuations=valuations,
        val_func=EuclideanDistance(SUM),
        combiners=DomainCombiners(),
        constraint=AllowAll(),
    )
    engine = ScoringEngine(problem, SummarizationConfig(), computer)
    current = expression
    distances = [computer.exact(current, mapping).value]
    for parts in (("u1", "u3"), ("u2", "u4")):
        candidates = enumerate_candidates(current, universe, problem.constraint)
        engine.measure_lazy(candidates, current, mapping, 0.5, 0.5, 4)
        assert engine.last_floor == 0.0
        assert engine.last_path == ScoringEngine.PATH_FAST_INCREMENTAL
        new_name, current, mapping = _merge(problem, current, mapping, parts)
        engine.advance(parts, new_name, current, mapping)
        distances.append(computer.exact(current, mapping).value)
    assert distances == [0.0, 2.0, 0.5]
    assert engine._entries == {}


@pytest.mark.parametrize("val_func", sorted(VAL_FUNCS))
@pytest.mark.parametrize("seed", [13, 16, 21, 30, 31])
def test_lazy_replays_full_rank_across_max_group_merges(seed, val_func):
    """MovieLens-shaped MAX problems whose movie merges lower the
    distance: every lazy winner is still the full ranking's.  (A queue
    that carried estimates across such merges picked another winner on
    each of these rows.)"""
    assert_lazy_replays_full_rank(
        movie_problem(seed, MAX, VAL_FUNCS[val_func]), n_steps=6
    )


# -- the work the floor saves ------------------------------------------------------


#: Op seeds of the ``exact_movielens`` shape checked below, and the
#: bound on their summed re-scores over steps 2 and later.  Without the
#: floor these three ops re-score 1009 candidates there; with it, 168.
MOVIELENS_SEEDS = (1000, 1001, 1002)
LATER_RESCORED_BOUND = 300


def test_floor_bounds_rescoring_on_the_movielens_shape():
    later = 0
    for seed in MOVIELENS_SEEDS:
        problem = generate_movielens(
            MovieLensConfig(
                n_users=40,
                n_movies=40,
                min_ratings_per_user=5,
                max_ratings_per_user=5,
                seed=seed,
            )
        ).problem()
        result = Summarizer(
            problem, SummarizationConfig(max_steps=10, seed=seed)
        ).run()
        assert result.n_steps == 10
        assert result.scoring_fallbacks == 0
        later += sum(record.n_rescored for record in result.steps[1:])
    assert later <= LATER_RESCORED_BOUND, later
