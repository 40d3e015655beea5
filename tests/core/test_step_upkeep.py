"""Greedy-step upkeep in proportion to the merge.

After step 0 a greedy step should cost what the merge touched, not
what the candidate set holds.  These tests pin the invariants that
make that exact:

* ``SharedAttribute.propose`` (two lookups per configured attribute,
  one shared proposal per label) and the memoized
  ``TaxonomyAncestor.propose`` equal the dict-based bodies they
  replaced, on every same-domain pair of the three paper datasets and
  on random attribute maps;
* domains a ``DomainConstraints`` has no rule for are never asked, and
  skipping them changes no output;
* the run-long lazy queue, kept in step by the candidate pool's delta,
  picks the full ranking's winner at every step -- also across merges
  that may lower the distance, where it starts over;
* after step 0 the queue sizes only the candidates the merge could
  have re-sized plus the new ones.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DistanceComputer,
    MappingState,
    ScoringEngine,
    SummarizationConfig,
    Summarizer,
)
from repro.core.constraints import (
    DomainConstraints,
    MergeConstraint,
    MergeProposal,
    SharedAttribute,
    TaxonomyAncestor,
)
from repro.core.fast_distance import FastStepScorer
from repro.core.pool import CandidatePool
from repro.core.scoring import ScoredCandidate, score_candidates
from repro.datasets import (
    DDPConfig,
    MovieLensConfig,
    WikipediaConfig,
    generate_ddp,
    generate_movielens,
    generate_wikipedia,
)
from repro.provenance import Annotation, AnnotationUniverse
from repro.taxonomy.wu_palmer import group_distance


# -- proposals ---------------------------------------------------------------------


def reference_shared(constraint, first, second):
    """``SharedAttribute.propose`` as a per-pair dict scan."""
    shared = first.shared_attributes(second)
    if constraint.attributes is not None:
        shared = {
            key: value
            for key, value in shared.items()
            if key in constraint.attributes
        }
    if not shared:
        return None
    order = (
        constraint.attributes if constraint.attributes is not None else sorted(shared)
    )
    for attribute in order:
        if attribute in shared:
            return MergeProposal(label=f"{attribute}={shared[attribute]}")
    return None


def reference_taxonomy(constraint, first, second):
    """``TaxonomyAncestor.propose`` without the per-pair memo."""
    if first.concept is None or second.concept is None:
        return None
    taxonomy = constraint.taxonomy
    if first.concept not in taxonomy or second.concept not in taxonomy:
        return None
    ancestor = taxonomy.lca(first.concept, second.concept)
    if ancestor is None:
        return None
    cost = group_distance(
        taxonomy,
        (first.concept, second.concept),
        ancestor,
        mode=constraint.tiebreak_mode,
    )
    if constraint.max_distance is not None and cost > constraint.max_distance:
        return None
    return MergeProposal(label=ancestor, concept=ancestor, taxonomy_cost=cost)


def reference_propose(constraint, first, second):
    if isinstance(constraint, DomainConstraints):
        if first.domain != second.domain:
            return None
        inner = constraint.per_domain.get(first.domain)
        return None if inner is None else reference_propose(inner, first, second)
    if isinstance(constraint, SharedAttribute):
        return reference_shared(constraint, first, second)
    if isinstance(constraint, TaxonomyAncestor):
        return reference_taxonomy(constraint, first, second)
    raise AssertionError(f"no reference for {constraint!r}")


INSTANCES = {
    "movielens": lambda: generate_movielens(
        MovieLensConfig(n_users=16, n_movies=10, include_movie_merges=True, seed=5)
    ),
    "wikipedia": lambda: generate_wikipedia(
        WikipediaConfig(n_users=12, n_pages=10, seed=5)
    ),
    "ddp": lambda: generate_ddp(DDPConfig(seed=5)),
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_propose_equals_the_dict_reference_on_paper_instances(name):
    """Every same-domain pair, both orders, base and summary
    annotations alike; a second pass reads the memoized outcomes."""
    instance = INSTANCES[name]()
    problem = instance.problem()
    universe = problem.universe
    constraint = problem.constraint
    by_domain = {}
    for annotation in list(universe):
        by_domain.setdefault(annotation.domain, []).append(annotation)
    # A few summaries per domain: their attributes are the members'
    # intersection and their concept the members' LCA.
    for domain, annotations in list(by_domain.items()):
        for first, second in zip(annotations[::2], annotations[1::2]):
            proposal = constraint.propose(first, second)
            if proposal is not None:
                by_domain[domain].append(
                    universe.new_summary(
                        [first, second],
                        label=proposal.label,
                        concept=proposal.concept,
                    )
                )
    compared = 0
    for _ in range(2):
        for annotations in by_domain.values():
            for first in annotations:
                for second in annotations:
                    if first is second:
                        continue
                    assert constraint.propose(first, second) == reference_propose(
                        constraint, first, second
                    ), (first.name, second.name)
                    compared += 1
    assert compared > 100


ATTRIBUTE_VALUES = st.one_of(
    st.none(),
    st.sampled_from(["a", "b", "F", "M"]),
    st.integers(0, 2),
    st.booleans(),
    st.sampled_from([0.0, -0.0, 1.0, 2.5]),
)
ATTRIBUTE_MAPS = st.dictionaries(
    st.sampled_from(["gender", "age", "zip", "occupation"]), ATTRIBUTE_VALUES
)


@settings(max_examples=200, deadline=None)
@given(
    maps=st.lists(ATTRIBUTE_MAPS, min_size=2, max_size=6),
    attributes=st.one_of(
        st.none(),
        st.lists(
            st.sampled_from(["gender", "age", "zip", "occupation", "missing"]),
            max_size=4,
        ),
    ),
)
def test_shared_attribute_equals_the_dict_reference(maps, attributes):
    """Random maps with missing attributes, ``None`` values, equal
    values of different types (``1``, ``1.0``, ``True``), equal values
    that print differently (``0.0``, ``-0.0``) and summaries."""
    universe = AnnotationUniverse()
    annotations = [
        universe.register(Annotation(f"u{index}", "user", values))
        for index, values in enumerate(maps)
    ]
    annotations.append(universe.new_summary(annotations[:2], label="s"))
    constraint = SharedAttribute(attributes)
    for first in annotations:
        for second in annotations:
            if first is not second:
                got = constraint.propose(first, second)
                assert got == reference_shared(constraint, first, second)


def test_shared_proposals_keep_each_value_label():
    """A shared proposal never lends its label to an equal value that
    prints differently: ``0.0 == -0.0``, ``1 == 1.0 == True``."""
    universe = AnnotationUniverse()
    values = [0.0, -0.0, 0.0, 1, 1.0, True, 1]
    annotations = [
        universe.register(Annotation(f"u{index}", "user", {"x": value}))
        for index, value in enumerate(values)
    ]
    for attributes in (None, ["x"]):
        constraint = SharedAttribute(attributes)
        for first in annotations:
            for second in annotations:
                if first is not second:
                    got = constraint.propose(first, second)
                    assert got == reference_shared(constraint, first, second)


# -- domains the constraint never merges -------------------------------------------


class CountingConstraint(MergeConstraint):
    """Counts the pairs asked per domain; merges whatever ``inner``
    merges.  ``declare`` passes the inner constraint's domain rule on
    (the default merges every domain)."""

    def __init__(self, inner: DomainConstraints, declare: bool):
        self.inner = inner
        self.declare = declare
        self.asked = {}

    def propose(self, first, second):
        self.asked[first.domain] = self.asked.get(first.domain, 0) + 1
        return self.inner.propose(first, second)

    def merges_domain(self, domain):
        return self.inner.merges_domain(domain) if self.declare else True


def _summary_fingerprint(result):
    return (
        [(record.merged, record.label, record.size_after) for record in result.steps],
        result.equivalence_mapping,
        result.final_size,
        repr(result.final_distance.normalized),
    )


def test_unmergeable_domains_are_never_asked():
    """MovieLens' constraint has no movie (or year) rule: the pool and
    the equivalence grouping skip those domains without a call, and the
    summary is the one a constraint that is asked everywhere gives."""
    results = {}
    for declare in (False, True):
        instance = generate_movielens(
            MovieLensConfig(n_users=20, n_movies=16, seed=3)
        )
        problem = instance.problem()
        counting = CountingConstraint(problem.constraint, declare)
        problem.constraint = counting
        results[declare] = Summarizer(
            problem, SummarizationConfig(max_steps=6, seed=3)
        ).run()
        if declare:
            assert set(counting.asked) == {"user"}, counting.asked
        else:
            assert counting.asked.get("movie", 0) > 0
    assert _summary_fingerprint(results[True]) == _summary_fingerprint(results[False])


# -- the run-long queue ------------------------------------------------------------


def _full_rank(scorer, candidates, w_dist, w_size, original_size):
    measured = []
    for candidate in candidates:
        size, estimate = scorer.score(candidate.parts)
        measured.append(
            ScoredCandidate(
                candidate=candidate,
                expression=None,
                step_mapping={},
                size=size,
                distance=estimate,
            )
        )
    return score_candidates(
        measured, w_dist=w_dist, w_size=w_size, original_size=original_size
    )[0]


@pytest.mark.parametrize("aggregation", ["MAX", "SUM", "COUNT"])
@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    movies=st.booleans(),
    w_dist=st.floats(min_value=0.05, max_value=0.95),
    follow=st.lists(st.booleans(), min_size=6, max_size=8),
)
def test_run_long_queue_picks_the_full_rank_winner(
    aggregation, seed, movies, w_dist, follow
):
    """Along a merge chain driven like ``Summarizer`` (the pool's
    candidate sets, with their deltas, into one carried engine), every
    lazy winner is the full ranking's over fresh measurements, bit for
    bit.  ``movies`` lets movies merge: they are group keys, so under
    MAX their merges may lower the distance (the queue starts over).
    ``follow[t]`` applies the winner (moving the floor) or a random
    candidate (leaving it)."""
    problem = generate_movielens(
        MovieLensConfig(
            n_users=10,
            n_movies=8,
            aggregation=aggregation,
            include_movie_merges=movies,
            seed=seed,
        )
    ).problem()
    universe = problem.universe
    computer = DistanceComputer(
        problem.expression,
        problem.valuations,
        problem.val_func,
        problem.combiners,
        universe,
    )
    engine = ScoringEngine(problem, SummarizationConfig(), computer)
    pool = CandidatePool(universe, problem.constraint)
    rng = random.Random(seed)
    current = problem.expression
    mapping = MappingState(sorted(current.annotation_names()))
    original_size = current.size()
    w_size = 1.0 - w_dist
    for step, follow_winner in enumerate(follow):
        candidates = pool.candidates(current)
        if not candidates:
            break
        best, _ = engine.measure_lazy(
            candidates, current, mapping, w_dist, w_size, original_size
        )
        assert engine.last_path == ScoringEngine.PATH_FAST_INCREMENTAL
        assert engine.fallback_count == 0
        scorer = FastStepScorer(computer, current, mapping, universe)
        expected = _full_rank(scorer, candidates, w_dist, w_size, original_size)
        assert best.candidate == expected.candidate, step
        assert (best.size, best.distance.value, best.score) == (
            expected.size,
            expected.distance.value,
            expected.score,
        ), step
        chosen = best.candidate if follow_winner else rng.choice(list(candidates))
        summary = universe.new_summary(
            [universe[name] for name in chosen.parts],
            label=chosen.proposal.label,
            concept=chosen.proposal.concept,
        )
        step_mapping = {name: summary.name for name in chosen.parts}
        current = current.apply_mapping(step_mapping)
        mapping = mapping.compose(step_mapping)
        engine.advance(chosen.parts, summary.name, current, mapping)
        pool.advance(chosen.parts, summary.name, current)


def test_later_steps_size_only_the_merge_neighborhood(monkeypatch):
    """After step 0, each step's one ``candidate_sizes`` call gets at
    most the carried candidates the merge may have re-sized (by the
    scorer's own ``size_intersects``) plus the new ones -- a small
    share of the step's candidates."""
    calls = []
    bounds = []
    original_sizes = FastStepScorer.candidate_sizes
    original_measure = ScoringEngine.measure_lazy

    def spy_sizes(self, parts_list):
        calls[-1] += len(parts_list)
        return original_sizes(self, parts_list)

    def spy_measure(self, candidates, current, *args, **kwargs):
        carried = self._entries if self._queue_expr is current else {}
        scorer = self._scorer
        bound = 0
        for candidate in candidates:
            if candidate.parts not in carried:
                bound += 1
            elif scorer.size_intersects(candidate.parts):
                bound += 1
        bounds.append((bound, len(candidates)))
        calls.append(0)
        return original_measure(self, candidates, current, *args, **kwargs)

    monkeypatch.setattr(FastStepScorer, "candidate_sizes", spy_sizes)
    monkeypatch.setattr(ScoringEngine, "measure_lazy", spy_measure)
    for seed in (1000, 1001, 1002):
        calls.clear()
        bounds.clear()
        problem = generate_movielens(
            MovieLensConfig(
                n_users=40,
                n_movies=40,
                min_ratings_per_user=5,
                max_ratings_per_user=5,
                seed=seed,
            )
        ).problem()
        result = Summarizer(problem, SummarizationConfig(max_steps=10, seed=seed)).run()
        assert result.n_steps == 10 and result.scoring_fallbacks == 0
        assert calls[0] == bounds[0][1], "a fresh queue sizes every candidate"
        for sized, (bound, n_candidates) in zip(calls[1:], bounds[1:]):
            assert sized <= bound, (sized, bound)
            assert sized < n_candidates / 4, (sized, n_candidates)
