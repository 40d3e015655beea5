"""Property suite for cross-step candidate-pool maintenance (core.pool).

Two obligations, each over a randomized instance grid:

* the maintained pool is *identical* -- same candidates, same order --
  to a fresh ``enumerate_candidates`` call after every applied merge,
  including the ``arity > 2`` greedy extension and dedupe;
* the engine's lazy queue, selecting over carried (stale)
  measurements, picks a winner of a fresh full re-scoring: sizes
  exactly, distances within the documented 1e-9 float-association
  tolerance (the queue's stale-key margin).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AllowAll,
    DistanceComputer,
    DomainCombiners,
    EuclideanDistance,
    MappingState,
    SummarizationConfig,
    SummarizationProblem,
    enumerate_candidates,
)
from repro.core.constraints import SharedAttribute
from repro.core.engine import ScoringEngine
from repro.core.fast_distance import FastStepScorer
from repro.core.pool import CandidatePool
from repro.core.scoring import ScoredCandidate, score_candidates
from repro.provenance import (
    MAX,
    SUM,
    Annotation,
    AnnotationUniverse,
    CancelSingleAnnotation,
    TensorSum,
    Term,
)

CONSTRAINTS = {
    "allow_all": AllowAll,
    "shared_attribute": SharedAttribute,
}


def pool_problem(seed, monoid=SUM, n_users=7, n_items=3, n_terms=16):
    """A two-domain instance whose attributes make SharedAttribute
    selective (so arity > 2 chains accept and reject members)."""
    rng = random.Random(seed)
    universe = AnnotationUniverse()
    names = []
    for index in range(n_users):
        name = f"u{index}"
        names.append(name)
        universe.register(
            Annotation(name, "user", {"g": rng.choice("AB"), "r": rng.choice("XY")})
        )
    for index in range(n_items):
        name = f"i{index}"
        names.append(name)
        universe.register(
            Annotation(name, "item", {"g": rng.choice("AB"), "r": rng.choice("XY")})
        )
    terms = []
    for _ in range(n_terms):
        annotations = tuple(rng.sample(names, rng.choice([1, 1, 2])))
        terms.append(
            Term(
                annotations,
                float(rng.randint(0, 5)),
                group=rng.choice(["g0", "g1", None]),
            )
        )
    expression = TensorSum(terms, monoid)
    return SummarizationProblem(
        expression=expression,
        universe=universe,
        valuations=CancelSingleAnnotation(universe, domains=("user",)),
        val_func=EuclideanDistance(monoid),
        combiners=DomainCombiners(),
        constraint=AllowAll(),
        description=f"pool seed={seed}",
    )


def candidate_keys(candidates):
    return [(c.parts, c.proposal.label, c.proposal.concept) for c in candidates]


def drive_merges(problem, constraint, arity, n_steps, pick_seed):
    """Apply ``n_steps`` merges, comparing the maintained pool against
    a fresh enumeration at every step."""
    universe = problem.universe
    pool = CandidatePool(universe, constraint, arity=arity)
    picker = random.Random(pick_seed)
    current = problem.expression
    for _ in range(n_steps):
        maintained = pool.candidates(current)
        fresh = enumerate_candidates(current, universe, constraint, arity=arity)
        assert candidate_keys(maintained) == candidate_keys(fresh)
        if not maintained:
            break
        chosen = picker.choice(maintained)
        summary = universe.new_summary(
            [universe[name] for name in chosen.parts],
            label=chosen.proposal.label,
            concept=chosen.proposal.concept,
        )
        current = current.apply_mapping(
            {name: summary.name for name in chosen.parts}
        )
        pool.advance(chosen.parts, summary.name, current)
    return pool


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    arity=st.sampled_from([2, 3, 4]),
    constraint_name=st.sampled_from(sorted(CONSTRAINTS)),
)
def test_pool_matches_fresh_enumeration(seed, arity, constraint_name):
    problem = pool_problem(seed)
    pool = drive_merges(
        problem,
        CONSTRAINTS[constraint_name](),
        arity=arity,
        n_steps=4,
        pick_seed=seed ^ 0x5A5A,
    )
    assert pool.maintained_steps >= 1, "the carry never engaged"


@pytest.mark.parametrize("arity", [2, 3])
def test_pool_explicit_rng_grid(arity):
    """Deterministic smoke over a fixed grid (no hypothesis shrinking)."""
    for seed in (0, 7, 42, 99):
        problem = pool_problem(seed)
        drive_merges(problem, AllowAll(), arity=arity, n_steps=5, pick_seed=seed)


def test_child_pool_branches_match_fresh():
    """Beam-style branching: two children advanced past different
    merges from the same parent must both match fresh enumeration."""
    problem = pool_problem(11)
    universe = problem.universe
    pool = CandidatePool(universe, AllowAll(), arity=3)
    current = problem.expression
    candidates = pool.candidates(current)
    assert len(candidates) >= 2
    for chosen in (candidates[0], candidates[-1]):
        summary = universe.new_summary(
            [universe[name] for name in chosen.parts],
            label=chosen.proposal.label,
        )
        expression = current.apply_mapping(
            {name: summary.name for name in chosen.parts}
        )
        child = pool.child(chosen.parts, summary.name, expression)
        assert candidate_keys(child.candidates(expression)) == candidate_keys(
            enumerate_candidates(expression, universe, AllowAll(), arity=3)
        )
    # The parent pool is untouched by its children.
    assert candidate_keys(pool.candidates(current)) == candidate_keys(
        enumerate_candidates(current, universe, AllowAll(), arity=3)
    )


def test_pool_invalidate_recovers():
    problem = pool_problem(5)
    pool = CandidatePool(problem.universe, AllowAll())
    current = problem.expression
    first = pool.candidates(current)
    pool.invalidate()
    assert candidate_keys(pool.candidates(current)) == candidate_keys(first)
    assert pool.rebuilt_steps == 2
    assert pool.maintained_steps == 0


def test_pool_rebuilds_on_foreign_expression():
    """Handing the pool an expression it was not advanced to must fall
    back to a fresh enumeration, not serve the stale list."""
    problem = pool_problem(5)
    pool = CandidatePool(problem.universe, AllowAll())
    pool.candidates(problem.expression)
    other = pool_problem(6)
    fresh = pool.candidates(other.expression)
    assert candidate_keys(fresh) == candidate_keys(
        enumerate_candidates(other.expression, problem.universe, AllowAll())
    )
    assert pool.rebuilt_steps == 2


# -- dedupe -----------------------------------------------------------------------


def test_dedupe_mixed_known_unknown_names_still_exact():
    """``arity > 2`` dedupe keeps exactly one candidate per part set --
    the first one generated -- ordered by its sorted part names."""
    from repro.core.candidates import finalize_candidates, generate_candidates

    problem = pool_problem(22)
    raw = generate_candidates(problem.expression, problem.universe, AllowAll(), 4)
    doubled = list(raw) + list(raw)
    first = {}
    for candidate in doubled:
        first.setdefault(frozenset(candidate.parts), candidate)
    expected = sorted(first.values(), key=lambda c: tuple(sorted(c.parts)))
    assert len(expected) < len(raw), "instance produced no duplicate part sets"
    assert candidate_keys(finalize_candidates(doubled, 4)) == candidate_keys(expected)
    assert candidate_keys(finalize_candidates(list(raw), 4)) == candidate_keys(expected)


# -- carried measurements ≡ fresh re-scores ----------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    monoid=st.sampled_from([SUM, MAX]),
)
def test_carried_scores_match_fresh_rescoring(seed, monoid):
    """Drive the engine's lazy queue for several steps; after each step
    its winner -- selected over carried (stale) measurements -- must be
    a winner of a fresh scorer built from scratch, with the same size
    exactly and the same distance within the documented 1e-9
    tolerance."""
    problem = pool_problem(seed, monoid=monoid)
    universe = problem.universe
    computer = DistanceComputer(
        problem.expression,
        problem.valuations,
        problem.val_func,
        problem.combiners,
        universe,
    )
    engine = ScoringEngine(problem, SummarizationConfig(), computer)
    assert engine.lazy
    current = problem.expression
    original_size = current.size()
    mapping = MappingState(sorted(current.annotation_names()))
    for _ in range(4):
        candidates = enumerate_candidates(current, universe, problem.constraint)
        if not candidates:
            break
        chosen, _ = engine.measure_lazy(
            candidates, current, mapping, 0.5, 0.5, original_size
        )
        assert engine.fallback_count == 0
        reference = FastStepScorer(computer, current, mapping, universe)
        fresh = score_candidates(
            [
                ScoredCandidate(
                    candidate=candidate,
                    expression=None,
                    step_mapping={},
                    size=size,
                    distance=estimate,
                )
                for candidate, (size, estimate) in (
                    (c, reference.score(c.parts)) for c in candidates
                )
            ],
            w_dist=0.5,
            w_size=0.5,
            original_size=original_size,
        )
        assert chosen.score == pytest.approx(fresh[0].score, abs=1e-9)
        match = next(
            entry for entry in fresh if entry.candidate.parts == chosen.candidate.parts
        )
        assert match.score <= fresh[0].score + 1e-9, chosen.candidate.parts
        assert chosen.size == match.size, chosen.candidate.parts
        assert chosen.distance.value == pytest.approx(
            match.distance.value, abs=1e-9
        ), chosen.candidate.parts
        summary = universe.new_summary(
            [universe[name] for name in chosen.candidate.parts],
            label=chosen.candidate.proposal.label,
        )
        step_mapping = {name: summary.name for name in chosen.candidate.parts}
        current = current.apply_mapping(step_mapping)
        mapping = mapping.compose(step_mapping)
        engine.advance(chosen.candidate.parts, summary.name, current, mapping)
