"""``advance`` rebuilds only the merge's neighborhood -- and that is enough.

After every merge of a chain, a scorer carried through ``advance``
must hold exactly the state a scorer built from scratch on the same
expression holds: the same sorted names and guard names, the
same dead-row table bytes, the same fold order per group, the same
annotation → term index and the same group baselines.  Checked on
MovieLens (user merges), Wikipedia (merges of group keys) and a
guarded random instance, under every kernel backend.
"""

from __future__ import annotations

import pytest

from repro.core import (
    DistanceComputer,
    MappingState,
    enumerate_candidates,
    kernels,
)
from repro.core.fast_distance import FastStepScorer
from repro.datasets import (
    MovieLensConfig,
    WikipediaConfig,
    generate_movielens,
    generate_wikipedia,
)
from repro.provenance import MAX

from .test_parallel_scoring import random_problem

KERNELS = [
    kernels.MODE_PYTHON,
    pytest.param(
        kernels.MODE_NATIVE,
        marks=pytest.mark.skipif(
            not kernels.native_available(), reason="native backend unavailable"
        ),
    ),
]

FIXTURES = {
    "movielens": lambda: generate_movielens(
        MovieLensConfig(n_users=16, n_movies=12, seed=4)
    ).problem(),
    "wikipedia": lambda: generate_wikipedia(
        WikipediaConfig(n_users=10, n_pages=8, seed=4)
    ).problem(),
    "guards": lambda: random_problem(7, MAX, n_terms=20, with_guards=True),
}


def carried_state(scorer):
    """The scorer's term state by expression position: slot
    ``scorer._slots[p]`` holds term ``p`` (a fresh scorer's slots are
    its positions; a carried one keeps each term in its slot)."""
    slots = scorer._slots
    position = {slot: index for index, slot in enumerate(slots)}
    n_words = scorer._n_words
    return {
        "names": [scorer._term_names[slot] for slot in slots],
        "guard_names": [scorer._term_guard_names[slot] for slot in slots],
        "dead": b"".join(
            scorer._dead[slot * n_words : (slot + 1) * n_words].tobytes()
            for slot in slots
        ),
        "group_order": {
            group: [position[slot] for slot in order]
            for group, order in scorer._group_order.items()
        },
        "ann_terms": {
            name: [position[slot] for slot in indexes]
            for name, indexes in scorer._ann_terms.items()
        },
        "baseline": {
            group: list(column) for group, column in scorer._baseline.items()
        },
    }


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_carried_scorer_equals_a_fresh_one(fixture, kernel):
    problem = FIXTURES[fixture]()
    universe = problem.universe
    with kernels.backend(kernel):
        computer = DistanceComputer(
            problem.expression,
            problem.valuations,
            problem.val_func,
            problem.combiners,
            universe,
        )
        current = problem.expression
        mapping = MappingState(sorted(current.annotation_names()))
        scorer = FastStepScorer(computer, current, mapping, universe)
        merges = 0
        for step in range(4):
            candidates = enumerate_candidates(
                current, universe, problem.constraint
            )
            if not candidates:
                break
            chosen = candidates[(7 * step) % len(candidates)]
            summary = universe.new_summary(
                [universe[name] for name in chosen.parts],
                label=chosen.proposal.label,
            )
            step_mapping = {name: summary.name for name in chosen.parts}
            current = current.apply_mapping(step_mapping)
            mapping = mapping.compose(step_mapping)
            scorer.advance(chosen.parts, summary.name, current, mapping)
            fresh = FastStepScorer(computer, current, mapping, universe)
            assert carried_state(scorer) == carried_state(fresh), (fixture, step)
            merges += 1
    assert merges >= 3


def cache_state(scorer, groups, names):
    """The fold arrays of ``groups`` and the size buckets of ``names``,
    built on demand, by expression position and bucket content (bucket
    ids are numbered per scorer)."""
    position = {slot: index for index, slot in enumerate(scorer._slots)}
    arrays = {}
    for group in groups:
        slots, values, position_of = scorer._group_arrays(group)
        assert position_of == {slot: index for index, slot in enumerate(slots)}
        arrays[group] = ([position[slot] for slot in slots], list(values))
    infos = {name: scorer._name_buckets(name) for name in names}
    key_of = {bucket: key for key, bucket in scorer._bucket_ids.items()}
    buckets = {}
    for name, info in infos.items():
        buckets[name] = (
            None
            if info is None
            else (
                {key_of[bucket]: size for bucket, size in info[0].items()},
                info[1],
                info[2],
            )
        )
    return arrays, buckets


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_carried_caches_equal_fresh_ones(fixture):
    """``advance`` keeps the fold arrays of the groups and the size
    buckets of the names the merge left alone; each kept entry is the
    one a scorer built from scratch computes."""
    problem = FIXTURES[fixture]()
    universe = problem.universe
    computer = DistanceComputer(
        problem.expression,
        problem.valuations,
        problem.val_func,
        problem.combiners,
        universe,
    )
    current = problem.expression
    mapping = MappingState(sorted(current.annotation_names()))
    scorer = FastStepScorer(computer, current, mapping, universe)
    kept = 0
    for step in range(4):
        candidates = enumerate_candidates(current, universe, problem.constraint)
        if not candidates:
            break
        # Fill the caches the way a lazy step does.
        scorer.candidate_sizes([candidate.parts for candidate in candidates])
        for candidate in candidates[:8]:
            scorer.score(candidate.parts)
        chosen = candidates[(7 * step) % len(candidates)]
        summary = universe.new_summary(
            [universe[name] for name in chosen.parts],
            label=chosen.proposal.label,
        )
        step_mapping = {name: summary.name for name in chosen.parts}
        current = current.apply_mapping(step_mapping)
        mapping = mapping.compose(step_mapping)
        scorer.advance(chosen.parts, summary.name, current, mapping)
        groups = list(scorer._group_cache)
        names = list(scorer._size_info)
        kept += len(groups) + len(names)
        fresh = FastStepScorer(computer, current, mapping, universe)
        assert cache_state(scorer, groups, names) == cache_state(
            fresh, groups, names
        ), (fixture, step)
    assert kept > 0
