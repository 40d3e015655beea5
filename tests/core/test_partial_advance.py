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
    return {
        "names": scorer._term_names,
        "guard_names": scorer._term_guard_names,
        "dead": scorer._dead.tobytes(),
        "group_order": scorer._group_order,
        "ann_terms": scorer._ann_terms,
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
