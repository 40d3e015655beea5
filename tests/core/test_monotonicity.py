"""Proposition 4.2.2 on *arbitrary* merge chains (not just the
algorithm's greedy choices): along any sequence of homomorphisms the
distance never decreases and the size never increases.

For DDP provenance (tropical semiring, Example 5.2.2) only the size
half holds; the distance half has a pinned counterexample."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Disagreement,
    DistanceComputer,
    DomainCombiners,
    EuclideanDistance,
    AbsoluteDifference,
    MappingState,
    enumerate_candidates,
)
from repro.core.val_funcs import DDPCostDifference
from repro.datasets.ddp import DDPConfig, generate_ddp
from repro.provenance import (
    MAX,
    SUM,
    Annotation,
    AnnotationUniverse,
    CancelSingleAnnotation,
    TensorSum,
    Term,
)

VAL_FUNCS = {
    "euclidean": EuclideanDistance,
    "absolute": AbsoluteDifference,
    "disagreement": Disagreement,
}


def random_instance(rng: random.Random, monoid):
    universe = AnnotationUniverse()
    n_users = rng.randint(4, 8)
    for index in range(n_users):
        universe.register(Annotation(f"u{index}", "user", {"g": "x"}))
    terms = []
    for index in range(n_users):
        for _ in range(rng.randint(1, 2)):
            terms.append(
                Term(
                    (f"u{index}",),
                    float(rng.randint(0, 5)),
                    group=rng.choice(("m1", "m2", "m3")),
                )
            )
    return universe, TensorSum(terms, monoid)


def random_merge_chain(rng: random.Random, universe, expression, length=4):
    """A random sequence of constraint-free pair merges."""
    mapping = MappingState(sorted(expression.annotation_names()))
    chain = [(expression, mapping)]
    current = expression
    for _ in range(length):
        names = sorted(current.annotation_names())
        if len(names) < 2:
            break
        first, second = rng.sample(names, 2)
        summary = universe.new_summary(
            [universe[first], universe[second]], label="m"
        )
        step = {first: summary.name, second: summary.name}
        current = current.apply_mapping(step)
        mapping = mapping.compose(step)
        chain.append((current, mapping))
    return chain


@pytest.mark.parametrize("val_func_name", sorted(VAL_FUNCS))
@pytest.mark.parametrize("monoid", [MAX, SUM], ids=["MAX", "SUM"])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_distance_monotone_and_size_antitone(val_func_name, monoid, seed):
    rng = random.Random(seed)
    universe, expression = random_instance(rng, monoid)
    valuations = CancelSingleAnnotation(universe, domains=("user",))
    computer = DistanceComputer(
        expression,
        valuations,
        VAL_FUNCS[val_func_name](monoid),
        DomainCombiners(),
        universe,
    )
    chain = random_merge_chain(rng, universe, expression)
    distances = [
        computer.exact(summary, mapping).value for summary, mapping in chain
    ]
    sizes = [summary.size() for summary, _ in chain]
    assert all(
        later >= earlier - 1e-9 for earlier, later in zip(distances, distances[1:])
    ), distances
    assert all(
        later <= earlier for earlier, later in zip(sizes, sizes[1:])
    ), sizes


# -- DDP (tropical semiring, Example 5.2.2) ------------------------------------------


def ddp_merge_chain(seed, length=5):
    """A random chain of constraint-respecting merges over a small DDP
    instance: OR combiner for database variables, MAX for costs."""
    rng = random.Random(seed)
    problem = generate_ddp(
        DDPConfig(
            n_templates=3,
            executions_per_template=3,
            n_db_vars=6,
            n_cost_vars=6,
            seed=seed,
        )
    ).problem()
    assert isinstance(problem.val_func, DDPCostDifference)
    computer = DistanceComputer(
        problem.expression,
        problem.valuations,
        problem.val_func,
        problem.combiners,
        problem.universe,
    )
    current = problem.expression
    mapping = MappingState(sorted(current.annotation_names()))
    chain = [(current, mapping)]
    for _ in range(length):
        candidates = enumerate_candidates(
            current, problem.universe, problem.constraint
        )
        if not candidates:
            break
        chosen = rng.choice(candidates)
        summary = problem.universe.new_summary(
            [problem.universe[name] for name in chosen.parts],
            label=chosen.proposal.label,
            concept=chosen.proposal.concept,
        )
        step = {name: summary.name for name in chosen.parts}
        current = current.apply_mapping(step)
        mapping = mapping.compose(step)
        chain.append((current, mapping))
    distances = [computer.exact(summary, m).value for summary, m in chain]
    sizes = [summary.size() for summary, _ in chain]
    return distances, sizes


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_ddp_size_antitone(seed):
    """The size half of Prop 4.2.2 holds for DDP: a merge never grows
    the sum of executions."""
    _, sizes = ddp_merge_chain(seed)
    assert len(sizes) > 1
    assert all(later <= earlier for earlier, later in zip(sizes, sizes[1:])), sizes


def test_ddp_distance_can_fall_along_a_chain():
    """The distance half does *not* hold for DDP's cost difference: a
    later merge can bring a summary's feasibility back into agreement
    with the original's under some valuation, and the 10 × 5 penalty
    paid there drops to a cost difference or 0.  So a carried DDP
    distance is not a lower bound on its fresh value, and only the
    size-only key is sound for a lazy queue over DDP.  Seed 9 is a
    pinned counterexample."""
    distances, _ = ddp_merge_chain(9)
    assert any(
        later < earlier - 1e-9
        for earlier, later in zip(distances, distances[1:])
    ), distances
