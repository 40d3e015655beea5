"""The one-pass queue sizes equal the exact per-candidate reference.

``FastStepScorer.candidate_sizes`` serves plain pair merges from
per-name collision buckets (``size − pair[a, b] − dup[a] − dup[b]``)
and hands every other shape to ``_candidate_size``.  Hypothesis builds
expressions that hit every boundary of that split -- guards, repeated
names (``a·a``), parts sharing a term, group-key parts, arity-3
candidates and terms that only become duplicates after the merge
renames them -- and checks the pass entry for entry, along a merge
chain.  The span tests pin that real workloads take the pass
(``sizes_fallback`` 0 on MovieLens) and that the reference still
serves what the pass does not cover.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DistanceComputer,
    DomainCombiners,
    EuclideanDistance,
    MappingState,
    SummarizationConfig,
    Summarizer,
)
from repro.core.fast_distance import FastStepScorer
from repro.datasets import MovieLensConfig, generate_movielens
from repro.observability import tracing
from repro.provenance import (
    MAX,
    SUM,
    Annotation,
    AnnotationUniverse,
    CancelSingleAnnotation,
    Guard,
    TensorSum,
    Term,
)

from .test_parallel_scoring import random_problem

NAMES = [f"U{i}" for i in range(6)]
GROUPS = ["U0", "U1", "g0", "g1", None]


@st.composite
def terms(draw):
    annotations = tuple(
        draw(st.lists(st.sampled_from(NAMES), min_size=0, max_size=3))
    )
    guards = ()
    if draw(st.integers(0, 4)) == 0:
        guards = (
            Guard(
                tuple(
                    draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=2))
                ),
                draw(st.sampled_from([1, 5])),
                draw(st.sampled_from([">", ">=", "=="])),
                draw(st.sampled_from([0, 2])),
            ),
        )
    return Term(
        annotations,
        float(draw(st.integers(0, 5))),
        group=draw(st.sampled_from(GROUPS)),
        guards=guards,
    )


@st.composite
def expressions(draw):
    drawn = draw(st.lists(terms(), min_size=1, max_size=14))
    # Hand-built duplicates: the same names in another order are a
    # distinct term until a merge renames (and so sorts) them.
    for term in draw(st.lists(st.sampled_from(drawn), max_size=3)):
        if len(term.annotations) > 1:
            drawn.append(
                Term(
                    tuple(reversed(term.annotations)),
                    term.value,
                    group=term.group,
                    guards=term.guards,
                )
            )
    monoid = draw(st.sampled_from([MAX, SUM]))
    return TensorSum(drawn, monoid)


def make_scorer(expression):
    universe = AnnotationUniverse()
    for name in NAMES:
        universe.register(Annotation(name, "user", {}))
    computer = DistanceComputer(
        expression,
        CancelSingleAnnotation(universe, domains=("user",)),
        EuclideanDistance(expression.monoid),
        DomainCombiners(),
        universe,
    )
    mapping = MappingState(sorted(expression.annotation_names()))
    return FastStepScorer(computer, expression, mapping, universe), universe


def every_candidate(expression):
    """Every pair and triple of present names, group keys included."""
    names = sorted(expression.annotation_names())
    return list(itertools.combinations(names, 2)) + list(
        itertools.combinations(names, 3)
    )


@settings(max_examples=60, deadline=None)
@given(expression=expressions(), merges=st.lists(st.integers(0, 50), max_size=3))
def test_one_pass_sizes_equal_the_reference(expression, merges):
    scorer, universe = make_scorer(expression)
    current = expression
    mapping = scorer.mapping
    for step in range(len(merges) + 1):
        candidates = every_candidate(current)
        if not candidates:
            break
        sizes, fallback = scorer.candidate_sizes(candidates)
        assert sizes == [scorer.candidate_size(parts) for parts in candidates]
        assert 0 <= fallback <= len(candidates)
        if step == len(merges):
            break
        parts = candidates[merges[step] % len(candidates)]
        summary = universe.new_summary([universe[name] for name in parts])
        step_mapping = {name: summary.name for name in parts}
        current = current.apply_mapping(step_mapping)
        mapping = mapping.compose(step_mapping)
        scorer.advance(parts, summary.name, current, mapping)


def test_pass_covers_plain_pairs_and_defers_the_rest():
    """Each boundary of the split, on one hand-built expression."""
    expression = TensorSum(
        [
            Term(("U0", "U2"), 1.0, group="g0"),
            Term(("U1", "U2"), 2.0, group="g0"),  # collides with U0·U2
            Term(("U3", "U3"), 1.0, group="g1"),  # repeated name
            Term(("U4",), 3.0, group="U5", guards=(Guard(("U4",), 5, ">", 2),)),
        ],
        MAX,
    )
    scorer, _ = make_scorer(expression)
    plain = ("U0", "U1")
    shapes = [
        plain,
        ("U0", "U2"),  # parts share a term
        ("U0", "U3"),  # repeated name
        ("U0", "U5"),  # group key
        ("U1", "U4"),  # U4 sits in a guard
        ("U0", "U1", "U4"),  # arity 3
    ]
    sizes, fallback = scorer.candidate_sizes(shapes)
    assert sizes == [scorer.candidate_size(parts) for parts in shapes]
    assert sizes[0] == expression.size() - 2
    assert fallback == len(shapes) - 1


def _fallbacks_per_step(problem, config):
    tracing.set_enabled(True)
    tracing.take_trace()
    result = Summarizer(problem, config).run()
    root = tracing.take_trace()
    steps = [child for child in root.children if child.name.startswith("step[")]
    return [
        child.find("score_candidates").attributes["sizes_fallback"]
        for child in steps[: result.n_steps]
    ]


@pytest.fixture
def tracing_guard():
    enabled = tracing.is_enabled()
    yield
    tracing.set_enabled(enabled)
    tracing.take_trace()


def test_movielens_sizes_take_the_pass(tracing_guard):
    problem = generate_movielens(
        MovieLensConfig(n_users=24, n_movies=20, seed=2)
    ).problem()
    fallbacks = _fallbacks_per_step(
        problem, SummarizationConfig(max_steps=6, seed=2)
    )
    assert len(fallbacks) == 6
    assert fallbacks == [0] * 6


def test_guarded_sizes_fall_back_to_the_reference(tracing_guard):
    problem = random_problem(5, MAX, with_guards=True)
    fallbacks = _fallbacks_per_step(
        problem, SummarizationConfig(max_steps=4, seed=5)
    )
    assert fallbacks and sum(fallbacks) > 0
