"""Shared fixtures: small hand-built provenance instances.

``thesis_movies`` reproduces the running example of the thesis
(Examples 2.2.1 / 3.1.1 / 4.2.3): three users reviewing "Match Point",
one of whom also reviews "Blue Jasmine", with MAX aggregation.

``full_rank`` forces the full measure-and-rank scoring path, the
oracle the default lazy-greedy selection is compared against.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.core import (
    DomainCombiners,
    DomainConstraints,
    EuclideanDistance,
    ScoringEngine,
    SharedAttribute,
    SummarizationProblem,
)
from repro.provenance import (
    MAX,
    Annotation,
    AnnotationUniverse,
    CancelSingleAnnotation,
    TensorSum,
    Term,
)


@pytest.fixture
def thesis_universe() -> AnnotationUniverse:
    """U1/U2/U3 with the attributes of Example 3.1.1 (U1, U2 female;
    U1, U3 audience) plus the two movies."""
    universe = AnnotationUniverse()
    universe.register(
        Annotation("U1", "user", {"gender": "F", "role": "audience"})
    )
    universe.register(
        Annotation("U2", "user", {"gender": "F", "role": "critic"})
    )
    universe.register(
        Annotation("U3", "user", {"gender": "M", "role": "audience"})
    )
    universe.register(Annotation("MatchPoint", "movie", {"genre": "drama"}))
    universe.register(Annotation("BlueJasmine", "movie", {"genre": "drama"}))
    return universe


@pytest.fixture
def match_point(thesis_universe) -> TensorSum:
    """P_s = U1 ⊗ (3,1) ⊕ U2 ⊗ (5,1) ⊕ U3 ⊗ (3,1) (Example 3.1.1)."""
    return TensorSum(
        [
            Term(("U1",), 3.0, group="MatchPoint"),
            Term(("U2",), 5.0, group="MatchPoint"),
            Term(("U3",), 3.0, group="MatchPoint"),
        ],
        MAX,
    )


@pytest.fixture
def thesis_movies(thesis_universe) -> TensorSum:
    """P_0 = P_MP ⊕_M P_BJ of Example 4.2.3."""
    return TensorSum(
        [
            Term(("U1",), 3.0, group="MatchPoint"),
            Term(("U2",), 5.0, group="MatchPoint"),
            Term(("U3",), 3.0, group="MatchPoint"),
            Term(("U2",), 4.0, group="BlueJasmine"),
        ],
        MAX,
    )


@pytest.fixture
def thesis_problem(thesis_universe, thesis_movies) -> SummarizationProblem:
    return SummarizationProblem(
        expression=thesis_movies,
        universe=thesis_universe,
        valuations=CancelSingleAnnotation(thesis_universe, domains=("user",)),
        val_func=EuclideanDistance(MAX),
        combiners=DomainCombiners(),
        constraint=DomainConstraints(
            {"user": SharedAttribute(("gender", "role"))}
        ),
        description="thesis running example",
    )


@pytest.fixture
def full_rank():
    """A context manager under which every :class:`ScoringEngine`
    reports ``lazy`` False: greedy runs measure every candidate of a
    step through :meth:`ScoringEngine.measure` and rank them in full.

    Usable inside forked workers too (the patch is applied wherever the
    ``with`` block runs)."""

    @contextlib.contextmanager
    def forced():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ScoringEngine, "lazy", property(lambda self: False))
            yield

    return forced
