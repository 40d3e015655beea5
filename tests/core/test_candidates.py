"""CandidateHom enumeration."""

import pytest

from repro.core import (
    DomainConstraints,
    MergeProposal,
    SharedAttribute,
    enumerate_candidates,
    virtual_summary,
)
from repro.provenance import MAX, Annotation, AnnotationUniverse, TensorSum, Term


@pytest.fixture
def setting():
    universe = AnnotationUniverse()
    users = [
        ("U1", {"gender": "F", "age": "a"}),
        ("U2", {"gender": "F", "age": "b"}),
        ("U3", {"gender": "M", "age": "a"}),
        ("U4", {"gender": "M", "age": "b"}),
    ]
    for name, attributes in users:
        universe.register(Annotation(name, "user", attributes))
    universe.register(Annotation("M1", "movie", {"genre": "g"}))
    expression = TensorSum(
        [Term((name, "M1"), 3.0, group="M1") for name, _ in users], MAX
    )
    constraint = DomainConstraints({"user": SharedAttribute(("gender", "age"))})
    return universe, expression, constraint


def test_pairs_respect_constraints(setting):
    universe, expression, constraint = setting
    candidates = enumerate_candidates(expression, universe, constraint)
    pairs = {frozenset(candidate.parts) for candidate in candidates}
    assert pairs == {
        frozenset({"U1", "U2"}),  # gender=F
        frozenset({"U3", "U4"}),  # gender=M
        frozenset({"U1", "U3"}),  # age=a
        frozenset({"U2", "U4"}),  # age=b
    }


def test_only_present_annotations_considered(setting):
    universe, expression, constraint = setting
    universe.register(Annotation("U9", "user", {"gender": "F", "age": "a"}))
    candidates = enumerate_candidates(expression, universe, constraint)
    assert all("U9" not in candidate.parts for candidate in candidates)


def test_arity_three_extends_greedily(setting):
    universe, expression, constraint = setting
    candidates = enumerate_candidates(expression, universe, constraint, arity=3)
    # No three users share an attribute value here, so groups stay pairs.
    assert all(len(candidate.parts) == 2 for candidate in candidates)
    universe.register(Annotation("U5", "user", {"gender": "F", "age": "c"}))
    expression = TensorSum(
        list(expression.terms) + [Term(("M1", "U5"), 2.0, group="M1")],
        MAX,
    )
    candidates = enumerate_candidates(expression, universe, constraint, arity=3)
    triples = [candidate for candidate in candidates if len(candidate.parts) == 3]
    assert any(set(t.parts) == {"U1", "U2", "U5"} for t in triples)  # all F


def test_arity_validation(setting):
    universe, expression, constraint = setting
    with pytest.raises(ValueError, match="at least 2"):
        enumerate_candidates(expression, universe, constraint, arity=1)


def test_virtual_summary_contents():
    first = Annotation("U1", "user", {"gender": "F", "age": "a"})
    second = Annotation("U2", "user", {"gender": "F", "age": "b"})
    virtual = virtual_summary([first, second], MergeProposal("Gender=F"))
    assert virtual.base_members() == frozenset({"U1", "U2"})
    assert dict(virtual.attributes) == {"gender": "F"}
    assert virtual.domain == "user"
    assert virtual.name.endswith("?cand")
