"""The tensor-sum normal form: congruence, mapping, evaluation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.provenance import MAX, SUM, Guard, TensorSum, Term


class TestConstruction:
    def test_congruent_terms_merge(self, match_point):
        mapped = match_point.apply_mapping({"U1": "Female", "U2": "Female"})
        # Example 3.1.1: Female ⊗ (5,2) ⊕ U3 ⊗ (3,1)
        assert len(mapped) == 2
        assert mapped.size() == 2
        by_ann = {term.annotations: term for term in mapped.terms}
        female = by_ann[("Female",)]
        assert (female.value, female.count) == (5.0, 2)

    def test_audience_mapping(self, match_point):
        mapped = match_point.apply_mapping({"U1": "Audience", "U3": "Audience"})
        by_ann = {term.annotations: term for term in mapped.terms}
        audience = by_ann[("Audience",)]
        assert (audience.value, audience.count) == (3.0, 2)
        assert by_ann[("U2",)].value == 5.0

    def test_size_counts_guard_annotations(self):
        term = Term(
            ("U1",),
            3.0,
            group="MP",
            guards=(Guard(("S1", "U1"), 5, ">", 2),),
        )
        assert TensorSum([term], MAX).size() == 3

    def test_groups_order(self, thesis_movies):
        assert thesis_movies.groups() == ("MatchPoint", "BlueJasmine")


class TestGuards:
    def test_guard_semantics(self):
        guard = Guard(("S1",), 5, ">", 2)
        assert guard.satisfied(frozenset())
        assert not guard.satisfied(frozenset({"S1"}))
        equality = Guard(("D1", "D2"), 1, "==", 0)
        assert not equality.satisfied(frozenset())
        assert equality.satisfied(frozenset({"D1"}))

    def test_invalid_guard_operator(self):
        with pytest.raises(ValueError, match="unsupported guard operator"):
            Guard(("a",), 1, "<>", 0)

    def test_statically_false_guard_blocks_term(self):
        term = Term(("U",), 4.0, group="g", guards=(Guard(("S",), 1, ">", 2),))
        expression = TensorSum([term], MAX)
        assert expression.full_vector()["g"].count == 0


class TestEvaluation:
    def test_cancel_annotation(self, thesis_movies):
        vector = thesis_movies.evaluate(frozenset({"U2"}))
        assert vector["MatchPoint"].finalized_value() == 3.0
        assert vector["BlueJasmine"].finalized_value() == 0.0

    def test_cache_unaffected_groups(self, thesis_movies):
        thesis_movies.full_vector()  # prime caches
        vector = thesis_movies.evaluate(frozenset({"U1"}))
        assert vector["BlueJasmine"].finalized_value() == 4.0

    def test_irrelevant_cancellations_return_full(self, thesis_movies):
        full = thesis_movies.full_vector()
        assert thesis_movies.evaluate(frozenset({"nobody"})) == full

    def test_scan_equals_masked_eval(self, thesis_movies):
        names = sorted(thesis_movies.annotation_names())
        for mask in range(2 ** len(names)):
            cancelled = frozenset(
                name for bit, name in enumerate(names) if mask >> bit & 1
            )
            masked = thesis_movies.evaluate(cancelled)
            scanned = thesis_movies.evaluate_scan(
                {name: name not in cancelled for name in names}
            )
            assert masked == scanned, cancelled


@st.composite
def random_tensor_sums(draw):
    n_terms = draw(st.integers(min_value=1, max_value=12))
    names = [f"a{i}" for i in range(6)]
    groups = ["g1", "g2", "g3"]
    terms = []
    for _ in range(n_terms):
        monomial = tuple(
            sorted(
                draw(
                    st.lists(
                        st.sampled_from(names), min_size=1, max_size=3, unique=True
                    )
                )
            )
        )
        terms.append(
            Term(
                monomial,
                float(draw(st.integers(min_value=0, max_value=9))),
                count=1,
                group=draw(st.sampled_from(groups)),
            )
        )
    monoid = draw(st.sampled_from([MAX, SUM]))
    return TensorSum(terms, monoid)


@settings(max_examples=60, deadline=None)
@given(expression=random_tensor_sums(), data=st.data())
def test_property_evaluate_equals_scan(expression, data):
    names = sorted(expression.annotation_names())
    cancelled = frozenset(
        data.draw(st.lists(st.sampled_from(names), unique=True, max_size=len(names)))
        if names
        else []
    )
    masked = expression.evaluate(cancelled)
    scanned = expression.evaluate_scan(
        {name: name not in cancelled for name in names}
    )
    assert masked == scanned


@settings(max_examples=60, deadline=None)
@given(expression=random_tensor_sums(), data=st.data())
def test_property_mapping_is_homomorphic_for_evaluation(expression, data):
    """Merging annotations then cancelling the merged name equals
    cancelling all members before merging (the φ = OR semantics)."""
    names = sorted(expression.annotation_names())
    if len(names) < 2:
        return
    pair = data.draw(st.permutations(names)).__iter__()
    first, second = next(pair), next(pair)
    mapped = expression.apply_mapping({first: "merged", second: "merged"})
    both_cancelled = expression.evaluate(frozenset({first, second}))
    merged_cancelled = mapped.evaluate(frozenset({"merged"}))

    def finalized(vector):
        return {key: value.finalized_value() for key, value in vector.items()}

    assert finalized(both_cancelled) == finalized(merged_cancelled)


@settings(max_examples=60, deadline=None)
@given(expression=random_tensor_sums(), data=st.data())
def test_property_mapping_never_grows_size(expression, data):
    names = sorted(expression.annotation_names())
    if len(names) < 2:
        return
    chosen = data.draw(
        st.lists(st.sampled_from(names), min_size=2, max_size=4, unique=True)
    )
    mapped = expression.apply_mapping({name: "merged" for name in chosen})
    assert mapped.size() <= expression.size()


@st.composite
def raw_tensor_sums(draw):
    """Terms as a caller may build them: names in any order, guards,
    groups that are annotation names, ``None`` or ``""``."""
    names = [f"a{i}" for i in range(5)]
    terms = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        monomial = tuple(
            draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
        )
        guards = tuple(
            Guard(
                tuple(draw(st.lists(st.sampled_from(names), min_size=1, max_size=2))),
                1.0,
                ">",
                0.0,
            )
            for _ in range(draw(st.integers(min_value=0, max_value=1)))
        )
        terms.append(
            Term(
                monomial,
                float(draw(st.integers(min_value=0, max_value=9))),
                group=draw(st.sampled_from(["g1", "a0", "a1", None, ""])),
                guards=guards,
            )
        )
    return TensorSum(terms, draw(st.sampled_from([MAX, SUM])))


@settings(max_examples=100, deadline=None)
@given(expression=raw_tensor_sums(), data=st.data())
def test_property_mapping_equals_renaming_every_term(expression, data):
    """Keeping untouched terms changes nothing: each mapping in a chain
    gives the terms that renaming every term gives, and ``folded`` names
    exactly the source terms that merged into an earlier one."""
    names = [f"a{i}" for i in range(5)]
    current = expression
    for _ in range(3):
        chosen = data.draw(
            st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True)
        )
        target = data.draw(st.sampled_from(names + ["merged"]))
        mapping = {name: target for name in chosen}
        mapped = current.apply_mapping(mapping)
        renamed = [term.rename(mapping) for term in current.terms]
        assert mapped.terms == TensorSum(renamed, current.monoid).terms
        congruence = [(term.annotations, term.guards, term.group) for term in renamed]
        first = {}
        expected = {}
        for index, key in enumerate(congruence):
            if key in first:
                expected[index] = first[key]
            else:
                first[key] = index
        assert mapped.folded == expected
        current = mapped


def test_mapping_keeps_untouched_sorted_terms_and_sorts_the_rest():
    sorted_term = Term(("a", "b"), 1.0, group="g")
    expression = TensorSum([sorted_term, Term(("c",), 2.0, group="g")], SUM)
    mapped = expression.apply_mapping({"c": "m"})
    assert mapped.terms[0] is sorted_term
    assert mapped.terms[1] == Term(("m",), 2.0, group="g")
    # An unsorted term anywhere: every term is rebuilt in sorted form.
    unsorted = TensorSum([Term(("b", "a"), 1.0, group=""), sorted_term], SUM)
    mapped = unsorted.apply_mapping({"z": "m"})
    assert mapped.terms[0] == Term(("a", "b"), 1.0, group=None)
    assert TensorSum([Term(("b", "a"), 1.0)], SUM).folded is None
