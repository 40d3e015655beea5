"""The original's column build equals per-valuation evaluation, bit for bit.

:meth:`DistanceComputer.original_columns` replaces one
``TensorSum.evaluate`` per valuation with a single pass over truth and
dead rows.  Every entry must equal ``evaluate(false_set)[group]
.finalized_value()`` to the last bit -- non-integer SUM values make the
fold's association visible -- and the normalization bound read from the
same all-true values must equal ``val_func.max_error``.
"""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DistanceComputer, DomainCombiners
from repro.core.val_funcs import AbsoluteDifference, Disagreement, EuclideanDistance
from repro.provenance import (
    COUNT,
    MAX,
    SUM,
    AnnotationUniverse,
    ExplicitValuations,
    Guard,
    TensorSum,
    Term,
    Valuation,
)

_NAMES = [f"a{i}" for i in range(6)]
_GROUPS = [None, "g0", "g1", "g2"]
#: Non-integer values whose sums depend on association order.
_VALUES = [0.0, 0.1, 0.2, 0.3, 1.7, 2.5, 1e-3, 1e16, 3.0]


@st.composite
def guards(draw):
    # Values and thresholds cover every regime: holds with its
    # annotations true and/or false, including guards that fail when
    # everything is true.
    return Guard(
        tuple(
            sorted(
                draw(st.lists(st.sampled_from(_NAMES), max_size=2, unique=True))
            )
        ),
        draw(st.sampled_from([0.0, 3.0, 5.0])),
        draw(st.sampled_from([">", ">=", "<", "<=", "==", "!="])),
        draw(st.sampled_from([-1.0, 0.0, 2.0, 5.0])),
    )


@st.composite
def instances(draw):
    monoid = draw(st.sampled_from([MAX, SUM, COUNT]))
    terms = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        terms.append(
            Term(
                tuple(
                    sorted(
                        draw(
                            st.lists(
                                st.sampled_from(_NAMES), min_size=1, max_size=3
                            )
                        )
                    )
                ),
                draw(st.sampled_from(_VALUES)),
                count=draw(st.integers(min_value=0, max_value=3)),
                group=draw(st.sampled_from(_GROUPS)),
                guards=tuple(draw(st.lists(guards(), max_size=2))),
            )
        )
    expression = TensorSum(terms, monoid)
    # The all-true and the all-false valuation are always members:
    # under the latter every group is empty.
    false_sets = [(), tuple(_NAMES)] + draw(
        st.lists(
            st.lists(st.sampled_from(_NAMES), unique=True), min_size=1, max_size=8
        )
    )
    valuations = [
        Valuation({name: 0.0 for name in false_set}, weight=1.0 + index)
        for index, false_set in enumerate(false_sets)
    ]
    return expression, valuations


def _computer(expression, valuations, val_func=None):
    return DistanceComputer(
        expression,
        ExplicitValuations(valuations),
        val_func or EuclideanDistance(expression.monoid),
        DomainCombiners(),
        AnnotationUniverse(),
    )


def _assert_columns(expression, valuations, columns):
    expected = {}
    for valuation in valuations:
        result = expression.evaluate(valuation.false_set())
        assert list(result) == list(columns), "group order"
        for group, aggregate in result.items():
            expected.setdefault(group, []).append(aggregate.finalized_value())
    for group, values in expected.items():
        assert columns[group].tobytes() == array("d", values).tobytes(), group


@pytest.mark.parametrize("monoid", [MAX, SUM, COUNT])
@pytest.mark.parametrize(
    "guard",
    [
        Guard(("a0",), 5.0, ">", 2.0),  # holds only while a0 is true
        Guard(("a0",), 5.0, "<", 2.0),  # fails with everything true
        Guard(("a0",), 5.0, ">=", 0.0),  # always holds
        Guard(("a0",), 5.0, "<", -1.0),  # never holds
    ],
)
def test_every_guard_regime_in_a_group_of_its_own(monoid, guard):
    """One guarded term per group: its column moves exactly where the
    term's aliveness differs from the all-true case, in both
    directions."""
    expression = TensorSum(
        [
            Term(("a1",), 2.5, count=2, group="g", guards=(guard,)),
            Term(("a2",), 0.1, group="h"),
        ],
        monoid,
    )
    valuations = [
        Valuation({}),
        Valuation({"a0": 0.0}),
        Valuation({"a1": 0.0}),
        Valuation({"a0": 0.0, "a1": 0.0}),
    ]
    _assert_columns(
        expression, valuations, _computer(expression, valuations).original_columns()
    )


@settings(max_examples=150, deadline=None)
@given(instances())
def test_class_columns_equal_evaluate_bit_for_bit(instance):
    expression, valuations = instance
    computer = _computer(expression, valuations)
    columns = computer.original_columns()
    _assert_columns(expression, valuations, columns)
    assert computer.original_columns() is columns, "built once per computer"


@settings(max_examples=80, deadline=None)
@given(instances(), st.data())
def test_batch_columns_with_repeated_positions(instance, data):
    """A drawn batch repeats members: each repeat is one more position,
    whether it is the same object or an equal copy."""
    expression, valuations = instance
    picks = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(valuations) - 1),
            min_size=1,
            max_size=70,
        )
    )
    batch = [valuations[pick] for pick in picks]
    batch.append(Valuation(dict(batch[0].assignment)))
    columns = _computer(expression, valuations).original_columns(batch)
    _assert_columns(expression, batch, columns)


@settings(max_examples=80, deadline=None)
@given(instances())
def test_max_error_equals_the_val_func_bound(instance):
    expression, valuations = instance
    for val_func_cls in (EuclideanDistance, AbsoluteDifference, Disagreement):
        val_func = val_func_cls(expression.monoid)
        computer = _computer(expression, valuations, val_func)
        expected = float(val_func.max_error(expression))
        assert array("d", [computer.max_error]).tobytes() == array(
            "d", [expected]
        ).tobytes(), val_func.name
