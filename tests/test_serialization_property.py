"""Property-based serialization round-trips."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import serialization as ser
from repro.core.streaming import ProvenanceDelta
from repro.provenance import (
    Annotation,
    MAX,
    SUM,
    CostTransition,
    DBTransition,
    DDPExpression,
    Execution,
    Guard,
    TensorSum,
    Term,
)
from repro.provenance.valuation import cancel

names = st.sampled_from([f"a{i}" for i in range(6)])


@st.composite
def tensor_sums(draw):
    n_terms = draw(st.integers(min_value=1, max_value=8))
    terms = []
    for _ in range(n_terms):
        monomial = tuple(
            sorted(draw(st.lists(names, min_size=1, max_size=3, unique=True)))
        )
        guards = ()
        if draw(st.booleans()):
            guards = (
                Guard(
                    tuple(sorted(draw(st.lists(names, min_size=1, max_size=2)))),
                    float(draw(st.integers(min_value=0, max_value=9))),
                    draw(st.sampled_from([">", ">=", "<", "<=", "==", "!="])),
                    float(draw(st.integers(min_value=0, max_value=9))),
                ),
            )
        terms.append(
            Term(
                monomial,
                float(draw(st.integers(min_value=0, max_value=9))),
                count=draw(st.integers(min_value=1, max_value=3)),
                group=draw(st.one_of(st.none(), st.sampled_from(["g1", "g2"]))),
                guards=guards,
            )
        )
    return TensorSum(terms, draw(st.sampled_from([MAX, SUM])))


@st.composite
def ddp_expressions(draw):
    n_execs = draw(st.integers(min_value=1, max_value=5))
    executions = []
    for _ in range(n_execs):
        transitions = []
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            if draw(st.booleans()):
                transitions.append(
                    CostTransition(
                        draw(names), float(draw(st.integers(min_value=1, max_value=10)))
                    )
                )
            else:
                transitions.append(
                    DBTransition(
                        tuple(sorted(draw(st.lists(names, min_size=1, max_size=2, unique=True)))),
                        draw(st.sampled_from(["!=", "=="])),
                    )
                )
        executions.append(Execution(transitions))
    return DDPExpression(executions)


@settings(max_examples=40, deadline=None)
@given(expression=tensor_sums(), data=st.data())
def test_tensor_sum_round_trip_preserves_semantics(expression, data):
    restored = ser.expression_from_dict(
        json.loads(ser.dumps(ser.expression_to_dict(expression)))
    )
    assert restored.size() == expression.size()
    assert restored.annotation_names() == expression.annotation_names()
    all_names = sorted(expression.annotation_names())
    cancelled = frozenset(
        data.draw(st.lists(st.sampled_from(all_names), unique=True))
        if all_names
        else []
    )
    assert restored.evaluate(cancelled) == expression.evaluate(cancelled)


# -- streaming deltas and mid-stream arena snapshots ---------------------------


@st.composite
def provenance_deltas(draw):
    annotations = tuple(
        Annotation(f"d{i}", "user", {"g": draw(st.sampled_from("AB"))})
        for i in range(draw(st.integers(min_value=0, max_value=3)))
    )
    terms = tuple(
        Term(
            tuple(sorted(draw(st.lists(names, min_size=1, max_size=3, unique=True)))),
            float(draw(st.integers(min_value=0, max_value=9))),
            count=draw(st.integers(min_value=1, max_value=3)),
            group=draw(st.one_of(st.none(), st.sampled_from(["g1", "g2"]))),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=4)))
    )
    valuations = tuple(
        cancel(
            draw(st.lists(names, unique=True, max_size=3)),
            weight=float(draw(st.integers(min_value=1, max_value=3))),
            label=f"fresh{i}",
        )
        for i in range(draw(st.integers(min_value=0, max_value=2)))
    )
    extend = {
        f"cancel a{i}": tuple(
            sorted(draw(st.lists(names, min_size=1, max_size=2, unique=True)))
        )
        for i in range(draw(st.integers(min_value=0, max_value=2)))
    }
    return ProvenanceDelta(
        annotations=annotations,
        terms=terms,
        valuations=valuations,
        extend_valuations=extend,
    )


@settings(max_examples=40, deadline=None)
@given(delta=provenance_deltas())
def test_delta_round_trip_is_exact(delta):
    restored = ser.delta_from_dict(json.loads(ser.dumps(ser.delta_to_dict(delta))))
    assert restored == delta


@settings(max_examples=40, deadline=None)
@given(expression=ddp_expressions(), data=st.data())
def test_ddp_round_trip_preserves_semantics(expression, data):
    restored = ser.expression_from_dict(
        json.loads(ser.dumps(ser.expression_to_dict(expression)))
    )
    assert restored.size() == expression.size()
    all_names = sorted(expression.annotation_names())
    cancelled = frozenset(
        data.draw(st.lists(st.sampled_from(all_names), unique=True))
        if all_names
        else []
    )
    assert restored.evaluate(cancelled) == expression.evaluate(cancelled)
