"""Hypothesis properties for the streaming-repair building blocks.

Two obligations, each over random instances and random delta splits:

* **Equivalence-partition repair is exact.**  For any valuation set,
  any way of splitting it into a base class plus a delta (false-set
  extensions of existing valuations + appended fresh valuations), the
  incremental :meth:`EquivalencePartition.repair` must bucket
  annotations exactly like a full signature recompute over the final
  class (:func:`equivalence_classes`).  This is the Prop 4.2.1 locality argument run in
  reverse: a signature can only change where the delta flipped truth.

* **Pool-ingest invalidation is sound.**  After
  :meth:`CandidatePool.ingest` maintains a carried candidate list
  across an arbitrary add/remove delta, serving the pool must be
  indistinguishable from a fresh ``enumerate_candidates`` call on the
  post-delta expression: same candidates, same order.  In particular
  no stale entry survives -- every carried candidate whose seed pair
  mentions a removed annotation is dropped, and every ``arity > 2``
  chain a new annotation would join is re-proposed (checked here
  structurally, not just by count).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AllowAll, enumerate_candidates
from repro.core.equivalence import EquivalencePartition, equivalence_classes
from repro.core.pool import CandidatePool
from repro.provenance import (
    SUM,
    Annotation,
    AnnotationUniverse,
    TensorSum,
    Term,
)
from repro.provenance.valuation import cancel

NAMES = tuple(f"a{i}" for i in range(6))


@st.composite
def valuation_deltas(draw):
    """(base valuations, final valuations, flipped map).

    The base class is a prefix of the final class with some false sets
    extended -- exactly the shape ``extend_valuations`` produces.
    """
    n_base = draw(st.integers(min_value=1, max_value=5))
    base = []
    for index in range(n_base):
        false = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=4))
        base.append(cancel(false, label=f"v{index}"))

    final = []
    flipped = {}
    for valuation in base:
        extra = draw(
            st.lists(
                st.sampled_from(NAMES).filter(
                    lambda n, v=valuation: n not in v.false_set()
                ),
                unique=True,
                max_size=3,
            )
        )
        if extra:
            final.append(valuation.cancelling(extra))
            flipped[str(valuation)] = tuple(sorted(extra))
        else:
            final.append(valuation)
    n_fresh = draw(st.integers(min_value=0, max_value=3))
    for index in range(n_fresh):
        false = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=4))
        final.append(cancel(false, label=f"fresh{index}"))
    return base, final, flipped


@settings(max_examples=60, deadline=None)
@given(data=valuation_deltas())
def test_partition_repair_matches_full_recompute(data):
    base, final, flipped = data
    names = list(NAMES)
    full = EquivalencePartition.build(names, final)
    previous = EquivalencePartition.build(names, base)
    repaired = previous.repair(names, final, flipped)
    assert repaired.signatures == full.signatures
    assert repaired.classes(names) == full.classes(names)
    assert repaired.classes(names) == equivalence_classes(names, final)


@settings(max_examples=60, deadline=None)
@given(data=valuation_deltas())
def test_repair_falls_back_when_prefix_invariant_breaks(data):
    """Relabeled old valuations violate the label-prefix invariant, so
    repair must fall back to a full rebuild (never trust stale bits)."""
    base, final, flipped = data
    names = list(NAMES)
    previous = EquivalencePartition.build(names, base)
    relabeled = [
        type(v)(v.assignment, v.default, v.weight, f"renamed {v.label}")
        for v in final
    ]
    repaired = previous.repair(names, relabeled, flipped)
    assert repaired.signatures == EquivalencePartition.build(names, relabeled).signatures


@settings(max_examples=60, deadline=None)
@given(data=valuation_deltas())
def test_repair_tolerates_overapproximate_flip_map(data):
    """A flip map may name untouched annotations or unknown labels (an
    over-approximation is always sound); the repair must stay exact."""
    base, final, flipped = data
    names = list(NAMES)
    noisy = dict(flipped)
    for label in list(noisy) + ["no such valuation"]:
        noisy[label] = tuple(NAMES)
    previous = EquivalencePartition.build(names, base)
    repaired = previous.repair(names, final, noisy)
    assert repaired.signatures == EquivalencePartition.build(names, final).signatures


# -- pool ingest ---------------------------------------------------------------


def build_pool_instance(seed, n_users=8, n_terms=14):
    rng = random.Random(seed)
    universe = AnnotationUniverse()
    names = []
    for index in range(n_users):
        name = f"u{index}"
        names.append(name)
        universe.register(
            Annotation(name, "user", {"g": rng.choice("AB"), "r": rng.choice("XY")})
        )
    terms = [
        Term(
            tuple(rng.sample(names, rng.choice([1, 1, 2]))),
            float(rng.randint(0, 5)),
            group=rng.choice(["g0", "g1", None]),
        )
        for _ in range(n_terms)
    ]
    return universe, names, TensorSum(terms, SUM)


def apply_streaming_delta(universe, expression, rng, n_add, n_remove):
    """A post-delta expression: drop every term mentioning ``n_remove``
    existing annotations, add terms over ``n_add`` fresh ones."""
    present = sorted(expression.annotation_names())
    removed = rng.sample(present, min(n_remove, max(len(present) - 2, 0)))
    kept = [
        term
        for term in expression.terms
        if not set(term.annotations).intersection(removed)
    ]
    fresh = []
    for index in range(n_add):
        name = f"w{index}"
        if name not in universe:
            universe.register(
                Annotation(
                    name, "user", {"g": rng.choice("AB"), "r": rng.choice("XY")}
                )
            )
        fresh.append(name)
    survivors = sorted(expression.annotation_names().difference(removed))
    new_terms = list(kept)
    for name in fresh:
        partner = rng.choice(survivors) if survivors else name
        new_terms.append(
            Term((name, partner) if partner != name else (name,), 1.0, group="g0")
        )
    if not new_terms:
        new_terms = [Term((fresh[0],), 1.0)] if fresh else list(expression.terms)
    return TensorSum(new_terms, expression.monoid), frozenset(removed)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    arity=st.sampled_from([2, 3]),
    n_add=st.integers(min_value=0, max_value=3),
    n_remove=st.integers(min_value=0, max_value=3),
)
def test_pool_ingest_matches_fresh_enumeration(seed, arity, n_add, n_remove):
    universe, _, expression = build_pool_instance(seed)
    rng = random.Random(seed ^ 0xBEEF)
    pool = CandidatePool(universe, AllowAll(), arity=arity)
    step0 = pool.candidates(expression)
    carried = list(step0)
    if carried:
        # A run's greedy steps advance a fork: the carried step-0 pool
        # is left as it was.
        parts = carried[0].parts
        summary = universe.new_summary([universe[name] for name in parts])
        step = {name: summary.name for name in parts}
        pool.child(parts, summary.name, expression.apply_mapping(step))

    new_expression, removed = apply_streaming_delta(
        universe, expression, rng, n_add, n_remove
    )
    invalidated = pool.ingest(new_expression)

    stale = [c for c in carried if removed.intersection(c.parts)]
    assert invalidated >= len(stale)
    assert pool.fallbacks == 0, "ingest invalidated instead of maintaining"

    served = pool.candidates(new_expression)
    # Soundness: no candidate whose parts mention a removed annotation
    # survives into the maintained list.
    assert not any(removed.intersection(candidate.parts) for candidate in served)
    fresh = enumerate_candidates(new_expression, universe, AllowAll(), arity=arity)
    assert [(c.parts, c.proposal.label) for c in served] == [
        (c.parts, c.proposal.label) for c in fresh
    ]
    assert pool.maintained_steps == 1 and pool.rebuilt_steps == 1
    if arity == 2:
        # The reported change turns the step-0 set into the served one.
        assert served.base == (pool, step0.version)
        kept = {candidate.parts: candidate for candidate in carried}
        for parts in served.removed:
            del kept[parts]
        for candidate in served.added:
            assert candidate.parts not in kept
            kept[candidate.parts] = candidate
        assert sorted(kept.items()) == sorted((c.parts, c) for c in served)


def test_pool_ingest_on_cold_pool_is_a_noop():
    universe, _, expression = build_pool_instance(3)
    pool = CandidatePool(universe, AllowAll())
    assert pool.ingest(expression) == 0
    assert pool.size() == 0 and pool.fallbacks == 0
