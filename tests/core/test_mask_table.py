"""Property proof: packed ``MaskTable`` construction ≡ the seed bigint masks.

The seed scorers built per-annotation false masks as unbounded python
ints (``mask |= 1 << index`` per falsifying valuation).  The packed
representation scatters the same false sets into ``array('Q')`` word
rows via the kernel's :meth:`scatter_false_sets` instead.  This suite
replays the *old* bigint loop inline against live scorers and asserts
the word rows encode exactly the same bit sets, across

* ragged tails (``n_vals`` far from a multiple of 64),
* duplicated sampled draws (sampling with replacement repeats batch
  members, whose positions scatter as one multi-position entry),
* guard masks and candidate merge overrides layered on the table.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DistanceComputer, MappingState, SampledStepScorer, kernels
from repro.core import enumerate_candidates
from repro.core.fast_distance import FastStepScorer

from .test_sampled_scoring import (
    MONOIDS,
    apply_first,
    random_problem,
    sampling_computer,
)

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


# -- the seed construction, replayed ------------------------------------------------


def bigint_masks(scorer):
    """The pre-packing construction: ``mask[name] |= 1 << index``.

    A faithful inline replay of the seed ``_build_masks`` loop over the
    scorer's own valuation sequence, keyed on annotation names.
    """
    combiners = scorer.computer.combiners
    masks = {name: 0 for name in scorer.current.annotation_names()}
    for index, valuation in enumerate(scorer.valuations):
        bit = 1 << index
        for name in combiners.lifted_false_set(
            valuation, scorer.mapping, scorer.universe
        ):
            if name in masks:
                masks[name] |= bit
    return masks


#: The seed's comparison table, kept here so the replay does not read
#: the guard semantics it checks.
_COMPARE = {
    ">": lambda left, threshold: left > threshold,
    ">=": lambda left, threshold: left >= threshold,
    "<": lambda left, threshold: left < threshold,
    "<=": lambda left, threshold: left <= threshold,
    "==": lambda left, threshold: left == threshold,
    "!=": lambda left, threshold: left != threshold,
}


def bigint_guard_mask(scorer, guard_token, guard_keys, masks, overrides=None):
    """The seed ``_guard_mask`` on bigints."""
    compare = _COMPARE[guard_token.op]
    sat_alive = compare(guard_token.value, guard_token.threshold)
    sat_dead = compare(0.0, guard_token.threshold)
    if sat_alive and sat_dead:
        return 0
    full = (1 << scorer.n_vals) - 1
    if not sat_alive and not sat_dead:
        return full
    union = 0
    for mask_key in guard_keys:
        mask = overrides.get(mask_key) if overrides is not None else None
        if mask is None:
            mask = masks.get(mask_key)
        if mask is not None:
            union |= mask
    return union if sat_alive else full & ~union


def bigint_term_dead(scorer, index, masks, overrides=None):
    """The seed ``_term_mask`` on bigints (annotations OR guards)."""
    dead = 0
    for mask_key in scorer._term_names[index]:
        mask = overrides.get(mask_key) if overrides is not None else None
        dead |= masks[mask_key] if mask is None else mask
    for guard_token in scorer._terms[index].guards:
        dead |= bigint_guard_mask(
            scorer, guard_token, guard_token.annotations, masks, overrides
        )
    return dead


def dead_rows(scorer):
    """Every term's dead row: views of the scorer's dead-row table."""
    return kernels.MaskTable(len(scorer._terms), scorer.n_vals, scorer._dead).rows()


def assert_rows_match_bigints(scorer):
    """Every packed row encodes the seed bigint bit set, tail-clamped."""
    expected = bigint_masks(scorer)
    assert set(scorer._mask) == set(expected)
    for mask_key, row in scorer._mask.items():
        value = kernels.row_int(row)
        assert value == expected[mask_key], mask_key
        # Tail-clamp invariant: no bits at or above n_vals.
        assert value < (1 << max(scorer.n_vals, 1))
    return expected


# -- enumerated scorer: ragged tails x guards --------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    monoid_name=st.sampled_from(sorted(MONOIDS)),
    n_users=st.integers(2, 7),
    with_guards=st.booleans(),
)
def test_enumerated_masks_match_bigint_construction(
    seed, monoid_name, n_users, with_guards
):
    problem = random_problem(
        seed, MONOIDS[monoid_name], n_users=n_users, with_guards=with_guards
    )
    computer = DistanceComputer(
        problem.expression,
        problem.valuations,
        problem.val_func,
        problem.combiners,
        problem.universe,
    )
    current = problem.expression
    mapping = MappingState(sorted(current.annotation_names()))
    scorer = FastStepScorer(computer, current, mapping, problem.universe)
    masks = assert_rows_match_bigints(scorer)
    # Term dead rows fold the same bigints (guards included).
    for index, row in enumerate(dead_rows(scorer)):
        assert kernels.row_int(row) == bigint_term_dead(scorer, index, masks)


# -- sampled scorer: duplicated draws and ragged batch sizes -----------------------


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    monoid_name=st.sampled_from(sorted(MONOIDS)),
    # Batches well above the valuation-class size force duplicated
    # draws; awkward sizes (65, 127, 129...) exercise ragged tails.
    batch=st.integers(1, 200),
)
def test_sampled_masks_match_bigint_construction(seed, monoid_name, batch):
    problem = random_problem(seed, MONOIDS[monoid_name], n_users=4)
    computer = sampling_computer(problem, seed, batch=batch)
    current = problem.expression
    mapping = MappingState(sorted(current.annotation_names()))
    scorer = SampledStepScorer(computer, current, mapping, problem.universe)
    # Explicit batches are clamped at 16 x |V_Ann| by the computer.
    class_size = len(list(problem.valuations))
    assert scorer.n_vals == max(1, min(batch, 16 * class_size))
    # Sampling with replacement from a small class: assert the batch
    # really contains duplicated members when it plausibly must.
    if scorer.n_vals > class_size:
        assert len({id(v) for v in scorer.valuations}) < scorer.n_vals
    masks = assert_rows_match_bigints(scorer)
    for index, row in enumerate(dead_rows(scorer)):
        assert kernels.row_int(row) == bigint_term_dead(scorer, index, masks)


# -- candidate overrides: merged rows ≡ bigint AND ---------------------------------


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    with_guards=st.booleans(),
)
def test_candidate_override_rows_match_bigint_and(seed, with_guards):
    problem = random_problem(seed, MONOIDS["SUM"], with_guards=with_guards)
    computer = sampling_computer(problem, seed, batch=130)
    current = problem.expression
    mapping = MappingState(sorted(current.annotation_names()))
    scorer = SampledStepScorer(computer, current, mapping, problem.universe)
    masks = bigint_masks(scorer)
    candidates = enumerate_candidates(current, problem.universe, problem.constraint)
    rng = random.Random(seed)
    for candidate in rng.sample(candidates, min(5, len(candidates))):
        part_set, affected, overrides, group_merge = scorer._candidate_state(
            candidate.parts
        )
        # Override row j substitutes term affected[j]'s dead row.
        override_rows = kernels.MaskTable(
            len(affected), scorer.n_vals, overrides
        ).rows()
        parts = candidate.parts
        # The merge's row is the AND of the part rows (OR combiner over
        # 0/1 valuations); replay it on the bigints.
        merged = masks[parts[0]]
        for name in parts[1:]:
            merged &= masks[name]
        big_overrides = {name: merged for name in parts}
        for index, row in zip(affected, override_rows):
            assert kernels.row_int(row) == bigint_term_dead(
                scorer, index, masks, big_overrides
            )


# -- carried masks survive advance() under the new representation ------------------


def test_masks_rebuild_bit_identical_after_advance():
    problem = random_problem(3, MONOIDS["SUM"])
    computer = sampling_computer(problem, 3, batch=96)
    current = problem.expression
    mapping = MappingState(sorted(current.annotation_names()))
    scorer = SampledStepScorer(computer, current, mapping, problem.universe)
    candidates = enumerate_candidates(current, problem.universe, problem.constraint)
    chosen, summary, current, mapping = apply_first(
        problem, current, mapping, candidates
    )
    scorer.advance(chosen.parts, summary.name, current, mapping)
    assert_rows_match_bigints(scorer)
