"""Differential proof obligations for the bit-packed sampled scorer.

:class:`SampledStepScorer` must be *bit-identical* to the reference
sampler (:meth:`DistanceComputer.sampled`) under a shared seed: both
draw the same valuation sequence from the same RNG and accumulate
``weight x VAL-FUNC`` in flat draw order, so every candidate's
estimate -- value, normalization, sample count, exactness flag --
matches exactly, not approximately.  The suite pins that pairing at
three levels:

* per-candidate, against a fresh reference computer whose RNG replays
  the scorer's batch draw (SUM/MAX/COUNT, guards, group merges);
* per-step through the engine (dispatch paths, lazy-greedy ≡ full
  ranking, pool carry ≡ fresh enumeration, batch pinning across
  ``advance``);
* end-to-end through greedy and beam runs, replaying every recorded
  step distance with a reference computer.

A statistical test closes the loop on Prop 4.1.2 itself: over many
seeded batches the estimates honor the ``(ε, δ)`` guarantee against
the exact enumerated distance.
"""

import random
from array import array

import pytest

from repro.core import (
    AllowAll,
    BeamSummarizer,
    Disagreement,
    DistanceComputer,
    DomainCombiners,
    EuclideanDistance,
    MappingState,
    SampledStepScorer,
    ScoringEngine,
    SummarizationConfig,
    SummarizationProblem,
    Summarizer,
    chebyshev_sample_size,
    enumerate_candidates,
    virtual_summary,
)
from repro.core import distance as distance_module
from repro.core import kernels
from repro.core.engine import _OverlayUniverse
from repro.core.fast_distance import FastStepScorer
from repro.provenance import (
    COUNT,
    MAX,
    SUM,
    Annotation,
    AnnotationUniverse,
    CancelSingleAnnotation,
    ExplicitValuations,
    Guard,
    TensorSum,
    Term,
    Valuation,
)

MONOIDS = {"MAX": MAX, "SUM": SUM, "COUNT": COUNT}


# -- instance generation -----------------------------------------------------------


def random_problem(
    seed,
    monoid,
    val_func_cls=EuclideanDistance,
    n_users=6,
    n_terms=14,
    with_guards=False,
    group_merges=False,
    valuations=None,
):
    """A randomized TensorSum summarization problem over one domain.

    Integer term values keep the weighted sums exact, so bit-identity
    between the scorer and the reference sampler is assertable with
    ``==`` rather than a tolerance.
    """
    rng = random.Random(seed)
    universe = AnnotationUniverse()
    names = [f"U{i}" for i in range(n_users)]
    for name in names:
        universe.register(
            Annotation(name, "user", {"g": rng.choice("AB"), "r": rng.choice("XY")})
        )
    groups = list(names) if group_merges else ["g0", "g1", "g2", None]
    terms = []
    for _ in range(n_terms):
        annotations = tuple(rng.sample(names, rng.choice([1, 1, 2])))
        guards = ()
        if with_guards and rng.random() < 0.4:
            guards = (
                Guard(
                    (rng.choice(names),),
                    rng.choice([1, 5]),
                    rng.choice([">", ">=", "=="]),
                    rng.choice([0, 2]),
                ),
            )
        terms.append(
            Term(
                annotations,
                float(rng.randint(0, 5)),
                group=rng.choice(groups),
                guards=guards,
            )
        )
    expression = TensorSum(terms, monoid)
    if valuations is None:
        valuations = CancelSingleAnnotation(universe, domains=("user",))
    return SummarizationProblem(
        expression=expression,
        universe=universe,
        valuations=valuations,
        val_func=val_func_cls(monoid),
        combiners=DomainCombiners(),
        constraint=AllowAll(),
        description=f"random seed={seed}",
    )


def sampling_computer(problem, seed, batch=None, **kwargs):
    """A computer forced onto the sampled path (``max_enumerate=0``)."""
    return DistanceComputer(
        problem.expression,
        problem.valuations,
        problem.val_func,
        problem.combiners,
        problem.universe,
        max_enumerate=0,
        n_samples=batch,
        rng=random.Random(seed),
        **kwargs,
    )


def materialized(problem, current, mapping, candidate):
    """The candidate's summary expression, mapping and overlay universe."""
    parts = [problem.universe[name] for name in candidate.parts]
    virtual = virtual_summary(parts, candidate.proposal)
    overlay = _OverlayUniverse(problem.universe, {virtual.name: virtual})
    step = {name: virtual.name for name in candidate.parts}
    return current.apply_mapping(step), mapping.compose(step), overlay


def reference_sampled(problem, current, mapping, candidate, batch, seed):
    """The reference sampler's estimate with a *fresh* RNG at ``seed``.

    The scorer drew its shared batch from a Random(seed) in reference
    draw order, so a fresh reference computer replays the exact same
    valuation sequence.
    """
    computer = sampling_computer(problem, seed, batch=batch)
    expression, composed, overlay = materialized(problem, current, mapping, candidate)
    return expression.size(), computer.sampled(expression, composed, universe=overlay)


BATCH = 96
SEED = 123

KERNEL_AXIS = [
    kernels.MODE_PYTHON,
    pytest.param(
        kernels.MODE_NATIVE,
        marks=pytest.mark.skipif(
            not kernels.native_available(), reason="native backend unavailable"
        ),
    ),
]

needs_native = pytest.mark.skipif(
    not kernels.native_available(), reason="native backend unavailable"
)


@pytest.fixture(params=KERNEL_AXIS)
def kernel(request):
    """Run the test under each kernel backend (python, native)."""
    with kernels.backend(request.param) as resolved:
        assert resolved == request.param
        yield resolved


def step_state(problem):
    current = problem.expression
    mapping = MappingState(sorted(current.annotation_names()))
    candidates = enumerate_candidates(current, problem.universe, problem.constraint)
    assert candidates, "instance must produce candidates"
    return current, mapping, candidates


# -- unit level: scorer ≡ reference sampler, bit for bit ---------------------------


@pytest.mark.parametrize("seed", [0, 7, 42])
@pytest.mark.parametrize("monoid_name", sorted(MONOIDS))
def test_scorer_matches_reference_sampler_bit_identical(monoid_name, seed, kernel):
    problem = random_problem(seed, MONOIDS[monoid_name])
    computer = sampling_computer(problem, SEED, batch=BATCH)
    current, mapping, candidates = step_state(problem)
    scorer = SampledStepScorer(computer, current, mapping, problem.universe)
    assert scorer.batch_size == BATCH
    for candidate in candidates:
        size, estimate = scorer.score(candidate.parts)
        ref_size, reference = reference_sampled(
            problem, current, mapping, candidate, BATCH, SEED
        )
        assert size == ref_size
        assert estimate.value == reference.value, candidate.parts
        assert estimate.normalized == reference.normalized, candidate.parts
        assert estimate.n_valuations == reference.n_valuations == BATCH
        assert not estimate.exact and not reference.exact


@pytest.mark.parametrize("variant", ["guards", "group_merges"], ids=str)
def test_scorer_matches_reference_on_structural_variants(variant):
    problem = random_problem(
        5,
        SUM,
        with_guards=(variant == "guards"),
        group_merges=(variant == "group_merges"),
    )
    computer = sampling_computer(problem, SEED, batch=BATCH)
    current, mapping, candidates = step_state(problem)
    scorer = SampledStepScorer(computer, current, mapping, problem.universe)
    for candidate in candidates:
        size, estimate = scorer.score(candidate.parts)
        ref_size, reference = reference_sampled(
            problem, current, mapping, candidate, BATCH, SEED
        )
        assert size == ref_size
        assert estimate.value == reference.value, (variant, candidate.parts)


# -- applicability gate ------------------------------------------------------------


def test_applicability_requires_unenumerable_class():
    problem = random_problem(1, SUM)
    args = (
        problem.expression,
        problem.val_func,
        problem.combiners,
        problem.valuations,
        problem.universe,
    )
    # Small class, generous budget: the exact kernel owns the step.
    assert not SampledStepScorer.applicable(*args, 512)
    # Enumeration forbidden: the sampled kernel takes over.
    assert SampledStepScorer.applicable(*args, 0)
    assert FastStepScorer.applicable(*args, len(problem.valuations))


# -- engine dispatch ---------------------------------------------------------------


def engine_for(problem, computer, **knobs):
    return ScoringEngine(problem, SummarizationConfig(**knobs), computer)


def test_engine_dispatches_sampled_paths():
    problem = random_problem(2, SUM)
    current, mapping, candidates = step_state(problem)

    engine = engine_for(
        problem,
        sampling_computer(problem, SEED, batch=BATCH),
        max_enumerate=0,
        distance_samples=BATCH,
    )
    engine.measure(candidates, current, mapping)
    assert engine.last_path == ScoringEngine.PATH_SAMPLED_INCREMENTAL
    assert engine.last_sample_batch == BATCH
    assert engine.last_sample_variance >= 0.0

    # Small class: sampling never hijacks the exact kernel.
    engine = engine_for(problem, sampling_computer(problem, SEED, batch=BATCH))
    engine.measure(candidates, current, mapping)
    assert engine.last_path == ScoringEngine.PATH_FAST_INCREMENTAL


def test_engine_sampled_measurements_match_reference():
    problem = random_problem(4, COUNT)
    current, mapping, candidates = step_state(problem)
    engine = engine_for(
        problem,
        sampling_computer(problem, SEED, batch=BATCH),
        max_enumerate=0,
        distance_samples=BATCH,
    )
    measured, _ = engine.measure(candidates, current, mapping)
    for scored, candidate in zip(measured, candidates):
        ref_size, reference = reference_sampled(
            problem, current, mapping, candidate, BATCH, SEED
        )
        assert scored.size == ref_size
        assert scored.distance.value == reference.value


# -- batch pinning across steps ----------------------------------------------------


def apply_first(problem, current, mapping, candidates):
    chosen = candidates[0]
    summary = problem.universe.new_summary(
        [problem.universe[name] for name in chosen.parts],
        label=chosen.proposal.label,
    )
    step_mapping = {name: summary.name for name in chosen.parts}
    return (
        chosen,
        summary,
        current.apply_mapping(step_mapping),
        mapping.compose(step_mapping),
    )


def test_advance_never_redraws_the_batch():
    problem = random_problem(8, SUM)
    computer = sampling_computer(problem, SEED, batch=BATCH)
    current, mapping, candidates = step_state(problem)
    scorer = SampledStepScorer(computer, current, mapping, problem.universe)
    batch = scorer._batch
    rng_state = computer.rng.getstate()
    for candidate in candidates:
        scorer.score(candidate.parts)
    chosen, summary, current, mapping = apply_first(
        problem, current, mapping, candidates
    )
    scorer.advance(chosen.parts, summary.name, current, mapping)
    assert scorer._batch is batch, "advance must keep the pinned batch"
    assert computer.rng.getstate() == rng_state, "no hidden draws"
    survivors = [
        c for c in enumerate_candidates(current, problem.universe, problem.constraint)
    ]
    assert survivors
    scorer.score(survivors[0].parts)
    assert scorer._batch is batch


def test_engine_reuses_carried_batch_and_reports_it():
    problem = random_problem(8, SUM)
    engine = engine_for(
        problem,
        sampling_computer(problem, SEED, batch=BATCH),
        max_enumerate=0,
        distance_samples=BATCH,
    )
    current, mapping, candidates = step_state(problem)
    engine.measure(candidates, current, mapping)
    assert not engine.last_batch_reused, "first step draws the batch"
    first_batch = engine._scorer._batch
    chosen, summary, current, mapping = apply_first(
        problem, current, mapping, candidates
    )
    engine.advance(chosen.parts, summary.name, current, mapping)
    candidates = enumerate_candidates(current, problem.universe, problem.constraint)
    engine.measure(candidates, current, mapping)
    assert engine.last_path == ScoringEngine.PATH_SAMPLED_INCREMENTAL
    assert engine.last_batch_reused
    assert engine._scorer._batch is first_batch


def test_pinned_batch_masks_survive_advance():
    """With the batch pinned, ``advance`` must not re-derive dead masks
    for terms the merge left untouched -- it carries their dead-table
    rows, so the rebuild cost is proportional to the merge, not to the
    whole table."""
    problem = random_problem(8, SUM)
    computer = sampling_computer(problem, SEED, batch=BATCH)
    current, mapping, candidates = step_state(problem)
    scorer = SampledStepScorer(computer, current, mapping, problem.universe)
    first_builds = scorer.mask_builds
    assert first_builds == len(scorer._terms)
    for candidate in candidates:
        scorer.score(candidate.parts)
    assert scorer.mask_builds == first_builds, "scoring must not rebuild masks"
    chosen, summary, current, mapping = apply_first(
        problem, current, mapping, candidates
    )
    scorer.advance(chosen.parts, summary.name, current, mapping)
    assert scorer._batch is not None
    rebuilt = scorer.mask_builds - first_builds
    assert rebuilt < len(scorer._terms), (
        "advance re-derived masks for terms the merge did not rewrite"
    )


def test_sampled_run_bit_identical_across_kernels():
    def run():
        problem = random_problem(6, SUM, n_terms=18)
        return Summarizer(
            problem,
            SummarizationConfig(
                w_dist=0.7,
                max_steps=4,
                seed=0,
                max_enumerate=0,
                distance_samples=BATCH,
            ),
        ).run()

    def fingerprint(result):
        return [
            (
                record.merged,
                record.size_after,
                None
                if record.distance_after is None
                else record.distance_after.value,
            )
            for record in result.steps
        ]

    with kernels.backend(kernels.MODE_PYTHON):
        reference = fingerprint(run())
    if kernels.native_available():
        with kernels.backend(kernels.MODE_NATIVE):
            compiled = fingerprint(run())
        assert compiled == reference


def test_stale_sampled_distances_are_lower_bounds():
    """Prop 4.2.2 over the *pinned* batch: a carried candidate's stale
    estimate never exceeds its fresh re-score -- the invariant the
    lazy queue and the delta carry rely on under sampling."""
    for monoid_name in sorted(MONOIDS):
        problem = random_problem(11, MONOIDS[monoid_name], n_terms=16)
        computer = sampling_computer(problem, SEED, batch=BATCH)
        current, mapping, candidates = step_state(problem)
        scorer = SampledStepScorer(computer, current, mapping, problem.universe)
        stale = {c.parts: scorer.score(c.parts) for c in candidates}
        chosen, summary, current, mapping = apply_first(
            problem, current, mapping, candidates
        )
        scorer.advance(chosen.parts, summary.name, current, mapping)
        merged = set(chosen.parts)
        for candidate in candidates:
            if merged.intersection(candidate.parts):
                continue
            _, old_estimate = stale[candidate.parts]
            _, new_estimate = scorer.score(candidate.parts)
            assert old_estimate.value <= new_estimate.value + 1e-12, (
                monoid_name,
                candidate.parts,
            )


# -- packed word layout ------------------------------------------------------------


def test_packed_views_round_trip_the_masks():
    problem = random_problem(13, MAX)
    computer = sampling_computer(problem, SEED, batch=100)  # not a 64 multiple
    current, mapping, _ = step_state(problem)
    scorer = SampledStepScorer(computer, current, mapping, problem.universe)
    n_words = (scorer.batch_size + 63) // 64
    packed = scorer.packed_masks()
    assert set(packed) == set(scorer._mask)
    for key, words in packed.items():
        assert len(words) == n_words
        assert kernels.row_int(words) == kernels.row_int(scorer._mask[key])
    term_packed = scorer.packed_term_dead()
    assert len(term_packed) == len(scorer._terms)
    dead = scorer._dead
    for index, words in enumerate(term_packed):
        assert len(words) == n_words
        assert words.tobytes() == dead[index * n_words : (index + 1) * n_words].tobytes()
    # The contiguous table is the same bytes, row-major.
    table = scorer.packed_term_dead_table()
    assert table.n_rows == len(scorer._terms)
    assert table.words.tobytes() == b"".join(
        row.tobytes() for row in term_packed
    )


def test_packed_views_memoized_until_advance():
    """Satellite: repeated packed reads within one step must not re-pack;
    ``advance`` invalidates and the next read rebuilds exactly once."""
    problem = random_problem(8, SUM)
    computer = sampling_computer(problem, SEED, batch=BATCH)
    current, mapping, candidates = step_state(problem)
    scorer = SampledStepScorer(computer, current, mapping, problem.universe)
    assert scorer.pack_builds == 0, "packing is lazy"
    first_table = scorer.packed_term_dead_table()
    first_rows = scorer.packed_term_dead()
    first_masks = scorer.packed_masks()
    for _ in range(5):
        assert scorer.packed_term_dead_table() is first_table
        assert scorer.packed_term_dead() is first_rows
        assert scorer.packed_masks() is first_masks
    assert scorer.pack_builds == 1
    chosen, summary, current, mapping = apply_first(
        problem, current, mapping, candidates
    )
    scorer.advance(chosen.parts, summary.name, current, mapping)
    second_table = scorer.packed_term_dead_table()
    assert second_table is not first_table
    assert scorer.packed_term_dead_table() is second_table
    assert scorer.pack_builds == 2
    # The fresh views reflect the post-merge term table.
    assert second_table.n_rows == len(scorer._terms)
    assert second_table.words.tobytes() == scorer._dead.tobytes()


def test_batch_stats_match_flat_weighted_fold():
    problem = random_problem(13, SUM)
    computer = sampling_computer(problem, SEED, batch=BATCH)
    current, mapping, _ = step_state(problem)
    scorer = SampledStepScorer(computer, current, mapping, problem.universe)
    # The baseline (unmerged) distance over the batch is exactly the
    # reference sampler's estimate of the current expression itself.
    reference = sampling_computer(problem, SEED, batch=BATCH)
    estimate = reference.sampled(current, mapping)
    assert scorer.batch_mean == estimate.value
    assert scorer.batch_variance == reference.stats.last_sample_variance
    assert scorer.batch_variance >= 0.0


# -- memoized original evaluations (the per-draw cache) ----------------------------


class CountingExpression:
    """Delegating proxy that counts ``evaluate`` calls."""

    def __init__(self, inner):
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "calls", 0)

    def evaluate(self, false_set):
        object.__setattr__(self, "calls", self.calls + 1)
        return self.inner.evaluate(false_set)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_original_evaluations_memoized_across_calls_and_candidates():
    problem = random_problem(15, SUM)
    counting = CountingExpression(problem.expression)
    computer = DistanceComputer(
        counting,
        problem.valuations,
        problem.val_func,
        problem.combiners,
        problem.universe,
        max_enumerate=0,
        n_samples=64,
        rng=random.Random(SEED),
    )
    current, mapping, candidates = step_state(problem)
    distinct = len(problem.valuations)
    for candidate in candidates[:4]:
        expression, composed, overlay = materialized(
            problem, current, mapping, candidate
        )
        computer.sampled(expression, composed, universe=overlay)
    # 4 candidates x 64 draws, but the cancel-one class has only
    # `distinct` members: the original is evaluated at most once each.
    assert counting.calls <= distinct
    calls_after_reference = counting.calls
    # The shared-batch scorer reads the original's columns, built from
    # truth rows: it evaluates the original under no valuation.
    SampledStepScorer(computer, current, mapping, problem.universe)
    assert counting.calls == calls_after_reference


# -- sampling budget (spread-aware Chebyshev, block rounding, clamps) --------------


class _SpreadValFunc:
    """Stub VAL-FUNC: only ``max_error`` matters for the budget."""

    def __init__(self, spread):
        self._spread = spread

    def max_error(self, expression):
        return self._spread


def _budget_computer(val_func, n_valuations=100, **kwargs):
    universe = AnnotationUniverse()
    valuations = ExplicitValuations(
        [Valuation({f"U{i}": 0.0}) for i in range(n_valuations)]
    )
    return DistanceComputer(
        TensorSum([Term(("U0",), 1.0)], SUM),
        valuations,
        val_func,
        DomainCombiners(),
        universe,
        max_enumerate=0,
        **kwargs,
    )


def test_chebyshev_sample_size_spread_scaling():
    # ceil(spread² / (4·(1-δ)·ε²)), on floats: 1/0.001 lands at 1001.
    assert chebyshev_sample_size(0.05, 0.9) == 1001
    assert chebyshev_sample_size(0.05, 0.9, spread=0.5) == 251
    assert chebyshev_sample_size(0.05, 0.9, spread=1.0) == 1001


def test_sample_budget_pins_explicit_count_verbatim():
    computer = _budget_computer(_SpreadValFunc(1.0), n_samples=5)
    assert computer.sample_budget() == 5  # never block-rounded


def test_sample_budget_threads_val_func_spread(monkeypatch):
    # Worst-case spread: 1001 -> block-64 rounds to 1024.
    assert _budget_computer(_SpreadValFunc(1.0)).sample_budget() == 1024
    # Tighter spread shrinks the budget quadratically: 251 -> 256.
    assert _budget_computer(_SpreadValFunc(0.5)).sample_budget() == 256
    # Spreads above 1.0 are capped (normalized scale), never inflate.
    assert _budget_computer(_SpreadValFunc(3.0)).sample_budget() == 1024
    # Block size 1 keeps the raw Chebyshev bound.
    monkeypatch.setattr(distance_module, "SAMPLE_BLOCK", 1)
    assert _budget_computer(_SpreadValFunc(1.0)).sample_budget() == 1001


def test_sample_budget_clamps_at_enumeration_crossover():
    computer = _budget_computer(_SpreadValFunc(1.0), n_valuations=10)
    assert computer.sample_budget() == 160  # 16 x |V_Ann|


def test_sample_knob_validation():
    """The shared batch is always on: naming the removed switch fails
    loudly, whatever its value."""
    for value in ("sometimes", "off", "on", "auto", False):
        with pytest.raises(TypeError, match="sample_sharing"):
            SummarizationConfig(sample_sharing=value)


# -- statistical guarantee (Prop 4.1.2) --------------------------------------------


def test_sampled_estimates_honor_epsilon_delta():
    """Chebyshev at (ε=0.25, δ=0.8) needs 21 samples; over 40 seeded
    batches at that size the violation rate must stay within (and in
    practice far below) the guaranteed 20%."""
    epsilon, trials, batch = 0.25, 40, chebyshev_sample_size(0.25, 0.8)
    assert batch == 21
    problem = random_problem(21, SUM, val_func_cls=Disagreement, n_users=5)
    current, mapping, candidates = step_state(problem)
    candidate = candidates[0]
    exact_computer = DistanceComputer(
        problem.expression,
        problem.valuations,
        problem.val_func,
        problem.combiners,
        problem.universe,
    )
    expression, composed, overlay = materialized(problem, current, mapping, candidate)
    exact = exact_computer.exact(expression, composed, universe=overlay)
    violations = 0
    for trial in range(trials):
        computer = sampling_computer(problem, 1000 + trial, batch=batch)
        scorer = SampledStepScorer(computer, current, mapping, problem.universe)
        _, estimate = scorer.score(candidate.parts)
        if abs(estimate.normalized - exact.normalized) > epsilon:
            violations += 1
    assert violations <= 0.3 * trials


# -- end-to-end replays ------------------------------------------------------------


def replay_mapping(result):
    """Iterate (step index, composed mapping) along the recorded run."""
    mapping = MappingState(sorted(result.original_expression.annotation_names()))
    if result.equivalence_mapping:
        mapping = mapping.compose(result.equivalence_mapping)
    for index, record in enumerate(result.steps, start=1):
        mapping = mapping.compose(record.step_mapping)
        yield index, record, mapping


def test_greedy_run_replays_against_reference_sampler():
    """Greedy + incremental: one pinned batch serves the whole run, so
    every recorded step distance replays with a *fresh* reference RNG
    at the run seed."""
    run_seed = 11
    problem = random_problem(3, SUM, n_users=8, n_terms=18)
    result = Summarizer(
        problem,
        SummarizationConfig(w_dist=0.7, max_steps=4, seed=run_seed, max_enumerate=0),
    ).run()
    assert result.steps, "run must take steps"
    assert {r.scoring_path for r in result.steps} == {"sampled+incremental"}
    for index, record, mapping in replay_mapping(result):
        reference = DistanceComputer(
            problem.expression,
            problem.valuations,
            problem.val_func,
            problem.combiners,
            problem.universe,
            max_enumerate=0,
            n_samples=record.distance_after.n_valuations,
            rng=random.Random(run_seed),
        )
        estimate = reference.sampled(result.at_step(index), mapping)
        assert record.distance_after.value == estimate.value, index
        assert record.distance_after.normalized == estimate.normalized, index
        assert not record.distance_after.exact


def test_beam_run_replays_against_reference_sampler():
    """Beam never advances the engine, so each step redraws its batch
    from the *continuing* RNG: one shared reference computer replays
    the whole run with sequential sampled() calls."""
    run_seed = 17
    problem = random_problem(3, SUM, n_users=8, n_terms=18)
    result = BeamSummarizer(
        problem,
        SummarizationConfig(w_dist=0.7, max_steps=3, seed=run_seed, max_enumerate=0),
        beam_width=1,
    ).run()
    assert result.steps, "run must take steps"
    batch = result.steps[0].distance_after.n_valuations
    reference = DistanceComputer(
        problem.expression,
        problem.valuations,
        problem.val_func,
        problem.combiners,
        problem.universe,
        max_enumerate=0,
        n_samples=batch,
        rng=random.Random(run_seed),
    )
    for index, record, mapping in replay_mapping(result):
        estimate = reference.sampled(result.at_step(index), mapping)
        assert record.distance_after.value == estimate.value, index
        assert record.distance_after.n_valuations == batch


# -- carry / lazy axes under sampling ----------------------------------------------


def _full_fingerprint(result):
    return {
        "merged": [r.merged for r in result.steps],
        "new_annotations": [r.new_annotation for r in result.steps],
        "sizes": [r.size_after for r in result.steps],
        "step_distances": [
            r.distance_after.value if r.distance_after is not None else None
            for r in result.steps
        ],
        "final_size": result.final_size,
        "final_distance": result.final_distance.value,
        "stop_reason": result.stop_reason,
        "groups": result.summary_groups(),
    }


def _sampled_run(seed, **knobs):
    problem = random_problem(seed, SUM, n_users=8, n_terms=18)
    result = Summarizer(
        problem,
        SummarizationConfig(
            w_dist=0.7, max_steps=5, seed=0, max_enumerate=0, **knobs
        ),
    ).run()
    assert {r.scoring_path for r in result.steps} == {"sampled+incremental"}
    assert result.scoring_fallbacks == 0
    return result


@pytest.mark.parametrize("seed", [3, 9])
def test_sampled_carry_bit_identical(seed, full_rank, monkeypatch):
    """Under full ranking over the pinned batch, the carried candidate
    pool must match a run whose pool re-enumerates every step."""
    from repro.core.pool import CandidatePool

    def broken_maintain(self, merged, new_name, new_expression):
        raise RuntimeError("re-enumerate instead")

    with full_rank():
        on = _full_fingerprint(_sampled_run(seed))
        monkeypatch.setattr(CandidatePool, "_maintain", broken_maintain)
        off = _full_fingerprint(_sampled_run(seed))
    assert on == off


@pytest.mark.parametrize("seed", [3, 9])
def test_sampled_lazy_matches_eager(seed, full_rank):
    """The default lazy-greedy selection over the pinned batch picks the
    eager full ranking's winners, re-scoring fewer candidates."""
    with full_rank():
        eager = _sampled_run(seed)
    lazy = _sampled_run(seed)
    assert _full_fingerprint(lazy) == _full_fingerprint(eager)
    assert sum(r.n_rescored for r in lazy.steps[1:]) < sum(
        r.n_candidates for r in lazy.steps[1:]
    )


def test_sample_sharing_off_still_summarizes(monkeypatch):
    """The reference per-candidate sampler remains a complete fallback:
    with the sampled kernel inapplicable, the same config completes on
    the naive path."""
    monkeypatch.setattr(
        SampledStepScorer, "applicable", staticmethod(lambda *args: False)
    )
    problem = random_problem(3, SUM, n_users=8, n_terms=18)
    result = Summarizer(
        problem,
        SummarizationConfig(
            w_dist=0.7,
            max_steps=3,
            seed=0,
            max_enumerate=0,
            distance_samples=32,
        ),
    ).run()
    assert result.steps
    assert {r.scoring_path for r in result.steps} == {"naive"}
