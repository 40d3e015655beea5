"""Differential proof obligations for the scoring engine.

The naive reference (:class:`DistanceComputer` on each materialized
candidate) is the oracle.  The :class:`FastStepScorer`, the sparse
:class:`IncrementalStepScorer` and the engine driving them must agree
with it on every candidate of a step, and the engine's lazy-greedy
winner must be the naive full ranking's -- over randomized instances
(explicit RNG grid), SUM/MAX/COUNT aggregations, the OR combiner, and
the degenerate corners (one candidate, one valuation, all-false
annotations, empty groups).

Sizes must match as exact integers; distances to within 1e-12 (the
tolerance the seed's fast-path suite already uses -- dense and sparse
summation differ only in fold order).  The engine must run the *same*
scorer bit-for-bit, report the expected scoring path and never fall
back to the naive path.  The ``parallel`` rows of the run-level grids
repeat those runs side by side in forked worker processes, as the
sharded serving tier runs sessions, and must reproduce them exactly.
"""

import multiprocessing
import random
import traceback

import pytest

from repro.core import (
    AbsoluteDifference,
    AllowAll,
    BeamSummarizer,
    Disagreement,
    DistanceComputer,
    DomainCombiners,
    EuclideanDistance,
    MappingState,
    ScoringEngine,
    SummarizationConfig,
    SummarizationProblem,
    Summarizer,
    enumerate_candidates,
    virtual_summary,
)
from repro.provenance import ir as _ir
from repro.core.engine import _OverlayUniverse
from repro.core.fast_distance import FastStepScorer, IncrementalStepScorer
from repro.core.scoring import ScoredCandidate, score_candidates
from repro.datasets import MovieLensConfig, generate_movielens
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

from repro.core import kernels

MONOIDS = {"MAX": MAX, "SUM": SUM, "COUNT": COUNT}

KERNEL_AXIS = [
    kernels.MODE_PYTHON,
    pytest.param(
        kernels.MODE_NUMPY,
        marks=pytest.mark.skipif(
            not kernels.numpy_available(), reason="numpy backend unavailable"
        ),
    ),
    pytest.param(
        kernels.MODE_NATIVE,
        marks=pytest.mark.skipif(
            not kernels.native_available(), reason="native backend unavailable"
        ),
    ),
]


needs_numpy = pytest.mark.skipif(
    not kernels.numpy_available(), reason="numpy backend unavailable"
)

needs_native = pytest.mark.skipif(
    not kernels.native_available(), reason="native backend unavailable"
)


@pytest.fixture(params=KERNEL_AXIS)
def kernel(request):
    """Run the test under each kernel backend (python x numpy x native)."""
    with kernels.backend(request.param) as resolved:
        assert resolved == request.param
        yield resolved


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

    With ``group_merges=True`` the group keys are the annotation names
    themselves, so merging a candidate pair also merges groups -- the
    Wikipedia-style path through the scorers.
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


# -- the four scoring paths --------------------------------------------------------


def make_computer(problem):
    return DistanceComputer(
        problem.expression,
        problem.valuations,
        problem.val_func,
        problem.combiners,
        problem.universe,
    )


def naive_scores(problem, computer, current, mapping, candidates):
    out = []
    for candidate in candidates:
        parts = [problem.universe[name] for name in candidate.parts]
        virtual = virtual_summary(parts, candidate.proposal)
        overlay = _OverlayUniverse(problem.universe, {virtual.name: virtual})
        step = {name: virtual.name for name in candidate.parts}
        expression = current.apply_mapping(step)
        distance = computer.distance(
            expression, mapping.compose(step), universe=overlay
        )
        out.append((expression.size(), distance))
    return out


def engine_scores(problem, computer, current, mapping, candidates, **knobs):
    engine = ScoringEngine(problem, SummarizationConfig(**knobs), computer)
    measured, _ = engine.measure(candidates, current, mapping)
    return engine, [(scored.size, scored.distance) for scored in measured]


def rank(candidates, measurements, original_size):
    """Full normalized ranking (w_dist = 0.5) of ``(size, distance)``
    measurements, best first."""
    return score_candidates(
        [
            ScoredCandidate(
                candidate=candidate,
                expression=None,
                step_mapping={},
                size=size,
                distance=distance,
            )
            for candidate, (size, distance) in zip(candidates, measurements)
        ],
        w_dist=0.5,
        w_size=0.5,
        original_size=original_size,
    )


def assert_clean_run(result, *paths):
    """A grid case's run took exactly ``paths`` and never fell back."""
    assert {record.scoring_path for record in result.steps} == set(paths)
    assert result.scoring_fallbacks == 0


def assert_distances_match(actual, reference, context=""):
    assert len(actual) == len(reference)
    for (size, distance), (ref_size, ref_distance) in zip(actual, reference):
        assert size == ref_size, context
        assert distance.value == pytest.approx(ref_distance.value, abs=1e-12), context
        assert distance.normalized == pytest.approx(
            ref_distance.normalized, abs=1e-12
        ), context


def assert_all_paths_agree(problem):
    """naive ≡ serial fast ≡ incremental ≡ engine, and the lazy winner
    is the naive full ranking's, one step."""
    computer = make_computer(problem)
    current = problem.expression
    mapping = MappingState(sorted(current.annotation_names()))
    candidates = enumerate_candidates(current, problem.universe, problem.constraint)
    assert candidates, "instance must produce candidates"
    assert FastStepScorer.applicable(
        current,
        problem.val_func,
        problem.combiners,
        problem.valuations,
        problem.universe,
        512,
    )
    reference = naive_scores(problem, computer, current, mapping, candidates)

    serial_scorer = FastStepScorer(computer, current, mapping, problem.universe)
    serial = [serial_scorer.score(candidate.parts) for candidate in candidates]
    assert_distances_match(serial, reference, "serial fast vs naive")

    incremental_scorer = IncrementalStepScorer(
        computer, current, mapping, problem.universe
    )
    incremental = [
        incremental_scorer.score(candidate.parts) for candidate in candidates
    ]
    assert_distances_match(incremental, reference, "incremental vs naive")

    # The engine runs the very same scorers, so its measurements must
    # be *bit*-identical to driving them directly, not just close.
    engine, dense = engine_scores(
        problem, computer, current, mapping, candidates, incremental=False
    )
    assert engine.last_path == ScoringEngine.PATH_FAST
    assert engine.fallback_count == 0
    assert dense == serial

    engine, carried = engine_scores(
        problem, computer, current, mapping, candidates
    )
    assert engine.last_path == ScoringEngine.PATH_FAST_INCREMENTAL
    assert engine.fallback_count == 0
    assert carried == incremental

    # Lazy-greedy winner ≡ the naive reference's full ranking.
    original_size = current.size()
    engine = ScoringEngine(problem, SummarizationConfig(), computer)
    assert engine.lazy
    best, _ = engine.measure_lazy(
        candidates, current, mapping, 0.5, 0.5, original_size
    )
    assert engine.last_path == ScoringEngine.PATH_FAST_INCREMENTAL
    assert engine.fallback_count == 0
    naive_ranked = rank(candidates, reference, original_size)
    assert best.score == pytest.approx(naive_ranked[0].score, abs=1e-12)
    # Exact ties may order differently under fold-order dust; the lazy
    # winner must be one of the naive co-winners, and exactly the full
    # ranking's winner over the same (incremental) measurements.
    co_winners = {
        scored.candidate.parts
        for scored in naive_ranked
        if scored.score <= naive_ranked[0].score + 1e-12
    }
    assert best.candidate.parts in co_winners
    full_ranked = rank(candidates, carried, original_size)
    assert best.candidate.parts == full_ranked[0].candidate.parts
    assert (best.size, best.distance.value) == (
        full_ranked[0].size, full_ranked[0].distance.value
    )


# -- the RNG grid ------------------------------------------------------------------


@pytest.mark.parametrize("monoid_name", sorted(MONOIDS))
@pytest.mark.parametrize("seed", [0, 7, 42])
def test_differential_over_rng_grid(monoid_name, seed, kernel):
    assert_all_paths_agree(random_problem(seed, MONOIDS[monoid_name]))


@pytest.mark.parametrize("monoid_name", sorted(MONOIDS))
def test_differential_with_guards(monoid_name):
    assert_all_paths_agree(
        random_problem(11, MONOIDS[monoid_name], with_guards=True)
    )


@pytest.mark.parametrize("monoid_name", sorted(MONOIDS))
def test_differential_with_group_merges(monoid_name):
    assert_all_paths_agree(
        random_problem(23, MONOIDS[monoid_name], group_merges=True)
    )


@pytest.mark.parametrize("val_func_cls", [AbsoluteDifference, Disagreement])
def test_differential_other_val_funcs(val_func_cls):
    assert_all_paths_agree(random_problem(5, MAX, val_func_cls=val_func_cls))
    assert_all_paths_agree(random_problem(5, SUM, val_func_cls=val_func_cls))


# -- degenerate corners ------------------------------------------------------------


def test_single_candidate():
    assert_all_paths_agree(random_problem(3, SUM, n_users=2, n_terms=5))


def test_single_valuation():
    problem = random_problem(
        9,
        MAX,
        valuations=ExplicitValuations(
            [Valuation({"U0": 0.0}, label="cancel U0")]
        ),
    )
    assert_all_paths_agree(problem)


def test_all_false_annotations():
    """A valuation cancelling every annotation empties both vectors."""
    names = {f"U{i}": 0.0 for i in range(6)}
    problem = random_problem(
        13,
        SUM,
        valuations=ExplicitValuations(
            [
                Valuation(dict(names), label="cancel everything"),
                Valuation({}, label="keep everything"),
            ]
        ),
    )
    assert_all_paths_agree(problem)


def test_empty_groups():
    """Groups whose terms all die under a valuation, plus ungrouped terms."""
    universe = AnnotationUniverse()
    for name in ("U0", "U1", "U2"):
        universe.register(Annotation(name, "user", {"g": "A"}))
    expression = TensorSum(
        [
            Term(("U0",), 2.0, group="g0"),
            Term(("U1",), 3.0, group=None),
            Term(("U0", "U1"), 1.0, group="g1"),
        ],
        SUM,
    )
    problem = SummarizationProblem(
        expression=expression,
        universe=universe,
        valuations=CancelSingleAnnotation(universe, domains=("user",)),
        val_func=EuclideanDistance(SUM),
        combiners=DomainCombiners(),
        constraint=AllowAll(),
    )
    assert_all_paths_agree(problem)


def test_group_only_rename_congruence_size_regression():
    """Terms in different groups whose annotations already coincide
    become congruent when their *groups* merge; the fast size used to
    miss this collision because neither term mentions the merged
    annotations (latent seed bug found by the differential grid)."""
    universe = AnnotationUniverse()
    for name in ("U0", "U1", "U2"):
        universe.register(Annotation(name, "user", {"g": "A"}))
    expression = TensorSum(
        [
            Term(("U2",), 2.0, group="U0"),
            Term(("U2",), 3.0, group="U1"),
            Term(("U0",), 1.0, group=None),
            Term(("U1",), 4.0, group=None),
        ],
        SUM,
    )
    problem = SummarizationProblem(
        expression=expression,
        universe=universe,
        valuations=CancelSingleAnnotation(universe, domains=("user",)),
        val_func=EuclideanDistance(SUM),
        combiners=DomainCombiners(),
        constraint=AllowAll(),
    )
    assert_all_paths_agree(problem)


# -- incremental carry across steps ------------------------------------------------


@pytest.mark.parametrize("monoid_name", sorted(MONOIDS))
def test_incremental_across_steps_matches_fresh(monoid_name):
    """After each applied merge the carried scorer must equal a fresh
    scorer and the naive reference on the *next* step's candidates."""
    problem = random_problem(17, MONOIDS[monoid_name], n_users=6, n_terms=16)
    computer = make_computer(problem)
    current = problem.expression
    mapping = MappingState(sorted(current.annotation_names()))
    carried = IncrementalStepScorer(computer, current, mapping, problem.universe)

    for step in range(3):
        candidates = enumerate_candidates(
            current, problem.universe, problem.constraint
        )
        if not candidates:
            break
        reference = naive_scores(problem, computer, current, mapping, candidates)
        scores = [carried.score(candidate.parts) for candidate in candidates]
        assert_distances_match(scores, reference, f"step {step}")
        fresh = FastStepScorer(computer, current, mapping, problem.universe)
        fresh_scores = [fresh.score(candidate.parts) for candidate in candidates]
        assert_distances_match(scores, fresh_scores, f"step {step} vs fresh")

        chosen = candidates[step % len(candidates)]
        summary_parts = [problem.universe[name] for name in chosen.parts]
        summary = problem.universe.new_summary(
            summary_parts,
            label=chosen.proposal.label,
            concept=chosen.proposal.concept,
        )
        step_mapping = {name: summary.name for name in chosen.parts}
        current = current.apply_mapping(step_mapping)
        mapping = mapping.compose(step_mapping)
        carried.advance(chosen.parts, summary.name, current, mapping)
        assert carried.steps_carried == step + 1


def test_incremental_group_merges_across_steps():
    problem = random_problem(29, SUM, group_merges=True, n_terms=18)
    computer = make_computer(problem)
    current = problem.expression
    mapping = MappingState(sorted(current.annotation_names()))
    carried = IncrementalStepScorer(computer, current, mapping, problem.universe)
    for step in range(2):
        candidates = enumerate_candidates(
            current, problem.universe, problem.constraint
        )
        if not candidates:
            break
        reference = naive_scores(problem, computer, current, mapping, candidates)
        scores = [carried.score(candidate.parts) for candidate in candidates]
        assert_distances_match(scores, reference, f"group-merge step {step}")
        chosen = candidates[0]
        summary_parts = [problem.universe[name] for name in chosen.parts]
        summary = problem.universe.new_summary(
            summary_parts, label=chosen.proposal.label
        )
        step_mapping = {name: summary.name for name in chosen.parts}
        current = current.apply_mapping(step_mapping)
        mapping = mapping.compose(step_mapping)
        carried.advance(chosen.parts, summary.name, current, mapping)


# -- end-to-end determinism --------------------------------------------------------


def movielens_problem(seed):
    return generate_movielens(
        MovieLensConfig(n_users=12, n_movies=6, seed=seed)
    ).problem()


@pytest.mark.parametrize("seed", [3, 9])
def test_e2e_determinism_incremental_vs_seed_default(seed):
    """The default (incremental, lazy-greedy) run must replay the
    seed-default (dense scorer, full ranking) run merge for merge on
    the bundled MovieLens sample."""
    config_kwargs = dict(w_dist=0.7, max_steps=6, seed=0)
    baseline = Summarizer(
        movielens_problem(seed),
        SummarizationConfig(incremental="off", **config_kwargs),
    ).run()
    tuned = Summarizer(
        movielens_problem(seed), SummarizationConfig(**config_kwargs)
    ).run()
    assert [r.merged for r in tuned.steps] == [r.merged for r in baseline.steps]
    assert [r.new_annotation for r in tuned.steps] == [
        r.new_annotation for r in baseline.steps
    ]
    assert tuned.final_size == baseline.final_size
    assert tuned.final_distance.value == baseline.final_distance.value
    assert tuned.summary_groups() == baseline.summary_groups()
    assert_clean_run(baseline, "fast")
    assert_clean_run(tuned, "fast+incremental")


# -- the representation axis: legacy ≡ IR ------------------------------------------


def _steps_fingerprint(result):
    """Everything a mode switch could perturb, captured bit-exactly."""
    return {
        "merged": [r.merged for r in result.steps],
        "new_annotations": [r.new_annotation for r in result.steps],
        "sizes": [r.size_after for r in result.steps],
        "final_size": result.final_size,
        "final_distance": result.final_distance.value,
        "final_normalized": result.final_distance.normalized,
        "stop_reason": result.stop_reason,
        "groups": result.summary_groups(),
    }


def _run_in_mode(temporary_mode, runner):
    with _ir.mode(temporary_mode):
        return _steps_fingerprint(runner())


#: The engine row axis: dense scorer + full ranking, the default
#: incremental lazy-greedy path, the same two run side by side in
#: forked worker processes, and the shared-batch sampled kernel.  Each
#: row maps to its config knobs and whether its runs go to workers.
_ENGINE_ROWS = {
    "serial": (dict(incremental="off"), False),
    "incremental": (dict(incremental="on"), False),
    "parallel": (dict(incremental="off"), True),
    "parallel+incremental": (dict(incremental="on"), True),
    "sampled": (dict(incremental="on", max_enumerate=0, distance_samples=64), False),
}
_ENGINE_ROW_IDS = tuple(_ENGINE_ROWS)
#: The one scoring path each row must take on every step.
_ENGINE_PATHS = {
    "serial": "fast",
    "incremental": "fast+incremental",
    "parallel": "fast",
    "parallel+incremental": "fast+incremental",
    "sampled": "sampled+incremental",
}

#: Upper bound on one worker's run; a stuck worker fails the case.
_WORKER_TIMEOUT_S = 120.0


def _worker_main(thunk, sender):
    try:
        sender.send((True, thunk()))
    except BaseException:
        sender.send((False, traceback.format_exc()))
    finally:
        sender.close()


def run_in_workers(*thunks):
    """Run each thunk in its own forked worker process, all at once --
    the way the sharded serving tier (:mod:`repro.prox.workers`) runs
    sessions side by side -- and return their results in order.

    A forked worker inherits the kernel backend and representation mode
    in force here, so its run must reproduce the in-process one bit for
    bit.  A worker that raises or stalls fails the calling test."""
    context = multiprocessing.get_context("fork")
    receivers, workers = [], []
    for thunk in thunks:
        receiver, sender = context.Pipe(duplex=False)
        worker = context.Process(target=_worker_main, args=(thunk, sender))
        worker.start()
        sender.close()
        receivers.append(receiver)
        workers.append(worker)
    try:
        results = []
        for receiver in receivers:
            assert receiver.poll(_WORKER_TIMEOUT_S), "worker produced no result"
            ok, payload = receiver.recv()
            assert ok, f"worker failed:\n{payload}"
            results.append(payload)
        return results
    finally:
        for worker in workers:
            worker.join(timeout=5.0)
            if worker.is_alive():
                worker.terminate()
                worker.join()
        for receiver in receivers:
            receiver.close()


def run_row(row, *thunks):
    """Evaluate ``thunks`` as ``row`` prescribes: in-process one after
    another, or side by side in forked workers."""
    if _ENGINE_ROWS[row][1]:
        return run_in_workers(*thunks)
    return [thunk() for thunk in thunks]


@pytest.mark.parametrize("seed", [3, 9])
@pytest.mark.parametrize("row", _ENGINE_ROW_IDS, ids=_ENGINE_ROW_IDS)
def test_greedy_ir_vs_legacy_bit_identical(seed, row):
    """The IR axis of the differential grid: under every engine row a
    greedy run must be *bit*-identical between the interned and the
    legacy representation -- same merges, same sizes, same exact
    distance floats.  The parallel rows run both modes side by side in
    forked workers."""

    def runner():
        result = Summarizer(
            movielens_problem(seed),
            SummarizationConfig(w_dist=0.7, max_steps=5, seed=0, **_ENGINE_ROWS[row][0]),
        ).run()
        assert_clean_run(result, _ENGINE_PATHS[row])
        return result

    interned, legacy = run_row(
        row,
        lambda: _run_in_mode(_ir.MODE_IR, runner),
        lambda: _run_in_mode(_ir.MODE_LEGACY, runner),
    )
    assert interned == legacy


@pytest.mark.parametrize("monoid_name", sorted(MONOIDS))
def test_random_problems_ir_vs_legacy_bit_identical(monoid_name):
    def runner():
        result = Summarizer(
            random_problem(19, MONOIDS[monoid_name], n_terms=16),
            SummarizationConfig(w_dist=0.6, max_steps=4, seed=0),
        ).run()
        assert_clean_run(result, "fast+incremental")
        return result

    assert _run_in_mode(_ir.MODE_IR, runner) == _run_in_mode(
        _ir.MODE_LEGACY, runner
    )


def test_beam_ir_vs_legacy_bit_identical():
    def runner():
        result = BeamSummarizer(
            movielens_problem(3),
            SummarizationConfig(w_dist=0.7, max_steps=4, seed=0),
            beam_width=2,
        ).run()
        assert_clean_run(result, "fast+incremental")
        return result

    assert _run_in_mode(_ir.MODE_IR, runner) == _run_in_mode(
        _ir.MODE_LEGACY, runner
    )


def test_one_step_scores_ir_vs_legacy_bit_identical():
    """Candidate-level differential: every path's per-candidate scores
    must match exactly across the representation switch."""

    def one_step():
        problem = random_problem(37, SUM, n_terms=16)
        computer = make_computer(problem)
        current = problem.expression
        mapping = MappingState(sorted(current.annotation_names()))
        candidates = enumerate_candidates(
            current, problem.universe, problem.constraint
        )
        serial = FastStepScorer(computer, current, mapping, problem.universe)
        incremental = IncrementalStepScorer(
            computer, current, mapping, problem.universe
        )
        return [
            (
                candidate.parts,
                serial.score(candidate.parts),
                incremental.score(candidate.parts),
            )
            for candidate in candidates
        ]

    with _ir.mode(_ir.MODE_IR):
        interned = one_step()
    with _ir.mode(_ir.MODE_LEGACY):
        legacy = one_step()
    assert len(interned) == len(legacy)
    for (parts_a, serial_a, inc_a), (parts_b, serial_b, inc_b) in zip(
        interned, legacy
    ):
        assert parts_a == parts_b
        assert serial_a[0] == serial_b[0]
        assert serial_a[1].value == serial_b[1].value
        assert inc_a[0] == inc_b[0]
        assert inc_a[1].value == inc_b[1].value


# -- fallback regression -----------------------------------------------------------


def test_fast_path_bailing_mid_run_falls_back_to_naive(monkeypatch):
    """If the scorer dies partway through a step the engine must score
    the whole step naively -- no crash, no skipped candidates."""
    problem = random_problem(31, MAX)
    computer = make_computer(problem)
    current = problem.expression
    mapping = MappingState(sorted(current.annotation_names()))
    candidates = enumerate_candidates(current, problem.universe, problem.constraint)
    reference = naive_scores(problem, computer, current, mapping, candidates)

    calls = {"n": 0}
    original_score = FastStepScorer.score

    def flaky_score(self, parts):
        calls["n"] += 1
        if calls["n"] > 3:
            raise RuntimeError("fast path bailed mid-run")
        return original_score(self, parts)

    monkeypatch.setattr(FastStepScorer, "score", flaky_score)
    engine, scores = engine_scores(
        problem, computer, current, mapping, candidates, incremental=False
    )
    assert engine.last_path == ScoringEngine.PATH_NAIVE
    assert calls["n"] == 4, "the fast path was attempted and bailed"
    assert engine.fallback_count == 1
    assert_distances_match(scores, reference, "fallback")


def test_summarizer_survives_broken_fast_path(monkeypatch):
    """A full greedy run with a permanently broken fast path completes
    on the naive path and reproduces the unbroken merge sequence."""
    expected = Summarizer(
        movielens_problem(3), SummarizationConfig(w_dist=0.7, max_steps=4, seed=0)
    ).run()

    def broken_score(self, parts):
        raise RuntimeError("broken scorer")

    monkeypatch.setattr(FastStepScorer, "score", broken_score)
    monkeypatch.setattr(IncrementalStepScorer, "score", broken_score)
    monkeypatch.setattr(IncrementalStepScorer, "score_detail", broken_score)
    result = Summarizer(
        movielens_problem(3), SummarizationConfig(w_dist=0.7, max_steps=4, seed=0)
    ).run()
    assert [r.merged for r in result.steps] == [r.merged for r in expected.steps]
    assert {r.scoring_path for r in result.steps} == {"naive"}
    assert result.scoring_fallbacks == len(result.steps)
    assert result.final_distance.value == pytest.approx(
        expected.final_distance.value, abs=1e-12
    )


# -- the carry axis: cross-step candidate carry ≡ fresh per-step runs --------------


def _full_fingerprint(result):
    """The steps fingerprint plus every per-step recorded float."""
    fingerprint = _steps_fingerprint(result)
    fingerprint["step_distances"] = [
        r.distance_after.value if r.distance_after is not None else None
        for r in result.steps
    ]
    fingerprint["n_candidates"] = [r.n_candidates for r in result.steps]
    return fingerprint


@pytest.mark.parametrize("ir_mode", [_ir.MODE_LEGACY, _ir.MODE_IR])
@pytest.mark.parametrize("row", _ENGINE_ROW_IDS, ids=_ENGINE_ROW_IDS)
@pytest.mark.parametrize("seed", [3, 9])
def test_greedy_carry_bit_identical(seed, row, ir_mode, kernel):
    """The carry axis of the differential grid: with cross-step
    candidate carry on (lazy-greedy selection unless the scorer is
    dense), a greedy run must be *bit*-identical to the carry-off
    (full re-score) run -- same merges, sizes and exact distance
    floats -- under every engine row and representation mode.  The
    parallel rows run both side by side in forked workers and must
    also match the carry-off run made here in-process."""

    def runner(carry):
        result = Summarizer(
            movielens_problem(seed),
            SummarizationConfig(
                w_dist=0.7, max_steps=6, seed=0, carry=carry, **_ENGINE_ROWS[row][0]
            ),
        ).run()
        assert_clean_run(result, _ENGINE_PATHS[row])
        return _full_fingerprint(result)

    with _ir.mode(ir_mode):
        off, on = run_row(row, lambda: runner("off"), lambda: runner("on"))
        if _ENGINE_ROWS[row][1]:
            assert off == runner("off")
    assert on == off


@needs_numpy
@pytest.mark.parametrize("row", _ENGINE_ROW_IDS, ids=_ENGINE_ROW_IDS)
def test_greedy_run_bit_identical_across_kernels(row):
    """The tentpole contract end-to-end: a full greedy run under the
    accelerated kernels reproduces the python-kernel run bit for bit --
    same merges, same sizes, same exact distance floats -- on every
    engine row.  The native backend joins the comparison whenever its
    probe succeeds on this host; the parallel rows run the accelerated
    kernels side by side in forked workers."""

    def runner(mode):
        with kernels.backend(mode):
            result = Summarizer(
                movielens_problem(3),
                SummarizationConfig(w_dist=0.7, max_steps=6, seed=0, **_ENGINE_ROWS[row][0]),
            ).run()
        assert_clean_run(result, _ENGINE_PATHS[row])
        return _full_fingerprint(result)

    reference = runner(kernels.MODE_PYTHON)
    modes = [kernels.MODE_NUMPY]
    if kernels.native_available():
        modes.append(kernels.MODE_NATIVE)
    accelerated = run_row(row, *[lambda mode=mode: runner(mode) for mode in modes])
    for mode, fingerprint in zip(modes, accelerated):
        assert fingerprint == reference, mode


@pytest.mark.parametrize("monoid_name", sorted(MONOIDS))
def test_random_problems_carry_bit_identical(monoid_name):
    def runner(carry):
        result = Summarizer(
            random_problem(19, MONOIDS[monoid_name], n_terms=16),
            SummarizationConfig(w_dist=0.6, max_steps=4, seed=0, carry=carry),
        ).run()
        assert_clean_run(result, "fast+incremental")
        return result

    assert _full_fingerprint(runner("on")) == _full_fingerprint(runner("off"))


@pytest.mark.parametrize("scoring", ["normalized", "ordinal"])
def test_carry_respects_scoring_strategy(scoring):
    """Ordinal scoring disables lazy selection (per-step ranks bound
    nothing across steps) but keeps the pool carry -- output must
    match the carry-off run either way."""

    def runner(carry):
        result = Summarizer(
            movielens_problem(3),
            SummarizationConfig(
                w_dist=0.7, max_steps=5, seed=0, scoring=scoring, carry=carry
            ),
        ).run()
        assert_clean_run(result, "fast+incremental")
        return result

    assert _full_fingerprint(runner("on")) == _full_fingerprint(runner("off"))


@pytest.mark.parametrize("ir_mode", [_ir.MODE_LEGACY, _ir.MODE_IR])
@pytest.mark.parametrize("seed", [3, 9])
def test_beam_carry_bit_identical(seed, ir_mode):
    def runner(carry):
        result = BeamSummarizer(
            movielens_problem(seed),
            SummarizationConfig(
                w_dist=0.7, max_steps=5, seed=0, carry=carry, candidate_cap=24
            ),
            beam_width=2,
        ).run()
        assert_clean_run(result, "fast+incremental")
        return result

    with _ir.mode(ir_mode):
        off = _full_fingerprint(runner("off"))
        on = _full_fingerprint(runner("on"))
    assert on == off


@pytest.mark.parametrize("seed", [3, 9])
def test_lazy_matches_eager_selection(seed):
    """Lazy-greedy selection (the default) must pick the exact same
    merge sequence (and record the same fresh winner measurements) as
    the eager full re-score, while re-scoring only a fraction of the
    candidates."""

    def runner(**knobs):
        result = Summarizer(
            movielens_problem(seed),
            SummarizationConfig(w_dist=0.7, max_steps=6, seed=0, **knobs),
        ).run()
        assert_clean_run(result, "fast+incremental")
        return result

    eager = runner(carry="off")
    lazy = runner()
    assert _full_fingerprint(lazy) == _full_fingerprint(eager)
    rescored = sum(r.n_rescored for r in lazy.steps[1:])
    total = sum(r.n_candidates for r in lazy.steps[1:])
    assert rescored < total, "lazy selection never skipped a re-score"


def test_lazy_stale_scores_are_lower_bounds():
    """The soundness invariant behind the lazy queue (Prop 4.2.2):
    after applying a merge, every surviving candidate's *stale*
    distance estimate is a lower bound on its fresh re-score, and the
    exact-size carry keeps the size component exact -- so the stale
    queue key never exceeds the fresh one."""
    for monoid_name in sorted(MONOIDS):
        problem = random_problem(11, MONOIDS[monoid_name], n_terms=16)
        computer = make_computer(problem)
        current = problem.expression
        mapping = MappingState(sorted(current.annotation_names()))
        for _ in range(3):
            candidates = enumerate_candidates(
                current, problem.universe, problem.constraint
            )
            if len(candidates) < 2:
                break
            scorer = IncrementalStepScorer(
                computer, current, mapping, problem.universe
            )
            stale = {c.parts: scorer.score(c.parts) for c in candidates}
            chosen = candidates[0]
            summary = problem.universe.new_summary(
                [problem.universe[name] for name in chosen.parts],
                label=chosen.proposal.label,
            )
            step_mapping = {name: summary.name for name in chosen.parts}
            current = current.apply_mapping(step_mapping)
            mapping = mapping.compose(step_mapping)
            scorer.advance(chosen.parts, summary.name, current, mapping)
            merged = set(chosen.parts)
            for candidate in candidates:
                if merged.intersection(candidate.parts):
                    continue
                old_size, old_estimate = stale[candidate.parts]
                new_size, new_estimate = scorer.score(candidate.parts)
                assert old_estimate.value <= new_estimate.value + 1e-12, (
                    monoid_name,
                    candidate.parts,
                )
                # The exact-shift size carry only claims candidates the
                # engine's neighborhood predicate marks disjoint (a
                # merge can enable joint term collapses otherwise).
                if not scorer.candidate_intersects(candidate.parts):
                    assert new_size == old_size + scorer.last_size_shift


def test_lazy_requires_normalized_scoring_and_carry():
    """Lazy selection is the default exactly where it is sound: absolute
    (normalized) scores over a scorer carried through advance()."""
    problem = movielens_problem(3)

    def lazy(**knobs):
        return ScoringEngine(
            problem, SummarizationConfig(**knobs), make_computer(problem)
        ).lazy

    assert lazy()
    assert lazy(carry="on", incremental="on")
    assert not lazy(scoring="ordinal")
    assert not lazy(carry="off")
    assert not lazy(incremental="off")


@pytest.mark.parametrize(
    "field, value",
    [("parallelism", 2), ("parallel_threshold", 1), ("lazy", "on")],
)
def test_removed_engine_knobs_raise(field, value):
    """The fork pool and the lazy switch are gone: naming them fails
    loudly instead of being silently ignored."""
    with pytest.raises(TypeError, match=field):
        SummarizationConfig(**{field: value})


def test_carry_counters_partition_each_step():
    """last_carried + last_rescored must partition every step's
    candidate set, and the per-step record must expose the re-score
    count."""
    result = Summarizer(
        movielens_problem(3),
        SummarizationConfig(w_dist=0.7, max_steps=5, seed=0, carry="on"),
    ).run()
    assert_clean_run(result, "fast+incremental")
    for record in result.steps:
        assert 0 <= record.n_rescored <= record.n_candidates
    assert result.steps[0].n_rescored == result.steps[0].n_candidates


def test_pool_invalidation_falls_back_to_fresh_enumeration(monkeypatch):
    """A poisoned pool maintenance step must not change the output:
    the pool invalidates itself and the next step re-enumerates."""
    from repro.core.pool import CandidatePool

    expected = _full_fingerprint(
        Summarizer(
            movielens_problem(3),
            SummarizationConfig(w_dist=0.7, max_steps=5, seed=0, carry="off"),
        ).run()
    )

    def broken_maintain(self, merged, new_name, new_expression):
        raise RuntimeError("maintenance poisoned")

    monkeypatch.setattr(CandidatePool, "_maintain", broken_maintain)
    result = Summarizer(
        movielens_problem(3),
        SummarizationConfig(w_dist=0.7, max_steps=5, seed=0, carry="on"),
    ).run()
    assert_clean_run(result, "fast+incremental")
    assert _full_fingerprint(result) == expected
