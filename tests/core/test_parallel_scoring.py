"""Differential proof obligations for the scoring engine.

The naive reference (:class:`DistanceComputer` on each materialized
candidate) is the oracle.  The :class:`FastStepScorer` and the engine
driving it must agree with it on every candidate of a step, and the
engine's lazy-greedy winner must be the naive full ranking's -- over
randomized instances (explicit RNG grid), SUM/MAX/COUNT aggregations,
the OR combiner, and the degenerate corners (one candidate, one
valuation, all-false annotations, empty groups).

Sizes must match as exact integers; distances to within 1e-12 (the
scorer's sparse contribution sums fold in a different order than the
reference's per-valuation metric).  The engine must run the *same*
scorer bit-for-bit, report the expected scoring path and never fall
back to the naive path.  Run-level grids compare the default
lazy-greedy selection against the full measure-and-rank path (the
``full_rank`` fixture); their ``parallel`` rows repeat those runs side
by side in forked worker processes, as the sharded serving tier runs
sessions, and must reproduce them exactly.
"""

import contextlib
import json
import multiprocessing
import random
import traceback

import pytest

from repro import serialization
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
from repro.core.engine import _OverlayUniverse
from repro.core.fast_distance import FastStepScorer
from repro.core.scoring import ScoredCandidate, score_candidates
from repro.datasets import (
    MovieLensConfig,
    WikipediaConfig,
    generate_movielens,
    generate_wikipedia,
)
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
from repro.core.val_funcs import VectorValFunc

MONOIDS = {"MAX": MAX, "SUM": SUM, "COUNT": COUNT}

#: ``numpy`` is a removed backend token: it must resolve as ``auto``
#: does (with a ``kernel_unknown`` warning) and change no result.  Its
#: rows re-run the auto backend's; they are slated for deletion
#: (ROADMAP item 5).
REMOVED_KERNEL = "numpy"
AUTO_KERNEL = (
    kernels.MODE_NATIVE if kernels.native_available() else kernels.MODE_PYTHON
)

#: The backends that exist: python, and native where it builds.
LIVE_KERNELS = [
    kernels.MODE_PYTHON,
    pytest.param(
        kernels.MODE_NATIVE,
        marks=pytest.mark.skipif(
            not kernels.native_available(), reason="native backend unavailable"
        ),
    ),
]

KERNEL_AXIS = [LIVE_KERNELS[0], REMOVED_KERNEL, LIVE_KERNELS[1]]


needs_native = pytest.mark.skipif(
    not kernels.native_available(), reason="native backend unavailable"
)


@pytest.fixture(params=KERNEL_AXIS)
def kernel(request):
    """Run the test under each kernel backend (python, native) and under
    the removed ``numpy`` token."""
    with kernels.backend(request.param) as resolved:
        expected = AUTO_KERNEL if request.param == REMOVED_KERNEL else request.param
        assert resolved == expected
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


# -- the scoring paths -------------------------------------------------------------


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


def engine_scores(problem, computer, current, mapping, candidates):
    engine = ScoringEngine(problem, SummarizationConfig(), computer)
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
    """naive ≡ scorer ≡ engine, and the lazy winner is the naive full
    ranking's, one step."""
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

    scorer = FastStepScorer(computer, current, mapping, problem.universe)
    direct = [scorer.score(candidate.parts) for candidate in candidates]
    assert_distances_match(direct, reference, "scorer vs naive")

    # The engine runs the very same scorer, so its measurements must
    # be *bit*-identical to driving it directly, not just close.
    engine, carried = engine_scores(
        problem, computer, current, mapping, candidates
    )
    assert engine.last_path == ScoringEngine.PATH_FAST_INCREMENTAL
    assert engine.fallback_count == 0
    assert carried == direct

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
    # ranking's winner over the same scorer measurements.
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
    assert_lazy_replays_full_rank(problem)


def assert_lazy_replays_full_rank(problem, n_steps=5):
    """Over a lazy-greedy merge chain, every step's lazy winner is the
    full ranking's over the same scorer's fresh measurements -- with
    carried estimates and the distance floor in play from the second
    step on.  Returns each step's floor."""
    computer = make_computer(problem)
    engine = ScoringEngine(problem, SummarizationConfig(), computer)
    universe = problem.universe
    current = problem.expression
    mapping = MappingState(sorted(current.annotation_names()))
    original_size = current.size()
    floors = []
    for step in range(n_steps):
        candidates = enumerate_candidates(current, universe, problem.constraint)
        if not candidates:
            break
        best, _ = engine.measure_lazy(
            candidates, current, mapping, 0.5, 0.5, original_size
        )
        assert engine.last_path == ScoringEngine.PATH_FAST_INCREMENTAL
        assert engine.fallback_count == 0
        fresh = [engine._scorer.score(candidate.parts) for candidate in candidates]
        full_ranked = rank(candidates, fresh, original_size)
        assert best.candidate.parts == full_ranked[0].candidate.parts, step
        assert (best.size, best.distance.value) == (
            full_ranked[0].size, full_ranked[0].distance.value
        ), step
        floors.append(engine.last_floor)
        summary = universe.new_summary(
            [universe[name] for name in best.candidate.parts],
            label=best.candidate.proposal.label,
        )
        step_mapping = {name: summary.name for name in best.candidate.parts}
        current = current.apply_mapping(step_mapping)
        mapping = mapping.compose(step_mapping)
        engine.advance(best.candidate.parts, summary.name, current, mapping)
    return floors


# -- the RNG grid ------------------------------------------------------------------


@pytest.mark.parametrize("monoid_name", sorted(MONOIDS))
@pytest.mark.parametrize("seed", [0, 7, 42])
@pytest.mark.parametrize("kernel", LIVE_KERNELS, indirect=True)
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


def test_lazy_replay_floors_later_steps():
    """The multi-step replay runs with the floor raised: on MovieLens
    each step starts from the previous winner's distance, which never
    falls along the chain and leaves 0 once the zero-distance merges
    run out."""
    floors = assert_lazy_replays_full_rank(movielens_problem(3), n_steps=6)
    assert len(floors) == 6
    assert floors[0] == 0.0
    assert floors == sorted(floors)
    assert floors[-1] > 0.0, floors


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
    carried = FastStepScorer(computer, current, mapping, problem.universe)

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
    carried = FastStepScorer(computer, current, mapping, problem.universe)
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
def test_e2e_determinism_incremental_vs_seed_default(seed, full_rank):
    """The default (lazy-greedy) run must replay the full
    measure-and-rank run merge for merge on the bundled MovieLens
    sample."""
    config_kwargs = dict(w_dist=0.7, max_steps=6, seed=0)
    with full_rank():
        baseline = Summarizer(
            movielens_problem(seed), SummarizationConfig(**config_kwargs)
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
    assert_clean_run(baseline, "fast+incremental")
    assert_clean_run(tuned, "fast+incremental")


# -- the expression-layout axis -----------------------------------------------------


#: ``ir``: the problem as generated.  ``legacy``: its expression decoded
#: from the JSON form, the way streamed deltas hand provenance over --
#: the same names as equal but distinct string objects, and every value
#: after a float round trip.  Merges, sizes and distance floats must not
#: depend on the layout.  (The ids date from an annotation interner
#: whose id layout this axis used to vary.)
LAYOUTS = ("ir", "legacy")


def in_layout(problem, layout):
    """``problem`` with its expression in ``layout``."""
    if layout == "legacy":
        problem.expression = serialization.expression_from_dict(
            json.loads(serialization.dumps(
                serialization.expression_to_dict(problem.expression)
            ))
        )
    return problem


def _steps_fingerprint(result):
    """Everything a layout could perturb, captured bit-exactly."""
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


#: The engine row axis: the full measure-and-rank path, the default
#: lazy-greedy path, the same two run side by side in forked worker
#: processes, and the shared-batch sampled kernel.  Each row maps to
#: its config knobs, whether it ranks in full (the ``full_rank``
#: fixture) and whether its runs go to workers.
_ENGINE_ROWS = {
    "serial": (dict(), True, False),
    "incremental": (dict(), False, False),
    "parallel": (dict(), True, True),
    "parallel+incremental": (dict(), False, True),
    "sampled": (dict(max_enumerate=0, distance_samples=64), False, False),
}
_ENGINE_ROW_IDS = tuple(_ENGINE_ROWS)
#: The one scoring path each row must take on every step.
_ENGINE_PATHS = {
    "serial": "fast+incremental",
    "incremental": "fast+incremental",
    "parallel": "fast+incremental",
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

    A forked worker inherits the kernel backend in force here, so its
    run must reproduce the in-process one bit for bit.  A worker that raises or stalls fails the calling test."""
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
    if _ENGINE_ROWS[row][2]:
        return run_in_workers(*thunks)
    return [thunk() for thunk in thunks]


def row_selection(row, full_rank):
    """The selection mode ``row`` runs under: ``full_rank()`` for the
    full measure-and-rank rows, the default lazy queue otherwise."""
    return full_rank() if _ENGINE_ROWS[row][1] else contextlib.nullcontext()


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
        problem, computer, current, mapping, candidates
    )
    assert engine.last_path == ScoringEngine.PATH_NAIVE
    assert calls["n"] == 4, "the fast path was attempted and bailed"
    assert engine.fallback_count == 1
    assert_distances_match(scores, reference, "fallback")


class _MaxAbsDifference(VectorValFunc):
    """L∞ distance: no coordinate-wise sum decomposition, hence no
    ``contrib_kind`` tag."""

    name = "Max Absolute Difference"

    def metric(self, original, summary):
        return max(
            (abs(original[key] - summary[key]) for key in original), default=0.0
        )


def test_untagged_val_func_takes_the_naive_path():
    """A VAL-FUNC without a ``contrib_kind`` has no sparse scorer walk:
    the engine routes it to the naive reference up front -- no
    fast-path attempt, so no fallback is counted."""
    problem = random_problem(5, MAX, val_func_cls=_MaxAbsDifference)
    assert _MaxAbsDifference.contrib_kind is None
    assert not FastStepScorer.applicable(
        problem.expression,
        problem.val_func,
        problem.combiners,
        problem.valuations,
        problem.universe,
        512,
    )
    result = Summarizer(
        problem, SummarizationConfig(w_dist=0.6, max_steps=3, seed=0)
    ).run()
    assert result.steps
    assert_clean_run(result, "naive")


def test_summarizer_survives_broken_fast_path(monkeypatch):
    """A full greedy run with a permanently broken fast path completes
    on the naive path and reproduces the unbroken merge sequence."""
    expected = Summarizer(
        movielens_problem(3), SummarizationConfig(w_dist=0.7, max_steps=4, seed=0)
    ).run()

    def broken_score(self, parts):
        raise RuntimeError("broken scorer")

    monkeypatch.setattr(FastStepScorer, "score", broken_score)
    result = Summarizer(
        movielens_problem(3), SummarizationConfig(w_dist=0.7, max_steps=4, seed=0)
    ).run()
    assert [r.merged for r in result.steps] == [r.merged for r in expected.steps]
    assert {r.scoring_path for r in result.steps} == {"naive"}
    assert result.scoring_fallbacks == len(result.steps)
    assert result.final_distance.value == pytest.approx(
        expected.final_distance.value, abs=1e-12
    )


def test_failed_advance_counts_a_fallback(monkeypatch):
    """A scorer that fails to carry past a merge is dropped and rebuilt
    fresh -- the run must not change, and the failure must show up in
    ``scoring_fallbacks`` instead of passing silently."""

    def run():
        return Summarizer(
            movielens_problem(3),
            SummarizationConfig(w_dist=0.7, max_steps=5, seed=0),
        ).run()

    expected = _full_fingerprint(run())
    calls = {"n": 0}
    original_advance = FastStepScorer.advance

    def advance_failing_once(self, *args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("advance poisoned")
        return original_advance(self, *args, **kwargs)

    monkeypatch.setattr(FastStepScorer, "advance", advance_failing_once)
    result = run()
    assert calls["n"] > 1, "the run never advanced past the failure"
    assert {record.scoring_path for record in result.steps} == {
        "fast+incremental"
    }
    assert result.scoring_fallbacks == 1
    assert _full_fingerprint(result) == expected


def test_no_carry_past_the_last_step(monkeypatch):
    """The engine and pool are carried past a merge when the next step
    starts, so a run of n steps carries n - 1 times: the result of the
    last step is never read, nor is a merge a distance stop reverts."""
    from repro.core.pool import CandidatePool

    calls = {"engine": 0, "pool": 0}
    engine_advance = ScoringEngine.advance
    pool_advance = CandidatePool.advance

    def counted_engine(self, *args):
        calls["engine"] += 1
        return engine_advance(self, *args)

    def counted_pool(self, *args):
        calls["pool"] += 1
        return pool_advance(self, *args)

    monkeypatch.setattr(ScoringEngine, "advance", counted_engine)
    monkeypatch.setattr(CandidatePool, "advance", counted_pool)
    result = Summarizer(
        movielens_problem(3), SummarizationConfig(w_dist=0.7, max_steps=5, seed=0)
    ).run()
    assert result.n_steps == 5 and result.stop_reason == "max_steps"
    assert calls == {"engine": 4, "pool": 4}

    calls.update(engine=0, pool=0)
    reverted = Summarizer(
        movielens_problem(3),
        SummarizationConfig(w_dist=0.7, target_dist=1e-6, seed=0),
    ).run()
    assert reverted.stop_reason == "target_dist" and reverted.n_steps >= 1
    # The reverted merge was applied but never carried.
    assert calls["engine"] == calls["pool"] == reverted.n_steps


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


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("row", _ENGINE_ROW_IDS, ids=_ENGINE_ROW_IDS)
@pytest.mark.parametrize("seed", [3, 9])
def test_greedy_carry_bit_identical(seed, row, layout, kernel, full_rank):
    """The carry axis of the differential grid: a greedy run under the
    row's selection (lazy-greedy over carried measurements unless the
    row ranks in full) must be *bit*-identical to the full
    measure-and-rank run -- same merges, sizes and exact distance
    floats -- under every engine row and expression layout.  The
    parallel rows run both side by side in forked workers and must
    also match the full-rank run made here in-process."""

    def runner(ranked):
        selection = full_rank() if ranked else row_selection(row, full_rank)
        with selection:
            result = Summarizer(
                in_layout(movielens_problem(seed), layout),
                SummarizationConfig(
                    w_dist=0.7, max_steps=6, seed=0, **_ENGINE_ROWS[row][0]
                ),
            ).run()
        assert_clean_run(result, _ENGINE_PATHS[row])
        return _full_fingerprint(result)

    off, on = run_row(row, lambda: runner(True), lambda: runner(False))
    if _ENGINE_ROWS[row][2]:
        assert off == runner(True)
    assert on == off


@pytest.mark.parametrize("row", _ENGINE_ROW_IDS, ids=_ENGINE_ROW_IDS)
def test_greedy_run_bit_identical_across_kernels(row, full_rank):
    """The kernel contract end-to-end: a full greedy run under the
    native kernel reproduces the python-kernel run bit for bit -- same
    merges, same sizes, same exact distance floats -- on every engine
    row.  The native backend joins the comparison whenever its probe
    succeeds on this host; the parallel rows run it in a forked
    worker."""

    def runner(mode):
        with kernels.backend(mode), row_selection(row, full_rank):
            result = Summarizer(
                movielens_problem(3),
                SummarizationConfig(
                    w_dist=0.7, max_steps=6, seed=0, **_ENGINE_ROWS[row][0]
                ),
            ).run()
        assert_clean_run(result, _ENGINE_PATHS[row])
        return _full_fingerprint(result)

    reference = runner(kernels.MODE_PYTHON)
    modes = [kernels.MODE_NATIVE] if kernels.native_available() else []
    accelerated = run_row(row, *[lambda mode=mode: runner(mode) for mode in modes])
    for mode, fingerprint in zip(modes, accelerated):
        assert fingerprint == reference, mode


@pytest.mark.parametrize("monoid_name", sorted(MONOIDS))
def test_random_problems_carry_bit_identical(monoid_name, full_rank):
    def runner():
        result = Summarizer(
            random_problem(19, MONOIDS[monoid_name], n_terms=16),
            SummarizationConfig(w_dist=0.6, max_steps=4, seed=0),
        ).run()
        assert_clean_run(result, "fast+incremental")
        return result

    lazy = runner()
    with full_rank():
        ranked = runner()
    assert _full_fingerprint(lazy) == _full_fingerprint(ranked)


@pytest.mark.parametrize("scoring", ["normalized", "ordinal"])
def test_carry_respects_scoring_strategy(scoring, full_rank):
    """Ordinal scoring disables lazy selection (per-step ranks bound
    nothing across steps) but keeps the pool carry -- output must
    match the full measure-and-rank run either way."""

    def runner():
        result = Summarizer(
            movielens_problem(3),
            SummarizationConfig(w_dist=0.7, max_steps=5, seed=0, scoring=scoring),
        ).run()
        assert_clean_run(result, "fast+incremental")
        return result

    default = runner()
    with full_rank():
        ranked = runner()
    assert _full_fingerprint(default) == _full_fingerprint(ranked)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("seed", [3, 9])
def test_beam_carry_bit_identical(seed, layout, monkeypatch):
    """Beam members branch their candidate pools from their parents'
    (CandidatePool.child); the carried lists must reproduce a run whose
    pools re-enumerate every step."""
    from repro.core.pool import CandidatePool

    def runner():
        result = BeamSummarizer(
            in_layout(movielens_problem(seed), layout),
            SummarizationConfig(w_dist=0.7, max_steps=5, seed=0),
            beam_width=2,
        ).run()
        assert_clean_run(result, "fast+incremental")
        return result

    def broken_maintain(self, merged, new_name, new_expression):
        raise RuntimeError("re-enumerate instead")

    on = _full_fingerprint(runner())
    with monkeypatch.context() as patch:
        patch.setattr(CandidatePool, "_maintain", broken_maintain)
        off = _full_fingerprint(runner())
    assert on == off


@pytest.mark.parametrize("seed", [3, 9])
def test_lazy_matches_eager_selection(seed, full_rank):
    """Lazy-greedy selection (the default) must pick the exact same
    merge sequence (and record the same fresh winner measurements) as
    the eager full re-score, while re-scoring only a fraction of the
    candidates."""

    def runner():
        result = Summarizer(
            movielens_problem(seed),
            SummarizationConfig(w_dist=0.7, max_steps=6, seed=0),
        ).run()
        assert_clean_run(result, "fast+incremental")
        return result

    with full_rank():
        eager = runner()
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
            scorer = FastStepScorer(computer, current, mapping, problem.universe)
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
                # The exact-shift size carry only claims what the
                # engine's gate claims: a merge whose collapses stayed
                # local, and a candidate none of whose terms it touched
                # (a merge can enable joint term collapses otherwise).
                if scorer.last_shift_local and not scorer.size_intersects(
                    candidate.parts
                ):
                    assert new_size == old_size + scorer.last_size_shift


@pytest.fixture
def size_carry_spy(monkeypatch):
    """Spies on the lazy queue's size bookkeeping.

    After every lazy step each queue entry's size (its base plus the
    run's offset) is checked against a fresh
    :meth:`FastStepScorer.candidate_size`, and the step's reported
    ``sizes_recomputed`` against the scorer's own verdicts
    (:meth:`FastStepScorer.size_intersects`) on the entries carried
    from the step before.  Yields the running counts of shifted and
    recomputed carried sizes.
    """
    counts = {"shifted": 0, "recomputed": 0}
    original_select = ScoringEngine._lazy_select

    def spy_select(self, scorer, candidates, *args, **kwargs):
        carried = self._sizes if self._queue_expr is scorer.current else {}
        survivors = [c.parts for c in candidates if c.parts in carried]
        moved = sum(1 for parts in survivors if scorer.size_intersects(parts))
        outcome = original_select(self, scorer, candidates, *args, **kwargs)
        assert outcome[3] == moved
        counts["recomputed"] += moved
        counts["shifted"] += len(survivors) - moved
        for parts, base in self._sizes.items():
            assert base + self._offset == scorer.candidate_size(parts), parts
        for parts, entry in self._entries.items():
            assert entry.base == self._sizes[parts], parts
        return outcome

    monkeypatch.setattr(ScoringEngine, "_lazy_select", spy_select)
    return counts


def test_lazy_size_carry_is_exact_on_movielens(size_carry_spy):
    """Over whole default-config MovieLens runs every carried size is
    exact, and term-disjointness -- not group-disjointness -- decides
    what is recomputed: under tensor-paired aggregates nearly every
    candidate shares a group with the last merge, so a group predicate
    would recompute most carried sizes, while user merges leave other
    users' terms untouched."""
    for seed in range(1, 6):
        problem = generate_movielens(
            MovieLensConfig(n_users=24, n_movies=20, seed=seed)
        ).problem()
        result = Summarizer(
            problem, SummarizationConfig(max_steps=8, seed=seed)
        ).run()
        assert_clean_run(result, "fast+incremental")
    assert size_carry_spy["shifted"] > size_carry_spy["recomputed"]


@pytest.mark.parametrize(
    "max_enumerate, path",
    [(None, "fast+incremental"), (0, "sampled+incremental")],
    ids=["exact", "sampled"],
)
def test_lazy_size_carry_is_exact_on_wikipedia(size_carry_spy, max_enumerate, path):
    """Wikipedia merges group keys (pages), so merges do touch carried
    candidates' terms: both halves of the size bookkeeping -- shift
    and recompute -- run, and every shifted size stays exact."""
    knobs = {} if max_enumerate is None else {"max_enumerate": max_enumerate}
    for seed in range(1, 4):
        problem = generate_wikipedia(
            WikipediaConfig(n_users=12, n_pages=10, seed=seed)
        ).problem()
        result = Summarizer(
            problem, SummarizationConfig(max_steps=6, seed=seed, **knobs)
        ).run()
        assert_clean_run(result, path)
    assert size_carry_spy["shifted"] > 0
    assert size_carry_spy["recomputed"] > 0


def test_lazy_requires_normalized_scoring_and_carry():
    """Lazy selection is the default exactly where it is sound: absolute
    (normalized) scores.  The scorer and the candidate pool are always
    carried through advance(), so scoring is the only switch."""
    problem = movielens_problem(3)

    def lazy(**knobs):
        return ScoringEngine(
            problem, SummarizationConfig(**knobs), make_computer(problem)
        ).lazy

    assert lazy()
    assert lazy(scoring="normalized")
    assert not lazy(scoring="ordinal")


@pytest.mark.parametrize(
    "field, value",
    [
        ("parallelism", 2),
        ("parallel_threshold", 1),
        ("lazy", "on"),
        ("incremental", "off"),
        ("carry", "off"),
        ("sample_block", 64),
        ("sample_sharing", "off"),
        ("repair", "off"),
        ("candidate_cap", 5),
    ],
)
def test_removed_engine_knobs_raise(field, value):
    """The fork pool, the lazy, incremental, carry, sample-sharing and
    repair switches, the sampling block size and the candidate cap are
    gone: naming them fails loudly instead of being silently ignored."""
    with pytest.raises(TypeError, match=field):
        SummarizationConfig(**{field: value})


def test_carry_counters_partition_each_step():
    """last_carried + last_rescored must partition every step's
    candidate set, and the per-step record must expose the re-score
    count.  Step 0 enters its queue by size alone, so even the first
    step scores only the candidates whose size-only key reaches the
    top."""
    result = Summarizer(
        movielens_problem(3),
        SummarizationConfig(w_dist=0.7, max_steps=5, seed=0),
    ).run()
    assert_clean_run(result, "fast+incremental")
    for record in result.steps:
        assert 0 <= record.n_rescored <= record.n_candidates
    assert 0 < result.steps[0].n_rescored < result.steps[0].n_candidates


@pytest.mark.parametrize(
    "monoid_name, val_func_cls",
    [
        ("MAX", EuclideanDistance),
        ("SUM", EuclideanDistance),
        ("COUNT", EuclideanDistance),
        ("SUM", AbsoluteDifference),
        ("MAX", Disagreement),
    ],
)
def test_size_only_key_never_exceeds_fresh_score(monoid_name, val_func_cls):
    """The lazy queue keys an unscored candidate by ``w_size · r_size``
    alone.  That is a lower bound on its fresh score with no
    monotonicity argument: the mask-free ``candidate_size`` is the
    exact size a full score reports, and a distance is never negative.
    Checked for every candidate along a merge chain and over the whole
    weight range."""
    problem = random_problem(
        5, MONOIDS[monoid_name], val_func_cls=val_func_cls, with_guards=True
    )
    computer = make_computer(problem)
    current = problem.expression
    original_size = current.size()
    mapping = MappingState(sorted(current.annotation_names()))
    scorer = FastStepScorer(computer, current, mapping, problem.universe)
    checked = 0
    for _ in range(4):
        candidates = enumerate_candidates(
            current, problem.universe, problem.constraint
        )
        if not candidates:
            break
        for candidate in candidates:
            size, estimate = scorer.score(candidate.parts)
            assert scorer.candidate_size(candidate.parts) == size
            assert estimate.normalized >= 0.0
            r_size = size / original_size
            for w_dist in (0.0, 0.3, 0.7, 1.0):
                w_size = 1.0 - w_dist
                fresh = w_dist * estimate.normalized + w_size * r_size
                assert w_size * r_size <= fresh, (candidate.parts, w_dist)
            checked += 1
        chosen = candidates[-1]
        summary = problem.universe.new_summary(
            [problem.universe[name] for name in chosen.parts],
            label=chosen.proposal.label,
        )
        step_mapping = {name: summary.name for name in chosen.parts}
        current = current.apply_mapping(step_mapping)
        mapping = mapping.compose(step_mapping)
        scorer.advance(chosen.parts, summary.name, current, mapping)
    assert checked > 0


def test_pool_invalidation_falls_back_to_fresh_enumeration(
    monkeypatch, full_rank
):
    """A poisoned pool maintenance step must not change the output:
    the pool invalidates itself and the next step re-enumerates."""
    from repro.core.pool import CandidatePool

    with full_rank():
        expected = _full_fingerprint(
            Summarizer(
                movielens_problem(3),
                SummarizationConfig(w_dist=0.7, max_steps=5, seed=0),
            ).run()
        )

    def broken_maintain(self, merged, new_name, new_expression):
        raise RuntimeError("maintenance poisoned")

    monkeypatch.setattr(CandidatePool, "_maintain", broken_maintain)
    result = Summarizer(
        movielens_problem(3),
        SummarizationConfig(w_dist=0.7, max_steps=5, seed=0),
    ).run()
    assert_clean_run(result, "fast+incremental")
    assert _full_fingerprint(result) == expected
