"""Where a run's ``final_distance`` comes from.

The greedy loop already measures the winner of every step against the
original expression.  When that estimate is exact, the last kept
step's estimate *is* the final distance; the reference computer runs
only when no step ran or the last estimate was sampled.  Beam search
follows the same rule over its best member's history.  The reference
stays the oracle: every exact result must equal a fresh reference
computer's distance of the returned expression, field for field.
"""

import random

import pytest

from repro.core import SummarizationConfig, Summarizer
from repro.core.beam import BeamSummarizer
from repro.core.distance import DistanceComputer
from repro.datasets import DDPConfig, MovieLensConfig, generate_ddp, generate_movielens
from repro.observability import tracing


def _movielens():
    return generate_movielens(
        MovieLensConfig(
            n_users=20,
            n_movies=20,
            min_ratings_per_user=4,
            max_ratings_per_user=4,
            seed=1000,
        )
    ).problem()


@pytest.fixture
def reference_calls(monkeypatch):
    """Count :meth:`DistanceComputer.distance` calls (the reference)."""
    calls = []
    distance = DistanceComputer.distance

    def spy(self, *args, **kwargs):
        calls.append(self)
        return distance(self, *args, **kwargs)

    monkeypatch.setattr(DistanceComputer, "distance", spy)
    return calls


@pytest.fixture
def traced():
    """Run with spans recording; yields a function that runs one
    summarize and returns ``(result, final_distance_source)``."""
    enabled = tracing.is_enabled()
    tracing.set_enabled(True)
    tracing.take_trace()

    def run(problem, config, beam_width=None):
        if beam_width is None:
            result, name = Summarizer(problem, config).run(), "summarize"
        else:
            result = BeamSummarizer(problem, config, beam_width).run()
            name = "beam_summarize"
        root = tracing.take_trace()
        assert root is not None and root.name == name
        return result, root.attributes["final_distance_source"]

    yield run
    tracing.set_enabled(enabled)
    tracing.take_trace()


def reference_distance(problem, config, result):
    """A fresh reference computer's distance of the returned summary."""
    computer = DistanceComputer(
        result.original_expression,
        problem.valuations,
        problem.val_func,
        problem.combiners,
        problem.universe,
        max_enumerate=config.max_enumerate,
        n_samples=config.distance_samples,
        epsilon=config.epsilon,
        delta=config.delta,
        rng=random.Random(config.seed),
    )
    return computer.distance(result.summary_expression, result.mapping)


def test_exact_movielens_reports_the_last_step(traced, reference_calls):
    problem = _movielens()
    config = SummarizationConfig(max_steps=6, seed=1)
    result, source = traced(problem, config)
    assert result.n_steps == 6
    assert {record.scoring_path for record in result.steps} == {"fast+incremental"}
    assert source == "step"
    assert reference_calls == []
    assert result.final_distance is result.steps[-1].distance_after
    assert result.final_distance == reference_distance(problem, config, result)


def test_naive_ddp_reports_the_last_step(traced):
    problem = generate_ddp(DDPConfig(seed=0)).problem()
    config = SummarizationConfig(max_steps=4, seed=1)
    result, source = traced(problem, config)
    assert result.n_steps == 4
    assert {record.scoring_path for record in result.steps} == {"naive"}
    assert source == "step"
    assert result.final_distance == reference_distance(problem, config, result)


def test_target_dist_revert_reports_the_kept_step(traced):
    """The step that crossed the bound is popped, so the last kept
    step describes the expression the run returns."""
    problem = _movielens()
    config = SummarizationConfig(max_steps=20, target_dist=0.01, seed=1)
    result, source = traced(problem, config)
    assert result.stop_reason == "target_dist"
    assert result.n_steps >= 1
    assert source == "step"
    assert result.final_distance is result.steps[-1].distance_after
    assert result.final_distance.normalized < config.target_dist
    assert result.final_distance == reference_distance(problem, config, result)


def test_zero_step_run_asks_the_reference_once(traced, reference_calls):
    problem = _movielens()
    config = SummarizationConfig(max_steps=0, seed=1)
    result, source = traced(problem, config)
    assert result.n_steps == 0
    assert source == "reference"
    assert len(reference_calls) == 1
    assert result.final_distance == reference_distance(problem, config, result)


def test_sampled_run_keeps_the_reference_draw(traced, reference_calls):
    """A sampled step estimate is not reported: the reference draws the
    final distance independently, once."""
    problem = _movielens()
    config = SummarizationConfig(max_steps=3, max_enumerate=0, seed=1)
    result, source = traced(problem, config)
    assert result.n_steps == 3
    assert {record.scoring_path for record in result.steps} == {
        "sampled+incremental"
    }
    assert source == "reference"
    assert len(reference_calls) == 1
    assert not result.final_distance.exact
    assert result.final_distance is not result.steps[-1].distance_after


def test_beam_reports_the_best_members_last_step(traced, reference_calls):
    problem = _movielens()
    config = SummarizationConfig(max_steps=4, seed=1)
    result, source = traced(problem, config, beam_width=2)
    assert result.n_steps == 4
    assert {record.scoring_path for record in result.steps} == {"fast+incremental"}
    assert source == "step"
    assert reference_calls == []
    assert result.final_distance is result.steps[-1].distance_after
    assert result.final_distance == reference_distance(problem, config, result)


def test_zero_step_beam_asks_the_reference_once(traced, reference_calls):
    problem = _movielens()
    config = SummarizationConfig(max_steps=0, seed=1)
    result, source = traced(problem, config, beam_width=2)
    assert result.n_steps == 0
    assert source == "reference"
    assert len(reference_calls) == 1
    assert result.final_distance == reference_distance(problem, config, result)


def test_sampled_beam_keeps_the_reference_draw(traced, reference_calls):
    problem = _movielens()
    config = SummarizationConfig(max_steps=2, max_enumerate=0, seed=1)
    result, source = traced(problem, config, beam_width=2)
    assert result.n_steps == 2
    assert {record.scoring_path for record in result.steps} == {
        "sampled+incremental"
    }
    assert source == "reference"
    assert len(reference_calls) == 1
    assert not result.final_distance.exact
    assert result.final_distance is not result.steps[-1].distance_after
