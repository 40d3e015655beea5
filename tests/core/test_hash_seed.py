"""Summaries do not depend on the string hash seed.

The scorers, the candidate pool and the dedupe key their state on
annotation names, so the one layout left to vary is the interpreter's
string hash seed: it reorders every set and dict iteration that is
not fixed by insertion or sorting.  Each run below is repeated in a
child interpreter under ``PYTHONHASHSEED=0`` and ``=1``: the merges,
the sizes and the ``repr`` of every distance float must be identical.

* a lazy-greedy exact run of the ``exact_movielens`` benchmark shape;
* a sampled run (``max_enumerate=0``) on Wikipedia;
* a beam-search run on MovieLens.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _fingerprint(result):
    return {
        "merged": [list(record.merged) for record in result.steps],
        "sizes": [record.size_after for record in result.steps],
        "paths": [record.scoring_path for record in result.steps],
        "step_distances": [
            None if record.distance_after is None
            else repr(record.distance_after.value)
            for record in result.steps
        ],
        "final_size": result.final_size,
        "final_distance": repr(result.final_distance.value),
        "final_normalized": repr(result.final_distance.normalized),
    }


def run_all():
    """The three runs' fingerprints, keyed by run."""
    from repro.core import BeamSummarizer, SummarizationConfig, Summarizer
    from repro.datasets import (
        MovieLensConfig,
        WikipediaConfig,
        generate_movielens,
        generate_wikipedia,
    )

    movielens = generate_movielens(
        MovieLensConfig(
            n_users=40,
            n_movies=40,
            min_ratings_per_user=5,
            max_ratings_per_user=5,
            seed=1000,
        )
    ).problem()
    wikipedia = generate_wikipedia(
        WikipediaConfig(n_users=30, n_pages=24, seed=1000)
    ).problem()
    beam = generate_movielens(
        MovieLensConfig(n_users=12, n_movies=6, seed=3)
    ).problem()
    return {
        "greedy": _fingerprint(
            Summarizer(movielens, SummarizationConfig(max_steps=10, seed=1000)).run()
        ),
        "sampled": _fingerprint(
            Summarizer(
                wikipedia,
                SummarizationConfig(max_steps=6, max_enumerate=0, seed=1000),
            ).run()
        ),
        "beam": _fingerprint(
            BeamSummarizer(
                beam,
                SummarizationConfig(w_dist=0.7, max_steps=4, seed=0),
                beam_width=2,
            ).run()
        ),
    }


_CHILD = """
import json
from tests.core.test_hash_seed import run_all
print(json.dumps(run_all()))
"""


def _run_under_hash_seed(hash_seed):
    env = dict(
        os.environ,
        PYTHONHASHSEED=str(hash_seed),
        PYTHONPATH=os.pathsep.join(
            [os.path.join(ROOT, "src"), ROOT, os.environ.get("PYTHONPATH", "")]
        ),
    )
    completed = subprocess.run(
        [sys.executable, "-c", _CHILD],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


def test_summaries_are_independent_of_the_hash_seed():
    first = _run_under_hash_seed(0)
    second = _run_under_hash_seed(1)
    assert first["greedy"]["paths"] == ["fast+incremental"] * 10
    assert set(first["sampled"]["paths"]) == {"sampled+incremental"}
    assert first["beam"]["merged"]
    assert first == second
