#!/usr/bin/env python
"""Bit-packed shared-batch sampled scoring vs. the reference sampler.

Scores one greedy step's candidate set on MovieLens-style provenance
with enumeration disabled (``max_enumerate=0``), so every distance is
a Prop 4.1.2 Monte-Carlo estimate, under two engine configurations:

* ``reference`` -- the engine's naive reference path
  (``ScoringEngine._measure_naive``), the seed behavior: every
  candidate redraws its own valuation batch and evaluates both
  expressions per draw (through
  :meth:`~repro.core.distance.DistanceComputer.sampled`);
* ``packed``    -- the default ``ScoringEngine.measure``: one shared
  batch per step, dead bits packed across the batch, candidates
  re-fold only their merged-part terms
  (:class:`~repro.core.sampled_scoring.SampledStepScorer`).

The table reports the wall-clock of the step measurement and the
speedup per batch size; the JSON mirror lands in
``benchmarks/results/sampled_scoring.json`` (uploaded as a CI
artifact).  The headline acceptance number: at batch sizes >= 256 the
packed kernel must be at least 5x faster than the reference sampler.

When the native kernel backend is active (``REPRO_KERNEL`` auto/native
with a C toolchain), every row also times the packed step under the
pure-python reference kernels: the ``kernel-speedup`` column isolates
the compiled-kernel win from the batch-sharing win.

``--quick`` (alias ``--smoke``) runs a small instance (CI smoke): it
asserts the packed path actually engaged (scoring path, batch
telemetry) and skips the speedup expectation.  Estimate *correctness*
is not re-proven here -- ``tests/core/test_sampled_scoring.py`` pins
seed-matched bit-identity against the reference sampler, and
``tests/core/test_kernels.py`` pins kernel bit-identity.

Usage::

    PYTHONPATH=src python benchmarks/bench_sampled_scoring.py [--quick]
        [--seed N] [--users N] [--movies N] [--candidates N]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import (  # noqa: E402
    DistanceComputer,
    MappingState,
    ScoringEngine,
    SummarizationConfig,
    enumerate_candidates,
    kernels,
)
from repro.datasets import MovieLensConfig, generate_movielens  # noqa: E402

RESULTS_PATH = Path(__file__).parent / "results" / "sampled_scoring.txt"
RESULTS_JSON_PATH = Path(__file__).parent / "results" / "sampled_scoring.json"


def build_problem(n_users: int, n_movies: int, seed: int = 0):
    """MovieLens-style provenance; the cancel-one-annotation class
    cancels one user each, so its size tracks ``n_users`` (and the
    ``16 x |V|`` budget clamp with it -- 64 users admit the 1024
    batch)."""
    return generate_movielens(
        MovieLensConfig(
            n_users=n_users,
            n_movies=n_movies,
            min_ratings_per_user=3,
            max_ratings_per_user=5,
            valuation_class="annotation",
            seed=seed,
        )
    ).problem()


def measure_best(repeats, problem, candidates, batch, seed, reference=False):
    """Best-of-``repeats`` wall-clock of a step measurement.

    Single-digit-millisecond steps on a shared single core are noisy;
    the minimum over a few repeats is the standard stable estimator
    (the same policy as ``bench_mask_build.time_best``)."""
    engine, seconds = None, None
    for _ in range(repeats):
        engine, _, elapsed = measure_step(
            problem, candidates, batch, seed, reference
        )
        seconds = elapsed if seconds is None else min(seconds, elapsed)
    return engine, seconds


def measure_step(problem, candidates, batch, seed, reference=False):
    """Wall-clock of one full step measurement (scorer construction --
    batch drawing, mask packing -- included, unlike the engine's own
    scoring-seconds telemetry).  ``reference`` measures through the
    engine's naive path instead of its default dispatch."""
    config = SummarizationConfig(max_enumerate=0, distance_samples=batch, seed=seed)
    computer = DistanceComputer(
        problem.expression,
        problem.valuations,
        problem.val_func,
        problem.combiners,
        problem.universe,
        max_enumerate=0,
        n_samples=batch,
        rng=random.Random(seed),
    )
    engine = ScoringEngine(problem, config, computer)
    current = problem.expression
    mapping = MappingState(sorted(current.annotation_names()))
    measure = engine._measure_naive if reference else engine.measure
    started = time.perf_counter()
    measured, _ = measure(candidates, current, mapping)
    elapsed = time.perf_counter() - started
    return engine, measured, elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", "--smoke", dest="quick", action="store_true",
        help="CI smoke: small instance",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="instance-generation and sampling RNG seed",
    )
    parser.add_argument("--users", type=int, default=64)
    parser.add_argument("--movies", type=int, default=60)
    parser.add_argument(
        "--candidates", type=int, default=300,
        help="candidate pairs scored per configuration",
    )
    args = parser.parse_args(argv)

    if args.quick:
        # Batch 256 rides along so the kernel-speedup floor in
        # check_regression.py has a >= 256 row to look at.
        n_users, n_movies, n_candidates, batches = 24, 30, 40, [64, 256]
    else:
        n_users, n_movies, n_candidates = args.users, args.movies, args.candidates
        batches = [64, 256, 1024]

    problem = build_problem(n_users, n_movies, seed=args.seed)
    candidates = enumerate_candidates(
        problem.expression, problem.universe, problem.constraint
    )[:n_candidates]
    if not candidates:
        print("FAIL: the instance produced no candidates")
        return 1

    rows = []
    # The reference run costs seconds per measurement (stable); the
    # packed runs cost tens of milliseconds and need best-of to beat
    # scheduler noise.
    packed_repeats = 1 if args.quick else 3
    for batch in batches:
        ref_engine, ref_seconds = measure_best(
            1 if args.quick else 2,
            problem, candidates, batch, args.seed, reference=True,
        )
        packed_engine, packed_seconds = measure_best(
            packed_repeats, problem, candidates, batch, args.seed
        )
        if ref_engine.last_path != ScoringEngine.PATH_NAIVE:
            print(
                f"FAIL: reference mode took path {ref_engine.last_path!r}, "
                "expected 'naive'"
            )
            return 1
        if packed_engine.last_path != ScoringEngine.PATH_SAMPLED_INCREMENTAL:
            print(
                f"FAIL: packed mode took path {packed_engine.last_path!r}, "
                "the sampled kernel never engaged"
            )
            return 1
        if packed_engine.last_sample_batch != batch:
            print(
                f"FAIL: packed batch telemetry {packed_engine.last_sample_batch} "
                f"!= requested {batch} (budget clamp? raise --users)"
            )
            return 1
        row = {
            "batch": batch,
            "candidates": len(candidates),
            "reference_seconds": ref_seconds,
            "packed_seconds": packed_seconds,
            "speedup": ref_seconds / packed_seconds if packed_seconds else None,
            "packed_batch_variance": packed_engine.last_sample_variance,
            "kernel": packed_engine.last_kernel,
        }
        if kernels.active_backend() == kernels.MODE_NATIVE:
            # The same packed step under the pure-python reference
            # kernels: the acceleration win in isolation.
            with kernels.backend(kernels.MODE_PYTHON):
                _, python_seconds = measure_best(
                    packed_repeats, problem, candidates, batch, args.seed
                )
            row["kernel_python_seconds"] = python_seconds
            row["kernel_speedup"] = (
                python_seconds / packed_seconds if packed_seconds else None
            )
        rows.append(row)

    lines = [
        f"instance: movielens n_users={n_users} n_movies={n_movies} "
        f"candidates={len(candidates)} seed={args.seed} cores={os.cpu_count()} "
        f"kernel={kernels.active_backend()}",
        "",
        f"{'batch':>6} {'reference(s)':>13} {'packed(s)':>10} {'speedup':>9} "
        f"{'kernel-speedup':>14}",
    ]
    for row in rows:
        kernel_speedup = row.get("kernel_speedup")
        kernel_cell = (
            f"{kernel_speedup:>13.1f}x" if kernel_speedup else f"{'-':>14}"
        )
        lines.append(
            f"{row['batch']:>6} {row['reference_seconds']:>13.3f} "
            f"{row['packed_seconds']:>10.3f} {row['speedup']:>8.1f}x "
            f"{kernel_cell}"
        )
    lines.append("")
    lines.append(
        "estimates are seed-matched bit-identical to the reference sampler "
        "(tests/core/test_sampled_scoring.py)"
    )
    body = "\n".join(lines)
    print(body)

    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(body + "\n")
    print(f"\nwritten to {RESULTS_PATH}")

    payload = {
        "benchmark": "sampled_scoring",
        "quick": args.quick,
        "kernel": kernels.active_backend(),
        "instance": {
            "dataset": "movielens",
            "n_users": n_users,
            "n_movies": n_movies,
            "candidates": len(candidates),
            "seed": args.seed,
            "cores": os.cpu_count(),
        },
        "rows": rows,
    }
    RESULTS_JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"written to {RESULTS_JSON_PATH}")

    if not args.quick:
        for row in rows:
            if row["batch"] >= 256 and (row["speedup"] or 0.0) < 5.0:
                print(
                    f"FAIL: speedup {row['speedup']:.1f}x at batch "
                    f"{row['batch']} < 5x acceptance target"
                )
                return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
