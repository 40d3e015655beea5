#!/usr/bin/env python
"""Streaming ingest throughput and summary repair vs. recompute.

Drives the streaming loop end to end: one session selects a MovieLens
instance, summarizes it, then ingests a schedule of provenance deltas
(:func:`~repro.datasets.movielens.generate_movielens_deltas`),
re-summarizing after every delta.  Two schedules run:

* ``append``  -- append-only ratings plus periodic new movies (the
  previous run's labels stay a positional prefix of the next run's).
  The headline number is the repair-vs-recompute speedup over the
  whole 10-delta schedule: the repair arm repairs every
  re-summarization's equivalence partition and carries the previous
  run's step-0 candidate pool and lazy-queue sizes across the delta,
  editing both for the delta's names; the recompute arm drops the
  session's repair state (``SummarizationService.reset_repair``)
  before every summarize, so it enumerates every candidate and sizes
  every one at step 0.  The ``sized`` columns count the candidate
  sizes step 0 computed over the schedule in each arm, which shows
  that the carry engages.  Both arms produce bit-identical summaries:
  the same terms, the same merged parts at every step, the same final
  size and the same ``repr`` of the final distance (asserted here and
  in ``tests/core/test_streaming_repair.py``).
* ``classmerge`` -- the adversarial variant: spam-flag deltas extend
  valuation false sets, merging previously-distinct equivalence
  classes, so carried pool entries mentioning the replaced summary
  annotations are invalidated and re-proposed.  The reported
  ``invalidated`` count mirrors ``prox_repair_invalidated_total`` and
  must be nonzero.

The table also reports raw ingest throughput (deltas/sec over
``ProxSession.ingest`` alone, no re-summarization).  Every timing --
repair, recompute and the ingest pass -- is best-of-``--trials``
``time.process_time`` (the repair-vs-recompute ratio is CPU work, not
I/O).  The JSON mirror lands in
``benchmarks/results/streaming_ingest.json`` (uploaded as a CI
artifact).

Acceptance (full mode): the append schedule's repair speedup must be
>= 3x over 10 deltas.  ``--quick`` runs a small spam-flagged instance
(CI smoke; one trial unless ``--trials`` is given): repair must beat
recompute, summaries must match, and the invalidated count must be
nonzero.

Usage::

    PYTHONPATH=src python benchmarks/bench_streaming_ingest.py [--quick]
        [--trials N] [--users N] [--movies N] [--steps N] [--deltas N]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.datasets.movielens import (  # noqa: E402
    MovieLensConfig,
    MovieLensDeltaConfig,
    generate_movielens,
    generate_movielens_deltas,
)
from repro.prox.session import ProxSession  # noqa: E402
from repro.prox.summarization import SummarizationRequest  # noqa: E402

RESULTS_PATH = Path(__file__).parent / "results" / "streaming_ingest.txt"
RESULTS_JSON_PATH = Path(__file__).parent / "results" / "streaming_ingest.json"


def build(users, movies, deltas, spam_every):
    """Instance plus delta schedule (seeds pinned for reproducibility)."""
    instance = generate_movielens(
        MovieLensConfig(
            n_users=users,
            n_movies=movies,
            min_ratings_per_user=2,
            max_ratings_per_user=3,
            seed=5,
        )
    )
    schedule = generate_movielens_deltas(
        instance,
        MovieLensDeltaConfig(
            n_deltas=deltas,
            min_ratings_per_delta=1,
            max_ratings_per_delta=1,
            new_movie_every=4,
            spam_flag_every=spam_every,
            seed=13,
        ),
    )
    return instance, schedule


def run_schedule(users, movies, steps, deltas, spam_every, repair):
    """One full streaming loop; returns the time, the invalidated
    count, the step-0 sizes computed and each run's answer.

    The clock covers ingest + re-summarization over the whole schedule
    -- the latency a live session actually observes per arriving delta.
    With ``repair`` false every re-summarization starts from scratch.
    """
    instance, schedule = build(users, movies, deltas, spam_every)
    request = SummarizationRequest(number_of_steps=steps)
    session = ProxSession(instance)
    session.select_titles(list(session.titles()))
    session.summarize(request)
    invalidated = 0
    sized = 0
    summaries = []
    started = time.process_time()
    for delta in schedule:
        session.ingest(delta)
        if not repair:
            session.summarization.reset_repair()
        result = session.summarize(request)
        invalidated += result.repair_invalidated
        if result.steps:
            sized += max(result.steps[0].n_sized, 0)
        summaries.append(answer(result))
    elapsed = time.process_time() - started
    return elapsed, invalidated, sized, summaries


def answer(result):
    """Everything a run must reproduce: the summary's terms, the parts
    merged at each step, the final size and the ``repr`` of the final
    distance (the perfbench fingerprint)."""
    return (
        tuple(result.summary_expression.terms),
        [record.merged for record in result.steps],
        result.final_size,
        repr(result.final_distance.normalized),
    )


def ingest_throughput(users, movies, deltas, spam_every, trials):
    """Deltas/sec through ``ProxSession.ingest`` alone, best of
    ``trials`` passes (each over a freshly built session)."""
    best = None
    for _ in range(trials):
        instance, schedule = build(users, movies, deltas, spam_every)
        session = ProxSession(instance)
        session.select_titles(list(session.titles()))
        started = time.process_time()
        for delta in schedule:
            session.ingest(delta)
        elapsed = time.process_time() - started
        if best is None or elapsed < best:
            best = elapsed
    return len(schedule) / best if best else float("inf")


def bench_schedule(label, users, movies, steps, deltas, spam_every, trials):
    repair_best = None
    recompute_best = None
    invalidated = 0
    for _ in range(trials):
        elapsed, inval, repair_sized, repaired = run_schedule(
            users, movies, steps, deltas, spam_every, True
        )
        if repair_best is None or elapsed < repair_best:
            repair_best = elapsed
            invalidated = inval
        elapsed, _, recompute_sized, recomputed = run_schedule(
            users, movies, steps, deltas, spam_every, False
        )
        if recompute_best is None or elapsed < recompute_best:
            recompute_best = elapsed
        if repaired != recomputed:
            raise AssertionError(
                f"{label}: repaired summaries diverged from recompute"
            )
    return {
        "schedule": label,
        "n_deltas": deltas,
        "spam_flag_every": spam_every,
        "repair_seconds": repair_best,
        "recompute_seconds": recompute_best,
        "speedup": recompute_best / repair_best if repair_best else None,
        "invalidated": invalidated,
        "repair_step0_sized": repair_sized,
        "recompute_step0_sized": recompute_sized,
        "ingest_deltas_per_second": ingest_throughput(
            users, movies, deltas, spam_every, trials
        ),
        "identical_summaries": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke: small instance")
    parser.add_argument(
        "--trials",
        type=int,
        default=None,
        help="best-of-N timing trials (default 3; 1 with --quick)",
    )
    parser.add_argument("--users", type=int, default=100)
    parser.add_argument("--movies", type=int, default=400)
    parser.add_argument("--steps", type=int, default=2)
    parser.add_argument("--deltas", type=int, default=10)
    args = parser.parse_args(argv)

    if args.quick:
        users, movies, steps, deltas = 56, 200, 2, 6
        schedules = [("classmerge", 3)]
        trials = 1 if args.trials is None else args.trials
    else:
        users, movies, steps, deltas = args.users, args.movies, args.steps, args.deltas
        schedules = [("append", 0), ("classmerge", 5)]
        trials = 3 if args.trials is None else args.trials

    rows = [
        bench_schedule(label, users, movies, steps, deltas, spam_every, trials)
        for label, spam_every in schedules
    ]

    lines = [
        f"instance: movielens n_users={users} n_movies={movies} "
        f"steps={steps} deltas={deltas} trials={trials} cores={os.cpu_count()}",
        "",
        f"{'schedule':<11} {'repair':>8} {'recomp':>8} {'speedup':>8} "
        f"{'invalidated':>12} {'sized':>7} {'(recomp)':>8} {'ingest/s':>9}",
    ]
    for row in rows:
        lines.append(
            f"{row['schedule']:<11} {row['repair_seconds']:>7.2f}s "
            f"{row['recompute_seconds']:>7.2f}s {row['speedup']:>7.2f}x "
            f"{row['invalidated']:>12} "
            f"{row['repair_step0_sized']:>7} {row['recompute_step0_sized']:>8} "
            f"{row['ingest_deltas_per_second']:>9.0f}"
        )
    lines.append("")
    lines.append(
        "sized: candidate sizes step 0 computed over the schedule "
        "(repair arm, recompute arm)"
    )
    lines.append("repaired and recomputed summaries identical on every schedule")
    body = "\n".join(lines)
    print(body)

    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(body + "\n")
    print(f"\nwritten to {RESULTS_PATH}")

    payload = {
        "benchmark": "streaming_ingest",
        "quick": args.quick,
        "instance": {
            "dataset": "movielens",
            "n_users": users,
            "n_movies": movies,
            "steps": steps,
            "deltas": deltas,
            "trials": trials,
            "cores": os.cpu_count(),
        },
        "schedules": rows,
    }
    RESULTS_JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"written to {RESULTS_JSON_PATH}")

    adversarial = next(r for r in rows if r["schedule"] == "classmerge")
    if adversarial["invalidated"] <= 0:
        print("FAIL: the class-merge schedule never invalidated a pool entry")
        return 1
    if adversarial["speedup"] is None or adversarial["speedup"] <= 1.0:
        print(
            f"FAIL: repair ({adversarial['repair_seconds']:.2f}s) did not beat "
            f"recompute ({adversarial['recompute_seconds']:.2f}s)"
        )
        return 1
    if not args.quick:
        headline = next(r for r in rows if r["schedule"] == "append")
        if headline["speedup"] is None or headline["speedup"] < 3.0:
            print(
                f"FAIL: append-schedule repair speedup "
                f"{headline['speedup']:.2f}x < 3x acceptance target"
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
