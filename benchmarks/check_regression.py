#!/usr/bin/env python
"""Perf-regression gate: diff fresh benchmark JSONs against baselines.

Compares the committed ``benchmarks/results/*.json`` baselines with a
fresh run of the same benchmarks and fails (exit 1) when a headline
metric regressed beyond tolerance.  Wired into CI after the benchmark
smoke steps::

    cp -r benchmarks/results /tmp/committed-results
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke
    ...
    python benchmarks/check_regression.py \
        --baseline /tmp/committed-results --fresh benchmarks/results

Two comparison regimes, chosen per family by *config fingerprint*
(the ``quick`` flag plus the ``instance`` block, minus ``cores``):

* **Fingerprints match** (same machine shape, same workload): every
  direction-tagged headline metric is diffed; a higher-is-better
  metric dropping -- or a lower-is-better metric rising -- by more
  than ``--tolerance`` (default 25%) is a regression.
* **Fingerprints differ** (e.g. CI smoke run vs the committed full
  run): ratios are meaningless, so the family's *floor* invariants
  are asserted instead -- the properties any healthy run must have
  regardless of scale (speedups > 1, no serving errors, nonzero
  invalidation on adversarial schedules).

Families: sampled_scoring, mask_build, streaming_ingest, serving.  A
family missing on either side is reported and skipped (CI only re-runs
a subset).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: family -> (json filename, [(path, direction), ...]) where ``path``
#: walks the payload (list segments iterate) and ``direction`` is
#: "higher" or "lower" (better).
FAMILIES = {
    "sampled_scoring": (
        "sampled_scoring.json",
        [
            (("rows", "speedup"), "higher"),
            (("rows", "kernel_speedup"), "higher"),
        ],
    ),
    "mask_build": (
        "mask_build.json",
        [(("rows", "speedup"), "higher")],
    ),
    "streaming_ingest": (
        "streaming_ingest.json",
        [
            (("schedules", "speedup"), "higher"),
            (("schedules", "ingest_deltas_per_second"), "higher"),
        ],
    ),
    "serving": (
        "serving.json",
        [
            (("levels", "overall", "p99_ms"), "lower"),
            (("levels", "throughput_rps"), "higher"),
        ],
    ),
}


def _fingerprint(payload):
    """The workload identity two runs must share to be ratio-comparable.

    The kernel backend is part of the identity: a python run diffed
    against a committed native baseline (or vice versa) would report
    the backend gap as a regression.
    """
    instance = dict(payload.get("instance", {}))
    instance.pop("cores", None)
    return (
        payload.get("quick"),
        payload.get("kernel"),
        tuple(sorted(instance.items())),
    )


def _extract(payload, path, label=""):
    """Yield ``(label, value)`` for every leaf the path reaches."""
    head, rest = path[0], path[1:]
    node = payload.get(head) if isinstance(payload, dict) else None
    if node is None:
        return
    if isinstance(node, list):
        for index, entry in enumerate(node):
            key = entry.get("mode") or entry.get("schedule") or \
                entry.get("concurrency") or entry.get("batch") or index
            tag = f"{label}{head}[{key}]"
            if rest:
                yield from _extract(entry, rest, tag + ".")
            elif isinstance(entry, (int, float)):
                yield tag, float(entry)
    elif rest:
        yield from _extract(node, rest, f"{label}{head}.")
    elif isinstance(node, (int, float)):
        yield f"{label}{head}", float(node)


def _diff_family(name, metrics, baseline, fresh, tolerance):
    """Fingerprints matched: ratio-compare every headline metric."""
    failures = []
    checked = 0
    for path, direction in metrics:
        base_values = dict(_extract(baseline, path))
        fresh_values = dict(_extract(fresh, path))
        for label, base in base_values.items():
            new = fresh_values.get(label)
            if new is None or base == 0:
                continue
            checked += 1
            change = (new - base) / base
            regressed = (
                change < -tolerance
                if direction == "higher"
                else change > tolerance
            )
            if regressed:
                failures.append(
                    f"{name}: {label} ({direction} is better) "
                    f"{base:.3f} -> {new:.3f} ({change:+.0%}, "
                    f"tolerance ±{tolerance:.0%})"
                )
    return checked, failures


def _floors_family(name, fresh):
    """Fingerprints differed: assert scale-free health invariants."""
    failures = []
    if name == "sampled_scoring":
        for row in fresh.get("rows", []):
            if row.get("speedup", 0) <= 1.0:
                failures.append(
                    f"{name}: batch {row.get('batch')} packed scoring "
                    f"did not beat the reference ({row.get('speedup')}x)"
                )
            # The native kernels must deliver a real win over the
            # pure-python reference at vector-friendly batch sizes (at
            # small batches construction dominates, so no floor there).
            # Native clears 2x at batch 256 even on the quick instance;
            # 1.25 leaves noise headroom.
            kernel_speedup = row.get("kernel_speedup")
            if (
                kernel_speedup is not None
                and row.get("batch", 0) >= 256
                and kernel_speedup <= 1.25
            ):
                failures.append(
                    f"{name}: batch {row.get('batch')} accelerated "
                    f"kernels did not beat the python reference "
                    f"({kernel_speedup}x, floor 1.25x)"
                )
    elif name == "mask_build":
        # Mirrors the bench's own full-mode gate: once rows are wide
        # enough that scatter work dominates interpreter overhead, the
        # packed build must not lose to the seed bigint loop.  Quick
        # runs stop below 4096 valuations, so the floor is vacuous
        # there (the bench's bit-identity tripwire still ran).
        for row in fresh.get("rows", []):
            if row.get("n_vals", 0) >= 4096 and row.get("speedup", 0) < 1.0:
                failures.append(
                    f"{name}: n_vals {row.get('n_vals')} packed build "
                    f"slower than the bigint loop ({row.get('speedup')}x)"
                )
    elif name == "streaming_ingest":
        for schedule in fresh.get("schedules", []):
            if schedule.get("speedup", 0) <= 1.0:
                failures.append(
                    f"{name}: schedule {schedule['schedule']} repair did "
                    f"not beat recompute ({schedule.get('speedup')}x)"
                )
            if (
                schedule["schedule"] == "classmerge"
                and schedule.get("invalidated", 0) <= 0
            ):
                failures.append(
                    f"{name}: classmerge schedule invalidated nothing"
                )
    elif name == "serving":
        levels = fresh.get("levels", [])
        if len(levels) < 2:
            failures.append(f"{name}: fewer than two concurrency levels")
        for level in levels:
            if level.get("errors", 0):
                failures.append(
                    f"{name}: concurrency {level.get('concurrency')} saw "
                    f"{level['errors']} failed requests"
                )
            if level.get("completed") != level.get("requests"):
                failures.append(
                    f"{name}: concurrency {level.get('concurrency')} lost "
                    f"requests ({level.get('completed')}/"
                    f"{level.get('requests')})"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path(__file__).parent / "results",
        help="directory of baseline JSONs (default: committed results)",
    )
    parser.add_argument(
        "--fresh", type=Path, required=True, help="directory of fresh JSONs"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional regression when fingerprints match",
    )
    args = parser.parse_args(argv)

    failures = []
    for name, (filename, metrics) in sorted(FAMILIES.items()):
        base_path = args.baseline / filename
        fresh_path = args.fresh / filename
        if not base_path.exists() or not fresh_path.exists():
            missing = "baseline" if not base_path.exists() else "fresh"
            print(f"SKIP {name}: no {missing} JSON")
            continue
        baseline = json.loads(base_path.read_text())
        fresh = json.loads(fresh_path.read_text())
        if _fingerprint(baseline) == _fingerprint(fresh):
            checked, family_failures = _diff_family(
                name, metrics, baseline, fresh, args.tolerance
            )
            verdict = "FAIL" if family_failures else "OK"
            print(
                f"{verdict} {name}: fingerprints match, "
                f"{checked} metrics diffed at ±{args.tolerance:.0%}"
            )
        else:
            family_failures = _floors_family(name, fresh)
            verdict = "FAIL" if family_failures else "OK"
            print(
                f"{verdict} {name}: fingerprints differ "
                f"(e.g. smoke vs full) -- floor invariants asserted"
            )
        failures.extend(family_failures)

    if failures:
        print("\nregressions detected:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("\nno regressions detected")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
