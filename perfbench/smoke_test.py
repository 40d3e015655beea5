"""Smoke self-test of the benchmark: every workload at a tiny size.

For each workload, runs ``run.py`` once untraced and once traced with
``--seconds 1`` on the default seed and asserts that

* the last line has exactly ``correct``, ``attempted``, ``failed`` and
  ``metrics``, with ``correct`` true and zero failed ops;
* the untraced run prints every end-to-end metric of
  ``BENCHMARK.json`` with its unit, and the traced run every per-layer
  metric;
* the library workloads' ops were checked against committed golden
  fingerprints (the default seed's op seeds are in ``golden.json``).

Run from the root of a source checkout (about two minutes)::

    python3 perfbench/smoke_test.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
LIBRARY = ("exact_movielens", "sampled_wikipedia", "naive_ddp")


def run(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(DEFAULT_SEED),
            "--seconds", "1",
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def check(workload: str, trace: int, wanted) -> None:
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1, result
    printed = {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    expected = {metric["name"]: metric["unit"] for metric in wanted}
    assert printed == expected, (workload, trace, printed, expected)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), (name, metric)
    print(f"ok {workload} trace={trace} attempted={result['attempted']}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads((HERE / "golden.json").read_text())
    for workload in LIBRARY:
        op_seed = str(DEFAULT_SEED * 1000)
        assert op_seed in golden.get(workload, {}), (workload, "no golden")
    names = [workload["name"] for workload in spec["workloads"]]
    for workload in names:
        check(workload, 0, spec["end_to_end"])
        check(workload, 1, spec["per_layer"])
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
