"""The perf-regression gate: fingerprint regimes, tolerances, floors."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).parent.parent / "benchmarks" / "check_regression.py"
_spec = importlib.util.spec_from_file_location("check_regression", _SCRIPT)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)


def _serving(quick, p99_by_level, rps=10.0, errors=0, lost=0):
    return {
        "benchmark": "serving",
        "quick": quick,
        "instance": {
            "dataset": "movielens",
            "n_users": 80,
            "n_movies": 300,
            "requests_per_worker": 25,
            "levels": sorted(p99_by_level),
            "cores": 8 if quick else 1,  # cores never affect the fingerprint
        },
        "levels": [
            {
                "concurrency": concurrency,
                "requests": 50,
                "completed": 50 - lost,
                "errors": errors,
                "throughput_rps": rps,
                "overall": {"p50_ms": p99 / 10, "p99_ms": p99},
            }
            for concurrency, p99 in sorted(p99_by_level.items())
        ],
    }


def _streaming(quick, speedups, invalidated=3):
    return {
        "benchmark": "streaming_ingest",
        "quick": quick,
        "instance": {"dataset": "movielens", "n_users": 40},
        "schedules": [
            {"schedule": schedule, "speedup": speedup, "invalidated": invalidated}
            for schedule, speedup in speedups.items()
        ],
    }


def _write(directory, **payloads):
    directory.mkdir(parents=True, exist_ok=True)
    for name, payload in payloads.items():
        (directory / f"{name}.json").write_text(json.dumps(payload))


@pytest.fixture
def dirs(tmp_path):
    return tmp_path / "baseline", tmp_path / "fresh"


def run(baseline, fresh, capsys, tolerance=None):
    argv = ["--baseline", str(baseline), "--fresh", str(fresh)]
    if tolerance is not None:
        argv += ["--tolerance", str(tolerance)]
    code = check_regression.main(argv)
    return code, capsys.readouterr().out


# -- matched fingerprints: ratio diffs -----------------------------------------


def test_identical_runs_pass(dirs, capsys):
    baseline, fresh = dirs
    payload = _serving(False, {2: 400.0, 8: 3000.0})
    _write(baseline, serving=payload)
    _write(fresh, serving=payload)
    code, out = run(baseline, fresh, capsys)
    assert code == 0
    assert "OK serving: fingerprints match" in out
    assert "no regressions detected" in out


def test_within_tolerance_drift_passes(dirs, capsys):
    baseline, fresh = dirs
    _write(baseline, serving=_serving(False, {2: 400.0}, rps=10.0))
    # p99 +20%, throughput -20%: both inside the ±25% default
    _write(fresh, serving=_serving(False, {2: 480.0}, rps=8.0))
    code, _ = run(baseline, fresh, capsys)
    assert code == 0


def test_lower_is_better_regression_fails(dirs, capsys):
    baseline, fresh = dirs
    _write(baseline, serving=_serving(False, {2: 400.0, 8: 3000.0}))
    _write(fresh, serving=_serving(False, {2: 900.0, 8: 3000.0}))  # p99 +125%
    code, out = run(baseline, fresh, capsys)
    assert code == 1
    assert "FAIL serving" in out
    assert "levels[2].overall.p99_ms (lower is better)" in out
    assert "+125%" in out


def test_higher_is_better_regression_fails(dirs, capsys):
    baseline, fresh = dirs
    _write(baseline, streaming_ingest=_streaming(False, {"append": 6.0}))
    _write(fresh, streaming_ingest=_streaming(False, {"append": 3.0}))
    code, out = run(baseline, fresh, capsys)
    assert code == 1
    assert "schedules[append].speedup (higher is better) 6.000 -> 3.000" in out


def test_improvements_never_fail(dirs, capsys):
    baseline, fresh = dirs
    _write(baseline, serving=_serving(False, {2: 400.0}, rps=10.0))
    _write(fresh, serving=_serving(False, {2: 100.0}, rps=40.0))
    code, _ = run(baseline, fresh, capsys)
    assert code == 0


def test_tolerance_is_configurable(dirs, capsys):
    baseline, fresh = dirs
    _write(baseline, serving=_serving(False, {2: 400.0}))
    _write(fresh, serving=_serving(False, {2: 480.0}))  # +20%
    code, _ = run(baseline, fresh, capsys, tolerance=0.1)
    assert code == 1


# -- differing fingerprints: floor invariants ----------------------------------


def test_smoke_vs_full_asserts_floors_not_ratios(dirs, capsys):
    baseline, fresh = dirs
    _write(baseline, serving=_serving(False, {2: 400.0, 8: 3000.0}))
    # a much slower smoke run is fine: only the floors matter
    _write(fresh, serving=_serving(True, {2: 4000.0, 4: 9000.0}, rps=1.0))
    code, out = run(baseline, fresh, capsys)
    assert code == 0
    assert "fingerprints differ" in out
    assert "floor invariants asserted" in out


def test_serving_floor_rejects_errors_and_lost_requests(dirs, capsys):
    baseline, fresh = dirs
    _write(baseline, serving=_serving(False, {2: 400.0, 8: 3000.0}))
    _write(fresh, serving=_serving(True, {2: 500.0, 4: 900.0}, errors=2, lost=1))
    code, out = run(baseline, fresh, capsys)
    assert code == 1
    assert "failed requests" in out
    assert "lost" in out


def test_serving_floor_requires_two_levels(dirs, capsys):
    baseline, fresh = dirs
    _write(baseline, serving=_serving(False, {2: 400.0}))
    _write(fresh, serving=_serving(True, {2: 500.0}))
    code, out = run(baseline, fresh, capsys)
    assert code == 1
    assert "fewer than two concurrency levels" in out


def test_streaming_floor_requires_repair_to_win(dirs, capsys):
    baseline, fresh = dirs
    _write(baseline, streaming_ingest=_streaming(False, {"append": 3.0}))
    _write(fresh, streaming_ingest=_streaming(True, {"append": 0.9}))
    code, out = run(baseline, fresh, capsys)
    assert code == 1
    assert "repair did not beat recompute" in out


# -- plumbing ------------------------------------------------------------------


def test_missing_families_are_skipped_not_failed(dirs, capsys):
    baseline, fresh = dirs
    _write(baseline, serving=_serving(False, {2: 400.0, 8: 3000.0}))
    _write(fresh)  # empty fresh directory: CI re-ran nothing
    code, out = run(baseline, fresh, capsys)
    assert code == 0
    assert "SKIP serving: no fresh JSON" in out


def test_fingerprint_ignores_cores_but_not_workload():
    fingerprint = check_regression._fingerprint
    full = _serving(False, {2: 400.0})
    other_cores = _serving(False, {2: 400.0})
    other_cores["instance"]["cores"] = 64
    assert fingerprint(full) == fingerprint(other_cores)
    assert fingerprint(full) != fingerprint(_serving(True, {2: 400.0}))
    bigger = _serving(False, {2: 400.0})
    bigger["instance"]["n_users"] = 999
    assert fingerprint(full) != fingerprint(bigger)
