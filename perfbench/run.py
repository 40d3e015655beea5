"""PROX end-to-end benchmark: one workload, one seed, one result line.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload exact_movielens --seed 1 \\
        --seconds 30 --trace 0

Every measured run happens in a fresh child process
(``perfbench/workload.py``) with a fixed ``PYTHONHASHSEED``, no
``REPRO_*`` variables and a benchmark-owned ``XDG_CACHE_HOME`` and
``TMPDIR`` under ``perfbench/.cache``.  With
``--trace 0`` the child is set up three times (two set-up-only
processes, then the measured one) and ``setup_s`` is the median; the
last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}`` with every end-to-end metric.  With ``--trace 1`` an
untraced and a traced child run the same inputs and the last line
carries the per-layer metrics instead.  The line before it is a
``detail`` object: the environment, the serve per-type medians and the
first errors, if any.

Exits non-zero, printing no result, when the checkout has no
``src/repro`` or a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = HERE / ".cache"
PREFLIGHT_MARK = CACHE / "preflight.done"
#: TMPDIR of this run's children (the server's drain snapshots land
#: there); removed when the run ends.
RUN_TMP = CACHE / f"tmp-{os.getpid()}"
WORKLOADS = ("exact_movielens", "sampled_wikipedia", "naive_ddp", "serve_ingest")
SETUPS = 3
SEED_RANGE = 10**6
CHILD_TIMEOUT_S = 170.0
SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "prox-shm-"

sys.path.insert(0, str(HERE))


def child_env() -> dict:
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONHASHSEED"] = "0"
    env["XDG_CACHE_HOME"] = str(CACHE)
    env["TMPDIR"] = str(RUN_TMP)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONUNBUFFERED"] = "1"
    return env


class Child:
    """One ``workload.py`` process; ``setup_s`` is spawn → ``READY``."""

    def __init__(self, args, extra=()):
        command = [
            sys.executable,
            str(HERE / "workload.py"),
            args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            *extra,
        ]
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        self._watchdog = threading.Timer(CHILD_TIMEOUT_S, self.kill)
        self._watchdog.start()

    def wait_ready(self) -> float:
        """Block until the child has set up; returns ``setup_s``."""
        for line in self.process.stdout:
            if line.strip() == "READY":
                return time.perf_counter() - self.started
        self.finish()
        raise RuntimeError(f"child exited before READY ({self.process.returncode})")

    def result(self) -> dict:
        result = None
        for line in self.process.stdout:
            if line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        self.finish()
        if self.process.returncode != 0 or result is None:
            raise RuntimeError(f"child failed with exit code {self.process.returncode}")
        check_hygiene(self.process.pid, result.get("server_pid"))
        return result

    def kill(self) -> None:
        """Kill the child's whole process group (server, pool workers)."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def finish(self) -> None:
        self.process.stdout.close()
        self.process.wait()
        self._watchdog.cancel()


def check_hygiene(*pids) -> None:
    """No shared-memory segment or process of a finished child is left."""
    for pid in filter(None, pids):
        if Path(f"/proc/{pid}").exists() and _state(pid) != "Z":
            raise RuntimeError(f"process {pid} outlived its run")
        if SHM_DIR.is_dir():
            leaked = [
                entry.name for entry in SHM_DIR.iterdir()
                if entry.name.startswith(f"{SHM_PREFIX}{pid}-")
            ]
            if leaked:
                raise RuntimeError(f"shared-memory segments left behind: {leaked}")


def _state(pid: int) -> str:
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return "gone"


def environment(kernel: str) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    gcc = shutil.which("gcc")
    gcc_version = None
    if gcc:
        gcc_version = subprocess.run(
            [gcc, "-dumpfullversion"], capture_output=True, text=True, check=False
        ).stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "gcc": gcc_version,
        "kernel": kernel,
    }


def preflight(args) -> None:
    """Once per checkout: compile bytecode and fill caches, discarded."""
    if PREFLIGHT_MARK.exists():
        return
    child = Child(args, ["--setup-only"])
    child.wait_ready()
    child.finish()
    PREFLIGHT_MARK.write_text("ok\n")


def steal_s() -> float:
    """CPU time the host took from this machine's CPUs so far."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def end_to_end(args) -> tuple:
    steal_before = steal_s()
    setups = []
    for _ in range(SETUPS - 1):
        child = Child(args, ["--setup-only"])
        setups.append(child.wait_ready())
        child.finish()
    child = Child(args)
    setups.append(child.wait_ready())
    result = child.result()
    metrics = {"setup_s": statistics.median(setups)}
    for name in ("run_s", "cpu_s", "peak_rss_mb", "op_p50_ms"):
        metrics[name] = result[name]
    detail = {
        "setups_s": setups,
        "host_steal_s": steal_s() - steal_before,
        "serve": result.get("serve"),
    }
    return result, metrics, detail


def per_layer(args) -> tuple:
    import tracer as _tracer

    plain = Child(args)
    plain.wait_ready()
    plain = plain.result()
    traced = Child(args, ["--trace", "--trace-out", str(CACHE / f"trace-{os.getpid()}.json")])
    traced.wait_ready()
    result = traced.result()
    layers = _tracer.layer_metrics(result["trace"])
    layers["datasets.generate_s"] = result["setup"]["self_s"].get("datasets.generate", 0.0)
    repair = result.get("repair", {})
    for name in ("repair.repaired", "repair.seeded", "repair.invalidated"):
        layers[name] = repair.get(name, 0)
    layers["prox.dispatch_ms"] = result.get("dispatch_ms", 0.0)
    layers["prox.outside_ms"] = result.get("outside_ms", 0.0)
    total = layers["summarize.total_s"]
    layers["trace.coverage"] = (
        1.0 - layers["summarize.self_s"] / total if total else 0.0
    )
    layers["trace.overhead_s"] = result["run_s"] - plain["run_s"]
    result["attempted"] += plain["attempted"]
    result["failed"] += plain["failed"]
    result["errors"] = plain["errors"] + result["errors"]
    detail = {
        "untraced_run_s": plain["run_s"],
        "untraced_op_p50_ms": plain["op_p50_ms"],
        "traced_run_s": result["run_s"],
        "traced_ops": result["attempted"] - plain["attempted"],
        "latency_split": result.get("latency_split"),
    }
    return result, layers, detail


def with_units(metrics: dict, kind: str) -> dict:
    """``{name: {"value", "unit"}}`` in ``BENCHMARK.json``'s order and
    units; every metric listed there must have been measured."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    return {
        entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
        for entry in spec
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--update-golden",
        action="store_true",
        help="record this run's library fingerprints in golden.json",
    )
    args = parser.parse_args(argv)
    given_seed = args.seed
    # Any integer is a seed; op seeds are ``seed * 1000 + index``, so
    # the children get it folded into [0, SEED_RANGE).
    args.seed %= SEED_RANGE
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    RUN_TMP.mkdir(parents=True, exist_ok=True)
    try:
        preflight(args)
        if args.trace:
            result, metrics, detail = per_layer(args)
            metrics = with_units(metrics, "per_layer")
        else:
            result, metrics, detail = end_to_end(args)
            metrics = with_units(metrics, "end_to_end")
    finally:
        shutil.rmtree(RUN_TMP, ignore_errors=True)
    if args.update_golden:
        update_golden(args.workload, result)

    detail.update(
        workload=args.workload,
        seed=given_seed,
        instance_seed=args.seed,
        environment=environment(result.get("kernel", "")),
        errors=result["errors"],
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def update_golden(workload: str, result: dict) -> None:
    path = HERE / "golden.json"
    golden = json.loads(path.read_text()) if path.exists() else {}
    golden.setdefault(workload, {}).update(result.get("fingerprints", {}))
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        sys.exit(1)
