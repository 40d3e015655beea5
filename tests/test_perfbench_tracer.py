"""The benchmark's per-layer tracer still finds every name it wraps.

``perfbench/tracer.py`` times layers by wrapping engine, pool,
summarize, server and kernel attributes by name.  A renamed or deleted
one raises ``AttributeError`` at install, and the traced benchmark run
dies before it reports ("child exited before READY").  This installs
the tracer in a child interpreter, as the traced run does.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_every_named_layer():
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import tracer; tracer.install(tracer.Tracer()); print('installed')",
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "AttributeError" not in done.stderr, done.stderr
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["installed"]
