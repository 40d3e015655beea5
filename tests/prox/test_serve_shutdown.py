"""``repro serve`` shutdown: snapshots land where they are meant to.

Without ``--snapshot-dir`` the session manager snapshots into a
``tempfile.mkdtemp`` directory of its own.  No later process reads it,
so a SIGTERM drain must not leave it (or its ``.snap`` files) in the
temp dir.  With ``--snapshot-dir`` the drained snapshots are durable:
they must still be in that directory after the process exits.  Both
hold in-process and sharded alike, and the exit code stays 0.
"""

import http.client
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


def _call(address, method, path, body=None):
    host, port = address
    connection = http.client.HTTPConnection(host, port, timeout=120)
    payload = json.dumps(body) if body is not None else None
    headers = {"Content-Type": "application/json"} if payload else {}
    connection.request(method, path, body=payload, headers=headers)
    response = connection.getresponse()
    data = json.loads(response.read())
    connection.close()
    return response.status, data


def _serve(tmp_path, *extra):
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["TMPDIR"] = str(tmp_path)
    env["PYTHONPATH"] = str(SRC)
    server = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "serve", "--port", "0", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    line = server.stdout.readline()
    if "http://" not in line:
        server.kill()
        server.wait()
        pytest.fail(f"server did not start: {line!r}")
    host, port = line.split("http://", 1)[1].split()[0].rsplit(":", 1)
    return server, (host, int(port))


def _shut_down(server):
    server.send_signal(signal.SIGTERM)
    output, _ = server.communicate(timeout=60)
    return server.returncode, output


def _select_one_session(address, workers):
    """Make one live, snapshotable session; returns its id (``None``
    for the in-process default session)."""
    if workers:
        status, created = _call(address, "POST", "/sessions", {"seed": 1})
        assert status == 201, created
        session_id = created["session_id"]
        prefix = f"/sessions/{session_id}"
    else:
        session_id, prefix = None, ""
    # A selected session is live and snapshotable: the drain writes it.
    status, body = _call(address, "POST", f"{prefix}/select", {"genre": None})
    assert status == 200, body
    return session_id


@pytest.mark.parametrize("workers", [0, 2])
def test_sigterm_leaves_no_snapshot_directory(tmp_path, workers):
    server, address = _serve(tmp_path, "--workers", str(workers))
    try:
        _select_one_session(address, workers)
    finally:
        returncode, output = _shut_down(server)
    assert returncode == 0, output
    assert "drained:" in output and "shutdown complete" in output
    assert list(tmp_path.glob("prox-snapshots-*")) == [], output


@pytest.mark.parametrize("workers", [0, 2])
def test_sigterm_keeps_drained_snapshots_in_the_snapshot_dir(tmp_path, workers):
    snapshots = tmp_path / "snapshots"
    server, address = _serve(
        tmp_path, "--workers", str(workers), "--snapshot-dir", str(snapshots)
    )
    try:
        session_id = _select_one_session(address, workers)
    finally:
        returncode, output = _shut_down(server)
    assert returncode == 0, output
    assert "drained:" in output and "shutdown complete" in output
    kept = sorted(path.name for path in snapshots.glob("*.snap"))
    assert len(kept) == 1, output
    if session_id is not None:
        assert kept == [f"{session_id}.snap"], output
    assert list(tmp_path.glob("prox-snapshots-*")) == [], output
