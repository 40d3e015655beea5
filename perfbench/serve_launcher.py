"""Start ``repro serve`` on a free port, optionally traced.

Runs the unchanged CLI entry point (``repro.cli.main(["serve", ...])``)
in this process.  With ``--trace-out FILE`` the layer wrappers of
:mod:`tracer` are installed first; ``POST /__bench/reset`` then ends
the set-up phase (it answers with the layer totals so far and starts
them from zero), and on SIGTERM -- after the CLI has drained and
returned -- the timed phase's totals are written to ``FILE``.

Usage::

    PYTHONPATH=src python3 -u perfbench/serve_launcher.py [--trace-out FILE]
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import tracer as _tracer

RESET_PATH = "/__bench/reset"


def _install_reset(tracer: _tracer.Tracer) -> None:
    from repro.prox import app

    dispatch = app.ProxApp.dispatch

    @functools.wraps(dispatch)
    def reset_or_dispatch(self, method, path, *args, **kwargs):
        if path == RESET_PATH:
            setup = tracer.snapshot()
            tracer.reset()
            return 200, setup, "application/json", {}
        return dispatch(self, method, path, *args, **kwargs)

    app.ProxApp.dispatch = reset_or_dispatch


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_out is not None:
        tracer = _tracer.Tracer()
        _tracer.install(tracer)
        _install_reset(tracer)
    from repro import cli

    status = cli.main(["serve", "--port", "0"])
    if tracer is not None:
        args.trace_out.write_text(json.dumps(tracer.snapshot()))
    return status


if __name__ == "__main__":
    sys.exit(main())
