"""Setup shim for environments without the ``wheel`` package.

``pip install -e . --no-build-isolation --no-use-pep517`` uses this
legacy path; all metadata lives in ``pyproject.toml``.

When a C compiler is on PATH the native kernel shared object is
compiled best-effort at build time so ``REPRO_KERNEL=native`` starts
warm; any failure is silently ignored -- the backend also compiles
lazily on first use and degrades to python when it cannot.
"""

import sys
from pathlib import Path

from setuptools import setup


def _prebuild_native() -> None:
    src = Path(__file__).resolve().parent / "src"
    sys.path.insert(0, str(src))
    try:
        from repro.core.kernels.native.build import ensure_built

        ensure_built()
    except Exception:
        pass
    finally:
        sys.path.remove(str(src))


_prebuild_native()

setup()
