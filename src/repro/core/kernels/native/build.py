"""Compile-on-demand glue for the native kernel library.

The native backend is a plain C shared object (no Python.h) loaded
through ctypes, so "building" it is one compiler invocation.  The
probe path is: reuse a fresh build if one exists next to the source
(or in the per-user cache when the package directory is read-only),
otherwise find a C compiler and compile.  Every failure raises
:class:`NativeBuildError` with the real reason -- the resolution layer
in :mod:`repro.core.kernels` turns that into a structured
``kernel_fallback`` warning and degrades to python.

``-ffp-contract=off`` is load-bearing: without it GCC/Clang may fuse
``acc += delta * delta`` into an FMA, which rounds once instead of
twice and silently breaks the bit-identity contract.
"""

from __future__ import annotations

import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

SOURCE = Path(__file__).with_name("_prox_native.c")

#: Flags that must accompany every build; see module docstring.
CFLAGS = ["-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math"]


class NativeBuildError(RuntimeError):
    """The native library cannot be produced on this machine."""


def _object_name() -> str:
    tag = f"{sys.platform}-{platform.machine()}"
    return f"_prox_native-{tag}.so"


def shared_object_path() -> Path:
    """Preferred location: next to the C source, arch-tagged."""
    return SOURCE.with_name(_object_name())


def cache_object_path() -> Path:
    """Fallback when the package directory is not writable."""
    root = Path(
        os.environ.get("XDG_CACHE_HOME", Path.home() / ".cache")
    )
    return root / "repro-native" / _object_name()


def find_compiler() -> Optional[str]:
    for name in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if name and shutil.which(name):
            return name
    return None


def _is_fresh(target: Path) -> bool:
    try:
        return (
            target.exists()
            and target.stat().st_mtime >= SOURCE.stat().st_mtime
        )
    except OSError:
        return False


def _compile_into(compiler: str, target: Path) -> None:
    target.parent.mkdir(parents=True, exist_ok=True)
    # Build to a temp file in the target directory, then atomically
    # replace: concurrent builders race harmlessly.
    handle, temp_name = tempfile.mkstemp(
        suffix=".so", prefix=".prox-build-", dir=str(target.parent)
    )
    os.close(handle)
    cmd: List[str] = [compiler, *CFLAGS, "-o", temp_name, str(SOURCE), "-lm"]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            detail = (proc.stderr or proc.stdout or "").strip()[-500:]
            raise NativeBuildError(
                f"{compiler} failed (exit {proc.returncode}): {detail}"
            )
        os.replace(temp_name, target)
    except (OSError, subprocess.SubprocessError) as exc:
        raise NativeBuildError(f"compile failed: {exc}") from exc
    finally:
        try:
            os.unlink(temp_name)
        except OSError:
            pass


def ensure_built(force: bool = False) -> Path:
    """Return a fresh shared object, compiling if needed."""
    if not SOURCE.exists():
        raise NativeBuildError(f"source missing: {SOURCE}")
    primary = shared_object_path()
    fallback = cache_object_path()
    if not force:
        for target in (primary, fallback):
            if _is_fresh(target):
                return target
    compiler = find_compiler()
    if compiler is None:
        raise NativeBuildError(
            "no C compiler on PATH (tried $CC, cc, gcc, clang)"
        )
    if os.access(primary.parent, os.W_OK):
        _compile_into(compiler, primary)
        return primary
    _compile_into(compiler, fallback)
    return fallback
