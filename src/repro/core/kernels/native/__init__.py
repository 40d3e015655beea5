"""Native kernel package: C source, build glue, ctypes loader.

``load_library()`` returns the configured :class:`ctypes.CDLL`
(compiling on demand via :mod:`.build`); it raises
:class:`NativeBuildError` when the library cannot be produced or
loaded, which the kernel resolution layer reports as a structured
``kernel_fallback`` and degrades past.
"""

from __future__ import annotations

import ctypes
from typing import Optional

from .build import NativeBuildError, ensure_built, find_compiler

__all__ = ["NativeBuildError", "ensure_built", "find_compiler", "load_library"]

_LIB: Optional[ctypes.CDLL] = None

_i64 = ctypes.c_int64
_u64 = ctypes.c_uint64
_f64 = ctypes.c_double
#: Every pointer parameter is declared void* so callers can pass raw
#: buffer addresses (``array.buffer_info()[0]``) and ctypes arrays
#: interchangeably without per-call casts.
_ptr = ctypes.c_void_p

_SIGNATURES = {
    "prox_scatter": (None, [_ptr, _i64, _ptr, _ptr, _ptr, _ptr, _i64]),
    "prox_fold_max_indexed": (
        None,
        [_ptr, _ptr, _ptr, _ptr, _i64, _i64, _i64, _u64, _ptr, _ptr,
         _ptr, _i64, _ptr],
    ),
    "prox_fold_sum_indexed": (
        None,
        [_ptr, _ptr, _ptr, _ptr, _i64, _i64, _i64, _ptr, _ptr, _i64,
         _ptr],
    ),
    "prox_sparse_scores": (
        _f64,
        [_ptr, _ptr, _i64, _ptr, _ptr, _i64, _ptr, _i64, _i64],
    ),
    "prox_weighted_moments": (None, [_ptr, _ptr, _i64, _ptr]),
}


def load_library() -> ctypes.CDLL:
    """The process-wide native library, built and loaded on demand."""
    global _LIB
    if _LIB is not None:
        return _LIB
    path = ensure_built()
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise NativeBuildError(f"dlopen failed for {path}: {exc}") from exc
    for name, (restype, argtypes) in _SIGNATURES.items():
        try:
            fn = getattr(lib, name)
        except AttributeError as exc:
            raise NativeBuildError(
                f"{path} lacks symbol {name}; stale build?"
            ) from exc
        fn.restype = restype
        fn.argtypes = argtypes
    _LIB = lib
    return lib
