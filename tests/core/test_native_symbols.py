"""The native library's exports, ctypes signatures and callers agree.

Parses the C source rather than loading the library, so it runs (and
keeps dead C bodies from coming back) on hosts without a compiler.
"""

import re
from pathlib import Path

from repro.core.kernels import native

KERNELS = Path(native.__file__).resolve().parent.parent
SOURCE = (KERNELS / "native" / "_prox_native.c").read_text()
BACKEND = (KERNELS / "native_backend.py").read_text()

#: ``API <return type> prox_<name>(`` -- one exported definition.
EXPORT = re.compile(r"^API\b[^(]*?\b(prox_\w+)\s*\(", re.MULTILINE)


def test_native_exports_signatures_and_callers_agree():
    exported = set(EXPORT.findall(SOURCE))
    assert exported == set(native._SIGNATURES)
    uncalled = sorted(
        name for name in exported if f"self._lib.{name}(" not in BACKEND
    )
    assert not uncalled, f"exported but never called: {uncalled}"
    assert exported == {
        "prox_scatter",
        "prox_fold_max_indexed",
        "prox_fold_sum_indexed",
        "prox_sparse_scores",
        "prox_weighted_moments",
    }
