"""The native backend: ctypes over the C kernel library.

Importing this module does *not* compile anything; constructing
:class:`NativeKernel` loads (building on demand) the shared object via
:mod:`repro.core.kernels.native` and raises ``NativeBuildError`` when
the toolchain is absent -- the resolution layer catches that and
degrades to python with a structured ``kernel_fallback``.

The class subclasses the python reference and overrides the four ops
the C library accelerates on a scoring path -- ``scatter_false_sets``,
``group_fold``, ``sparse_scores`` and ``weighted_moments``; everything
else (the per-group folds) inherits the reference behavior, which
keeps the bit-identity argument local to the overridden ops.
All double arithmetic in the library is straight IEEE (compiled with
``-ffp-contract=off``), so the C operation sequence per output
position is the reference's.

Operands cross the boundary as raw buffer addresses taken per call
(``array.buffer_info``, or a view pinned for the call; anything else
is copied into a fresh array first).  The hot op,
:meth:`NativeKernel.group_fold`, takes the scorer's whole dead-row
table plus a small override table and names rows by index, so one
call passes two table addresses and one packed index array instead of
an address per operand row -- no address memo, and nothing pinned
beyond the call.
"""

from __future__ import annotations

import ctypes
from array import array
from typing import List, Optional, Sequence, Tuple

from .masktable import MaskTable, WORD_MASK, WordRow, clamp_row, full_row, words_for
from .native import load_library
from .reference import PythonKernel

_KIND_CODES = {"sqdiff": 0, "absdiff": 1, "isclose01": 2}


def _tail_mask(n_vals: int) -> int:
    tail = n_vals & 63
    return (1 << tail) - 1 if tail else WORD_MASK


class NativeKernel(PythonKernel):
    """Mask scatter, index-addressed group folds, sparse scores and
    weighted moments in C."""

    name = "native"

    def __init__(self, lib: Optional[ctypes.CDLL] = None):
        self._lib = lib if lib is not None else load_library()

    # -- buffer plumbing -----------------------------------------------------

    @staticmethod
    def _addr(buf, keep: list, typecode: str) -> int:
        """Raw address of a buffer's payload.

        ``keep`` pins whatever owns the memory for the duration of the
        C call; read-only or non-buffer sequences are copied into a
        fresh ``array`` first.
        """
        if isinstance(buf, array):
            return buf.buffer_info()[0]
        if isinstance(buf, memoryview):
            # Small views are cheaper to copy than to pin via
            # ``from_buffer`` (which pays ~1µs of ctypes type work
            # regardless of size); the kernels never write through
            # operand rows, so the copy is safe.
            if not buf.readonly and buf.nbytes > 256:
                raw = (ctypes.c_ubyte * buf.nbytes).from_buffer(buf)
                keep.append(raw)
                return ctypes.addressof(raw)
            buf = array(typecode, buf)
        else:
            buf = array(typecode, buf)
        keep.append(buf)
        return buf.buffer_info()[0]

    @classmethod
    def _ptr_array(cls, buffers, keep: list, typecode: str):
        ptrs = (ctypes.c_void_p * max(1, len(buffers)))()
        for index, buf in enumerate(buffers):
            ptrs[index] = cls._addr(buf, keep, typecode)
        return ptrs

    # -- mask construction ---------------------------------------------------

    def scatter_false_sets(
        self,
        n_rows: int,
        entries: Sequence[Tuple[Sequence[int], Sequence[int]]],
        n_vals: int,
    ) -> MaskTable:
        table = MaskTable(n_rows, n_vals)
        if not entries or not table.n_words:
            return table
        # Accumulate in plain lists and convert once: list.extend plus
        # a single array() construction beats per-entry array growth by
        # ~2x on entry-heavy tables (one entry per valuation).
        rows_list: List[int] = []
        row_off_list: List[int] = [0]
        pos_list: List[int] = []
        pos_off_list: List[int] = [0]
        for rows, positions in entries:
            rows_list.extend(rows)
            row_off_list.append(len(rows_list))
            pos_list.extend(positions)
            pos_off_list.append(len(pos_list))
        rows_flat = array("q", rows_list)
        row_off = array("q", row_off_list)
        pos_flat = array("q", pos_list)
        pos_off = array("q", pos_off_list)
        self._lib.prox_scatter(
            table.words.buffer_info()[0],
            table.n_words,
            rows_flat.buffer_info()[0],
            row_off.buffer_info()[0],
            pos_flat.buffer_info()[0],
            pos_off.buffer_info()[0],
            len(entries),
        )
        return table

    # -- dead-mask folds -----------------------------------------------------

    def group_fold(
        self,
        groups: Sequence[Sequence[int]],
        n_vals: int,
        is_max: bool,
        values: Sequence[Sequence[float]],
        table: WordRow,
        overrides: Optional[WordRow] = None,
        wanted: Optional[WordRow] = None,
    ) -> List[Sequence[float]]:
        """Several group folds in one library call, rows by index.

        The per-group index and value arrays are concatenated (a
        memcpy each for ``array`` operands) and cross the ctypes
        boundary once with the two table addresses; the C side gathers
        each row by its index.  At small word counts the dispatch glue
        dominates the fold itself, so this is the hot scoring path.
        """
        if not groups:
            return []
        if not n_vals:
            return [[] for _ in groups]
        n_groups = len(groups)
        if len(values) != n_groups:
            raise ValueError("group_fold needs one value column per group")
        n_words = words_for(n_vals)
        indexes = array("q")
        flat_values = array("d")
        group_off = array("q", bytes(8 * (n_groups + 1)))
        for position, (rows, column) in enumerate(zip(groups, values)):
            if len(rows) != len(column):
                raise ValueError("group_fold needs one value per row index")
            indexes.extend(rows)
            flat_values.extend(column)
            group_off[position + 1] = len(indexes)
        keep: list = []
        n_base = len(table) // n_words
        n_rows = n_base
        over = None
        if overrides is not None:
            n_rows += len(overrides) // n_words
            over = self._addr(overrides, keep, "Q")
        # The C side gathers unchecked: an index outside both tables
        # must raise here, not read foreign memory.
        if indexes and not (0 <= min(indexes) and max(indexes) < n_rows):
            raise IndexError(f"row index outside {n_rows} rows")
        out = array("d", bytes(8 * n_groups * n_vals))
        base = self._addr(table, keep, "Q")
        if is_max:
            scratch = array("Q", bytes(8 * n_words))
            self._lib.prox_fold_max_indexed(
                out.buffer_info()[0],
                flat_values.buffer_info()[0],
                indexes.buffer_info()[0],
                group_off.buffer_info()[0],
                n_groups,
                n_vals,
                n_words,
                _tail_mask(n_vals),
                None if wanted is None else self._addr(wanted, keep, "Q"),
                scratch.buffer_info()[0],
                base,
                n_base,
                over,
            )
        else:
            limit = (
                full_row(n_vals)
                if wanted is None
                else clamp_row(array("Q", wanted), n_vals)
            )
            self._lib.prox_fold_sum_indexed(
                out.buffer_info()[0],
                flat_values.buffer_info()[0],
                indexes.buffer_info()[0],
                group_off.buffer_info()[0],
                n_groups,
                n_vals,
                n_words,
                limit.buffer_info()[0],
                base,
                n_base,
                over,
            )
        # array('d') slices, not lists: the columns feed straight back
        # into sparse_scores, whose _addr takes the buffer_info fast
        # path for arrays (a list would be copied element-wise there).
        return [
            out[index * n_vals : (index + 1) * n_vals]
            for index in range(n_groups)
        ]

    # -- sparse candidate scoring --------------------------------------------

    def sparse_scores(
        self,
        base: Sequence[float],
        minus: Sequence[Sequence[float]],
        contribs: Sequence[Tuple[Sequence[float], Sequence[float]]],
        weights: Sequence[float],
        kind: str,
    ) -> float:
        kind_code = _KIND_CODES[kind]
        n_vals = len(base)
        if not n_vals:
            return 0.0
        keep: list = []
        # The scorers pass array('d') columns throughout, so every
        # address is a buffer_info read (no copy).
        minus_ptrs = self._ptr_array(minus, keep, "d")
        orig_ptrs = self._ptr_array(
            [originals for originals, _ in contribs], keep, "d"
        )
        vals_ptrs = self._ptr_array(
            [values for _, values in contribs], keep, "d"
        )
        total = self._lib.prox_sparse_scores(
            self._addr(base, keep, "d"),
            minus_ptrs,
            len(minus),
            orig_ptrs,
            vals_ptrs,
            len(contribs),
            self._addr(weights, keep, "d"),
            n_vals,
            kind_code,
        )
        return float(total)

    # -- sampled batch statistics --------------------------------------------

    def weighted_moments(
        self, values: Sequence[float], weights: Sequence[float]
    ) -> Tuple[float, float, float]:
        n = len(values)
        out3 = array("d", bytes(24))
        keep: list = []
        self._lib.prox_weighted_moments(
            self._addr(values, keep, "d"),
            self._addr(weights, keep, "d"),
            n,
            out3.buffer_info()[0],
        )
        return out3[0], out3[1], out3[2]
