"""The native backend: ctypes over the C kernel library.

Importing this module does *not* compile anything; constructing
:class:`NativeKernel` loads (building on demand) the shared object via
:mod:`repro.core.kernels.native` and raises ``NativeBuildError`` when
the toolchain is absent -- the resolution layer catches that and
degrades to python with a structured ``kernel_fallback``.

The class subclasses the python reference and overrides only the ops
the C library accelerates; everything else (``merge_monomials``, the
default ``baseline_scatter`` loop) inherits the reference behavior,
which keeps the bit-identity argument local to the overridden ops.
All double arithmetic in the library is straight IEEE (compiled with
``-ffp-contract=off``), so the C operation sequence per output
position is the reference's.
"""

from __future__ import annotations

import ctypes
from array import array
from typing import List, Optional, Sequence, Tuple

from .masktable import MaskTable, WORD_MASK, clamp_row, full_row, words_for
from .native import load_library
from .protocol import MaskedValue, WordRow
from .reference import PythonKernel

_KIND_CODES = {"sqdiff": 0, "absdiff": 1, "isclose01": 2}

#: Below this many words the pure-python word loop beats the ctypes
#: dispatch glue for the bitwise combinators (measured crossover ~8
#: words); bitwise integer ops are exact, so the result is identical
#: either way.
_SMALL_WORDS = 8


def _tail_mask(n_vals: int) -> int:
    tail = n_vals & 63
    return (1 << tail) - 1 if tail else WORD_MASK


class NativeKernel(PythonKernel):
    """Hardware popcount and unrolled word folds over ``array('Q')``."""

    name = "native"

    #: Entries kept in the operand-address memo before it is dropped
    #: wholesale; a step touches a few hundred distinct operand rows,
    #: so the cap only trips after many steps' worth of churn.
    _MEMO_CAP = 8192

    def __init__(self, lib: Optional[ctypes.CDLL] = None):
        self._lib = lib if lib is not None else load_library()
        # id(obj) → (obj, pin, address).  Safe to key by id because the
        # memo holds a strong reference to every cached operand: a live
        # entry's id cannot be recycled, and the pinned address always
        # points into the operand's live buffer (never a copy), so
        # in-place mutation stays visible.  Callers must not resize
        # cached operands (array reallocation would move the buffer) --
        # the scorers never do.
        self._addr_memo: dict = {}

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

    def _addr_memoized(self, buf, keep: list, typecode: str) -> int:
        """Address of a step-stable operand, pinned across calls.

        Candidate scoring passes the same dead rows and cached columns
        hundreds of times per step; memoizing their addresses (with the
        owner strongly held) turns the per-call buffer glue into a dict
        hit.  Only used for operands the scorers reuse -- per-candidate
        scratch goes through :meth:`_addr` so the memo stays bounded.
        Sources that would need a copy (read-only views, plain lists)
        cannot stay coherent under mutation and take the uncached path.
        """
        memo = self._addr_memo
        entry = memo.get(id(buf))
        if entry is not None:
            return entry[2]
        if isinstance(buf, array):
            pin: object = None
            address = buf.buffer_info()[0]
        elif isinstance(buf, memoryview) and not buf.readonly:
            pin = (ctypes.c_ubyte * buf.nbytes).from_buffer(buf)
            address = ctypes.addressof(pin)
        else:
            return self._addr(buf, keep, typecode)
        if len(memo) >= self._MEMO_CAP:
            # Addresses handed out earlier in this same call must
            # outlive the eviction: park the evicted pins on the
            # caller's keep list before dropping them from the memo.
            keep.append(list(memo.values()))
            memo.clear()
        memo[id(buf)] = (buf, pin, address)
        return address

    def _ptr_array_memoized(self, buffers, keep: list, typecode: str):
        ptrs = (ctypes.c_void_p * max(1, len(buffers)))()
        addr = self._addr_memoized
        for index, buf in enumerate(buffers):
            ptrs[index] = addr(buf, keep, typecode)
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

    def fold_max(
        self,
        masks: Sequence[MaskedValue],
        n_vals: int,
        wanted: Optional[WordRow] = None,
    ) -> List[float]:
        if not n_vals:
            return []
        n_words = words_for(n_vals)
        out = array("d", bytes(8 * n_vals))
        keep: list = []
        values = array("d", (value for value, _ in masks))
        dead = self._ptr_array([row for _, row in masks], keep, "Q")
        scratch = array("Q", bytes(8 * n_words))
        self._lib.prox_fold_max(
            out.buffer_info()[0],
            values.buffer_info()[0],
            dead,
            len(masks),
            n_words,
            _tail_mask(n_vals),
            None if wanted is None else self._addr(wanted, keep, "Q"),
            scratch.buffer_info()[0],
        )
        return out.tolist()

    def fold_sum(
        self,
        masks: Sequence[MaskedValue],
        n_vals: int,
        wanted: Optional[WordRow] = None,
    ) -> List[float]:
        if not n_vals:
            return []
        n_words = words_for(n_vals)
        out = array("d", bytes(8 * n_vals))
        keep: list = []
        values = array("d", (value for value, _ in masks))
        dead = self._ptr_array([row for _, row in masks], keep, "Q")
        limit = (
            full_row(n_vals)
            if wanted is None
            else clamp_row(array("Q", wanted), n_vals)
        )
        self._lib.prox_fold_sum(
            out.buffer_info()[0],
            values.buffer_info()[0],
            dead,
            len(masks),
            n_words,
            n_vals,
            limit.buffer_info()[0],
        )
        return out.tolist()

    def group_fold(
        self,
        groups: Sequence[Sequence[MaskedValue]],
        n_vals: int,
        is_max: bool,
        wanted: Optional[WordRow] = None,
    ) -> List[List[float]]:
        """All of a candidate's group folds in one library call.

        The flattened operands cross the ctypes boundary once instead
        of once per group -- at small word counts the dispatch glue
        dominates the fold itself, so this is the hot scoring path.
        """
        if not groups:
            return []
        if not n_vals:
            return [[] for _ in groups]
        n_groups = len(groups)
        n_words = words_for(n_vals)
        values = array("d")
        rows: List[WordRow] = []
        group_off = array("q", bytes(8 * (n_groups + 1)))
        for index, masks in enumerate(groups):
            for value, row in masks:
                values.append(value)
                rows.append(row)
            group_off[index + 1] = len(rows)
        out = array("d", bytes(8 * n_groups * n_vals))
        keep: list = []
        # Dead rows are step-stable scorer state (override rows excepted,
        # which the uncached fallback inside the memo handles): memoize.
        dead = self._ptr_array_memoized(rows, keep, "Q")
        if is_max:
            scratch = array("Q", bytes(8 * n_words))
            self._lib.prox_fold_max_groups(
                out.buffer_info()[0],
                values.buffer_info()[0],
                dead,
                group_off.buffer_info()[0],
                n_groups,
                n_vals,
                n_words,
                _tail_mask(n_vals),
                None if wanted is None else self._addr(wanted, keep, "Q"),
                scratch.buffer_info()[0],
            )
        else:
            limit = (
                full_row(n_vals)
                if wanted is None
                else clamp_row(array("Q", wanted), n_vals)
            )
            self._lib.prox_fold_sum_groups(
                out.buffer_info()[0],
                values.buffer_info()[0],
                dead,
                group_off.buffer_info()[0],
                n_groups,
                n_vals,
                n_words,
                limit.buffer_info()[0],
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
        # base / minus / originals / weights are the scorer's cached
        # step-stable columns; the recomputed values are per-candidate
        # scratch and stay on the uncached path.
        minus_ptrs = self._ptr_array_memoized(minus, keep, "d")
        orig_ptrs = self._ptr_array_memoized(
            [originals for originals, _ in contribs], keep, "d"
        )
        vals_ptrs = self._ptr_array(
            [values for _, values in contribs], keep, "d"
        )
        total = self._lib.prox_sparse_scores(
            self._addr_memoized(base, keep, "d"),
            minus_ptrs,
            len(minus),
            orig_ptrs,
            vals_ptrs,
            len(contribs),
            self._addr_memoized(weights, keep, "d"),
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

    # -- packed word-row algebra ---------------------------------------------

    def fold_and(self, vectors: Sequence[WordRow]) -> array:
        if not vectors:
            raise ValueError("fold_and requires at least one vector")
        if len(vectors[0]) < _SMALL_WORDS:
            return super().fold_and(vectors)
        acc = array("Q", vectors[0])
        if len(vectors) > 1 and len(acc):
            keep: list = []
            ptrs = self._ptr_array(vectors, keep, "Q")
            self._lib.prox_fold_and(
                acc.buffer_info()[0], ptrs, len(vectors), len(acc)
            )
        return acc

    def fold_or(self, vectors: Sequence[WordRow]) -> array:
        if not vectors:
            raise ValueError("fold_or requires at least one vector")
        if len(vectors[0]) < _SMALL_WORDS:
            return super().fold_or(vectors)
        acc = array("Q", vectors[0])
        if len(vectors) > 1 and len(acc):
            keep: list = []
            ptrs = self._ptr_array(vectors, keep, "Q")
            self._lib.prox_fold_or(
                acc.buffer_info()[0], ptrs, len(vectors), len(acc)
            )
        return acc

    def fold_not(self, words: WordRow, n_vals: int) -> array:
        n_words = words_for(n_vals)
        out = array("Q", bytes(8 * n_words))
        if n_words:
            keep: list = []
            self._lib.prox_fold_not(
                out.buffer_info()[0],
                self._addr(words, keep, "Q"),
                n_words,
                _tail_mask(n_vals),
            )
        return out

    def popcount_blocks(self, words: WordRow) -> List[int]:
        n_words = len(words)
        if not n_words:
            return []
        keep: list = []
        out = array("q", bytes(8 * n_words))
        self._lib.prox_popcount_blocks(
            self._addr(words, keep, "Q"), n_words, out.buffer_info()[0]
        )
        return out.tolist()

    def popcount(self, words: WordRow) -> int:
        n_words = len(words)
        if not n_words:
            return 0
        keep: list = []
        return int(
            self._lib.prox_popcount(self._addr(words, keep, "Q"), n_words)
        )
