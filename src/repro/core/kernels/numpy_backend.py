"""The numpy backend: word-row folds, bit-identical to the loops.

Importing this module requires numpy; :mod:`repro.core.kernels` probes
the import and degrades to the python reference when it fails.

Bit-identity is engineered, not assumed:

* Dead-mask word rows unpack to boolean position vectors
  (``np.unpackbits(..., bitorder="little")`` over the row's raw
  little-endian bytes -- the same position ↔ bit correspondence as the
  word tricks).  MAX *assigns* values through boolean indexing (no
  accumulation, trivially exact) and SUM applies each term's
  subtraction through boolean indexing *in term order*, so every
  position sees the identical IEEE operation sequence the reference
  loop performs there.
* ``scatter_false_sets`` scatters into a boolean matrix and packs with
  ``np.packbits(axis=1, bitorder="little")`` -- the same words the
  reference's ``|=`` loop produces, built in bulk.
* ``sparse_scores`` chains the per-position subtractions/additions as
  separate elementwise ops in operand order, finishes through
  IEEE-exact primitives only (multiply, abs, sqrt, compares -- never
  libm ``pow``), and totals via ``np.cumsum`` (a strictly sequential
  scan whose last element equals the left-to-right sum bit for bit;
  ``np.sum``'s pairwise reduction would associate differently).
* The blocked moments use the same cumsum trick along the 64-wide
  block axis and combine block sums left to right in python floats.
  The ragged tail block is folded in python to sidestep padding
  artifacts.
* Outputs convert back through ``.tolist()`` so downstream consumers
  receive ordinary python floats/ints, indistinguishable from the
  reference backend's.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as _np

from .masktable import MaskTable, full_row, words_for
from .protocol import KernelBackend, MaskedValue, WordRow
from .reference import PythonKernel as _Reference

#: Below this many words the plain word loop beats the per-call numpy
#: dispatch for the bitwise combinators (measured crossover ~8-16
#: words); bitwise integer ops are exact, so the result is identical.
_SMALL_WORDS = 8

#: ``np.bitwise_count`` landed in numpy 2.0; older numpys fall back to
#: a word-wise bit-twiddling popcount (still exact integers).
_BITWISE_COUNT = getattr(_np, "bitwise_count", None)

_U64 = _np.uint64
_POP_M1 = _U64(0x5555555555555555)
_POP_M2 = _U64(0x3333333333333333)
_POP_M4 = _U64(0x0F0F0F0F0F0F0F0F)
_POP_H01 = _U64(0x0101010101010101)


def _popcount_words(vec):
    """Per-word popcount via the classic SWAR bit-twiddle.

    All arithmetic is exact modulo 2^64 (uint64 wraps silently), so
    the byte-sum collapse ``(v * 0x0101...) >> 56`` yields the exact
    set-bit count of each word.
    """
    v = vec.astype(_np.uint64, copy=True)
    v -= (v >> _U64(1)) & _POP_M1
    v = (v & _POP_M2) + ((v >> _U64(2)) & _POP_M2)
    v = (v + (v >> _U64(4))) & _POP_M4
    return (v * _POP_H01) >> _U64(56)


class NumpyKernel(KernelBackend):
    """Vectorized folds over zero-copy views of the packed layouts."""

    name = "numpy"

    #: Entries kept in the cross-call unpack memo before it is dropped
    #: wholesale; one step touches a few hundred distinct dead rows.
    _MEMO_CAP = 4096

    def __init__(self):
        # words → bool-vector unpack memo shared across calls.  Keyed
        # by row *content* (bytes), so override rows with equal bits
        # simply hit the same entry; cached vectors are treated as
        # immutable by every consumer.
        self._unpack_memo: dict = {}

    def _shared_memo(self) -> dict:
        memo = self._unpack_memo
        if len(memo) >= self._MEMO_CAP:
            memo.clear()
        return memo

    # -- row views -----------------------------------------------------------

    @staticmethod
    def _row_key(row: WordRow, n_vals: int):
        """Hashable identity of a row's bits (unpack-memo key).

        ``n_vals`` is part of the key: the memo outlives a single
        scorer, and rows with identical bytes under different
        valuation counts unpack to different-length vectors.
        """
        if isinstance(row, (array, memoryview)):
            return n_vals, row.tobytes()
        if isinstance(row, (bytes, bytearray)):
            return n_vals, bytes(row)
        return n_vals, tuple(row)

    @staticmethod
    def _dead_vector(row: WordRow, n_vals: int, cache: Optional[dict] = None):
        """Boolean position vector of one packed dead-mask row."""
        if cache is not None:
            key = NumpyKernel._row_key(row, n_vals)
            hit = cache.get(key)
            if hit is not None:
                return hit
        if isinstance(row, (array, memoryview, bytes, bytearray)):
            raw = _np.frombuffer(row, dtype=_np.uint8)
        else:
            raw = _np.frombuffer(array("Q", row), dtype=_np.uint8)
        bits = _np.unpackbits(
            raw, count=n_vals, bitorder="little"
        ).view(_np.bool_)
        if cache is not None:
            cache[key] = bits
        return bits

    @staticmethod
    def _word_vector(words: WordRow):
        """Zero-copy uint64 view of an ``array('Q')`` (copy otherwise)."""
        if isinstance(words, (array, bytes, bytearray, memoryview)):
            return _np.frombuffer(words, dtype=_np.uint64)
        return _np.asarray(words, dtype=_np.uint64)

    @staticmethod
    def _float_vector(values: Sequence[float]):
        """Zero-copy float64 view of an ``array('d')`` (copy otherwise)."""
        if isinstance(values, (array, memoryview, bytes, bytearray)):
            return _np.frombuffer(values, dtype=_np.float64)
        return _np.asarray(values, dtype=_np.float64)

    # -- mask construction ---------------------------------------------------

    def scatter_false_sets(
        self,
        n_rows: int,
        entries: Sequence[Tuple[Sequence[int], Sequence[int]]],
        n_vals: int,
    ) -> MaskTable:
        n_words = words_for(n_vals)
        # Width n_words*64 (not n_vals) so packbits emits exactly the
        # table's words; positions < n_vals keep the tail clamped.
        bits = _np.zeros((n_rows, n_words * 64), dtype=_np.uint8)
        row_list: List[int] = []
        pos_list: List[int] = []
        for rows, positions in entries:
            if not rows or not positions:
                continue
            if len(positions) == 1:
                position = positions[0]
                row_list.extend(rows)
                pos_list.extend([position] * len(rows))
            elif len(rows) == 1:
                row = rows[0]
                row_list.extend([row] * len(positions))
                pos_list.extend(positions)
            else:
                for row in rows:
                    row_list.extend([row] * len(positions))
                    pos_list.extend(positions)
        if row_list:
            bits[row_list, pos_list] = 1
        packed = _np.packbits(bits, axis=1, bitorder="little")
        return MaskTable(n_rows, n_vals, array("Q", packed.tobytes()))

    # -- dead-mask folds -----------------------------------------------------

    def fold_max(
        self,
        masks: Sequence[MaskedValue],
        n_vals: int,
        wanted: Optional[WordRow] = None,
        _cache: Optional[dict] = None,
    ) -> List[float]:
        out = _np.zeros(n_vals, dtype=_np.float64)
        if wanted is None:
            remaining = _np.ones(n_vals, dtype=_np.bool_)
        else:
            remaining = self._dead_vector(wanted, n_vals).copy()
        for value, dead in masks:
            dead_vec = self._dead_vector(dead, n_vals, _cache)
            out[remaining & ~dead_vec] = value
            remaining &= dead_vec
            if not remaining.any():
                break
        return out.tolist()

    def fold_sum(
        self,
        masks: Sequence[MaskedValue],
        n_vals: int,
        wanted: Optional[WordRow] = None,
        _cache: Optional[dict] = None,
    ) -> List[float]:
        # The left-to-right term total in python floats, exactly as the
        # reference's C-level sum() accumulates it.
        total = 0.0
        for value, _ in masks:
            total += value
        out = _np.full(n_vals, total, dtype=_np.float64)
        limit = (
            None if wanted is None else self._dead_vector(wanted, n_vals)
        )
        for value, dead in masks:
            dead_vec = self._dead_vector(dead, n_vals, _cache)
            if limit is not None:
                dead_vec = dead_vec & limit
            out[dead_vec] -= value
        return out.tolist()

    def baseline_scatter(
        self,
        groups: Sequence[Tuple[object, Sequence[MaskedValue]]],
        n_vals: int,
        is_max: bool,
    ) -> Dict[object, List[float]]:
        # One unpack memo across every group of the step: distinct dead
        # rows repeat heavily (terms share annotations), so the
        # expensive words → vector conversion amortizes.
        cache: dict = {}
        if is_max:
            return {
                group: self.fold_max(masks, n_vals, _cache=cache)
                for group, masks in groups
            }
        return {
            group: self.fold_sum(masks, n_vals, _cache=cache)
            for group, masks in groups
        }

    def group_fold(
        self,
        groups: Sequence[Sequence[MaskedValue]],
        n_vals: int,
        is_max: bool,
        wanted: Optional[WordRow] = None,
    ) -> List[List[float]]:
        # The cross-call memo pays off here: candidate scoring passes
        # the same step-stable dead rows hundreds of times (only the
        # handful of override rows are fresh each candidate).
        cache = self._shared_memo()
        if is_max:
            return [
                self.fold_max(masks, n_vals, wanted, _cache=cache)
                for masks in groups
            ]
        return [
            self.fold_sum(masks, n_vals, wanted, _cache=cache)
            for masks in groups
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
        acc = self._float_vector(base).astype(_np.float64, copy=True)
        for column in minus:
            acc -= self._float_vector(column)
        for originals, values in contribs:
            origs = self._float_vector(originals)
            vals = self._float_vector(values)
            if kind == "sqdiff":
                delta = origs - vals
                acc += delta * delta
            elif kind == "absdiff":
                acc += _np.abs(origs - vals)
            elif kind == "isclose01":
                # inf/nan operands legitimately produce nan/inf diffs
                # here; the mask logic handles them (equality first,
                # infinite diffs excluded), so the IEEE flags are noise.
                with _np.errstate(invalid="ignore", over="ignore"):
                    diff = _np.abs(origs - vals)
                    bound = 1e-9 * _np.maximum(
                        _np.abs(origs), _np.abs(vals)
                    )
                    close = (origs == vals) | (
                        (diff <= bound) & _np.isfinite(diff)
                    )
                acc += _np.where(close, 0.0, 1.0)
            else:
                raise KeyError(kind)
        if kind == "sqdiff":
            positive = acc > 0.0
            finished = _np.where(
                positive, _np.sqrt(_np.where(positive, acc, 0.0)), 0.0
            )
        elif kind == "absdiff":
            finished = _np.where(acc > 0.0, acc, 0.0)
        else:
            finished = _np.where(acc == 0.0, 0.0, 1.0)
        wf = self._float_vector(weights) * finished
        return float(wf.cumsum()[-1]) if len(wf) else 0.0

    # -- sampled batch statistics --------------------------------------------

    def weighted_moments(
        self, values: Sequence[float], weights: Sequence[float]
    ) -> Tuple[float, float, float]:
        v = _np.asarray(values, dtype=_np.float64)
        w = _np.asarray(weights, dtype=_np.float64)
        wv = w * v
        wvv = wv * v
        n = len(v)
        full = n - (n % 64)
        succ = 0.0
        weight_sum = 0.0
        sumsq = 0.0
        if full:
            # cumsum is a sequential scan: its last column equals the
            # left-to-right in-block sum bit for bit (np.sum would not).
            block_succ = _np.cumsum(wv[:full].reshape(-1, 64), axis=1)[:, -1]
            block_weight = _np.cumsum(w[:full].reshape(-1, 64), axis=1)[:, -1]
            block_sumsq = _np.cumsum(wvv[:full].reshape(-1, 64), axis=1)[:, -1]
            for index in range(len(block_succ)):
                succ += float(block_succ[index])
                weight_sum += float(block_weight[index])
                sumsq += float(block_sumsq[index])
        if full < n:
            block_s = 0.0
            block_w = 0.0
            block_q = 0.0
            tail_wv = wv[full:].tolist()
            tail_w = w[full:].tolist()
            tail_wvv = wvv[full:].tolist()
            for index in range(n - full):
                block_s += tail_wv[index]
                block_w += tail_w[index]
                block_q += tail_wvv[index]
            succ += block_s
            weight_sum += block_w
            sumsq += block_q
        return succ, weight_sum, sumsq

    # -- packed word-row algebra ---------------------------------------------

    def fold_and(self, vectors: Sequence[WordRow]) -> array:
        if not vectors:
            raise ValueError("fold_and requires at least one vector")
        if len(vectors[0]) < _SMALL_WORDS:
            return _Reference.fold_and(self, vectors)
        acc = self._word_vector(vectors[0]).copy()
        for words in vectors[1:]:
            acc &= self._word_vector(words)
        return array("Q", acc.tobytes())

    def fold_or(self, vectors: Sequence[WordRow]) -> array:
        if not vectors:
            raise ValueError("fold_or requires at least one vector")
        if len(vectors[0]) < _SMALL_WORDS:
            return _Reference.fold_or(self, vectors)
        acc = self._word_vector(vectors[0]).copy()
        for words in vectors[1:]:
            acc |= self._word_vector(words)
        return array("Q", acc.tobytes())

    def fold_not(self, words: WordRow, n_vals: int) -> array:
        vec = _np.bitwise_not(self._word_vector(words))
        vec &= self._word_vector(full_row(n_vals))
        return array("Q", vec.tobytes())

    def popcount_blocks(self, words: WordRow) -> List[int]:
        vec = self._word_vector(words)
        if _BITWISE_COUNT is not None:
            return [int(count) for count in _BITWISE_COUNT(vec)]
        return [int(count) for count in _popcount_words(vec)]

    def popcount(self, words: WordRow) -> int:
        vec = self._word_vector(words)
        if _BITWISE_COUNT is not None:
            return int(_BITWISE_COUNT(vec).sum())
        return int(_popcount_words(vec).sum())

    # -- interned-arena monomial product -------------------------------------

    def merge_monomials(
        self,
        first: Sequence[Tuple[int, int]],
        second: Sequence[Tuple[int, int]],
    ) -> Tuple[int, ...]:
        if not first:
            pairs = second
        elif not second:
            pairs = first
        else:
            pairs = None
        if pairs is not None:
            flat: List[int] = []
            for ann_id, exponent in pairs:
                flat.append(ann_id)
                flat.append(exponent)
            return tuple(flat)
        stacked = _np.array(
            list(first) + list(second), dtype=_np.int64
        ).reshape(-1, 2)
        ids, inverse = _np.unique(stacked[:, 0], return_inverse=True)
        exponents = _np.zeros(len(ids), dtype=_np.int64)
        _np.add.at(exponents, inverse, stacked[:, 1])
        out = _np.empty(2 * len(ids), dtype=_np.int64)
        out[0::2] = ids
        out[1::2] = exponents
        return tuple(out.tolist())
