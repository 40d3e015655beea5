"""The pure-python reference backend.

These are the exact loops the scorers ran inline before the kernel
tier existed (PR 1's enumerating folds, PR 5's blocked batch
statistics, PR 3's sorted-merge monomial product), extracted verbatim
and re-expressed over packed word rows: the reference backend
*defines* the bit-identity contract every other backend is tested
against, so nothing here may be "improved" in a way that changes a
single output bit.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from .masktable import MaskTable, WORD_MASK, clamp_row, full_row, words_for
from .protocol import KernelBackend, MaskedValue, WordRow


def _contrib_sqdiff(original: float, summary: float) -> float:
    delta = original - summary
    return delta * delta


def _finish_sqdiff(total: float) -> float:
    return math.sqrt(total) if total > 0.0 else 0.0


def _contrib_absdiff(original: float, summary: float) -> float:
    return abs(original - summary)


def _finish_absdiff(total: float) -> float:
    return total if total > 0.0 else 0.0


def _contrib_isclose01(original: float, summary: float) -> float:
    return 0.0 if math.isclose(original, summary) else 1.0


def _finish_isclose01(total: float) -> float:
    return 0.0 if total == 0.0 else 1.0


#: The closed contrib/finish forms behind each ``contrib_kind`` tag.
#: These must stay character-for-character equivalent to the
#: ``metric_contrib``/``metric_finish`` pairs of the tagged VAL-FUNCs (``tests/core/test_kernels.py`` pins the equivalence).
SPARSE_FORMS = {
    "sqdiff": (_contrib_sqdiff, _finish_sqdiff),
    "absdiff": (_contrib_absdiff, _finish_absdiff),
    "isclose01": (_contrib_isclose01, _finish_isclose01),
}


class PythonKernel(KernelBackend):
    """Word-row bit tricks and C-level ``sum``/``array`` loops."""

    name = "python"

    # -- mask construction ---------------------------------------------------

    def scatter_false_sets(
        self,
        n_rows: int,
        entries: Sequence[Tuple[Sequence[int], Sequence[int]]],
        n_vals: int,
    ) -> MaskTable:
        table = MaskTable(n_rows, n_vals)
        words = table.words
        n_words = table.n_words
        for rows, positions in entries:
            for position in positions:
                bit = 1 << (position & 63)
                offset = position >> 6
                for row in rows:
                    words[row * n_words + offset] |= bit
        return table

    # -- dead-mask folds -----------------------------------------------------

    def fold_max(
        self,
        masks: Sequence[MaskedValue],
        n_vals: int,
        wanted: Optional[WordRow] = None,
    ) -> List[float]:
        out = [0.0] * n_vals
        n_words = words_for(n_vals)
        remaining = (
            full_row(n_vals)
            if wanted is None
            else clamp_row(array("Q", wanted), n_vals)
        )
        alive_words = sum(1 for word in remaining if word)
        for value, dead in masks:
            if not alive_words:
                break
            for index in range(n_words):
                rem = remaining[index]
                if not rem:
                    continue
                alive = rem & ~dead[index]
                base = index << 6
                while alive:
                    bit = alive & -alive
                    out[base + bit.bit_length() - 1] = value
                    alive ^= bit
                rem &= dead[index]
                remaining[index] = rem
                if not rem:
                    alive_words -= 1
        return out

    def fold_sum(
        self,
        masks: Sequence[MaskedValue],
        n_vals: int,
        wanted: Optional[WordRow] = None,
    ) -> List[float]:
        total = sum(value for value, _ in masks)
        out = [total] * n_vals
        n_words = words_for(n_vals)
        limit = (
            full_row(n_vals)
            if wanted is None
            else clamp_row(array("Q", wanted), n_vals)
        )
        for value, dead in masks:
            for index in range(n_words):
                bits = dead[index] & limit[index]
                base = index << 6
                while bits:
                    bit = bits & -bits
                    out[base + bit.bit_length() - 1] -= value
                    bits ^= bit
        return out

    # -- sparse candidate scoring --------------------------------------------

    def sparse_scores(
        self,
        base: Sequence[float],
        minus: Sequence[Sequence[float]],
        contribs: Sequence[Tuple[Sequence[float], Sequence[float]]],
        weights: Sequence[float],
        kind: str,
    ) -> float:
        contrib, finish = SPARSE_FORMS[kind]
        total = 0.0
        for index in range(len(base)):
            acc = base[index]
            for column in minus:
                acc -= column[index]
            for originals, values in contribs:
                acc += contrib(originals[index], values[index])
            total += weights[index] * finish(acc)
        return total

    # -- sampled batch statistics --------------------------------------------

    def weighted_moments(
        self, values: Sequence[float], weights: Sequence[float]
    ) -> Tuple[float, float, float]:
        succ = 0.0
        weight_sum = 0.0
        sumsq = 0.0
        n = len(values)
        for start in range(0, n, 64):
            block_succ = 0.0
            block_weight = 0.0
            block_sumsq = 0.0
            for index in range(start, min(start + 64, n)):
                value = values[index]
                weight = weights[index]
                block_succ += weight * value
                block_weight += weight
                block_sumsq += weight * value * value
            succ += block_succ
            weight_sum += block_weight
            sumsq += block_sumsq
        return succ, weight_sum, sumsq

    # -- packed word-row algebra ---------------------------------------------

    def fold_and(self, vectors: Sequence[WordRow]) -> array:
        if not vectors:
            raise ValueError("fold_and requires at least one vector")
        acc = array("Q", vectors[0])
        for words in vectors[1:]:
            for index, word in enumerate(words):
                acc[index] &= word
        return acc

    def fold_or(self, vectors: Sequence[WordRow]) -> array:
        if not vectors:
            raise ValueError("fold_or requires at least one vector")
        acc = array("Q", vectors[0])
        for words in vectors[1:]:
            for index, word in enumerate(words):
                acc[index] |= word
        return acc

    def fold_not(self, words: WordRow, n_vals: int) -> array:
        clamp = full_row(n_vals)
        out = array("Q", words)
        for index, word in enumerate(out):
            out[index] = (word ^ WORD_MASK) & clamp[index]
        return out

    def popcount_blocks(self, words: WordRow) -> List[int]:
        return [int(word).bit_count() for word in words]

    def popcount(self, words: WordRow) -> int:
        total = 0
        for word in words:
            total += int(word).bit_count()
        return total

    # -- interned-arena monomial product -------------------------------------

    def merge_monomials(
        self,
        first: Sequence[Tuple[int, int]],
        second: Sequence[Tuple[int, int]],
    ) -> Tuple[int, ...]:
        flat: List[int] = []
        i = j = 0
        n_first, n_second = len(first), len(second)
        while i < n_first and j < n_second:
            ann_a, exp_a = first[i]
            ann_b, exp_b = second[j]
            if ann_a == ann_b:
                flat.append(ann_a)
                flat.append(exp_a + exp_b)
                i += 1
                j += 1
            elif ann_a < ann_b:
                flat.append(ann_a)
                flat.append(exp_a)
                i += 1
            else:
                flat.append(ann_b)
                flat.append(exp_b)
                j += 1
        for ann_id, exponent in first[i:]:
            flat.append(ann_id)
            flat.append(exponent)
        for ann_id, exponent in second[j:]:
            flat.append(ann_id)
            flat.append(exponent)
        return tuple(flat)
