"""The kernel contract and its pure-python reference backend.

The bit-packed scorers funnel every hot fold through the ops of
:class:`PythonKernel`, each defined over the packed representations
the scorers already use -- little-endian ``array('Q')`` word rows
(bit ``i`` ⇔ valuation/draw position ``i``, see
:mod:`repro.core.kernels.masktable`):

* :meth:`~PythonKernel.scatter_false_sets` -- mask *construction*:
  scatter lifted false sets into a contiguous :class:`MaskTable`
  (the per-step precomputation of ``_build_masks``).
* :meth:`~PythonKernel.group_fold` -- several MAX/SUM group
  aggregates at once, each group naming its rows by index into the
  scorer's dead-row table (plus a per-candidate override table):
  candidate scoring, step baselines and ``advance`` refolds.  Its
  per-group folds are :meth:`~PythonKernel.fold_max` and
  :meth:`~PythonKernel.fold_sum`.
* :meth:`~PythonKernel.sparse_scores` -- the per-candidate sparse
  accumulation (base − excluded columns + recomputed contribs,
  finished, weighted and summed) for the VAL-FUNCs tagged with a
  ``contrib_kind``.
* :meth:`~PythonKernel.weighted_moments` -- the per-64-draw-block
  weighted sum / weight / sum-of-squares reduction behind the sampled
  batch statistics.

These are the exact loops the scorers ran inline before the kernel
tier existed, extracted verbatim and re-expressed over packed word
rows.  **The contract is bit-identity, not approximation**: this
backend *defines* it, and every other backend (the native subclass)
must equal it to the last bit -- same floats, same ints, same
ordering -- so nothing here may be "improved" in a way that changes a
single output bit.  Backends achieve that by preserving the exact
IEEE operation sequence *per output position* (positions are mutually
independent in every fold, so cross-position evaluation order is
free).  Mask rows are tail-clamped (bits ``>= n_vals`` zero) and the
fold operands arrive tail-clamped; scatter outputs must be bit-for-bit
equal as words.  The differential grids in
``tests/core/test_kernels.py``, ``tests/core/test_sampled_scoring.py``
and ``tests/core/test_parallel_scoring.py`` enforce the contract.
"""

from __future__ import annotations

import math
from array import array
from typing import List, Optional, Sequence, Tuple

from .masktable import MaskTable, WORD_MASK, WordRow, clamp_row, full_row, words_for

#: ``(term value, packed dead-mask word row)`` -- one fold operand.
MaskedValue = Tuple[float, WordRow]


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


#: The closed contrib/finish forms behind each ``contrib_kind`` tag
#: :meth:`PythonKernel.sparse_scores` accepts:
#: ``sqdiff``  -- contrib ``d*d`` (d = orig − summ), finish
#:               ``sqrt(t) if t > 0 else 0.0``  (EuclideanDistance);
#: ``absdiff`` -- contrib ``abs(d)``, finish ``t if t > 0 else 0.0``
#:               (AbsoluteDifference);
#: ``isclose01`` -- contrib ``0.0 if isclose(o, s) else 1.0`` with
#:               ``math.isclose`` semantics (rel_tol 1e-9, abs_tol 0),
#:               finish ``0.0 if t == 0.0 else 1.0``  (Disagreement).
#: These must stay character-for-character equivalent to the
#: ``metric_contrib``/``metric_finish`` pairs of the tagged VAL-FUNCs
#: (``tests/core/test_kernels.py`` pins the equivalence).
SPARSE_FORMS = {
    "sqdiff": (_contrib_sqdiff, _finish_sqdiff),
    "absdiff": (_contrib_absdiff, _finish_absdiff),
    "isclose01": (_contrib_isclose01, _finish_isclose01),
}

SPARSE_KINDS = frozenset(SPARSE_FORMS)


class PythonKernel:
    """Word-row bit tricks and C-level ``sum``/``array`` loops."""

    #: Stable backend identifier (``"python"`` / ``"native"``).
    name = "python"

    # -- mask construction ---------------------------------------------------

    def scatter_false_sets(
        self,
        n_rows: int,
        entries: Sequence[Tuple[Sequence[int], Sequence[int]]],
        n_vals: int,
    ) -> MaskTable:
        """Scatter false sets into a fresh ``n_rows × n_words`` table.

        Each entry is ``(row_indexes, positions)``: every listed row
        gets every listed position bit set (OR into whatever earlier
        entries wrote).  The enumerating scorer passes one entry per
        valuation (``positions == [index]``); the sampled scorer one
        entry per *distinct* drawn member carrying all its draw
        positions.  The result is tail-clamped by construction.
        """
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
        """Per-position MAX of the alive values (one group of
        :meth:`group_fold`).

        ``masks`` must arrive in descending value order (the scorers
        keep groups presorted): each position takes the first value
        whose dead row leaves it alive, positions nobody covers stay
        0.0.  ``wanted`` restricts the fold to the set positions of the
        word row; other positions keep 0.0 and must not be read.
        """
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
        """Per-position SUM of the alive values (one group of
        :meth:`group_fold`).

        Every position starts from the full left-to-right term total
        and each term's value is subtracted at its dead positions *in
        term order* -- the subtraction sequence per position is part of
        the bit-identity contract.  ``wanted`` as in :meth:`fold_max`
        (unrestricted positions hold the unfinished total).
        """
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
        """Several group folds over one dead-row table, by row index.

        ``table`` holds ``n_base`` packed rows back to back
        (``n_base = len(table) // words_for(n_vals)``); ``overrides``
        holds more rows, addressed as ``n_base``, ``n_base + 1``, ...
        Group ``g`` folds the rows ``groups[g]`` names, in order, with
        ``values[g][k]`` the value of row ``groups[g][k]``: semantically
        ``fold([(values[g][k], row(groups[g][k])) ...], n_vals,
        wanted)`` with the fold picked by ``is_max``, so MAX groups
        must list their rows in descending value order.  Candidate
        scoring refolds a handful of disturbed groups per candidate and
        the scorer's ``advance`` refolds the merge's groups; batching
        them through one call amortizes the per-call dispatch cost that
        dominates at small word counts.  Each column must equal its
        standalone fold bit for bit; backends may return any indexable
        float sequence (the native backend hands back ``array('d')``
        slices).  A row index outside both tables raises
        ``IndexError``; a value column whose length differs from its
        index sequence raises ``ValueError``.
        """
        if len(values) != len(groups) or any(
            len(indexes) != len(column)
            for indexes, column in zip(groups, values)
        ):
            raise ValueError("group_fold needs one value per row index")
        n_words = words_for(n_vals)
        if not n_words:
            return [[] for _ in groups]
        n_base = len(table) // n_words
        n_rows = n_base
        if overrides is not None:
            n_rows += len(overrides) // n_words

        def row(index: int) -> WordRow:
            if not 0 <= index < n_rows:
                raise IndexError(f"row index {index} outside {n_rows} rows")
            if index < n_base:
                return table[index * n_words : (index + 1) * n_words]
            index -= n_base
            return overrides[index * n_words : (index + 1) * n_words]

        fold = self.fold_max if is_max else self.fold_sum
        return [
            fold(
                [(value, row(index)) for index, value in zip(indexes, column)],
                n_vals,
                wanted,
            )
            for indexes, column in zip(groups, values)
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
        """Weighted sum of the per-position sparse accumulations.

        Position ``i`` computes, in this exact IEEE order::

            acc  = base[i] − minus[0][i] − minus[1][i] − …
                 + contrib(orig[0][i], vals[0][i]) + …
            wf_i = weights[i] * finish(acc)

        with ``contrib``/``finish`` the closed forms named by ``kind``
        (one of :data:`SPARSE_KINDS`); the result is the left-to-right
        sum of the ``wf_i``.  The dense columns encode absence as 0.0
        -- subtracting or adding an absent coordinate is an IEEE
        identity, which is what makes the columnar form bit-identical
        to a walk over the sparse dicts.
        """
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
        """``(Σ w·v, Σ w, Σ w·v·v)`` folded in 64-element blocks.

        Element ``i`` contributes ``w*v``, ``w`` and ``w*v*v`` (left
        associated) to its block's local accumulators; block sums then
        combine left to right -- exactly the blocked accumulation of
        ``SampledStepScorer._compute_batch_stats``.
        """
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

    # No caller in src/: kept because perfbench/tracer.py wraps this op.
    def fold_and(self, vectors: Sequence[WordRow]) -> array:
        """Bitwise AND across equal-length word rows."""
        if not vectors:
            raise ValueError("fold_and requires at least one vector")
        acc = array("Q", vectors[0])
        for words in vectors[1:]:
            for index, word in enumerate(words):
                acc[index] &= word
        return acc

    # No caller in src/: kept because perfbench/tracer.py wraps this op.
    def fold_or(self, vectors: Sequence[WordRow]) -> array:
        """Bitwise OR across equal-length word rows."""
        if not vectors:
            raise ValueError("fold_or requires at least one vector")
        acc = array("Q", vectors[0])
        for words in vectors[1:]:
            for index, word in enumerate(words):
                acc[index] |= word
        return acc

    # No caller in src/: kept because perfbench/tracer.py wraps this op.
    def fold_not(self, words: WordRow, n_vals: int) -> array:
        """Bitwise complement of one row, tail-clamped to ``n_vals``."""
        clamp = full_row(n_vals)
        out = array("Q", words)
        for index, word in enumerate(out):
            out[index] = (word ^ WORD_MASK) & clamp[index]
        return out
