"""The kernel protocol: the narrow waist under the bit-packed scorers.

Every hot fold of the scoring tier funnels through one of these ops,
each defined over the same packed representations the scorers already
use -- little-endian ``array('Q')`` word rows (bit ``i`` ⇔
valuation/draw position ``i``, see
:mod:`repro.core.kernels.masktable`) and ann-id-sorted monomial pair
runs:

* :meth:`~KernelBackend.scatter_false_sets` -- mask *construction*:
  scatter lifted false sets into a contiguous :class:`MaskTable`
  (the per-step precomputation of ``_build_masks``).
* :meth:`~KernelBackend.fold_max` / :meth:`~KernelBackend.fold_sum` --
  per-position group aggregates from ``(value, dead-row)`` term lists.
* :meth:`~KernelBackend.group_fold` -- several group aggregates at
  once, each group naming its rows by index into the scorer's
  dead-row table (plus a per-candidate override table): candidate
  scoring, step baselines and ``advance`` refolds.
* :meth:`~KernelBackend.baseline_scatter` -- the per-group fold over
  ``(value, dead-row)`` lists of many keyed groups at once.
* :meth:`~KernelBackend.sparse_scores` -- the per-candidate sparse
  accumulation (base − excluded columns + recomputed contribs,
  finished, weighted and summed) for the VAL-FUNCs tagged with a
  ``contrib_kind``.
* :meth:`~KernelBackend.weighted_moments` -- the per-64-draw-block
  weighted sum / weight / sum-of-squares reduction behind the sampled
  batch statistics.
* :meth:`~KernelBackend.fold_and` / :meth:`~KernelBackend.fold_or` /
  :meth:`~KernelBackend.fold_not` /
  :meth:`~KernelBackend.popcount_blocks` /
  :meth:`~KernelBackend.popcount` -- packed word-row combinators
  (mask algebra, survivor counting).
* :meth:`~KernelBackend.merge_monomials` -- the sorted-merge monomial
  product of the interned IR arena.

**The contract is bit-identity, not approximation.**  Each op's result
must equal the reference backend's to the last bit: same floats, same
ints, same ordering.  Backends achieve that by preserving the exact
IEEE operation sequence *per output position* (positions are mutually
independent in every fold, so cross-position evaluation order is
free).  Mask rows are tail-clamped (bits ``>= n_vals`` zero) and the
fold operands arrive tail-clamped; scatter outputs must be bit-for-bit
equal as words.  The differential grids in
``tests/core/test_kernels.py``, ``tests/core/test_sampled_scoring.py``
and ``tests/core/test_parallel_scoring.py`` enforce the contract.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from .masktable import MaskTable, WordRow, words_for

#: ``(term value, packed dead-mask word row)`` -- one fold operand.
MaskedValue = Tuple[float, WordRow]

#: ``contrib_kind`` tags :meth:`KernelBackend.sparse_scores` accepts.
#: ``sqdiff``  -- contrib ``d*d`` (d = orig − summ), finish
#:               ``sqrt(t) if t > 0 else 0.0``  (EuclideanDistance);
#: ``absdiff`` -- contrib ``abs(d)``, finish ``t if t > 0 else 0.0``
#:               (AbsoluteDifference);
#: ``isclose01`` -- contrib ``0.0 if isclose(o, s) else 1.0`` with
#:               ``math.isclose`` semantics (rel_tol 1e-9, abs_tol 0),
#:               finish ``0.0 if t == 0.0 else 1.0``  (Disagreement).
SPARSE_KINDS = frozenset({"sqdiff", "absdiff", "isclose01"})


class KernelBackend:
    """Abstract kernel backend; concrete backends override every op."""

    #: Stable backend identifier (``"python"`` / ``"native"``).
    name: str = "abstract"

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
        raise NotImplementedError

    # -- dead-mask folds -----------------------------------------------------

    def fold_max(
        self,
        masks: Sequence[MaskedValue],
        n_vals: int,
        wanted: Optional[WordRow] = None,
    ) -> List[float]:
        """Per-position MAX of the alive values.

        ``masks`` must arrive in descending value order (the scorers
        keep groups presorted): each position takes the first value
        whose dead row leaves it alive, positions nobody covers stay
        0.0.  ``wanted`` restricts the fold to the set positions of the
        word row; other positions keep 0.0 and must not be read.
        """
        raise NotImplementedError

    def fold_sum(
        self,
        masks: Sequence[MaskedValue],
        n_vals: int,
        wanted: Optional[WordRow] = None,
    ) -> List[float]:
        """Per-position SUM of the alive values.

        Every position starts from the full left-to-right term total
        and each term's value is subtracted at its dead positions *in
        term order* -- the subtraction sequence per position is part of
        the bit-identity contract.  ``wanted`` as in :meth:`fold_max`
        (unrestricted positions hold the unfinished total).
        """
        raise NotImplementedError

    def baseline_scatter(
        self,
        groups: Sequence[Tuple[object, Sequence[MaskedValue]]],
        n_vals: int,
        is_max: bool,
    ) -> Dict[object, List[float]]:
        """All per-group baseline folds of one step in a single call.

        Semantically ``{group: fold(masks, n_vals)}`` with the fold
        picked by ``is_max``; a backend may share unpacked mask state
        across groups (terms repeat dead rows freely) but each group's
        output must equal its standalone fold bit for bit.
        """
        fold = self.fold_max if is_max else self.fold_sum
        return {group: fold(masks, n_vals) for group, masks in groups}

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
        raise NotImplementedError

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
        raise NotImplementedError

    # -- packed word-row algebra ---------------------------------------------

    def fold_and(self, vectors: Sequence[WordRow]) -> array:
        """Bitwise AND across equal-length word rows."""
        raise NotImplementedError

    def fold_or(self, vectors: Sequence[WordRow]) -> array:
        """Bitwise OR across equal-length word rows."""
        raise NotImplementedError

    def fold_not(self, words: WordRow, n_vals: int) -> array:
        """Bitwise complement of one row, tail-clamped to ``n_vals``."""
        raise NotImplementedError

    def popcount_blocks(self, words: WordRow) -> List[int]:
        """Set-bit count of each 64-bit word."""
        raise NotImplementedError

    def popcount(self, words: WordRow) -> int:
        """Total set bits across the word row."""
        raise NotImplementedError

    # -- interned-arena monomial product -------------------------------------

    def merge_monomials(
        self,
        first: Sequence[Tuple[int, int]],
        second: Sequence[Tuple[int, int]],
    ) -> Tuple[int, ...]:
        """Merge two ann-id-sorted ``(id, exponent)`` runs, summing
        shared exponents; returns the flat interleaved key tuple."""
        raise NotImplementedError
