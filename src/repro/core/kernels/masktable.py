"""Contiguous packed mask storage shared by the scorers and kernels.

A :class:`MaskTable` is an ``n_rows × n_words`` block of little-endian
64-bit words backed by one flat ``array('Q')``: row ``r`` holds the
packed bitset of key ``r``, bit ``i`` (word ``i >> 6``, bit
``i & 63``) ⇔ valuation/draw position ``i``.  Rows are handed out as
zero-copy ``memoryview`` slices, so ``packed_masks()`` /
``packed_term_dead()`` read the same buffer the kernel wrote -- no per-call ``to_bytes`` conversion.

Invariant: every row is *tail-clamped* -- bits at positions
``>= n_vals`` are zero; :func:`full_row` and the scatter constructors
maintain it.
"""

from __future__ import annotations

from array import array
from typing import List, Sequence, Union

WORD_BITS = 64
WORD_MASK = (1 << WORD_BITS) - 1

#: One packed mask row: ``array('Q')`` or a ``memoryview`` of one.
WordRow = Union[array, memoryview, Sequence[int]]


def words_for(n_vals: int) -> int:
    """Words needed to hold ``n_vals`` bits."""
    return (n_vals + WORD_BITS - 1) >> 6


def full_row(n_vals: int) -> array:
    """An all-ones row, tail-clamped to ``n_vals`` bits."""
    n_words = words_for(n_vals)
    row = array("Q", [WORD_MASK] * n_words)
    tail = n_vals & (WORD_BITS - 1)
    if n_words and tail:
        row[-1] = (1 << tail) - 1
    return row


def clamp_row(row: array, n_vals: int) -> array:
    """Zero any bits at positions ``>= n_vals``, in place."""
    tail = n_vals & (WORD_BITS - 1)
    if len(row) and tail:
        row[-1] &= (1 << tail) - 1
    return row


def row_int(row: WordRow) -> int:
    """The row as an unbounded little-endian int (tests/debugging)."""
    if isinstance(row, (array, memoryview)):
        return int.from_bytes(row.tobytes(), "little")
    value = 0
    for index, word in enumerate(row):
        value |= int(word) << (index * WORD_BITS)
    return value


def int_to_row(mask: int, n_vals: int) -> array:
    """Pack an unbounded-int mask into a tail-clamped word row."""
    n_words = words_for(n_vals)
    return array("Q", mask.to_bytes(n_words * 8, "little"))


class MaskTable:
    """``n_rows × n_words`` contiguous packed mask rows."""

    __slots__ = ("n_rows", "n_vals", "n_words", "words")

    def __init__(self, n_rows: int, n_vals: int, words: array = None):
        self.n_rows = n_rows
        self.n_vals = n_vals
        self.n_words = words_for(n_vals)
        if words is None:
            words = array("Q", bytes(8 * n_rows * self.n_words))
        if len(words) != n_rows * self.n_words:
            raise ValueError(
                f"MaskTable needs {n_rows * self.n_words} words, "
                f"got {len(words)}"
            )
        self.words = words

    def row(self, index: int) -> memoryview:
        """Zero-copy view of one row."""
        base = index * self.n_words
        return memoryview(self.words)[base : base + self.n_words]

    def rows(self) -> List[memoryview]:
        """Zero-copy views of every row, in row order."""
        return [self.row(index) for index in range(self.n_rows)]

    def set_bit(self, row: int, position: int) -> None:
        self.words[row * self.n_words + (position >> 6)] |= 1 << (
            position & (WORD_BITS - 1)
        )

    def row_ints(self) -> List[int]:
        """Every row as an unbounded int (tests/debugging)."""
        return [row_int(self.row(index)) for index in range(self.n_rows)]
