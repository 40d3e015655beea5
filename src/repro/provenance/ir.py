"""Interned provenance IR: the annotation interner.

Annotation *names* are interned once into dense integer ids, so the
summarizer's per-problem state (scorer masks, candidate pools, the
distance computer's columns) keys on small integers instead of
re-hashing annotation strings.  This mirrors how related
summarization systems get leverage from compact representations:
provenance-type aggregation (Moreau 2015) and provenance abstraction
for hypothetical reasoning (Deutch et al. 2020) both map concrete
identifiers into a small interned space before doing any real work.

:class:`AnnotationInterner` is a bidirectional ``str ↔ int`` map.  Ids
are dense, start at 0 and are stable for the interner's lifetime (a
session holds one interner, so repeated ``/summarize`` calls reuse ids
instead of re-parsing annotation strings).

Observability: the gauge ``repro_ir_interned_annotations`` (exported
via the ``/metrics`` endpoint) reports the cardinality of the interner
last passed to :func:`publish_metrics`; a session publishes its own
after every summarize.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..observability import log as _log
from ..observability import metrics as _metrics

_IR_INTERNED = _metrics.gauge(
    "repro_ir_interned_annotations",
    "Annotation names interned by the most recently published interner.",
)


# The string-keyed representation and its env switch are gone; a
# leftover setting is reported once and otherwise ignored.
if os.environ.get("REPRO_IR", "").strip():
    _log.get_logger("provenance.ir").warning(
        "ir_mode_removed requested=%s resolution=ir",
        _log.quote(os.environ["REPRO_IR"]),
    )


class AnnotationInterner:
    """Dense, stable, bidirectional ``annotation name ↔ int id`` map.

    A snapshot-restored interner (:meth:`from_snapshot`) wraps the
    name block of a session snapshot: the NUL-separated UTF-8
    blob is kept as-is and only decoded into Python strings -- and the
    reverse ``name → id`` dict only built -- when something actually
    asks (lazy restore).  Interning a *new* name materializes both and
    then grows them normally; ids assigned by the snapshot stay stable.
    """

    __slots__ = ("_ids", "_names", "_blob")

    def __init__(self, names: Iterable[str] = ()):
        self._ids: Optional[Dict[str, int]] = {}
        self._names: Optional[List[str]] = []
        #: Undecoded snapshot name block (restored interners only).
        self._blob: Optional[bytes] = None
        for name in names:
            self.intern(name)

    @classmethod
    def from_snapshot(cls, blob: bytes) -> "AnnotationInterner":
        """Wrap a read-only NUL-separated name block without decoding it."""
        interner = cls()
        if blob:
            interner._blob = bytes(blob)
            interner._names = None
            interner._ids = None
        return interner

    def _materialize(self) -> List[str]:
        """Decode the snapshot name block on first real use."""
        if self._names is None:
            self._names = [part.decode("utf-8") for part in self._blob.split(b"\x00")]
            self._blob = None
        return self._names

    def _id_map(self) -> Dict[str, int]:
        if self._ids is None:
            self._ids = {name: i for i, name in enumerate(self._materialize())}
        return self._ids

    def intern(self, name: str) -> int:
        """The id of ``name``, allocating the next dense id if new."""
        ids = self._ids
        if ids is None:
            ids = self._id_map()
        interned = ids.get(name)
        if interned is None:
            interned = len(self._names)
            ids[name] = interned
            self._names.append(name)
        return interned

    def intern_all(self, names: Iterable[str]) -> Tuple[int, ...]:
        return tuple(self.intern(name) for name in names)

    def lookup(self, name: str) -> Optional[int]:
        """The id of ``name`` if already interned, without allocating."""
        return self._id_map().get(name)

    def name_of(self, interned: int) -> str:
        names = self._names
        if names is None:
            names = self._materialize()
        return names[interned]

    def names_of(self, ids: Iterable[int]) -> Tuple[str, ...]:
        names = self._names
        if names is None:
            names = self._materialize()
        return tuple(names[i] for i in ids)

    def __len__(self) -> int:
        if self._names is None:
            return self._blob.count(b"\x00") + 1
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._id_map()

    def __iter__(self) -> Iterator[str]:
        """Names in id order."""
        if self._names is None:
            self._materialize()
        return iter(self._names)

    def nbytes(self) -> int:
        """Rough payload estimate: the name characters plus two slots
        (forward dict entry, reverse list entry) per name."""
        if self._names is None:
            return len(self._blob) + 16 * len(self)
        return sum(len(name) for name in self._names) + 16 * len(self._names)


def publish_metrics(interner: AnnotationInterner) -> None:
    """Set the ``repro_ir_interned_annotations`` gauge (``/metrics``)
    to the cardinality of ``interner``."""
    _IR_INTERNED.set(len(interner))
