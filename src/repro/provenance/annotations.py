"""Annotations and the universe they live in.

A provenance *annotation* is an abstract variable identifying a basic
unit of data -- a user, a movie, a Wikipedia page, a DDP database or
cost variable.  The summarization machinery needs more than the bare
name: semantic constraints (Chapter 3) look at the *domain* an
annotation belongs to (only same-domain annotations may be merged), at
its *attributes* (merged users must share gender, age range, ...), and
at its optional *taxonomy concept* (merged pages must share a WordNet
ancestor).

Summary annotations produced by a mapping ``h`` remember the set of
original annotations they stand for (:attr:`Annotation.members`); this
is what the combiner ``φ`` consumes when it lifts a valuation from
``Ann`` to ``Ann'``.

:class:`AnnotationUniverse` is the registry of all annotations of one
provenance instance.  It hands out fresh summary names and answers the
attribute/domain queries the constraint checkers ask.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Tuple


@dataclass(frozen=True)
class Annotation:
    """One provenance annotation.

    Parameters
    ----------
    name:
        Unique identifier, e.g. ``"UID278"`` or ``"Gender=F#3"``.
    domain:
        The input table / variable kind the annotation comes from,
        e.g. ``"user"``, ``"movie"``, ``"page"``, ``"db"``, ``"cost"``.
        Semantic constraints never merge across domains.
    attributes:
        Attribute name → value pairs from the underlying tuple
        (gender, age range, occupation, ...).  For a summary
        annotation these are the attributes *shared* by all members.
    concept:
        Optional taxonomy concept the annotated object is an instance
        of (Wikipedia pages carry their WordNet concept here).
    members:
        For summary annotations, the names of the *original*
        annotations summarized; empty for base annotations.
    """

    name: str
    domain: str
    attributes: Mapping[str, object] = field(default_factory=dict)
    concept: Optional[str] = None
    members: FrozenSet[str] = frozenset()

    def __post_init__(self) -> None:
        # Freeze the attribute mapping so Annotation stays hashable and
        # safely shareable between expressions.
        object.__setattr__(self, "attributes", _FrozenAttrs(self.attributes))

    @property
    def is_summary(self) -> bool:
        """Whether this annotation summarizes others."""
        return bool(self.members)

    def base_members(self) -> FrozenSet[str]:
        """Names of the base annotations this one stands for.

        A base annotation stands for itself.
        """
        return self.members if self.members else frozenset((self.name,))

    def shared_attributes(self, other: "Annotation") -> Dict[str, object]:
        """Attribute name → value pairs on which both annotations agree."""
        return {
            key: value
            for key, value in self.attributes.items()
            if key in other.attributes and other.attributes[key] == value
        }

    def __str__(self) -> str:
        return self.name


class _FrozenAttrs(Mapping[str, object]):
    """Immutable, hashable view over an attribute mapping."""

    __slots__ = ("_data", "_hash")

    def __init__(self, data: Mapping[str, object]):
        self._data = dict(data)
        self._hash: Optional[int] = None

    def __getitem__(self, key: str) -> object:
        return self._data[key]

    def get(self, key: str, default: object = None) -> object:
        # Direct: ``Mapping.get`` goes through ``__getitem__`` and a
        # ``KeyError`` for every missing key.
        return self._data.get(key, default)

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(sorted(self._data.items(), key=lambda kv: kv[0])))
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Mapping):
            return dict(self._data) == dict(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"_FrozenAttrs({self._data!r})"


class AnnotationUniverse:
    """Registry of every annotation of one provenance instance.

    The universe starts from the base annotations produced by a dataset
    builder and grows as the summarization algorithm mints summary
    annotations.  Names are unique; registering two different
    annotations under one name is an error (it would silently conflate
    provenance tokens).
    """

    def __init__(self, annotations: Iterable[Annotation] = ()):
        self._by_name: Dict[str, Annotation] = {}
        self._summary_counter = 0
        for annotation in annotations:
            self.register(annotation)

    # -- registry ---------------------------------------------------------

    def register(self, annotation: Annotation) -> Annotation:
        """Add ``annotation``; idempotent for identical re-registration."""
        existing = self._by_name.get(annotation.name)
        if existing is not None:
            if existing != annotation:
                raise ValueError(
                    f"annotation name collision: {annotation.name!r} already "
                    f"registered with different content"
                )
            return existing
        self._by_name[annotation.name] = annotation
        return annotation

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Annotation:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown annotation {name!r}") from None

    def get(self, name: str) -> Optional[Annotation]:
        return self._by_name.get(name)

    def __iter__(self) -> Iterator[Annotation]:
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)

    def names(self) -> Tuple[str, ...]:
        return tuple(self._by_name)

    def in_domain(self, domain: str) -> Tuple[Annotation, ...]:
        """All annotations of one domain, in registration order."""
        return tuple(a for a in self._by_name.values() if a.domain == domain)

    # -- summary annotations ----------------------------------------------

    @property
    def summary_counter(self) -> int:
        """How many counter-named summaries have been minted.

        Exposed (with the setter) so session snapshots can round-trip
        the minting state and differential harnesses can align a fresh
        reference universe with a long-lived session one -- summary
        *names* feed candidate ordering and tie-breaks, so bit-identical
        comparisons need bit-identical names.
        """
        return self._summary_counter

    @summary_counter.setter
    def summary_counter(self, value: int) -> None:
        self._summary_counter = int(value)

    def _summary_parts(
        self,
        parts: Iterable[Annotation],
        label: Optional[str],
    ) -> Tuple[List[Annotation], FrozenSet[str], Dict[str, object], str]:
        parts = list(parts)
        if len(parts) < 2:
            raise ValueError("a summary annotation must merge at least 2 parts")
        domains = {part.domain for part in parts}
        if len(domains) != 1:
            raise ValueError(
                f"cannot summarize annotations from different domains: {sorted(domains)}"
            )
        members: FrozenSet[str] = frozenset().union(
            *(part.base_members() for part in parts)
        )
        shared = dict(parts[0].attributes)
        for part in parts[1:]:
            shared = {
                key: value
                for key, value in shared.items()
                if key in part.attributes and part.attributes[key] == value
            }
        base_label = label if label else "+".join(sorted(p.name for p in parts)[:2])
        return parts, members, shared, base_label

    def new_summary(
        self,
        parts: Iterable[Annotation],
        label: Optional[str] = None,
        concept: Optional[str] = None,
    ) -> Annotation:
        """Mint and register a summary annotation for ``parts``.

        The new annotation's members are the union of the parts' base
        members and its attributes the intersection of the parts'
        attributes, so constraint checks keep working on summaries.
        ``label`` seeds the name (e.g. the shared attribute
        ``"Gender=F"``); a counter suffix keeps names unique.
        """
        parts, members, shared, base_label = self._summary_parts(parts, label)
        self._summary_counter += 1
        name = f"{base_label}#{self._summary_counter}"
        summary = Annotation(
            name=name,
            domain=parts[0].domain,
            attributes=shared,
            concept=concept,
            members=members,
        )
        return self.register(summary)

    def equivalence_summary(
        self,
        parts: Iterable[Annotation],
        label: Optional[str] = None,
        concept: Optional[str] = None,
    ) -> Annotation:
        """A *content-addressed* summary annotation for ``parts``.

        Unlike :meth:`new_summary`, the name is derived from the merged
        content (domain, base members, label, concept), not a counter:
        minting the same group twice -- in particular re-running
        ``GroupEquivalent`` after a streaming delta that left the class
        intact -- resolves to the *same* annotation.  That stability is
        what lets candidate pools and scorer measurements carry across
        ingests, and what keeps a repaired run's names identical to a
        from-scratch run's.  The ``~`` separator keeps the namespace
        disjoint from counter-minted ``label#k`` names; in the
        (astronomically unlikely) event of a digest collision with
        different content we fall back to counter minting.
        """
        parts, members, shared, base_label = self._summary_parts(parts, label)
        payload = "\x1f".join(
            (parts[0].domain, base_label, concept or "", *sorted(members))
        )
        digest = hashlib.blake2b(payload.encode("utf-8"), digest_size=5).hexdigest()
        name = f"{base_label}~{digest}"
        summary = Annotation(
            name=name,
            domain=parts[0].domain,
            attributes=shared,
            concept=concept,
            members=members,
        )
        try:
            return self.register(summary)
        except ValueError:
            return self.new_summary(parts, label=label, concept=concept)

    # -- attribute queries --------------------------------------------------

    def attribute_values(self, attribute: str) -> Tuple[object, ...]:
        """Distinct values of ``attribute`` across base annotations."""
        seen = []
        for annotation in self._by_name.values():
            if annotation.is_summary:
                continue
            if attribute in annotation.attributes:
                value = annotation.attributes[attribute]
                if value not in seen:
                    seen.append(value)
        return tuple(seen)

    def with_attribute(self, attribute: str, value: object) -> Tuple[Annotation, ...]:
        """Base annotations whose ``attribute`` equals ``value``."""
        return tuple(
            annotation
            for annotation in self._by_name.values()
            if not annotation.is_summary
            and annotation.attributes.get(attribute) == value
        )

    def attribute_names(self) -> Tuple[str, ...]:
        """All attribute names seen on base annotations, sorted."""
        names: set = set()
        for annotation in self._by_name.values():
            if not annotation.is_summary:
                names.update(annotation.attributes)
        return tuple(sorted(names))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<AnnotationUniverse of {len(self)} annotations>"
