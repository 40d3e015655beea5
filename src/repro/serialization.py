"""JSON (de)serialization of provenance expressions and summaries.

Provenance is long-lived by nature -- it documents how data was derived
-- so a provenance library must be able to persist its expressions and
the summaries computed from them.  This module round-trips:

* :class:`~repro.provenance.annotations.Annotation` /
  :class:`~repro.provenance.annotations.AnnotationUniverse`;
* :class:`~repro.provenance.tensor_sum.TensorSum` (terms, guards and
  aggregation monoid);
* :class:`~repro.provenance.ddp_expression.DDPExpression`;
* summaries: a :class:`~repro.core.summarize.SummarizationResult`'s
  portable part (summary expression + cumulative mapping + groups).

The format is a versioned plain-JSON object; ``load_expression``
dispatches on the recorded ``kind``.

Format version 2 adds the compact columnar encodings of the interned
IR (:mod:`repro.provenance.ir`): a ``term_store`` payload persists an
arena -- interned annotation names in id order plus the flat
``(annotation-id, exponent)`` pair array and its monomial bounds --
as either JSON columns or a packed little-endian binary blob, and a
``polynomial`` payload persists one polynomial against a *local*
mini-arena (ids re-densified to the monomials it actually uses), so
polynomials round-trip independently of any process-wide store.
Version-1 payloads still load.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import sys
from array import array
from typing import Any, Dict, IO, List, Mapping, Optional, Tuple, Union

from .core.streaming import ProvenanceDelta
from .core.summarize import SummarizationResult
from .provenance.annotations import Annotation, AnnotationUniverse
from .provenance.ddp_expression import (
    CostTransition,
    DBTransition,
    DDPExpression,
    Execution,
)
from .provenance.ir import AnnotationInterner, TermStore
from .provenance.monoids import monoid_by_name
from .provenance.polynomial import Polynomial
from .provenance.tensor_sum import Guard, TensorSum, Term
from .provenance.valuation import Valuation

FORMAT_VERSION = 2

Expression = Union[TensorSum, DDPExpression]


class SerializationError(ValueError):
    """Raised on malformed or unsupported payloads."""


# -- annotations ---------------------------------------------------------------


def annotation_to_dict(annotation: Annotation) -> Dict[str, Any]:
    return {
        "name": annotation.name,
        "domain": annotation.domain,
        "attributes": dict(annotation.attributes),
        "concept": annotation.concept,
        "members": sorted(annotation.members),
    }


def annotation_from_dict(data: Mapping[str, Any]) -> Annotation:
    try:
        return Annotation(
            name=data["name"],
            domain=data["domain"],
            attributes=dict(data.get("attributes", {})),
            concept=data.get("concept"),
            members=frozenset(data.get("members", ())),
        )
    except KeyError as missing:
        raise SerializationError(f"annotation payload missing {missing}") from None


def universe_to_dict(universe: AnnotationUniverse) -> Dict[str, Any]:
    return {
        "version": FORMAT_VERSION,
        "kind": "universe",
        "annotations": [annotation_to_dict(annotation) for annotation in universe],
    }


def universe_from_dict(data: Mapping[str, Any]) -> AnnotationUniverse:
    _check(data, "universe")
    return AnnotationUniverse(
        annotation_from_dict(entry) for entry in data.get("annotations", ())
    )


# -- tensor sums ----------------------------------------------------------------


def _guard_to_dict(guard: Guard) -> Dict[str, Any]:
    return {
        "annotations": list(guard.annotations),
        "value": guard.value,
        "op": guard.op,
        "threshold": guard.threshold,
    }


def _guard_from_dict(data: Mapping[str, Any]) -> Guard:
    return Guard(
        tuple(data["annotations"]), data["value"], data["op"], data["threshold"]
    )


def _term_to_dict(term: Term) -> Dict[str, Any]:
    return {
        "annotations": list(term.annotations),
        "value": term.value,
        "count": term.count,
        "group": term.group,
        "guards": [_guard_to_dict(guard) for guard in term.guards],
    }


def _term_from_dict(entry: Mapping[str, Any]) -> Term:
    return Term(
        annotations=tuple(entry["annotations"]),
        value=float(entry["value"]),
        count=int(entry.get("count", 1)),
        group=entry.get("group"),
        guards=tuple(
            _guard_from_dict(guard) for guard in entry.get("guards", ())
        ),
    )


def tensor_sum_to_dict(expression: TensorSum) -> Dict[str, Any]:
    return {
        "version": FORMAT_VERSION,
        "kind": "tensor_sum",
        "monoid": expression.monoid.name,
        "terms": [_term_to_dict(term) for term in expression.terms],
    }


def tensor_sum_from_dict(data: Mapping[str, Any]) -> TensorSum:
    _check(data, "tensor_sum")
    try:
        monoid = monoid_by_name(data["monoid"])
        terms = [_term_from_dict(entry) for entry in data["terms"]]
    except (KeyError, TypeError) as error:
        raise SerializationError(f"malformed tensor_sum payload: {error}") from None
    return TensorSum(terms, monoid)


# -- streaming deltas -----------------------------------------------------------


def valuation_to_dict(valuation: Valuation) -> Dict[str, Any]:
    return {
        "assignment": dict(valuation.assignment),
        "default": valuation.default,
        "weight": valuation.weight,
        "label": valuation.label,
    }


def valuation_from_dict(data: Mapping[str, Any]) -> Valuation:
    try:
        return Valuation(
            assignment={
                name: float(value)
                for name, value in dict(data.get("assignment", {})).items()
            },
            default=float(data.get("default", 1.0)),
            weight=float(data.get("weight", 1.0)),
            label=str(data.get("label", "")),
        )
    except (TypeError, ValueError) as error:
        raise SerializationError(f"malformed valuation payload: {error}") from None


def delta_to_dict(delta: ProvenanceDelta) -> Dict[str, Any]:
    """Wire encoding of one append-only streaming delta."""
    return {
        "version": FORMAT_VERSION,
        "kind": "delta",
        "annotations": [
            annotation_to_dict(annotation) for annotation in delta.annotations
        ],
        "terms": [_term_to_dict(term) for term in delta.terms],
        "valuations": [
            valuation_to_dict(valuation) for valuation in delta.valuations
        ],
        "extend_valuations": {
            label: list(names)
            for label, names in delta.extend_valuations.items()
        },
    }


def delta_from_dict(data: Mapping[str, Any]) -> ProvenanceDelta:
    _check(data, "delta")
    try:
        return ProvenanceDelta(
            annotations=tuple(
                annotation_from_dict(entry)
                for entry in data.get("annotations", ())
            ),
            terms=tuple(
                _term_from_dict(entry) for entry in data.get("terms", ())
            ),
            valuations=tuple(
                valuation_from_dict(entry)
                for entry in data.get("valuations", ())
            ),
            extend_valuations={
                label: tuple(names)
                for label, names in dict(
                    data.get("extend_valuations", {})
                ).items()
            },
        )
    except (KeyError, TypeError) as error:
        raise SerializationError(f"malformed delta payload: {error}") from None


# -- DDP expressions ---------------------------------------------------------------


def ddp_to_dict(expression: DDPExpression) -> Dict[str, Any]:
    executions = []
    for execution in expression.executions:
        transitions = []
        for transition in execution.transitions:
            if isinstance(transition, CostTransition):
                transitions.append(
                    {"kind": "cost", "var": transition.var, "cost": transition.cost}
                )
            else:
                transitions.append(
                    {
                        "kind": "db",
                        "vars": list(transition.vars),
                        "op": transition.op,
                    }
                )
        executions.append(transitions)
    return {"version": FORMAT_VERSION, "kind": "ddp", "executions": executions}


def ddp_from_dict(data: Mapping[str, Any]) -> DDPExpression:
    _check(data, "ddp")
    executions = []
    try:
        for transitions in data["executions"]:
            parsed = []
            for transition in transitions:
                if transition["kind"] == "cost":
                    parsed.append(
                        CostTransition(transition["var"], float(transition["cost"]))
                    )
                elif transition["kind"] == "db":
                    parsed.append(
                        DBTransition(tuple(transition["vars"]), transition["op"])
                    )
                else:
                    raise SerializationError(
                        f"unknown transition kind {transition['kind']!r}"
                    )
            executions.append(Execution(parsed))
    except (KeyError, TypeError) as error:
        raise SerializationError(f"malformed ddp payload: {error}") from None
    return DDPExpression(executions)


# -- generic expression dispatch ----------------------------------------------------


def expression_to_dict(expression: Expression) -> Dict[str, Any]:
    if isinstance(expression, TensorSum):
        return tensor_sum_to_dict(expression)
    if isinstance(expression, DDPExpression):
        return ddp_to_dict(expression)
    raise SerializationError(
        f"cannot serialize expression of type {type(expression).__name__}"
    )


def expression_from_dict(data: Mapping[str, Any]) -> Expression:
    kind = data.get("kind")
    if kind == "tensor_sum":
        return tensor_sum_from_dict(data)
    if kind == "ddp":
        return ddp_from_dict(data)
    raise SerializationError(f"unknown expression kind {kind!r}")


# -- summaries ---------------------------------------------------------------------------


def summary_to_dict(result: SummarizationResult) -> Dict[str, Any]:
    """The portable part of a summarization result.

    Enough to *use* the summary later (approximate provisioning needs
    the expression, the cumulative mapping and the summary annotations'
    membership); step telemetry is not persisted.
    """
    summary_annotations = [
        annotation_to_dict(result.universe[name])
        for name in sorted(set(result.mapping.values()))
        if result.universe[name].is_summary
    ]
    return {
        "version": FORMAT_VERSION,
        "kind": "summary",
        "expression": expression_to_dict(result.summary_expression),
        "mapping": result.mapping.as_dict(),
        "summary_annotations": summary_annotations,
        "final_size": result.final_size,
        "final_distance": result.final_distance.normalized,
        "stop_reason": result.stop_reason,
    }


def summary_from_dict(data: Mapping[str, Any]):
    """Load a persisted summary.

    Returns ``(expression, mapping_dict, annotations)`` where
    ``annotations`` are the summary annotations to re-register into a
    universe before lifting valuations.
    """
    _check(data, "summary")
    expression = expression_from_dict(data["expression"])
    mapping = dict(data["mapping"])
    annotations = [
        annotation_from_dict(entry) for entry in data.get("summary_annotations", ())
    ]
    return expression, mapping, annotations


# -- interned IR: term stores and polynomials (format version 2) ---------------

#: Magic prefix of the packed binary arena encoding.
_ARENA_MAGIC = b"PROXIR"


def term_store_to_dict(store: TermStore) -> Dict[str, Any]:
    """Columnar JSON encoding of an arena: names + flat pair columns."""
    return {
        "version": FORMAT_VERSION,
        "kind": "term_store",
        "annotations": list(store.interner),
        "pair_data": list(store._pair_data),
        "bounds": list(store._bounds),
    }


def term_store_from_dict(data: Mapping[str, Any]) -> TermStore:
    _check(data, "term_store")
    try:
        names = list(data["annotations"])
        pair_data = [int(value) for value in data["pair_data"]]
        bounds = [int(value) for value in data["bounds"]]
    except (KeyError, TypeError, ValueError) as error:
        raise SerializationError(f"malformed term_store payload: {error}") from None
    return _rebuild_store(names, pair_data, bounds)


def term_store_to_bytes(store: TermStore) -> bytes:
    """Packed little-endian binary encoding of an arena.

    Layout: ``PROXIR`` magic, u16 version, u32 name-block length, the
    NUL-separated UTF-8 name block, u64 pair count, u64 bound count,
    then the two int64 columns.  Dense and endian-stable -- the compact
    on-disk form for session snapshots.
    """
    names_blob = b"\x00".join(
        name.encode("utf-8") for name in store.interner
    )
    pair_data = store._pair_data
    bounds = store._bounds
    header = _ARENA_MAGIC + struct.pack(
        "<HIQQ", FORMAT_VERSION, len(names_blob), len(pair_data), len(bounds)
    )
    return (
        header
        + names_blob
        + struct.pack(f"<{len(pair_data)}q", *pair_data)
        + struct.pack(f"<{len(bounds)}q", *bounds)
    )


def term_store_from_bytes(blob: bytes) -> TermStore:
    if not blob.startswith(_ARENA_MAGIC):
        raise SerializationError("not a packed arena payload (bad magic)")
    offset = len(_ARENA_MAGIC)
    try:
        version, names_len, n_pairs, n_bounds = struct.unpack_from(
            "<HIQQ", blob, offset
        )
        offset += struct.calcsize("<HIQQ")
        if version > FORMAT_VERSION:
            raise SerializationError(
                f"payload version {version} is newer than supported {FORMAT_VERSION}"
            )
        names_blob = blob[offset : offset + names_len]
        offset += names_len
        names = (
            [part.decode("utf-8") for part in names_blob.split(b"\x00")]
            if names_blob
            else []
        )
        pair_data = list(struct.unpack_from(f"<{n_pairs}q", blob, offset))
        offset += 8 * n_pairs
        bounds = list(struct.unpack_from(f"<{n_bounds}q", blob, offset))
    except struct.error as error:
        raise SerializationError(f"truncated arena payload: {error}") from None
    return _rebuild_store(names, pair_data, bounds)


def _rebuild_store(
    names: List[str], pair_data: List[int], bounds: List[int]
) -> TermStore:
    """Re-intern a persisted arena (monomial ids are preserved)."""
    if not bounds or bounds[0] != 0:
        raise SerializationError("arena bounds must start at 0")
    if bounds[-1] != len(pair_data):
        raise SerializationError("arena bounds do not cover the pair data")
    store = TermStore(AnnotationInterner(names))
    n_names = len(names)
    for mono in range(1, len(bounds) - 1):
        start, end = bounds[mono], bounds[mono + 1]
        if end < start or (end - start) % 2:
            raise SerializationError(f"malformed monomial slice at id {mono}")
        flat = tuple(pair_data[start:end])
        for ann_id, exponent in zip(flat[0::2], flat[1::2]):
            if not 0 <= ann_id < n_names:
                raise SerializationError(
                    f"monomial {mono} references unknown annotation id {ann_id}"
                )
            if exponent <= 0:
                raise SerializationError(
                    f"monomial {mono} has non-positive exponent {exponent}"
                )
        if store.intern_monomial(flat) != mono:
            raise SerializationError(
                f"arena monomials are not canonical/deduplicated at id {mono}"
            )
    return store


# -- mmap-able arena snapshots (format version 3) -------------------------------
#
# The v2 ``PROXIR`` blob above is compact but *parse-on-load*: every
# int64 is unpacked into Python objects.  The arena *snapshot* layout
# below is the zero-copy extension the serving tier evicts and
# rehydrates sessions through: every block sits at an 8-byte-aligned
# offset, so a loader can ``mmap`` the file and hand the pair/bounds/
# sizes blocks to :meth:`repro.provenance.ir.TermStore.from_buffers`
# as ``memoryview('q')``s -- restore touches no monomial bytes at all.
#
# Layout (all offsets 8-aligned)::
#
#     0   magic  b"PROXAR03"
#     8   <QQQQQ> names_len, n_pairs, n_bounds, n_sizes, flags
#     48  name block   names_len bytes of NUL-separated UTF-8, padded to 8
#     .   pair block   n_pairs  * int64 (native order; flags bit 0 = LE)
#     .   bounds block n_bounds * int64
#     .   sizes block  n_sizes  * int64
#
# ``flags`` bit 0 records the writer's endianness; a reader on the
# other endianness falls back to an eager (copying) decode.

_ARENA_SNAPSHOT_MAGIC = b"PROXAR03"
_ARENA_SNAPSHOT_HEADER = "<QQQQQ"
_FLAG_LITTLE_ENDIAN = 1


def _pad8(length: int) -> int:
    return (-length) % 8


def _int64_bytes(column) -> bytes:
    """Native-order packed bytes of an arena column (array or IntColumn)."""
    if isinstance(column, array):
        return column.tobytes()
    return array("q", iter(column)).tobytes()


def arena_snapshot_bytes(store: TermStore) -> bytes:
    """The word-aligned, mmap-able snapshot encoding of an arena.

    Re-snapshotting a store loaded by :func:`load_arena_snapshot` (with
    no intervening appends) is byte-identical -- the golden round-trip
    the serving tier's eviction path relies on.
    """
    names_blob = b"\x00".join(name.encode("utf-8") for name in store.interner)
    pair_bytes = _int64_bytes(store._pair_data)
    bounds_bytes = _int64_bytes(store._bounds)
    sizes_bytes = _int64_bytes(store._mono_sizes)
    flags = _FLAG_LITTLE_ENDIAN if sys.byteorder == "little" else 0
    parts = [
        _ARENA_SNAPSHOT_MAGIC,
        struct.pack(
            _ARENA_SNAPSHOT_HEADER,
            len(names_blob),
            len(pair_bytes) // 8,
            len(bounds_bytes) // 8,
            len(sizes_bytes) // 8,
            flags,
        ),
        names_blob,
        b"\x00" * _pad8(len(names_blob)),
        pair_bytes,
        bounds_bytes,
        sizes_bytes,
    ]
    return b"".join(parts)


def arena_snapshot_length(buffer, offset: int = 0) -> int:
    """Total byte length of the snapshot starting at ``offset``."""
    names_len, n_pairs, n_bounds, n_sizes, _ = struct.unpack_from(
        _ARENA_SNAPSHOT_HEADER, buffer, offset + len(_ARENA_SNAPSHOT_MAGIC)
    )
    header = len(_ARENA_SNAPSHOT_MAGIC) + struct.calcsize(_ARENA_SNAPSHOT_HEADER)
    return header + names_len + _pad8(names_len) + 8 * (n_pairs + n_bounds + n_sizes)


def arena_from_buffer(buffer: memoryview, offset: int = 0) -> TermStore:
    """Wrap one arena snapshot inside ``buffer`` without copying it.

    ``buffer`` is typically a ``memoryview`` over an ``mmap``; the
    returned store's pair/bounds/sizes columns read straight from it
    (appends go to a private tail -- see
    :class:`repro.provenance.ir.IntColumn`).  ``offset`` must be
    8-aligned relative to the mapping.
    """
    if bytes(buffer[offset : offset + len(_ARENA_SNAPSHOT_MAGIC)]) != (
        _ARENA_SNAPSHOT_MAGIC
    ):
        raise SerializationError("not an arena snapshot (bad magic)")
    header_at = offset + len(_ARENA_SNAPSHOT_MAGIC)
    try:
        names_len, n_pairs, n_bounds, n_sizes, flags = struct.unpack_from(
            _ARENA_SNAPSHOT_HEADER, buffer, header_at
        )
    except struct.error as error:
        raise SerializationError(f"truncated arena snapshot: {error}") from None
    cursor = header_at + struct.calcsize(_ARENA_SNAPSHOT_HEADER)
    names_blob = bytes(buffer[cursor : cursor + names_len])
    if len(names_blob) != names_len:
        raise SerializationError("truncated arena snapshot name block")
    cursor += names_len + _pad8(names_len)
    writer_little = bool(flags & _FLAG_LITTLE_ENDIAN)
    if writer_little != (sys.byteorder == "little"):
        # Cross-endian snapshot: fall back to an eager decode (correct,
        # but copying) through the v2 rebuild path.
        endian = "<" if writer_little else ">"
        pair_data = list(
            struct.unpack_from(f"{endian}{n_pairs}q", buffer, cursor)
        )
        bounds = list(
            struct.unpack_from(f"{endian}{n_bounds}q", buffer, cursor + 8 * n_pairs)
        )
        names = (
            [part.decode("utf-8") for part in names_blob.split(b"\x00")]
            if names_blob
            else []
        )
        return _rebuild_store(names, pair_data, bounds)
    end_pairs = cursor + 8 * n_pairs
    end_bounds = end_pairs + 8 * n_bounds
    end_sizes = end_bounds + 8 * n_sizes
    if end_sizes > len(buffer):
        raise SerializationError("truncated arena snapshot blocks")
    pair_base = buffer[cursor:end_pairs].cast("q")
    bounds_base = buffer[end_pairs:end_bounds].cast("q")
    sizes_base = buffer[end_bounds:end_sizes].cast("q")
    try:
        return TermStore.from_buffers(names_blob, pair_base, bounds_base, sizes_base)
    except ValueError as error:
        raise SerializationError(str(error)) from None


def write_arena_snapshot(store: TermStore, path: Union[str, os.PathLike]) -> int:
    """Write one arena snapshot file; returns the byte count."""
    blob = arena_snapshot_bytes(store)
    with open(path, "wb") as handle:
        handle.write(blob)
    return len(blob)


def load_arena_snapshot(path: Union[str, os.PathLike]) -> TermStore:
    """mmap an arena snapshot file and wrap it zero-copy.

    The mapping stays alive for as long as the returned store's column
    views reference it; the file descriptor is closed immediately.
    """
    with open(path, "rb") as handle:
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    return arena_from_buffer(memoryview(mapped))


# -- session snapshots ----------------------------------------------------------
#
# One file per evicted session: a JSON meta document (the replayable
# event log -- dataset recipe, selection, ingested deltas, last
# summarize request) followed by the session interner's name block and
# the word-aligned arena snapshot, both at 8-aligned offsets so
# restore can mmap the file once and wrap every block read-only.

_SESSION_SNAPSHOT_MAGIC = b"PROXSN01"
_SESSION_SNAPSHOT_HEADER = "<QQQ"


def write_session_snapshot(
    path: Union[str, os.PathLike],
    meta: Dict[str, Any],
    interner_names: Optional[List[str]] = None,
    store: Optional[TermStore] = None,
) -> int:
    """Write a session snapshot; returns the byte count."""
    meta_blob = json.dumps(meta, ensure_ascii=False, sort_keys=True).encode("utf-8")
    names_blob = (
        b"\x00".join(name.encode("utf-8") for name in interner_names)
        if interner_names
        else b""
    )
    arena_blob = arena_snapshot_bytes(store) if store is not None else b""
    parts = [
        _SESSION_SNAPSHOT_MAGIC,
        struct.pack(
            _SESSION_SNAPSHOT_HEADER, len(meta_blob), len(names_blob), len(arena_blob)
        ),
        meta_blob,
        b"\x00" * _pad8(len(meta_blob)),
        names_blob,
        b"\x00" * _pad8(len(names_blob)),
        arena_blob,
    ]
    blob = b"".join(parts)
    with open(path, "wb") as handle:
        handle.write(blob)
    return len(blob)


def load_session_snapshot(
    path: Union[str, os.PathLike],
) -> Tuple[Dict[str, Any], bytes, Optional[TermStore]]:
    """mmap a session snapshot: ``(meta, interner name blob, store)``.

    The meta document and interner block are materialized (they are
    small); the arena -- the bulk of the file -- is wrapped zero-copy.
    ``store`` is ``None`` when the snapshot carried no arena (older
    releases could write such snapshots; they restore by event replay).
    """
    with open(path, "rb") as handle:
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    buffer = memoryview(mapped)
    if bytes(buffer[: len(_SESSION_SNAPSHOT_MAGIC)]) != _SESSION_SNAPSHOT_MAGIC:
        raise SerializationError("not a session snapshot (bad magic)")
    try:
        meta_len, names_len, arena_len = struct.unpack_from(
            _SESSION_SNAPSHOT_HEADER, buffer, len(_SESSION_SNAPSHOT_MAGIC)
        )
    except struct.error as error:
        raise SerializationError(f"truncated session snapshot: {error}") from None
    cursor = len(_SESSION_SNAPSHOT_MAGIC) + struct.calcsize(_SESSION_SNAPSHOT_HEADER)
    try:
        meta = json.loads(bytes(buffer[cursor : cursor + meta_len]))
    except json.JSONDecodeError as error:
        raise SerializationError(f"malformed session meta: {error}") from None
    cursor += meta_len + _pad8(meta_len)
    names_blob = bytes(buffer[cursor : cursor + names_len])
    cursor += names_len + _pad8(names_len)
    store = arena_from_buffer(buffer, cursor) if arena_len else None
    return meta, names_blob, store


def polynomial_to_dict(polynomial: Polynomial) -> Dict[str, Any]:
    """Columnar encoding of one polynomial against a local mini-arena.

    Annotation and monomial ids are re-densified to the polynomial's
    own support, so the payload is independent of whatever process-wide
    store produced it.
    """
    local_names: List[str] = []
    name_ids: Dict[str, int] = {}
    pair_data: List[int] = []
    bounds = [0]
    mono_ids: List[int] = []
    coefficients: List[int] = []
    for monomial, coefficient in sorted(polynomial.terms().items()):
        id_pairs = []
        for name, exponent in monomial:
            local = name_ids.get(name)
            if local is None:
                local = name_ids[name] = len(local_names)
                local_names.append(name)
            id_pairs.append((local, exponent))
        for local, exponent in sorted(id_pairs):
            pair_data.append(local)
            pair_data.append(exponent)
        bounds.append(len(pair_data))
        mono_ids.append(len(mono_ids))
        coefficients.append(coefficient)
    return {
        "version": FORMAT_VERSION,
        "kind": "polynomial",
        "annotations": local_names,
        "pair_data": pair_data,
        "bounds": bounds,
        "monomials": mono_ids,
        "coefficients": coefficients,
    }


def polynomial_from_dict(data: Mapping[str, Any]) -> Polynomial:
    _check(data, "polynomial")
    try:
        names = list(data["annotations"])
        pair_data = list(data["pair_data"])
        bounds = list(data["bounds"])
        mono_ids = list(data["monomials"])
        coefficients = list(data["coefficients"])
    except (KeyError, TypeError) as error:
        raise SerializationError(f"malformed polynomial payload: {error}") from None
    if len(mono_ids) != len(coefficients):
        raise SerializationError("monomial and coefficient columns differ in length")
    terms: Dict[Any, int] = {}
    try:
        for mono, coefficient in zip(mono_ids, coefficients):
            start, end = bounds[mono], bounds[mono + 1]
            monomial = tuple(
                sorted(
                    (names[pair_data[i]], pair_data[i + 1])
                    for i in range(start, end, 2)
                )
            )
            terms[monomial] = terms.get(monomial, 0) + int(coefficient)
    except IndexError as error:
        raise SerializationError(f"malformed polynomial payload: {error}") from None
    return Polynomial(terms)


# -- file helpers ---------------------------------------------------------------------------


def dump(payload: Dict[str, Any], target: IO[str]) -> None:
    json.dump(payload, target, ensure_ascii=False, indent=2, sort_keys=True)


def dumps(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, ensure_ascii=False, sort_keys=True)


def load_expression(source: Union[str, IO[str]]) -> Expression:
    data = json.loads(source) if isinstance(source, str) else json.load(source)
    return expression_from_dict(data)


def _check(data: Mapping[str, Any], kind: str) -> None:
    if data.get("kind") != kind:
        raise SerializationError(
            f"expected kind {kind!r}, got {data.get('kind')!r}"
        )
    version = data.get("version", FORMAT_VERSION)
    if version > FORMAT_VERSION:
        raise SerializationError(
            f"payload version {version} is newer than supported {FORMAT_VERSION}"
        )
