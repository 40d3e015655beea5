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
dispatches on the recorded ``kind``.  Evicted serving sessions are
written as ``PROXSN01`` session snapshots (see
:func:`write_session_snapshot`): the session's replayable event log.
"""

from __future__ import annotations

import json
import os
import struct
from typing import Any, Dict, IO, Mapping, Union

from .core.streaming import ProvenanceDelta
from .core.summarize import SummarizationResult
from .provenance.annotations import Annotation, AnnotationUniverse
from .provenance.ddp_expression import (
    CostTransition,
    DBTransition,
    DDPExpression,
    Execution,
)
from .provenance.monoids import monoid_by_name
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


# -- session snapshots ----------------------------------------------------------
#
# One file per evicted session: a JSON meta document (the replayable
# event log -- dataset recipe, selection, ingested deltas, last
# summarize request).  Restore replays the event log, so nothing else
# is stored.
#
# Layout (blocks padded to 8 bytes)::
#
#     0   magic  b"PROXSN01"
#     8   <QQQ>  meta_len, names_len, arena_len
#     32  meta block   meta_len bytes of UTF-8 JSON
#     .   name block   names_len bytes of NUL-separated UTF-8
#     .   arena block  arena_len bytes
#
# Older releases stored the session's annotation name table in the
# name block and an image of the process monomial arena in the arena
# block.  Writers now record ``names_len = arena_len = 0``; a reader
# still checks a non-empty name block and skips the arena block
# unread.

_SESSION_SNAPSHOT_MAGIC = b"PROXSN01"
_SESSION_SNAPSHOT_HEADER = "<QQQ"


def _pad8(length: int) -> int:
    return (-length) % 8


def write_session_snapshot(path: Union[str, os.PathLike], meta: Dict[str, Any]) -> int:
    """Write a session snapshot; returns the byte count."""
    meta_blob = json.dumps(meta, ensure_ascii=False, sort_keys=True).encode("utf-8")
    blob = b"".join(
        [
            _SESSION_SNAPSHOT_MAGIC,
            struct.pack(_SESSION_SNAPSHOT_HEADER, len(meta_blob), 0, 0),
            meta_blob,
            b"\x00" * _pad8(len(meta_blob)),
        ]
    )
    with open(path, "wb") as handle:
        handle.write(blob)
    return len(blob)


def load_session_snapshot(path: Union[str, os.PathLike]) -> Dict[str, Any]:
    """Read a session snapshot's meta document.

    Raises :class:`SerializationError` unless the block lengths in the
    header add up to the file's size, both blocks end where their zero
    padding starts, the meta block is a UTF-8 JSON object and the name
    block is UTF-8.  The name block of an older file is checked and
    otherwise ignored.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if not data.startswith(_SESSION_SNAPSHOT_MAGIC):
        raise SerializationError("not a session snapshot (bad magic)")
    try:
        meta_len, names_len, arena_len = struct.unpack_from(
            _SESSION_SNAPSHOT_HEADER, data, len(_SESSION_SNAPSHOT_MAGIC)
        )
    except struct.error as error:
        raise SerializationError(f"truncated session snapshot: {error}") from None
    meta_at = len(_SESSION_SNAPSHOT_MAGIC) + struct.calcsize(_SESSION_SNAPSHOT_HEADER)
    names_at = meta_at + meta_len + _pad8(meta_len)
    arena_at = names_at + names_len + _pad8(names_len)
    if arena_at + arena_len != len(data):
        raise SerializationError(
            f"session snapshot is {len(data)} bytes, its header "
            f"describes {arena_at + arena_len}"
        )
    names_end = names_at + names_len
    names_blob = data[names_at:names_end]
    if (
        data[meta_at + meta_len : names_at].strip(b"\x00")
        or data[names_end:arena_at].strip(b"\x00")
        or names_blob.endswith(b"\x00")
    ):
        raise SerializationError("session snapshot block ends inside its padding")
    try:
        meta = json.loads(data[meta_at : meta_at + meta_len].decode("utf-8"))
    except ValueError as error:
        raise SerializationError(f"malformed session meta: {error}") from None
    if not isinstance(meta, dict):
        raise SerializationError("session meta is not a JSON object")
    try:
        names_blob.decode("utf-8")
    except UnicodeDecodeError as error:
        raise SerializationError(f"malformed session name block: {error}") from None
    return meta


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
