"""Session snapshot bytes are untrusted input.

A session snapshot (``PROXSN01``) is read back from disk, so restoring
a damaged one must fail with :class:`~repro.serialization
.SerializationError` -- never an unrelated exception from deep inside
JSON, UTF-8 or replay code.  Each mutation kind below runs a fixed,
seeded budget against one real snapshot; every mutant either raises
``SerializationError`` or restores a session.
"""

import random
import struct

import pytest

from repro.datasets import (
    MovieLensConfig,
    MovieLensDeltaConfig,
    generate_movielens,
    generate_movielens_deltas,
)
from repro.prox import ProxSession
from repro.prox.summarization import SummarizationRequest
from repro.serialization import SerializationError

CONFIG = MovieLensConfig(n_users=6, n_movies=4, include_movie_merges=True, seed=5)

#: Mutants per kind (each restore of this snapshot takes about a
#: millisecond).
BUDGET = 150

_HEADER = struct.Struct("<QQQ")


def build_session(session_id):
    instance = generate_movielens(CONFIG)
    session = ProxSession(instance, session_id=session_id)
    session.select_by(genre=None)
    for delta in generate_movielens_deltas(
        instance, MovieLensDeltaConfig(n_deltas=2, seed=9)
    ):
        session.ingest(delta)
    session.summarize(SummarizationRequest(number_of_steps=2), seed=1)
    return session


@pytest.fixture(scope="module")
def snapshot_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("snapshot") / "session.snap"
    session = build_session("fuzz-original")
    try:
        session.snapshot(str(path))
    finally:
        session.close()
    return path.read_bytes()


def byte_flips(blob, rng):
    for _ in range(BUDGET):
        at = rng.randrange(len(blob))
        mutant = bytearray(blob)
        mutant[at] ^= rng.randrange(1, 256)
        yield f"byte {at} ^= {blob[at] ^ mutant[at]:#04x}", bytes(mutant)


def truncations(blob, rng):
    yield "empty file", b""
    for _ in range(BUDGET - 1):
        length = rng.randrange(len(blob))
        yield f"truncated to {length} bytes", blob[:length]


def header_fields(blob, rng):
    fields = list(_HEADER.unpack_from(blob, 8))
    for _ in range(BUDGET):
        index = rng.randrange(len(fields))
        value = rng.choice(
            [
                0,
                fields[index] + rng.randint(-9, 9),
                rng.randrange(len(blob)),
                rng.randrange(2**64),
            ]
        )
        if value < 0 or value == fields[index]:
            continue
        mutated = list(fields)
        mutated[index] = value
        yield (
            f"header field {index}: {fields[index]} -> {value}",
            blob[:8] + _HEADER.pack(*mutated) + blob[8 + _HEADER.size :],
        )


@pytest.mark.parametrize(
    "mutations, seed",
    [
        pytest.param(byte_flips, 1, id="byte-flip"),
        pytest.param(truncations, 2, id="truncation"),
        pytest.param(header_fields, 3, id="header-field"),
    ],
)
def test_mutated_snapshot_raises_serialization_error_or_restores(
    mutations, seed, snapshot_bytes, tmp_path
):
    path = tmp_path / "mutant.snap"
    outcomes = {"rejected": 0, "restored": 0}
    for description, mutant in mutations(snapshot_bytes, random.Random(seed)):
        path.write_bytes(mutant)
        try:
            session = ProxSession.restore(str(path), session_id="fuzz-restored")
        except SerializationError:
            outcomes["rejected"] += 1
            continue
        except Exception as error:  # pragma: no cover - the failure report
            pytest.fail(f"{description}: {type(error).__name__}: {error}")
        session.close()
        outcomes["restored"] += 1
    assert outcomes["rejected"] > 0
    if mutations is not byte_flips:
        # Every truncation and every header change breaks the block
        # lengths, so none of them may restore.
        assert outcomes["restored"] == 0, outcomes
